//! Two-phase primal simplex — *sparse revised* implementation — with
//! warm-started re-solves for column generation.
//!
//! The basis is never inverted explicitly: an eta-file factorization
//! ([`crate::factor::Factor`]) carries `B^-1` as a product of per-pivot
//! eta matrices, rebuilt from the sparse basis columns every
//! [`Model::set_refactor_interval`] pivots. Per iteration the engine
//! computes the simplex multipliers `y = B^-T c_B` (BTRAN), prices the
//! sparse nonbasic columns against them, transforms the entering column
//! `w = B^-1 a_j` (FTRAN), runs the ratio test on `w`, and appends one
//! eta — pivot work scales with the column nonzeros and the basis
//! dimension, not with `rows x columns` like the dense tableau this
//! replaced.
//!
//! Method: variables are shifted to `x' = x - lb >= 0`; finite upper
//! bounds become explicit `x' <= ub - lb` rows. Inequalities get slack /
//! surplus variables, rows are sign-normalized to `rhs >= 0`, and rows
//! without a natural slack basis get artificial variables. Phase 1
//! minimizes the artificial sum (infeasible iff positive), phase 2 the
//! shifted objective. Dantzig pricing with a switch to Bland's rule after
//! a degeneracy threshold guards against cycling. Duals are read off the
//! factorization: `y = B^-T c_B`, mapped back through the row-sign
//! normalization.
//!
//! **Warm starts** ([`WarmState`], [`resolve`]): an optimal solve can
//! return its final basis. After the caller appends columns
//! ([`Model::add_column`]) and/or changes objective coefficients, the old
//! basis is still primal feasible, so the re-solve skips phase 1 entirely
//! and continues phase 2 from the previous optimum. Appending a column is
//! O(column nonzeros) — the factorization is untouched. Any structural
//! change the warm path cannot absorb — changed bounds, new constraints,
//! non-`[0, inf)` bounds on appended variables — is detected and falls
//! back to a cold solve.
//!
//! **Column lifecycle** ([`purge_columns`]): a column-generation master
//! accumulates columns forever; nonbasic columns can be physically
//! removed again without invalidating the warm basis. The purge compacts
//! the model and the warm state coherently (column store, basis indices,
//! variable maps); the factorization and basic solution are untouched
//! because a nonbasic column never participates in either.

use crate::factor::Factor;
use crate::model::{LpResult, LpStatus, Model, Relation, VarId};
use crate::TOL;

/// A generous iteration budget scaled to model size.
pub fn default_iter_limit(model: &Model) -> usize {
    // Simplex converges in O(rows) iterations in practice; the hard cap
    // keeps a single degenerate solve on a large model from dominating
    // the branch-and-bound wall clock.
    (500 * (model.num_vars() + model.num_cons()) + 2000).min(60_000)
}

/// The revised-simplex working state: sparse columns over the normalized
/// rows, the basis with its eta-file factorization, and the current
/// basic solution.
#[derive(Debug, Clone)]
pub(crate) struct Core {
    /// Sparse matrix columns over normalized rows: `cols[j]` lists
    /// `(row, coefficient)` after sign normalization.
    pub(crate) cols: Vec<Vec<(usize, f64)>>,
    pub(crate) rows: usize,
    /// Basic column of each (pivot) row.
    pub(crate) basis: Vec<usize>,
    /// Whether each column is currently basic.
    pub(crate) in_basis: Vec<bool>,
    /// Values of the basic variables by row: `xb = B^-1 b0`.
    pub(crate) xb: Vec<f64>,
    /// Current normalized RHS (bound-change deltas are applied here, so
    /// `xb` is always recoverable as `B^-1 b0`).
    pub(crate) b0: Vec<f64>,
    pub(crate) factor: Factor,
    /// Pivot count between factorization rebuilds.
    pub(crate) refactor_interval: usize,
}

impl Core {
    #[inline]
    pub(crate) fn ncols(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    pub(crate) fn dot(col: &[(usize, f64)], y: &[f64]) -> f64 {
        col.iter().map(|&(r, c)| c * y[r]).sum()
    }

    /// `w = B^-1 a_j` into the provided scratch vector.
    pub(crate) fn ftran_col(&self, j: usize, w: &mut Vec<f64>) {
        w.clear();
        w.resize(self.rows, 0.0);
        for &(r, c) in &self.cols[j] {
            w[r] = c;
        }
        self.factor.ftran(w);
    }

    /// `y = B^-T c_B` into the provided scratch vector.
    pub(crate) fn btran_costs(&self, costs: &[f64], y: &mut Vec<f64>) {
        y.clear();
        y.resize(self.rows, 0.0);
        for (yr, &b) in y.iter_mut().zip(&self.basis) {
            *yr = costs[b];
        }
        self.factor.btran(y);
    }

    /// `rho = B^-T e_r` into the provided scratch vector.
    pub(crate) fn btran_unit(&self, r: usize, rho: &mut Vec<f64>) {
        rho.clear();
        rho.resize(self.rows, 0.0);
        rho[r] = 1.0;
        self.factor.btran(rho);
    }

    fn objective(&self, costs: &[f64]) -> f64 {
        self.basis.iter().zip(&self.xb).map(|(&b, &x)| costs[b] * x).sum()
    }

    /// Basis change: column `j` (transformed column `w`) enters at pivot
    /// row `prow`. Updates `xb`, appends the pivot eta, and triggers a
    /// refactorization when the file has grown past the interval.
    pub(crate) fn pivot(&mut self, prow: usize, j: usize, w: &[f64]) {
        let theta = self.xb[prow] / w[prow];
        if theta != 0.0 {
            for (xi, &wi) in self.xb.iter_mut().zip(w) {
                if wi != 0.0 {
                    *xi -= theta * wi;
                }
            }
        }
        self.xb[prow] = theta;
        self.in_basis[self.basis[prow]] = false;
        self.in_basis[j] = true;
        self.basis[prow] = j;
        self.factor.update(w, prow);
        if self.factor.updates_since_refactor() >= self.refactor_interval {
            self.refactor();
        }
    }

    /// Rebuild the factorization off the current basis columns and
    /// recompute `xb` from `b0`. A (numerically) singular rebuild keeps
    /// the old — still valid — eta file.
    pub(crate) fn refactor(&mut self) {
        if self.factor.refactor(&self.cols, &mut self.basis) {
            self.xb.copy_from_slice(&self.b0);
            self.factor.ftran(&mut self.xb);
        }
    }

    /// Ratio test: leaving row for the transformed entering column `w`,
    /// or `None` if the column is unbounded. Two passes, Harris-style:
    /// the first finds the tightest ratio, the second picks — among the
    /// rows within a tolerance whisker of it — the *largest* pivot
    /// element. A bare min-ratio rule is free to pivot on an element
    /// barely above `TOL`, and the `1/a` in that eta factor amplifies
    /// roundoff by up to `1/TOL` until the factorized answers diverge
    /// from the model; on massively degenerate bases the solve then
    /// cycles numerically — "progress" each refactorization reverts.
    /// Ties on the pivot size break toward the smallest basis variable
    /// index, keeping the choice deterministic (and Bland-flavored).
    /// A slightly negative `xb` (roundoff on a degenerate row) clamps to
    /// a zero ratio rather than proposing a negative step.
    fn ratio_test(&self, w: &[f64]) -> Option<usize> {
        let mut theta = f64::INFINITY;
        for (r, &a) in w.iter().enumerate() {
            if a > TOL {
                theta = theta.min(self.xb[r].max(0.0) / a);
            }
        }
        if theta.is_infinite() {
            return None;
        }
        let cutoff = theta + 1e-9 * (1.0 + theta);
        let mut best: Option<(f64, usize, usize)> = None; // (pivot, basis var, row)
        for (r, &a) in w.iter().enumerate() {
            if a > TOL && self.xb[r].max(0.0) / a <= cutoff {
                let better = match best {
                    Some((ba, bb, _)) => a > ba || (a == ba && self.basis[r] < bb),
                    None => true,
                };
                if better {
                    best = Some((a, self.basis[r], r));
                }
            }
        }
        best.map(|(_, _, r)| r)
    }

    /// One optimization run under the given cost vector. Only nonbasic
    /// columns `c` with `allowed(c)` may enter.
    pub(crate) fn optimize(
        &mut self,
        costs: &[f64],
        allowed: impl Fn(usize) -> bool,
        iter_limit: usize,
        iterations: &mut usize,
    ) -> LpStatus {
        // Dantzig pricing stalls on massively degenerate bases (ties upon
        // ties re-enter the same columns without moving the objective).
        // Switch to Bland's rule — guaranteed finite — once the objective
        // has not improved for a streak proportional to the row count.
        let stall_limit = 10 * self.rows + 50;
        let mut stalled = 0usize;
        let mut bland = false;
        let mut last_obj = self.objective(costs);
        let mut y: Vec<f64> = Vec::new();
        let mut w: Vec<f64> = Vec::new();
        loop {
            if *iterations >= iter_limit {
                return LpStatus::IterLimit;
            }
            self.btran_costs(costs, &mut y);
            // Entering column: reduced cost `c_j - y . a_j` below -TOL.
            let mut entering: Option<usize> = None;
            if bland {
                // Bland: smallest index with negative reduced cost.
                for (j, col) in self.cols.iter().enumerate() {
                    if !self.in_basis[j] && allowed(j) && costs[j] - Self::dot(col, &y) < -TOL {
                        entering = Some(j);
                        break;
                    }
                }
            } else {
                // Dantzig: most negative reduced cost (earliest on ties).
                let mut best = -TOL;
                for (j, col) in self.cols.iter().enumerate() {
                    if self.in_basis[j] || !allowed(j) {
                        continue;
                    }
                    let rc = costs[j] - Self::dot(col, &y);
                    if rc < best {
                        best = rc;
                        entering = Some(j);
                    }
                }
            }
            let Some(pcol) = entering else {
                return LpStatus::Optimal;
            };
            self.ftran_col(pcol, &mut w);
            let Some(prow) = self.ratio_test(&w) else {
                return LpStatus::Unbounded;
            };
            self.pivot(prow, pcol, &w);
            *iterations += 1;
            let obj = self.objective(costs);
            if obj < last_obj - TOL {
                // Real progress: resume Dantzig (Bland crawls). Each
                // strict improvement is final, so the alternation still
                // terminates.
                last_obj = obj;
                stalled = 0;
                bland = false;
            } else {
                stalled += 1;
                if stalled >= stall_limit {
                    bland = true;
                }
            }
        }
    }
}

/// The reusable outcome of an optimal solve: the factorized basis plus
/// the bookkeeping needed to graft new columns onto it. Opaque to
/// callers; obtain one from [`solve_with_state`] and feed it to
/// [`resolve`].
#[derive(Debug, Clone)]
pub struct WarmState {
    pub(crate) c: Core,
    /// Per model-constraint row: the sign normalization applied at build
    /// (bound rows always have nonnegative RHS and sign `+1`).
    pub(crate) row_sign: Vec<f64>,
    /// Artificial column range `[art_start, art_end)` (never re-enters).
    pub(crate) art_start: usize,
    pub(crate) art_end: usize,
    /// Column -> model variable (None for slack/artificial).
    pub(crate) var_of_col: Vec<Option<usize>>,
    /// Bounds snapshot of every variable seen so far; a mismatch on
    /// re-solve means the warm basis is stale (the dual engine absorbs
    /// the mismatch instead — see [`crate::dual::reoptimize`]).
    pub(crate) bounds: Vec<(f64, f64)>,
    /// Per variable: the row carrying its `x' <= ub - lb` bound row, if
    /// the variable has a finite upper bound. Rows are built for the
    /// bounds seen at build time and appended by the dual engine when
    /// branching bounds a variable for the first time
    /// ([`WarmState::append_bound_rows`]); the engine edits their RHS
    /// when branching tightens bounds. Appended columns (always
    /// `[0, inf)`) start with `None`.
    pub(crate) bound_row_of_var: Vec<Option<usize>>,
    pub(crate) num_cons: usize,
}

impl WarmState {
    /// Memory-weight proxy (stored nonzeros plus per-row vectors), the
    /// sparse replacement for the dense tableau's `rows * cols` cell
    /// count. Branch & bound uses it to decide whether a node basis is
    /// cheap enough to share with both children.
    pub(crate) fn weight(&self) -> usize {
        let col_nnz: usize = self.c.cols.iter().map(|c| c.len()).sum();
        col_nnz + self.c.factor.nnz() + 6 * self.c.rows
    }

    /// Counter snapshot `(refactorizations, eta_updates)` for computing
    /// per-solve deltas.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.c.factor.refactorizations, self.c.factor.eta_updates)
    }

    /// Give each variable in `vars` (none may own a bound row yet) a
    /// fresh `x' <= ub - lb` row: a `(r, 1.0)` entry on its column, plus
    /// a new slack column basic in row `r`. The row's RHS in `b0` starts
    /// at 0 — the caller adds the range as an ordinary bound-row delta
    /// and refreshes `xb`. The new slack's dual is zero, so every reduced
    /// cost, and hence dual feasibility, is untouched.
    ///
    /// For a nonbasic variable the new row meets the basis only in its
    /// own slack (`B' = diag(B, 1)`) and the eta file stays valid as is;
    /// a basic one couples the row to the basis, which is refactorized
    /// once. Returns `false` when that refactorization is numerically
    /// singular (the state is then unusable).
    pub(crate) fn append_bound_rows(&mut self, vars: &[usize]) -> bool {
        let mut refactor = false;
        for &j in vars {
            let col = self.var_of_col.iter().position(|&v| v == Some(j)).expect("var has a column");
            let (r, slack) = (self.c.rows, self.c.ncols());
            self.c.cols[col].push((r, 1.0));
            refactor |= self.c.in_basis[col];
            self.c.cols.push(vec![(r, 1.0)]);
            self.c.in_basis.push(true);
            self.c.basis.push(slack);
            self.c.b0.push(0.0);
            self.c.xb.push(0.0);
            self.c.rows += 1;
            self.var_of_col.push(None);
            self.bound_row_of_var[j] = Some(r);
        }
        !refactor || self.c.factor.refactor(&self.c.cols, &mut self.c.basis)
    }
}

pub(crate) fn lp_fail(status: LpStatus, iterations: usize) -> LpResult {
    LpResult {
        status,
        x: vec![],
        objective: 0.0,
        iterations,
        duals: vec![],
        refactorizations: 0,
        eta_updates: 0,
    }
}

/// Solve the LP relaxation of `model` (integrality ignored).
pub fn solve(model: &Model, iter_limit: usize) -> LpResult {
    solve_with_state(model, iter_limit).0
}

/// Like [`solve`], additionally returning a [`WarmState`] when the solve
/// reached optimality (and the model has at least one row — trivial
/// models have no basis to reuse).
pub fn solve_with_state(model: &Model, iter_limit: usize) -> (LpResult, Option<WarmState>) {
    let _span = bagsched_types::obs::Span::enter("milp.simplex");
    let n = model.num_vars();
    let lbs: Vec<f64> = model.vars.iter().map(|v| v.lb).collect();
    let obj_offset: f64 = model.vars.iter().map(|v| v.obj * v.lb).sum();
    let ncons = model.cons.len();

    // Shifted RHS per row; rows are model constraints then bound rows.
    let mut rhs: Vec<f64> = Vec::with_capacity(ncons);
    let mut rel: Vec<Relation> = Vec::with_capacity(ncons);
    for con in &model.cons {
        let shift: f64 = con.terms.iter().map(|&(j, c)| c * lbs[j]).sum();
        rhs.push(con.rhs - shift);
        rel.push(con.rel);
    }
    let mut bound_row_of_var: Vec<Option<usize>> = vec![None; n];
    for (j, v) in model.vars.iter().enumerate() {
        if v.ub.is_finite() {
            let range = v.ub - v.lb;
            if range < -TOL {
                return (lp_fail(LpStatus::Infeasible, 0), None);
            }
            bound_row_of_var[j] = Some(rhs.len());
            rhs.push(range.max(0.0));
            rel.push(Relation::Le);
        }
    }

    if rhs.is_empty() {
        // No constraints at all: optimum sits at the lower bounds unless
        // some cost is negative (then x_j -> +inf is improving).
        if model.vars.iter().any(|v| v.obj < -TOL) {
            return (lp_fail(LpStatus::Unbounded, 0), None);
        }
        return (
            LpResult {
                status: LpStatus::Optimal,
                x: lbs,
                objective: obj_offset,
                iterations: 0,
                duals: vec![],
                refactorizations: 0,
                eta_updates: 0,
            },
            None,
        );
    }

    let m = rhs.len();
    let sign: Vec<f64> = rhs.iter().map(|&r| if r < 0.0 { -1.0 } else { 1.0 }).collect();
    let b0: Vec<f64> = rhs.iter().zip(&sign).map(|(&r, &s)| s * r).collect();
    let row_sign: Vec<f64> = sign[..ncons].to_vec();

    // Column layout: structural (n) | slacks | artificials. A row's slack
    // coefficient is `+-sign`; rows whose slack coefficient is not `+1`
    // (surplus rows, equalities, sign-flipped rows) get an artificial.
    let num_slacks = rel.iter().filter(|&&r| r != Relation::Eq).count();
    let art_start = n + num_slacks;
    let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(art_start);
    for (terms, &bound_row) in model.col_terms[..n].iter().zip(&bound_row_of_var) {
        let mut col: Vec<(usize, f64)> = terms.iter().map(|&(r, c)| (r, sign[r] * c)).collect();
        if let Some(br) = bound_row {
            col.push((br, 1.0));
        }
        cols.push(col);
    }
    cols.resize(art_start, Vec::new());
    let mut basis = vec![usize::MAX; m];
    let mut next_slack = n;
    let mut art_of_row: Vec<Option<usize>> = vec![None; m];
    for (r, &rl) in rel.iter().enumerate() {
        let slack_coef = match rl {
            Relation::Le => {
                let s = next_slack;
                next_slack += 1;
                cols[s] = vec![(r, sign[r])];
                Some((s, sign[r]))
            }
            Relation::Ge => {
                let s = next_slack;
                next_slack += 1;
                cols[s] = vec![(r, -sign[r])];
                Some((s, -sign[r]))
            }
            Relation::Eq => None,
        };
        match slack_coef {
            Some((s, coef)) if coef > 0.0 => basis[r] = s,
            _ => {
                let a = cols.len();
                cols.push(vec![(r, 1.0)]);
                basis[r] = a;
                art_of_row[r] = Some(a);
            }
        }
    }
    let art_end = cols.len();
    let num_arts = art_end - art_start;

    let mut in_basis = vec![false; art_end];
    for &b in &basis {
        in_basis[b] = true;
    }
    let mut core = Core {
        cols,
        rows: m,
        basis,
        in_basis,
        xb: b0.clone(),
        b0,
        factor: Factor::identity(),
        refactor_interval: model.refactor_interval,
    };

    let mut iterations = 0usize;
    let counters = |c: &Core| (c.factor.refactorizations as usize, c.factor.eta_updates as usize);

    // ---- Phase 1: minimize the sum of artificials. ----
    if num_arts > 0 {
        let mut costs1 = vec![0.0; art_end];
        costs1[art_start..art_end].iter_mut().for_each(|c| *c = 1.0);
        let status = core.optimize(&costs1, |_| true, iter_limit, &mut iterations);
        if status == LpStatus::IterLimit {
            let (rf, eu) = counters(&core);
            return (
                LpResult { refactorizations: rf, eta_updates: eu, ..lp_fail(status, iterations) },
                None,
            );
        }
        let phase1_obj = core.objective(&costs1);
        if phase1_obj > 1e-6 {
            let (rf, eu) = counters(&core);
            return (
                LpResult {
                    refactorizations: rf,
                    eta_updates: eu,
                    ..lp_fail(LpStatus::Infeasible, iterations)
                },
                None,
            );
        }
        // Drive remaining artificials out of the basis. Iterate by
        // artificial column, not by row: a triggered refactorization may
        // permute the basis-to-row assignment mid-loop.
        let art_basics: Vec<usize> =
            core.basis.iter().copied().filter(|&b| b >= art_start).collect();
        let mut rho: Vec<f64> = Vec::new();
        let mut w: Vec<f64> = Vec::new();
        for a in art_basics {
            let Some(r) = core.basis.iter().position(|&b| b == a) else { continue };
            core.btran_unit(r, &mut rho);
            let pivot_col = (0..art_start)
                .find(|&j| !core.in_basis[j] && Core::dot(&core.cols[j], &rho).abs() > 1e-6);
            if let Some(j) = pivot_col {
                core.ftran_col(j, &mut w);
                core.pivot(r, j, &w);
                iterations += 1;
            }
            // If no structural pivot exists the row is redundant
            // (all-zero); the artificial stays basic at value ~0 and we
            // simply never let artificials re-enter in phase 2.
        }
    }

    // ---- Phase 2: minimize the real objective. ----
    let mut costs2 = vec![0.0; core.ncols()];
    for (j, v) in model.vars.iter().enumerate() {
        costs2[j] = v.obj;
    }
    let status = core.optimize(&costs2, |c| c < art_start, iter_limit, &mut iterations);
    if status != LpStatus::Optimal {
        let (rf, eu) = counters(&core);
        return (
            LpResult { refactorizations: rf, eta_updates: eu, ..lp_fail(status, iterations) },
            None,
        );
    }

    let var_of_col = (0..core.ncols()).map(|c| (c < n).then_some(c)).collect();
    let state = WarmState {
        c: core,
        row_sign,
        art_start,
        art_end,
        var_of_col,
        bounds: model.vars.iter().map(|v| (v.lb, v.ub)).collect(),
        bound_row_of_var,
        num_cons: ncons,
    };
    let (rf, eu) = state.counters();
    let res = extract_optimal(model, &state, iterations, rf as usize, eu as usize);
    (res, Some(state))
}

/// Warm re-solve: continue phase 2 from a previous optimal basis after
/// the caller appended columns and/or changed objective coefficients.
///
/// Returns `None` — leaving `state` untouched — when the model changed in
/// a way the warm basis cannot absorb: different constraint count,
/// changed bounds on previously-seen variables, or appended variables
/// whose bounds are not `[0, inf)`. The caller then falls back to a cold
/// [`solve_with_state`].
pub fn resolve(model: &Model, iter_limit: usize, state: &mut WarmState) -> Option<LpResult> {
    let _span = bagsched_types::obs::Span::enter("milp.simplex.warm");
    if model.cons.len() != state.num_cons {
        return None;
    }
    for (v, &(lb, ub)) in model.vars.iter().zip(&state.bounds) {
        if v.lb != lb || v.ub != ub {
            return None;
        }
    }
    if !graft_columns(model, state) {
        return None;
    }
    let (rf0, eu0) = state.counters();

    // ---- Phase 2 from the (still primal-feasible) previous basis. ----
    // Costs are rebuilt from the model each call, so objective edits are
    // picked up without any dirty-tracking.
    let mut costs = vec![0.0; state.c.ncols()];
    for (col, vo) in state.var_of_col.iter().enumerate() {
        if let Some(v) = *vo {
            costs[col] = model.vars[v].obj;
        }
    }
    let mut iterations = 0usize;
    let (art_start, art_end) = (state.art_start, state.art_end);
    let status =
        state.c.optimize(&costs, |c| c < art_start || c >= art_end, iter_limit, &mut iterations);
    let (rf1, eu1) = state.counters();
    let (rf, eu) = ((rf1 - rf0) as usize, (eu1 - eu0) as usize);
    if status != LpStatus::Optimal {
        return Some(LpResult {
            refactorizations: rf,
            eta_updates: eu,
            ..lp_fail(status, iterations)
        });
    }
    Some(extract_optimal(model, state, iterations, rf, eu))
}

/// Append the model's new columns (relative to the state's snapshot) onto
/// the warm state. Returns `false` — leaving the state untouched — when a
/// column cannot be grafted (its bounds are not `[0, inf)`, which would
/// need a fresh bound row) or the model shrank. Unlike the dense tableau
/// this is O(column nonzeros): the factorization does not change when a
/// nonbasic column appears.
pub(crate) fn graft_columns(model: &Model, state: &mut WarmState) -> bool {
    let n_old = state.bounds.len();
    let n_new = model.num_vars();
    if n_new < n_old {
        return false;
    }
    if model.vars[n_old..].iter().any(|v| v.lb != 0.0 || v.ub != f64::INFINITY) {
        return false;
    }
    for j in n_old..n_new {
        let col: Vec<(usize, f64)> =
            model.col_terms[j].iter().map(|&(r, c)| (r, state.row_sign[r] * c)).collect();
        state.c.cols.push(col);
        state.c.in_basis.push(false);
        state.var_of_col.push(Some(j));
        state.bound_row_of_var.push(None);
        state.bounds.push((0.0, f64::INFINITY));
    }
    true
}

/// Read the optimal solution and duals off a converged warm basis.
pub(crate) fn extract_optimal(
    model: &Model,
    state: &WarmState,
    iterations: usize,
    refactorizations: usize,
    eta_updates: usize,
) -> LpResult {
    let c = &state.c;
    let lbs: Vec<f64> = model.vars.iter().map(|v| v.lb).collect();
    let mut x = lbs.clone();
    for (r, &b) in c.basis.iter().enumerate() {
        if let Some(v) = state.var_of_col[b] {
            x[v] = lbs[v] + c.xb[r].max(0.0);
        }
    }
    let objective = model.objective_value(&x);
    // Simplex multipliers y = B^-T c_B; the model dual of constraint i is
    // y_i mapped back through the sign normalization.
    let mut y = vec![0.0; c.rows];
    for (yr, &b) in y.iter_mut().zip(&c.basis) {
        if let Some(v) = state.var_of_col[b] {
            *yr = model.vars[v].obj;
        }
    }
    c.factor.btran(&mut y);
    let duals = state.row_sign.iter().zip(&y).map(|(&s, &yi)| s * yi).collect();
    LpResult {
        status: LpStatus::Optimal,
        x,
        objective,
        iterations,
        duals,
        refactorizations,
        eta_updates,
    }
}

/// Physically remove nonbasic columns from a model and (when present) its
/// warm state, keeping both coherent: the column store, basis indices,
/// artificial range, and variable maps are compacted; the factorization
/// and the basic solution are untouched because a nonbasic column
/// participates in neither.
///
/// Returns `false` — mutating nothing — when a victim is currently basic,
/// owns a bound row (finite upper bound), or the model and state are out
/// of sync; the caller should then skip the purge (or drop the warm state
/// first). Variable indices above a purged column shift down; the caller
/// owns remapping any [`VarId`]s it holds (`new = old - #purged below`).
pub fn purge_columns(model: &mut Model, warm: Option<&mut WarmState>, victims: &[VarId]) -> bool {
    if victims.is_empty() {
        return true;
    }
    let n = model.num_vars();
    let mut kill_var = vec![false; n];
    for v in victims {
        if v.0 >= n || kill_var[v.0] {
            return false;
        }
        kill_var[v.0] = true;
    }
    if let Some(state) = &warm {
        if state.bounds.len() != n {
            return false; // ungrafted columns outstanding: not synced
        }
        for (col, vo) in state.var_of_col.iter().enumerate() {
            if let Some(v) = *vo {
                if kill_var[v] && (state.c.in_basis[col] || state.bound_row_of_var[v].is_some()) {
                    return false;
                }
            }
        }
    }

    // ---- Model compaction. ----
    let mut new_var = vec![usize::MAX; n];
    let mut next = 0usize;
    for (j, &kill) in kill_var.iter().enumerate() {
        if !kill {
            new_var[j] = next;
            next += 1;
        }
    }
    let mut keep = kill_var.iter().map(|&k| !k);
    model.vars.retain(|_| keep.next().unwrap());
    let mut keep = kill_var.iter().map(|&k| !k);
    model.col_terms.retain(|_| keep.next().unwrap());
    for con in &mut model.cons {
        con.terms.retain_mut(|(j, _)| {
            if kill_var[*j] {
                false
            } else {
                *j = new_var[*j];
                true
            }
        });
    }

    // ---- Warm-state compaction. ----
    let Some(state) = warm else { return true };
    let ncols = state.c.ncols();
    let mut kill_col = vec![false; ncols];
    for (col, vo) in state.var_of_col.iter().enumerate() {
        if vo.is_some_and(|v| kill_var[v]) {
            kill_col[col] = true;
        }
    }
    let mut new_col = vec![usize::MAX; ncols];
    let mut next = 0usize;
    for (c, &kill) in kill_col.iter().enumerate() {
        if !kill {
            new_col[c] = next;
            next += 1;
        }
    }
    let mut keep = kill_col.iter().map(|&k| !k);
    state.c.cols.retain(|_| keep.next().unwrap());
    let mut keep = kill_col.iter().map(|&k| !k);
    state.c.in_basis.retain(|_| keep.next().unwrap());
    for b in &mut state.c.basis {
        *b = new_col[*b];
    }
    // Both range ends may equal the old column count (no artificials /
    // no grafted columns): compact each by the purged columns below it.
    state.art_start -= kill_col[..state.art_start].iter().filter(|&&k| k).count();
    state.art_end -= kill_col[..state.art_end].iter().filter(|&&k| k).count();
    let mut keep = kill_col.iter().map(|&k| !k);
    state.var_of_col.retain(|_| keep.next().unwrap());
    for v in state.var_of_col.iter_mut().flatten() {
        *v = new_var[*v];
    }
    let mut keep = kill_var.iter().map(|&k| !k);
    state.bounds.retain(|_| keep.next().unwrap());
    let mut keep = kill_var.iter().map(|&k| !k);
    state.bound_row_of_var.retain(|_| keep.next().unwrap());
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Relation::*};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_max_problem() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 => (2, 6), z = 36.
        let mut m = Model::new();
        let x = m.add_var(-3.0, 0.0, f64::INFINITY);
        let y = m.add_var(-5.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0)], Le, 4.0);
        m.add_con(&[(y, 2.0)], Le, 12.0);
        m.add_con(&[(x, 3.0), (y, 2.0)], Le, 18.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, -36.0);
        assert_close(r.x[0], 2.0);
        assert_close(r.x[1], 6.0);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y s.t. x + y = 10, x >= 3, y >= 2 => 10, e.g. (3, 7).
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        let y = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0), (y, 1.0)], Eq, 10.0);
        m.add_con(&[(x, 1.0)], Ge, 3.0);
        m.add_con(&[(y, 1.0)], Ge, 2.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 10.0);
        assert!(r.x[0] >= 3.0 - 1e-6 && r.x[1] >= 2.0 - 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0)], Le, 1.0);
        m.add_con(&[(x, 1.0)], Ge, 2.0);
        assert_eq!(m.solve_lp().status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_var(-1.0, 0.0, f64::INFINITY);
        let y = m.add_var(0.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0), (y, -1.0)], Le, 1.0);
        assert_eq!(m.solve_lp().status, LpStatus::Unbounded);
    }

    #[test]
    fn respects_upper_bounds() {
        // min -x with x in [0, 7].
        let mut m = Model::new();
        let _x = m.add_var(-1.0, 0.0, 7.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.x[0], 7.0);
    }

    #[test]
    fn respects_shifted_lower_bounds() {
        // min x + y with x >= 2.5, y >= 1, x + y >= 5.
        let mut m = Model::new();
        let x = m.add_var(1.0, 2.5, f64::INFINITY);
        let y = m.add_var(1.0, 1.0, f64::INFINITY);
        m.add_con(&[(x, 1.0), (y, 1.0)], Ge, 5.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 5.0);
    }

    #[test]
    fn no_constraints_sits_at_lb() {
        let mut m = Model::new();
        m.add_var(1.0, 2.0, f64::INFINITY);
        m.add_var(0.0, -1.0, f64::INFINITY);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 2.0);
        assert_close(r.x[1], -1.0);
    }

    #[test]
    fn no_constraints_unbounded() {
        let mut m = Model::new();
        m.add_var(-1.0, 0.0, f64::INFINITY);
        assert_eq!(m.solve_lp().status, LpStatus::Unbounded);
    }

    #[test]
    fn crossing_bounds_infeasible() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 0.0, 1.0);
        m.set_bounds(x, 2.0, 1.0);
        assert_eq!(m.solve_lp().status, LpStatus::Infeasible);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degeneracy: many redundant constraints through the origin.
        let mut m = Model::new();
        let x = m.add_var(-0.75, 0.0, f64::INFINITY);
        let y = m.add_var(150.0, 0.0, f64::INFINITY);
        let z = m.add_var(-0.02, 0.0, f64::INFINITY);
        let w = m.add_var(6.0, 0.0, f64::INFINITY);
        // Beale's cycling example (classic form).
        m.add_con(&[(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)], Le, 0.0);
        m.add_con(&[(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)], Le, 0.0);
        m.add_con(&[(z, 1.0)], Le, 1.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, -0.05);
    }

    #[test]
    fn transportation_lp() {
        // 2 supplies (10, 20), 2 demands (15, 15); costs [[1,2],[3,1]].
        let mut m = Model::new();
        let x11 = m.add_var(1.0, 0.0, f64::INFINITY);
        let x12 = m.add_var(2.0, 0.0, f64::INFINITY);
        let x21 = m.add_var(3.0, 0.0, f64::INFINITY);
        let x22 = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x11, 1.0), (x12, 1.0)], Eq, 10.0);
        m.add_con(&[(x21, 1.0), (x22, 1.0)], Eq, 20.0);
        m.add_con(&[(x11, 1.0), (x21, 1.0)], Eq, 15.0);
        m.add_con(&[(x12, 1.0), (x22, 1.0)], Eq, 15.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        // Optimal: x11=10, x21=5, x22=15 => 10 + 15 + 15 = 40.
        assert_close(r.objective, 40.0);
    }

    #[test]
    fn duals_satisfy_strong_duality_on_le_rows() {
        // Same LP as `textbook_max_problem`. At optimality y·b must equal
        // the primal objective, and every dual of a `<=` row in a
        // minimization is nonpositive (raising the rhs relaxes the
        // feasible set, which can only lower the optimum).
        let mut m = Model::new();
        let x = m.add_var(-3.0, 0.0, f64::INFINITY);
        let y = m.add_var(-5.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0)], Le, 4.0);
        m.add_con(&[(y, 2.0)], Le, 12.0);
        m.add_con(&[(x, 3.0), (y, 2.0)], Le, 18.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert_eq!(r.duals.len(), 3);
        let dual_obj: f64 = r.duals.iter().zip([4.0, 12.0, 18.0]).map(|(d, b)| d * b).sum();
        assert_close(dual_obj, r.objective);
        for &d in &r.duals {
            assert!(d <= 1e-9, "Le dual must be nonpositive, got {d}");
        }
    }

    #[test]
    fn duals_satisfy_strong_duality_on_eq_and_ge_rows() {
        // min x + y s.t. x + y = 10, x >= 3, y >= 2 => optimum 10.
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        let y = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0), (y, 1.0)], Eq, 10.0);
        m.add_con(&[(x, 1.0)], Ge, 3.0);
        m.add_con(&[(y, 1.0)], Ge, 2.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        let dual_obj: f64 = r.duals.iter().zip([10.0, 3.0, 2.0]).map(|(d, b)| d * b).sum();
        assert_close(dual_obj, 10.0);
    }

    #[test]
    fn duals_price_every_column_nonnegative_at_optimality() {
        // Transportation LP (all-equality rows). At optimality the reduced
        // cost c_j - y·A_j of every column is >= 0, and ~0 for columns
        // that are strictly positive in the solution — exactly the
        // invariant a pricing oracle relies on.
        let mut m = Model::new();
        let costs = [1.0, 2.0, 3.0, 1.0];
        let vars: Vec<_> = costs.iter().map(|&c| m.add_var(c, 0.0, f64::INFINITY)).collect();
        m.add_con(&[(vars[0], 1.0), (vars[1], 1.0)], Eq, 10.0);
        m.add_con(&[(vars[2], 1.0), (vars[3], 1.0)], Eq, 20.0);
        m.add_con(&[(vars[0], 1.0), (vars[2], 1.0)], Eq, 15.0);
        m.add_con(&[(vars[1], 1.0), (vars[3], 1.0)], Eq, 15.0);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        // Column j participates in its supply row and its demand row.
        let rows_of = [[0usize, 2], [0, 3], [1, 2], [1, 3]];
        for (j, rows) in rows_of.iter().enumerate() {
            let rc = costs[j] - rows.iter().map(|&i| r.duals[i]).sum::<f64>();
            assert!(rc >= -1e-6, "column {j}: negative reduced cost {rc} at optimality");
            if r.x[j] > 1e-6 {
                assert!(rc.abs() <= 1e-6, "basic column {j}: reduced cost {rc} != 0");
            }
        }
    }

    #[test]
    fn refactorization_counters_populate_on_long_solves() {
        // A model big enough to force more pivots than the refactor
        // interval; with the interval forced to 4, at least one
        // refactorization and many eta updates must be reported.
        let mut m = Model::new();
        let n = 14;
        let vars: Vec<_> =
            (0..n).map(|j| m.add_var(-((j % 5 + 1) as f64) - j as f64 * 1e-3, 0.0, 3.0)).collect();
        for k in 0..6 {
            let terms: Vec<_> =
                vars.iter().enumerate().map(|(j, &v)| (v, ((j + k) % 4 + 1) as f64)).collect();
            m.add_con(&terms, Le, 15.0 + k as f64);
        }
        m.set_refactor_interval(4);
        let r = m.solve_lp();
        assert_eq!(r.status, LpStatus::Optimal);
        assert!(r.eta_updates > 0, "no eta updates recorded");
        assert!(r.refactorizations > 0, "interval 4 never triggered a refactorization");
    }

    /// A tiny deterministic PRNG (xorshift64*) so the warm-start sweep
    /// does not depend on the proptest shim's sampling strategy.
    struct Lcg(u64);
    impl Lcg {
        fn next_f64(&mut self, lo: f64, hi: f64) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            let unit = (self.0 >> 11) as f64 / (1u64 << 53) as f64;
            lo + unit * (hi - lo)
        }
        fn next_usize(&mut self, lo: usize, hi: usize) -> usize {
            self.next_f64(lo as f64, hi as f64 + 1.0).floor().min(hi as f64) as usize
        }
    }

    /// Build a random feasible covering-style LP: minimize c x subject to
    /// a few `>=` rows and a capacity `<=` row, all satisfiable.
    fn random_master(rng: &mut Lcg, n: usize, rows: usize) -> Model {
        let mut m = Model::new();
        let vars: Vec<_> =
            (0..n).map(|_| m.add_var(rng.next_f64(0.1, 2.0), 0.0, f64::INFINITY)).collect();
        for _ in 0..rows {
            let mut terms = Vec::new();
            for &v in &vars {
                if rng.next_f64(0.0, 1.0) < 0.7 {
                    terms.push((v, rng.next_f64(0.2, 1.5)));
                }
            }
            if terms.is_empty() {
                continue;
            }
            m.add_con(&terms, Ge, rng.next_f64(0.5, 3.0));
        }
        let all: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_con(&all, Le, 100.0);
        m
    }

    /// The warm-start contract: after `add_column`, a warm re-solve must
    /// reach the same objective as a cold solve of the extended model, to
    /// 1e-9, across a seeded sweep of random masters.
    #[test]
    fn warm_resolve_matches_cold_after_add_column() {
        for seed in 1..=20u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
            let n = rng.next_usize(3, 7);
            let rows = rng.next_usize(2, 5);
            let mut m = random_master(&mut rng, n, rows);
            let mut warm = None;
            let (first, was_warm) = m.solve_lp_with(&mut warm);
            assert!(!was_warm);
            if first.status != LpStatus::Optimal {
                continue; // rare unbounded/degenerate draw: nothing to compare
            }
            // Append a few columns, re-solving warm after each batch.
            for round in 0..3 {
                let ncols = rng.next_usize(1, 3);
                for _ in 0..ncols {
                    let mut coeffs: Vec<(usize, f64)> = Vec::new();
                    for r in 0..m.num_cons() {
                        if rng.next_f64(0.0, 1.0) < 0.8 {
                            coeffs.push((r, rng.next_f64(0.1, 1.5)));
                        }
                    }
                    m.add_column(rng.next_f64(0.05, 1.0), 0.0, f64::INFINITY, &coeffs);
                }
                let (w, was_warm) = m.solve_lp_with(&mut warm);
                assert!(was_warm, "seed {seed} round {round}: warm path not taken");
                let c = m.solve_lp();
                assert_eq!(w.status, c.status, "seed {seed} round {round}");
                if w.status == LpStatus::Optimal {
                    assert!(
                        (w.objective - c.objective).abs() < 1e-9,
                        "seed {seed} round {round}: warm {} vs cold {}",
                        w.objective,
                        c.objective
                    );
                    assert!(m.is_feasible_point(&w.x, 1e-6), "seed {seed}: warm point infeasible");
                    // Duals must price every column nonnegatively, like a
                    // cold optimum (the pricing loop relies on them).
                    for (j, v) in m.vars.iter().enumerate() {
                        let coef_sum: f64 = m
                            .cons
                            .iter()
                            .zip(&w.duals)
                            .map(|(con, &y)| {
                                con.terms
                                    .iter()
                                    .filter(|&&(var, _)| var == j)
                                    .map(|&(_, c)| c * y)
                                    .sum::<f64>()
                            })
                            .sum();
                        assert!(
                            v.obj - coef_sum >= -1e-6,
                            "seed {seed}: column {j} prices negative under warm duals"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn warm_resolve_survives_objective_change() {
        // set_obj between solves is a legitimate warm restart (the basis
        // stays primal feasible); the re-solve must track the new optimum.
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        let y = m.add_var(2.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0), (y, 1.0)], Ge, 4.0);
        let mut warm = None;
        let (r, _) = m.solve_lp_with(&mut warm);
        assert_close(r.objective, 4.0); // all on x
        m.set_obj(x, 3.0);
        let (r, was_warm) = m.solve_lp_with(&mut warm);
        assert!(was_warm);
        assert_close(r.objective, 8.0); // all on y
    }

    #[test]
    fn warm_state_rejects_bound_changes() {
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0)], Ge, 2.0);
        let mut warm = None;
        let _ = m.solve_lp_with(&mut warm);
        assert!(warm.is_some());
        m.set_bounds(x, 0.0, 1.5); // stale basis: must fall back cold
        let (r, was_warm) = m.solve_lp_with(&mut warm);
        assert!(!was_warm);
        assert_eq!(r.status, LpStatus::Infeasible);
    }

    #[test]
    fn warm_state_rejects_new_constraints_and_bounded_columns() {
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 1.0)], Ge, 2.0);
        let mut warm = None;
        let _ = m.solve_lp_with(&mut warm);
        let mut with_row = m.clone();
        with_row.add_con(&[(x, 1.0)], Le, 10.0);
        let mut warm2 = warm.clone();
        let (_, was_warm) = with_row.solve_lp_with(&mut warm2);
        assert!(!was_warm, "row count change must force a cold solve");
        // A finite-ub appended column needs a bound row: cold path.
        m.add_column(0.5, 0.0, 3.0, &[(0, 1.0)]);
        let (r, was_warm) = m.solve_lp_with(&mut warm);
        assert!(!was_warm);
        assert_eq!(r.status, LpStatus::Optimal);
        assert_close(r.objective, 1.0); // cover the >= 2 with the cheap column
    }

    #[test]
    fn purge_compacts_model_and_warm_state() {
        // Build a master, graft columns, purge a nonbasic one, and keep
        // re-solving warm: objectives must keep matching cold solves of
        // the compacted model.
        let mut m = Model::new();
        let a = m.add_var(1.0, 0.0, f64::INFINITY);
        let b = m.add_var(1.5, 0.0, f64::INFINITY);
        m.add_con(&[(a, 1.0), (b, 1.0)], Ge, 4.0);
        m.add_con(&[(a, 1.0)], Le, 3.0);
        let mut warm = None;
        let (r, _) = m.solve_lp_with(&mut warm);
        assert_eq!(r.status, LpStatus::Optimal);
        // An expensive column that will never be basic.
        let junk = m.add_column(9.0, 0.0, f64::INFINITY, &[(0, 1.0)]);
        let (r, was_warm) = m.solve_lp_with(&mut warm);
        assert!(was_warm);
        assert_close(r.x[junk.0], 0.0);
        let before = m.num_vars();
        assert!(purge_columns(&mut m, warm.as_mut(), &[junk]));
        assert_eq!(m.num_vars(), before - 1);
        let (r2, was_warm) = m.solve_lp_with(&mut warm);
        assert!(was_warm, "purge must keep the warm state usable");
        assert_close(r2.objective, r.objective);
        let cold = m.solve_lp();
        assert_close(r2.objective, cold.objective);
        // And the purged state still grafts fresh columns.
        m.add_column(0.25, 0.0, f64::INFINITY, &[(0, 1.0)]);
        let (r3, was_warm) = m.solve_lp_with(&mut warm);
        assert!(was_warm);
        assert_close(r3.objective, 0.25 * 4.0);
    }

    #[test]
    fn purge_refuses_basic_columns_and_bound_rows() {
        let mut m = Model::new();
        let a = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(a, 1.0)], Ge, 2.0);
        let mut warm = None;
        let _ = m.solve_lp_with(&mut warm);
        // `a` is basic (it carries the covering): refuse.
        assert!(!purge_columns(&mut m, warm.as_mut(), &[a]));
        assert_eq!(m.num_vars(), 1);
        // A bounded variable owns a bound row: refuse even when nonbasic.
        let mut m2 = Model::new();
        let p = m2.add_var(1.0, 0.0, f64::INFINITY);
        let q = m2.add_var(2.0, 0.0, 5.0);
        m2.add_con(&[(p, 1.0), (q, 1.0)], Ge, 2.0);
        let mut warm2 = None;
        let _ = m2.solve_lp_with(&mut warm2);
        assert!(!purge_columns(&mut m2, warm2.as_mut(), &[q]));
        // Out-of-range and duplicate victims are rejected too.
        assert!(!purge_columns(&mut m2, warm2.as_mut(), &[VarId(99)]));
        assert!(!purge_columns(&mut m2, warm2.as_mut(), &[p, p]));
    }

    /// A compact dense two-phase simplex, kept as a test oracle for the
    /// sparse revised engine (satellite 4(a)). Solve-only: no warm
    /// starts, no duals — just the optimal objective.
    mod dense_oracle {
        use crate::model::{LpStatus, Model, Relation};
        use crate::TOL;

        pub fn solve(model: &Model) -> (LpStatus, f64) {
            let n = model.num_vars();
            let lbs: Vec<f64> = model.vars.iter().map(|v| v.lb).collect();
            let mut rows: Vec<(Vec<f64>, Relation, f64)> = Vec::new();
            for con in &model.cons {
                let mut coeffs = vec![0.0; n];
                let mut shift = 0.0;
                for &(j, c) in &con.terms {
                    coeffs[j] += c;
                    shift += c * lbs[j];
                }
                rows.push((coeffs, con.rel, con.rhs - shift));
            }
            for (j, v) in model.vars.iter().enumerate() {
                if v.ub.is_finite() {
                    let range = v.ub - v.lb;
                    if range < -TOL {
                        return (LpStatus::Infeasible, 0.0);
                    }
                    let mut coeffs = vec![0.0; n];
                    coeffs[j] = 1.0;
                    rows.push((coeffs, Relation::Le, range.max(0.0)));
                }
            }
            if rows.is_empty() {
                if model.vars.iter().any(|v| v.obj < -TOL) {
                    return (LpStatus::Unbounded, 0.0);
                }
                let obj = model.vars.iter().map(|v| v.obj * v.lb).sum();
                return (LpStatus::Optimal, obj);
            }
            let m = rows.len();
            let num_slacks = rows.iter().filter(|(_, rel, _)| *rel != Relation::Eq).count();
            let cols = n + num_slacks + m;
            let width = cols + 1;
            let mut a = vec![0.0; m * width];
            let mut basis = vec![usize::MAX; m];
            let mut obj = vec![0.0; width];
            let art_start = n + num_slacks;
            let mut next_slack = n;
            let mut next_art = art_start;
            for (r, (coeffs, rel, rhs)) in rows.iter().enumerate() {
                let sign = if *rhs < 0.0 { -1.0 } else { 1.0 };
                for (j, &c) in coeffs.iter().enumerate() {
                    a[r * width + j] = sign * c;
                }
                a[r * width + cols] = sign * rhs;
                let slack = match rel {
                    Relation::Le => {
                        let s = next_slack;
                        next_slack += 1;
                        a[r * width + s] = sign;
                        Some((s, sign))
                    }
                    Relation::Ge => {
                        let s = next_slack;
                        next_slack += 1;
                        a[r * width + s] = -sign;
                        Some((s, -sign))
                    }
                    Relation::Eq => None,
                };
                match slack {
                    Some((s, coef)) if coef > 0.0 => basis[r] = s,
                    _ => {
                        let art = next_art;
                        next_art += 1;
                        a[r * width + art] = 1.0;
                        basis[r] = art;
                    }
                }
            }
            let pivot = |a: &mut Vec<f64>,
                         obj: &mut Vec<f64>,
                         basis: &mut Vec<usize>,
                         prow: usize,
                         pcol: usize| {
                let inv = 1.0 / a[prow * width + pcol];
                for c in 0..width {
                    a[prow * width + c] *= inv;
                }
                for r in 0..m {
                    if r == prow {
                        continue;
                    }
                    let f = a[r * width + pcol];
                    if f.abs() > 1e-12 {
                        for c in 0..width {
                            a[r * width + c] -= f * a[prow * width + c];
                        }
                    }
                }
                let f = obj[pcol];
                if f.abs() > 1e-12 {
                    for c in 0..width {
                        obj[c] -= f * a[prow * width + c];
                    }
                }
                basis[prow] = pcol;
            };
            let optimize = |a: &mut Vec<f64>,
                            obj: &mut Vec<f64>,
                            basis: &mut Vec<usize>,
                            hi: usize|
             -> LpStatus {
                for _ in 0..20_000 {
                    // Bland's rule throughout: slow but cycle-free — it is
                    // only an oracle.
                    let Some(pcol) = (0..hi).find(|&c| obj[c] < -TOL) else {
                        return LpStatus::Optimal;
                    };
                    let mut best: Option<(f64, usize)> = None;
                    for r in 0..m {
                        let v = a[r * width + pcol];
                        if v > TOL {
                            let ratio = a[r * width + cols] / v;
                            match best {
                                Some((br, _)) if br <= ratio => {}
                                _ => best = Some((ratio, r)),
                            }
                        }
                    }
                    let Some((_, prow)) = best else { return LpStatus::Unbounded };
                    pivot(a, obj, basis, prow, pcol);
                }
                LpStatus::IterLimit
            };
            if next_art > art_start {
                for r in 0..m {
                    if basis[r] >= art_start {
                        for c in 0..width {
                            obj[c] -= a[r * width + c];
                        }
                    }
                }
                for o in &mut obj[art_start..next_art] {
                    *o += 1.0;
                }
                let st = optimize(&mut a, &mut obj, &mut basis, cols);
                if st != LpStatus::Optimal || -obj[cols] > 1e-6 {
                    return (LpStatus::Infeasible, 0.0);
                }
                for r in 0..m {
                    if basis[r] >= art_start {
                        if let Some(pcol) = (0..art_start).find(|&c| a[r * width + c].abs() > 1e-6)
                        {
                            pivot(&mut a, &mut obj, &mut basis, r, pcol);
                        }
                    }
                }
            }
            obj.iter_mut().for_each(|v| *v = 0.0);
            for (j, v) in model.vars.iter().enumerate() {
                obj[j] = v.obj;
            }
            for r in 0..m {
                let b = basis[r];
                let cost = obj[b];
                if cost.abs() > 1e-12 {
                    for c in 0..width {
                        obj[c] -= cost * a[r * width + c];
                    }
                    obj[b] = 0.0;
                }
            }
            let st = optimize(&mut a, &mut obj, &mut basis, art_start);
            if st != LpStatus::Optimal {
                return (st, 0.0);
            }
            let mut x = lbs.clone();
            for r in 0..m {
                if basis[r] < n {
                    x[basis[r]] = lbs[basis[r]] + a[r * width + cols].max(0.0);
                }
            }
            (LpStatus::Optimal, model.objective_value(&x))
        }
    }

    /// Satellite 4(a): the sparse revised engine must agree with the
    /// dense oracle on status and objective over a seeded sweep of
    /// `add_column` extensions and bound changes.
    #[test]
    fn revised_matches_dense_oracle_over_column_and_bound_sweeps() {
        for seed in 1..=30u64 {
            let mut rng = Lcg(seed.wrapping_mul(0xA24BAED4963EE407) | 1);
            let n = rng.next_usize(3, 6);
            let rows = rng.next_usize(2, 5);
            let mut m = Model::new();
            let vars: Vec<_> = (0..n)
                .map(|_| m.add_var(rng.next_f64(-1.0, 2.0), 0.0, rng.next_f64(2.0, 10.0)))
                .collect();
            for _ in 0..rows {
                let terms: Vec<_> = vars.iter().map(|&v| (v, rng.next_f64(0.1, 1.5))).collect();
                let r = if rng.next_f64(0.0, 1.0) < 0.5 { Ge } else { Le };
                m.add_con(&terms, r, rng.next_f64(1.0, 10.0));
            }
            for round in 0..4 {
                // Alternate: append a column, then tighten a bound.
                if round % 2 == 0 {
                    let coeffs: Vec<(usize, f64)> =
                        (0..m.num_cons()).map(|r| (r, rng.next_f64(0.1, 1.2))).collect();
                    m.add_column(rng.next_f64(-0.5, 1.0), 0.0, f64::INFINITY, &coeffs);
                } else {
                    let j = rng.next_usize(0, n - 1);
                    let (lb, ub) = m.bounds(vars[j]);
                    if ub.is_finite() {
                        let mid = lb + rng.next_f64(0.0, ub - lb);
                        if rng.next_f64(0.0, 1.0) < 0.5 {
                            m.set_bounds(vars[j], lb, mid);
                        } else {
                            m.set_bounds(vars[j], mid, ub);
                        }
                    }
                }
                let r = m.solve_lp();
                let (ost, oobj) = dense_oracle::solve(&m);
                assert_eq!(r.status, ost, "seed {seed} round {round}: status diverged");
                if ost == LpStatus::Optimal {
                    assert!(
                        (r.objective - oobj).abs() < 1e-6,
                        "seed {seed} round {round}: revised {} vs dense {}",
                        r.objective,
                        oobj
                    );
                    assert!(
                        m.is_feasible_point(&r.x, 1e-5),
                        "seed {seed} round {round}: revised point infeasible"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// Random LPs constructed around a known feasible point: the solver
        /// must (a) report optimal, (b) return a feasible point, (c) reach
        /// an objective no worse than the seed point's.
        #[test]
        fn solves_random_feasible_lps(
            seed_x in proptest::collection::vec(0.0f64..5.0, 3..6),
            rows in proptest::collection::vec(
                proptest::collection::vec(-2.0f64..2.0, 6), 2..8),
            costs in proptest::collection::vec(-1.0f64..1.0, 6),
        ) {
            let n = seed_x.len();
            let mut m = Model::new();
            let vars: Vec<_> = (0..n).map(|j| m.add_var(costs[j], 0.0, 10.0)).collect();
            for row in &rows {
                let terms: Vec<_> = vars.iter().zip(row).map(|(&v, &c)| (v, c)).collect();
                let lhs: f64 = row.iter().take(n).zip(&seed_x).map(|(c, x)| c * x).sum();
                m.add_con(&terms[..n], Le, lhs + 0.5);
            }
            let r = m.solve_lp();
            proptest::prop_assert_eq!(r.status, LpStatus::Optimal);
            proptest::prop_assert!(m.is_feasible_point(&r.x, 1e-5));
            let seed_obj: f64 = seed_x.iter().zip(&costs).map(|(x, c)| x * c).sum();
            proptest::prop_assert!(r.objective <= seed_obj + 1e-6);
        }
    }
}
