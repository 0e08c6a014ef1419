//! Branch & bound for mixed-integer linear programs, with warm-started
//! node LPs and an in-tree pricing hook.
//!
//! Depth-first search over LP relaxations with most-fractional branching.
//! The child closer to the relaxation value is explored first (a diving
//! strategy that finds integral incumbents quickly on the pattern MILPs
//! the EPTAS generates, where LP optima are near-integral).
//!
//! **Node warm starts** ([`MilpOptions::dual_simplex`], default on): a
//! child node differs from its parent by one variable-bound change, under
//! which the parent's optimal basis stays dual feasible. Each node hands
//! its final basis ([`crate::simplex::WarmState`]) to its children, which
//! re-optimize with the dual simplex ([`crate::dual::reoptimize`])
//! instead of a cold phase-1/phase-2 solve. A down-branch that gives a
//! variable its first finite upper bound is absorbed too: the dual engine
//! appends the bound row to the inherited basis. Cold solves, counted in
//! [`MilpResult::node_cold_solves`], remain for roots without a seed
//! basis, numerical failures (a singular refactorization or dual step)
//! and siblings of bases too large to share. Basis hand-off is by
//! reference count: small tableaus are shared with both children, large
//! ones only with the dive child (the sibling re-solves cold on
//! backtrack) to bound memory by O(1) tableaus instead of O(depth).
//!
//! **In-tree pricing** ([`TreePricer`], [`solve_milp_with`]): on
//! restricted column pools the LP-feasible region at a node may be
//! missing exactly the columns that would make the dive land. A pricer
//! is consulted at fractional optimal nodes and may append columns
//! (`Model::add_column` + `set_integer`); the node LP is re-solved by
//! grafting the columns onto the warm basis and the node re-branches.
//! Columns persist for the rest of the tree. Pricing presumes
//! first-solution (feasibility) mode: nodes are never pruned against an
//! incumbent before the first incumbent exists, so columns appended
//! mid-tree cannot invalidate earlier pruning decisions. Presolve is
//! skipped when a pricer is attached — the pricer addresses constraint
//! rows by index, and presolve renumbers them.
//!
//! Budgets (nodes, wall-clock) are explicit: exhausting one yields
//! [`MilpStatus::Feasible`] if an incumbent exists, otherwise
//! [`MilpStatus::Budget`] — never a silent wrong answer.

use crate::dual;
use crate::model::{LpResult, LpStatus, Model, VarId};
use crate::simplex::{self, WarmState};
use crate::TOL;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation probe, polled by the branch-and-bound loop
/// between nodes exactly where the node/time budgets are checked. The
/// closure must be cheap (an atomic load or two) and is shared across
/// threads — the caller races solves and trips the probe of the losers.
#[derive(Clone)]
pub struct CancelProbe(Arc<dyn Fn() -> bool + Send + Sync>);

impl CancelProbe {
    /// Wrap a predicate; `true` means "stop as soon as convenient".
    pub fn new(f: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        CancelProbe(Arc::new(f))
    }

    /// Poll the probe.
    pub fn is_cancelled(&self) -> bool {
        (self.0)()
    }
}

impl std::fmt::Debug for CancelProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CancelProbe(..)")
    }
}

/// Budgets and tolerances for [`solve_milp`].
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Maximum branch-and-bound nodes.
    pub max_nodes: usize,
    /// Wall-clock limit.
    pub time_limit: Duration,
    /// A value within this distance of an integer counts as integral.
    pub int_tol: f64,
    /// Stop as soon as *any* integral solution is found (feasibility mode —
    /// the paper's MILP is a pure feasibility question).
    pub first_solution: bool,
    /// Warm-start child-node LPs from the parent basis via the dual
    /// simplex instead of solving every node cold (default on).
    pub dual_simplex: bool,
    /// Consult the in-tree pricer only once this many nodes were explored
    /// (without an incumbent, in first-solution mode): a dive that lands
    /// quickly never pays for pricing, a struggling one — the symptom of
    /// a missing column — gets rescued.
    pub price_after_nodes: usize,
    /// Cooperative cancellation, polled beside the node/time budgets. A
    /// tripped probe stops the search like an exhausted budget
    /// ([`MilpStatus::Feasible`] with an incumbent, [`MilpStatus::Budget`]
    /// without) — never a silent wrong answer. `None` never cancels.
    pub cancel: Option<CancelProbe>,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            max_nodes: 50_000,
            time_limit: Duration::from_secs(60),
            int_tol: 1e-6,
            first_solution: false,
            dual_simplex: true,
            price_after_nodes: 32,
            cancel: None,
        }
    }
}

/// In-tree column generator consulted at fractional optimal nodes.
///
/// Implementations append improving columns to `model` (via
/// [`Model::add_column`], marking them integer as needed) and return the
/// new variables; an empty return means "no improving column under these
/// node duals" and ends the pricing loop at this node. The pricer is
/// responsible for its own round budget.
pub trait TreePricer {
    /// Price against the node-LP solution `lp` (duals included).
    fn price(&mut self, model: &mut Model, lp: &LpResult) -> Vec<VarId>;
}

/// Outcome status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// Proven optimal integral solution.
    Optimal,
    /// Integral solution found, but a budget stopped the optimality proof
    /// (or `first_solution` was set).
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// The LP relaxation is unbounded.
    Unbounded,
    /// A budget was exhausted before any integral solution was found;
    /// feasibility is unknown.
    Budget,
}

/// Result of a MILP solve.
#[derive(Debug, Clone)]
pub struct MilpResult {
    pub status: MilpStatus,
    /// Best integral solution (empty unless `Optimal`/`Feasible`),
    /// spanning every column of the final model — tree-priced ones
    /// included (pricing only runs before the first incumbent, so the
    /// incumbent already covers them).
    pub x: Vec<f64>,
    /// Its objective value.
    pub objective: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Total simplex iterations across all LP solves (dual pivots and
    /// warm clean-up pivots included).
    pub lp_iterations: usize,
    /// Number of LP relaxations solved (one per explored node, plus
    /// re-solves after in-tree pricing).
    pub lp_solves: usize,
    /// Redundant rows dropped by the root presolve.
    pub presolve_rows_dropped: usize,
    /// Variable bounds tightened by the root presolve.
    pub presolve_bounds_tightened: usize,
    /// Dual-simplex pivots spent re-optimizing warm node LPs.
    pub dual_pivots: usize,
    /// Node LPs that started from the parent basis instead of cold.
    pub node_warm_starts: usize,
    /// Node LPs solved cold (phase 1/phase 2 from scratch): every root
    /// without a seed basis, plus any node, or post-pricing re-solve,
    /// whose inherited basis the dual engine could not absorb.
    pub node_cold_solves: usize,
    /// Columns appended by the in-tree pricer.
    pub tree_columns: usize,
    /// Basis refactorizations across all accepted LP solves.
    pub basis_refactorizations: usize,
    /// Eta updates (factorized pivots) across all accepted LP solves.
    pub eta_updates: usize,
}

/// Warm bases up to this weight (stored nonzeros plus per-row vectors,
/// see [`WarmState::weight`]) are shared with both children; larger ones
/// ride only with the dive child, so the stack never holds more than
/// O(1) large bases.
const SHARE_CELL_BUDGET: usize = 250_000;

struct Node {
    /// Bound overrides along the path from the root: `(var, lb, ub)`.
    bounds: Vec<(usize, f64, f64)>,
    /// Parent LP objective (a lower bound for this node), used for pruning
    /// before the LP is solved.
    parent_bound: f64,
    /// The parent's final basis, when inherited.
    warm: Option<Rc<WarmState>>,
}

/// What a processed node asks the search to do next.
enum NodeOutcome {
    /// Nothing to explore further (infeasible, dominated, or handled).
    Pruned,
    /// A budget-type LP failure (iteration limit).
    BudgetHit,
    /// Root relaxation unbounded.
    UnboundedRoot,
    /// The node LP is integral: a candidate incumbent.
    Incumbent(Vec<f64>),
    /// Branch on variable `j` at fractional value `v` with effective
    /// bounds `(lb, ub)`; `state` is this node's final basis.
    Branch { j: usize, v: f64, lb: f64, ub: f64, obj: f64, state: Option<Box<WarmState>> },
}

/// Solve `model` to integral optimality (subject to budgets).
pub fn solve_milp(model: &Model, opts: &MilpOptions) -> MilpResult {
    solve_milp_with(model, opts, None)
}

/// Like [`solve_milp`], with an optional in-tree pricer consulted at
/// fractional optimal nodes (see [`TreePricer`]).
///
/// Claim semantics with a pricer: once any column was grafted, subtrees
/// explored *before* the graft were not re-explored, so an exhausted
/// search returns [`MilpStatus::Feasible`] (never `Optimal`), and an
/// [`MilpStatus::Infeasible`] verdict is relative to the columns each
/// subtree saw — treat it as "infeasible over this pool", exactly how a
/// restricted-pool verdict must be read anyway.
pub fn solve_milp_with(
    model: &Model,
    opts: &MilpOptions,
    pricer: Option<&mut dyn TreePricer>,
) -> MilpResult {
    solve_milp_seeded(model, opts, pricer, None).0
}

/// Like [`solve_milp_with`], plus a root-basis seam for cross-solve warm
/// starts: `root_warm` seeds the root node's LP with a basis captured
/// from a previous solve of a structurally identical model, and the
/// returned state is the root's final basis for the *next* identical
/// solve.
///
/// Seeding an identical model replays to optimality in zero dual pivots,
/// so the branch-and-bound tree — and hence the integral solution — is
/// bit-identical to the unseeded solve; a basis the dual engine cannot
/// absorb (wrong shape, singular) is discarded for the usual cold solve,
/// so a stale seed costs pivots, never correctness.
///
/// Presolve is skipped whenever a seed is supplied or requested (the
/// basis addresses the unreduced model's rows and columns), and the
/// returned state is `None` whenever it could not be replayed against
/// the caller's model as-is: presolve ran, the in-tree pricer grafted
/// columns before the root was resolved, or the root LP never reached a
/// reusable optimal basis.
pub fn solve_milp_seeded(
    model: &Model,
    opts: &MilpOptions,
    mut pricer: Option<&mut dyn TreePricer>,
    root_warm: Option<&WarmState>,
) -> (MilpResult, Option<WarmState>) {
    let _span = bagsched_types::obs::Span::enter("milp.bnb");
    let start = Instant::now();
    let fail = |status: MilpStatus| MilpResult {
        status,
        x: vec![],
        objective: f64::INFINITY,
        nodes: 0,
        lp_iterations: 0,
        lp_solves: 0,
        presolve_rows_dropped: 0,
        presolve_bounds_tightened: 0,
        dual_pivots: 0,
        node_warm_starts: 0,
        node_cold_solves: 0,
        tree_columns: 0,
        basis_refactorizations: 0,
        eta_updates: 0,
    };
    // Root presolve: tighten bounds, drop redundant rows, detect trivial
    // infeasibility. Variables are never removed, so indices are stable.
    // Skipped when a pricer is attached (priced columns address
    // constraint rows by index, and presolve renumbers rows) or when a
    // root basis is in play (the basis addresses the unreduced model).
    let presolved = pricer.is_none() && root_warm.is_none();
    let reduced;
    let (presolve_rows_dropped, presolve_bounds_tightened);
    let model = if !presolved {
        (presolve_rows_dropped, presolve_bounds_tightened) = (0, 0);
        model
    } else {
        let _span = bagsched_types::obs::Span::enter("milp.presolve");
        match crate::presolve::presolve(model) {
            crate::presolve::PresolveStatus::Infeasible => {
                return (fail(MilpStatus::Infeasible), None);
            }
            crate::presolve::PresolveStatus::Reduced { model, rows_dropped, bounds_tightened } => {
                presolve_rows_dropped = rows_dropped;
                presolve_bounds_tightened = bounds_tightened;
                reduced = model;
                &reduced
            }
        }
    };
    let mut int_vars: Vec<usize> =
        (0..model.num_vars()).filter(|&j| model.is_integer(VarId(j))).collect();
    let iter_limit = simplex::default_iter_limit(model);

    let mut nodes = 0usize;
    let mut lp_iterations = 0usize;
    let mut lp_solves = 0usize;
    let mut dual_pivots = 0usize;
    let mut node_warm_starts = 0usize;
    let mut node_cold_solves = 0usize;
    let mut tree_columns = 0usize;
    let mut basis_refactorizations = 0usize;
    let mut eta_updates = 0usize;
    let mut incumbent: Option<(Vec<f64>, f64)> = None;
    let mut budget_hit = false;
    let mut unbounded_root = false;
    // The root's final basis, captured for the next identical solve.
    let mut root_basis: Option<WarmState> = None;

    let mut stack = vec![Node {
        bounds: Vec::new(),
        parent_bound: f64::NEG_INFINITY,
        // Seed the root from the caller's basis; the dual engine treats
        // it exactly like a parent hand-off (cold fallback included).
        warm: if opts.dual_simplex { root_warm.map(|w| Rc::new(w.clone())) } else { None },
    }];
    let mut work = model.clone();

    'search: while let Some(node) = stack.pop() {
        if nodes >= opts.max_nodes
            || start.elapsed() > opts.time_limit
            || opts.cancel.as_ref().is_some_and(|c| c.is_cancelled())
        {
            budget_hit = true;
            break;
        }
        if let Some((_, inc_obj)) = &incumbent {
            if node.parent_bound >= *inc_obj - TOL {
                continue; // dominated before solving
            }
        }
        nodes += 1;
        let at_root = node.bounds.is_empty();

        // Apply node bounds on the shared work model; restored after the
        // node is fully processed (pricing re-solves run under them too).
        let saved: Vec<(usize, f64, f64)> = node
            .bounds
            .iter()
            .map(|&(j, _, _)| {
                let (lb, ub) = work.bounds(VarId(j));
                (j, lb, ub)
            })
            .collect();
        for &(j, lb, ub) in &node.bounds {
            work.set_bounds(VarId(j), lb, ub);
        }

        let outcome = 'node: {
            // ---- Node LP: warm from the parent basis, cold fallback. ----
            let mut state: Option<WarmState> = None;
            let mut lp: Option<LpResult> = None;
            if opts.dual_simplex {
                if let Some(rc) = node.warm {
                    let mut st = Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone());
                    if let Some(out) = dual::reoptimize(&work, iter_limit, &mut st) {
                        // An iteration-limited warm re-solve is discarded
                        // like a singular one: the cold solve of the same
                        // node may well finish within the identical
                        // budget, and verdicts must not depend on which
                        // path ran (warm changes the work, not the
                        // answers). Its pivots are not counted either —
                        // counted dual pivots always ship inside an
                        // accepted result's `iterations`, keeping
                        // `dual_pivots` a subset of the pivot total.
                        if out.lp.status != LpStatus::IterLimit {
                            node_warm_starts += 1;
                            dual_pivots += out.dual_pivots;
                            if out.lp.status == LpStatus::Optimal {
                                state = Some(st);
                            }
                            lp = Some(out.lp);
                        }
                    }
                }
            }
            let mut lp = lp.unwrap_or_else(|| {
                node_cold_solves += 1;
                if opts.dual_simplex {
                    let (l, s) = simplex::solve_with_state(&work, iter_limit);
                    state = s;
                    l
                } else {
                    // Cold mode: never build (or hand down) a warm state,
                    // so the A/B baseline pays none of the warm-path cost.
                    simplex::solve(&work, iter_limit)
                }
            });
            lp_solves += 1;
            lp_iterations += lp.iterations;
            basis_refactorizations += lp.refactorizations;
            eta_updates += lp.eta_updates;

            loop {
                match lp.status {
                    LpStatus::Infeasible => break 'node NodeOutcome::Pruned,
                    LpStatus::Unbounded => {
                        // Unbounded relaxation at the root means the MILP
                        // itself is unbounded or ill-posed; deeper in the
                        // tree it cannot happen (bounds only tighten), but
                        // handle it defensively.
                        break 'node if at_root {
                            NodeOutcome::UnboundedRoot
                        } else {
                            NodeOutcome::Pruned
                        };
                    }
                    LpStatus::IterLimit => break 'node NodeOutcome::BudgetHit,
                    LpStatus::Optimal => {}
                }

                if let Some((_, inc_obj)) = &incumbent {
                    if lp.objective >= *inc_obj - TOL {
                        break 'node NodeOutcome::Pruned;
                    }
                }

                // Most fractional integer variable.
                let mut branch_var: Option<(f64, usize)> = None;
                for &j in &int_vars {
                    let v = lp.x[j];
                    let frac = (v - v.round()).abs();
                    if frac > opts.int_tol {
                        let score = (v.fract() - 0.5).abs(); // smaller = more fractional
                        match branch_var {
                            Some((s, _)) if s <= score => {}
                            _ => branch_var = Some((score, j)),
                        }
                    }
                }
                let Some((_, j)) = branch_var else {
                    // Root exit: keep the final basis for the next
                    // identical solve — but only if it can be replayed
                    // against the caller's model as-is (no presolve
                    // renumbering, no tree-priced extra columns).
                    if at_root && !presolved && tree_columns == 0 {
                        root_basis = state.clone();
                    }
                    break 'node NodeOutcome::Incumbent(lp.x.clone());
                };

                // ---- In-tree pricing: the pool may be missing columns
                // that would let this fractional node land. Only consulted
                // once the search shows signs of struggle (healthy dives
                // land within a few nodes and must not pay for pricing),
                // and only while no incumbent exists — afterwards
                // subtrees are pruned against the incumbent, which new
                // columns could not reopen (in first-solution mode the
                // first incumbent returns immediately, so the gate is
                // vacuous there).
                if let Some(p) = pricer
                    .as_deref_mut()
                    .filter(|_| nodes >= opts.price_after_nodes && incumbent.is_none())
                {
                    let added = p.price(&mut work, &lp);
                    if !added.is_empty() {
                        tree_columns += added.len();
                        int_vars.extend(added.iter().filter(|&&v| work.is_integer(v)).map(|v| v.0));
                        // Re-solve with the new columns grafted onto this
                        // node's basis (no bound deltas: the snapshot
                        // already carries the node bounds). An
                        // iteration-limited warm graft is discarded and
                        // retried cold, exactly like at node entry.
                        let relp = match state.as_mut() {
                            Some(st) => dual::reoptimize(&work, iter_limit, st)
                                .filter(|o| o.lp.status != LpStatus::IterLimit)
                                .map(|o| {
                                    dual_pivots += o.dual_pivots;
                                    o.lp
                                }),
                            None => None,
                        };
                        lp = relp.unwrap_or_else(|| {
                            node_cold_solves += 1;
                            if opts.dual_simplex {
                                let (l, s) = simplex::solve_with_state(&work, iter_limit);
                                state = s;
                                l
                            } else {
                                simplex::solve(&work, iter_limit)
                            }
                        });
                        lp_solves += 1;
                        lp_iterations += lp.iterations;
                        basis_refactorizations += lp.refactorizations;
                        eta_updates += lp.eta_updates;
                        continue; // statuses and branching var re-derived
                    }
                }

                // Same capture rule as the integral root exit above.
                if at_root && !presolved && tree_columns == 0 {
                    root_basis = state.clone();
                }
                let (lb, ub) = work.bounds(VarId(j));
                break 'node NodeOutcome::Branch {
                    j,
                    v: lp.x[j],
                    lb,
                    ub,
                    obj: lp.objective,
                    state: state.take().map(Box::new),
                };
            }
        };

        for &(j, lb, ub) in &saved {
            work.set_bounds(VarId(j), lb, ub);
        }

        let (j, v, lb, ub, obj, state) = match outcome {
            NodeOutcome::Pruned => continue,
            NodeOutcome::BudgetHit => {
                budget_hit = true;
                continue;
            }
            NodeOutcome::UnboundedRoot => {
                unbounded_root = true;
                break 'search;
            }
            NodeOutcome::Incumbent(mut x) => {
                for &jj in &int_vars {
                    x[jj] = x[jj].round();
                }
                let obj = work.objective_value(&x);
                let better = incumbent.as_ref().is_none_or(|(_, inc)| obj < *inc - TOL);
                if better {
                    incumbent = Some((x, obj));
                    if opts.first_solution {
                        break 'search;
                    }
                }
                continue;
            }
            NodeOutcome::Branch { j, v, lb, ub, obj, state } => (j, v, lb, ub, obj, state),
        };

        let floor = v.floor();
        let ceil = v.ceil();

        let mut down = node.bounds.clone();
        down.push((j, lb, floor.min(ub)));
        let mut up = node.bounds.clone();
        up.push((j, ceil.max(lb), ub));

        // Hand the node basis to the children: both when the tableau is
        // small, only the dive child when it is large (the sibling then
        // re-solves cold on backtrack, trading pivots for memory).
        let rc = state.map(|boxed| Rc::new(*boxed));
        let share_both = rc.as_ref().is_some_and(|s| s.weight() <= SHARE_CELL_BUDGET);
        let (warm_dive, warm_other) = if share_both { (rc.clone(), rc) } else { (rc, None) };

        let dive_down = v - floor <= 0.5;
        let down_node = Node {
            bounds: down,
            parent_bound: obj,
            warm: if dive_down { warm_dive.clone() } else { warm_other.clone() },
        };
        let up_node = Node {
            bounds: up,
            parent_bound: obj,
            warm: if dive_down { warm_other } else { warm_dive },
        };
        // DFS: push the less promising child first so the child closer to
        // the LP value is explored next (diving).
        if dive_down {
            stack.push(up_node);
            stack.push(down_node);
        } else {
            stack.push(down_node);
            stack.push(up_node);
        }
    }

    if unbounded_root {
        let result = MilpResult {
            status: MilpStatus::Unbounded,
            x: vec![],
            objective: f64::NEG_INFINITY,
            nodes,
            lp_iterations,
            lp_solves,
            presolve_rows_dropped,
            presolve_bounds_tightened,
            dual_pivots,
            node_warm_starts,
            node_cold_solves,
            tree_columns,
            basis_refactorizations,
            eta_updates,
        };
        return (result, None);
    }
    let result = match incumbent {
        Some((mut x, objective)) => {
            // Defensive: pricing is gated on `incumbent.is_none()`, so
            // the incumbent already spans every column and this is a
            // no-op; it pins the x-covers-all-columns invariant should
            // the gate ever change (zeros are sound — an absent column
            // contributes nothing to any row).
            x.resize(work.num_vars(), 0.0);
            // An exhausted stack proves optimality only over the columns
            // each pruned subtree saw: a column grafted later could have
            // re-opened an already-pruned (dominated or infeasible)
            // subtree, so any tree-priced column degrades the claim to
            // Feasible.
            let proven = !budget_hit && stack.is_empty() && tree_columns == 0;
            MilpResult {
                status: if proven { MilpStatus::Optimal } else { MilpStatus::Feasible },
                x,
                objective,
                nodes,
                lp_iterations,
                lp_solves,
                presolve_rows_dropped,
                presolve_bounds_tightened,
                dual_pivots,
                node_warm_starts,
                node_cold_solves,
                tree_columns,
                basis_refactorizations,
                eta_updates,
            }
        }
        None => MilpResult {
            status: if budget_hit { MilpStatus::Budget } else { MilpStatus::Infeasible },
            x: vec![],
            objective: f64::INFINITY,
            nodes,
            lp_iterations,
            lp_solves,
            presolve_rows_dropped,
            presolve_bounds_tightened,
            dual_pivots,
            node_warm_starts,
            node_cold_solves,
            tree_columns,
            basis_refactorizations,
            eta_updates,
        },
    };
    (result, root_basis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Relation::*};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn knapsack() {
        // max 10x1 + 13x2 + 7x3, 3x1 + 4x2 + 2x3 <= 6, x binary.
        // Best: x1 + x3 (weight 5, value 17) vs x2 + x3 (weight 6, value 20).
        let mut m = Model::new();
        let x1 = m.add_int_var(-10.0, 0.0, 1.0);
        let x2 = m.add_int_var(-13.0, 0.0, 1.0);
        let x3 = m.add_int_var(-7.0, 0.0, 1.0);
        m.add_con(&[(x1, 3.0), (x2, 4.0), (x3, 2.0)], Le, 6.0);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.objective, -20.0);
        assert_close(r.x[1], 1.0);
        assert_close(r.x[2], 1.0);
    }

    #[test]
    fn integer_rounding_gap() {
        // max x s.t. 2x <= 5, x integer => x = 2 (LP gives 2.5).
        let mut m = Model::new();
        let x = m.add_int_var(-1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 2.0)], Le, 5.0);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.x[0], 2.0);
    }

    #[test]
    fn lp_feasible_ip_infeasible() {
        // 2x + 2y = 3 with x, y binary: LP ok (0.75, 0.75), IP impossible.
        let mut m = Model::new();
        let x = m.add_int_var(0.0, 0.0, 1.0);
        let y = m.add_int_var(0.0, 0.0, 1.0);
        m.add_con(&[(x, 2.0), (y, 2.0)], Eq, 3.0);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Infeasible);
    }

    #[test]
    fn mixed_integer() {
        // min y s.t. y >= 1.3 x, x >= 2 integer, y continuous.
        let mut m = Model::new();
        let x = m.add_int_var(0.0, 2.0, f64::INFINITY);
        let y = m.add_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(y, 1.0), (x, -1.3)], Ge, 0.0);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.x[0], 2.0);
        assert_close(r.objective, 2.6);
    }

    #[test]
    fn equality_assignment() {
        // Assign 2 items to 2 slots, each exactly once; cost matrix
        // [[1, 10], [10, 1]] => diagonal assignment, cost 2.
        let mut m = Model::new();
        let a = [[1.0, 10.0], [10.0, 1.0]];
        let mut v = [[VarId(0); 2]; 2];
        for i in 0..2 {
            for j in 0..2 {
                v[i][j] = m.add_int_var(a[i][j], 0.0, 1.0);
            }
        }
        for (i, row) in v.iter().enumerate() {
            m.add_con(&[(row[0], 1.0), (row[1], 1.0)], Eq, 1.0);
            m.add_con(&[(v[0][i], 1.0), (v[1][i], 1.0)], Eq, 1.0);
        }
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.objective, 2.0);
    }

    #[test]
    fn budget_exhaustion_reported() {
        // A deliberately nasty IP with an immediate node budget.
        let mut m = Model::new();
        let vars: Vec<_> = (0..12).map(|_| m.add_int_var(-1.0, 0.0, 1.0)).collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 2.0)).collect();
        m.add_con(&terms, Le, 11.0);
        let opts = MilpOptions { max_nodes: 1, ..Default::default() };
        let r = solve_milp(&m, &opts);
        // With one node we solve only the root LP: fractional, no incumbent.
        assert_eq!(r.status, MilpStatus::Budget);
    }

    #[test]
    fn first_solution_mode_stops_early() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..6).map(|_| m.add_int_var(-1.0, 0.0, 1.0)).collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 2.0)).collect();
        m.add_con(&terms, Le, 7.0);
        let opts = MilpOptions { first_solution: true, ..Default::default() };
        let r = solve_milp(&m, &opts);
        assert_eq!(r.status, MilpStatus::Feasible);
        assert!(!r.x.is_empty());
        assert!(m.is_feasible_point(&r.x, 1e-6));
    }

    #[test]
    fn pure_lp_passthrough() {
        // No integer vars: B&B reduces to a single LP solve.
        let mut m = Model::new();
        let _x = m.add_var(-1.0, 0.0, 3.5);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_close(r.x[0], 3.5);
        assert_eq!(r.nodes, 1);
    }

    #[test]
    fn unbounded_root_reported() {
        let mut m = Model::new();
        m.add_int_var(-1.0, 0.0, f64::INFINITY);
        let r = solve_milp(&m, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Unbounded);
    }

    /// A mid-size IP that forces real branching, solved with and without
    /// the dual engine: identical status/objective, and the warm path
    /// must both engage and pivot less.
    #[test]
    fn dual_warm_starts_match_cold_and_save_pivots() {
        let mut m = Model::new();
        let n = 14;
        let vars: Vec<_> = (0..n)
            .map(|j| m.add_int_var(-((j % 5 + 1) as f64) - j as f64 * 1e-9, 0.0, 3.0))
            .collect();
        for k in 0..4 {
            let terms: Vec<_> =
                vars.iter().enumerate().map(|(j, &v)| (v, ((j + k) % 4 + 1) as f64)).collect();
            m.add_con(&terms, Le, 17.0 + k as f64);
        }
        let warm = solve_milp(&m, &MilpOptions::default());
        let cold = solve_milp(&m, &MilpOptions { dual_simplex: false, ..Default::default() });
        assert_eq!(warm.status, cold.status);
        assert_close(warm.objective, cold.objective);
        assert!(warm.node_warm_starts > 0, "warm starts never engaged");
        assert!(warm.dual_pivots > 0, "dual engine never pivoted");
        assert_eq!(cold.node_warm_starts, 0);
        assert_eq!(cold.dual_pivots, 0);
        assert!(
            warm.lp_iterations < cold.lp_iterations,
            "warm {} pivots not below cold {}",
            warm.lp_iterations,
            cold.lp_iterations
        );
    }

    /// Integer variables on `[0, inf)`: down-branches impose first upper
    /// bounds, which the dual engine absorbs as appended bound rows, so
    /// the root is the only cold node LP. The cold mode solves every node
    /// LP cold.
    #[test]
    fn unbounded_down_branches_warm_start_every_child() {
        let mut m = Model::new();
        let vars: Vec<_> = (0..6)
            .map(|j| m.add_int_var(-((j % 3 + 2) as f64) - j as f64 * 1e-9, 0.0, f64::INFINITY))
            .collect();
        for k in 0..3 {
            let terms: Vec<_> =
                vars.iter().enumerate().map(|(j, &v)| (v, ((j + k) % 4 + 2) as f64)).collect();
            m.add_con(&terms, Le, 19.0 + k as f64);
        }
        let warm = solve_milp(&m, &MilpOptions::default());
        let cold = solve_milp(&m, &MilpOptions { dual_simplex: false, ..Default::default() });
        assert_eq!(warm.status, MilpStatus::Optimal);
        assert_eq!(warm.status, cold.status);
        assert_close(warm.objective, cold.objective);
        assert!(warm.nodes > 1, "the witness must branch");
        assert_eq!(warm.node_cold_solves, 1, "only the root may solve cold");
        assert_eq!(warm.node_warm_starts, warm.lp_solves - 1);
        assert_eq!(cold.node_cold_solves, cold.lp_solves);
    }

    /// In-tree pricing: a covering IP whose initial pool admits only a
    /// fractional cover; the pricer supplies the missing unit column at
    /// the first fractional node and the solve must land on it.
    #[test]
    fn tree_pricer_rescues_restricted_pool() {
        // Cover exactly 3 units with a pool of one double-unit column:
        // 2x = 3 has the fractional LP optimum x = 1.5 and no integer
        // solution. The missing single-unit column fixes it (x=1, y=1).
        let mut m = Model::new();
        let x = m.add_int_var(1.0, 0.0, f64::INFINITY);
        m.add_con(&[(x, 2.0)], Eq, 3.0);

        struct UnitPricer {
            fired: bool,
        }
        impl TreePricer for UnitPricer {
            fn price(&mut self, model: &mut Model, lp: &LpResult) -> Vec<VarId> {
                assert!(!lp.duals.is_empty(), "pricer must see node duals");
                if self.fired {
                    return vec![];
                }
                self.fired = true;
                let v = model.add_column(1.0, 0.0, f64::INFINITY, &[(0, 1.0)]);
                model.set_integer(v, true);
                vec![v]
            }
        }

        let opts = MilpOptions { first_solution: true, price_after_nodes: 0, ..Default::default() };
        // Without the pricer the restricted pool is integrally infeasible.
        let plain = solve_milp(&m, &opts);
        assert_eq!(plain.status, MilpStatus::Infeasible);
        // With it the unit column completes the cover.
        let mut pricer = UnitPricer { fired: false };
        let priced = solve_milp_with(&m, &opts, Some(&mut pricer));
        assert_eq!(priced.status, MilpStatus::Feasible);
        assert_eq!(priced.tree_columns, 1);
        assert_eq!(priced.x.len(), 2, "result must cover the priced column");
        assert_close(2.0 * priced.x[0] + priced.x[1], 3.0);
        assert!(priced.x[1] > 0.5, "the priced column must carry load");
    }

    /// A column priced before the incumbent is part of the result's
    /// index space even when the incumbent never uses it.
    #[test]
    fn result_spans_pre_incumbent_priced_columns() {
        let mut m = Model::new();
        let x = m.add_int_var(-1.0, 0.0, 5.0);
        let y = m.add_int_var(-1.0, 0.0, 5.0);
        m.add_con(&[(x, 2.0), (y, 2.0)], Le, 5.0);

        // Fires once at the first fractional node; the added column is
        // useless (cost 10) so the incumbent never includes it.
        struct NoisePricer {
            fired: bool,
        }
        impl TreePricer for NoisePricer {
            fn price(&mut self, model: &mut Model, _lp: &LpResult) -> Vec<VarId> {
                if self.fired {
                    return vec![];
                }
                self.fired = true;
                let v = model.add_column(10.0, 0.0, f64::INFINITY, &[(0, 1.0)]);
                model.set_integer(v, true);
                vec![v]
            }
        }
        let mut pricer = NoisePricer { fired: false };
        let opts = MilpOptions { first_solution: true, price_after_nodes: 0, ..Default::default() };
        let r = solve_milp_with(&m, &opts, Some(&mut pricer));
        assert_eq!(r.status, MilpStatus::Feasible);
        assert_eq!(r.x.len(), 3);
        assert_close(r.x[2], 0.0);
    }

    /// The root-basis seam: a second, identical solve seeded with the
    /// first solve's captured root basis must return a bit-identical
    /// result, with the seed actually engaging at the root.
    #[test]
    fn seeded_resolve_is_bit_identical() {
        let mut m = Model::new();
        let n = 10;
        let vars: Vec<_> = (0..n)
            .map(|j| m.add_int_var(-((j % 4 + 1) as f64) - j as f64 * 1e-9, 0.0, 2.0))
            .collect();
        for k in 0..3 {
            let terms: Vec<_> =
                vars.iter().enumerate().map(|(j, &v)| (v, ((j + k) % 3 + 1) as f64)).collect();
            m.add_con(&terms, Le, 11.0 + k as f64);
        }

        struct NeverPricer;
        impl TreePricer for NeverPricer {
            fn price(&mut self, _model: &mut Model, _lp: &LpResult) -> Vec<VarId> {
                vec![]
            }
        }

        let opts = MilpOptions { first_solution: true, ..Default::default() };
        let mut p1 = NeverPricer;
        let (cold, basis) = solve_milp_seeded(&m, &opts, Some(&mut p1), None);
        let basis = basis.expect("root basis must be captured when presolve is skipped");
        let mut p2 = NeverPricer;
        let (warm, basis2) = solve_milp_seeded(&m, &opts, Some(&mut p2), Some(&basis));
        assert_eq!(warm.status, cold.status);
        assert_eq!(warm.x, cold.x, "seeded solve must be bit-identical");
        assert_eq!(warm.nodes, cold.nodes, "seeded tree must match the unseeded tree");
        assert!(
            warm.node_warm_starts > cold.node_warm_starts,
            "the root seed never engaged (warm {} vs cold {})",
            warm.node_warm_starts,
            cold.node_warm_starts
        );
        assert!(basis2.is_some(), "a seeded solve must re-capture the root basis");
    }

    /// Without a pricer or seed, presolve runs and the root basis is
    /// withheld (it addresses the reduced model, not the caller's).
    #[test]
    fn presolved_solve_withholds_root_basis() {
        let mut m = Model::new();
        let x = m.add_int_var(-1.0, 0.0, 5.0);
        let y = m.add_int_var(-1.0, 0.0, 5.0);
        m.add_con(&[(x, 2.0), (y, 2.0)], Le, 5.0);
        let (r, basis) = solve_milp_seeded(&m, &MilpOptions::default(), None, None);
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!(basis.is_none());
    }

    proptest::proptest! {
        /// On random bounded pure-binary knapsacks the B&B optimum must
        /// match brute-force enumeration.
        #[test]
        fn matches_bruteforce_knapsack(
            values in proptest::collection::vec(1u32..20, 3..9),
            weights in proptest::collection::vec(1u32..10, 9),
            cap in 5u32..30,
        ) {
            let n = values.len();
            let mut m = Model::new();
            let vars: Vec<_> = (0..n).map(|j| m.add_int_var(-(values[j] as f64), 0.0, 1.0)).collect();
            let terms: Vec<_> = vars.iter().enumerate().map(|(j, &v)| (v, weights[j] as f64)).collect();
            m.add_con(&terms, Le, cap as f64);
            let r = solve_milp(&m, &MilpOptions::default());
            proptest::prop_assert_eq!(r.status, MilpStatus::Optimal);

            let mut best = 0i64;
            for mask in 0u32..(1 << n) {
                let w: u32 = (0..n).filter(|&j| mask >> j & 1 == 1).map(|j| weights[j]).sum();
                if w <= cap {
                    let v: i64 = (0..n).filter(|&j| mask >> j & 1 == 1).map(|j| values[j] as i64).sum();
                    best = best.max(v);
                }
            }
            proptest::prop_assert!((r.objective + best as f64).abs() < 1e-6,
                "bb={} brute={}", -r.objective, best);
        }

        /// Warm-started and cold node LPs must agree on every random
        /// knapsack's status and optimum.
        #[test]
        fn dual_engine_agrees_with_cold_on_random_ips(
            values in proptest::collection::vec(1u32..20, 4..8),
            weights in proptest::collection::vec(1u32..10, 8),
            cap in 5u32..30,
        ) {
            let n = values.len();
            let mut m = Model::new();
            let vars: Vec<_> = (0..n).map(|j| m.add_int_var(-(values[j] as f64), 0.0, 2.0)).collect();
            let terms: Vec<_> = vars.iter().enumerate().map(|(j, &v)| (v, weights[j] as f64)).collect();
            m.add_con(&terms, Le, cap as f64);
            let warm = solve_milp(&m, &MilpOptions::default());
            let cold = solve_milp(&m, &MilpOptions { dual_simplex: false, ..Default::default() });
            proptest::prop_assert_eq!(warm.status, cold.status);
            proptest::prop_assert!((warm.objective - cold.objective).abs() < 1e-6,
                "warm={} cold={}", warm.objective, cold.objective);
        }

        /// The same agreement with integer variables on `[0, inf)`: every
        /// first down-branch on a variable gives it its first finite upper
        /// bound, which the dual engine absorbs by appending a bound row.
        #[test]
        fn dual_engine_agrees_with_cold_on_unbounded_int_vars(
            values in proptest::collection::vec(1u32..20, 4..8),
            weights in proptest::collection::vec(1u32..10, 8),
            cap in 5u32..30,
        ) {
            let n = values.len();
            let mut m = Model::new();
            let vars: Vec<_> =
                (0..n).map(|j| m.add_int_var(-(values[j] as f64), 0.0, f64::INFINITY)).collect();
            let terms: Vec<_> = vars.iter().enumerate().map(|(j, &v)| (v, weights[j] as f64)).collect();
            m.add_con(&terms, Le, cap as f64);
            let warm = solve_milp(&m, &MilpOptions::default());
            let cold = solve_milp(&m, &MilpOptions { dual_simplex: false, ..Default::default() });
            proptest::prop_assert_eq!(warm.status, cold.status);
            proptest::prop_assert!((warm.objective - cold.objective).abs() < 1e-6,
                "warm={} cold={}", warm.objective, cold.objective);
        }
    }
}
