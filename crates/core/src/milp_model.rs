//! The configuration MILP (paper §3, constraints (1)–(9)).
//!
//! Variables:
//! * `x_p` (integer): machines assigned pattern `p` — constraint (6);
//! * `y_{(l,s),p}` (fractional): small jobs of priority size-restricted
//!   bag `B_l^s` placed on top of pattern `p` — constraints (8)/(9).
//!   (Constraint (7) would make the largest of these integral; see
//!   `EptasConfig::paper_integral_y` and DESIGN.md §2.)
//! * `a_p` (fractional): aggregate *area* of non-priority small jobs on
//!   pattern `p`. The paper uses per-(bag, size) `y` variables for
//!   non-priority bags too, but its own Lemma 9 consumes only the area
//!   distribution of those variables (group-bag-LPT re-places the jobs
//!   from scratch), so aggregating them is a lossless model reduction
//!   that shrinks the LP by a factor of the number of non-priority bags.
//!
//! Constraints (paper numbering):
//! * (1) `sum_p x_p <= m`;
//! * (2) per slot symbol: `sum_p x_p * mult_p(symbol) = avail` on the
//!   per-bag path (the paper writes `>=`; equality is equally valid — an
//!   optimal schedule uses each job exactly once — and prunes the
//!   search). The class-aggregated path uses the paper's `>=` instead,
//!   because class multiplicities make every up-dive of the
//!   branch-and-bound overshoot an equality; [`crate::declass`] trims
//!   the surplus slots afterwards;
//! * (3) per priority small pair: `sum_p y = count`, plus the aggregate
//!   `sum_p a_p = total non-priority small area`;
//! * (4) per pattern: `sum y * size + a_p <= x_p * (T - height(p))`;
//! * (5) per (pattern, priority bag): `sum_s y <= x_p` when the pattern
//!   holds no job of the bag, `y = 0` otherwise (encoded by simply not
//!   creating those variables).
//!
//! When the joint model exceeds the configured size budget, a *two-stage*
//! path solves the x-MILP with aggregate small-job cuts and then
//! constructs `y` greedily (documented deviation; the driver reports
//! which path ran).
//!
//! ## Pattern generation: pricing first, enumeration as oracle
//!
//! [`solve_patterns`] drives a generate→solve→price loop: the
//! [`crate::pricing`] subsystem grows a small pattern pool by column
//! generation against the master-LP duals, and the joint/two-stage MILP
//! then runs on that pool. Eager [`enumerate_patterns`] remains the
//! cross-validation oracle: it is consulted (with a reduced budget) when
//! the MILP over the priced pool fails inconclusively, and it is the
//! full fallback when pricing stalls or is disabled
//! ([`EptasConfig::column_generation`]).

use crate::classes::BagClasses;
use crate::classify::JobClass;
use crate::config::EptasConfig;
use crate::par::CancelToken;
use crate::pattern::{
    collect_symbols_classed, collect_symbols_coarse, enumerate_patterns, Pattern, PatternSet,
    Symbol,
};
use crate::pricing::{generate_columns, MilpRow, Pricing, TreePriceDriver};
use crate::report::{GuessFailure, Stats};
use crate::rounding::SizeExp;
use crate::transform::Transformed;
use bagsched_milp::{
    solve_milp_seeded, MilpOptions, MilpResult, MilpStatus, Model, Relation, VarId, WarmState,
};
use bagsched_types::{BagId, JobId};
use std::collections::HashMap;

/// A priority size-restricted bag of small jobs: `B_l^s` with `l` priority.
#[derive(Debug, Clone)]
pub struct SmallPair {
    /// The (transformed) priority bag.
    pub tbag: BagId,
    /// Size exponent.
    pub exp: SizeExp,
    /// Rounded size.
    pub size: f64,
    /// The jobs of this pair.
    pub jobs: Vec<JobId>,
}

/// Solution of the MILP phase.
#[derive(Debug, Clone)]
pub struct MilpOutcome {
    /// Machines per pattern (integral), indexed over the solved pool —
    /// including any tree-priced patterns appended at its tail (the
    /// extended [`PatternSet`] returned alongside by the solve).
    pub x: Vec<u32>,
    /// Fractional job counts per `(pair index, pattern index)`.
    pub y: HashMap<(usize, usize), f64>,
    /// The priority small pairs (index space of `y`).
    pub pairs: Vec<SmallPair>,
    /// Whether the joint (paper-faithful) model was solved.
    pub joint: bool,
    /// Branch-and-bound nodes.
    pub nodes: usize,
    /// Simplex iterations.
    pub lp_iterations: usize,
}

/// Which pattern pipeline a [`PatternSolve`] runs.
///
/// The explicit strategies expose the formerly separate entry points
/// (`solve_patterns`, `solve_with_patterns`, the classed variant) behind
/// one surface; [`PatternStrategy::Auto`] is the driver's production
/// path, which picks per guess and falls back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternStrategy {
    /// Pick automatically: class-aggregated pricing above the symbol
    /// budget, per-bag pricing below it, eager enumeration as the
    /// stall/failure fallback — the historical `solve_patterns` logic,
    /// preserved decision for decision.
    Auto,
    /// Eager enumeration of the full pattern pool, then the MILP: the
    /// cross-validation oracle.
    Eager,
    /// Per-bag column generation against the master-LP duals; a stall is
    /// reported as [`GuessFailure::PricingStalled`] instead of falling
    /// back.
    Pricing,
    /// Class-aggregated column generation keyed on `(size, bag class)`,
    /// de-classed to concrete bags on success; verdicts the class level
    /// cannot settle are reported as [`GuessFailure::PricingStalled`].
    Classed,
    /// Like [`PatternStrategy::Classed`], but over *coarse* classes
    /// ([`BagClasses::compute_coarse`]): profiles quantized onto a
    /// geometric template grid, availabilities priced at the per-size
    /// member minimum, and the de-class repair pass re-placing each
    /// member's surplus jobs. Only ever recorded in replay seeds — the
    /// auto path engages it when even exact classes are too many.
    Coarse,
}

/// Replayable state of one successful pattern solve, captured by
/// [`PatternSolve::run`] and consumed by [`PatternSolve::replay`]: the
/// winning strategy, its symbol space, its (pre-tree-extension) pattern
/// pool, and the root basis of the x-MILP when in-tree pricing ran.
///
/// Replaying skips pattern *generation* — pricing rounds, enumeration —
/// and, when the seed carries the captured [`MilpOutcome`] (the driver
/// attaches it after every successful guess), the restricted MILP too:
/// the cached integral solution is handed straight to the placement
/// phases. A seed without a captured solution re-solves the MILP over
/// the cached pool, seeding the branch-and-bound root with the cached
/// basis ([`bagsched_milp::solve_milp_seeded`]). On an instance
/// identical to the captured one either path reproduces the original
/// solve decision for decision. Validation is structural: the rounded
/// guess and the symbol space (sizes, bags *and* availabilities) must
/// match bit-exactly, so replaying against a mismatched instance (a
/// fingerprint collision upstream) fails with
/// [`GuessFailure::SeedMismatch`] instead of mis-scheduling.
#[derive(Debug, Clone)]
pub struct ReplaySeed {
    strategy: PatternStrategy,
    /// `trans.t` at capture; replay requires a bit-exact match.
    t: f64,
    /// The symbol space the pool is indexed over (replay validation).
    symbols: Vec<Symbol>,
    /// The pattern pool of the winning solve, before any tree-priced
    /// extension (tree columns re-derive on replay).
    pool: Vec<Pattern>,
    /// Root basis of the winning x-MILP (tree-priced path only).
    root_warm: Option<WarmState>,
    /// The final (post-extension, post-declass) pattern set and integral
    /// outcome the placement phases consumed; replay reuses them
    /// verbatim instead of re-running branch-and-bound.
    solution: Option<Box<(PatternSet, MilpOutcome)>>,
}

impl ReplaySeed {
    /// The strategy the seed replays.
    pub fn strategy(&self) -> PatternStrategy {
        self.strategy
    }

    /// Number of cached patterns.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Attach the final pattern set and integral outcome of the solve
    /// this seed was captured from, so the next replay skips the
    /// restricted MILP entirely.
    pub fn with_solution(mut self, ps: &PatternSet, out: &MilpOutcome) -> Self {
        self.solution = Some(Box::new((ps.clone(), out.clone())));
        self
    }
}

/// Solution of one [`PatternSolve::run`]: the pool the downstream
/// placement phases consume (tree-priced tail included), the MILP
/// outcome over it, and the replay seed for the next identical solve.
#[derive(Debug, Clone)]
pub struct PatternSolution {
    /// The solved pattern set (`outcome.x`'s index space).
    pub patterns: PatternSet,
    /// The MILP solution over `patterns`.
    pub outcome: MilpOutcome,
    /// Replayable state of this solve.
    pub seed: ReplaySeed,
}

/// Builder unifying the pattern-generation + MILP entry points: choose a
/// [`PatternStrategy`] (or let [`PatternStrategy::Auto`] pick), or
/// replay a cached [`ReplaySeed`], then [`run`](PatternSolve::run).
///
/// ```ignore
/// let sol = PatternSolve::new(&trans, &cfg).run(&mut stats)?;          // auto
/// let sol = PatternSolve::new(&trans, &cfg)
///     .strategy(PatternStrategy::Eager)
///     .run(&mut stats)?;                                               // oracle
/// let sol = PatternSolve::new(&trans, &cfg).replay(&seed).run(&mut stats)?;
/// ```
#[derive(Debug)]
pub struct PatternSolve<'a> {
    trans: &'a Transformed,
    cfg: &'a EptasConfig,
    strategy: PatternStrategy,
    replay: Option<&'a ReplaySeed>,
    cancel: Option<&'a CancelToken>,
}

impl<'a> PatternSolve<'a> {
    /// Start a pattern solve for one guess with the default
    /// ([`PatternStrategy::Auto`]) strategy.
    pub fn new(trans: &'a Transformed, cfg: &'a EptasConfig) -> Self {
        PatternSolve { trans, cfg, strategy: PatternStrategy::Auto, replay: None, cancel: None }
    }

    /// Force a specific pipeline instead of the auto pick.
    pub fn strategy(mut self, strategy: PatternStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replay a cached seed instead of generating patterns. Takes
    /// precedence over [`strategy`](PatternSolve::strategy); the seed
    /// carries its own.
    pub fn replay(mut self, seed: &'a ReplaySeed) -> Self {
        self.replay = Some(seed);
        self
    }

    /// Observe a cancellation token: the pricing loop polls it per
    /// round and the branch-and-bound between nodes, unwinding as
    /// [`GuessFailure::Cancelled`]. The solve's results are only valid
    /// while the token has not tripped — a racing caller must discard
    /// the output of a cancelled solve.
    pub fn cancel_token(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Run the solve. Work counters are recorded into `stats` whatever
    /// the outcome.
    pub fn run(self, stats: &mut Stats) -> Result<PatternSolution, GuessFailure> {
        let cancel = self.cancel;
        if let Some(seed) = self.replay {
            return run_replay(self.trans, self.cfg, seed, stats, cancel);
        }
        match self.strategy {
            PatternStrategy::Auto => run_auto(self.trans, self.cfg, stats, cancel),
            PatternStrategy::Eager => run_eager(self.trans, self.cfg, stats, cancel),
            PatternStrategy::Pricing => run_pricing(self.trans, self.cfg, stats, cancel),
            PatternStrategy::Classed => {
                let classes = BagClasses::compute(self.trans);
                solve_patterns_aggregated(self.trans, &classes, self.cfg, stats, cancel, false)
                    .unwrap_or(Err(GuessFailure::PricingStalled))
            }
            PatternStrategy::Coarse => {
                let classes = BagClasses::compute_coarse(self.trans, self.cfg.coarse_tolerance);
                stats.coarse_classes_formed += classes.num_classes() as u64;
                solve_patterns_aggregated(self.trans, &classes, self.cfg, stats, cancel, true)
                    .unwrap_or(Err(GuessFailure::PricingStalled))
            }
        }
    }
}

/// Collect the priority small pairs of the transformed instance, one per
/// concrete `(priority bag, size)`.
pub fn priority_small_pairs(trans: &Transformed) -> Vec<SmallPair> {
    priority_small_pairs_classed(trans, &BagClasses::singletons(trans))
}

/// Priority small pairs keyed on `(bag class, size)`: the pair's `tbag`
/// is the class representative and its jobs are the union over all
/// member bags (identical profiles guarantee identical small multisets).
/// Singleton classes reproduce [`priority_small_pairs`] exactly.
pub fn priority_small_pairs_classed(trans: &Transformed, classes: &BagClasses) -> Vec<SmallPair> {
    let epsilon = trans.t.sqrt() - 1.0;
    let mut map: HashMap<(BagId, SizeExp), Vec<JobId>> = HashMap::new();
    for j in 0..trans.tinst.num_jobs() {
        if trans.tclass[j] != JobClass::Small {
            continue;
        }
        let tbag = trans.tinst.bag_of(JobId(j as u32));
        if trans.is_priority_tbag[tbag.idx()] {
            let rep = classes.rep(classes.of(tbag).expect("priority bags are classed"));
            map.entry((rep, trans.texp[j])).or_default().push(JobId(j as u32));
        }
    }
    let mut pairs: Vec<SmallPair> = map
        .into_iter()
        .map(|((tbag, exp), jobs)| SmallPair {
            tbag,
            exp,
            size: crate::rounding::exp_size(exp, epsilon),
            jobs,
        })
        .collect();
    // Deterministic order, large sizes first (the greedy path packs big
    // pieces while area is plentiful).
    pairs.sort_by(|a, b| b.size.total_cmp(&a.size).then(a.tbag.cmp(&b.tbag)));
    pairs
}

/// Total rounded area of non-priority small jobs (fillers included).
pub fn nonpriority_small_area(trans: &Transformed) -> f64 {
    (0..trans.tinst.num_jobs())
        .filter(|&j| {
            trans.tclass[j] == JobClass::Small
                && !trans.is_priority_tbag[trans.tinst.bag_of(JobId(j as u32)).idx()]
        })
        .map(|j| trans.tinst.size(JobId(j as u32)))
        .sum()
}

/// Generate patterns and solve the MILP for one guess: the top entry
/// point the driver uses.
///
/// With [`EptasConfig::column_generation`] on (the default) the pattern
/// pool comes from the pricing loop; the returned [`PatternSet`] is
/// whatever pool the successful solve ran on, so the downstream placement
/// phases see a consistent view. Verdict soundness:
///
/// * pricing-proven infeasibility ([`Pricing::Infeasible`]) refutes a
///   relaxation of the full MILP — `Err(MilpInfeasible)` is exact, on
///   the class-aggregated master too (aggregation only relaxes);
/// * with [`EptasConfig::class_aggregation`], instances whose *per-bag
///   slot symbols* exceed [`EptasConfig::pricing_symbol_budget`] — where
///   the per-bag master is too large and the pre-aggregation pipeline
///   degraded to eager enumeration — first run the whole pricing/MILP
///   stack keyed on bag classes and [`crate::declass`] the solution; any
///   failure of that attempt falls back to the per-bag path below, so
///   aggregation never worsens a verdict;
/// * a failure of the MILP *restricted to the priced pool* is
///   inconclusive, so the eager oracle is consulted with the (small)
///   [`EptasConfig::pricing_fallback_budget`]; if even that budget is
///   exceeded the restricted verdict stands as an inconclusive failure —
///   the driver raises the guess, exactly as it does for every other
///   budget-type failure;
/// * a pricing stall falls back to full eager enumeration, which may
///   fail with [`GuessFailure::PatternBudget`] as before.
pub fn solve_patterns(
    trans: &Transformed,
    cfg: &EptasConfig,
    stats: &mut Stats,
) -> Result<(PatternSet, MilpOutcome), GuessFailure> {
    PatternSolve::new(trans, cfg).run(stats).map(|sol| (sol.patterns, sol.outcome))
}

/// The auto pipeline behind [`PatternStrategy::Auto`].
fn run_auto(
    trans: &Transformed,
    cfg: &EptasConfig,
    stats: &mut Stats,
    cancel: Option<&CancelToken>,
) -> Result<PatternSolution, GuessFailure> {
    if cfg.column_generation {
        // Class aggregation is the *scale* path: it engages exactly when
        // the per-bag master would be over the symbol budget — i.e. when
        // the pre-PR pipeline skipped pricing and degraded to eager
        // enumeration (budget-fail + LPT on tight instances). Below the
        // ceiling the per-bag path is proven, fast, and byte-for-byte
        // deterministic, so nothing changes there.
        let singles = BagClasses::singletons(trans);
        let symbols = collect_symbols_classed(trans, &singles);
        if cfg.class_aggregation && symbols.len() > cfg.pricing_symbol_budget {
            let classes = BagClasses::compute(trans);
            if !classes.all_singletons() {
                // A `None` (unrealizable or stalled at class level)
                // retries this guess on the per-bag path below — which,
                // above the budget, degrades to eager enumeration,
                // exactly the pre-aggregation behaviour.
                if let Some(resolved) =
                    solve_patterns_aggregated(trans, &classes, cfg, stats, cancel, false)
                {
                    return resolved;
                }
            }
            // Coarse rescue: when exact classes could not settle the
            // guess — typically because their *count* is itself over the
            // class-count ceiling in the pricing gate — retry with
            // template-quantized coarse classes, which merge
            // near-identical profiles and price against the per-size
            // member minimum. Only worth running when coarsening
            // actually merged something (equal counts = same partition).
            if cfg.class_coarsening {
                let coarse = BagClasses::compute_coarse(trans, cfg.coarse_tolerance);
                if !coarse.all_singletons() && coarse.num_classes() < classes.num_classes() {
                    stats.coarse_classes_formed += coarse.num_classes() as u64;
                    if let Some(resolved) =
                        solve_patterns_aggregated(trans, &coarse, cfg, stats, cancel, true)
                    {
                        return resolved;
                    }
                }
            }
        }
        let classes = singles;
        stats.bag_classes += classes.num_classes() as u64;
        stats.symbols_after_aggregation += symbols.len() as u64;
        match generate_columns(trans, &symbols, &classes, cfg, stats, cancel) {
            Pricing::Infeasible => return Err(GuessFailure::MilpInfeasible),
            Pricing::Cancelled => return Err(GuessFailure::Cancelled),
            Pricing::Converged(pool) => {
                let ps = PatternSet::from_parts(symbols, pool);
                match solve_restricted(
                    trans,
                    &ps,
                    &classes,
                    cfg,
                    stats,
                    cfg.tree_pricing,
                    None,
                    cancel,
                ) {
                    Ok((out, ext, warm)) => {
                        let seed = ReplaySeed {
                            strategy: PatternStrategy::Pricing,
                            t: trans.t,
                            symbols: ps.symbols.clone(),
                            pool: ps.patterns.clone(),
                            root_warm: warm,
                            solution: None,
                        };
                        return Ok(PatternSolution {
                            patterns: ext.unwrap_or(ps),
                            outcome: out,
                            seed,
                        });
                    }
                    Err(restricted) => {
                        // Inconclusive on a restricted pool: consult the
                        // oracle if enumeration is cheap, otherwise let
                        // the restricted verdict stand (both variants are
                        // "raise the guess" to the driver).
                        let budget = cfg.max_patterns.min(cfg.pricing_fallback_budget);
                        match enumerate_patterns(trans, budget) {
                            Ok(full) => {
                                stats.patterns_enumerated += full.patterns.len() as u64;
                                return solve_eager_pool(trans, cfg, full, stats, cancel);
                            }
                            Err(e) => {
                                stats.patterns_enumerated += e.budget as u64;
                                return Err(restricted);
                            }
                        }
                    }
                }
            }
            Pricing::Stalled => {} // fall through to the eager path
        }
    }
    run_eager(trans, cfg, stats, cancel)
}

/// The eager pipeline behind [`PatternStrategy::Eager`] and the auto
/// path's stall fallback: full enumeration, then the restricted MILP.
fn run_eager(
    trans: &Transformed,
    cfg: &EptasConfig,
    stats: &mut Stats,
    cancel: Option<&CancelToken>,
) -> Result<PatternSolution, GuessFailure> {
    let ps = enumerate_patterns(trans, cfg.max_patterns).map_err(|e| {
        // The DFS aborts after generating exactly `budget` patterns.
        stats.patterns_enumerated += e.budget as u64;
        GuessFailure::PatternBudget
    })?;
    stats.patterns_enumerated += ps.patterns.len() as u64;
    solve_eager_pool(trans, cfg, ps, stats, cancel)
}

/// Solve an eagerly enumerated pool and wrap it as a replayable
/// solution. Tree pricing stays off (the pool is complete by
/// construction), so the seed carries no root basis — the eager MILP
/// runs presolved, where a captured basis could not be replayed.
fn solve_eager_pool(
    trans: &Transformed,
    cfg: &EptasConfig,
    ps: PatternSet,
    stats: &mut Stats,
    cancel: Option<&CancelToken>,
) -> Result<PatternSolution, GuessFailure> {
    let singles = BagClasses::singletons(trans);
    let (out, _, _) = solve_restricted(trans, &ps, &singles, cfg, stats, false, None, cancel)?;
    let seed = ReplaySeed {
        strategy: PatternStrategy::Eager,
        t: trans.t,
        symbols: ps.symbols.clone(),
        pool: ps.patterns.clone(),
        root_warm: None,
        solution: None,
    };
    Ok(PatternSolution { patterns: ps, outcome: out, seed })
}

/// The per-bag pricing pipeline behind [`PatternStrategy::Pricing`].
fn run_pricing(
    trans: &Transformed,
    cfg: &EptasConfig,
    stats: &mut Stats,
    cancel: Option<&CancelToken>,
) -> Result<PatternSolution, GuessFailure> {
    let classes = BagClasses::singletons(trans);
    let symbols = collect_symbols_classed(trans, &classes);
    stats.bag_classes += classes.num_classes() as u64;
    stats.symbols_after_aggregation += symbols.len() as u64;
    match generate_columns(trans, &symbols, &classes, cfg, stats, cancel) {
        Pricing::Infeasible => Err(GuessFailure::MilpInfeasible),
        Pricing::Stalled => Err(GuessFailure::PricingStalled),
        Pricing::Cancelled => Err(GuessFailure::Cancelled),
        Pricing::Converged(pool) => {
            let ps = PatternSet::from_parts(symbols, pool);
            let (out, ext, warm) =
                solve_restricted(trans, &ps, &classes, cfg, stats, cfg.tree_pricing, None, cancel)?;
            let seed = ReplaySeed {
                strategy: PatternStrategy::Pricing,
                t: trans.t,
                symbols: ps.symbols.clone(),
                pool: ps.patterns.clone(),
                root_warm: warm,
                solution: None,
            };
            Ok(PatternSolution { patterns: ext.unwrap_or(ps), outcome: out, seed })
        }
    }
}

/// Replay a cached seed: validate the symbol space, rebuild the pool,
/// and re-solve the restricted MILP seeded with the cached root basis.
fn run_replay(
    trans: &Transformed,
    cfg: &EptasConfig,
    seed: &ReplaySeed,
    stats: &mut Stats,
    cancel: Option<&CancelToken>,
) -> Result<PatternSolution, GuessFailure> {
    // The rounded guess pins the whole size geometry; a drifted `t`
    // means the cached pool belongs to a different guess grid.
    if trans.t.to_bits() != seed.t.to_bits() {
        return Err(GuessFailure::SeedMismatch);
    }
    let classes = match seed.strategy {
        PatternStrategy::Eager | PatternStrategy::Pricing => BagClasses::singletons(trans),
        PatternStrategy::Classed => {
            let classes = BagClasses::compute(trans);
            if classes.all_singletons() {
                return Err(GuessFailure::SeedMismatch);
            }
            classes
        }
        PatternStrategy::Coarse => {
            let classes = BagClasses::compute_coarse(trans, cfg.coarse_tolerance);
            if classes.all_singletons() {
                return Err(GuessFailure::SeedMismatch);
            }
            classes
        }
        // Auto never lands in a seed: capture always records the
        // concrete winning pipeline.
        PatternStrategy::Auto => return Err(GuessFailure::SeedMismatch),
    };
    let symbols_now = match seed.strategy {
        PatternStrategy::Coarse => collect_symbols_coarse(trans, &classes),
        _ => collect_symbols_classed(trans, &classes),
    };
    if symbols_now != seed.symbols {
        return Err(GuessFailure::SeedMismatch);
    }
    // The captured integral solution short-circuits the whole MILP: the
    // symbol space (availabilities included) matched bit-exactly, so the
    // cached multiplicities place this instance's large/priority jobs
    // decision for decision. Anything the outcome cannot cover (e.g. a
    // drifted small-job area on a colliding fingerprint) fails in a
    // placement phase as an ordinary `GuessFailure` and the driver
    // solves cold.
    if let Some(cached) = &seed.solution {
        let (ps, out) = cached.as_ref().clone();
        return Ok(PatternSolution { patterns: ps, outcome: out, seed: seed.clone() });
    }
    let ps = PatternSet::from_parts(seed.symbols.clone(), seed.pool.clone());
    match seed.strategy {
        PatternStrategy::Eager => {
            let (out, _, _) =
                solve_restricted(trans, &ps, &classes, cfg, stats, false, None, cancel)?;
            Ok(PatternSolution { patterns: ps, outcome: out, seed: seed.clone() })
        }
        PatternStrategy::Pricing => {
            let (out, ext, warm) = solve_restricted(
                trans,
                &ps,
                &classes,
                cfg,
                stats,
                cfg.tree_pricing,
                seed.root_warm.as_ref(),
                cancel,
            )?;
            let seed = ReplaySeed { root_warm: warm, ..seed.clone() };
            Ok(PatternSolution { patterns: ext.unwrap_or(ps), outcome: out, seed })
        }
        PatternStrategy::Classed | PatternStrategy::Coarse => {
            let (out, ext, warm) = solve_restricted(
                trans,
                &ps,
                &classes,
                cfg,
                stats,
                cfg.tree_pricing,
                seed.root_warm.as_ref(),
                cancel,
            )?;
            let seed = ReplaySeed { root_warm: warm, ..seed.clone() };
            let ps = ext.unwrap_or(ps);
            let (cps, cout) = crate::declass::declass(trans, &classes, &ps, &out, stats)?;
            Ok(PatternSolution { patterns: cps, outcome: cout, seed })
        }
        PatternStrategy::Auto => unreachable!("rejected above"),
    }
}

/// The class-aggregated attempt: pricing and the MILP keyed on `(size,
/// bag class)`, de-classed to concrete bags on success. With `coarse`
/// set the classes are template-quantized ([`BagClasses::compute_coarse`])
/// and the symbol availabilities are priced at the per-size member
/// minimum ([`collect_symbols_coarse`]); the de-class repair pass then
/// re-places each member's surplus jobs.
///
/// Returns `Some` only for verdicts that are *final*: a de-classed
/// solution, or a pricing infeasibility proof (exact — every per-bag
/// pattern multiset maps to a class-level one covering at least the
/// minimum availabilities, so the aggregated master is a relaxation on
/// the coarse path too). `None` means the class level could not settle
/// the guess — pricing stalled, the restricted MILP failed, or the
/// concrete small-job split or surplus repair failed — and the caller
/// retries per-bag, where the joint model and the eager oracle are
/// available.
fn solve_patterns_aggregated(
    trans: &Transformed,
    classes: &BagClasses,
    cfg: &EptasConfig,
    stats: &mut Stats,
    cancel: Option<&CancelToken>,
    coarse: bool,
) -> Option<Result<PatternSolution, GuessFailure>> {
    stats.bag_classes += classes.num_classes() as u64;
    let symbols = if coarse {
        collect_symbols_coarse(trans, classes)
    } else {
        collect_symbols_classed(trans, classes)
    };
    stats.symbols_after_aggregation += symbols.len() as u64;
    match generate_columns(trans, &symbols, classes, cfg, stats, cancel) {
        Pricing::Infeasible => Some(Err(GuessFailure::MilpInfeasible)),
        Pricing::Stalled => None,
        Pricing::Cancelled => Some(Err(GuessFailure::Cancelled)),
        Pricing::Converged(pool) => {
            let ps = PatternSet::from_parts(symbols, pool);
            let (out, ext, warm) =
                solve_restricted(trans, &ps, classes, cfg, stats, cfg.tree_pricing, None, cancel)
                    .ok()?;
            let seed = ReplaySeed {
                strategy: if coarse { PatternStrategy::Coarse } else { PatternStrategy::Classed },
                t: trans.t,
                symbols: ps.symbols.clone(),
                pool: ps.patterns.clone(),
                root_warm: warm,
                solution: None,
            };
            let ps = ext.unwrap_or(ps);
            let (cps, cout) = crate::declass::declass(trans, classes, &ps, &out, stats).ok()?;
            Some(Ok(PatternSolution { patterns: cps, outcome: cout, seed }))
        }
    }
}

/// The one place pattern sets grow a tree-priced tail: patterns append in
/// column order, the `chi` table is rebuilt. Built once per tree-priced
/// solve and handed up to the caller alongside the outcome.
fn extend_patterns(ps: PatternSet, extra: &[Pattern]) -> PatternSet {
    let mut patterns = ps.patterns;
    patterns.extend(extra.iter().cloned());
    PatternSet::from_parts(ps.symbols, patterns)
}

/// Build and solve the MILP for one guess over a *given* pattern set.
/// Simplex/branch-and-bound work counters are recorded into `stats`
/// whatever the outcome, so infeasible and budget-exhausted guesses still
/// account for their cost.
pub fn solve_with_patterns(
    trans: &Transformed,
    ps: &PatternSet,
    cfg: &EptasConfig,
    stats: &mut Stats,
) -> Result<MilpOutcome, GuessFailure> {
    solve_with_patterns_classed(trans, ps, &BagClasses::singletons(trans), cfg, stats)
}

/// Per-pattern slot counts per bag class: `table[p][c]` is how many slots
/// of class `c` pattern `p` holds (summed over sizes). The class-keyed
/// generalization of `chi`: with singleton classes the entries are 0/1
/// and `table[p][c] == 1` iff `chi_p(rep_c)`.
pub(crate) fn class_mult_table(ps: &PatternSet, classes: &BagClasses) -> Vec<Vec<u32>> {
    ps.patterns.iter().map(|pat| pat.class_multiplicities(&ps.symbols, classes)).collect()
}

/// [`solve_with_patterns`] generalized to class-keyed pattern sets: the
/// covering rows of the MILP run over whatever symbols `ps` carries, and
/// the small-job constraints (3)–(5) run per `(class, size)` with the
/// per-pattern free capacity `|C| - mult_C(p)` replacing the boolean
/// `chi` exclusion. Singleton classes reproduce the per-bag model
/// term for term. Tree pricing is off on this entry point (it is the
/// oracle/cross-validation surface); the priced-pool path goes through
/// [`solve_restricted`].
pub(crate) fn solve_with_patterns_classed(
    trans: &Transformed,
    ps: &PatternSet,
    classes: &BagClasses,
    cfg: &EptasConfig,
    stats: &mut Stats,
) -> Result<MilpOutcome, GuessFailure> {
    solve_restricted(trans, ps, classes, cfg, stats, false, None, None).map(|(out, _, _)| out)
}

/// The restricted configuration MILP over a (priced or enumerated) pool,
/// optionally with in-tree pricing (`tree`): fractional node LPs of the
/// branch-and-bound then consult the knapsack pricing DFS against the
/// node duals and graft improving patterns as new integer columns (see
/// [`TreePriceDriver`]). Only the priced-pool path enables it — eager
/// pools are already complete by construction. When tree columns were
/// generated the second return value carries the extended pattern set
/// (`x`'s index space), built exactly once. `root_warm` seeds the
/// x-MILP's root LP with a basis from a previous identical solve; the
/// third return value is this solve's root basis for the next one (see
/// [`bagsched_milp::solve_milp_seeded`]).
#[allow(clippy::too_many_arguments)]
fn solve_restricted(
    trans: &Transformed,
    ps: &PatternSet,
    classes: &BagClasses,
    cfg: &EptasConfig,
    stats: &mut Stats,
    tree: bool,
    root_warm: Option<&WarmState>,
    cancel: Option<&CancelToken>,
) -> Result<(MilpOutcome, Option<PatternSet>, Option<WarmState>), GuessFailure> {
    let pairs = priority_small_pairs_classed(trans, classes);
    let w_nonprio = nonpriority_small_area(trans);
    let class_mult = class_mult_table(ps, classes);

    // Estimate the joint model size.
    let np = ps.patterns.len();
    let y_cols: usize = pairs
        .iter()
        .map(|pair| {
            let c = classes.of(pair.tbag).expect("pair reps are classed");
            let cap = classes.size(c) as u32;
            (0..np).filter(|&p| class_mult[p][c] < cap).count()
        })
        .sum();
    let classes_with_smalls: Vec<usize> = {
        let mut seen = Vec::new();
        for pair in &pairs {
            let c = classes.of(pair.tbag).expect("pair reps are classed");
            if !seen.contains(&c) {
                seen.push(c);
            }
        }
        seen
    };
    let est_cols = np + y_cols + np; // x + y + a
    let est_rows = 1 + ps.symbols.len() + pairs.len() + 1 + np + np * classes_with_smalls.len();

    let joint = est_cols <= cfg.joint_col_budget
        && est_rows <= cfg.joint_row_budget
        && est_cols.saturating_mul(est_rows) <= cfg.joint_cell_budget;
    // The per-bag path keeps the equality covering (2) — it prunes the
    // search and downstream consumes counts exactly. The aggregated path
    // uses the paper's original `>=`: with class multiplicities the
    // branch-and-bound dive constantly overshoots an equality when it
    // rounds up, turning every up-child infeasible; under `>=` dives
    // land, and [`crate::declass`] trims the surplus slots (a sub-multiset
    // of a pattern is itself a valid pattern).
    let covering = if classes.all_singletons() { Relation::Eq } else { Relation::Ge };
    let ctx =
        ClassCtx { classes, class_mult: &class_mult, with_smalls: &classes_with_smalls, covering };
    if joint {
        solve_joint(trans, ps, cfg, pairs, w_nonprio, &ctx, stats, tree, root_warm, cancel)
    } else {
        solve_two_stage(trans, ps, cfg, pairs, w_nonprio, &ctx, stats, tree, root_warm, cancel)
    }
}

/// The class context threaded through the MILP builders.
pub(crate) struct ClassCtx<'a> {
    pub classes: &'a BagClasses,
    /// `[pattern][class]` slot counts (see [`class_mult_table`]).
    pub class_mult: &'a [Vec<u32>],
    /// Classes that own priority small jobs, in pair order.
    pub with_smalls: &'a [usize],
    /// Relation of the covering rows (2): `Eq` per-bag, `Ge` aggregated.
    pub covering: Relation,
}

impl ClassCtx<'_> {
    /// Per-machine capacity pattern `p` leaves for small jobs of class
    /// `c`: member bags without a large slot on the machine.
    fn free_cap(&self, p: usize, c: usize) -> u32 {
        (self.classes.size(c) as u32).saturating_sub(self.class_mult[p][c])
    }
}

/// Fold one MILP solve's counters into the run-wide stats.
fn record_milp(stats: &mut Stats, res: &bagsched_milp::MilpResult) {
    stats.simplex_pivots += res.lp_iterations as u64;
    stats.lp_solves += res.lp_solves as u64;
    stats.milp_nodes += res.nodes as u64;
    stats.dual_pivots += res.dual_pivots as u64;
    stats.node_warm_starts += res.node_warm_starts as u64;
    stats.node_cold_solves += res.node_cold_solves as u64;
    stats.tree_columns_generated += res.tree_columns as u64;
    stats.basis_refactorizations += res.basis_refactorizations as u64;
    stats.eta_updates += res.eta_updates as u64;
}

fn milp_options(cfg: &EptasConfig, cancel: Option<&CancelToken>) -> MilpOptions {
    MilpOptions {
        max_nodes: cfg.milp_max_nodes,
        time_limit: cfg.milp_time_limit,
        int_tol: 1e-6,
        first_solution: true,
        dual_simplex: cfg.dual_simplex,
        price_after_nodes: 32,
        cancel: cancel.map(CancelToken::probe),
    }
}

/// Run the restricted MILP, with the in-tree pricer attached when `tree`
/// is set. Returns the raw result plus the tree-priced patterns and their
/// solution values (the tail of the extended `x` index space).
fn run_milp(
    model: &Model,
    cfg: &EptasConfig,
    stats: &mut Stats,
    tree: Option<TreePriceDriver<'_>>,
    root_warm: Option<&WarmState>,
    cancel: Option<&CancelToken>,
) -> (MilpResult, Vec<Pattern>, Vec<u32>, Option<WarmState>) {
    match tree {
        Some(mut driver) => {
            let (res, warm_out) =
                solve_milp_seeded(model, &milp_options(cfg, cancel), Some(&mut driver), root_warm);
            stats.add(&driver.stats);
            let tree_x = match res.status {
                MilpStatus::Optimal | MilpStatus::Feasible => {
                    driver.new_vars.iter().map(|&v| res.x[v.0].round() as u32).collect()
                }
                _ => Vec::new(),
            };
            (res, driver.new_patterns, tree_x, warm_out)
        }
        None => {
            // Without a pricer the warm seam stays closed: passing a
            // seed would skip presolve and change which model the B&B
            // explores relative to the cold path it must reproduce.
            let (res, _) = solve_milp_seeded(model, &milp_options(cfg, cancel), None, None);
            (res, Vec::new(), Vec::new(), None)
        }
    }
}

/// The paper-faithful joint model, class-keyed: constraint (5) becomes
/// `sum_s y_{(C,s),p} <= (|C| - mult_C(p)) * x_p` — each machine of
/// pattern `p` has `|C| - mult_C(p)` member bags without a large slot,
/// and the bag-constraint allows one small job per such bag. Singleton
/// classes recover the paper's boolean `chi` form exactly.
///
/// Tree-priced columns participate only in rows (1) and (2): they carry
/// no `y`/`a` variables, so no small jobs are modelled on them — a sound
/// restriction (their machines simply stay small-free in the MILP's
/// view).
#[allow(clippy::too_many_arguments)]
fn solve_joint(
    trans: &Transformed,
    ps: &PatternSet,
    cfg: &EptasConfig,
    pairs: Vec<SmallPair>,
    w_nonprio: f64,
    ctx: &ClassCtx<'_>,
    stats: &mut Stats,
    tree: bool,
    root_warm: Option<&WarmState>,
    cancel: Option<&CancelToken>,
) -> Result<(MilpOutcome, Option<PatternSet>, Option<WarmState>), GuessFailure> {
    let m = trans.tinst.num_machines() as f64;
    let np = ps.patterns.len();
    let mut model = Model::new();
    model.set_refactor_interval(cfg.refactor_interval);

    // x_p: integer in [0, m]; empty pattern costs nothing. The tiny
    // index-dependent perturbation breaks the column symmetry of
    // bag-symmetric patterns — without it the simplex stalls in degenerate
    // pivots on the covering equalities and the B&B dive cannot reach an
    // incumbent within budget.
    let x: Vec<VarId> = (0..np)
        .map(|p| model.add_int_var(if p == 0 { 0.0 } else { 1.0 + p as f64 * 1e-9 }, 0.0, m))
        .collect();

    // Integral-y threshold of constraint (7): eps^{2k+11}.
    let eps = cfg.epsilon;
    let y_int_threshold = if cfg.paper_integral_y {
        // medium_threshold = eps^{k+1}  =>  eps^{2k+11} = mt^2 * eps^9.
        let mt = medium_threshold_of(trans);
        mt * mt * eps.powi(9)
    } else {
        f64::INFINITY
    };

    // y variables per (pair, pattern with free class capacity). The tiny
    // perturbation breaks ties among symmetric (pair, pattern) columns,
    // like for `x`.
    let mut y: HashMap<(usize, usize), VarId> = HashMap::new();
    for (i, pair) in pairs.iter().enumerate() {
        let c = ctx.classes.of(pair.tbag).expect("pair reps are classed");
        for p in 0..np {
            if ctx.free_cap(p, c) > 0 {
                let tiny = (i * np + p) as f64 * 1e-12;
                let v = if pair.size > y_int_threshold {
                    model.add_int_var(tiny, 0.0, pair.jobs.len() as f64)
                } else {
                    model.add_var(tiny, 0.0, pair.jobs.len() as f64)
                };
                y.insert((i, p), v);
            }
        }
    }

    // a_p variables.
    let a: Vec<VarId> = (0..np).map(|_| model.add_var(0.0, 0.0, f64::INFINITY)).collect();

    // Row layout for the in-tree pricer, recorded as the rows are built.
    let mut rows: Vec<MilpRow> = Vec::new();

    // (1)
    let ones: Vec<(VarId, f64)> = x.iter().map(|&v| (v, 1.0)).collect();
    model.add_con(&ones, Relation::Le, m);
    rows.push(MilpRow::Machine);

    // (2) per symbol.
    for (si, sym) in ps.symbols.iter().enumerate() {
        let mut terms = Vec::new();
        for (p, pat) in ps.patterns.iter().enumerate() {
            if let Some(&(_, mult)) = pat.entries.iter().find(|&&(s, _)| s == si) {
                terms.push((x[p], mult as f64));
            }
        }
        model.add_con(&terms, ctx.covering, sym.avail as f64);
        rows.push(MilpRow::Symbol(si));
    }

    // (3) per pair.
    for (i, pair) in pairs.iter().enumerate() {
        let terms: Vec<(VarId, f64)> =
            (0..np).filter_map(|p| y.get(&(i, p)).map(|&v| (v, 1.0))).collect();
        model.add_con(&terms, Relation::Eq, pair.jobs.len() as f64);
        rows.push(MilpRow::Other);
    }
    // (3') aggregate non-priority area.
    if w_nonprio > 0.0 {
        let terms: Vec<(VarId, f64)> = a.iter().map(|&v| (v, 1.0)).collect();
        model.add_con(&terms, Relation::Eq, w_nonprio);
        rows.push(MilpRow::Other);
    }

    // (4) per pattern.
    for (p, pat) in ps.patterns.iter().enumerate() {
        let budget = trans.t - pat.height;
        let mut terms: Vec<(VarId, f64)> = vec![(a[p], 1.0), (x[p], -budget)];
        for (i, pair) in pairs.iter().enumerate() {
            if let Some(&v) = y.get(&(i, p)) {
                terms.push((v, pair.size));
            }
        }
        model.add_con(&terms, Relation::Le, 0.0);
        rows.push(MilpRow::Other);
    }

    // (5) per (pattern, class with smalls): small jobs of the class are
    // capped by the member bags without a large slot on the machine.
    for &c in ctx.with_smalls {
        let rep = ctx.classes.rep(c);
        for (p, &xp) in x.iter().enumerate() {
            let free = ctx.free_cap(p, c);
            if free == 0 {
                continue;
            }
            let mut terms: Vec<(VarId, f64)> = vec![(xp, -(free as f64))];
            for (i, pair) in pairs.iter().enumerate() {
                if pair.tbag == rep {
                    if let Some(&v) = y.get(&(i, p)) {
                        terms.push((v, 1.0));
                    }
                }
            }
            if terms.len() > 1 {
                model.add_con(&terms, Relation::Le, 0.0);
                rows.push(MilpRow::Other);
            }
        }
    }

    let driver = tree
        .then(|| TreePriceDriver::new(&ps.symbols, ctx.classes, trans.t, cfg, rows, &ps.patterns));
    let (res, tree_patterns, tree_x, warm_out) =
        run_milp(&model, cfg, stats, driver, root_warm, cancel);
    record_milp(stats, &res);
    match res.status {
        MilpStatus::Optimal | MilpStatus::Feasible => {
            let mut xs: Vec<u32> = x.iter().map(|&v| res.x[v.0].round() as u32).collect();
            xs.extend(tree_x);
            let ys: HashMap<(usize, usize), f64> = y
                .into_iter()
                .filter_map(|(key, v)| {
                    let val = res.x[v.0];
                    (val > 1e-9).then_some((key, val))
                })
                .collect();
            let ext =
                (!tree_patterns.is_empty()).then(|| extend_patterns(ps.clone(), &tree_patterns));
            Ok((
                MilpOutcome {
                    x: xs,
                    y: ys,
                    pairs,
                    joint: true,
                    nodes: res.nodes,
                    lp_iterations: res.lp_iterations,
                },
                ext,
                warm_out,
            ))
        }
        MilpStatus::Infeasible => Err(GuessFailure::MilpInfeasible),
        // A budget stop under a tripped token is a cancellation, not a
        // verdict: the driver must not raise the search on it.
        MilpStatus::Budget | MilpStatus::Unbounded => {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                Err(GuessFailure::Cancelled)
            } else {
                Err(GuessFailure::MilpBudget)
            }
        }
    }
}

/// Two-stage path: x-MILP with aggregate cuts, then greedy fractional y.
///
/// This model is all-`x` rows, so tree-priced columns participate fully
/// (coverings, area cut, per-class cuts): small jobs *can* be realized on
/// their machines — the greedy `y` runs over the extended pattern set.
#[allow(clippy::too_many_arguments)]
fn solve_two_stage(
    trans: &Transformed,
    ps: &PatternSet,
    cfg: &EptasConfig,
    pairs: Vec<SmallPair>,
    w_nonprio: f64,
    ctx: &ClassCtx<'_>,
    stats: &mut Stats,
    tree: bool,
    root_warm: Option<&WarmState>,
    cancel: Option<&CancelToken>,
) -> Result<(MilpOutcome, Option<PatternSet>, Option<WarmState>), GuessFailure> {
    let m = trans.tinst.num_machines() as f64;
    let np = ps.patterns.len();
    let mut model = Model::new();
    model.set_refactor_interval(cfg.refactor_interval);
    let mut rows: Vec<MilpRow> = Vec::new();
    // Perturbed like the joint model: see the comment there.
    let x: Vec<VarId> = (0..np)
        .map(|p| model.add_int_var(if p == 0 { 0.0 } else { 1.0 + p as f64 * 1e-9 }, 0.0, m))
        .collect();

    let ones: Vec<(VarId, f64)> = x.iter().map(|&v| (v, 1.0)).collect();
    model.add_con(&ones, Relation::Le, m);
    rows.push(MilpRow::Machine);
    for (si, sym) in ps.symbols.iter().enumerate() {
        let mut terms = Vec::new();
        for (p, pat) in ps.patterns.iter().enumerate() {
            if let Some(&(_, mult)) = pat.entries.iter().find(|&&(s, _)| s == si) {
                terms.push((x[p], mult as f64));
            }
        }
        model.add_con(&terms, ctx.covering, sym.avail as f64);
        rows.push(MilpRow::Symbol(si));
    }

    // Aggregate area cut: all small jobs must fit above the patterns.
    let w_prio: f64 = pairs.iter().map(|p| p.size * p.jobs.len() as f64).sum();
    let area_terms: Vec<(VarId, f64)> =
        ps.patterns.iter().enumerate().map(|(p, pat)| (x[p], trans.t - pat.height)).collect();
    model.add_con(&area_terms, Relation::Ge, w_prio + w_nonprio);
    rows.push(MilpRow::AreaCut);

    // Per class with smalls: count and area cuts over the free member
    // capacity (singleton classes: chi = 0 patterns with weight 1).
    for &c in ctx.with_smalls {
        let rep = ctx.classes.rep(c);
        let count: f64 =
            pairs.iter().filter(|pr| pr.tbag == rep).map(|pr| pr.jobs.len() as f64).sum();
        let area: f64 =
            pairs.iter().filter(|pr| pr.tbag == rep).map(|pr| pr.size * pr.jobs.len() as f64).sum();
        let count_terms: Vec<(VarId, f64)> = (0..np)
            .filter(|&p| ctx.free_cap(p, c) > 0)
            .map(|p| (x[p], ctx.free_cap(p, c) as f64))
            .collect();
        model.add_con(&count_terms, Relation::Ge, count);
        rows.push(MilpRow::ClassCount(c));
        let area_terms: Vec<(VarId, f64)> = (0..np)
            .filter(|&p| ctx.free_cap(p, c) > 0)
            .map(|p| (x[p], trans.t - ps.patterns[p].height))
            .collect();
        model.add_con(&area_terms, Relation::Ge, area);
        rows.push(MilpRow::ClassArea(c));
    }

    let driver = tree
        .then(|| TreePriceDriver::new(&ps.symbols, ctx.classes, trans.t, cfg, rows, &ps.patterns));
    let (res, tree_patterns, tree_x, warm_out) =
        run_milp(&model, cfg, stats, driver, root_warm, cancel);
    record_milp(stats, &res);
    let xs: Vec<u32> = match res.status {
        MilpStatus::Optimal | MilpStatus::Feasible => {
            let mut xs: Vec<u32> = x.iter().map(|&v| res.x[v.0].round() as u32).collect();
            xs.extend(tree_x);
            xs
        }
        MilpStatus::Infeasible => return Err(GuessFailure::MilpInfeasible),
        MilpStatus::Budget | MilpStatus::Unbounded => {
            return Err(if cancel.is_some_and(CancelToken::is_cancelled) {
                GuessFailure::Cancelled
            } else {
                GuessFailure::MilpBudget
            });
        }
    };

    // The greedy `y` must see the same index space as `xs`: extend the
    // pattern set (and the per-pattern class table) with the tree
    // columns, once — the same extended set rides up to the caller.
    let ext = (!tree_patterns.is_empty()).then(|| extend_patterns(ps.clone(), &tree_patterns));
    let y = match &ext {
        None => greedy_small_y(trans, ps, &xs, &pairs, w_nonprio, ctx)?,
        Some(ext) => {
            let class_mult = class_mult_table(ext, ctx.classes);
            let ext_ctx = ClassCtx {
                classes: ctx.classes,
                class_mult: &class_mult,
                with_smalls: ctx.with_smalls,
                covering: ctx.covering,
            };
            greedy_small_y(trans, ext, &xs, &pairs, w_nonprio, &ext_ctx)?
        }
    };
    Ok((
        MilpOutcome {
            x: xs,
            y,
            pairs,
            joint: false,
            nodes: res.nodes,
            lp_iterations: res.lp_iterations,
        },
        ext,
        warm_out,
    ))
}

/// Greedy fractional y over a solved `x`: big pieces first, onto the
/// pattern with the most free area per machine, respecting the
/// per-(pattern, class) count cap `free_cap * x_p` and the area budgets;
/// non-priority area `w_nonprio` must still fit afterwards. Shared by the
/// two-stage path and the de-classer (which re-realizes the small jobs on
/// the concrete patterns).
pub(crate) fn greedy_small_y(
    trans: &Transformed,
    ps: &PatternSet,
    xs: &[u32],
    pairs: &[SmallPair],
    w_nonprio: f64,
    ctx: &ClassCtx<'_>,
) -> Result<HashMap<(usize, usize), f64>, GuessFailure> {
    let np = ps.patterns.len();
    let mut area_left: Vec<f64> = ps
        .patterns
        .iter()
        .enumerate()
        .map(|(p, pat)| xs[p] as f64 * (trans.t - pat.height))
        .collect();
    let mut class_cap: HashMap<(usize, usize), f64> = HashMap::new();
    for &c in ctx.with_smalls {
        for (p, &xp) in xs.iter().enumerate() {
            let free = ctx.free_cap(p, c);
            if free > 0 {
                class_cap.insert((c, p), free as f64 * xp as f64);
            }
        }
    }
    let mut y: HashMap<(usize, usize), f64> = HashMap::new();
    for (i, pair) in pairs.iter().enumerate() {
        let c = ctx.classes.of(pair.tbag).expect("pair reps are classed");
        let mut remaining = pair.jobs.len() as f64;
        while remaining > 1e-9 {
            // Pattern with maximal free area per machine among those with
            // cap and area left.
            let best = (0..np)
                .filter(|&p| xs[p] > 0 && ctx.free_cap(p, c) > 0)
                .filter(|&p| class_cap.get(&(c, p)).copied().unwrap_or(0.0) > 1e-9)
                .filter(|&p| area_left[p] > 1e-9)
                .max_by(|&a, &b| {
                    (area_left[a] / xs[a] as f64).total_cmp(&(area_left[b] / xs[b] as f64))
                });
            let Some(p) = best else {
                return Err(GuessFailure::SmallPlacement);
            };
            let cap = class_cap[&(c, p)];
            let by_area = area_left[p] / pair.size;
            let take = remaining.min(cap).min(by_area);
            if take <= 1e-9 {
                return Err(GuessFailure::SmallPlacement);
            }
            *y.entry((i, p)).or_insert(0.0) += take;
            area_left[p] -= take * pair.size;
            *class_cap.get_mut(&(c, p)).unwrap() -= take;
            remaining -= take;
        }
    }
    let total_area_left: f64 = area_left.iter().sum();
    if total_area_left + 1e-6 < w_nonprio {
        return Err(GuessFailure::SmallPlacement);
    }
    Ok(y)
}

/// Recover `eps^{k+1}` from the transformed instance's job classes.
fn medium_threshold_of(trans: &Transformed) -> f64 {
    // Smallest non-small rounded size is >= eps^{k+1}; in its absence use
    // T (the threshold is only used for the optional constraint (7)).
    (0..trans.tinst.num_jobs())
        .filter(|&j| trans.tclass[j] != JobClass::Small)
        .map(|j| trans.tinst.size(JobId(j as u32)))
        .fold(trans.t, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::pattern::enumerate_patterns;
    use crate::priority::select_priority;
    use crate::rounding::scale_and_round;
    use crate::transform::transform;
    use bagsched_types::Instance;

    fn pipeline(
        jobs: &[(f64, u32)],
        m: usize,
        cfg: &EptasConfig,
    ) -> (Transformed, PatternSet, Result<MilpOutcome, GuessFailure>) {
        let inst = Instance::new(jobs, m);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let r = scale_and_round(&sizes, 1.0, cfg.epsilon).unwrap();
        let c = classify(&r, m);
        let p = select_priority(&inst, &r, &c, cfg);
        let t = transform(&inst, &r, &c, &p);
        let ps = enumerate_patterns(&t, cfg.max_patterns).unwrap();
        let out = solve_with_patterns(&t, &ps, cfg, &mut Stats::default());
        (t, ps, out)
    }

    #[test]
    fn feasible_guess_covers_all_slots() {
        let cfg = EptasConfig::with_epsilon(0.5);
        let jobs = [(0.9, 0), (0.9, 1), (0.4, 2), (0.05, 0), (0.05, 3)];
        let (t, ps, out) = pipeline(&jobs, 3, &cfg);
        let out = out.expect("guess T covers this instance");
        assert!(out.joint, "small model must take the joint path");
        // (1): machines.
        let total: u32 = out.x.iter().sum();
        assert!(total as usize <= t.tinst.num_machines());
        // (2): every symbol exactly covered.
        for (si, sym) in ps.symbols.iter().enumerate() {
            let covered: u32 = ps
                .patterns
                .iter()
                .enumerate()
                .map(|(p, pat)| {
                    pat.entries
                        .iter()
                        .find(|&&(s, _)| s == si)
                        .map_or(0, |&(_, mult)| out.x[p] * mult as u32)
                })
                .sum();
            assert_eq!(covered, sym.avail, "symbol {si} mis-covered");
        }
        // (3): y sums to counts.
        for (i, pair) in out.pairs.iter().enumerate() {
            let sum: f64 = (0..ps.patterns.len()).filter_map(|p| out.y.get(&(i, p))).sum();
            assert!(
                (sum - pair.jobs.len() as f64).abs() < 1e-6,
                "pair {i}: y sums to {sum}, want {}",
                pair.jobs.len()
            );
        }
    }

    #[test]
    fn infeasible_guess_detected() {
        // Five unit jobs on two machines: each pattern holds at most two
        // slots of size ~1 (T = 2.25), so two machines cover at most four.
        let cfg = EptasConfig::with_epsilon(0.5);
        let jobs = [(1.0, 0), (1.0, 1), (1.0, 2), (1.0, 3), (1.0, 4)];
        let (_, _, out) = pipeline(&jobs, 2, &cfg);
        assert_eq!(out.unwrap_err(), GuessFailure::MilpInfeasible);
    }

    #[test]
    fn two_stage_path_triggers_on_tiny_budget() {
        let mut cfg = EptasConfig::with_epsilon(0.5);
        cfg.joint_col_budget = 1; // force the two-stage path
        let jobs = [(0.9, 0), (0.9, 1), (0.05, 0), (0.05, 1)];
        let (_, _, out) = pipeline(&jobs, 2, &cfg);
        let out = out.expect("two-stage path should also succeed here");
        assert!(!out.joint);
        // y still covers all priority small jobs.
        for (i, pair) in out.pairs.iter().enumerate() {
            let sum: f64 = out.y.iter().filter(|((pi, _), _)| *pi == i).map(|(_, &v)| v).sum();
            assert!((sum - pair.jobs.len() as f64).abs() < 1e-6);
        }
    }

    #[test]
    fn y_respects_chi_exclusion() {
        let cfg = EptasConfig::with_epsilon(0.5);
        // Priority bag 0 has a large job and small jobs: no y of bag 0 may
        // sit on a pattern containing bag 0's large slot.
        let jobs = [(0.9, 0), (0.05, 0), (0.05, 0), (0.9, 1)];
        let (_, ps, out) = pipeline(&jobs, 3, &cfg);
        let out = out.unwrap();
        for ((i, p), &v) in &out.y {
            if v > 1e-9 {
                assert!(
                    !ps.chi(*p, out.pairs[*i].tbag),
                    "y of bag {:?} placed on conflicting pattern {p}",
                    out.pairs[*i].tbag
                );
            }
        }
    }

    #[test]
    fn area_constraint_respected() {
        let cfg = EptasConfig::with_epsilon(0.5);
        let jobs = [(0.9, 0), (0.9, 1), (0.05, 2), (0.05, 3), (0.05, 4)];
        let (t, ps, out) = pipeline(&jobs, 2, &cfg);
        let out = out.unwrap();
        // Reconstruct per-pattern small load and check (4) in aggregate:
        // priority y-load must fit in the x-weighted free area.
        for p in 0..ps.patterns.len() {
            let yload: f64 = out
                .y
                .iter()
                .filter(|((_, pp), _)| *pp == p)
                .map(|((i, _), &v)| v * out.pairs[*i].size)
                .sum();
            let budget = out.x[p] as f64 * (t.t - ps.patterns[p].height);
            assert!(yload <= budget + 1e-6, "pattern {p}: {yload} > {budget}");
        }
    }

    #[test]
    fn small_pairs_extraction() {
        let cfg = EptasConfig::with_epsilon(0.5);
        let inst = Instance::new(&[(0.9, 0), (0.05, 0), (0.05, 0), (0.01, 0)], 2);
        let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
        let r = scale_and_round(&sizes, 1.0, 0.5).unwrap();
        let c = classify(&r, 2);
        let p = select_priority(&inst, &r, &c, &cfg);
        let t = transform(&inst, &r, &c, &p);
        let pairs = priority_small_pairs(&t);
        // Bag 0 is priority (has the only large job); two small sizes.
        let total_jobs: usize = pairs.iter().map(|p| p.jobs.len()).sum();
        assert_eq!(total_jobs, 3);
        // Sorted by size descending.
        for w in pairs.windows(2) {
            assert!(w[0].size >= w[1].size);
        }
    }
}
