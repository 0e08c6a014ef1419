//! Diagnostics and failure types shared by the pipeline phases.

use std::time::Duration;

/// Why a single makespan guess could not be turned into a schedule.
///
/// `Infeasible` proves the guess is below the achievable makespan (up to
/// the relaxations of the pipeline); the budget/heuristic variants are
/// inconclusive — the driver treats both as "raise the guess" and falls
/// back to the LPT schedule if even the largest guess fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuessFailure {
    /// A single job exceeds the guess: certainly infeasible.
    JobTooLarge,
    /// The pattern MILP is infeasible: no schedule of height `T` exists.
    MilpInfeasible,
    /// Pattern enumeration exceeded its budget (inconclusive).
    PatternBudget,
    /// The MILP solver exhausted its node/time budget (inconclusive).
    MilpBudget,
    /// The two-stage small-job placement could not realize the `y`
    /// assignment (inconclusive; the joint path would have been exact).
    SmallPlacement,
    /// The Lemma-7 swap repair found no partner (cannot happen at paper
    /// constants; possible under a forced small `priority_cap`).
    SwapRepair,
    /// The Lemma-3 flow could not place all medium jobs (inconclusive
    /// outside the paper's parameter regime).
    MediumFlow,
    /// The large-slot placement found a bag/supply mismatch between the
    /// de-classed MILP solution and the transformed instance
    /// (inconclusive; formerly a process-aborting panic).
    LargePlacement,
    /// The column-generation pricing loop stalled before converging and
    /// no fallback was requested (inconclusive; only the explicit
    /// pricing strategies report this — the auto path falls back to
    /// eager enumeration instead).
    PricingStalled,
    /// A cached replay seed did not match the instance it was replayed
    /// against — the fingerprint collided or the cached symbol space
    /// drifted. Inconclusive by construction: the caller falls back to
    /// the cold search, so a collision costs time, never correctness.
    SeedMismatch,
    /// The guess was cancelled cooperatively before reaching a verdict —
    /// by the portfolio deadline ([`portfolio_deadline_ms`]) or by the
    /// speculation controller abandoning an off-path probe. Inconclusive
    /// in a special way: unlike the budget variants the driver must
    /// *not* raise the search on it (the guess was never refuted, only
    /// interrupted), so a deadline cancellation stops the search and a
    /// speculative one is simply discarded.
    ///
    /// [`portfolio_deadline_ms`]: crate::EptasConfig::portfolio_deadline_ms
    Cancelled,
}

impl std::fmt::Display for GuessFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GuessFailure::JobTooLarge => "a job exceeds the makespan guess",
            GuessFailure::MilpInfeasible => "pattern MILP infeasible at this guess",
            GuessFailure::PatternBudget => "pattern enumeration budget exhausted",
            GuessFailure::MilpBudget => "MILP solver budget exhausted",
            GuessFailure::SmallPlacement => "two-stage small-job placement failed",
            GuessFailure::SwapRepair => "large-job swap repair found no partner",
            GuessFailure::MediumFlow => "medium-job reinsertion flow incomplete",
            GuessFailure::LargePlacement => "large-slot placement hit a bag/supply mismatch",
            GuessFailure::PricingStalled => "column-generation pricing stalled",
            GuessFailure::SeedMismatch => "cached replay seed does not match the instance",
            GuessFailure::Cancelled => "guess cancelled by the deadline or speculation controller",
        };
        f.write_str(s)
    }
}

/// Monotone work counters accumulated over an entire [`Eptas::solve`]
/// call — every guess of the binary search, *including failed ones* — so
/// that wall-clock deltas measured by the bench harness are attributable
/// to algorithmic work rather than noise. All counters only ever grow;
/// [`Stats::add`] merges the counters of several solves (the experiment
/// harness sums them per table).
///
/// [`Eptas::solve`]: crate::Eptas::solve
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Machine patterns enumerated by the Definition-3 DFS.
    pub patterns_enumerated: u64,
    /// Simplex pivots across every LP relaxation solved.
    pub simplex_pivots: u64,
    /// LP solves: one per branch-and-bound node *plus* one per master-LP
    /// re-solve inside the column-generation pricing loop — which is why
    /// this counter exceeds `milp_nodes` on priced instances.
    pub lp_solves: u64,
    /// Branch-and-bound nodes explored by the pattern MILP.
    pub milp_nodes: u64,
    /// Augmenting paths pushed by the Lemma-3 medium reinsertion flow.
    pub flow_augmentations: u64,
    /// Repair operations: Lemma-7 swaps + Lemma-11 origin-chain moves +
    /// Lemma-4 filler swaps.
    pub swap_repair_rounds: u64,
    /// Medium jobs re-inserted by the Lemma-3 flow.
    pub mediums_reinserted: u64,
    /// Pricing rounds (master-LP solve + pricing DFS) of the
    /// column-generation loop, terminal convergence checks included.
    pub pricing_rounds: u64,
    /// Pattern columns priced into the master by the pricing DFS (seed
    /// patterns count as `patterns_enumerated`).
    pub columns_generated: u64,
    /// Nodes explored by the bounded-knapsack pricing DFS.
    pub pricing_dfs_nodes: u64,
    /// Bag classes (identical-profile groups of priority bags) the
    /// pricing stack was keyed on, summed over guesses. Equals the
    /// priority-bag count when class aggregation is off.
    pub bag_classes: u64,
    /// Slot symbols after class aggregation — the master-LP covering
    /// rows actually carried — summed over guesses. The per-bag symbol
    /// count of the same instance is what the pre-aggregation master
    /// would have carried.
    pub symbols_after_aggregation: u64,
    /// Estimated pivots the warm-started master re-solves skipped: per
    /// warm re-solve, the last cold solve's pivot count minus the warm
    /// pivot count (floored at zero).
    pub warm_start_pivots_saved: u64,
    /// Dual-simplex pivots spent re-optimizing warm branch-and-bound
    /// node LPs (a subset of `simplex_pivots`): the actual cost of the
    /// branching bound changes, paid instead of cold node solves.
    pub dual_pivots: u64,
    /// Branch-and-bound node LPs that started from the parent basis via
    /// the dual engine instead of a cold phase-1/phase-2 solve. A
    /// savings-style counter: growth means warm starts engage more, and
    /// the bench growth gate exempts it.
    pub node_warm_starts: u64,
    /// Branch-and-bound node LPs solved cold: every root without a seed
    /// basis, plus any node whose inherited basis the dual engine could
    /// not absorb. With the dual engine on this stays close to the
    /// number of branch-and-bound roots; growth means warm starts were
    /// lost.
    pub node_cold_solves: u64,
    /// Pattern columns priced *inside* the branch-and-bound tree against
    /// node duals and grafted into the restricted MILP (distinct from
    /// `columns_generated`, which counts root master-LP pricing).
    pub tree_columns_generated: u64,
    /// Basis refactorizations of the revised simplex: eta-file rebuilds
    /// from the sparse basis columns (every `refactor_interval` pivots).
    pub basis_refactorizations: u64,
    /// Eta updates of the revised simplex: factorized basis changes, one
    /// per pivot between refactorizations.
    pub eta_updates: u64,
    /// Master columns physically purged from the model (nonbasic with
    /// reduced cost above the purge threshold for `PURGE_PATIENCE`
    /// consecutive re-solves).
    pub columns_purged: u64,
    /// Purged columns re-admitted because they priced negative under
    /// later master duals. A savings-style counter like
    /// `node_warm_starts`: growth means the lifecycle guard engages.
    pub columns_readmitted: u64,
    /// Solves that returned the LPT fallback schedule because every
    /// makespan guess failed. An *assertion* counter: the gate tolerates
    /// zero growth — any regression to the fallback on a previously
    /// solved cell is a failure, not noise.
    pub lpt_fallbacks: u64,
    /// Solves answered by replaying cached solver state (chosen guess +
    /// pattern pool + root basis) instead of the cold guess search. A
    /// savings-style counter like `node_warm_starts`: growth means the
    /// cross-request cache engages.
    pub cache_hits: u64,
    /// Solves that ran the cold guess search: no cached state for the
    /// instance fingerprint, or the replay attempt failed validation.
    pub cache_misses: u64,
    /// Cached solver states evicted by the LRU capacity bound.
    pub cache_evictions: u64,
    /// Pricing DFS shards run by sharded pricing rounds: each round with
    /// [`pricing_shards`] `> 1` adds the shard count. Zero on the
    /// classic single-DFS path. Deterministic for fixed knobs — the
    /// thread count executing the shards never changes it.
    ///
    /// [`pricing_shards`]: crate::EptasConfig::pricing_shards
    pub pricing_shards_run: u64,
    /// Guesses entered into a speculative binary-search window (the
    /// probed midpoint plus its predicted successors). Structural: the
    /// count depends only on the prediction-tree shape, never on which
    /// speculative probes actually got to run, so it is thread-count
    /// invariant. A savings-style counter — growth means speculation
    /// engaged.
    pub speculative_guesses_launched: u64,
    /// Speculative probes whose verdict was committed *beyond* the one
    /// the sequential search would have probed next — search steps the
    /// window resolved for free. Savings-style.
    pub speculative_wins: u64,
    /// Speculative probes abandoned because the committed verdict path
    /// turned away from them (launched − committed, per window).
    /// Structural and thread-count invariant, like
    /// [`speculative_guesses_launched`](Stats::speculative_guesses_launched).
    pub guesses_cancelled: u64,
    /// Solves where the portfolio deadline fired and the bag-aware-LPT
    /// arm beat every committed guess — the race was won by the
    /// fallback, not the EPTAS pipeline. Zero unless
    /// [`portfolio_deadline_ms`] is set.
    ///
    /// [`portfolio_deadline_ms`]: crate::EptasConfig::portfolio_deadline_ms
    pub portfolio_winner: u64,
    /// Coarse bag classes formed when the template-quantized attempt
    /// engaged ([`class_coarsening`]), summed over guesses. Zero when
    /// every guess was settled by the exact-class (or per-bag) path.
    ///
    /// [`class_coarsening`]: crate::EptasConfig::class_coarsening
    pub coarse_classes_formed: u64,
    /// Surplus jobs re-placed by the declass repair pass: member-bag
    /// jobs beyond the coarse representative's minimum that the
    /// class-level solution did not carry slots for.
    pub repair_jobs_moved: u64,
    /// Declass repair passes that could not place every surplus job and
    /// failed the guess loudly (the driver falls back per-guess; never
    /// a wrong schedule).
    pub repair_failures: u64,
    /// Cache misses answered by the similarity tier: the exact
    /// fingerprint missed but a coarse-fingerprint neighbour seeded the
    /// binary search's first probe with its chosen guess. A
    /// savings-style counter like `node_warm_starts`: growth means the
    /// near tier engages.
    pub cache_near_hits: u64,
}

impl Stats {
    /// Accumulate another solve's counters into this one.
    pub fn add(&mut self, other: &Stats) {
        self.patterns_enumerated += other.patterns_enumerated;
        self.simplex_pivots += other.simplex_pivots;
        self.lp_solves += other.lp_solves;
        self.milp_nodes += other.milp_nodes;
        self.flow_augmentations += other.flow_augmentations;
        self.swap_repair_rounds += other.swap_repair_rounds;
        self.mediums_reinserted += other.mediums_reinserted;
        self.pricing_rounds += other.pricing_rounds;
        self.columns_generated += other.columns_generated;
        self.pricing_dfs_nodes += other.pricing_dfs_nodes;
        self.bag_classes += other.bag_classes;
        self.symbols_after_aggregation += other.symbols_after_aggregation;
        self.warm_start_pivots_saved += other.warm_start_pivots_saved;
        self.dual_pivots += other.dual_pivots;
        self.node_warm_starts += other.node_warm_starts;
        self.node_cold_solves += other.node_cold_solves;
        self.tree_columns_generated += other.tree_columns_generated;
        self.basis_refactorizations += other.basis_refactorizations;
        self.eta_updates += other.eta_updates;
        self.columns_purged += other.columns_purged;
        self.columns_readmitted += other.columns_readmitted;
        self.lpt_fallbacks += other.lpt_fallbacks;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.pricing_shards_run += other.pricing_shards_run;
        self.speculative_guesses_launched += other.speculative_guesses_launched;
        self.speculative_wins += other.speculative_wins;
        self.guesses_cancelled += other.guesses_cancelled;
        self.portfolio_winner += other.portfolio_winner;
        self.coarse_classes_formed += other.coarse_classes_formed;
        self.repair_jobs_moved += other.repair_jobs_moved;
        self.repair_failures += other.repair_failures;
        self.cache_near_hits += other.cache_near_hits;
    }

    /// The counters as `(name, value)` pairs, in schema order. The bench
    /// JSON emitter and the CLI both render from this single source so the
    /// on-disk schema cannot drift from the struct.
    pub fn named(&self) -> [(&'static str, u64); 34] {
        [
            ("patterns_enumerated", self.patterns_enumerated),
            ("simplex_pivots", self.simplex_pivots),
            ("lp_solves", self.lp_solves),
            ("milp_nodes", self.milp_nodes),
            ("flow_augmentations", self.flow_augmentations),
            ("swap_repair_rounds", self.swap_repair_rounds),
            ("mediums_reinserted", self.mediums_reinserted),
            ("pricing_rounds", self.pricing_rounds),
            ("columns_generated", self.columns_generated),
            ("pricing_dfs_nodes", self.pricing_dfs_nodes),
            ("bag_classes", self.bag_classes),
            ("symbols_after_aggregation", self.symbols_after_aggregation),
            ("warm_start_pivots_saved", self.warm_start_pivots_saved),
            ("dual_pivots", self.dual_pivots),
            ("node_warm_starts", self.node_warm_starts),
            ("node_cold_solves", self.node_cold_solves),
            ("tree_columns_generated", self.tree_columns_generated),
            ("basis_refactorizations", self.basis_refactorizations),
            ("eta_updates", self.eta_updates),
            ("columns_purged", self.columns_purged),
            ("columns_readmitted", self.columns_readmitted),
            ("lpt_fallbacks", self.lpt_fallbacks),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_evictions", self.cache_evictions),
            ("pricing_shards_run", self.pricing_shards_run),
            ("speculative_guesses_launched", self.speculative_guesses_launched),
            ("speculative_wins", self.speculative_wins),
            ("guesses_cancelled", self.guesses_cancelled),
            ("portfolio_winner", self.portfolio_winner),
            ("coarse_classes_formed", self.coarse_classes_formed),
            ("repair_jobs_moved", self.repair_jobs_moved),
            ("repair_failures", self.repair_failures),
            ("cache_near_hits", self.cache_near_hits),
        ]
    }
}

/// Per-run diagnostics of the EPTAS, consumed by the experiment harness
/// and the ablation benches.
#[derive(Debug, Clone, Default)]
pub struct EptasReport {
    /// Makespan guesses attempted by the binary search.
    pub guesses_tried: usize,
    /// The accepted guess `T0` (unscaled), if any guess succeeded.
    pub chosen_guess: Option<f64>,
    /// Certified lower bound used to seed the search.
    pub lower_bound: f64,
    /// Makespan of the LPT schedule that seeds the upper bound.
    pub lpt_upper_bound: f64,
    /// Statistics of the successful guess (if any).
    pub last_success: Option<GuessStats>,
    /// Failures per guess, in trial order.
    pub failures: Vec<(f64, GuessFailure)>,
    /// `true` when no guess succeeded and the LPT schedule was returned.
    pub fell_back_to_lpt: bool,
    /// Conflicts resolved by the *final safety net* (moving a job to the
    /// least-loaded conflict-free machine). Zero on the paper path; any
    /// positive value means a phase left a conflict behind.
    pub safety_net_moves: usize,
    /// Aggregate work counters across every guess (failed ones included).
    pub stats: Stats,
    /// `true` when the schedule came from replaying cached solver state
    /// (see [`Solver::solve_session`](crate::Solver::solve_session))
    /// instead of the cold binary search.
    pub replayed: bool,
    /// Total wall-clock of the solve.
    pub elapsed: Duration,
    /// Aggregated phase timings for this solve, present only when the
    /// caller installed an [`obs::Recorder`](bagsched_types::obs::Recorder)
    /// around it. Wall times in here are nondeterministic (they are
    /// redacted wherever reports are byte-compared, like
    /// [`elapsed`](EptasReport::elapsed)); the per-phase *counts* are
    /// structural and thread-count invariant.
    pub profile: Option<bagsched_types::obs::PhaseProfile>,
}

/// Statistics of one successful guess.
#[derive(Debug, Clone, Default)]
pub struct GuessStats {
    /// Number of enumerated patterns.
    pub patterns: usize,
    /// Number of slot symbols.
    pub symbols: usize,
    /// Number of priority bags (transformed instance).
    pub priority_bags: usize,
    /// Whether the joint (paper-faithful) MILP was used, as opposed to
    /// the two-stage x-MILP + greedy-y path.
    pub joint_milp: bool,
    /// Branch-and-bound nodes of the MILP solve.
    pub milp_nodes: usize,
    /// Simplex iterations of the MILP solve.
    pub lp_iterations: usize,
    /// Lemma-7 swaps performed while placing wildcard large jobs.
    pub lemma7_swaps: usize,
    /// Lemma-11 origin-chain moves while repairing small-job conflicts.
    pub lemma11_moves: usize,
    /// Lemma-4 filler swaps while undoing the transformation.
    pub lemma4_swaps: usize,
    /// Medium jobs re-inserted by the Lemma-3 flow.
    pub medium_reinserted: usize,
    /// Filler jobs that existed in the transformed instance.
    pub filler_jobs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_display() {
        assert!(GuessFailure::MilpInfeasible.to_string().contains("MILP"));
        assert!(GuessFailure::JobTooLarge.to_string().contains("guess"));
    }

    #[test]
    fn default_report_is_clean() {
        let r = EptasReport::default();
        assert_eq!(r.safety_net_moves, 0);
        assert!(!r.fell_back_to_lpt);
        assert!(r.last_success.is_none());
        assert_eq!(r.stats, Stats::default());
    }

    #[test]
    fn stats_add_is_fieldwise() {
        let mut a = Stats {
            patterns_enumerated: 1,
            simplex_pivots: 2,
            lp_solves: 3,
            milp_nodes: 4,
            flow_augmentations: 5,
            swap_repair_rounds: 6,
            mediums_reinserted: 7,
            pricing_rounds: 8,
            columns_generated: 9,
            pricing_dfs_nodes: 10,
            bag_classes: 11,
            symbols_after_aggregation: 12,
            warm_start_pivots_saved: 13,
            dual_pivots: 14,
            node_warm_starts: 15,
            node_cold_solves: 34,
            tree_columns_generated: 16,
            basis_refactorizations: 17,
            eta_updates: 18,
            columns_purged: 19,
            columns_readmitted: 20,
            lpt_fallbacks: 21,
            cache_hits: 22,
            cache_misses: 23,
            cache_evictions: 24,
            pricing_shards_run: 25,
            speculative_guesses_launched: 26,
            speculative_wins: 27,
            guesses_cancelled: 28,
            portfolio_winner: 29,
            coarse_classes_formed: 30,
            repair_jobs_moved: 31,
            repair_failures: 32,
            cache_near_hits: 33,
        };
        let b = a;
        a.add(&b);
        for ((_, doubled), (_, orig)) in a.named().iter().zip(b.named().iter()) {
            assert_eq!(*doubled, 2 * orig);
        }
    }

    #[test]
    fn named_covers_every_field() {
        // `named()` drives the bench JSON schema; a field added to Stats
        // without a `named()` entry would silently vanish from reports.
        // Debug-print the struct and check each field name appears.
        let dbg = format!("{:?}", Stats::default());
        for (name, _) in Stats::default().named() {
            assert!(dbg.contains(name), "named() and Stats disagree on {name}");
        }
        let field_count = dbg.matches(':').count();
        assert_eq!(field_count, Stats::default().named().len());
    }
}
