//! CI smoke for the sparse-revised-simplex scale unlock: the n=1600/m=533
//! tight clustered cell — 1061 per-bag symbols, 118 classes, full-mode
//! only in the experiment sweep — must solve via the MILP path under a
//! hard wall-clock ceiling. The dense tableau paid ~9.4s here; the
//! factorized basis with eta updates, with every branch-and-bound node
//! below the root warm-started by the dual engine, pays ~1.6s measured
//! (2-core x86-64 VM).
//!
//! The explicit `fell_back_to_lpt` / `lpt_fallbacks` assertions guard
//! the silent failure mode: a degradation to the LPT heuristic is *fast*,
//! so it would sail under any wall-clock ceiling. (The cold-node variant
//! of this cell — `dual_simplex` off — still exceeds the per-guess MILP
//! budget at this scale and is tracked by the full-mode `scaling-cold`
//! experiment cell instead, where its fallback count is strictly gated.)
//!
//! Debug builds skip the ceiling (opt-level 1 is ~10x slower) but still
//! run the cell and the fallback assertions.

use bagsched_core::{EptasConfig, Solver};
use bagsched_types::{gen, validate_schedule};
use std::time::Instant;

/// Solver threads the parallel variant asks for; clamped to the machine
/// so a 1-core CI box runs the same configuration single-threaded (the
/// parallel seams still engage — shards and speculation are part of the
/// *configuration*, threads only place their work).
const PAR_THREADS: usize = 4;

/// Release measured ~1.6s (~1.8s for the sharded variant) on a 2-core
/// VM; 5s still fails well short of the ~9.4s dense-tableau cost while
/// tolerating some CI-runner slowdown.
const RELEASE_CEILING_SECS: f64 = 5.0;

#[test]
fn n1600_tight_solves_via_milp_under_the_ceiling() {
    let inst = gen::clustered(1600, 533, 533, 5, 2);
    let cfg = EptasConfig::with_epsilon(0.5);
    let start = Instant::now();
    let r = Solver::new(cfg).solve_instance(&inst).unwrap();
    let elapsed = start.elapsed().as_secs_f64();

    validate_schedule(&inst, &r.schedule).unwrap();
    assert!(!r.report.fell_back_to_lpt, "n=1600 tight must solve via the MILP path, not LPT");
    assert_eq!(r.report.stats.lpt_fallbacks, 0, "n=1600 tight counted LPT fallbacks");
    assert!(
        r.report.stats.basis_refactorizations > 0 && r.report.stats.eta_updates > 0,
        "the factorized basis must be the engine doing the work"
    );
    if !cfg!(debug_assertions) {
        assert!(
            elapsed <= RELEASE_CEILING_SECS,
            "n=1600 tight took {elapsed:.2}s (ceiling {RELEASE_CEILING_SECS:.0}s)"
        );
    }
}

/// The same cell with the parallel solver seams on: sharded pricing DFS
/// plus speculative guess racing at up to [`PAR_THREADS`] threads. On a
/// machine with >= 4 cores the ceiling tightens to 3s and the run must
/// beat the sequential solve by >= 1.5x; on smaller machines (this is a
/// smoke, not a benchmark) the sequential comparison is skipped and the
/// 5s ceiling applies. Either way shard-parallel pricing must actually
/// engage — a silently-sequential "parallel" path would pass any clock.
#[test]
fn n1600_tight_parallel_engages_shards_and_meets_the_ceiling() {
    if cfg!(debug_assertions) {
        // Two more n=1600 solves are too slow for the debug suite; the
        // release CI bench-smoke job runs this test un-skipped.
        return;
    }
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = PAR_THREADS.min(avail);
    let inst = gen::clustered(1600, 533, 533, 5, 2);
    let mut cfg = EptasConfig::with_epsilon(0.5);
    cfg.pricing_shards = PAR_THREADS;
    cfg.speculative_guesses = PAR_THREADS;
    cfg.solver_threads = threads;
    let start = Instant::now();
    let r = Solver::new(cfg).solve_instance(&inst).unwrap();
    let elapsed = start.elapsed().as_secs_f64();

    validate_schedule(&inst, &r.schedule).unwrap();
    assert!(!r.report.fell_back_to_lpt, "parallel n=1600 tight must stay on the MILP path");
    assert_eq!(r.report.stats.lpt_fallbacks, 0, "parallel n=1600 tight counted LPT fallbacks");
    assert!(
        r.report.stats.pricing_shards_run > 0,
        "sharded pricing never engaged — the parallel seam is silently off"
    );

    if threads >= PAR_THREADS {
        // Real parallelism available: the tightened ceiling plus the
        // headline speedup claim against a 1-thread run of the *same*
        // sharded/speculative configuration (thread count is the only
        // variable; results are byte-identical by the determinism tier).
        const PAR_CEILING_SECS: f64 = 3.0;
        assert!(
            elapsed <= PAR_CEILING_SECS,
            "parallel n=1600 tight took {elapsed:.2}s (ceiling {PAR_CEILING_SECS:.0}s)"
        );
        let mut seq_cfg = EptasConfig::with_epsilon(0.5);
        seq_cfg.pricing_shards = PAR_THREADS;
        seq_cfg.speculative_guesses = PAR_THREADS;
        seq_cfg.solver_threads = 1;
        let seq_start = Instant::now();
        let seq = Solver::new(seq_cfg).solve_instance(&inst).unwrap();
        let seq_elapsed = seq_start.elapsed().as_secs_f64();
        assert_eq!(
            seq.schedule.assignment(),
            r.schedule.assignment(),
            "thread count changed the schedule"
        );
        assert_eq!(seq.makespan.to_bits(), r.makespan.to_bits());
        assert!(
            seq_elapsed >= 1.5 * elapsed,
            "expected >= 1.5x speedup at {threads} threads: {seq_elapsed:.2}s -> {elapsed:.2}s"
        );
    } else {
        assert!(
            elapsed <= RELEASE_CEILING_SECS,
            "parallel n=1600 tight took {elapsed:.2}s on {avail} core(s) \
             (ceiling {RELEASE_CEILING_SECS:.0}s)"
        );
    }
}
