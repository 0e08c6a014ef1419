//! Regression pins for the branch-and-bound node warm starts (PR-5
//! tentpole): child-node LPs re-optimize from the parent basis via the
//! dual simplex instead of cold phase-1/phase-2 solves.
//!
//! Three claims are pinned:
//!
//! 1. **Work:** on the tight clustered witness the dual engine must cut
//!    the simplex+dual pivot total of the restricted MILP by a wide
//!    margin (measured ~2.7x on the winning guess, ~14x against the
//!    PR-4 enriched-pool baseline; the pin asserts ≥2x so scheduler and
//!    pool-composition noise cannot flake it), and the run-wide pivot
//!    total must drop too.
//! 2. **Coverage:** every node but a root warm-starts — down-branches
//!    that give a pattern variable its first upper bound included — so
//!    the cold node LPs never outnumber the branch-and-bound roots.
//! 3. **Semantics:** warm-starting changes the work, not the answers —
//!    verdicts and makespans must be byte-identical to the cold-node
//!    path across a seeded sweep of every generator family.

use bagsched::eptas::{obs, EptasConfig, EptasResult, Solver};
use bagsched::types::gen;

fn run(inst: &bagsched::types::Instance, dual: bool) -> EptasResult {
    let mut cfg = EptasConfig::with_epsilon(0.5);
    cfg.dual_simplex = dual;
    Solver::new(cfg).solve_instance(inst).unwrap()
}

#[test]
fn node_warm_starts_cut_restricted_milp_pivots() {
    let inst = gen::clustered(60, 20, 20, 5, 2);
    let warm = run(&inst, true);
    let cold = run(&inst, false);
    assert!(!warm.report.fell_back_to_lpt, "witness instance must take the priced path");

    // The dual engine must actually engage...
    let ws = &warm.report.stats;
    assert!(ws.node_warm_starts > 0, "no node LP warm-started");
    assert!(ws.dual_pivots > 0, "the dual engine never pivoted");
    assert_eq!(cold.report.stats.node_warm_starts, 0, "cold runs must not warm-start");
    assert_eq!(cold.report.stats.dual_pivots, 0, "cold runs must not dual-pivot");

    // ...and pay off: the restricted MILP of the winning guess (simplex +
    // dual pivots combined) at least halves, and the run-wide total drops.
    let wi = warm.report.last_success.as_ref().expect("warm run succeeded").lp_iterations;
    let ci = cold.report.last_success.as_ref().expect("cold run succeeded").lp_iterations;
    assert!(2 * wi <= ci, "restricted-MILP pivots {wi} (warm) not at least 2x below {ci} (cold)");
    assert!(
        ws.simplex_pivots < cold.report.stats.simplex_pivots,
        "total pivots {} (warm) not below {} (cold)",
        ws.simplex_pivots,
        cold.report.stats.simplex_pivots
    );
}

/// Cold node LPs are roots only: one `milp.bnb` span opens per
/// branch-and-bound solve, i.e. per root, and no branched node may fall
/// back to a cold solve. The witness branches down on pattern variables
/// bounded only below; an engine that rejected their first upper bound
/// solved 16 of its 90 nodes cold.
#[test]
fn cold_node_solves_do_not_exceed_bnb_roots() {
    let inst = gen::clustered(300, 100, 100, 5, 2);
    let rec = obs::Recorder::new();
    let warm = {
        let _g = rec.install("test");
        run(&inst, true)
    };
    assert!(!warm.report.fell_back_to_lpt, "witness instance must take the priced path");
    let roots = rec.profile().get("milp.bnb").map_or(0, |p| p.count);
    let s = &warm.report.stats;
    assert!(roots > 0, "the witness must reach branch-and-bound");
    assert!(s.milp_nodes > 10 * roots, "the witness must branch well below its roots");
    assert!(s.node_cold_solves > 0, "an unseeded root is solved cold");
    assert!(
        s.node_cold_solves <= roots,
        "{} cold node LPs over {roots} branch-and-bound roots",
        s.node_cold_solves
    );
}

/// Warm == cold, semantically: across every generator family and a
/// seeded sweep, the two paths must reach identical verdicts (LPT
/// fallback or not, same accepted guess) and byte-identical makespans.
/// The MILP objective perturbations make every node-LP optimum unique,
/// so the warm re-solve lands on the same vertex as the cold solve and
/// the search trees coincide.
#[test]
fn warm_and_cold_node_paths_agree_across_families() {
    for family in gen::Family::ALL {
        for seed in [5u64, 17] {
            let inst = family.generate(24, 3, seed);
            let warm = run(&inst, true);
            let cold = run(&inst, false);
            let name = family.name();
            assert_eq!(
                warm.report.fell_back_to_lpt, cold.report.fell_back_to_lpt,
                "{name}/{seed}: verdict diverged"
            );
            assert_eq!(
                warm.report.chosen_guess, cold.report.chosen_guess,
                "{name}/{seed}: accepted guess diverged"
            );
            assert_eq!(
                warm.makespan.to_bits(),
                cold.makespan.to_bits(),
                "{name}/{seed}: makespan diverged ({} vs {})",
                warm.makespan,
                cold.makespan
            );
        }
    }
}
