//! `bnp-tight` and `place-wide`, timed: cold solves on a `Solver` without
//! a cache, then replays of the solver states those solves returned (the
//! exact-repeat path a cache hit takes), in several shard processes.

use crate::workload::{self, Case, Workload, EPSILON};
use crate::{geomean, median, metric, ms, shard, timed_setup, Outcome, Tally};
use bagsched_core::{EptasConfig, EptasResult, Solver, SolverState, Stats};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Share of the timed wall spent replaying; solving takes the rest. A
/// `place-wide` replay costs two thirds of its solve, so it gets a larger
/// share for enough replays of every case (about 50 a run); a `bnp-tight`
/// shard solves its case once or a few times, and replays lengthen that.
fn replay_share(w: Workload) -> f64 {
    match w {
        Workload::PlaceWide => 0.4,
        _ => 0.15,
    }
}

/// The timed cases, and the cases that are only solved and checked once.
pub fn cases(w: Workload, seed: u64) -> (Vec<Case>, Vec<Case>) {
    match w {
        Workload::BnpTight => {
            let (suite, fresh) = workload::bnp_tight(seed);
            (suite, vec![fresh])
        }
        Workload::PlaceWide => {
            let (suite, fresh) = workload::place_wide(seed);
            (suite, vec![fresh])
        }
        Workload::DaemonMix => unreachable!("daemon-mix is served, not solved in-process"),
    }
}

/// Deterministic counters of one pass over the cases: the `Stats` sums,
/// the guesses tried and the ratio geomean, as JSON numbers.
pub fn counters(stats: &Stats, guesses: u64, ratio_geomean: f64) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> =
        stats.named().iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    out.push(("guess.count".into(), guesses.to_string()));
    out.push(("ratio_geomean".into(), format!("{ratio_geomean:.12}")));
    out
}

/// Shard processes per run (see the `shard` module). On `bnp-tight` each
/// case is solved once a run, so each gets a process of its own and the
/// median over the cases is one over processes too.
fn shards(w: Workload) -> usize {
    match w {
        Workload::PlaceWide => 8,
        _ => 12,
    }
}

/// Untimed work at the start of each shard process. `bnp-tight` has
/// none: its solves take seconds each, and a warm-up solve would add a
/// fifth to the run.
fn shard_warmup(w: Workload) -> Duration {
    match w {
        Workload::PlaceWide => Duration::from_millis(500),
        _ => Duration::ZERO,
    }
}

/// Run the workload in its shard processes and merge what they measured:
/// per case, the median over the shards that timed it, then across the
/// cases.
pub fn run(w: Workload, seed: u64, seconds: Duration) -> Outcome {
    let merged = shard::run(w, seed, seconds, shards(w));
    let per_case = |pick: fn(&(f64, f64)) -> f64| -> Vec<f64> {
        merged.cases.iter().map(|c| median(&c.iter().map(pick).collect::<Vec<_>>())).collect()
    };
    let (case_solve, case_hit) = (per_case(|c| c.0), per_case(|c| c.1));
    let mean_solve = case_solve.iter().sum::<f64>() / case_solve.len() as f64;
    let mut metrics = vec![
        metric("setup_s", merged.setup_s(), "s"),
        metric("solve_p50_ms", median(&case_solve), "ms"),
        metric("solves_per_s", 1e3 / mean_solve, "1/s"),
        // Geometric mean over the cases: their replays cost from 1 to 4 ms
        // on `bnp-tight`, so a median jumps whenever two middle cases
        // swap places.
        metric("hit_ms", geomean(&case_hit), "ms"),
    ];
    // Quality over exactly one answer per case, so it is a function of
    // the seed alone; `valid_share` counts every answer checked.
    metrics.extend(merged.tally.quality_metrics(&merged.quality));
    metrics.push(metric("peak_rss_mb", merged.peak_rss_mb(), "MB"));
    let mut counters: Vec<(String, String)> =
        merged.counters.iter().map(|(k, v)| (k.clone(), v.to_string())).collect();
    counters.push(("ratio_geomean".into(), format!("{:.12}", merged.quality.ratio_geomean())));
    Outcome { counters: Some(counters), tally: merged.tally, metrics }
}

/// One shard process of [`run`], shard `k` of `n`: it times every case on
/// `place-wide`, and the cases `i` with `i % n == k` on `bnp-tight`,
/// whose suite is too slow to solve more than once a run. It counts the
/// first answers of those cases (and of the extra cases on the last
/// shard), so the merged counters cover each case once, and hands back
/// what it measured.
pub fn run_shard(w: Workload, seed: u64, seconds: Duration, k: usize, n: usize) -> ExitCode {
    let (((cases, extra), solver), setup_s) =
        timed_setup(shard::SETUP_REPS, shard::SETUP_TIME, || {
            (cases(w, seed), Solver::new(EptasConfig::with_epsilon(EPSILON)))
        });
    let owned = |i: usize| i % n == k;
    let timed: Vec<usize> =
        (0..cases.len()).filter(|&i| w == Workload::PlaceWide || owned(i)).collect();
    let mut tally = Tally::default();
    let mut solve_ms: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut hit_ms: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    // The state each case's latest cold solve returned; LPT answers leave
    // none.
    let mut states: Vec<Option<SolverState>> = (0..cases.len()).map(|_| None).collect();

    let start = Instant::now();
    // Warm-up: the timed cases until the warm-up time is spent. Their
    // answers are checked, their times dropped.
    let mut first_pass = Tally::default();
    let mut stats = Stats::default();
    let mut guesses = 0u64;
    let mut makespans = vec![f64::NAN; cases.len()];
    let mut count = |case: &Case, res: &EptasResult| {
        stats.add(&res.report.stats);
        guesses += res.report.guesses_tried as u64;
        first_pass.record(case, Ok(res.makespan));
    };
    for &i in timed.iter().cycle() {
        if start.elapsed() >= shard_warmup(w) {
            break;
        }
        solve_cold(&solver, &cases[i], &mut tally);
    }

    // Whole passes over the timed cases while another one fits in the
    // time, at least one.
    //
    // Replays are interleaved with the solves: after each solve, the
    // states solved so far are replayed round-robin until replays have
    // taken `replay_share` of the timed wall. So they sample the machine
    // over the whole run, as the solves do (its speed drifts by a fifth
    // within seconds), and a state is replayed between other states'
    // replays, not in a burst right after its own solve: the heap that
    // solve left made such a burst up to 70% slower or faster as a whole.
    let start = Instant::now();
    let mut pass = 0;
    let mut last_pass = Duration::ZERO;
    let mut replay_debt_ms = 0.0;
    let mut cursor = 0;
    let share = replay_share(w);
    while pass == 0 || start.elapsed() + last_pass <= seconds {
        let pass_start = Instant::now();
        for &i in &timed {
            let case = &cases[i];
            let Some((elapsed, res, state)) = solve_cold(&solver, case, &mut tally) else {
                continue;
            };
            solve_ms[i].push(ms(elapsed));
            makespans[i] = res.makespan;
            states[i] = state;
            if pass == 0 && owned(i) {
                count(case, &res);
            }
            replay_debt_ms += ms(elapsed) * share / (1.0 - share);
            while replay_debt_ms > 0.0 {
                let Some((j, state)) = (0..timed.len())
                    .map(|c| timed[(cursor + c) % timed.len()])
                    .find_map(|j| states[j].as_ref().map(|s| (j, s)))
                else {
                    break;
                };
                cursor = timed.iter().position(|&t| t == j).map_or(0, |p| p + 1);
                if let Some(t) = replay(&solver, &cases[j], state, makespans[j], &mut tally) {
                    hit_ms[j].push(t);
                    replay_debt_ms -= t;
                } else {
                    break;
                }
            }
        }
        pass += 1;
        last_pass = pass_start.elapsed();
    }
    let wall = start.elapsed();

    // The extra cases last: what a solve allocates shapes the heap the
    // next ones run in, and replays ran up to a fifth slower or faster
    // depending on which extra case had been solved first. So the timed
    // work runs in the same heap history for every seed.
    if k + 1 == n {
        for case in &extra {
            if let Some((elapsed, res, _)) = solve_cold(&solver, case, &mut tally) {
                eprintln!(
                    "perfbench:   {:<40} solve {:>9.2} ms (untimed)",
                    case.label,
                    ms(elapsed)
                );
                count(case, &res);
            }
        }
    }

    eprintln!(
        "perfbench: shard {k}/{n}: {pass} passes over {} cases and {} replays in {:.1} s",
        timed.len(),
        hit_ms.iter().map(Vec::len).sum::<usize>(),
        wall.as_secs_f64()
    );
    for &i in &timed {
        let (solve, hit) = (median(&solve_ms[i]), median(&hit_ms[i]));
        eprintln!(
            "perfbench:   {:<40} solve {solve:>9.2} ms  replay {hit:>7.3} ms",
            cases[i].label
        );
        shard::emit("case", format!("{i} {solve} {hit}"));
    }
    for (name, v) in stats.named() {
        shard::emit("counter", format!("{name} {v}"));
    }
    shard::emit("counter", format!("guess.count {guesses}"));
    shard::emit_common(setup_s, &tally, &first_pass);
    ExitCode::SUCCESS
}

/// One cold solve, timed and checked. Returns its wall, the result and the
/// state to replay, or `None` when the solve was refused.
fn solve_cold(
    solver: &Solver,
    case: &Case,
    tally: &mut Tally,
) -> Option<(Duration, EptasResult, Option<SolverState>)> {
    let t = Instant::now();
    let solved = solver.solve_session(black_box(&case.inst), None);
    let elapsed = t.elapsed();
    match solved {
        Ok((res, state)) => {
            tally.record(case, case.check(&res.schedule, res.makespan).map(|_| res.makespan));
            Some((elapsed, res, state))
        }
        Err(e) => {
            tally.record(case, Err(format!("{}: solve refused: {e}", case.label)));
            None
        }
    }
}

/// Replay `state`, timed, and check the answer: it must be a replay and
/// return the cold solve's makespan bit for bit. Returns the wall in ms of
/// a replay that passed.
fn replay(
    solver: &Solver,
    case: &Case,
    state: &SolverState,
    makespan: f64,
    tally: &mut Tally,
) -> Option<f64> {
    let t = Instant::now();
    let replayed = solver.solve_session(black_box(&case.inst), Some(state));
    let elapsed = ms(t.elapsed());
    let answer = match replayed {
        Ok((hit, _)) if !hit.report.replayed => {
            Err(format!("{}: state did not replay", case.label))
        }
        Ok((hit, _)) if hit.makespan.to_bits() != makespan.to_bits() => Err(format!(
            "{}: replay answered {} but the cold solve {makespan}",
            case.label, hit.makespan
        )),
        Ok((hit, _)) => case.check(&hit.schedule, hit.makespan).map(|_| hit.makespan),
        Err(e) => Err(format!("{}: replay refused: {e}", case.label)),
    };
    let passed = answer.is_ok();
    tally.record(case, answer);
    passed.then_some(elapsed)
}
