//! The traced run (`--trace 1`): per-layer attribution for every workload.
//!
//! For a fixed number of the workload's instances it
//! 1. solves each cold and untraced (deterministic counters, the chosen
//!    guess, guess statistics);
//! 2. reruns the chosen guess through the public pipeline functions in
//!    the order the solver calls them, once untraced and once traced, alternating
//!    which goes first. The traced rerun records the benchmark's own span
//!    around each layer call and installs the program's `obs::Recorder`
//!    for the phases inside the pattern solve (`milp.*`, `pricing.*`,
//!    `declass`). The difference of the two walls is the tracing
//!    overhead;
//! 3. times the wire codec and fingerprints on the instances' requests;
//! 4. serves requests through an in-process daemon for the cache, server
//!    and client-overhead layers: `daemon-mix` replays its own request
//!    stream, the solver workloads send their instances with a zero
//!    deadline, so the daemon answers through its cheapest path.
//!
//! Spans are kept in memory and written to `.bench_out/` at the end.

use crate::daemon::{self, Daemon, Kind};
use crate::solve;
use crate::workload::{Case, Workload, EPSILON};
use crate::{median, metric, ms, Metric, Outcome, Tally, OUT_DIR};
use bagsched_baselines::bag_aware_lpt;
use bagsched_core::assign_large::{assign_large, WorkState};
use bagsched_core::classify::classify;
use bagsched_core::medium_flow::reinsert_medium;
use bagsched_core::obs::Recorder;
use bagsched_core::priority::select_priority;
use bagsched_core::rounding::scale_and_round;
use bagsched_core::small::{
    place_nonpriority_smalls, place_priority_smalls, repair_priority_conflicts,
};
use bagsched_core::swap_repair::repair_conflicts;
use bagsched_core::transform::transform;
use bagsched_core::undo::undo_transform;
use bagsched_core::{EptasConfig, PatternSolve, Solver, Stats};
use bagsched_server::protocol::{decode, encode};
use bagsched_server::Request;
use bagsched_types::lowerbound::lower_bounds;
use bagsched_types::{coarse_fingerprint, fingerprint, CacheTag, Schedule, SolveRequest};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Instances traced per workload: enough for stable shares, few enough
/// that the run ends in well under a minute.
fn traced_cases(w: Workload) -> usize {
    match w {
        Workload::BnpTight => 4,
        Workload::PlaceWide => 8,
        Workload::DaemonMix => 8,
    }
}

/// Requests per client of `daemon-mix`'s traced stream.
const TRACE_STREAM: usize = 120;

/// Repetitions of each wire operation; the median is reported.
const WIRE_REPS: usize = 5;

/// The layers the benchmark wraps, in pipeline order, plus the phases the
/// program's recorder reports from inside `patterns`.
const OWN_LAYERS: [&str; 8] = [
    "lowerbound",
    "lpt",
    "transform",
    "patterns",
    "place.large",
    "place.small",
    "place.medium_flow",
    "place.undo",
];
const INNER_LAYERS: [&str; 10] = [
    "milp.simplex",
    "milp.simplex.warm",
    "milp.presolve",
    "milp.dual",
    "milp.bnb",
    "pricing.master_lp",
    "pricing.dfs",
    "pricing.tree",
    "declass",
    "declass.repair",
];

/// One recorded span: the benchmark's own, around one layer call.
struct SpanRec {
    name: &'static str,
    /// Instance (or request) the span belongs to.
    id: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Time covered by the program's own phase spans inside this one.
    inner_ns: u64,
}

/// In-memory span recorder. Disabled, it records nothing and reads no
/// clock, so the untraced rerun runs the same code.
struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer { enabled, epoch, spans: Vec::new(), open: Vec::new() }
    }

    fn enter(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            inner_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Self time per span: its duration minus what its child spans and
    /// the program's phases inside it cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> =
            self.spans.iter().map(|s| s.end_ns - s.start_ns - s.inner_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".into(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"id\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"inner_ns\": {}}}{}",
                s.name,
                s.id,
                s.start_ns,
                s.end_ns,
                s.inner_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}

/// Rerun guess `t0` of the solver's pipeline on `case`, layer by layer:
/// bounds, then transform, pattern solve and the four placement layers.
/// Returns the schedule and the guess's work counters.
fn rerun(
    case: &Case,
    cfg: &EptasConfig,
    t0: f64,
    id: u64,
    tr: &mut Tracer,
    rec: Option<&Recorder>,
) -> Result<(Schedule, Stats), String> {
    let inst = &case.inst;
    let fail =
        |what: &str, e: &dyn std::fmt::Debug| format!("{}: rerun {what} failed: {e:?}", case.label);
    let mut stats = Stats::default();
    tr.enter("solve", id);
    tr.enter("lowerbound", id);
    black_box(lower_bounds(black_box(inst)).combined());
    tr.exit();
    tr.enter("lpt", id);
    black_box(bag_aware_lpt(black_box(inst)).map_err(|e| fail("lpt", &e))?);
    tr.exit();

    tr.enter("guess", id);
    tr.enter("transform", id);
    let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
    let rounded = scale_and_round(&sizes, t0, cfg.epsilon)
        .ok_or_else(|| fail("rounding", &"job too large"))?;
    let class = classify(&rounded, inst.num_machines());
    let priority = select_priority(inst, &rounded, &class, cfg);
    let trans = transform(inst, &rounded, &class, &priority);
    tr.exit();

    tr.enter("patterns", id);
    let cursor = rec.map(|r| r.cursor());
    let sol =
        PatternSolve::new(&trans, cfg).run(&mut stats).map_err(|e| fail("pattern solve", &e))?;
    if let (Some(r), Some(c)) = (rec, cursor) {
        let inner: u64 = r.profile_since(&c).phases.iter().map(|p| p.self_ns).sum();
        let i = *tr.open.last().expect("inside the patterns span");
        tr.spans[i].inner_ns = inner;
    }
    tr.exit();
    let (ps, out) = (sol.patterns, sol.outcome);

    let mut state = WorkState::new(trans.tinst.num_jobs(), inst.num_machines());
    tr.enter("place.large", id);
    let la =
        assign_large(&trans, &ps, &out.x, &mut state).map_err(|e| fail("large placement", &e))?;
    repair_conflicts(&trans, &mut state, &la.conflicts, &mut stats)
        .map_err(|e| fail("swap repair", &e))?;
    tr.exit();
    tr.enter("place.small", id);
    place_priority_smalls(&trans, &ps, &out, &la.machine_pattern, &mut state);
    place_nonpriority_smalls(&trans, cfg.epsilon, &mut state);
    repair_priority_conflicts(&trans, &la.origin, &mut state);
    tr.exit();
    tr.enter("place.medium_flow", id);
    let mediums = reinsert_medium(inst, &trans, &rounded, &mut state, &mut stats)
        .map_err(|e| fail("medium flow", &e))?;
    tr.exit();
    tr.enter("place.undo", id);
    let (schedule, _) =
        undo_transform(inst, &trans, &state, &mediums).map_err(|e| fail("undo", &e))?;
    tr.exit();
    tr.exit(); // guess
    tr.exit(); // solve
    Ok((schedule, stats))
}

/// Sums over the traced instances.
#[derive(Default)]
struct Attribution {
    /// Self time per layer, nanoseconds.
    self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration of the traced `solve` spans.
    traced_ns: u64,
    /// Summed walls of the traced and untraced reruns.
    traced_wall_ns: u64,
    untraced_wall_ns: u64,
    instances: u64,
    kjobs: f64,
    /// Work counters of the traced reruns (the bases of the rates).
    rerun: Stats,
    /// Work counters of the full cold solves.
    full: Stats,
    guesses: u64,
    guess_successes: u64,
}

fn pipeline(
    cases: &[&Case],
    tally: &mut Tally,
    spans: &mut Tracer,
    epoch: Instant,
) -> (Attribution, Option<Vec<(String, String)>>) {
    let cfg = EptasConfig::with_epsilon(EPSILON);
    let solver = Solver::new(cfg.clone());
    let mut att = Attribution::default();
    let mut answers = Tally::default();
    for (k, case) in cases.iter().enumerate() {
        let id = k as u64;
        let res = match solver.solve_instance(&case.inst) {
            Ok(r) => r,
            Err(e) => {
                tally.record(case, Err(format!("{}: solve refused: {e}", case.label)));
                continue;
            }
        };
        let answer = case.check(&res.schedule, res.makespan).map(|_| res.makespan);
        answers.record(case, answer.clone());
        tally.record(case, answer);
        att.full.add(&res.report.stats);
        att.guesses += res.report.guesses_tried as u64;
        att.guess_successes += (res.report.guesses_tried - res.report.failures.len()) as u64;
        // A guess to rerun exists when the binary search ran and a guess
        // succeeded; the solver may still have answered with LPT's
        // schedule, which is no worse.
        if res.report.guesses_tried == 0 || res.report.fell_back_to_lpt {
            continue;
        }
        let Some(t0) = res.report.chosen_guess else { continue };

        let mut plain = Tracer::new(false, epoch);
        let mut traced = Tracer::new(true, epoch);
        let rec = Recorder::new();
        let (mut traced_wall, mut untraced_wall) = (0, 0);
        let mut results = Vec::new();
        for traced_turn in [k % 2 == 1, k % 2 == 0] {
            let t = Instant::now();
            let out = if traced_turn {
                let _g = rec.install("perfbench");
                rerun(case, &cfg, t0, id, &mut traced, Some(&rec))
            } else {
                rerun(case, &cfg, t0, id, &mut plain, None)
            };
            let wall = t.elapsed().as_nanos() as u64;
            *(if traced_turn { &mut traced_wall } else { &mut untraced_wall }) = wall;
            results.push(out);
        }
        let mut failed = false;
        let mut rerun_stats = Stats::default();
        for out in results {
            let checked = out.and_then(|(schedule, stats)| {
                let makespan = schedule.makespan(&case.inst);
                case.check_feasible(&schedule, makespan)?;
                // The solve answered min(pipeline, LPT).
                let lpt_won = res.makespan.to_bits() == res.report.lpt_upper_bound.to_bits();
                if makespan < res.makespan
                    || (!lpt_won && makespan.to_bits() != res.makespan.to_bits())
                {
                    return Err(format!(
                        "{}: rerun of the chosen guess gave {makespan}, the solve {}",
                        case.label, res.makespan
                    ));
                }
                Ok(stats)
            });
            match checked {
                Ok(stats) => rerun_stats = stats, // identical for both reruns
                Err(_) => failed = true,
            }
            tally.record_check(checked.map(|_| ()));
        }
        if failed {
            continue;
        }
        att.rerun.add(&rerun_stats);
        att.instances += 1;
        att.kjobs += case.inst.num_jobs() as f64 / 1e3;
        att.traced_wall_ns += traced_wall;
        att.untraced_wall_ns += untraced_wall;
        let self_ns = traced.self_ns();
        for (s, own) in traced.spans.iter().zip(&self_ns) {
            *att.self_ns.entry(s.name).or_default() += own;
            if s.name == "solve" {
                att.traced_ns += s.end_ns - s.start_ns;
            }
        }
        for p in rec.profile().phases {
            let name = INNER_LAYERS.iter().find(|&&n| n == p.name).copied().unwrap_or("other");
            *att.self_ns.entry(name).or_default() += p.self_ns;
        }
        let offset = spans.spans.len();
        spans.spans.extend(traced.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    let counters = Some(solve::counters(&att.full, att.guesses, answers.ratio_geomean()));
    (att, counters)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn attribution_metrics(att: &Attribution) -> Vec<Metric> {
    let self_ms = |name: &str| att.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let named: u64 = att
        .self_ns
        .iter()
        .filter(|(n, _)| OWN_LAYERS.contains(n) || INNER_LAYERS.contains(n))
        .map(|(_, v)| v)
        .sum();
    let largest = OWN_LAYERS
        .iter()
        .chain(&INNER_LAYERS)
        .max_by_key(|n| att.self_ns.get(*n).copied().unwrap_or(0));
    eprintln!("perfbench: largest layer by self time: {}", largest.unwrap_or(&"none"));

    let mut m = vec![
        metric("trace.instances", att.instances as f64, "count"),
        metric("trace.wall_ms", att.traced_ns as f64 / 1e6, "ms"),
        metric(
            "trace.overhead_ms",
            (att.traced_wall_ns as f64 - att.untraced_wall_ns as f64) / 1e6,
            "ms",
        ),
        metric("trace.attributed_share", ratio(named, att.traced_ns), "ratio"),
    ];
    for layer in OWN_LAYERS {
        m.push(metric(format!("{layer}.self_ms"), self_ms(layer), "ms"));
    }
    // Phases inside the pattern solve, each folded with the sub-phase
    // that only some workloads reach, so every reported time is measured
    // on every workload. De-classing runs only where bag classes are
    // aggregated (`bnp-tight`), so it is reported as a share of the
    // traced wall instead of a time that would read 0 elsewhere.
    let inner_ms = |names: &[&str]| names.iter().map(|n| self_ms(n)).sum::<f64>();
    m.extend([
        metric("milp.simplex.self_ms", inner_ms(&["milp.simplex", "milp.simplex.warm"]), "ms"),
        metric("milp.dual.self_ms", inner_ms(&["milp.dual"]), "ms"),
        metric("milp.bnb.self_ms", inner_ms(&["milp.bnb", "milp.presolve"]), "ms"),
        metric("pricing.master_lp.self_ms", inner_ms(&["pricing.master_lp"]), "ms"),
        metric("pricing.dfs.self_ms", inner_ms(&["pricing.dfs", "pricing.tree"]), "ms"),
        metric(
            "declass.share",
            if att.traced_ns > 0 {
                inner_ms(&["declass", "declass.repair"]) * 1e6 / att.traced_ns as f64
            } else {
                0.0
            },
            "ratio",
        ),
    ]);

    let simplex_ns = att.self_ns.get("milp.simplex").copied().unwrap_or(0)
        + att.self_ns.get("milp.simplex.warm").copied().unwrap_or(0);
    let dfs_ns = att.self_ns.get("pricing.dfs").copied().unwrap_or(0)
        + att.self_ns.get("pricing.tree").copied().unwrap_or(0);
    let place_ns: u64 = ["place.large", "place.small", "place.medium_flow", "place.undo"]
        .iter()
        .map(|n| att.self_ns.get(n).copied().unwrap_or(0))
        .sum();
    let (r, f) = (&att.rerun, &att.full);
    m.extend([
        metric("milp.ns_per_pivot", ratio(simplex_ns, r.simplex_pivots), "ns"),
        metric("milp.traced_pivots", r.simplex_pivots as f64, "count"),
        metric("pricing.ns_per_dfs_node", ratio(dfs_ns, r.pricing_dfs_nodes), "ns"),
        metric("pricing.traced_dfs_nodes", r.pricing_dfs_nodes as f64, "count"),
        metric(
            "place.us_per_kjob",
            if att.kjobs > 0.0 { place_ns as f64 / 1e3 / att.kjobs } else { 0.0 },
            "us",
        ),
        metric("place.traced_kjobs", att.kjobs, "count"),
        metric("guess.count", att.guesses as f64, "count"),
        metric("guess.useful_ratio", ratio(att.guess_successes, att.guesses), "ratio"),
        metric("milp.pivots", f.simplex_pivots as f64, "count"),
        metric("milp.dual_pivots", f.dual_pivots as f64, "count"),
        metric("milp.nodes", f.milp_nodes as f64, "count"),
        metric("milp.refactorizations", f.basis_refactorizations as f64, "count"),
        metric("milp.warm_ratio", ratio(f.node_warm_starts, f.milp_nodes), "ratio"),
        metric("pricing.rounds", f.pricing_rounds as f64, "count"),
        metric("pricing.column_yield", ratio(f.columns_generated, f.pricing_rounds), "ratio"),
        metric("pricing.dfs_nodes", f.pricing_dfs_nodes as f64, "count"),
        metric("flow.augmentations", f.flow_augmentations as f64, "count"),
        metric("repair.swaps", f.swap_repair_rounds as f64, "count"),
    ]);
    m
}

/// Median time of `op` over `WIRE_REPS` repetitions, microseconds.
fn time_us(mut op: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..WIRE_REPS)
        .map(|_| {
            let t = Instant::now();
            op();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// Codec and fingerprint cost per request, medians over the requests.
fn wire_metrics(requests: &[SolveRequest]) -> Vec<Metric> {
    let (mut enc, mut dec, mut fp) = (Vec::new(), Vec::new(), Vec::new());
    for req in requests {
        let frame = Request::Solve(req.clone());
        let bytes = encode(&frame);
        enc.push(time_us(|| {
            black_box(encode(black_box(&frame)));
        }));
        dec.push(time_us(|| {
            black_box(decode::<Request>(black_box(&bytes)).expect("own encoding decodes"));
        }));
        fp.push(time_us(|| {
            black_box(fingerprint(black_box(&req.instance), req.epsilon));
            black_box(coarse_fingerprint(black_box(&req.instance), req.epsilon));
        }));
    }
    vec![
        metric("wire.requests", requests.len() as f64, "count"),
        metric("wire.encode_us", median(&enc), "us"),
        metric("wire.decode_us", median(&dec), "us"),
        metric("wire.fingerprint_us", median(&fp), "us"),
    ]
}

/// Cache, server and client-overhead metrics from a served stream, given
/// as (client latency, the response's `elapsed_us`) pairs in microseconds.
/// The service time is the median `elapsed_us`: the values the stats
/// op's solve histogram records, without its power-of-two buckets.
fn serving_metrics(stats: &bagsched_server::StatsReply, timings: &[(f64, f64)]) -> Vec<Metric> {
    let solves = stats.cache_hits + stats.cache_misses;
    let service: Vec<f64> = timings.iter().map(|&(_, server)| server).collect();
    let overhead: Vec<f64> = timings.iter().map(|&(client, server)| client - server).collect();
    vec![
        metric("cache.requests", solves as f64, "count"),
        metric("cache.hit_ratio", ratio(stats.cache_hits, solves), "ratio"),
        metric("cache.near_ratio", ratio(stats.near_hits, solves), "ratio"),
        metric("cache.evictions", stats.cache_evictions as f64, "count"),
        metric("cache.coalesced_waits", stats.coalesced_waits as f64, "count"),
        metric("server.service_p50_us", median(&service), "us"),
        metric("client.overhead_p50_us", median(&overhead), "us"),
    ]
}

pub fn run(w: Workload, seed: u64) -> Outcome {
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let mut spans = Tracer::new(true, epoch);
    let count = traced_cases(w);

    let (att, counters, wire, serving) = if w == Workload::DaemonMix {
        let plans = daemon::plan(seed, TRACE_STREAM);
        // The hot shapes, in first-request order.
        let mut hot: Vec<(usize, Arc<Case>)> = Vec::new();
        for p in plans.iter().flatten() {
            if let Kind::Hot(h) = p.kind {
                if !hot.iter().any(|(k, _)| *k == h) {
                    hot.push((h, Arc::clone(&p.case)));
                }
            }
        }
        let cases: Vec<&Case> = hot.iter().take(count).map(|(_, c)| c.as_ref()).collect();
        let (att, counters) = pipeline(&cases, &mut tally, &mut spans, epoch);
        let requests: Vec<SolveRequest> =
            plans.iter().flatten().map(|p| p.request.clone()).collect();
        let wire = wire_metrics(&requests);

        let mut d = Daemon::start(&daemon::server_config(), daemon::CLIENTS);
        let (samples, _) = daemon::drive(&mut d.clients, &plans, &[0; daemon::CLIENTS], |_| false);
        let stats = d.stats();
        drop(d);
        daemon::check(&plans, &samples, &mut tally);
        let timings: Vec<(f64, f64)> = samples
            .iter()
            .filter(|s| s.answer.is_ok())
            .map(|s| (s.latency_us, s.server_us as f64))
            .collect();
        (att, counters, wire, serving_metrics(&stats, &timings))
    } else {
        let (all, _) = solve::cases(w, seed);
        let cases: Vec<&Case> = all.iter().take(count).collect();
        let (att, counters) = pipeline(&cases, &mut tally, &mut spans, epoch);
        let requests: Vec<SolveRequest> = cases
            .iter()
            .enumerate()
            .map(|(i, c)| SolveRequest {
                id: i as u64,
                epsilon: EPSILON,
                deadline_ms: Some(0),
                instance: c.inst.clone(),
            })
            .collect();
        let wire = wire_metrics(&requests);

        let mut d = Daemon::start(&daemon::server_config(), 1);
        let mut timings = Vec::new();
        for (req, case) in requests.iter().zip(&cases) {
            let t = Instant::now();
            let answer = d.clients[0].solve(req);
            let latency_us = t.elapsed().as_secs_f64() * 1e6;
            let answer = match answer {
                Ok(r) if r.ok && r.cache == CacheTag::Miss => {
                    timings.push((latency_us, r.elapsed_us as f64));
                    case.check_wire(&r.assignment, r.makespan).map(|_| r.makespan)
                }
                Ok(r) => Err(format!(
                    "{}: zero-deadline request answered {:?} {:?}",
                    case.label, r.cache, r.error
                )),
                Err(e) => Err(format!("{}: transport: {e}", case.label)),
            };
            tally.record(case, answer);
        }
        let stats = d.stats();
        drop(d);
        (att, counters, wire, serving_metrics(&stats, &timings))
    };

    let mut metrics = attribution_metrics(&att);
    metrics.extend(wire);
    metrics.extend(serving);
    let path = std::path::Path::new(OUT_DIR).join(format!("spans-{}-seed{seed}.json", w.name()));
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, spans.to_json()))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    eprintln!(
        "perfbench: traced run took {:.1} s, spans in {}",
        ms(epoch.elapsed()) / 1e3,
        path.display()
    );
    Outcome { tally, metrics, counters }
}
