//! `daemon-mix`: an in-process `bagsched_server::serve` (two workers and a
//! state cache) driven by two `Client` connections in a closed loop, since
//! callers wait for each reply. The request stream mixes exact repeats of
//! a few hot shapes (cache reads), jittered copies of hot shapes that
//! match only the coarse fingerprint (the similarity tier) and unique
//! cold shapes (cache writes and evictions).

use crate::workload::{daemon_shape, jitter, mix, Case, Workload};
use crate::{median, metric, shard, timed_setup, Outcome, Tally};
use bagsched_server::{serve, Client, ServerConfig, ServerHandle, StatsReply};
use bagsched_types::{CacheTag, SolveRequest};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Hot shapes fit the cache with room to spare; the cold and jittered
/// shapes cycling through the rest of it cause the evictions.
const HOT_SHAPES: usize = 16;
const CACHE_CAPACITY: usize = 32;
/// Requests planned per client: each shard process drives its own
/// segment of the plan, about twice what its share of a 25 s run needs.
const PLAN_LEN: usize = 2400;
/// Shard processes per run (see the `shard` module).
const SHARDS: usize = 4;
/// Untimed requests at the start of each shard process: they fill the
/// cache with the hot shapes.
const WARMUP: Duration = Duration::from_secs(1);
/// The metrics each shard measures; a run reports their medians.
const TIMED: [(&str, &str); 3] =
    [("solve_p50_ms", "ms"), ("solves_per_s", "1/s"), ("hit_ms", "ms")];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Exact repeat of hot shape `h`.
    Hot(usize),
    /// Jittered copy of a hot shape.
    Near,
    /// A shape no other request has.
    Cold,
}

pub struct Planned {
    pub kind: Kind,
    pub case: Arc<Case>,
    pub request: SolveRequest,
}

/// Kind of request `i` of client `c`: 70% hot, 10% jittered, 20% cold,
/// evenly interleaved.
fn kind_of(seed: u64, c: usize, i: usize) -> Kind {
    match (i * 7 + c * 3) % 10 {
        0..=6 => {
            Kind::Hot((mix(seed, (c * PLAN_LEN + i) as u64 ^ 0x5eed) % HOT_SHAPES as u64) as usize)
        }
        7 => Kind::Near,
        _ => Kind::Cold,
    }
}

/// Every client's request plan, generated from the seed.
pub fn plan(seed: u64, len: usize) -> Vec<Vec<Planned>> {
    // The hot shapes are the same for every seed (generator seeds 1 to
    // 16): every shard solves each of them cold, and their jittered copies
    // are a tenth of the stream, so one slow hot shape drawn from the seed
    // (a cold solve of 1.2 s) halved the request rate of that seed.
    let hot: Vec<Arc<Case>> = (0..HOT_SHAPES)
        .map(|h| Arc::new(daemon_shape(h as u64 + 1, format!("hot #{h}"))))
        .collect();
    (0..CLIENTS)
        .map(|c| {
            (0..len)
                .map(|i| {
                    let id = (c * PLAN_LEN + i) as u64;
                    let kind = kind_of(seed, c, i);
                    let case = match kind {
                        Kind::Hot(h) => Arc::clone(&hot[h]),
                        Kind::Near => {
                            let base = &hot[(mix(seed, id ^ 0xa11) % HOT_SHAPES as u64) as usize];
                            Arc::new(Case::new(
                                format!("{} jittered, request {id}", base.label),
                                jitter(&base.inst, mix(seed, id ^ 0x7e7)),
                            ))
                        }
                        Kind::Cold => Arc::new(daemon_shape(
                            mix(seed, 1 << 40 | id),
                            format!("cold, request {id}"),
                        )),
                    };
                    let request = SolveRequest {
                        id,
                        epsilon: crate::workload::EPSILON,
                        deadline_ms: None,
                        instance: case.inst.clone(),
                    };
                    Planned { kind, case, request }
                })
                .collect()
        })
        .collect()
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        cache_capacity: CACHE_CAPACITY,
        slow_us: 0,
        ..ServerConfig::default()
    }
}

/// A running daemon with its connected clients.
pub struct Daemon {
    pub server: Option<ServerHandle>,
    pub clients: Vec<Client>,
}

impl Daemon {
    pub fn start(cfg: &ServerConfig, clients: usize) -> Daemon {
        let server = serve(cfg).expect("bind a loopback port");
        let addr = server.addr();
        let clients = (0..clients)
            .map(|_| {
                let mut c = Client::connect(addr).expect("connect to the daemon");
                c.ping().expect("daemon answers ping");
                c
            })
            .collect();
        Daemon { server: Some(server), clients }
    }

    pub fn stats(&mut self) -> StatsReply {
        self.clients[0].stats().expect("daemon answers stats")
    }
}

impl Drop for Daemon {
    /// Close the connections, then stop the daemon and join its threads.
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// One answered request.
pub struct Sample {
    pub client: usize,
    pub index: usize,
    pub latency_us: f64,
    pub server_us: u64,
    pub tag: CacheTag,
    pub makespan: f64,
    pub answer: Result<Vec<u32>, String>,
}

/// Drive the plans through the clients in a closed loop, client `c` from
/// request `from[c]` of its plan, until `stop` says so; returns every
/// sample and the wall time of the loop.
pub fn drive(
    clients: &mut [Client],
    plans: &[Vec<Planned>],
    from: &[usize],
    stop: impl Fn(Instant) -> bool + Sync,
) -> (Vec<Sample>, Duration) {
    let start = Instant::now();
    let samples = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plans)
            .enumerate()
            .map(|(c, (client, plan))| {
                let stop = &stop;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for (i, p) in plan.iter().enumerate().skip(from[c]) {
                        if stop(start) {
                            break;
                        }
                        let t = Instant::now();
                        let reply = client.solve(&p.request);
                        let latency_us = t.elapsed().as_secs_f64() * 1e6;
                        out.push(match reply {
                            Ok(r) => Sample {
                                client: c,
                                index: i,
                                latency_us,
                                server_us: r.elapsed_us,
                                tag: r.cache,
                                makespan: r.makespan,
                                answer: if r.ok {
                                    Ok(r.assignment)
                                } else {
                                    Err(r.error.unwrap_or_default())
                                },
                            },
                            Err(e) => Sample {
                                client: c,
                                index: i,
                                latency_us,
                                server_us: 0,
                                tag: CacheTag::Miss,
                                makespan: f64::NAN,
                                answer: Err(format!("transport: {e}")),
                            },
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (samples, start.elapsed())
}

/// Check every sample: each answer must pass the case checks, and each
/// cache hit must return the makespan a cold solve of that exact shape
/// returned during the run.
pub fn check(plans: &[Vec<Planned>], samples: &[Sample], tally: &mut Tally) {
    let mut cold: HashMap<u64, Vec<u64>> = HashMap::new();
    for s in samples.iter().filter(|s| s.tag != CacheTag::Hit && s.answer.is_ok()) {
        let key = Arc::as_ptr(&plans[s.client][s.index].case) as u64;
        cold.entry(key).or_default().push(s.makespan.to_bits());
    }
    for s in samples {
        let p = &plans[s.client][s.index];
        let answer = match &s.answer {
            Err(e) => Err(format!("{}: {e}", p.case.label)),
            Ok(assignment) => p.case.check_wire(assignment, s.makespan).and_then(|_| {
                let key = Arc::as_ptr(&p.case) as u64;
                let matches = cold.get(&key).is_some_and(|v| v.contains(&s.makespan.to_bits()));
                if s.tag == CacheTag::Hit && !matches {
                    Err(format!(
                        "{}: cache hit answered {} but no cold solve did",
                        p.case.label, s.makespan
                    ))
                } else {
                    Ok(s.makespan)
                }
            }),
        };
        tally.record(&p.case, answer);
    }
}

/// Run the workload in its shard processes and report, per timed metric,
/// the median over the shards.
pub fn run(seed: u64, seconds: Duration) -> Outcome {
    let merged = shard::run(Workload::DaemonMix, seed, seconds, SHARDS);
    let mut metrics = vec![metric("setup_s", merged.setup_s(), "s")];
    metrics.extend(TIMED.iter().map(|&(name, unit)| metric(name, merged.metric(name), unit)));
    metrics.extend(merged.tally.quality_metrics(&merged.quality));
    metrics.push(metric("peak_rss_mb", merged.peak_rss_mb(), "MB"));
    // Two clients race for the cache, so which request coalesces, hits or
    // evicts depends on timing: this workload has no deterministic
    // counters of its own (its traced run has).
    Outcome { tally: merged.tally, metrics, counters: None }
}

/// One shard process of [`run`], shard `k` of `n`: a daemon of its own,
/// driven from the start of the `k`-th of `n` segments of the request
/// plan, so the shards of a run see different cold shapes (a rare slow
/// one then holds up one shard, not all). It hands back its timed metrics
/// and checked answers.
pub fn run_shard(seed: u64, seconds: Duration, k: usize, n: usize) -> ExitCode {
    let ((plans, mut daemon), setup_s) = timed_setup(shard::SETUP_REPS, shard::SETUP_TIME, || {
        let plans = plan(seed, PLAN_LEN);
        (plans, Daemon::start(&server_config(), CLIENTS))
    });
    // Warm up on the first requests of the segment (this also fills the
    // cache with the hot shapes), then measure on the rest of it.
    let from = [k * PLAN_LEN / n; CLIENTS];
    let (warm, _) = drive(&mut daemon.clients, &plans, &from, |start| start.elapsed() >= WARMUP);
    let resume: Vec<usize> =
        (0..CLIENTS).map(|c| from[c] + warm.iter().filter(|s| s.client == c).count()).collect();
    let (samples, wall) =
        drive(&mut daemon.clients, &plans, &resume, |start| start.elapsed() >= seconds);
    drop(daemon);

    // Check every answer, warm-up included: a hit in the measured phase
    // may replay a cold solve from the warm-up.
    let measured = warm.len();
    let mut all = warm;
    all.extend(samples);
    let mut tally = Tally::default();
    check(&plans, &all, &mut tally);
    let samples = &all[measured..];
    let latencies = |hit: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.answer.is_ok() && (s.tag == CacheTag::Hit) == hit)
            .map(|s| s.latency_us / 1e3)
            .collect()
    };
    let (hits, colds) = (latencies(true), latencies(false));
    eprintln!(
        "perfbench: {} requests in {:.1} s: {} hits, {} cold ({} near)",
        samples.len(),
        wall.as_secs_f64(),
        hits.len(),
        colds.len(),
        samples.iter().filter(|s| s.tag == CacheTag::Near).count()
    );
    if let Some(slow) = all.iter().max_by(|a, b| a.latency_us.total_cmp(&b.latency_us)) {
        let p = &plans[slow.client][slow.index];
        eprintln!(
            "perfbench: slowest request {:.1} ms ({}{})",
            slow.latency_us / 1e3,
            p.case.label,
            if slow.index < resume[slow.client] { ", warm-up" } else { "" }
        );
    }
    let values = [median(&colds), samples.len() as f64 / wall.as_secs_f64(), median(&hits)];
    for ((name, _), value) in TIMED.iter().zip(values) {
        shard::emit("metric", format!("{name} {value}"));
    }
    shard::emit_common(setup_s, &tally, &tally);
    ExitCode::SUCCESS
}
