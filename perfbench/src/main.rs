//! The repository benchmark: three workloads over the bag-constrained
//! EPTAS, each measured end to end (`--trace 0`) or attributed to layers
//! by a separate traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bnp-tight --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The lines before it record the
//! run (seed, `nproc`, commit, `rustc --version`) and the workload's
//! deterministic counters. Every answer is checked; any violation makes
//! `correct` false and the exit code non-zero.

mod daemon;
mod shard;
mod solve;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{Case, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `k/n`: run as shard process `k` of `n` (see the `shard` module).
    shard: Option<(usize, usize)>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut shard = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            "--shard" => {
                let parsed = value
                    .split_once('/')
                    .and_then(|(k, n)| Some((k.parse().ok()?, n.parse().ok()?)))
                    .filter(|&(k, n)| k < n);
                shard = Some(parsed.ok_or_else(|| format!("bad shard {value:?}"))?)
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        shard,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// What one run hands back to `main`.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Deterministic counters of the run's fixed work (`None` where the
    /// workload has none, see the daemon module).
    pub counters: Option<Vec<(String, String)>>,
}

/// Answer bookkeeping shared by every workload: how many were attempted
/// and failed, and the quality of the ones that passed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    log_ratio_sum: f64,
    log_gain_sum: f64,
    passed: u64,
}

impl Tally {
    /// Record one answer: its makespan, or why it failed.
    pub fn record(&mut self, case: &Case, answer: Result<f64, String>) {
        self.attempted += 1;
        match answer {
            Ok(makespan) => {
                self.passed += 1;
                self.log_ratio_sum += case.ratio(makespan).ln();
                self.log_gain_sum += case.lpt_gain(makespan).ln();
            }
            Err(why) => self.fail(why),
        }
    }

    /// Record a checked answer that stays out of the quality metrics.
    pub fn record_check(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.fail(why);
        }
    }

    /// Record a failure that is not tied to a single answer.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    /// The counts and log sums, as text for a shard process to hand back
    /// (the failures travel on lines of their own).
    pub fn encode(&self) -> String {
        format!(
            "{} {} {} {} {}",
            self.attempted, self.failed, self.passed, self.log_ratio_sum, self.log_gain_sum
        )
    }

    pub fn decode(text: &str) -> Option<Tally> {
        let w: Vec<&str> = text.split(' ').collect();
        match w[..] {
            [attempted, failed, passed, ratio, gain] => Some(Tally {
                attempted: attempted.parse().ok()?,
                failed: failed.parse().ok()?,
                passed: passed.parse().ok()?,
                log_ratio_sum: ratio.parse().ok()?,
                log_gain_sum: gain.parse().ok()?,
                failures: Vec::new(),
            }),
            _ => None,
        }
    }

    /// Add another tally's counts and log sums to this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.passed += other.passed;
        self.log_ratio_sum += other.log_ratio_sum;
        self.log_gain_sum += other.log_gain_sum;
    }

    fn geomean(&self, log_sum: f64) -> f64 {
        if self.passed == 0 {
            f64::NAN
        } else {
            (log_sum / self.passed as f64).exp()
        }
    }

    pub fn ratio_geomean(&self) -> f64 {
        self.geomean(self.log_ratio_sum)
    }

    /// The quality and failure metrics every workload reports: the share
    /// of this tally's answers that passed, and the quality of those in
    /// `quality` (a subset chosen by the workload, or this tally).
    pub fn quality_metrics(&self, quality: &Tally) -> Vec<Metric> {
        let answered = self.attempted.max(1) as f64;
        vec![
            metric("ratio_geomean", quality.ratio_geomean(), "ratio"),
            metric(
                "valid_share",
                self.attempted.saturating_sub(self.failed) as f64 / answered,
                "share",
            ),
            metric("lpt_gain_geomean", quality.geomean(quality.log_gain_sum), "ratio"),
        ]
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a sample (mean of the middle pair for even sizes); NaN
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean of the non-NaN values; NaN when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values.iter().filter(|x| !x.is_nan()).map(|x| x.ln()).collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Time at least `min_reps` set-ups, and more until `min_time` is spent,
/// and keep the last; returns it with the median set-up time in seconds.
pub fn timed_setup<T>(
    min_reps: usize,
    min_time: Duration,
    mut setup: impl FnMut() -> T,
) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    let start = Instant::now();
    while times.len() < min_reps.max(1) || start.elapsed() < min_time {
        // Drop the previous set-up before timing the next one.
        drop(kept.take());
        let t = Instant::now();
        kept = Some(std::hint::black_box(setup()));
        times.push(t.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// Peak resident set size of this process (the daemon runs in it too).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    // Keep git from searching above the directory the benchmark runs in.
    let ceiling = std::env::current_dir().ok().and_then(|d| d.parent().map(|p| p.to_owned()));
    Command::new(program)
        .args(args)
        .envs(ceiling.map(|c| ("GIT_CEILING_DIRECTORIES", c)))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn pairs_json(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

/// FNV-1a of this executable, so recorded counters are compared only
/// between runs of the same build.
fn build_id() -> String {
    let bytes = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Run records go here, relative to the directory the benchmark runs in.
pub const OUT_DIR: &str = ".bench_out";

/// Compare this run's deterministic counters with the ones an earlier run
/// of the same build, workload, seed and mode recorded, then record them.
/// A difference is a defect (the solver is deterministic), not noise.
fn check_counters(args: &Args, counters: &str) -> Result<(), String> {
    let dir = std::path::Path::new(OUT_DIR).join("counters");
    let path = dir.join(format!(
        "{}-seed{}-trace{}-{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        build_id()
    ));
    if let Ok(previous) = std::fs::read_to_string(&path) {
        if previous.trim() != counters {
            return Err(format!(
                "deterministic counters differ from an earlier run of this build ({}):\n  was {}\n  now {counters}",
                path.display(),
                previous.trim()
            ));
        }
        return Ok(());
    }
    std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, format!("{counters}\n")))
        .map_err(|e| format!("cannot record counters at {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <bnp-tight|place-wide|daemon-mix> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some((k, n)) = args.shard {
        let seconds = Duration::from_secs_f64(args.seconds);
        return match (args.workload, args.trace) {
            (_, true) => {
                eprintln!("perfbench: --shard is for timed runs (--trace 0)");
                ExitCode::from(2)
            }
            (Workload::DaemonMix, false) => daemon::run_shard(args.seed, seconds, k, n),
            (w, false) => solve::run_shard(w, args.seed, seconds, k, n),
        };
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let info = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {nproc}, \
         \"commit\": {}, \"rustc\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.trace as u8,
        args.seconds,
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
        json_str(&command_line("rustc", &["--version"])),
    );
    println!("run: {info}");

    let seconds = Duration::from_secs_f64(args.seconds);
    let mut outcome = match (args.workload, args.trace) {
        (Workload::DaemonMix, false) => daemon::run(args.seed, seconds),
        (w, false) => solve::run(w, args.seed, seconds),
        (w, true) => trace::run(w, args.seed),
    };

    let counters = outcome.counters.as_deref().map(pairs_json).unwrap_or_else(|| "null".into());
    println!("counters: {counters}");
    if outcome.counters.is_some() {
        if let Err(e) = check_counters(&args, &counters) {
            outcome.tally.fail(format!("DEFECT: {e}"));
        }
    }
    for why in &outcome.tally.failures {
        eprintln!("perfbench: check failed: {why}");
    }

    let metrics = metrics_json(&outcome.metrics);
    let record = format!("{{\"run\": {info}, \"counters\": {counters}, \"metrics\": {metrics}}}\n");
    let path = std::path::Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, record)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }

    let tally = &outcome.tally;
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.attempted, tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
