//! Shard processes. A timed run measures in several processes of this
//! executable, one after the other, each for its share of `--seconds`,
//! and merges what they hand back on standard output.
//!
//! One build's solves, replays and requests run up to a fifth faster or
//! slower from one process to the next (with where its memory lands, and
//! with the load other tenants put on the host) while they stay within a
//! few percent inside one process, so a median across processes is
//! steadier than any figure one process can measure.

use crate::workload::Workload;
use crate::{median, peak_rss_mb, Tally};
use std::process::{Command, Stdio};
use std::time::Duration;

/// Set-ups timed in each shard process: at least `SETUP_REPS`, and more
/// until `SETUP_TIME` is spent (see `timed_setup`).
pub const SETUP_REPS: usize = 3;
pub const SETUP_TIME: Duration = Duration::from_millis(100);

/// Prefix of the lines a shard process hands back.
const LINE: &str = "shard ";

/// Hand one line back to the parent.
pub fn emit(key: &str, value: impl std::fmt::Display) {
    println!("{LINE}{key} {value}");
}

/// Hand back what every shard reports: its set-up time, its answers (all
/// of them, and the ones its quality metrics cover) and its peak RSS.
pub fn emit_common(setup_s: f64, tally: &Tally, quality: &Tally) {
    emit("setup_s", setup_s);
    emit("tally", tally.encode());
    emit("quality", quality.encode());
    for why in &tally.failures {
        emit("fail", why.replace('\n', " "));
    }
    emit("peak_rss_mb", peak_rss_mb());
}

/// What the shard processes of one run handed back.
#[derive(Default)]
pub struct Merged {
    /// Every answer, and every shard that failed or could not be read.
    pub tally: Tally,
    /// The answers the quality metrics cover.
    pub quality: Tally,
    /// Deterministic counters, summed over the shards.
    pub counters: Vec<(String, u64)>,
    setup_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    /// Per case index: `(solve_ms, hit_ms)` of each shard that timed it.
    pub cases: Vec<Vec<(f64, f64)>>,
    /// Per metric name: the value of each shard.
    pub metrics: Vec<(String, Vec<f64>)>,
}

impl Merged {
    /// Median set-up time over the shards.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_s)
    }

    /// Peak RSS of the run: the largest of the shards'.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_mb.iter().copied().fold(f64::NAN, f64::max)
    }

    /// Median over the shards of a metric each of them reported.
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics.iter().find(|(n, _)| n == name).map_or(f64::NAN, |(_, v)| median(v))
    }

    fn read(&mut self, k: usize, line: &str) -> Option<()> {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let words: Vec<&str> = rest.split(' ').collect();
        let num = |i: usize| words.get(i)?.parse::<f64>().ok();
        match key {
            "fail" => self.tally.fail(format!("shard {k}: {rest}")),
            "tally" => self.tally.merge(Tally::decode(rest)?),
            "quality" => self.quality.merge(Tally::decode(rest)?),
            "setup_s" => self.setup_s.push(num(0)?),
            "peak_rss_mb" => self.peak_rss_mb.push(num(0)?),
            "counter" => {
                let v: u64 = words.get(1)?.parse().ok()?;
                match self.counters.iter_mut().find(|(name, _)| name == words[0]) {
                    Some((_, sum)) => *sum += v,
                    None => self.counters.push((words[0].to_string(), v)),
                }
            }
            "case" => {
                let i = words[0].parse::<usize>().ok()?;
                if self.cases.len() <= i {
                    self.cases.resize(i + 1, Vec::new());
                }
                self.cases[i].push((num(1)?, num(2)?));
            }
            "metric" => {
                let v = num(1)?;
                match self.metrics.iter_mut().find(|(name, _)| name == words[0]) {
                    Some((_, values)) => values.push(v),
                    None => self.metrics.push((words[0].to_string(), vec![v])),
                }
            }
            _ => return None,
        }
        Some(())
    }
}

/// Run shards `0/n` to `n-1/n` of workload `w`, each for `seconds / n`,
/// and merge what they hand back. Their standard error passes through.
pub fn run(w: Workload, seed: u64, seconds: Duration, n: usize) -> Merged {
    let exe = std::env::current_exe().expect("path of the running executable");
    let per_shard = (seconds.as_secs_f64() / n as f64).to_string();
    let mut merged = Merged::default();
    for k in 0..n {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--trace", "0", "--seconds", &per_shard])
            .args(["--seed", &seed.to_string(), "--shard", &format!("{k}/{n}")])
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                merged.tally.fail(format!("shard {k}: cannot start: {e}"));
                continue;
            }
        };
        if !out.status.success() {
            merged.tally.fail(format!("shard {k}: exited with {}", out.status));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let Some(line) = line.strip_prefix(LINE) else { continue };
            if merged.read(k, line).is_none() {
                merged.tally.fail(format!("shard {k}: cannot read line {line:?}"));
            }
        }
    }
    merged
}
