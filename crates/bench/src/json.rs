//! Machine-readable perf reports (`BENCH_*.json`) and the regression
//! comparator behind `experiments --compare`.
//!
//! Two document shapes share the current [`SCHEMA_VERSION`]:
//!
//! * **Per-experiment record** (`BENCH_<id>.json`): the full table
//!   (headers + formatted rows) plus `wall_secs` and the deterministic
//!   algorithm counters of [`Stats`].
//! * **Summary / baseline** (`BENCH_summary.json`, and the committed
//!   `BENCH_baseline.json` at the repo root): one entry per experiment
//!   with just `wall_secs` and the counters — everything `--compare`
//!   needs. Blessing a new baseline is `cp bench-out/BENCH_summary.json
//!   BENCH_baseline.json`.
//!
//! Everything in these documents except wall-clock is deterministic for
//! a fixed `(id, quick)` — the counters come from [`Stats`], the rows are
//! pre-formatted strings. Wall-clock leaks in three places: the
//! `wall_secs` fields, rendered `time` cells inside table rows, and the
//! `*_ns` phase-time fields of `--profile` runs;
//! [`redact_nondeterministic`] scrubs all three in one pass, after which
//! byte-level comparisons (the parallel determinism guards) are possible.

use crate::runner::ExperimentOutcome;
use bagsched_core::obs::{PhaseProfile, PhaseStat};
use bagsched_core::Stats;
use serde::{Deserialize, DeserializeError, Serialize, Value};

/// Version stamp of every document this module emits. Bump on any
/// breaking change to field names or meanings, and teach `--compare` to
/// reject mismatches loudly rather than mis-reading old baselines.
///
/// v2: the `counters` object gained the column-generation counters
/// (`pricing_rounds`, `columns_generated`, `pricing_dfs_nodes`) and the
/// meaning of `lp_solves` widened to include pricing master re-solves —
/// v1 baselines would gate the new counters against nothing and the old
/// `lp_solves` against an incomparable number, so they are rejected.
///
/// v3: three aggregation/warm-start counters joined (`bag_classes`,
/// `symbols_after_aggregation`, `warm_start_pivots_saved`), and
/// `simplex_pivots`/`lp_solves` shifted meaning again (warm-started
/// master re-solves pivot far less; the class-aggregated path re-solves
/// the master for pool pruning). v2 baselines are rejected for the same
/// reason v1 ones were.
///
/// v4: the branch-and-price counters joined (`dual_pivots`,
/// `node_warm_starts`, `tree_columns_generated`), and
/// `simplex_pivots`/`lp_solves`/`milp_nodes` shifted meaning once more —
/// node LPs warm-start from the parent basis (far fewer pivots per node)
/// and in-tree pricing re-solves node LPs after grafting columns. v3
/// baselines are rejected for the same reason earlier ones were.
///
/// v5: the sparse-revised-simplex counters joined
/// (`basis_refactorizations`, `eta_updates`), the master column
/// lifecycle counters (`columns_purged`, `columns_readmitted`), and the
/// strict `lpt_fallbacks` correctness counter. `simplex_pivots` shifted
/// meaning once more: the dense tableau was replaced by a factorized
/// basis with eta updates, and purged-then-readmitted columns change the
/// pivot sequence. v4 baselines are rejected for the same reason earlier
/// ones were.
///
/// v6: the solver-state cache counters joined (`cache_hits`,
/// `cache_misses`, `cache_evictions`), emitted by the session
/// [`bagsched_core::Solver`] when built with a cache. A hit replays the
/// cached guess and pattern pool, so `patterns_enumerated` /
/// `pricing_rounds` / `lp_solves` drop to near-zero on repeat solves —
/// a v5 baseline recorded before the cache existed would gate those
/// counters against incomparably larger numbers, so it is rejected.
///
/// v7: the parallel-solver counters joined (`pricing_shards_run`,
/// `speculative_guesses_launched`, `speculative_wins`,
/// `guesses_cancelled`, `portfolio_winner`), emitted when the sharded
/// pricing DFS or speculative guess racing engage. They are *structural*
/// — a function of the configured shard/speculation counts, never of the
/// thread count — so they stay deterministic, but a v6 baseline simply
/// lacks them and would leave the new seams ungated, so it is rejected.
///
/// v8: the coarse-class counters joined (`coarse_classes_formed`,
/// `repair_jobs_moved`, `repair_failures`), emitted when the
/// template-quantized aggregation rescue engages past the symbol
/// budget, plus the similarity-tier `cache_near_hits` emitted when a
/// coarse-fingerprint neighbour seeds the guess search. Coarsening also
/// shifts the meaning of the pricing counters on very large instances —
/// guesses that previously fell through to the eager path now solve a
/// (much smaller) coarse master — so a v7 baseline is rejected for the
/// same reason earlier ones were.
///
/// v9: per-experiment records gained the `phases` array — the span
/// profile captured when the harness runs with `--profile` (empty
/// otherwise). Phase rows are observability data, segregated exactly
/// like `wall_secs`: the `--compare` gate never reads them (summaries
/// and baselines carry no phases at all), and
/// [`redact_nondeterministic`] zeroes the `*_ns` time fields so the
/// `--assert-identical` byte gate sees only the deterministic span
/// counts. v8 baselines are rejected only for the version stamp —
/// counters are unchanged — so re-blessing is a plain re-run.
///
/// v10: the `node_cold_solves` counter joined (branch-and-bound node LPs
/// solved cold, roots included), and the MILP work counters
/// (`simplex_pivots`, `dual_pivots`, `lp_solves`, `milp_nodes`,
/// `node_warm_starts`, `basis_refactorizations`, `eta_updates`) shifted:
/// a down-branch that first bounds a variable above now warm-starts by
/// appending the bound row instead of solving cold. A v9 baseline lacks
/// the new counter and gates the shifted ones against the cold-solve
/// figures, so it is rejected.
pub const SCHEMA_VERSION: u64 = 10;

/// Counters whose *growth* reports an optimization engaging harder, not
/// the solver working harder; the `--compare` gate never flags them.
/// `warm_start_pivots_saved` grows when master warm starts skip more
/// pivots, `node_warm_starts` when more node LPs start from the parent
/// basis instead of cold, and `dual_pivots` is the substitution cost
/// that rides along with every extra warm start (the total work those
/// pivots replace is already gated through `simplex_pivots`).
/// `cache_hits` grows when more solves replay cached solver state — the
/// avoided search is gated through `patterns_enumerated` and friends.
/// The speculative-racing trio (`speculative_guesses_launched`,
/// `speculative_wins`, `guesses_cancelled`) grows when the binary search
/// races more midpoints ahead of the verdict — the committed work those
/// races hide is already gated through the per-guess counters, and a
/// cancelled loser leaves no other trace in [`Stats`] at all.
/// `cache_near_hits` grows when the similarity tier seeds more cold
/// searches — the probes it saves are gated through `lp_solves` and the
/// per-guess counters.
pub const SAVINGS_COUNTERS: [&str; 8] = [
    "warm_start_pivots_saved",
    "node_warm_starts",
    "dual_pivots",
    "cache_hits",
    "speculative_guesses_launched",
    "speculative_wins",
    "guesses_cancelled",
    "cache_near_hits",
];

/// Counters where *any* growth over the baseline fails the gate, with no
/// threshold headroom. `lpt_fallbacks` counts guesses where the MILP
/// path collapsed to the LPT heuristic — a silent quality degradation
/// that wall-clock and work counters cannot see (LPT is *fast*), so a
/// single extra fallback is a real regression, not noise.
pub const STRICT_COUNTERS: [&str; 1] = ["lpt_fallbacks"];

/// Counters as ordered `(name, value)` pairs — the JSON `"counters"`
/// object. Emitted from [`Stats::named`], so the schema tracks the struct.
pub type Counters = Vec<(String, u64)>;

fn counters_of(stats: &Stats) -> Counters {
    stats.named().iter().map(|&(name, value)| (name.to_string(), value)).collect()
}

fn counters_to_value(counters: &Counters) -> Value {
    Value::Obj(counters.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
}

fn counters_from_value(v: &Value) -> Result<Counters, DeserializeError> {
    match v {
        Value::Obj(fields) => {
            fields.iter().map(|(k, val)| Ok((k.clone(), u64::from_value(val)?))).collect()
        }
        other => Err(DeserializeError::new(format!("expected counters object, got {other:?}"))),
    }
}

fn phases_to_value(profile: &PhaseProfile) -> Value {
    Value::Arr(
        profile
            .phases
            .iter()
            .map(|p| {
                Value::Obj(vec![
                    ("name".into(), p.name.to_value()),
                    ("count".into(), p.count.to_value()),
                    ("total_ns".into(), p.total_ns.to_value()),
                    ("self_ns".into(), p.self_ns.to_value()),
                    ("max_ns".into(), p.max_ns.to_value()),
                ])
            })
            .collect(),
    )
}

fn phases_from_value(v: &Value) -> Result<PhaseProfile, DeserializeError> {
    let Value::Arr(items) = v else {
        return Err(DeserializeError::new(format!("expected phases array, got {v:?}")));
    };
    let phases = items
        .iter()
        .map(|item| {
            Ok(PhaseStat {
                name: String::from_value(item.field("name")?)?,
                count: u64::from_value(item.field("count")?)?,
                total_ns: u64::from_value(item.field("total_ns")?)?,
                self_ns: u64::from_value(item.field("self_ns")?)?,
                max_ns: u64::from_value(item.field("max_ns")?)?,
            })
        })
        .collect::<Result<Vec<_>, DeserializeError>>()?;
    Ok(PhaseProfile { phases })
}

/// The `BENCH_<id>.json` document: one experiment's table and measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Always [`SCHEMA_VERSION`] when emitted by this build.
    pub schema_version: u64,
    /// Harness experiment id (`"fig1"`, `"ratio-small"`, ...).
    pub id: String,
    /// Table id as printed (`"F1"`, `"T1"`, ...).
    pub table_id: String,
    /// Table title.
    pub title: String,
    /// Whether quick mode was used (baselines only compare like-for-like).
    pub quick: bool,
    /// Wall-clock of the cell in seconds. The only nondeterministic field.
    pub wall_secs: f64,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row-major cells, exactly as printed.
    pub rows: Vec<Vec<String>>,
    /// Deterministic algorithm counters ([`Stats::named`] order).
    pub counters: Counters,
    /// Span profile of the run (empty unless `--profile`). Span counts
    /// are deterministic; the `*_ns` times are wall-clock and are
    /// zeroed by [`redact_nondeterministic`].
    pub phases: PhaseProfile,
}

impl BenchRecord {
    /// Build the record for one finished cell.
    pub fn from_outcome(o: &ExperimentOutcome, quick: bool) -> Self {
        BenchRecord {
            schema_version: SCHEMA_VERSION,
            id: o.id.clone(),
            table_id: o.table.id.clone(),
            title: o.table.title.clone(),
            quick,
            wall_secs: o.wall_secs,
            headers: o.table.headers.clone(),
            rows: o.table.rows.clone(),
            counters: counters_of(&o.stats),
            phases: o.profile.clone(),
        }
    }

    /// Serialize to the canonical pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench records contain only finite numbers")
    }

    /// Parse a document emitted by [`BenchRecord::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

impl Serialize for BenchRecord {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("schema_version".into(), self.schema_version.to_value()),
            ("id".into(), self.id.to_value()),
            ("table_id".into(), self.table_id.to_value()),
            ("title".into(), self.title.to_value()),
            ("quick".into(), self.quick.to_value()),
            ("wall_secs".into(), self.wall_secs.to_value()),
            ("headers".into(), self.headers.to_value()),
            ("rows".into(), self.rows.to_value()),
            ("counters".into(), counters_to_value(&self.counters)),
            ("phases".into(), phases_to_value(&self.phases)),
        ])
    }
}

impl Deserialize for BenchRecord {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        // Tolerant on `phases`: v8 records predate the field.
        let phases = match v.field("phases") {
            Ok(val) => phases_from_value(val)?,
            Err(_) => PhaseProfile::default(),
        };
        Ok(BenchRecord {
            schema_version: u64::from_value(v.field("schema_version")?)?,
            id: String::from_value(v.field("id")?)?,
            table_id: String::from_value(v.field("table_id")?)?,
            title: String::from_value(v.field("title")?)?,
            quick: bool::from_value(v.field("quick")?)?,
            wall_secs: f64::from_value(v.field("wall_secs")?)?,
            headers: Vec::from_value(v.field("headers")?)?,
            rows: Vec::from_value(v.field("rows")?)?,
            counters: counters_from_value(v.field("counters")?)?,
            phases,
        })
    }
}

/// One experiment's entry in a summary/baseline document.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Harness experiment id.
    pub id: String,
    /// Wall-clock in seconds when the baseline was recorded.
    pub wall_secs: f64,
    /// Deterministic algorithm counters at baseline time.
    pub counters: Counters,
}

impl Serialize for BaselineEntry {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), self.id.to_value()),
            ("wall_secs".into(), self.wall_secs.to_value()),
            ("counters".into(), counters_to_value(&self.counters)),
        ])
    }
}

impl Deserialize for BaselineEntry {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        Ok(BaselineEntry {
            id: String::from_value(v.field("id")?)?,
            wall_secs: f64::from_value(v.field("wall_secs")?)?,
            counters: counters_from_value(v.field("counters")?)?,
        })
    }
}

/// The summary/baseline document (`BENCH_summary.json` /
/// `BENCH_baseline.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Always [`SCHEMA_VERSION`] when emitted by this build.
    pub schema_version: u64,
    /// Whether the run used quick mode.
    pub quick: bool,
    /// Per-experiment measurements, in run order.
    pub experiments: Vec<BaselineEntry>,
}

impl Baseline {
    /// Summarize a finished run.
    pub fn from_outcomes(outcomes: &[ExperimentOutcome], quick: bool) -> Self {
        Baseline {
            schema_version: SCHEMA_VERSION,
            quick,
            experiments: outcomes
                .iter()
                .map(|o| BaselineEntry {
                    id: o.id.clone(),
                    wall_secs: o.wall_secs,
                    counters: counters_of(&o.stats),
                })
                .collect(),
        }
    }

    /// Serialize to the canonical pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("baselines contain only finite numbers")
    }

    /// Parse a document emitted by [`Baseline::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Entry lookup by experiment id.
    pub fn entry(&self, id: &str) -> Option<&BaselineEntry> {
        self.experiments.iter().find(|e| e.id == id)
    }

    /// The baseline restricted to the given experiment ids. [`compare`]
    /// treats a baseline id missing from the run as a regression (full
    /// runs must not silently lose coverage); a caller comparing a
    /// deliberate *subset* run restricts the baseline first so only the
    /// selected experiments are gated.
    pub fn restricted_to(&self, ids: &[&str]) -> Baseline {
        Baseline {
            schema_version: self.schema_version,
            quick: self.quick,
            experiments: self
                .experiments
                .iter()
                .filter(|e| ids.contains(&e.id.as_str()))
                .cloned()
                .collect(),
        }
    }
}

impl Serialize for Baseline {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("schema_version".into(), self.schema_version.to_value()),
            ("quick".into(), self.quick.to_value()),
            ("experiments".into(), self.experiments.to_value()),
        ])
    }
}

impl Deserialize for Baseline {
    fn from_value(v: &Value) -> Result<Self, DeserializeError> {
        Ok(Baseline {
            schema_version: u64::from_value(v.field("schema_version")?)?,
            quick: bool::from_value(v.field("quick")?)?,
            experiments: Vec::from_value(v.field("experiments")?)?,
        })
    }
}

/// Redact every nondeterministic (wall-clock) field of a document
/// produced by this module, leaving all deterministic content
/// untouched. One helper covers the three places time leaks in:
///
/// * `"wall_secs"` fields anywhere in the tree are zeroed (record tops
///   and baseline entries alike);
/// * phase-time fields (`total_ns`, `self_ns`, `max_ns` inside the
///   `phases` rows) are zeroed — the structural `count` and `name`
///   stay, so the determinism gate still compares span *counts*;
/// * row cells in columns whose header mentions wall-clock time (the
///   same header rule as `Table::has_time_column`) are blanked to
///   `"-"` — rows are pre-formatted strings, so a `time` column
///   carries a measurement exactly the way `wall_secs` does.
///
/// Two runs of the same experiments must agree byte-for-byte after
/// this redaction at any `--jobs` or `--solver-threads` value, with or
/// without `--profile` on both sides — the parallel determinism guard
/// (`--assert-identical`) relies on it. Summary documents have no
/// `rows` or `phases` and only lose their `wall_secs`.
pub fn redact_nondeterministic(json: &str) -> Result<String, serde_json::Error> {
    let mut v: Value = serde_json::from_str(json)?;
    // Phase rows live under "phases" and carry their times in `*_ns`
    // fields; nothing else in these documents uses the suffix.
    fn walk(v: &mut Value) {
        match v {
            Value::Obj(fields) => {
                for (k, val) in fields.iter_mut() {
                    if k == "wall_secs" || k.ends_with("_ns") {
                        *val = Value::Num(0.0);
                    } else {
                        walk(val);
                    }
                }
            }
            Value::Arr(items) => items.iter_mut().for_each(walk),
            _ => {}
        }
    }
    walk(&mut v);
    let time_cols: Vec<usize> = match v.get("headers") {
        Some(Value::Arr(headers)) => headers
            .iter()
            .enumerate()
            .filter(|(_, h)| matches!(h, Value::Str(s) if s.to_ascii_lowercase().contains("time")))
            .map(|(i, _)| i)
            .collect(),
        _ => Vec::new(),
    };
    if !time_cols.is_empty() {
        if let Value::Obj(fields) = &mut v {
            if let Some((_, Value::Arr(rows))) = fields.iter_mut().find(|(k, _)| k == "rows") {
                for row in rows {
                    if let Value::Arr(cells) = row {
                        for &c in &time_cols {
                            if let Some(cell) = cells.get_mut(c) {
                                *cell = Value::Str("-".into());
                            }
                        }
                    }
                }
            }
        }
    }
    serde_json::to_string_pretty(&v)
}

/// Wall-clock below this is treated as the measurement floor: quick-mode
/// cells finish in milliseconds where scheduler noise dominates, so
/// slowdown ratios are computed against at least this many seconds.
pub const MIN_BASE_SECS: f64 = 0.01;

/// Outcome of comparing a run against a baseline.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Human-readable per-experiment report lines (always populated).
    pub lines: Vec<String>,
    /// Regressions that should fail the gate (empty = pass).
    pub regressions: Vec<String>,
}

impl Comparison {
    /// Process exit code for the gate: `0` pass, `3` regression.
    pub fn exit_code(&self) -> i32 {
        if self.regressions.is_empty() {
            0
        } else {
            3
        }
    }
}

/// Compare `current` against `baseline` with a slowdown `threshold`
/// (e.g. `3.0` = fail when an experiment takes more than 3x its baseline
/// wall-clock). Deterministic counters are gated by the same factor —
/// counter *growth* beyond it means the algorithm is doing measurably
/// more work, which is a real regression even when wall-clock noise
/// hides it. Experiments missing from either side are reported but only
/// fail the gate when the baseline id vanished from a run that should
/// contain it (the caller compares full runs).
pub fn compare(current: &Baseline, baseline: &Baseline, threshold: f64) -> Comparison {
    let mut cmp = Comparison::default();
    assert!(threshold >= 1.0, "a slowdown threshold below 1.0 would fail on any noise");

    if baseline.schema_version != SCHEMA_VERSION {
        cmp.regressions.push(format!(
            "baseline schema_version {} != supported {SCHEMA_VERSION}; re-bless the baseline",
            baseline.schema_version
        ));
        return cmp;
    }
    if baseline.quick != current.quick {
        cmp.regressions.push(format!(
            "mode mismatch: current quick={} vs baseline quick={} — not comparable",
            current.quick, baseline.quick
        ));
        return cmp;
    }

    for cur in &current.experiments {
        let Some(base) = baseline.entry(&cur.id) else {
            cmp.lines.push(format!("{:<16} no baseline entry (new experiment?)", cur.id));
            continue;
        };
        let floor = base.wall_secs.max(MIN_BASE_SECS);
        let slowdown = cur.wall_secs.max(0.0) / floor;
        let mut verdict = "ok";
        if slowdown > threshold {
            verdict = "SLOW";
            cmp.regressions.push(format!(
                "{}: wall-clock {:.3}s vs baseline {:.3}s ({slowdown:.2}x > {threshold:.2}x)",
                cur.id, cur.wall_secs, base.wall_secs
            ));
        }
        for (name, cur_val) in &cur.counters {
            let Some((_, base_val)) = base.counters.iter().find(|(n, _)| n == name) else {
                continue;
            };
            // Savings estimates are inverted: growth means the
            // optimization got *better* (warm starts skipping more
            // pivots, more nodes warm-started), never that the solver
            // works harder.
            if SAVINGS_COUNTERS.contains(&name.as_str()) {
                continue;
            }
            // Strict counters tolerate zero growth: they flag correctness
            // degradations (e.g. silent LPT fallbacks), not work volume.
            if STRICT_COUNTERS.contains(&name.as_str()) {
                if cur_val > base_val {
                    verdict = "FALL";
                    cmp.regressions.push(format!(
                        "{}: strict counter {name} {} vs baseline {} (any growth fails)",
                        cur.id, cur_val, base_val
                    ));
                }
                continue;
            }
            // Counters are deterministic; growth past the threshold is
            // algorithmic work inflation, not noise.
            if *cur_val as f64 > (*base_val).max(1) as f64 * threshold {
                verdict = "WORK";
                cmp.regressions.push(format!(
                    "{}: counter {name} {} vs baseline {} (> {threshold:.2}x)",
                    cur.id, cur_val, base_val
                ));
            }
        }
        cmp.lines.push(format!(
            "{:<16} {:>8.3}s vs {:>8.3}s  ({slowdown:>5.2}x)  {verdict}",
            cur.id, cur.wall_secs, base.wall_secs
        ));
    }
    for base in &baseline.experiments {
        if current.entry(&base.id).is_none() {
            cmp.regressions
                .push(format!("{}: present in baseline but missing from this run", base.id));
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn outcome(id: &str, wall: f64) -> ExperimentOutcome {
        let mut table = Table::new("T9", "demo table", &["a", "b"]);
        table.row(vec!["1".into(), "x y".into()]);
        table.row(vec!["2".into(), "\"quoted\"".into()]);
        let stats = Stats {
            patterns_enumerated: 10,
            simplex_pivots: 20,
            lp_solves: 9,
            milp_nodes: 5,
            flow_augmentations: 3,
            swap_repair_rounds: 2,
            mediums_reinserted: 3,
            pricing_rounds: 4,
            columns_generated: 6,
            pricing_dfs_nodes: 40,
            bag_classes: 2,
            symbols_after_aggregation: 5,
            warm_start_pivots_saved: 7,
            dual_pivots: 8,
            node_warm_starts: 4,
            node_cold_solves: 1,
            tree_columns_generated: 1,
            basis_refactorizations: 2,
            eta_updates: 15,
            columns_purged: 3,
            columns_readmitted: 1,
            lpt_fallbacks: 0,
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
        ExperimentOutcome {
            id: id.into(),
            table,
            stats,
            wall_secs: wall,
            profile: PhaseProfile::default(),
        }
    }

    fn profiled_outcome(id: &str, wall: f64, guess_ns: u64) -> ExperimentOutcome {
        let mut o = outcome(id, wall);
        o.profile = PhaseProfile {
            phases: vec![
                PhaseStat {
                    name: "guess".into(),
                    count: 4,
                    total_ns: guess_ns,
                    self_ns: guess_ns / 2,
                    max_ns: guess_ns / 3,
                },
                PhaseStat {
                    name: "patterns".into(),
                    count: 9,
                    total_ns: 500,
                    self_ns: 500,
                    max_ns: 80,
                },
            ],
        };
        o
    }

    #[test]
    fn record_roundtrips_through_json() {
        let rec = BenchRecord::from_outcome(&outcome("fig9", 1.25), true);
        let parsed = BenchRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(parsed, rec, "emit -> parse must be the identity");
        assert_eq!(parsed.schema_version, SCHEMA_VERSION);
        assert_eq!(SCHEMA_VERSION, 10, "node_cold_solves entered the counters at v10");
        assert_eq!(parsed.counters.len(), Stats::default().named().len());
        // Phase rows roundtrip too, and a pre-v9 document without the
        // `phases` field parses as an empty profile.
        let prof = BenchRecord::from_outcome(&profiled_outcome("fig9", 1.25, 9_000), true);
        assert_eq!(BenchRecord::from_json(&prof.to_json()).unwrap(), prof);
        let mut v: Value = serde_json::from_str(&rec.to_json()).unwrap();
        if let Value::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "phases");
        }
        let old = BenchRecord::from_json(&serde_json::to_string_pretty(&v).unwrap()).unwrap();
        assert!(old.phases.is_empty());
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let outs = vec![outcome("a", 0.5), outcome("b", 2.0)];
        let base = Baseline::from_outcomes(&outs, false);
        let parsed = Baseline::from_json(&base.to_json()).unwrap();
        assert_eq!(parsed, base);
        assert_eq!(parsed.entry("b").unwrap().wall_secs, 2.0);
        assert!(parsed.entry("zzz").is_none());
    }

    #[test]
    fn malformed_documents_rejected() {
        assert!(BenchRecord::from_json("{}").is_err());
        assert!(BenchRecord::from_json("not json").is_err());
        assert!(Baseline::from_json("{\"schema_version\": 1}").is_err());
    }

    #[test]
    fn redaction_zeroes_wall_secs_and_phase_times() {
        let rec = BenchRecord::from_outcome(&profiled_outcome("fig9", 7.5, 9_000), true);
        let redacted = redact_nondeterministic(&rec.to_json()).unwrap();
        let parsed = BenchRecord::from_json(&redacted).unwrap();
        assert_eq!(parsed.wall_secs, 0.0);
        let mut expect = rec.clone();
        expect.wall_secs = 0.0;
        expect.phases = expect.phases.redacted();
        assert_eq!(parsed, expect, "redaction touched a deterministic field");
        // Span counts and names survive; only the times are gone.
        assert_eq!(parsed.phases.get("guess").unwrap().count, 4);
        assert_eq!(parsed.phases.get("guess").unwrap().total_ns, 0);
        // Nested wall_secs (baseline entries) are redacted too.
        let base = Baseline::from_outcomes(&[outcome("a", 1.0)], true);
        let parsed =
            Baseline::from_json(&redact_nondeterministic(&base.to_json()).unwrap()).unwrap();
        assert_eq!(parsed.experiments[0].wall_secs, 0.0);
    }

    #[test]
    fn docs_differing_only_in_phase_times_redact_equal() {
        // The satellite guarantee: phase times can never leak into the
        // --assert-identical byte gate.
        let a = BenchRecord::from_outcome(&profiled_outcome("fig9", 1.0, 9_000), true);
        let b = BenchRecord::from_outcome(&profiled_outcome("fig9", 2.0, 777_777), true);
        assert_ne!(a.to_json(), b.to_json(), "the raw docs must actually differ");
        assert_eq!(
            redact_nondeterministic(&a.to_json()).unwrap(),
            redact_nondeterministic(&b.to_json()).unwrap()
        );
        // But differing span *counts* stay visible: that is a real
        // determinism violation, not timing noise.
        let mut c = profiled_outcome("fig9", 1.0, 9_000);
        c.profile.phases[0].count += 1;
        let c = BenchRecord::from_outcome(&c, true);
        assert_ne!(
            redact_nondeterministic(&a.to_json()).unwrap(),
            redact_nondeterministic(&c.to_json()).unwrap()
        );
    }

    #[test]
    fn time_column_redaction_blanks_only_time_cells() {
        let mut o = outcome("fig9", 7.5);
        o.table = Table::new("T9", "timed", &["n", "time", "EPTAS time", "feasible"]);
        o.table.row(vec!["40".into(), "416us".into(), "1.2ms".into(), "true".into()]);
        o.table.row(vec!["80".into(), "3.1ms".into(), "8.0ms".into(), "true".into()]);
        let rec = BenchRecord::from_outcome(&o, true);
        let redacted =
            BenchRecord::from_json(&redact_nondeterministic(&rec.to_json()).unwrap()).unwrap();
        for row in &redacted.rows {
            assert_eq!(row[1], "-");
            assert_eq!(row[2], "-");
        }
        // Non-time columns and everything else survive untouched.
        assert_eq!(redacted.rows[0][0], "40");
        assert_eq!(redacted.rows[1][3], "true");
        assert_eq!(redacted.counters, rec.counters);
        // Two runs differing only in rendered times agree after redaction.
        let mut o2 = o.clone();
        o2.table.rows[0][1] = "473us".into();
        let rec2 = BenchRecord::from_outcome(&o2, true);
        assert_eq!(
            redact_nondeterministic(&rec.to_json()).unwrap(),
            redact_nondeterministic(&rec2.to_json()).unwrap()
        );
    }

    fn baseline_of(entries: &[(&str, f64, u64)]) -> Baseline {
        Baseline {
            schema_version: SCHEMA_VERSION,
            quick: true,
            experiments: entries
                .iter()
                .map(|&(id, wall, patterns)| BaselineEntry {
                    id: id.into(),
                    wall_secs: wall,
                    counters: vec![("patterns_enumerated".into(), patterns)],
                })
                .collect(),
        }
    }

    #[test]
    fn compare_passes_within_threshold() {
        let base = baseline_of(&[("fig1", 1.0, 100)]);
        let cur = baseline_of(&[("fig1", 2.9, 100)]);
        let c = compare(&cur, &base, 3.0);
        assert!(c.regressions.is_empty(), "{:?}", c.regressions);
        assert_eq!(c.exit_code(), 0);
        assert_eq!(c.lines.len(), 1);
    }

    #[test]
    fn compare_fails_past_threshold() {
        let base = baseline_of(&[("fig1", 1.0, 100)]);
        let cur = baseline_of(&[("fig1", 3.1, 100)]);
        let c = compare(&cur, &base, 3.0);
        assert_eq!(c.regressions.len(), 1);
        assert_eq!(c.exit_code(), 3);
        assert!(c.regressions[0].contains("fig1"), "{}", c.regressions[0]);
    }

    #[test]
    fn compare_uses_measurement_floor_for_tiny_baselines() {
        // 1ms -> 5ms is 5x raw but both are under the 10ms floor: pass.
        let base = baseline_of(&[("fig1", 0.001, 100)]);
        let cur = baseline_of(&[("fig1", 0.005, 100)]);
        assert_eq!(compare(&cur, &base, 3.0).exit_code(), 0);
    }

    #[test]
    fn compare_gates_counter_growth() {
        let base = baseline_of(&[("fig1", 1.0, 100)]);
        let cur = baseline_of(&[("fig1", 1.0, 301)]);
        let c = compare(&cur, &base, 3.0);
        assert_eq!(c.exit_code(), 3);
        assert!(c.regressions[0].contains("patterns_enumerated"));
        // Counter *shrink* (an optimization) passes.
        let cur = baseline_of(&[("fig1", 1.0, 10)]);
        assert_eq!(compare(&cur, &base, 3.0).exit_code(), 0);
    }

    #[test]
    fn compare_never_flags_savings_counter_growth() {
        // A savings-style counter growing means the optimization got
        // better; the gate must not read that as work inflation.
        for name in SAVINGS_COUNTERS {
            let entry = |saved: u64| Baseline {
                schema_version: SCHEMA_VERSION,
                quick: true,
                experiments: vec![BaselineEntry {
                    id: "fig1".into(),
                    wall_secs: 1.0,
                    counters: vec![(name.into(), saved)],
                }],
            };
            let c = compare(&entry(100_000), &entry(10), 3.0);
            assert_eq!(c.exit_code(), 0, "{name}: {:?}", c.regressions);
        }
    }

    #[test]
    fn compare_fails_strict_counter_on_any_growth() {
        let entry = |falls: u64| Baseline {
            schema_version: SCHEMA_VERSION,
            quick: true,
            experiments: vec![BaselineEntry {
                id: "fig1".into(),
                wall_secs: 1.0,
                counters: vec![("lpt_fallbacks".into(), falls)],
            }],
        };
        // +1 fallback fails even though it is far under the 3x threshold.
        let c = compare(&entry(1), &entry(0), 3.0);
        assert_eq!(c.exit_code(), 3);
        assert!(c.regressions[0].contains("lpt_fallbacks"), "{}", c.regressions[0]);
        // Equal or shrinking fallback counts pass.
        assert_eq!(compare(&entry(2), &entry(2), 3.0).exit_code(), 0);
        assert_eq!(compare(&entry(0), &entry(2), 3.0).exit_code(), 0);
    }

    #[test]
    fn restricted_baseline_gates_only_the_subset() {
        let base = baseline_of(&[("fig1", 1.0, 100), ("fig2", 1.0, 100)]);
        let cur = baseline_of(&[("fig1", 1.0, 100)]);
        // Unrestricted: the absent fig2 is a (spurious, for a subset run)
        // regression. Restricted: clean pass.
        assert_eq!(compare(&cur, &base, 3.0).exit_code(), 3);
        let restricted = base.restricted_to(&["fig1"]);
        assert_eq!(restricted.experiments.len(), 1);
        assert_eq!(compare(&cur, &restricted, 3.0).exit_code(), 0);
    }

    #[test]
    fn compare_flags_missing_and_tolerates_new() {
        let base = baseline_of(&[("fig1", 1.0, 100), ("fig2", 1.0, 100)]);
        let cur = baseline_of(&[("fig1", 1.0, 100), ("fig9", 1.0, 100)]);
        let c = compare(&cur, &base, 3.0);
        assert_eq!(c.regressions.len(), 1, "{:?}", c.regressions);
        assert!(c.regressions[0].contains("fig2"));
        assert!(c.lines.iter().any(|l| l.contains("fig9") && l.contains("no baseline")));
    }

    #[test]
    fn compare_rejects_mode_and_schema_mismatch() {
        let base = baseline_of(&[("fig1", 1.0, 100)]);
        let mut cur = baseline_of(&[("fig1", 1.0, 100)]);
        cur.quick = false;
        assert_eq!(compare(&cur, &base, 3.0).exit_code(), 3);
        let cur = baseline_of(&[("fig1", 1.0, 100)]);
        let mut base2 = base.clone();
        base2.schema_version = 99;
        let c = compare(&cur, &base2, 3.0);
        assert_eq!(c.exit_code(), 3);
        assert!(c.regressions[0].contains("schema_version"));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn compare_rejects_sub_unit_threshold() {
        let base = baseline_of(&[]);
        compare(&base, &base, 0.5);
    }
}
