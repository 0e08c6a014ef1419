//! Workload inputs, generated from the run's seed, and the checks every
//! answer must pass.

use bagsched_baselines::bag_aware_lpt;
use bagsched_types::gen::Family;
use bagsched_types::lowerbound::lower_bounds;
use bagsched_types::{validate_schedule, Instance, InstanceBuilder, MachineId, Schedule};

/// Accuracy parameter of every solve (the CLI's and the daemon's default).
pub const EPSILON: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BnpTight,
    PlaceWide,
    DaemonMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::BnpTight, Workload::PlaceWide, Workload::DaemonMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BnpTight => "bnp-tight",
            Workload::PlaceWide => "place-wide",
            Workload::DaemonMix => "daemon-mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// SplitMix64 of `seed` and `salt`: neighbouring run seeds and list
/// positions give unrelated generator seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One generated instance with the reference values its answers are
/// checked against.
pub struct Case {
    pub label: String,
    pub inst: Instance,
    /// Certified lower bound (`types::lowerbound`).
    pub lower_bound: f64,
    /// Makespan of conflict-aware LPT, the upper end of the EPTAS's
    /// guess grid: no answer may be worse.
    pub lpt_makespan: f64,
}

impl Case {
    pub fn new(label: String, inst: Instance) -> Case {
        let lower_bound = lower_bounds(&inst).combined();
        let lpt_makespan =
            bag_aware_lpt(&inst).expect("generated instances are feasible").makespan(&inst);
        Case { label, inst, lower_bound, lpt_makespan }
    }

    /// Validate an answer: a conflict-free schedule of every job whose
    /// makespan is the one reported, at least the certified lower bound
    /// and at most the bag-aware-LPT makespan.
    pub fn check(&self, schedule: &Schedule, makespan: f64) -> Result<(), String> {
        self.check_feasible(schedule, makespan)?;
        if makespan > self.lpt_makespan * (1.0 + 1e-9) {
            return Err(format!(
                "{}: makespan {makespan} above LPT {}",
                self.label, self.lpt_makespan
            ));
        }
        Ok(())
    }

    /// The part of [`Case::check`] that holds for any schedule of the
    /// pipeline, also one the solver then discards for LPT's.
    pub fn check_feasible(&self, schedule: &Schedule, makespan: f64) -> Result<(), String> {
        validate_schedule(&self.inst, schedule).map_err(|e| format!("{}: {e}", self.label))?;
        let actual = schedule.makespan(&self.inst);
        if (actual - makespan).abs() > 1e-9 * actual.max(1.0) {
            return Err(format!(
                "{}: reported makespan {makespan} but schedule has {actual}",
                self.label
            ));
        }
        if makespan < self.lower_bound * (1.0 - 1e-9) {
            return Err(format!(
                "{}: makespan {makespan} below lower bound {}",
                self.label, self.lower_bound
            ));
        }
        Ok(())
    }

    /// Check an answer that arrived as a wire assignment.
    pub fn check_wire(&self, assignment: &[u32], makespan: f64) -> Result<(), String> {
        let m = self.inst.num_machines();
        if let Some(&bad) = assignment.iter().find(|&&mid| mid as usize >= m) {
            return Err(format!("{}: machine {bad} out of range (m={m})", self.label));
        }
        let schedule =
            Schedule::from_assignment(assignment.iter().map(|&i| MachineId(i)).collect(), m);
        self.check(&schedule, makespan)
    }

    /// How much the answer improves on bag-aware LPT: 1 for an LPT
    /// answer (a fallback, or a pipeline schedule no better than LPT).
    pub fn lpt_gain(&self, makespan: f64) -> f64 {
        self.lpt_makespan / makespan
    }

    pub fn ratio(&self, makespan: f64) -> f64 {
        makespan / self.lower_bound
    }
}

/// `bnp-tight` suite: tight clustered instances (n/m = 3) at four sizes,
/// three generator seeds each, where branch-and-price does nearly all
/// the work. The suite is the same for every run seed: one instance's
/// solve time repeats within 2%, but it moves up to 17x when the same
/// instance's jobs and bags are merely relabelled, so a fresh draw per
/// seed would swing the median far beyond any useful bound.
const BNP_SIZES: [usize; 4] = [600, 800, 1000, 1200];
const BNP_GEN_SEEDS: [u64; 3] = [1, 2, 3];

/// `bnp-tight`: the fixed suite, then one instance drawn from the run
/// seed (an extra size-and-seed pair, relabelled), which is solved and
/// checked like the rest but kept out of the timing medians.
pub fn bnp_tight(seed: u64) -> (Vec<Case>, Case) {
    let suite = BNP_GEN_SEEDS
        .iter()
        .flat_map(|&g| BNP_SIZES.iter().map(move |&n| (n, g)))
        .map(|(n, g)| {
            Case::new(
                format!("clustered {n}/{} seed {g}", n / 3),
                Family::Clustered.generate(n, n / 3, g),
            )
        })
        .collect();
    let n = BNP_SIZES[(mix(seed, 1) % BNP_SIZES.len() as u64) as usize];
    let fresh = relabel(&Family::Clustered.generate(n, n / 3, mix(seed, 2)), mix(seed, 3));
    (suite, Case::new(format!("clustered {n}/{} drawn from run seed {seed}", n / 3), fresh))
}

/// `place-wide` shapes: three wide families at n/m = 10, where the MILP is
/// trivial and placement dominates, plus a narrow many-machine shape
/// whose pattern enumeration hits its budget (the known LPT-fallback
/// cell).
const PLACE_SHAPES: [(Family, usize, usize); 4] = [
    (Family::AdversarialBags, 4000, 400),
    (Family::TightBags, 4000, 400),
    (Family::Uniform, 4000, 400),
    (Family::Uniform, 3000, 1000),
];
const PLACE_GEN_SEEDS: [u64; 3] = [1, 2, 3];

/// `place-wide`: every shape at three generator seeds, the same suite for
/// every run seed (fresh draws per seed moved the solve median by a
/// third), then one instance of a shape drawn from the run seed, which
/// is solved and checked like the rest but kept out of the timing.
pub fn place_wide(seed: u64) -> (Vec<Case>, Case) {
    let case = |(family, n, m): (Family, usize, usize), g: u64, label: String| {
        Case::new(format!("{} {n}/{m} {label}", family.name()), family.generate(n, m, g))
    };
    let suite = PLACE_GEN_SEEDS
        .iter()
        .flat_map(|&g| PLACE_SHAPES.iter().map(move |&shape| (shape, g)))
        .map(|(shape, g)| case(shape, g, format!("seed {g}")))
        .collect();
    let shape = PLACE_SHAPES[(mix(seed, 1) % PLACE_SHAPES.len() as u64) as usize];
    (suite, case(shape, mix(seed, 2), format!("drawn from run seed {seed}")))
}

/// `daemon-mix` shape: small clustered instances, so a cold solve costs a
/// few hundred milliseconds and a cache hit about one.
pub const DAEMON_N: usize = 60;
pub const DAEMON_M: usize = 20;

pub fn daemon_shape(gen_seed: u64, label: String) -> Case {
    Case::new(label, Family::Clustered.generate(DAEMON_N, DAEMON_M, gen_seed))
}

/// A copy of `inst` with three non-maximal job sizes scaled up by less
/// than 0.05%: a different exact fingerprint, the same coarse one (sizes
/// are quantized to 1% of the largest job there, and no clustered size
/// sits within 0.05% below a quantization boundary), so the daemon
/// answers it from its similarity tier.
pub fn jitter(inst: &Instance, salt: u64) -> Instance {
    let max = inst.max_size();
    let n = inst.num_jobs();
    let mut sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
    let start = (salt % n as u64) as usize;
    let picked: Vec<usize> =
        (0..n).map(|k| (start + k) % n).filter(|&k| sizes[k] < max).take(3).collect();
    for (t, &k) in picked.iter().enumerate() {
        let unit = (mix(salt, t as u64) >> 11) as f64 / (1u64 << 53) as f64;
        sizes[k] *= 1.0 + 1e-5 + unit * 4e-4;
    }
    let mut builder = InstanceBuilder::new(inst.num_machines());
    for (job, &size) in inst.jobs().iter().zip(&sizes) {
        builder.push(size, inst.bag_of(job.id).0);
    }
    builder.build()
}

/// The same instance with its jobs reordered and its bags renumbered by
/// a seeded permutation.
pub fn relabel(inst: &Instance, seed: u64) -> Instance {
    let shuffled = |len: usize, salt: u64| -> Vec<usize> {
        let mut v: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            v.swap(i, (mix(seed ^ salt, i as u64) % (i as u64 + 1)) as usize);
        }
        v
    };
    let order = shuffled(inst.num_jobs(), 0x10b5);
    let bag_label = shuffled(inst.num_bags(), 0xba95);
    let mut builder = InstanceBuilder::new(inst.num_machines());
    for j in order {
        let job = &inst.jobs()[j];
        builder.push(job.size, bag_label[inst.bag_of(job.id).idx()] as u32);
    }
    builder.build()
}
