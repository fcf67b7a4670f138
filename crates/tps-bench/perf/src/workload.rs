//! The four benchmark workloads. Each is a list of experiment specs that
//! one repetition runs through the public path `tps_run` takes; `--seed`
//! becomes every spec's base seed, so seed 7 reproduces
//! `tps_run ... --threads 1 --seed 7` byte for byte.

use tps_sim::{ExperimentCell, ExperimentSpec, Mechanism, TenantCount};
use tps_wl::SuiteScale;

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: the layer it stresses.
    pub why: &'static str,
    /// Repetitions `tps-perf run` takes of it.
    pub run_reps: usize,
    specs: fn() -> Vec<ExperimentSpec>,
}

/// The workloads, in the order `run` interleaves them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "solo-translate",
        why: "STLB bound: STLB and range-TLB hits take two thirds of step time, first-touch faults (which hold nearly all its walks) most of the rest",
        run_reps: 5,
        specs: solo_translate,
    },
    Workload {
        name: "solo-tps",
        why: "fault bound: first-touch faults and promotions take most of step time, over an all-L1-hit steady state; OS and buddy work shows here, STLB work reads flat",
        run_reps: 5,
        specs: solo_tps,
    },
    Workload {
        name: "tenants-64",
        why: "64 tenants thrash the shared L1: STLB hits take three quarters of step time, and it is the only workload where page walks outside faults take a real share",
        run_reps: 5,
        specs: tenants_64,
    },
    Workload {
        name: "graph500-build",
        why: "set-up bound: R-MAT construction in tps-wl is most of the wall time; simulator-layer changes must read as no change",
        run_reps: 3,
        specs: graph500_build,
    },
];

/// The benchmarks the solo workloads sweep.
const SOLO_BENCHES: [&str; 4] = ["gups", "xsbench", "dbx1000", "mcf"];

fn solo_translate() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec::new()
            .benches(SOLO_BENCHES)
            .mechanisms([Mechanism::Thp, Mechanism::Colt, Mechanism::Rmm])
            .scale(SuiteScale::Small),
        // The nested (virtualized) walk path.
        ExperimentSpec::new()
            .bench("gups")
            .mechanism(Mechanism::Thp)
            .scale(SuiteScale::Small)
            .virtualized(true),
    ]
}

fn solo_tps() -> Vec<ExperimentSpec> {
    vec![ExperimentSpec::new()
        .benches(SOLO_BENCHES)
        .mechanism(Mechanism::Tps)
        .scale(SuiteScale::Small)]
}

/// Two cells, so a 30-second run holds a dozen repetitions: the gups
/// cells would make a repetition 2.6 times as long and leave too few to
/// out-vote a burst of interference.
fn tenants_64() -> Vec<ExperimentSpec> {
    vec![ExperimentSpec::new()
        .bench("xsbench")
        .mechanisms([Mechanism::Thp, Mechanism::Tps])
        .scale(SuiteScale::Test)
        .tenants(TenantCount::new(64).expect("64 is a legal tenant count"))]
}

fn graph500_build() -> Vec<ExperimentSpec> {
    vec![ExperimentSpec::new()
        .bench("graph500")
        .mechanism(Mechanism::Thp)
        .scale(SuiteScale::Small)]
}

/// A test-scale workload for unit tests of the measuring code.
#[cfg(test)]
pub const TINY: Workload = Workload {
    name: "tiny",
    why: "unit tests",
    run_reps: 1,
    specs: tiny,
};

#[cfg(test)]
fn tiny() -> Vec<ExperimentSpec> {
    vec![ExperimentSpec::new()
        .bench("gups")
        .mechanisms([Mechanism::Thp, Mechanism::Tps])
        .scale(SuiteScale::Test)]
}

impl Workload {
    /// The workload's specs at `seed`, each on one worker thread: the
    /// reference machine has two cores, and the benchmark's own parent
    /// process must not compete with the measured run.
    pub fn specs(&self, seed: u64) -> Vec<ExperimentSpec> {
        (self.specs)()
            .into_iter()
            .map(|spec| spec.seed(seed).threads(1))
            .collect()
    }

    /// Cells one repetition runs.
    pub fn cells(&self, seed: u64) -> usize {
        self.specs(seed)
            .into_iter()
            .map(|spec| spec.build().expect("workload specs are valid").len())
            .sum()
    }
}

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The workload seeds of one cell's tenants, as the matrix runner derives
/// them: a solo cell runs from the cell seed itself, a multi-tenant cell
/// from `tps_wl::tenant_seeds` over it.
pub fn tenant_seeds(spec: &ExperimentSpec, cell: &ExperimentCell) -> Vec<u64> {
    let tenants = spec.tenant_count();
    if tenants.is_solo() {
        vec![cell.seed()]
    } else {
        tps_wl::tenant_seeds(cell.seed(), tenants.get())
    }
}
