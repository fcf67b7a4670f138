//! Declarative experiment specification and its expansion into cells.

use crate::config::{MachineConfig, Mechanism};
use crate::machine::OnOom;
use tps_core::rng::SplitMix64;
use tps_core::{FaultPlanConfig, TpsError};
use tps_wl::{profiling_names, suite_names, SuiteScale};

/// Default base seed of an [`ExperimentSpec`] (spells "TPS matrix").
pub const DEFAULT_EXPERIMENT_SEED: u64 = 0x7e57_3a72_1000_0001;

/// Largest tenant count an [`ExperimentSpec`] accepts. Bounds worst-case
/// memory and runtime of a single cell; far above the paper's workloads
/// and the 1,000-tenant smoke test.
// tps-lint::allow(no-magic-page-size, reason = "a process-count cap that coincides with a page-size value; not an address or size")
pub const MAX_TENANTS: u32 = 4096;

/// How many tenant processes each cell's machine runs: the `tenants` axis
/// of an [`ExperimentSpec`]. Always in `1..=`[`MAX_TENANTS`].
///
/// Parses from and displays as the bare number, so CLI flags and JSON
/// round-trip exactly:
///
/// ```
/// use tps_sim::TenantCount;
/// let n: TenantCount = "8".parse().unwrap();
/// assert_eq!(n.get(), 8);
/// assert_eq!(n.to_string(), "8");
/// assert!("0".parse::<TenantCount>().is_err());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantCount(std::num::NonZeroU32);

impl TenantCount {
    /// One tenant: the classic single-process machine.
    pub const SOLO: TenantCount = match std::num::NonZeroU32::new(1) {
        Some(one) => TenantCount(one),
        None => unreachable!(),
    };

    /// Validates a tenant count.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::InvalidSpec`] when `n` is zero or exceeds
    /// [`MAX_TENANTS`].
    pub fn new(n: u32) -> Result<Self, TpsError> {
        match std::num::NonZeroU32::new(n) {
            Some(n) if n.get() <= MAX_TENANTS => Ok(TenantCount(n)),
            Some(n) => Err(TpsError::invalid_spec(format!(
                "tenants {n} exceeds the maximum of {MAX_TENANTS}"
            ))),
            None => Err(TpsError::invalid_spec("tenants must be >= 1")),
        }
    }

    /// The count as a plain integer.
    pub fn get(self) -> u32 {
        self.0.get()
    }

    /// Whether this is the single-tenant (classic) machine.
    pub fn is_solo(self) -> bool {
        self.get() == 1
    }
}

impl Default for TenantCount {
    fn default() -> Self {
        TenantCount::SOLO
    }
}

impl std::fmt::Display for TenantCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

impl std::str::FromStr for TenantCount {
    type Err = TpsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let n: u32 = s
            .parse()
            .map_err(|_| TpsError::invalid_spec(format!("invalid tenant count {s:?}")))?;
        TenantCount::new(n)
    }
}

/// A declarative (benchmark × mechanism) experiment matrix, built with a
/// fluent API and expanded by [`ExperimentSpec::build`].
///
/// One spec describes everything a paper figure needs: which benchmarks
/// and mechanisms to sweep, the machine configuration shared by every
/// cell, the base seed from which per-cell seeds derive, and how many
/// worker threads may run cells concurrently. Expansion is deterministic:
/// cells are ordered benchmark-major in the order given, and each cell's
/// seed depends only on the base seed and the cell's position, never on
/// thread scheduling.
///
/// # Example
///
/// ```
/// use tps_sim::{ExperimentSpec, Mechanism};
/// use tps_wl::SuiteScale;
///
/// let matrix = ExperimentSpec::new()
///     .bench("gups")
///     .mechanisms([Mechanism::Thp, Mechanism::Tps])
///     .scale(SuiteScale::Test)
///     .build()
///     .unwrap();
/// assert_eq!(matrix.cells().len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    benchmarks: Vec<String>,
    mechanisms: Vec<Mechanism>,
    scale: SuiteScale,
    smt: bool,
    tenants: TenantCount,
    on_oom: OnOom,
    tenant_cap: Option<(u32, u64)>,
    virtualized: bool,
    five_level: bool,
    perfect_l1: bool,
    perfect_l2: bool,
    threshold: Option<f64>,
    verify: bool,
    memory_bytes: Option<u64>,
    baseline: Option<Mechanism>,
    seed: u64,
    threads: Option<usize>,
    cell_timeout_ms: Option<u64>,
    retries: u32,
    faults: Option<FaultPlanConfig>,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            benchmarks: Vec::new(),
            mechanisms: Vec::new(),
            scale: SuiteScale::Small,
            smt: false,
            tenants: TenantCount::SOLO,
            on_oom: OnOom::FailFast,
            tenant_cap: None,
            virtualized: false,
            five_level: false,
            perfect_l1: false,
            perfect_l2: false,
            threshold: None,
            verify: false,
            memory_bytes: None,
            baseline: None,
            seed: DEFAULT_EXPERIMENT_SEED,
            threads: None,
            cell_timeout_ms: None,
            retries: 0,
            faults: None,
        }
    }
}

impl ExperimentSpec {
    /// An empty spec: no benchmarks or mechanisms selected yet,
    /// `SuiteScale::Small`, native (non-SMT) execution, default seed, and
    /// worker threads = available parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one benchmark (a [`tps_wl::suite_names`] /
    /// [`tps_wl::profiling_names`] member).
    #[must_use]
    pub fn bench(mut self, name: impl Into<String>) -> Self {
        self.benchmarks.push(name.into());
        self
    }

    /// Appends several benchmarks.
    #[must_use]
    pub fn benches<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.benchmarks.extend(names.into_iter().map(Into::into));
        self
    }

    /// Selects the paper's TLB-intensive evaluation suite (Figs. 10–18).
    #[must_use]
    pub fn suite(self) -> Self {
        self.benches(suite_names())
    }

    /// Appends one mechanism.
    #[must_use]
    pub fn mechanism(mut self, mech: Mechanism) -> Self {
        self.mechanisms.push(mech);
        self
    }

    /// Appends several mechanisms.
    #[must_use]
    pub fn mechanisms<I>(mut self, mechs: I) -> Self
    where
        I: IntoIterator<Item = Mechanism>,
    {
        self.mechanisms.extend(mechs);
        self
    }

    /// Selects every mechanism ([`Mechanism::all`]).
    #[must_use]
    pub fn all_mechanisms(self) -> Self {
        let all = Mechanism::all();
        self.mechanisms(all)
    }

    /// Sets the workload scale (default [`SuiteScale::Small`]).
    #[must_use]
    pub fn scale(mut self, scale: SuiteScale) -> Self {
        self.scale = scale;
        self
    }

    /// Runs each cell as two SMT siblings sharing translation hardware.
    #[must_use]
    pub fn smt(mut self, smt: bool) -> Self {
        self.smt = smt;
        self
    }

    /// Runs each cell as `tenants` co-scheduled processes of the same
    /// benchmark, each with its own address space and per-tenant seed,
    /// sharing one machine's physical memory and translation hardware
    /// (default [`TenantCount::SOLO`]). Modeled memory scales with the
    /// tenant count unless [`ExperimentSpec::memory`] overrides it.
    #[must_use]
    pub fn tenants(mut self, tenants: TenantCount) -> Self {
        self.tenants = tenants;
        self
    }

    /// Sets the machine-level OOM policy every cell's machine runs under
    /// (default [`OnOom::FailFast`]).
    #[must_use]
    pub fn on_oom(mut self, policy: OnOom) -> Self {
        self.on_oom = policy;
        self
    }

    /// Caps tenant `slot`'s mapped bytes at `bytes` in every cell —
    /// exceeding it raises a cap fault and the machine kills that tenant.
    /// The knob behind the noisy-neighbor containment gates.
    #[must_use]
    pub fn tenant_cap(mut self, slot: u32, bytes: u64) -> Self {
        self.tenant_cap = Some((slot, bytes));
        self
    }

    /// Models two-dimensional (virtualized) page walks.
    #[must_use]
    pub fn virtualized(mut self, virtualized: bool) -> Self {
        self.virtualized = virtualized;
        self
    }

    /// Models five-level (LA57) paging.
    #[must_use]
    pub fn five_level(mut self, five_level: bool) -> Self {
        self.five_level = five_level;
        self
    }

    /// Models a perfect L1 TLB (Fig. 3 / ideal-speedup columns).
    #[must_use]
    pub fn perfect_l1(mut self, perfect: bool) -> Self {
        self.perfect_l1 = perfect;
        self
    }

    /// Models a perfect L2 (STLB) level (Fig. 3).
    #[must_use]
    pub fn perfect_l2(mut self, perfect: bool) -> Self {
        self.perfect_l2 = perfect;
        self
    }

    /// Overrides the paging policy's utilization threshold, in `(0, 1]`.
    #[must_use]
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.threshold = Some(threshold);
        self
    }

    /// Cross-checks every translation against the page table (slow).
    #[must_use]
    pub fn verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Overrides the modeled physical memory size. Without this, each
    /// cell models [`SuiteScale::recommended_memory`] (doubled under SMT).
    #[must_use]
    pub fn memory(mut self, bytes: u64) -> Self {
        self.memory_bytes = Some(bytes);
        self
    }

    /// Sets the mechanism derived metrics compare against. Without this,
    /// [`Mechanism::Thp`] is used when it is part of the sweep.
    #[must_use]
    pub fn baseline(mut self, mech: Mechanism) -> Self {
        self.baseline = Some(mech);
        self
    }

    /// Sets the base seed from which every cell seed derives.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the worker pool at `threads` (must be ≥ 1). Without this, the
    /// pool uses [`std::thread::available_parallelism`].
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Gives every cell attempt a wall-clock deadline in milliseconds,
    /// enforced by a watchdog. A timed-out attempt is abandoned and counts
    /// as a failure ([`super::FailureCause::Timeout`]); the cell is retried
    /// through its [`ExperimentSpec::retries`] budget. Off by default.
    ///
    /// Timeouts depend on wall-clock speed, so a spec relying on them is
    /// outside the byte-determinism contract; panic- and fault-caused
    /// failures stay deterministic.
    #[must_use]
    pub fn cell_timeout_ms(mut self, ms: u64) -> Self {
        self.cell_timeout_ms = Some(ms);
        self
    }

    /// Retries a failed (timed-out, panicked, or faulted) cell up to
    /// `retries` more times, each attempt from the cell's same pinned
    /// workload seed. Fault-plan seeds differ per attempt (deterministically
    /// — they derive from the attempt number), so a fault-induced failure
    /// can succeed on retry; a deterministic panic fails every attempt and
    /// degrades to a [`super::CellFailure`]. Default 0.
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Injects faults into every cell from this plan configuration. Each
    /// cell (and each retry attempt) runs its own [`tps_core::FaultPlan`]
    /// seeded from `config.seed`, the cell's pinned seed, and the attempt
    /// number, so results stay independent of thread scheduling.
    #[must_use]
    pub fn faults(mut self, config: FaultPlanConfig) -> Self {
        self.faults = Some(config);
        self
    }

    /// The selected benchmarks, in sweep order.
    pub fn benchmark_names(&self) -> &[String] {
        &self.benchmarks
    }

    /// The selected mechanisms, in sweep order.
    pub fn mechanism_list(&self) -> &[Mechanism] {
        &self.mechanisms
    }

    /// The workload scale.
    pub fn suite_scale(&self) -> SuiteScale {
        self.scale
    }

    /// Whether cells run as SMT sibling pairs.
    pub fn is_smt(&self) -> bool {
        self.smt
    }

    /// How many tenant processes each cell's machine runs.
    pub fn tenant_count(&self) -> TenantCount {
        self.tenants
    }

    /// How many processes each cell's machine runs: the tenant count, or
    /// the two hardware threads of an SMT cell.
    pub(crate) fn cell_tenants(&self) -> u32 {
        if self.smt {
            2
        } else {
            self.tenants.get()
        }
    }

    /// The machine-level OOM policy cells run under.
    pub fn oom_policy(&self) -> OnOom {
        self.on_oom
    }

    /// The per-tenant memory cap, if one is configured: `(slot, bytes)`.
    pub fn tenant_cap_config(&self) -> Option<(u32, u64)> {
        self.tenant_cap
    }

    /// The base seed.
    pub fn base_seed(&self) -> u64 {
        self.seed
    }

    /// The per-attempt cell deadline, if one is configured.
    pub fn cell_timeout(&self) -> Option<std::time::Duration> {
        self.cell_timeout_ms.map(std::time::Duration::from_millis)
    }

    /// Extra attempts granted to a failing cell.
    pub fn retry_limit(&self) -> u32 {
        self.retries
    }

    /// The fault-plan configuration cells run under, if any.
    pub fn fault_config(&self) -> Option<FaultPlanConfig> {
        self.faults
    }

    /// The baseline mechanism derived metrics will use, if any.
    pub fn baseline_mechanism(&self) -> Option<Mechanism> {
        self.baseline.or_else(|| {
            self.mechanisms
                .contains(&Mechanism::Thp)
                .then_some(Mechanism::Thp)
        })
    }

    /// Worker threads the pool will use: the explicit cap, else available
    /// parallelism, never more than the number of cells (and at least 1).
    pub fn resolved_threads(&self, cells: usize) -> usize {
        let requested = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        requested.min(cells).max(1)
    }

    /// The machine configuration one cell under `mech` runs.
    pub fn machine_config(&self, mech: Mechanism) -> MachineConfig {
        let memory = self.memory_bytes.unwrap_or_else(|| {
            // Each co-scheduled process (SMT sibling or tenant) brings its
            // own working set, so the modeled memory scales with them.
            self.scale.recommended_memory() * u64::from(self.cell_tenants())
        });
        let mut config = MachineConfig::for_mechanism(mech).with_memory(memory);
        config.virtualized = self.virtualized;
        config.five_level_paging = self.five_level;
        config.perfect_l1 = self.perfect_l1;
        config.perfect_l2 = self.perfect_l2;
        config.verify_translations = self.verify;
        if let Some(t) = self.threshold {
            config.policy = config.policy.with_threshold(t);
        }
        config
    }

    /// A stable fingerprint over every result-affecting field, written
    /// into checkpoint journals so a resume against a different spec is
    /// rejected instead of splicing mismatched results together. Worker
    /// thread count is deliberately excluded (it never changes results).
    pub fn fingerprint(&self) -> u64 {
        let faults = match self.faults {
            Some(cfg) => format!("{cfg:?}"),
            None => "none".to_string(),
        };
        let desc = format!(
            "benches={:?} mechs={:?} scale={} smt={} virt={} five={} pl1={} pl2={} \
             thr={:?} verify={} mem={:?} base={:?} seed={} retries={} timeout={:?} faults={}",
            self.benchmarks,
            self.mechanisms
                .iter()
                .map(|m| m.label())
                .collect::<Vec<_>>(),
            self.scale.label(),
            self.smt,
            self.virtualized,
            self.five_level,
            self.perfect_l1,
            self.perfect_l2,
            self.threshold.map(f64::to_bits),
            self.verify,
            self.memory_bytes,
            self.baseline.map(Mechanism::label),
            self.seed,
            self.retries,
            self.cell_timeout_ms,
            faults,
        );
        // The tenants axis is appended only when it deviates from the
        // classic single-tenant machine, so every fingerprint recorded
        // before the axis existed stays valid.
        let desc = if self.tenants.is_solo() {
            desc
        } else {
            format!("{desc} tenants={}", self.tenants)
        };
        // Containment knobs follow the same rule: appended only when they
        // deviate from the defaults, so pre-containment fingerprints (and
        // the journals carrying them) stay valid.
        let desc = if self.on_oom == OnOom::FailFast {
            desc
        } else {
            format!("{desc} on_oom={}", self.on_oom)
        };
        let desc = match self.tenant_cap {
            None => desc,
            Some((slot, bytes)) => format!("{desc} cap={slot}:{bytes}"),
        };
        // FNV-1a: tiny, dependency-free, and stable across builds (the
        // std hasher's keys are unspecified between releases).
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in desc.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Validates the spec and expands it into runnable cells, ordered
    /// benchmark-major in the order benchmarks and mechanisms were added.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::InvalidSpec`] when no benchmark or mechanism is
    /// selected, a benchmark name is unknown, a (benchmark, mechanism)
    /// pair repeats, the threshold is outside `(0, 1]`, the explicit
    /// baseline is not part of the sweep, `threads` is zero, or fault
    /// injection is combined with SMT.
    pub fn build(self) -> Result<ExperimentMatrix, TpsError> {
        if self.benchmarks.is_empty() {
            return Err(TpsError::invalid_spec("no benchmarks selected"));
        }
        if self.mechanisms.is_empty() {
            return Err(TpsError::invalid_spec("no mechanisms selected"));
        }
        let known = profiling_names();
        for name in &self.benchmarks {
            if !known.contains(&name.as_str()) {
                return Err(TpsError::invalid_spec(format!(
                    "unknown benchmark {name:?} (known: {})",
                    known.join(", ")
                )));
            }
        }
        if let Some(t) = self.threshold {
            if !(t > 0.0 && t <= 1.0) {
                return Err(TpsError::invalid_spec(format!(
                    "threshold {t} outside (0, 1]"
                )));
            }
        }
        if let Some(base) = self.baseline {
            if !self.mechanisms.contains(&base) {
                return Err(TpsError::invalid_spec(format!(
                    "baseline {base} is not part of the mechanism sweep"
                )));
            }
        }
        if self.threads == Some(0) {
            return Err(TpsError::invalid_spec("threads must be >= 1"));
        }
        if self.faults.is_some() && self.smt {
            return Err(TpsError::invalid_spec(
                "fault injection is not supported under SMT \
                 (sibling threads would share one fault stream)",
            ));
        }
        if self.smt && !self.tenants.is_solo() {
            return Err(TpsError::invalid_spec(
                "smt and tenants > 1 are mutually exclusive \
                 (SMT is the fixed two-tenant shared-core case)",
            ));
        }
        if let Some((slot, bytes)) = self.tenant_cap {
            if slot >= self.tenants.get() {
                return Err(TpsError::invalid_spec(format!(
                    "tenant cap targets slot {slot}, but the machine runs {} tenant{}",
                    self.tenants,
                    if self.tenants.is_solo() { "" } else { "s" }
                )));
            }
            if bytes == 0 {
                return Err(TpsError::invalid_spec("tenant cap must be >= 1 byte"));
            }
            if self.smt {
                return Err(TpsError::invalid_spec(
                    "tenant caps are not supported under SMT",
                ));
            }
        }
        let mut cells = Vec::with_capacity(self.benchmarks.len() * self.mechanisms.len());
        for bench in &self.benchmarks {
            for &mech in &self.mechanisms {
                let index = cells.len() as u64;
                if cells
                    .iter()
                    .any(|c: &ExperimentCell| c.benchmark == *bench && c.mechanism == mech)
                {
                    return Err(TpsError::invalid_spec(format!(
                        "duplicate cell ({bench}, {mech})"
                    )));
                }
                cells.push(ExperimentCell {
                    index,
                    benchmark: bench.clone(),
                    mechanism: mech,
                    seed: cell_seed(self.seed, index),
                });
            }
        }
        Ok(ExperimentMatrix { spec: self, cells })
    }
}

/// The per-cell seed: a SplitMix64 hash of the base seed and the cell's
/// stable position, so reordering threads can never change it.
fn cell_seed(base: u64, index: u64) -> u64 {
    SplitMix64::new(base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// One runnable (benchmark × mechanism) combination of a matrix.
#[derive(Clone, Debug)]
pub struct ExperimentCell {
    pub(crate) index: u64,
    pub(crate) benchmark: String,
    pub(crate) mechanism: Mechanism,
    pub(crate) seed: u64,
}

impl ExperimentCell {
    /// The cell's stable position in spec order.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The benchmark this cell runs.
    pub fn benchmark(&self) -> &str {
        &self.benchmark
    }

    /// The mechanism this cell runs under.
    pub fn mechanism(&self) -> Mechanism {
        self.mechanism
    }

    /// The cell's deterministic workload seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// A validated, expanded experiment matrix, ready to run.
#[derive(Clone, Debug)]
pub struct ExperimentMatrix {
    pub(crate) spec: ExperimentSpec,
    pub(crate) cells: Vec<ExperimentCell>,
}

impl ExperimentMatrix {
    /// The spec this matrix was expanded from.
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// The cells, in stable spec order.
    pub fn cells(&self) -> &[ExperimentCell] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the matrix has no cells (impossible for a built matrix,
    /// provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_benchmark_major_and_seeded() {
        let matrix = ExperimentSpec::new()
            .benches(["gups", "xsbench"])
            .mechanisms([Mechanism::Thp, Mechanism::Tps])
            .scale(SuiteScale::Test)
            .seed(7)
            .build()
            .unwrap();
        let order: Vec<(String, Mechanism)> = matrix
            .cells()
            .iter()
            .map(|c| (c.benchmark().to_string(), c.mechanism()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("gups".to_string(), Mechanism::Thp),
                ("gups".to_string(), Mechanism::Tps),
                ("xsbench".to_string(), Mechanism::Thp),
                ("xsbench".to_string(), Mechanism::Tps),
            ]
        );
        // Seeds are pinned by (base seed, index) alone.
        let again = ExperimentSpec::new()
            .benches(["gups", "xsbench"])
            .mechanisms([Mechanism::Thp, Mechanism::Tps])
            .scale(SuiteScale::Test)
            .seed(7)
            .build()
            .unwrap();
        for (a, b) in matrix.cells().iter().zip(again.cells()) {
            assert_eq!(a.seed(), b.seed());
        }
        let seeds: std::collections::BTreeSet<u64> =
            matrix.cells().iter().map(|c| c.seed()).collect();
        assert_eq!(seeds.len(), 4, "cell seeds are distinct");
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let unknown = ExperimentSpec::new()
            .bench("nonesuch")
            .mechanism(Mechanism::Tps)
            .build();
        assert!(matches!(unknown, Err(TpsError::InvalidSpec { .. })));
        let empty = ExperimentSpec::new().mechanism(Mechanism::Tps).build();
        assert!(matches!(empty, Err(TpsError::InvalidSpec { .. })));
        let no_mech = ExperimentSpec::new().bench("gups").build();
        assert!(matches!(no_mech, Err(TpsError::InvalidSpec { .. })));
        let dup = ExperimentSpec::new()
            .bench("gups")
            .mechanisms([Mechanism::Tps, Mechanism::Tps])
            .build();
        assert!(matches!(dup, Err(TpsError::InvalidSpec { .. })));
        let thr = ExperimentSpec::new()
            .bench("gups")
            .mechanism(Mechanism::Tps)
            .threshold(1.5)
            .build();
        assert!(matches!(thr, Err(TpsError::InvalidSpec { .. })));
        let zero = ExperimentSpec::new()
            .bench("gups")
            .mechanism(Mechanism::Tps)
            .threads(0)
            .build();
        assert!(matches!(zero, Err(TpsError::InvalidSpec { .. })));
        let stray_baseline = ExperimentSpec::new()
            .bench("gups")
            .mechanism(Mechanism::Tps)
            .baseline(Mechanism::Rmm)
            .build();
        assert!(matches!(stray_baseline, Err(TpsError::InvalidSpec { .. })));
    }

    #[test]
    fn baseline_defaults_to_thp_when_swept() {
        let with_thp = ExperimentSpec::new()
            .bench("gups")
            .mechanisms([Mechanism::Thp, Mechanism::Tps]);
        assert_eq!(with_thp.baseline_mechanism(), Some(Mechanism::Thp));
        let without = ExperimentSpec::new()
            .bench("gups")
            .mechanism(Mechanism::Tps);
        assert_eq!(without.baseline_mechanism(), None);
    }

    #[test]
    fn machine_config_mirrors_spec() {
        let spec = ExperimentSpec::new()
            .scale(SuiteScale::Test)
            .virtualized(true)
            .five_level(true)
            .threshold(0.5)
            .verify(true);
        let config = spec.machine_config(Mechanism::Tps);
        assert!(config.virtualized && config.five_level_paging && config.verify_translations);
        assert_eq!(config.memory_bytes, SuiteScale::Test.recommended_memory());
        let smt_config = spec.smt(true).machine_config(Mechanism::Tps);
        assert_eq!(
            smt_config.memory_bytes,
            2 * SuiteScale::Test.recommended_memory()
        );
        let tiny = ExperimentSpec::new().memory(1 << 20);
        assert_eq!(tiny.machine_config(Mechanism::Thp).memory_bytes, 1 << 20);
    }

    #[test]
    fn tenant_count_round_trips_exhaustively() {
        // Every legal count survives Display → FromStr unchanged.
        for n in 1..=MAX_TENANTS {
            let count = TenantCount::new(n).unwrap();
            let reparsed: TenantCount = count.to_string().parse().unwrap();
            assert_eq!(count, reparsed);
            assert_eq!(reparsed.get(), n);
        }
        // And everything outside the band is rejected.
        for bad in ["0", "4097", "1000000000000", "-3", "eight", ""] {
            assert!(bad.parse::<TenantCount>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn tenants_axis_scales_memory_and_guards_smt() {
        let spec = ExperimentSpec::new()
            .scale(SuiteScale::Test)
            .tenants(TenantCount::new(8).unwrap());
        assert_eq!(
            spec.machine_config(Mechanism::Tps).memory_bytes,
            8 * SuiteScale::Test.recommended_memory()
        );
        let clash = spec
            .clone()
            .bench("gups")
            .mechanism(Mechanism::Tps)
            .smt(true)
            .build();
        assert!(matches!(clash, Err(TpsError::InvalidSpec { .. })));
        // The fingerprint of a solo spec is unchanged by the axis' mere
        // existence, and a multi-tenant spec fingerprints differently.
        let solo = ExperimentSpec::new()
            .bench("gups")
            .mechanism(Mechanism::Tps);
        let solo_explicit = solo.clone().tenants(TenantCount::SOLO);
        assert_eq!(solo.fingerprint(), solo_explicit.fingerprint());
        let multi = solo.clone().tenants(TenantCount::new(8).unwrap());
        assert_ne!(solo.fingerprint(), multi.fingerprint());
    }

    #[test]
    fn resolved_threads_is_bounded() {
        let spec = ExperimentSpec::new().threads(8);
        assert_eq!(spec.resolved_threads(3), 3, "never more threads than cells");
        assert_eq!(spec.resolved_threads(100), 8);
        let auto = ExperimentSpec::new();
        assert!(auto.resolved_threads(1000) >= 1);
    }
}
