//! Aggregated experiment results and their versioned JSON serialization.

use crate::config::Mechanism;
use crate::stats::{HwFaultStats, MachineRunStats, RunStats};
use crate::timing::TimingModel;
use tps_wl::SuiteScale;

use super::checkpoint::outcome_json;
use super::json::Json;
use super::spec::{ExperimentMatrix, TenantCount};

/// The `"schema"` marker every serialized report carries.
pub const REPORT_SCHEMA: &str = "tps-experiment-report";

/// Version of the serialized report layout. Bump when a field changes
/// meaning or disappears; adding fields is backward compatible.
pub const REPORT_VERSION: u64 = 1;

/// Why one cell ended in failure after exhausting its retry budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureCause {
    /// The cell exceeded the spec's per-cell deadline.
    Timeout,
    /// The cell panicked with no fault injection configured.
    Panic,
    /// The cell failed (panicked or errored) while fault injection was
    /// active — the injected faults are the presumed trigger.
    Fault,
}

impl FailureCause {
    /// The stable label serialized into reports and checkpoints.
    pub fn label(self) -> &'static str {
        match self {
            FailureCause::Timeout => "timeout",
            FailureCause::Panic => "panic",
            FailureCause::Fault => "fault",
        }
    }

    /// Parses a serialized label back (checkpoint resume).
    pub fn from_label(label: &str) -> Option<FailureCause> {
        match label {
            "timeout" => Some(FailureCause::Timeout),
            "panic" => Some(FailureCause::Panic),
            "fault" => Some(FailureCause::Fault),
            _ => None,
        }
    }
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The structured failure record of one cell: every attempt (original run
/// plus retries) failed, and the last failure is preserved here instead of
/// poisoning the rest of the matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellFailure {
    /// What went wrong on the final attempt.
    pub cause: FailureCause,
    /// Attempts consumed (1 without retries; `retries + 1` when the cell
    /// kept failing through its whole budget).
    pub attempts: u32,
    /// Human-readable description of the final failure.
    pub message: String,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} after {} attempt{}: {}",
            self.cause,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

/// Paper metrics derived for one cell at aggregation time.
///
/// Baseline-relative fields are `None` when the sweep has no baseline
/// mechanism or the baseline cell for the same benchmark failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct DerivedMetrics {
    /// Execution-time speedup over the baseline mechanism (Figs. 13/14).
    pub speedup_vs_baseline: Option<f64>,
    /// Fraction of L1 DTLB misses eliminated vs. the baseline (Fig. 10).
    pub l1_miss_elimination: Option<f64>,
    /// Fraction of page-walk memory references eliminated (Fig. 11).
    pub walk_ref_elimination: Option<f64>,
    /// Resident bytes over demand-touched bytes (Fig. 9 memory bloat);
    /// `None` when the run touched nothing.
    pub memory_bloat: Option<f64>,
}

/// One aggregated cell: identity, outcome, and derived metrics.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// The benchmark this cell ran.
    pub benchmark: String,
    /// The mechanism this cell ran under.
    pub mechanism: Mechanism,
    /// The cell's pinned workload seed.
    pub seed: u64,
    /// The run's statistics — the machine-wide rollup plus per-tenant
    /// breakdowns — or the structured failure (a failed or panicked cell
    /// never aborts the rest of the matrix).
    pub result: Result<MachineRunStats, CellFailure>,
    /// Derived paper metrics; `None` for failed cells.
    pub derived: Option<DerivedMetrics>,
}

/// Results of one matrix run, in stable spec order.
///
/// The report is the shared result format of the CLI, the figure
/// harnesses, and regression tooling: [`ExperimentReport::to_json`]
/// serializes it to a versioned document whose bytes depend only on the
/// spec and the simulation results — never on thread count or scheduling.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    scale: SuiteScale,
    smt: bool,
    tenants: TenantCount,
    seed: u64,
    baseline: Option<Mechanism>,
    cells: Vec<CellReport>,
    /// Corrupt journal entries a salvage resume dropped (and re-ran).
    /// `None` for every run that did not salvage, so the serialized
    /// document of a clean run is unchanged.
    salvage_dropped: Option<u64>,
}

impl ExperimentReport {
    /// Aggregates pool results (in cell order) into a report.
    pub(crate) fn aggregate(
        matrix: &ExperimentMatrix,
        results: Vec<Result<MachineRunStats, CellFailure>>,
    ) -> ExperimentReport {
        let spec = matrix.spec();
        let baseline = spec.baseline_mechanism();
        let model = TimingModel::default();
        let smt = spec.is_smt();
        let mut cells: Vec<CellReport> = matrix
            .cells()
            .iter()
            .zip(results)
            .map(|(cell, result)| CellReport {
                benchmark: cell.benchmark().to_string(),
                mechanism: cell.mechanism(),
                seed: cell.seed(),
                result,
                derived: None,
            })
            .collect();
        for i in 0..cells.len() {
            // Derived metrics compare machine-wide rollups: the figures
            // report whole-machine behavior whatever the tenant count.
            let Ok(machine) = &cells[i].result else {
                continue;
            };
            let stats = &machine.global;
            let mut derived = DerivedMetrics {
                memory_bloat: (stats.touched_bytes > 0)
                    .then(|| stats.resident_bytes as f64 / stats.touched_bytes as f64),
                ..Default::default()
            };
            let base_stats = baseline.and_then(|base| {
                cells
                    .iter()
                    .find(|c| c.benchmark == cells[i].benchmark && c.mechanism == base)
                    .and_then(|c| c.result.as_ref().ok())
                    .map(|m| &m.global)
            });
            if let Some(base) = base_stats {
                let t = model.evaluate(stats, smt);
                let t_base = model.evaluate(base, smt);
                derived.speedup_vs_baseline = Some(t.speedup_over(&t_base));
                derived.l1_miss_elimination = Some(stats.l1_misses_eliminated_vs(base));
                derived.walk_ref_elimination = Some(stats.walk_refs_eliminated_vs(base));
            }
            cells[i].derived = Some(derived);
        }
        ExperimentReport {
            scale: spec.suite_scale(),
            smt,
            tenants: spec.tenant_count(),
            seed: spec.base_seed(),
            baseline,
            cells,
            salvage_dropped: None,
        }
    }

    /// Records that a salvage resume dropped `dropped` corrupt journal
    /// entries (their cells were recomputed). Shows up in the serialized
    /// document so a salvaged report is always distinguishable.
    pub(crate) fn note_salvage(&mut self, dropped: u64) {
        self.salvage_dropped = Some(dropped);
    }

    /// Corrupt journal entries dropped by a salvage resume, when one ran.
    pub fn salvage_dropped(&self) -> Option<u64> {
        self.salvage_dropped
    }

    /// The workload scale the matrix ran at.
    pub fn scale(&self) -> SuiteScale {
        self.scale
    }

    /// Whether cells ran as SMT sibling pairs.
    pub fn is_smt(&self) -> bool {
        self.smt
    }

    /// How many tenant processes each cell's machine ran.
    pub fn tenant_count(&self) -> TenantCount {
        self.tenants
    }

    /// The spec's base seed.
    pub fn base_seed(&self) -> u64 {
        self.seed
    }

    /// The baseline mechanism derived metrics compare against, if any.
    pub fn baseline_mechanism(&self) -> Option<Mechanism> {
        self.baseline
    }

    /// The aggregated cells, in stable spec order.
    pub fn cells(&self) -> &[CellReport] {
        &self.cells
    }

    /// Looks one cell up by benchmark and mechanism.
    pub fn get(&self, benchmark: &str, mechanism: Mechanism) -> Option<&CellReport> {
        self.cells
            .iter()
            .find(|c| c.benchmark == benchmark && c.mechanism == mechanism)
    }

    /// The machine-wide statistics of one successful cell, if present.
    pub fn stats(&self, benchmark: &str, mechanism: Mechanism) -> Option<&RunStats> {
        self.machine_stats(benchmark, mechanism).map(|m| &m.global)
    }

    /// The full per-tenant statistics of one successful cell, if present.
    pub fn machine_stats(&self, benchmark: &str, mechanism: Mechanism) -> Option<&MachineRunStats> {
        self.get(benchmark, mechanism)
            .and_then(|c| c.result.as_ref().ok())
    }

    /// Number of cells whose run failed.
    pub fn error_count(&self) -> usize {
        self.cells.iter().filter(|c| c.result.is_err()).count()
    }

    /// Serializes the report to the versioned JSON document.
    ///
    /// Byte-determinism contract: for a given spec and simulation
    /// outcome, the returned string is identical regardless of how many
    /// worker threads produced the results. Thread count is deliberately
    /// not part of the document.
    pub fn to_json(&self) -> String {
        let mut doc = Json::object();
        doc.set("schema", Json::Str(REPORT_SCHEMA.to_string()));
        doc.set("version", Json::U64(REPORT_VERSION));
        doc.set("scale", Json::Str(self.scale.label().to_string()));
        doc.set("smt", Json::Bool(self.smt));
        if !self.tenants.is_solo() {
            // Solo runs keep the pre-tenant document byte-for-byte; the
            // axis appears only when it deviates from the classic machine.
            doc.set("tenants", Json::U64(u64::from(self.tenants.get())));
        }
        doc.set("seed", Json::U64(self.seed));
        doc.set(
            "baseline",
            match self.baseline {
                Some(m) => Json::Str(m.label().to_string()),
                None => Json::Null,
            },
        );
        if let Some(dropped) = self.salvage_dropped {
            let mut salvage = Json::object();
            salvage.set("dropped_entries", Json::U64(dropped));
            doc.set("salvage", salvage);
        }
        let cells = self.cells.iter().map(cell_json).collect();
        doc.set("cells", Json::Array(cells));
        doc.render()
    }
}

impl CellReport {
    /// Serializes this one cell the way [`ExperimentReport::to_json`]
    /// embeds it — the unit of comparison when a salvaged run (whose
    /// document carries a `"salvage"` block) is checked cell-by-cell
    /// against an uninterrupted one.
    pub fn to_json(&self) -> String {
        cell_json(self).render()
    }
}

fn cell_json(cell: &CellReport) -> Json {
    let mut obj = Json::object();
    obj.set("benchmark", Json::Str(cell.benchmark.clone()));
    obj.set("mechanism", Json::Str(cell.mechanism.label().to_string()));
    obj.set("seed", Json::U64(cell.seed));
    match &cell.result {
        Ok(machine) => {
            obj.set("ok", Json::Bool(true));
            obj.set("stats", stats_json(&machine.global));
            if machine.per_tenant.len() > 1 {
                let tenants = machine.per_tenant.iter().map(stats_json).collect();
                obj.set("tenants", Json::Array(tenants));
            }
            // As with the tenants array: kill-free cells keep the
            // pre-outcome document byte-for-byte.
            if machine.outcomes.iter().any(|o| o.is_killed()) {
                let outcomes = machine.outcomes.iter().map(outcome_json).collect();
                obj.set("outcomes", Json::Array(outcomes));
            }
        }
        Err(failure) => {
            obj.set("ok", Json::Bool(false));
            obj.set("error", Json::Str(failure.message.clone()));
            obj.set("cause", Json::Str(failure.cause.label().to_string()));
            obj.set("attempts", Json::U64(u64::from(failure.attempts)));
        }
    }
    if let Some(d) = cell.derived {
        let mut derived = Json::object();
        derived.set("speedup_vs_baseline", Json::from(d.speedup_vs_baseline));
        derived.set("l1_miss_elimination", Json::from(d.l1_miss_elimination));
        derived.set("walk_ref_elimination", Json::from(d.walk_ref_elimination));
        derived.set("memory_bloat", Json::from(d.memory_bloat));
        obj.set("derived", derived);
    }
    obj
}

pub(super) fn stats_json(stats: &RunStats) -> Json {
    let mut obj = Json::object();
    obj.set("accesses", Json::U64(stats.mem.accesses));
    obj.set("l1_hits", Json::U64(stats.mem.l1_hits));
    obj.set("l1_misses", Json::U64(stats.mem.l1_misses()));
    obj.set("stlb_hits", Json::U64(stats.mem.stlb_hits));
    obj.set("range_hits", Json::U64(stats.mem.range_hits));
    obj.set("l2_misses", Json::U64(stats.mem.l2_misses));
    obj.set("walks", Json::U64(stats.walks));
    obj.set("walk_refs", Json::U64(stats.walk_refs));
    obj.set("alias_extras", Json::U64(stats.alias_extras));
    obj.set("ad_updates", Json::U64(stats.ad_updates));
    obj.set("instructions", Json::U64(stats.instructions));
    obj.set("full_instructions", Json::U64(stats.full_instructions));
    obj.set("full_walk_refs", Json::U64(stats.full_walk_refs));
    obj.set("faults", Json::U64(stats.os.faults));
    obj.set("promotions", Json::U64(stats.os.promotions));
    obj.set("shootdowns", Json::U64(stats.os.shootdowns));
    obj.set("fallback_4k", Json::U64(stats.os.fallback_4k));
    obj.set("os_cycles", Json::U64(stats.os.op_cycles));
    obj.set("resident_bytes", Json::U64(stats.resident_bytes));
    obj.set("touched_bytes", Json::U64(stats.touched_bytes));
    let mut census = Json::object();
    for (order, pages) in &stats.page_census {
        census.set(&format!("{}", order.get()), Json::U64(*pages));
    }
    obj.set("page_census", census);
    obj.set(
        "hw_faults",
        Json::counters(&HwFaultStats::FIELDS, &stats.hw_faults.values()),
    );
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::spec::ExperimentSpec;

    fn tiny_report() -> ExperimentReport {
        ExperimentSpec::new()
            .bench("gups")
            .mechanisms([Mechanism::Thp, Mechanism::Tps])
            .scale(SuiteScale::Test)
            .seed(42)
            .threads(2)
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn aggregation_carries_derived_metrics() {
        let report = tiny_report();
        assert_eq!(report.cells().len(), 2);
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.baseline_mechanism(), Some(Mechanism::Thp));
        let thp = report.get("gups", Mechanism::Thp).unwrap();
        let tps = report.get("gups", Mechanism::Tps).unwrap();
        let d_thp = thp.derived.unwrap();
        let d_tps = tps.derived.unwrap();
        assert!((d_thp.speedup_vs_baseline.unwrap() - 1.0).abs() < 1e-12);
        // Against itself the elimination is 0, or the vacuous 1.0 when the
        // baseline had no misses at this tiny scale.
        let self_elim = d_thp.l1_miss_elimination.unwrap();
        assert!(self_elim == 0.0 || self_elim == 1.0, "{self_elim}");
        assert!(d_tps.speedup_vs_baseline.unwrap() >= 1.0, "TPS beats THP");
        assert!(d_tps.l1_miss_elimination.unwrap() > 0.5);
        assert!(d_tps.memory_bloat.unwrap() >= 1.0);
        assert!(report.stats("gups", Mechanism::Tps).is_some());
        assert!(report.stats("gups", Mechanism::Rmm).is_none());
    }

    #[test]
    fn multi_tenant_reports_embed_per_tenant_stats() {
        let report = ExperimentSpec::new()
            .bench("gups")
            .mechanism(Mechanism::Tps)
            .scale(SuiteScale::Test)
            .tenants(TenantCount::new(2).unwrap())
            .seed(42)
            .threads(1)
            .build()
            .unwrap()
            .run();
        let json = report.to_json();
        assert!(json.contains("\"tenants\": 2"), "{json}");
        let machine = report.machine_stats("gups", Mechanism::Tps).unwrap();
        assert_eq!(machine.per_tenant.len(), 2);
        // A solo report keeps the pre-tenant document: no tenants keys.
        assert!(!tiny_report().to_json().contains("\"tenants\""));
    }

    #[test]
    fn json_document_is_versioned_and_stable() {
        let report = tiny_report();
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"tps-experiment-report\""));
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"scale\": \"test\""));
        assert!(json.contains("\"baseline\": \"THP\""));
        assert!(json.contains("\"benchmark\": \"gups\""));
        assert!(json.contains("\"page_census\""));
        assert!(!json.contains("thread"), "thread count must not leak in");
        assert_eq!(json, tiny_report().to_json(), "rerun is byte-identical");
    }
}
