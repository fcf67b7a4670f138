//! One untraced repetition of a workload, through the public path
//! `tps_run` takes: `ExperimentSpec` → `ExperimentMatrix::run_with` with a
//! fresh checkpoint journal → `ExperimentReport::to_json` →
//! `write_atomic`. Also the construct-only pass behind `setup_s`, and the
//! per-cell counters that golden digests and the trace guard compare.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use tps_sim::experiment::io::crc32;
use tps_sim::{
    write_atomic, ExperimentSpec, MachineBuilder, RealIo, RunOptions, RunStats, TenantSpec,
};

use crate::trace::Spans;
use crate::workload::{tenant_seeds, Workload};

/// The simulated counters of one cell that must never change unless a
/// change means to change behaviour.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellCounters {
    pub accesses: u64,
    pub l1_hits: u64,
    pub stlb_hits: u64,
    pub range_hits: u64,
    pub walks: u64,
    pub walk_refs: u64,
    pub faults: u64,
    pub promotions: u64,
    pub shootdowns: u64,
}

impl CellCounters {
    /// Full-run counters of a cell's machine-wide rollup.
    pub fn of(stats: &RunStats) -> Self {
        CellCounters {
            accesses: stats.full_mem.accesses,
            l1_hits: stats.full_mem.l1_hits,
            stlb_hits: stats.full_mem.stlb_hits,
            range_hits: stats.full_mem.range_hits,
            walks: stats.full_mem.l2_misses,
            walk_refs: stats.full_walk_refs,
            faults: stats.os.faults,
            promotions: stats.os.promotions,
            shootdowns: stats.os.shootdowns,
        }
    }

    fn line(&self) -> String {
        format!(
            "accesses={} l1={} stlb={} range={} walks={} walk_refs={} faults={} promotions={} shootdowns={}",
            self.accesses,
            self.l1_hits,
            self.stlb_hits,
            self.range_hits,
            self.walks,
            self.walk_refs,
            self.faults,
            self.promotions,
            self.shootdowns
        )
    }
}

/// One cell's identity and outcome.
#[derive(Clone, Debug)]
pub struct CellResult {
    pub benchmark: String,
    pub mechanism: &'static str,
    /// `None` when the cell failed or a tenant was killed.
    pub counters: Option<CellCounters>,
}

/// What one untraced repetition measured and produced.
#[derive(Clone, Debug, Default)]
pub struct UntracedRun {
    /// Host seconds from building each spec's matrix to publishing its
    /// report, summed over the specs.
    pub wall_s: f64,
    pub run_with_s: f64,
    pub to_json_s: f64,
    pub publish_s: f64,
    pub report_bytes: u64,
    /// Simulated accesses over every cell (`full_mem.accesses`).
    pub accesses: u64,
    pub cells: Vec<CellResult>,
    /// Golden-digest lines: one per spec (report CRC) and one per cell.
    pub digest: Vec<String>,
    /// Correctness problems found; empty on a good run.
    pub problems: Vec<String>,
}

impl UntracedRun {
    /// Cells that failed or lost a tenant.
    pub fn failed_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.counters.is_none()).count()
    }
}

/// Runs every spec of `workload` at `seed` once, publishing reports and
/// journals under `dir` and recording one span per spec under `parent`.
pub fn run(
    workload: &Workload,
    seed: u64,
    dir: &Path,
    spans: &mut Spans,
    parent: usize,
) -> Result<UntracedRun, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut out = UntracedRun::default();
    for (i, spec) in workload.specs(seed).into_iter().enumerate() {
        let journal = dir.join(format!("{}-{i}.ckpt", workload.name));
        let report_path = dir.join(format!("{}-{i}.json", workload.name));
        let options = RunOptions {
            checkpoint: Some(journal),
            force_checkpoint: true,
            ..RunOptions::default()
        };

        let spec_span = spans.open(parent, "spec", format!("{} spec {i}", workload.name));
        let span = spans.open(spec_span, "experiment.build", "");
        let matrix = spec.build().map_err(|e| format!("invalid spec: {e}"))?;
        spans.close(span);
        let span = spans.open(spec_span, "experiment.run_with", "");
        let report = matrix
            .run_with(&options)
            .map_err(|e| format!("run_with failed: {e}"))?;
        out.run_with_s += spans.close(span);
        let span = spans.open(spec_span, "experiment.to_json", "");
        let doc = report.to_json() + "\n";
        out.to_json_s += spans.close(span);
        let span = spans.open(spec_span, "experiment.publish", "");
        write_atomic(&RealIo, &report_path, doc.as_bytes())
            .map_err(|e| format!("cannot publish {}: {e}", report_path.display()))?;
        out.publish_s += spans.close(span);
        out.wall_s += spans.close(spec_span);
        out.report_bytes += doc.len() as u64;

        match std::fs::read(&report_path) {
            Ok(bytes) if bytes == doc.as_bytes() => {}
            Ok(_) => out
                .problems
                .push(format!("{}: published bytes differ", report_path.display())),
            Err(e) => out
                .problems
                .push(format!("cannot read back {}: {e}", report_path.display())),
        }
        out.digest.push(format!(
            "{} spec {i} crc32={:08x} bytes={}",
            workload.name,
            crc32(doc.as_bytes()),
            doc.len()
        ));
        for (j, cell) in report.cells().iter().enumerate() {
            let mechanism = cell.mechanism.cli_name();
            let id = format!(
                "{} cell {i}.{j} {} {mechanism}",
                workload.name, cell.benchmark
            );
            let counters = match &cell.result {
                Ok(machine) if machine.killed_count() == 0 => {
                    let global = &machine.global;
                    let tenant_sum: u64 =
                        machine.per_tenant.iter().map(|t| t.full_mem.accesses).sum();
                    if tenant_sum != global.full_mem.accesses {
                        out.problems.push(format!(
                            "{id}: tenant accesses sum to {tenant_sum}, rollup says {}",
                            global.full_mem.accesses
                        ));
                    }
                    if global.full_mem.accesses == 0 {
                        out.problems.push(format!("{id}: simulated no accesses"));
                    }
                    out.accesses += global.full_mem.accesses;
                    let counters = CellCounters::of(global);
                    out.digest.push(format!("{id} {}", counters.line()));
                    Some(counters)
                }
                Ok(machine) => {
                    out.digest
                        .push(format!("{id} killed={}", machine.killed_count()));
                    None
                }
                Err(failure) => {
                    out.digest
                        .push(format!("{id} failed={}", failure.cause.label()));
                    None
                }
            };
            out.cells.push(CellResult {
                benchmark: cell.benchmark.clone(),
                mechanism,
                counters,
            });
        }
    }
    if out.failed_cells() > 0 {
        out.problems.push(format!(
            "{} cell(s) failed or lost a tenant",
            out.failed_cells()
        ));
    }
    Ok(out)
}

/// Host seconds to construct every cell's tenants and machine — the
/// matrix runner's per-cell set-up (`machine_config`, `TenantSpec::suite`,
/// `MachineBuilder::build`) without the simulation. Tenant caps are not
/// mirrored: no workload sets one.
pub fn construct_all(specs: &[ExperimentSpec]) -> f64 {
    let start = Instant::now();
    for spec in specs {
        let matrix = spec.clone().build().expect("workload specs are valid");
        for cell in matrix.cells() {
            let tenants = tenant_seeds(spec, cell)
                .into_iter()
                .map(|seed| TenantSpec::suite(cell.benchmark(), spec.suite_scale(), seed));
            let machine = MachineBuilder::new(spec.machine_config(cell.mechanism()))
                .tenants(tenants)
                .on_oom(spec.oom_policy())
                .build()
                .expect("a workload cell builds a machine");
            black_box(&machine);
        }
    }
    start.elapsed().as_secs_f64()
}

/// Set-up samples for one repetition: construct-only passes until a
/// quarter second is spent or 50 are taken, and at least one. That is one
/// pass of the seconds-long graph500 build, and dozens of the
/// sub-millisecond test-scale ones, whose median would otherwise follow
/// single page faults.
pub fn setup_samples(specs: &[ExperimentSpec]) -> Vec<f64> {
    let mut samples: Vec<f64> = Vec::new();
    while samples.len() < 50 && (samples.is_empty() || samples.iter().sum::<f64>() < 0.25) {
        samples.push(construct_all(specs));
    }
    samples
}

/// The process's peak resident set (`VmHWM`), in kB.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}
