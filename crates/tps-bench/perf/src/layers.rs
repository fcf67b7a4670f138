//! Per-layer metrics of one workload: an untraced reference run, then the
//! traced pass over the same cells, the faithfulness guard between them
//! (plus the golden digests at the golden seed), and the metrics of
//! [`crate::metrics::PER_WORKLOAD`].

use crate::golden;
use crate::json::Obj;
use crate::trace::{self, Bucket, Spans};
use crate::untraced;
use crate::workload::Workload;

/// The per-layer result of one workload.
pub struct Layers {
    /// Named as in [`crate::metrics::PER_WORKLOAD`], in that order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Cells run (untraced reference plus traced pass).
    pub attempted: u64,
    pub problems: Vec<String>,
    /// The traced pass's histograms, for the sidecar.
    pub histograms: String,
}

pub fn measure(workload: &Workload, seed: u64, spans: &mut Spans) -> Result<Layers, String> {
    let root = spans.open(0, "workload", workload.name);
    let span = spans.open(root, "untraced", "");
    let reference = untraced::run(workload, seed, &crate::rep::work_dir(), spans, span)?;
    spans.close(span);
    let span = spans.open(root, "traced", "");
    let traced = trace::run(&workload.specs(seed), spans, span);
    let traced_s = spans.close(span);
    spans.close(root);

    let mut problems = reference.problems.clone();
    if seed == golden::SEED {
        problems.extend(golden::mismatches(workload, &reference.digest));
    }
    problems.extend(traced.problems.iter().cloned());
    problems.extend(trace::guard(&traced.cells, &reference.cells));

    let counts = |f: fn(&untraced::CellCounters) -> u64| -> f64 {
        reference
            .cells
            .iter()
            .filter_map(|c| c.counters.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let steps = |b: Bucket| traced.bucket(b);
    let metrics = vec![
        ("wl.build_s", traced.wl_build_s),
        ("wl.next_event_ns", traced.next_event.mean_ns()),
        ("wl.events", traced.events as f64),
        ("machine.build_s", traced.machine_build_s),
        ("machine.step_l1_ns", steps(Bucket::L1).mean_ns()),
        ("machine.step_stlb_ns", steps(Bucket::Stlb).mean_ns()),
        ("machine.step_walk_ns", steps(Bucket::Walk).mean_ns()),
        ("machine.step_fault_ns", steps(Bucket::Fault).mean_ns()),
        ("machine.step_map_ns", steps(Bucket::Map).mean_ns()),
        ("machine.step_p99_ns", traced.all_steps().quantile_ns(0.99)),
        ("machine.l1_n", steps(Bucket::L1).count as f64),
        ("machine.stlb_n", steps(Bucket::Stlb).count as f64),
        ("machine.range_n", traced.range_steps as f64),
        ("machine.walk_n", steps(Bucket::Walk).count as f64),
        ("machine.fault_n", steps(Bucket::Fault).count as f64),
        ("os.promotions_n", counts(|c| c.promotions)),
        ("os.shootdowns_n", counts(|c| c.shootdowns)),
        ("experiment.run_with_s", reference.run_with_s),
        ("experiment.to_json_ms", reference.to_json_s * 1e3),
        ("experiment.publish_ms", reference.publish_s * 1e3),
        ("experiment.report_kb", reference.report_bytes as f64 / 1e3),
        (
            "trace.overhead_pct",
            (traced_s / reference.run_with_s - 1.0) * 100.0,
        ),
    ];
    let histograms = Bucket::ALL
        .iter()
        .fold(Obj::new(), |obj, &b| {
            obj.raw(b.label(), &steps(b).to_json())
        })
        .finish();
    let histograms = Obj::new()
        .raw("next_event", &traced.next_event.to_json())
        .raw("steps", &histograms)
        .finish();
    Ok(Layers {
        metrics,
        attempted: (reference.cells.len() + traced.cells.len()) as u64,
        problems,
        histograms,
    })
}

/// The `trace.json` sidecar: spans, self time per span name, and each
/// traced workload's histograms.
pub fn sidecar(seed: u64, spans: &Spans, histograms: &[(&str, String)]) -> String {
    let workloads = histograms
        .iter()
        .fold(Obj::new(), |obj, (name, h)| obj.raw(name, h))
        .finish();
    Obj::new()
        .str("schema", "tps-perf-trace/v1")
        .str("seed", &seed.to_string())
        .raw("histograms", &workloads)
        .raw("trace", &spans.to_json())
        .finish()
        + "\n"
}

/// Writes the sidecar beside the repetitions' artifacts and says where.
pub fn write_sidecar(doc: &str) -> Result<(), String> {
    let path = crate::rep::work_dir().join("trace.json");
    std::fs::create_dir_all(crate::rep::work_dir())
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("tps-perf: wrote {}", path.display());
    Ok(())
}
