//! Shared harness for the figure/table benchmarks.
//!
//! Every bench target in `benches/` regenerates one table or figure of the
//! paper's evaluation. This library holds the common machinery: running
//! the benchmark suite under each mechanism, simple table printing, and
//! means.
//!
//! Scale selection: set `TPS_SCALE=test|small|paper` (default `small`, the
//! figure-faithful quick scale; `paper` runs the full-size workloads).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tps_sim::{
    ExperimentReport, ExperimentSpec, MachineBuilder, MachineConfig, Mechanism, RunStats,
    TenantSpec,
};
use tps_wl::{default_suite_seed, SuiteScale};

/// Reads the suite scale from the `TPS_SCALE` environment variable
/// (default `small`). An unknown value exits with status 2, naming the
/// valid ones.
pub fn scale_from_env() -> SuiteScale {
    match std::env::var("TPS_SCALE") {
        Err(_) => SuiteScale::Small,
        Ok(value) => value.parse().unwrap_or_else(|_| {
            let valid: Vec<&str> = SuiteScale::all().iter().map(|s| s.label()).collect();
            eprintln!(
                "unknown TPS_SCALE {value:?} (expected one of: {})",
                valid.join(", ")
            );
            std::process::exit(2)
        }),
    }
}

/// Runs `tenants` copies of one suite benchmark, each built from
/// [`default_suite_seed`], on one machine under `mechanism`, and returns
/// the primary (first) tenant's statistics. One tenant is a native run;
/// two are SMT hardware threads sharing one core's translation hardware.
///
/// The machine models `tenants` × [`SuiteScale::recommended_memory`]
/// before `tweak` adjusts its configuration. Every mechanism runs the
/// same access stream, so figures can pair mechanisms run by run.
pub fn run_bench(
    name: &str,
    mechanism: Mechanism,
    scale: SuiteScale,
    tenants: u32,
    tweak: impl FnOnce(MachineConfig) -> MachineConfig,
) -> RunStats {
    let memory = u64::from(tenants) * scale.recommended_memory();
    let config = tweak(MachineConfig::for_mechanism(mechanism).with_memory(memory));
    let seed = default_suite_seed(name);
    let mut stats = MachineBuilder::new(config)
        .tenants((0..tenants).map(|_| TenantSpec::suite(name, scale, seed)))
        .build()
        .expect("a suite benchmark on at least one tenant builds")
        .run();
    stats.per_tenant.swap_remove(0)
}

/// Expands and runs one experiment spec on the worker pool.
///
/// # Panics
///
/// Panics when the spec fails validation — the figure harnesses are
/// static in-tree callers, so a rejected spec is a bug, not input.
pub fn run_matrix(spec: ExperimentSpec) -> ExperimentReport {
    spec.build().expect("figure spec is valid").run()
}

/// Runs the whole evaluation suite under `mechanisms` at `scale` as one
/// parallel experiment matrix (cells fan out across the worker pool, the
/// report is byte-deterministic regardless of thread count).
pub fn suite_matrix(
    mechanisms: impl IntoIterator<Item = Mechanism>,
    scale: SuiteScale,
) -> ExperimentReport {
    run_matrix(
        ExperimentSpec::new()
            .suite()
            .mechanisms(mechanisms)
            .scale(scale),
    )
}

/// Geometric mean of positive values (the paper's speedup aggregation).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Prints a fixed-width table: a header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn smt_pair_reports_the_primary_thread() {
        let solo = run_bench("gups", Mechanism::Thp, SuiteScale::Test, 1, |c| c);
        let smt = run_bench("gups", Mechanism::Thp, SuiteScale::Test, 2, |c| c);
        assert!(solo.mem.accesses > 0);
        assert_eq!(smt.mem.accesses, solo.mem.accesses);
    }
}
