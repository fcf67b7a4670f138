//! Fig. 8: L1 DTLB misses per thousand instructions across the full
//! profiling sweep (4 KB demand paging, as when characterizing TLB
//! pressure). Benchmarks above MPKI 5 form the evaluation suite.
use tps_bench::{print_table, run_bench, scale_from_env};
use tps_sim::Mechanism;
use tps_wl::{profiling_names, suite_names};

fn main() {
    let scale = scale_from_env();
    let mut rows = Vec::new();
    for name in profiling_names() {
        let stats = run_bench(name, Mechanism::Only4K, scale, 1, |c| c);
        let mpki = stats.l1_mpki();
        let selected = if suite_names().contains(&name) {
            "yes"
        } else {
            ""
        };
        rows.push(vec![
            name.to_string(),
            format!("{mpki:.1}"),
            selected.into(),
        ]);
    }
    print_table(
        "Fig. 8: L1 DTLB MPKI (4 KB paging); MPKI > 5 selects the evaluation suite",
        &["benchmark", "L1 DTLB MPKI", "in suite"],
        &rows,
    );
}
