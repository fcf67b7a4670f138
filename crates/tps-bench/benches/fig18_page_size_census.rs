//! Fig. 18: pages in use per page size under TPS, per benchmark. The
//! small total page counts are what let TPS eliminate nearly all misses.
use tps_bench::{print_table, run_bench, scale_from_env};
use tps_core::PageOrder;
use tps_sim::Mechanism;
use tps_wl::suite_names;

fn main() {
    let scale = scale_from_env();
    let mut rows = Vec::new();
    for name in suite_names() {
        let stats = run_bench(name, Mechanism::Tps, scale, 1, |c| c);
        let total: u64 = stats.page_census.values().sum();
        let sizes = stats
            .page_census
            .iter()
            .map(|(o, n)| format!("{}:{n}", o.label()))
            .collect::<Vec<_>>()
            .join(" ");
        rows.push(vec![
            name.to_string(),
            format!("{total}"),
            format!(
                "{}",
                stats
                    .page_census
                    .keys()
                    .max()
                    .copied()
                    .unwrap_or(PageOrder::P4K)
                    .label()
            ),
            sizes,
        ]);
    }
    print_table(
        "Fig. 18: TPS page-size census per benchmark (order:count)",
        &["benchmark", "total pages", "largest", "census"],
        &rows,
    );
}
