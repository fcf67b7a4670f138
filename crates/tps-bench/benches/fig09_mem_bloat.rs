//! Fig. 9: increase in memory utilization running with exclusive 2 MB
//! pages, relative to 4 KB demand paging.
use tps_bench::{mean, pct, print_table, run_bench, scale_from_env};
use tps_sim::Mechanism;
use tps_wl::suite_names;

fn main() {
    let scale = scale_from_env();
    let mut rows = Vec::new();
    let mut increases = Vec::new();
    for name in suite_names() {
        let only4k = run_bench(name, Mechanism::Only4K, scale, 1, |c| c);
        let only2m = run_bench(name, Mechanism::Only2M, scale, 1, |c| c);
        let increase = only2m.resident_bytes as f64 / only4k.resident_bytes as f64 - 1.0;
        increases.push(increase);
        rows.push(vec![
            name.to_string(),
            format!("{:.1} MB", only4k.resident_bytes as f64 / (1 << 20) as f64),
            format!("{:.1} MB", only2m.resident_bytes as f64 / (1 << 20) as f64),
            pct(increase),
        ]);
    }
    rows.push(vec![
        "MEAN".into(),
        String::new(),
        String::new(),
        pct(mean(&increases)),
    ]);
    print_table(
        "Fig. 9: memory utilization increase with exclusive 2 MB pages",
        &["benchmark", "4K resident", "2M resident", "increase"],
        &rows,
    );
}
