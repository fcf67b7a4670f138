//! Fig. 14: speedup over the reservation-THP baseline with an SMT sibling
//! competing for TLB resources. Paper: TPS 21.6 % > RMM 15.2 % > CoLT 4.7 %.
use tps_bench::{geomean, print_table, run_bench, scale_from_env};
use tps_sim::{Mechanism, RunStats, TimingModel};
use tps_wl::suite_names;

fn main() {
    let scale = scale_from_env();
    let model = TimingModel::default();
    // Two SMT hardware threads; the figure reports the primary.
    let run = |name: &str, mech: Mechanism| -> RunStats { run_bench(name, mech, scale, 2, |c| c) };
    let mechs = Mechanism::contenders();
    let mut rows = Vec::new();
    let mut cols = vec![Vec::new(); mechs.len()];
    for name in suite_names() {
        let base = model.evaluate(&run(name, Mechanism::Thp), true);
        let mut row = vec![name.to_string()];
        for (i, mech) in mechs.into_iter().enumerate() {
            let t = model.evaluate(&run(name, mech), true);
            let speedup = t.speedup_over(&base);
            cols[i].push(speedup);
            row.push(format!("{speedup:.3}x"));
        }
        rows.push(row);
    }
    let mut mean_row = vec!["GEOMEAN".into()];
    mean_row.extend(cols.iter().map(|c| format!("{:.3}x", geomean(c))));
    rows.push(mean_row);
    print_table(
        "Fig. 14: speedup, native with SMT sibling (baseline: THP)",
        &["benchmark", "TPS", "CoLT", "RMM"],
        &rows,
    );
}
