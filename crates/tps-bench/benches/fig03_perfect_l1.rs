//! Fig. 3: speedup of a perfect L1 TLB over a perfect L2 TLB baseline.
use tps_bench::{geomean, print_table, run_bench, scale_from_env};
use tps_sim::{MachineConfig, Mechanism, TimingModel};
use tps_wl::suite_names;

fn main() {
    let scale = scale_from_env();
    let model = TimingModel::default();
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for name in suite_names() {
        let perfect_l2 = run_bench(name, Mechanism::Thp, scale, 1, |c| MachineConfig {
            perfect_l2: true,
            ..c
        });
        let perfect_l1 = run_bench(name, Mechanism::Thp, scale, 1, |c| MachineConfig {
            perfect_l1: true,
            ..c
        });
        let t_l2 = model.evaluate(&perfect_l2, false);
        let t_l1 = model.evaluate(&perfect_l1, false);
        let speedup = t_l1.speedup_over(&t_l2);
        speedups.push(speedup);
        rows.push(vec![name.to_string(), format!("{:.3}x", speedup)]);
    }
    rows.push(vec![
        "GEOMEAN".into(),
        format!("{:.3}x", geomean(&speedups)),
    ]);
    print_table(
        "Fig. 3: speedup of perfect L1 TLB over perfect L2 TLB baseline",
        &["benchmark", "speedup"],
        &rows,
    );
}
