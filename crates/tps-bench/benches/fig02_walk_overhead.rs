//! Fig. 2: percent of execution time spent page walking, with THP active,
//! for native, native+SMT, and virtualized execution.
use tps_bench::{mean, pct, print_table, run_bench, scale_from_env};
use tps_sim::{MachineConfig, Mechanism, TimingModel};
use tps_wl::suite_names;

fn main() {
    let scale = scale_from_env();
    let model = TimingModel::default();
    let mut rows = Vec::new();
    let (mut n_col, mut s_col, mut v_col) = (Vec::new(), Vec::new(), Vec::new());
    for name in suite_names() {
        let native = run_bench(name, Mechanism::Thp, scale, 1, |c| c);
        let native_frac = model.evaluate(&native, false).walk_active_fraction();

        let smt = run_bench(name, Mechanism::Thp, scale, 2, |c| c);
        let smt_frac = model.evaluate(&smt, true).walk_active_fraction();

        let virt = run_bench(name, Mechanism::Thp, scale, 1, |c| MachineConfig {
            virtualized: true,
            ..c
        });
        let virt_frac = model.evaluate(&virt, false).walk_active_fraction();

        n_col.push(native_frac);
        s_col.push(smt_frac);
        v_col.push(virt_frac);
        rows.push(vec![
            name.to_string(),
            pct(native_frac),
            pct(smt_frac),
            pct(virt_frac),
        ]);
    }
    rows.push(vec![
        "MEAN".into(),
        pct(mean(&n_col)),
        pct(mean(&s_col)),
        pct(mean(&v_col)),
    ]);
    print_table(
        "Fig. 2: % execution time spent page walking (THP baseline)",
        &["benchmark", "native", "native+SMT", "virtualized"],
        &rows,
    );
}
