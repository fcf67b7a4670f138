//! Fig. 12: savable page-walker cycles — the fraction of walker-active
//! cycles whose elimination converts into execution-time savings.
//!
//! The paper derives this from performance counters at two configurations
//! (THP off/on); we derive it the same way from our simulated runs and
//! print the workload-profile parameter it recovers.
use tps_bench::{pct, print_table, run_bench, scale_from_env};
use tps_sim::{Mechanism, TimingModel};
use tps_wl::suite_names;

fn main() {
    let scale = scale_from_env();
    let model = TimingModel::default();
    let mut rows = Vec::new();
    for name in suite_names() {
        let thp_off = run_bench(name, Mechanism::Only4K, scale, 1, |c| c);
        let thp_on = run_bench(name, Mechanism::Thp, scale, 1, |c| c);
        let t_off = model.evaluate(&thp_off, false);
        let t_on = model.evaluate(&thp_on, false);
        // Savable = dTC / dPWC between the two configurations.
        let d_tc = t_off.total() - t_on.total();
        let d_pwc = t_off.pwc - t_on.pwc;
        let derived = if d_pwc.abs() < 1e-9 {
            thp_on.profile.walk_savable
        } else {
            // Remove the L1-miss-term difference the counters cannot see.
            ((d_tc - (t_off.t_l1dtlbm - t_on.t_l1dtlbm)) / d_pwc).clamp(0.0, 1.0)
        };
        rows.push(vec![
            name.to_string(),
            pct(derived),
            pct(thp_on.profile.walk_savable),
        ]);
    }
    print_table(
        "Fig. 12: savable page walker cycles (derived from 4K-only vs THP runs)",
        &["benchmark", "derived savable", "profile parameter"],
        &rows,
    );
}
