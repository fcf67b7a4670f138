//! Fig. 17: percent of total execution time spent in system (OS) work.
//! The paper measures ~0.16 % on average over full executions — allocator
//! work is negligible, so even a large constant-factor increase from TPS
//! bookkeeping is irrelevant.
//!
//! Our event budget samples a fraction of each benchmark's execution, so
//! the OS cycles per page cannot be divided by the sampled instruction
//! count. SPEC-class runs execute on the order of 10^6–10^7 instructions
//! per resident page across the whole execution; we extrapolate the
//! denominator with a documented per-page instruction density and also
//! print the raw ratio (OS cycles per resident page) so readers can apply
//! their own.
use tps_bench::{mean, print_table, run_bench, scale_from_env};
use tps_sim::Mechanism;
use tps_wl::suite_names;

/// Instructions a full benchmark execution spends per resident page
/// (SPEC-class: trillions of instructions over gigabyte footprints).
const INSTS_PER_PAGE_FULL_RUN: f64 = 2_000_000.0;

fn main() {
    let scale = scale_from_env();
    let mut rows = Vec::new();
    let (mut thp_col, mut tps_col) = (Vec::new(), Vec::new());
    for name in suite_names() {
        let mut fracs = Vec::new();
        let mut per_page = Vec::new();
        for mech in [Mechanism::Thp, Mechanism::Tps] {
            let stats = run_bench(name, mech, scale, 1, |c| c);
            let pages = (stats.resident_bytes >> 12).max(1) as f64;
            let cpp = stats.os.op_cycles as f64 / pages;
            let t_app = pages * INSTS_PER_PAGE_FULL_RUN * stats.profile.base_cpi;
            fracs.push(stats.os.op_cycles as f64 / (stats.os.op_cycles as f64 + t_app));
            per_page.push(cpp);
        }
        thp_col.push(fracs[0]);
        tps_col.push(fracs[1]);
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", per_page[0]),
            format!("{:.0}", per_page[1]),
            format!("{:.3}%", 100.0 * fracs[0]),
            format!("{:.3}%", 100.0 * fracs[1]),
        ]);
    }
    rows.push(vec![
        "MEAN".into(),
        String::new(),
        String::new(),
        format!("{:.3}%", 100.0 * mean(&thp_col)),
        format!("{:.3}%", 100.0 * mean(&tps_col)),
    ]);
    print_table(
        "Fig. 17: % execution time in system work (extrapolated full run)",
        &[
            "benchmark",
            "THP cyc/page",
            "TPS cyc/page",
            "THP sys%",
            "TPS sys%",
        ],
        &rows,
    );
    println!(
        "(denominator extrapolated at {INSTS_PER_PAGE_FULL_RUN:.0} insts/resident page; \
the paper's point — system work is negligible and a TPS-induced constant \
factor would not change that — is carried by the cyc/page columns)"
    );
}
