//! Compare all translation mechanisms on one workload — a miniature of
//! the paper's Fig. 10/11/13.
//!
//! ```sh
//! cargo run --release --example policy_comparison [benchmark]
//! ```
//!
//! `benchmark` is any suite name (`gups`, `graph500`, `xsbench`,
//! `dbx1000`, `gcc`, `mcf`, ...); default `xsbench`.

use tps::sim::{MachineBuilder, MachineConfig, Mechanism, TenantSpec, TimingModel};
use tps::wl::{default_suite_seed, SuiteScale};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "xsbench".into());
    let scale = SuiteScale::Small;
    let model = TimingModel::default();

    println!("benchmark: {name} (scale: small)\n");
    println!(
        "{:>10} {:>12} {:>10} {:>12} {:>10} {:>9}",
        "mechanism", "L1 misses", "hit rate", "walk refs", "OS cycles", "speedup"
    );

    let mechanisms = [
        Mechanism::Only4K,
        Mechanism::Thp,
        Mechanism::Colt,
        Mechanism::Rmm,
        Mechanism::Tps,
        Mechanism::TpsEager,
    ];
    let mut baseline_total = None;
    for mech in mechanisms {
        let config = MachineConfig::for_mechanism(mech).with_memory(scale.recommended_memory());
        let stats = MachineBuilder::new(config)
            .tenant(TenantSpec::suite(&name, scale, default_suite_seed(&name)))
            .build()
            .expect("one tenant builds")
            .run()
            .into_solo();
        let timing = model.evaluate(&stats, false);
        // Speedups are reported relative to the paper's baseline (THP).
        if mech == Mechanism::Thp {
            baseline_total = Some(timing.total());
        }
        let speedup = baseline_total
            .map(|b| format!("{:.3}x", b / timing.total()))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>10} {:>12} {:>9.2}% {:>12} {:>10} {:>9}",
            mech.label(),
            stats.mem.l1_misses(),
            100.0 * stats.mem.l1_hit_rate(),
            stats.walk_refs,
            stats.os.op_cycles,
            speedup
        );
    }
    println!("\n(speedup is relative to the THP baseline, as in the paper)");
}
