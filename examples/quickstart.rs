//! Quickstart: simulate one workload under Tailored Page Sizes and print
//! what the TLB saw.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use tps::core::GIB;
use tps::prelude::*;

fn main() {
    // A machine per the paper's Table I, running the TPS mechanism:
    // reservation-based paging with power-of-two promotion, the 32-entry
    // any-size L1 TLB, and the tailored page table.
    let config = MachineConfig::for_mechanism(Mechanism::Tps).with_memory(GIB);

    // GUPS: random read-modify-writes over a 256 MB table — the
    // adversarial TLB workload. `Initialized` adds the startup page-touch
    // sweep every real application performs.
    let workload = tps::wl::Initialized::new(Gups::new(GupsParams {
        table_bytes: 256 << 20,
        updates: 500_000,
        seed: 42,
    }));

    let stats = MachineBuilder::new(config)
        .tenant(TenantSpec::workload(workload))
        .build()
        .expect("one tenant builds")
        .run()
        .into_solo();

    println!("workload:            {}", stats.name);
    println!("accesses (measured): {}", stats.mem.accesses);
    println!(
        "L1 TLB hit rate:     {:.3}%",
        100.0 * stats.mem.l1_hit_rate()
    );
    println!("L1 TLB misses:       {}", stats.mem.l1_misses());
    println!("page walks:          {}", stats.walks);
    println!("walk memory refs:    {}", stats.walk_refs);
    println!("page faults:         {}", stats.os.faults);
    println!("page promotions:     {}", stats.os.promotions);
    println!("resident memory:     {} MB", stats.resident_bytes >> 20);

    println!("\npage census (what the 256 MB table became):");
    for (order, count) in &stats.page_census {
        println!("  {:>5} pages: {count}", order.label());
    }

    // The paper's timing decomposition: T = T_IDEAL + T_L1DTLBM + T_PW.
    let timing = tps::sim::TimingModel::default().evaluate(&stats, false);
    println!(
        "\ntiming (cycles): ideal={:.0} l1miss={:.0} walks={:.0}",
        timing.t_ideal, timing.t_l1dtlbm, timing.t_pw
    );
}
