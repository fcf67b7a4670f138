//! Fragmentation study (paper Figs. 15–16): fragment physical memory with
//! an allocation churn, show how much free memory each single page size
//! could use, then run TPS on the fragmented machine and see how much of
//! its win survives.
//!
//! ```sh
//! cargo run --release --example fragmentation_study
//! ```

use tps::core::PageOrder;
use tps::mem::{compaction, BuddyAllocator, FragmentParams, Fragmenter};
use tps::sim::{MachineBuilder, MachineConfig, Mechanism, TenantSpec};
use tps::wl::{default_suite_seed, SuiteScale};

fn coverage_report(buddy: &BuddyAllocator, title: &str) {
    let hist = buddy.histogram();
    println!("\n{title}:");
    println!(
        "  free: {:.1}% of {} MB",
        100.0 * buddy.free_bytes() as f64 / buddy.total_bytes() as f64,
        buddy.total_bytes() >> 20
    );
    print!("  coverage by single page size:");
    for order in [0u8, 1, 2, 3, 4, 6, 9, 10, 12] {
        let o = PageOrder::new(order).unwrap();
        print!(" {}={:.0}%", o.label(), 100.0 * hist.coverage(o));
    }
    println!();
}

fn main() {
    // 1. A heavily loaded machine: churn until 55% free, scattered.
    let mut buddy = BuddyAllocator::new(4 << 30);
    let mut fragmenter = Fragmenter::new(FragmentParams {
        target_free_fraction: 0.55,
        ..Default::default()
    });
    let pinned = fragmenter.run(&mut buddy);
    coverage_report(&buddy, "after fragmentation churn (Fig. 15)");

    // 2. Run GUPS and XSBench on the fragmented machine: THP vs TPS.
    for name in ["gups", "xsbench"] {
        let mut results = Vec::new();
        for mech in [Mechanism::Thp, Mechanism::Tps] {
            let config = MachineConfig::for_mechanism(mech)
                .with_memory(4 << 30)
                .with_initial_memory(buddy.clone());
            let stats = MachineBuilder::new(config)
                .tenant(TenantSpec::suite(
                    name,
                    SuiteScale::Small,
                    default_suite_seed(name),
                ))
                .build()
                .expect("one tenant builds")
                .run()
                .into_solo();
            results.push((mech, stats));
        }
        let (_, thp) = &results[0];
        let (_, tps) = &results[1];
        println!(
            "\n{name}: THP misses {} | TPS misses {} | eliminated {:.1}% | TPS 4K fallbacks {}",
            thp.mem.l1_misses(),
            tps.mem.l1_misses(),
            100.0 * tps.l1_misses_eliminated_vs(thp),
            tps.os.fallback_4k,
        );
    }

    // 3. Compaction recovers contiguity (paper §III-B3).
    let outcome = compaction::compact(&mut buddy, &pinned).expect("movable list is live");
    println!(
        "\ncompaction moved {} blocks ({} pages copied)",
        outcome.moved_blocks(),
        outcome.pages_moved
    );
    coverage_report(&buddy, "after compaction");
}
