//! Multi-tenant machine: 64 address spaces sharing one physical memory
//! and one ASID-tagged TLB hierarchy — plus one memory-capped noisy
//! neighbor that the machine kills mid-run without disturbing anyone.
//!
//! Each tenant runs a different suite benchmark at test scale with its
//! own seed; the extra 65th tenant maps and scribbles memory without
//! bound until its per-tenant cap fires. After the run, we report the
//! kill, per-tenant TLB reach (derived from each address space's page
//! census) and a snapshot of how fragmented the shared buddy allocator
//! ended up.
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```

use tps::core::{PageOrder, TenantFaultCause};
use tps::sim::{MachineBuilder, MachineConfig, Mechanism, TenantOutcome, TenantSpec};
use tps::tlb::Asid;
use tps::wl::{suite_names, Event, SuiteScale, Workload, WorkloadProfile};

const TENANTS: usize = 64;
/// Slot of the capped noisy neighbor (the 65th tenant).
const NOISY: usize = TENANTS;
/// Entry count of the modeled L1 data TLB, used to turn a mean page
/// size into a reach figure.
const L1_ENTRIES: u64 = 64;
/// The noisy neighbor's per-tenant memory cap.
const NOISY_CAP: u64 = 8 << 20;

/// A tenant that maps a fresh 2 MB region, writes it end to end, and
/// repeats forever — only its memory cap stops it.
struct NoisyNeighbor {
    region: u32,
    step: u64,
}

impl Workload for NoisyNeighbor {
    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile::named("hog")
    }

    fn next_event(&mut self) -> Option<Event> {
        const REGION_BYTES: u64 = 2 << 20;
        const WRITES_PER_REGION: u64 = 32;
        let phase = self.step % (WRITES_PER_REGION + 1);
        self.step += 1;
        if phase == 0 {
            Some(Event::Mmap {
                region: self.region,
                bytes: REGION_BYTES,
            })
        } else {
            let event = Event::Access {
                region: self.region,
                offset: (phase - 1) * (REGION_BYTES / WRITES_PER_REGION),
                write: true,
            };
            if phase == WRITES_PER_REGION {
                self.region += 1;
            }
            Some(event)
        }
    }
}

fn main() {
    let names = suite_names();
    let config = MachineConfig::for_mechanism(Mechanism::Tps).with_memory(8 << 30);
    let mut builder = MachineBuilder::new(config);
    for i in 0..TENANTS {
        let name = names[i % names.len()];
        builder = builder.tenant(TenantSpec::suite(name, SuiteScale::Test, 0xbee5 + i as u64));
    }
    builder = builder
        .tenant(TenantSpec::workload(NoisyNeighbor { region: 0, step: 0 }).memory_cap(NOISY_CAP));
    let mut machine = builder.build().expect("65 tenants fit in 8 GB");
    let stats = machine.run();
    assert_eq!(stats.per_tenant.len(), TENANTS + 1);

    // The noisy neighbor died at its cap, mid-run, and nobody else
    // noticed: every suite tenant still completed.
    assert_eq!(stats.killed_count(), 1, "exactly the hog dies");
    match stats.outcome(NOISY) {
        TenantOutcome::Killed { cause, at_event } => {
            assert_eq!(cause, TenantFaultCause::CapExceeded);
            println!(
                "noisy neighbor (slot {NOISY}) killed at event {at_event}: {cause} \
                 (cap {} MB); {} survivors unaffected\n",
                NOISY_CAP >> 20,
                TENANTS
            );
        }
        TenantOutcome::Completed => panic!("the hog must hit its cap"),
    }
    for t in 0..TENANTS {
        assert_eq!(
            stats.outcome(t),
            TenantOutcome::Completed,
            "survivor {t} was disturbed by the kill"
        );
    }

    // Per-tenant TLB reach: the page census of each address space gives
    // the mean mapped page size; a 64-entry L1 full of pages that size
    // covers mean * 64 bytes.
    println!("per-tenant TLB reach ({} tenants, TPS):", TENANTS);
    println!(
        "  {:<4} {:<10} {:>10} {:>12} {:>12}",
        "id", "workload", "mapped", "mean page", "L1 reach"
    );
    let mut tailored_tenants = 0usize;
    for t in 0..TENANTS {
        let census = machine.os().process(t as Asid).page_table().page_census();
        let mapped: u64 = census.iter().map(|(o, n)| o.bytes() * n).sum();
        let pages: u64 = census.values().sum();
        assert!(pages > 0, "tenant {t} left no mappings behind");
        let mean = mapped / pages;
        if mean > PageOrder::P4K.bytes() {
            tailored_tenants += 1;
        }
        if t % 8 == 0 {
            println!(
                "  {:<4} {:<10} {:>7} KB {:>9} KB {:>9} KB",
                t,
                machine.tenant_label(t),
                mapped >> 10,
                mean >> 10,
                (L1_ENTRIES * mean) >> 10,
            );
        }
    }
    println!(
        "  ({} of {} tenants shown; one row per 8)",
        TENANTS / 8,
        TENANTS
    );

    // TPS should have given most tenants pages bigger than 4 KB, so the
    // shared TLB's effective reach grew with tenancy instead of being
    // split 64 ways at base-page granularity.
    assert!(
        tailored_tenants >= TENANTS / 2,
        "only {tailored_tenants}/{TENANTS} tenants got pages beyond 4 KB"
    );

    // Fragmentation snapshot of the shared buddy allocator. The hog's
    // frames went back to these free lists when it was killed, so the
    // conservation check below covers the kill-reclaim path too.
    let buddy = machine.os().buddy();
    buddy
        .check_invariants()
        .expect("buddy stays conserved after the kill");
    let hist = buddy.histogram();
    println!(
        "\nshared buddy after run: {:.1}% of {} MB free",
        100.0 * buddy.free_bytes() as f64 / buddy.total_bytes() as f64,
        buddy.total_bytes() >> 20
    );
    print!("  coverage by single page size:");
    for order in [0u8, 4, 9, 12] {
        let o = PageOrder::new(order).unwrap();
        print!(" {}={:.0}%", o.label(), 100.0 * hist.coverage(o));
    }
    println!();
    assert!(
        buddy.free_bytes() < buddy.total_bytes(),
        "tenants left no footprint"
    );

    // Every tenant did work, and the rollup attributes all of it.
    for (t, s) in stats.per_tenant.iter().enumerate() {
        assert!(s.mem.accesses > 0, "tenant {t} made no accesses");
    }
    let sum: u64 = stats.per_tenant.iter().map(|s| s.mem.accesses).sum();
    assert_eq!(sum, stats.global.mem.accesses, "per-tenant rollup mismatch");
    println!(
        "\n{} tenants ({} killed at its cap), {} total accesses, rollup exact; \
         all assertions passed",
        TENANTS + 1,
        1,
        stats.global.mem.accesses
    );
}
