//! Shadow-model correctness: a workload that tracks what it wrote where,
//! verifying the simulated memory system preserves the mapping contract
//! through promotions, munmap/remap cycles and SMT sharing.

use tps::core::{VirtAddr, BASE_PAGE_SIZE, GIB};
use tps::sim::{Machine, MachineBuilder, MachineConfig, Mechanism, TenantSpec};
use tps::wl::{Event, Workload, WorkloadProfile};
use tps_core::rng::Rng;

/// A machine with one externally-driven tenant, for the step-API tests.
fn stepper(config: MachineConfig) -> Machine {
    MachineBuilder::new(config)
        .tenant(TenantSpec::external("driver"))
        .build()
        .expect("one tenant builds")
}

/// A workload whose accesses are chosen adversarially: random sizes,
/// overlapping lifetimes, map/unmap churn.
struct Churn {
    rng: Rng,
    live: Vec<(u32, u64)>, // (region id, bytes)
    next_region: u32,
    ops: u32,
    pending: Vec<Event>,
}

impl Churn {
    fn new(seed: u64, ops: u32) -> Self {
        Churn {
            rng: Rng::new(seed),
            live: Vec::new(),
            next_region: 0,
            ops,
            pending: Vec::new(),
        }
    }
}

impl Workload for Churn {
    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile::named("churn")
    }

    fn next_event(&mut self) -> Option<Event> {
        if let Some(e) = self.pending.pop() {
            return Some(e);
        }
        if self.ops == 0 {
            return None;
        }
        self.ops -= 1;
        let roll = self.rng.next_f64();
        if self.live.is_empty() || roll < 0.1 {
            // Map a randomly sized region (4K .. 8M, odd sizes included).
            let bytes = BASE_PAGE_SIZE + self.rng.below(8 << 20);
            let region = self.next_region;
            self.next_region += 1;
            self.live.push((region, bytes));
            Some(Event::Mmap { region, bytes })
        } else if roll < 0.15 && self.live.len() > 1 {
            let i = self.rng.below(self.live.len() as u64) as usize;
            let (region, _) = self.live.swap_remove(i);
            Some(Event::Munmap { region })
        } else {
            let (region, bytes) = self.live[self.rng.below(self.live.len() as u64) as usize];
            // A burst of accesses, mixing locality and randomness.
            let base = self.rng.below(bytes);
            for k in 0..4u64 {
                let offset = (base + k * 8) % bytes;
                self.pending.push(Event::Access {
                    region,
                    offset,
                    write: self.rng.chance(0.5),
                });
            }
            self.next_event()
        }
    }
}

#[test]
fn churn_translates_correctly_under_every_mechanism() {
    for mech in [
        Mechanism::Only4K,
        Mechanism::Thp,
        Mechanism::Colt,
        Mechanism::Rmm,
        Mechanism::Tps,
        Mechanism::TpsEager,
    ] {
        let config = MachineConfig::for_mechanism(mech)
            .with_memory(512 << 20)
            .with_verification();
        let stats = MachineBuilder::new(config)
            .tenant(TenantSpec::workload(Churn::new(0xc0ffee, 3000)))
            .build()
            .expect("one tenant builds")
            .run()
            .into_solo();
        assert!(stats.mem.accesses > 1000, "{mech}");
        assert!(stats.os.munmaps > 0, "{mech}: churn must unmap");
        assert!(stats.os.shootdowns > 0, "{mech}: unmaps require shootdowns");
    }
}

#[test]
fn memory_is_fully_reclaimed_after_unmapping_everything() {
    struct MapAll(Vec<Event>);
    impl Workload for MapAll {
        fn profile(&self) -> WorkloadProfile {
            WorkloadProfile::named("mapall")
        }
        fn next_event(&mut self) -> Option<Event> {
            self.0.pop()
        }
    }
    let mut events = Vec::new();
    // Unmaps (reverse order because we pop).
    for r in 0..8u32 {
        events.push(Event::Munmap { region: r });
    }
    for r in (0..8u32).rev() {
        for page in (0..64u64).rev() {
            events.push(Event::Access {
                region: r,
                offset: page * BASE_PAGE_SIZE,
                write: true,
            });
        }
        events.push(Event::Mmap {
            region: r,
            bytes: 64 * BASE_PAGE_SIZE,
        });
    }
    for mech in [Mechanism::Thp, Mechanism::Tps, Mechanism::Rmm] {
        let config = MachineConfig::for_mechanism(mech)
            .with_memory(64 << 20)
            .with_verification();
        let mut machine = MachineBuilder::new(config)
            .tenant(TenantSpec::workload(MapAll(events.clone())))
            .build()
            .expect("one tenant builds");
        machine.run();
        let os = machine.os();
        assert_eq!(os.process(0).resident_bytes(), 0, "{mech}");
        // Everything except background-noise blocks is free again.
        assert!(
            os.buddy().used_bytes() <= 8 << 20,
            "{mech}: {} bytes leaked",
            os.buddy().used_bytes()
        );
        os.buddy().check_invariants().unwrap();
    }
}

#[test]
fn smt_churn_keeps_address_spaces_isolated() {
    let config = MachineConfig::for_mechanism(Mechanism::Tps)
        .with_memory(GIB)
        .with_verification();
    // Two SMT hardware threads are two tenants sharing the core;
    // verify_translations catches any cross-ASID TLB pollution.
    let stats = MachineBuilder::new(config)
        .tenant(TenantSpec::workload(Churn::new(1, 2000)))
        .tenant(TenantSpec::workload(Churn::new(2, 2000)))
        .build()
        .expect("two tenants build")
        .run();
    assert!(stats.tenant(0).mem.accesses > 1000);
    assert!(stats.tenant(1).mem.accesses > 1000);
}

#[test]
fn step_api_supports_custom_driving() {
    let config = MachineConfig::for_mechanism(Mechanism::Tps)
        .with_memory(64 << 20)
        .with_verification();
    let mut machine = stepper(config);
    machine
        .step(
            0,
            Event::Mmap {
                region: 9,
                bytes: 1 << 20,
            },
        )
        .expect("scripted event is well-formed");
    for i in 0..256u64 {
        machine
            .step(
                0,
                Event::Access {
                    region: 9,
                    offset: i * BASE_PAGE_SIZE,
                    write: true,
                },
            )
            .expect("scripted event is well-formed");
    }
    assert_eq!(machine.counters(0).full.accesses, 256);
    // The full region is touched: TPS promoted it to a single 1 MB page.
    let census = machine.os().process(0).page_table().page_census();
    assert_eq!(census.len(), 1);
    let (order, count) = census.iter().next().unwrap();
    assert_eq!(order.bytes(), 1 << 20);
    assert_eq!(*count, 1);
}

#[test]
fn virtual_addresses_never_leak_between_regions() {
    // Two regions; writes in one must never translate into the other.
    let config = MachineConfig::for_mechanism(Mechanism::Tps)
        .with_memory(64 << 20)
        .with_verification();
    let mut machine = stepper(config);
    machine
        .step(
            0,
            Event::Mmap {
                region: 0,
                bytes: 256 << 10,
            },
        )
        .expect("scripted event is well-formed");
    machine
        .step(
            0,
            Event::Mmap {
                region: 1,
                bytes: 256 << 10,
            },
        )
        .expect("scripted event is well-formed");
    for i in 0..64u64 {
        machine
            .step(
                0,
                Event::Access {
                    region: 0,
                    offset: i * BASE_PAGE_SIZE,
                    write: true,
                },
            )
            .expect("scripted event is well-formed");
        machine
            .step(
                0,
                Event::Access {
                    region: 1,
                    offset: i * BASE_PAGE_SIZE,
                    write: true,
                },
            )
            .expect("scripted event is well-formed");
    }
    let pt = machine.os().process(0).page_table();
    // Census: both regions promoted independently; physical ranges disjoint.
    let vma_bases: Vec<VirtAddr> = machine
        .os()
        .process(0)
        .address_space()
        .iter()
        .map(|v| v.base())
        .collect();
    assert_eq!(vma_bases.len(), 2);
    let pa0 = pt.translate(vma_bases[0]).unwrap();
    let pa1 = pt.translate(vma_bases[1]).unwrap();
    assert_ne!(
        pa0.align_down(18),
        pa1.align_down(18),
        "distinct physical blocks"
    );
}

#[test]
fn page_merging_keeps_translations_valid_through_the_machine() {
    let config = MachineConfig::for_mechanism(Mechanism::Only4K)
        .with_memory(64 << 20)
        .with_verification();
    let mut machine = stepper(config);
    machine
        .step(
            0,
            Event::Mmap {
                region: 0,
                bytes: 256 << 10,
            },
        )
        .expect("scripted event is well-formed");
    for i in 0..64u64 {
        machine
            .step(
                0,
                Event::Access {
                    region: 0,
                    offset: i * BASE_PAGE_SIZE,
                    write: true,
                },
            )
            .expect("scripted event is well-formed");
    }
    let merges = machine.merge_pages(0);
    assert!(merges > 0, "contiguous 4K faults must merge");
    // Re-access everything: verification asserts every translation, and
    // stale (pre-merge) TLB entries must still be correct, as the paper
    // argues merges need no shootdowns.
    for i in 0..64u64 {
        machine
            .step(
                0,
                Event::Access {
                    region: 0,
                    offset: i * BASE_PAGE_SIZE,
                    write: false,
                },
            )
            .expect("scripted event is well-formed");
    }
    let census = machine.os().process(0).page_table().page_census();
    assert!(census.keys().any(|o| o.get() >= 4), "census {census:?}");
}
