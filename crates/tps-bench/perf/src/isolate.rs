//! Per-layer isolations: each layer's public functions called from
//! outside on pinned inputs, independent of the run's workload and seed.
//! Every timing is the median over several trials of a fixed loop.

use std::hint::black_box;
use std::time::Instant;

use tps_core::rng::SplitMix64;
use tps_core::{PageOrder, PhysAddr, PteFlags, VirtAddr, BASE_PAGE_SIZE, GIB};
use tps_mem::BuddyAllocator;
use tps_os::Os;
use tps_pt::{MmuCaches, PageTable, Walker};
use tps_sim::{AccessLevel, MachineConfig, Mechanism, Mmu, NestedWalkModel};
use tps_tlb::{AnySizeTlb, DualStlb, SetAssocTlb, TlbEntry};

use crate::metrics::Summary;

/// Trials per timed loop; the median is reported.
const TRIALS: usize = 5;

/// Nanoseconds per operation of `body`, which performs `ops` operations:
/// the median over [`TRIALS`] runs.
fn ns_per_op(ops: u64, mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..TRIALS)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    Summary::of(&samples).expect("TRIALS > 0").median
}

/// The translation microbenchmark committed as `BENCH_8.json`: pinned
/// seed, 8 interleaved first-touched 32 MB regions, an 8-set STLB and
/// 2 M accesses with 7 in 8 inside an 8 MB hot window.
pub mod xlate {
    use super::*;

    pub const SEED: u64 = 0x5EED_0008;
    const MEMORY: u64 = 512 << 20;
    const VMAS: u64 = 8;
    const VMA_SIZE: u64 = 32 << 20;
    const HOT_WINDOW: u64 = 8 << 20;
    pub const ACCESSES: u64 = 2_000_000;
    const STLB_SETS: usize = 8;

    /// Hardware counters of the timed loop.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub struct Counters {
        pub l1_hits: u64,
        pub stlb_hits: u64,
        pub range_hits: u64,
        pub l2_misses: u64,
        pub walks: u64,
        pub walk_refs: u64,
        pub faults: u64,
    }

    /// The `after` block of `BENCH_8.json`, by metric name (the last
    /// component is the mechanism key there): the counters every run must
    /// reproduce.
    pub const EXPECTED: [(&str, Mechanism, Counters); 4] = [
        (
            "mmu.xlate_ns.thp",
            Mechanism::Thp,
            Counters {
                l1_hits: 1_813_089,
                stlb_hits: 132_303,
                range_hits: 0,
                l2_misses: 54_608,
                walks: 54_608,
                walk_refs: 54_608,
                faults: 0,
            },
        ),
        (
            "mmu.xlate_ns.tps",
            Mechanism::Tps,
            Counters {
                l1_hits: 2_000_000,
                stlb_hits: 0,
                range_hits: 0,
                l2_misses: 0,
                walks: 0,
                walk_refs: 0,
                faults: 0,
            },
        ),
        (
            "mmu.xlate_ns.colt",
            Mechanism::Colt,
            Counters {
                l1_hits: 1_699_810,
                stlb_hits: 238_452,
                range_hits: 0,
                l2_misses: 61_738,
                walks: 61_738,
                walk_refs: 61_738,
                faults: 0,
            },
        ),
        (
            "mmu.xlate_ns.rmm",
            Mechanism::Rmm,
            Counters {
                l1_hits: 501_174,
                stlb_hits: 0,
                range_hits: 1_498_826,
                l2_misses: 0,
                walks: 0,
                walk_refs: 0,
                faults: 0,
            },
        ),
    ];

    /// Runs the loop once under `mechanism`: nanoseconds per timed access
    /// and the loop's counters.
    pub fn run(mechanism: Mechanism) -> (f64, Counters) {
        let mut config = MachineConfig::for_mechanism(mechanism).with_memory(MEMORY);
        config.tlb.stlb_sets = STLB_SETS;
        config.tlb.tps_stlb_entries = STLB_SETS * config.tlb.stlb_ways;
        let mut os = Os::with_buddy(BuddyAllocator::new(MEMORY), config.policy);
        let asid = os.spawn();
        let mut mmu = Mmu::new(&config);
        let bases: Vec<u64> = (0..VMAS)
            .map(|_| {
                let vma = os.mmap(asid, VMA_SIZE).expect("microbench region maps");
                vma.base().value()
            })
            .collect();

        // Warm-up: every base page touched once, the regions interleaved
        // so frames alternate between them and CoLT cannot coalesce.
        let mut off = 0;
        while off < VMA_SIZE {
            for base in &bases {
                mmu.access(&mut os, asid, VirtAddr::new(base + off), true)
                    .expect("warm-up touches freshly mapped regions");
            }
            off += BASE_PAGE_SIZE;
        }
        let warm = mmu.tlb().stats();

        let mut rng = SplitMix64::new(SEED);
        let mut walks = 0u64;
        let mut walk_refs = 0u64;
        let mut faults = 0u64;
        let start = Instant::now();
        for _ in 0..ACCESSES {
            let r = rng.next_u64();
            let va = if r & 7 != 0 {
                bases[0] + r % HOT_WINDOW
            } else {
                bases[((r >> 32) % VMAS) as usize] + r % VMA_SIZE
            };
            let out = mmu
                .access(&mut os, asid, VirtAddr::new(va), r & 1 == 0)
                .expect("benchmark accesses stay within mapped regions");
            if out.level == AccessLevel::Walk {
                walks += 1;
            }
            walk_refs += out.walk_refs;
            faults += u64::from(out.faults);
        }
        let ns = start.elapsed().as_nanos() as f64 / ACCESSES as f64;

        let stats = mmu.tlb().stats();
        let counters = Counters {
            l1_hits: stats.l1_hits - warm.l1_hits,
            stlb_hits: stats.stlb_hits - warm.stlb_hits,
            range_hits: stats.range_hits - warm.range_hits,
            l2_misses: stats.l2_misses - warm.l2_misses,
            walks,
            walk_refs,
            faults,
        };
        (ns, counters)
    }
}

fn entry(vpn: u64, order: PageOrder) -> TlbEntry {
    TlbEntry {
        asid: 0,
        vpn,
        order,
        pfn: vpn + 0x100,
        writable: true,
    }
}

/// Lookups per TLB trial.
const TLB_OPS: u64 = 2_000_000;

fn tlb_set_assoc() -> f64 {
    let mut tlb = SetAssocTlb::new(16, 4, PageOrder::P4K);
    for vpn in 0..64 {
        tlb.fill(entry(vpn, PageOrder::P4K));
    }
    ns_per_op(TLB_OPS, || {
        for i in 0..TLB_OPS {
            black_box(tlb.lookup(0, black_box(i % 64)));
        }
    })
}

fn tlb_any_size() -> f64 {
    let order = PageOrder::new(4).expect("order 4 is a TPS page size");
    let mut tlb = AnySizeTlb::new(32);
    for i in 0..32u64 {
        tlb.fill(entry(i << 4, order));
    }
    ns_per_op(TLB_OPS, || {
        for i in 0..TLB_OPS {
            black_box(tlb.lookup(0, black_box(((i % 32) << 4) + 3)));
        }
    })
}

fn tlb_stlb() -> f64 {
    let mut stlb = DualStlb::new(128, 12);
    for vpn in 0..1536 {
        stlb.fill(entry(vpn, PageOrder::P4K));
    }
    ns_per_op(TLB_OPS, || {
        for i in 0..TLB_OPS {
            black_box(stlb.lookup(0, black_box(i % 1536)));
        }
    })
}

/// Base pages the page-table isolations map: 64 MB, enough nodes that a
/// walk does not stay in one cache line.
const PT_PAGES: u64 = 16 << 10;
/// Operations per page-table trial.
const PT_OPS: u64 = 500_000;

/// A page table mapping `PT_PAGES` 4 KB pages from 1 GB up, and a pinned
/// pseudo-random sequence of addresses inside it.
fn pt_fixture() -> (PageTable, Vec<VirtAddr>) {
    let mut pt = PageTable::new();
    for i in 0..PT_PAGES {
        pt.map(
            VirtAddr::new(GIB + i * BASE_PAGE_SIZE),
            PhysAddr::new(GIB + i * BASE_PAGE_SIZE),
            PageOrder::P4K,
            PteFlags::WRITABLE,
        )
        .expect("fixture pages map");
    }
    let mut rng = SplitMix64::new(0x5EED_7AB1);
    let vas = (0..PT_OPS)
        .map(|_| VirtAddr::new(GIB + (rng.next_u64() % PT_PAGES) * BASE_PAGE_SIZE))
        .collect();
    (pt, vas)
}

fn pt_all() -> [f64; 3] {
    let (pt, vas) = pt_fixture();
    let lookup = ns_per_op(PT_OPS, || {
        for &va in &vas {
            black_box(pt.lookup(black_box(va)));
        }
    });
    let mut walker = Walker::default();
    let cold = ns_per_op(PT_OPS, || {
        for &va in &vas {
            black_box(
                walker
                    .walk(&pt, black_box(va), None)
                    .expect("fixture is mapped"),
            );
        }
    });
    let mut caches = MmuCaches::default();
    let cached = ns_per_op(PT_OPS, || {
        for &va in &vas {
            black_box(
                walker
                    .walk(&pt, black_box(va), Some(&mut caches))
                    .expect("fixture is mapped"),
            );
        }
    });
    [lookup, cold, cached]
}

fn pt_nested_ref() -> f64 {
    let guest = 2 * GIB;
    let mut nested = NestedWalkModel::new(guest);
    let mut rng = SplitMix64::new(0x5EED_0E57);
    let pas: Vec<PhysAddr> = (0..PT_OPS)
        .map(|_| PhysAddr::new((rng.next_u64() % guest) & !(BASE_PAGE_SIZE - 1)))
        .collect();
    ns_per_op(PT_OPS, || {
        for &pa in &pas {
            black_box(nested.nested_refs(black_box(pa)));
        }
    })
}

/// Region the fault isolation maps and first-touches.
const FAULT_REGION: u64 = 64 << 20;

/// `Os::mmap` of a 64 MB region plus a first-touch sweep through
/// `Os::handle_fault`, in ns per 4 KB page, and the promotions the sweep
/// made (a count that repeats exactly).
fn os_fault(mechanism: Mechanism) -> (f64, u64) {
    let policy = MachineConfig::for_mechanism(mechanism).policy;
    let pages = FAULT_REGION / BASE_PAGE_SIZE;
    let mut promotions = 0;
    let ns = ns_per_op(pages, || {
        let mut os = Os::with_buddy(BuddyAllocator::new(4 * FAULT_REGION), policy);
        let asid = os.spawn();
        let vma = os.mmap(asid, FAULT_REGION).expect("fault region maps");
        for page in 0..pages {
            let va = VirtAddr::new(vma.base().value() + page * BASE_PAGE_SIZE);
            if os.page_table(asid).lookup(va).is_none() {
                os.handle_fault(asid, va, true)
                    .expect("the sweep stays inside the region");
            }
        }
        promotions = os.stats().promotions;
        black_box(&os);
    });
    (ns, promotions)
}

/// Alloc/free pairs per buddy trial.
const BUDDY_OPS: u64 = 500_000;

fn buddy_alloc_free(order: PageOrder) -> f64 {
    let mut buddy = BuddyAllocator::new(256 << 20);
    ns_per_op(BUDDY_OPS, || {
        for _ in 0..BUDDY_OPS {
            let block = buddy.alloc(order).expect("an empty pool allocates");
            buddy
                .free(black_box(block), order)
                .expect("the block was allocated");
        }
    })
}

/// Samples behind an isolation's value: the median of [`TRIALS`] for a
/// timed loop; one for the bench8 loop (it runs once, as `BENCH_8.json`
/// did) and for a count (every trial repeats it exactly).
pub fn samples(name: &str) -> usize {
    if name.starts_with("mmu.xlate") || name.starts_with("os.fault_promotions") {
        1
    } else {
        TRIALS
    }
}

/// Every isolation, named as in [`crate::metrics::ISOLATIONS`], plus the
/// problems found (bench8 counters that differ from `BENCH_8.json`).
pub fn run_all() -> (Vec<(&'static str, f64)>, Vec<String>) {
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let mut problems = Vec::new();
    for (name, mechanism, expected) in xlate::EXPECTED {
        let (ns, counters) = xlate::run(mechanism);
        if counters != expected {
            problems.push(format!(
                "{name}: counters {counters:?} differ from BENCH_8.json {expected:?}"
            ));
        }
        values.push((name, ns));
    }
    values.push(("tlb.l1_hit_ns.set_assoc", tlb_set_assoc()));
    values.push(("tlb.l1_hit_ns.any_size", tlb_any_size()));
    values.push(("tlb.stlb_hit_ns", tlb_stlb()));
    let [lookup, cold, cached] = pt_all();
    values.push(("pt.lookup_ns", lookup));
    values.push(("pt.walk_cold_ns", cold));
    values.push(("pt.walk_cached_ns", cached));
    values.push(("pt.nested_ref_ns", pt_nested_ref()));
    let faults = [
        (Mechanism::Thp, "os.fault_ns.thp", "os.fault_promotions.thp"),
        (Mechanism::Tps, "os.fault_ns.tps", "os.fault_promotions.tps"),
        (Mechanism::Rmm, "os.fault_ns.rmm", "os.fault_promotions.rmm"),
    ];
    let mut promotions = Vec::new();
    for (mechanism, ns_name, promotions_name) in faults {
        let (ns, n) = os_fault(mechanism);
        values.push((ns_name, ns));
        promotions.push((promotions_name, n as f64));
    }
    values.extend(promotions);
    values.push(("mem.alloc_free_ns.4k", buddy_alloc_free(PageOrder::P4K)));
    values.push(("mem.alloc_free_ns.2m", buddy_alloc_free(PageOrder::P2M)));
    (values, problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// The pinned counters are exactly the `after` block of the committed
    /// `BENCH_8.json`, and the seed and access count match it.
    #[test]
    fn expected_counters_match_bench8_json() {
        let doc = json::parse(include_str!("../../../../BENCH_8.json")).unwrap();
        assert_eq!(doc.get("seed").unwrap().as_u64(), Some(xlate::SEED));
        assert_eq!(doc.get("accesses").unwrap().as_u64(), Some(xlate::ACCESSES));
        let after = doc.get("after").unwrap();
        for (name, _, expected) in xlate::EXPECTED {
            let key = name.rsplit('.').next().unwrap();
            let block = after.get(key).unwrap();
            let field = |key: &str| block.get(key).unwrap().as_u64().unwrap();
            let committed = xlate::Counters {
                l1_hits: field("l1_hits"),
                stlb_hits: field("stlb_hits"),
                range_hits: field("range_hits"),
                l2_misses: field("l2_misses"),
                walks: field("walks"),
                walk_refs: field("walk_refs"),
                faults: field("faults"),
            };
            assert_eq!(committed, expected, "{name}");
        }
    }
}
