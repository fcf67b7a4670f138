//! Differential test: the indexed [`AnySizeTlb`] against the stamp-based,
//! linear-scan any-size TLB it replaced, kept here as the reference.
//!
//! Both are driven through the same seeded sequences of fills, lookups,
//! range and ASID shootdowns and injected fill/evict faults. After every
//! operation they must return the same entry, report the same
//! [`FillOutcome`] and hold the same live entries in the same slots.

use super::{AnySizeTlb, FillOutcome};
use crate::entry::TlbEntry;
use std::cell::RefCell;
use std::rc::Rc;
use tps_core::lru::{CachedSpan, Invalidation};
use tps_core::rng::Rng;
use tps_core::{FaultInjector, FaultSite, InjectorHandle, PageOrder};

/// The replaced model: entries in slot order with a logical timestamp
/// each; a lookup or fill stamps the entry it touches; the victim is the
/// first entry with the smallest stamp.
struct Reference {
    capacity: usize,
    slots: Vec<(TlbEntry, u64)>,
    clock: u64,
    /// Times the victim of a full set was chosen (the evict-fault site).
    evictions_asked: u32,
}

impl Reference {
    fn new(capacity: usize) -> Self {
        Reference {
            capacity,
            slots: Vec::new(),
            clock: 0,
            evictions_asked: 0,
        }
    }

    fn lookup(&mut self, asid: u16, vpn: u64) -> Option<TlbEntry> {
        self.clock += 1;
        let clock = self.clock;
        self.slots
            .iter_mut()
            .find(|(e, _)| e.covers(asid, vpn))
            .map(|(e, stamp)| {
                *stamp = clock;
                *e
            })
    }

    fn fill(&mut self, entry: TlbEntry, drop_fill: bool, abandon: bool) -> FillOutcome {
        if drop_fill {
            return FillOutcome::Dropped;
        }
        self.clock += 1;
        let clock = self.clock;
        let same =
            |e: &TlbEntry| e.asid == entry.asid && e.vpn == entry.vpn && e.order == entry.order;
        if let Some(slot) = self.slots.iter_mut().find(|(e, _)| same(e)) {
            *slot = (entry, clock);
            return FillOutcome::Installed;
        }
        if self.slots.len() < self.capacity {
            self.slots.push((entry, clock));
            return FillOutcome::Installed;
        }
        self.evictions_asked += 1;
        let victim = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map_or(0, |(i, _)| i);
        if abandon {
            self.slots.remove(victim);
            return FillOutcome::Abandoned;
        }
        self.slots[victim] = (entry, clock);
        FillOutcome::Installed
    }

    fn shoot_down(&mut self, inv: Invalidation) {
        self.slots.retain(|(e, _)| match inv {
            Invalidation::Range { asid, start, end } => {
                let (e_start, e_end) = e.span();
                !(e.asid == asid && e_start < end && start < e_end)
            }
            Invalidation::Asid(asid) => e.asid != asid,
        });
    }

    fn live(&self) -> Vec<TlbEntry> {
        self.slots.iter().map(|(e, _)| *e).collect()
    }
}

/// Answers the two any-size fault sites from flags the test sets per fill.
#[derive(Debug, Default)]
struct Script {
    drop_fill: bool,
    abandon: bool,
    evictions_asked: u32,
}

impl FaultInjector for Script {
    fn should_fault(&mut self, site: FaultSite) -> bool {
        match site {
            FaultSite::AnySizeFill => self.drop_fill,
            FaultSite::AnySizeEvict => {
                self.evictions_asked += 1;
                self.abandon
            }
            FaultSite::BuddyAlloc { .. }
            | FaultSite::ReserveSpan
            | FaultSite::CompactionStep
            | FaultSite::ShootdownDeliver
            | FaultSite::WalkStep { .. }
            | FaultSite::AliasInstall
            | FaultSite::MmuCacheFill
            | FaultSite::StlbProbe => false,
        }
    }
}

/// Orders drawn for fills: several sizes, so entries of different orders
/// overlap one VPN.
const ORDERS: [u8; 6] = [0, 0, 1, 3, 4, 9];

/// An entry of `asid` covering a page of the `pages`-page region, with a
/// random PFN, so overlapping entries translate differently.
fn arbitrary_entry(rng: &mut Rng, asids: u64, pages: u64) -> TlbEntry {
    let order = ORDERS[rng.below(ORDERS.len() as u64) as usize];
    let align = |n: u64| (n >> order) << order;
    TlbEntry {
        asid: rng.below(asids) as u16,
        vpn: align(rng.below(pages)),
        order: PageOrder::new(order).unwrap(),
        pfn: align(rng.below(1 << 24)),
        writable: rng.chance(0.5),
    }
}

/// Runs `ops` operations, `shootdowns` per mille of them shootdowns (one
/// in five of those for a whole ASID), the rest fills and lookups.
fn run(capacity: usize, seed: u64, ops: usize, shootdowns: u64) {
    let asids = 3;
    // Enough distinct base pages that every capacity fills and evicts.
    let pages = (capacity as u64 * 4).max(64);
    let mut rng = Rng::new(seed);
    let script = Rc::new(RefCell::new(Script::default()));
    let mut tlb = AnySizeTlb::new(capacity);
    tlb.set_fault_injector(Some(script.clone() as InjectorHandle));
    let mut reference = Reference::new(capacity);
    let mut recent: Vec<TlbEntry> = Vec::new();
    for op in 0..ops {
        let ctx = format!("capacity {capacity}, seed {seed}, op {op}");
        let roll = rng.below(1000);
        let lookups = 1000 - shootdowns;
        if roll < lookups / 2 {
            let entry = arbitrary_entry(&mut rng, asids, pages);
            let (drop_fill, abandon) = (rng.chance(0.05), rng.chance(0.1));
            {
                let mut s = script.borrow_mut();
                s.drop_fill = drop_fill;
                s.abandon = abandon;
            }
            let got = tlb.fill(entry);
            assert_eq!(
                got,
                reference.fill(entry, drop_fill, abandon),
                "{ctx}: fill"
            );
            recent.push(entry);
            if recent.len() > 16 {
                recent.remove(0);
            }
        } else if roll < lookups {
            // Half the probes land inside a recent fill, the rest anywhere.
            let (asid, vpn) = match recent.get(rng.below(2 * recent.len() as u64 + 1) as usize) {
                Some(e) => (e.asid, e.vpn + rng.below(e.order.base_pages())),
                None => (rng.below(asids) as u16, rng.below(pages)),
            };
            let got = tlb.lookup(asid, vpn);
            assert_eq!(got, reference.lookup(asid, vpn), "{ctx}: lookup");
        } else {
            let asid = rng.below(asids) as u16;
            let inv = if roll - lookups < shootdowns * 4 / 5 {
                let start = rng.below(pages);
                Invalidation::Range {
                    asid,
                    start,
                    end: start + 1 + rng.below(16),
                }
            } else {
                Invalidation::Asid(asid)
            };
            tlb.shoot_down(inv);
            reference.shoot_down(inv);
        }
        let live: Vec<TlbEntry> = tlb.store.entries(0).copied().collect();
        assert_eq!(live, reference.live(), "{ctx}: live slots");
        assert_eq!(
            script.borrow().evictions_asked,
            reference.evictions_asked,
            "{ctx}: evict-fault site consulted"
        );
    }
}

#[test]
fn indexed_tlb_matches_the_linear_scan_reference() {
    for seed in 0..12 {
        run(4, seed, 2_000, 50);
        run(32, seed, 3_000, 50);
    }
    // Rarer shootdowns let the STLB-sized TLB fill up and evict.
    for seed in 0..3 {
        run(1552, seed, 12_000, 2);
    }
}
