//! Property tests pitting every TLB structure against a naive shadow
//! model: an unbounded map of installed translations. Any hit a structure
//! produces must agree with the shadow; capacity only ever causes misses,
//! never wrong translations.

use proptest::prelude::*;
use tps_core::rng::Rng;
use tps_core::{PageOrder, VirtAddr};
use tps_tlb::{AnySizeTlb, DualStlb, RangeEntry, RangeTlb, SetAssocTlb, TlbEntry};

/// The shadow: a list of installed entries, newest wins on overlap.
#[derive(Default)]
struct Shadow {
    entries: Vec<TlbEntry>,
}

impl Shadow {
    fn install(&mut self, e: TlbEntry) {
        self.entries.push(e);
    }

    /// The translation the most recent covering install would give.
    fn translate(&self, asid: u16, vpn: u64) -> Option<u64> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.covers(asid, vpn))
            .map(|e| e.translate(vpn))
    }
}

fn arbitrary_entry(rng: &mut Rng, max_order: u8) -> TlbEntry {
    let order = PageOrder::new(rng.below(max_order as u64 + 1) as u8).unwrap();
    let vpn = (rng.below(1 << 20) >> order.get()) << order.get();
    let pfn = (rng.below(1 << 20) >> order.get()) << order.get();
    TlbEntry {
        asid: rng.below(2) as u16,
        vpn,
        order,
        pfn,
        writable: rng.chance(0.5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fully-associative any-size TLB: every hit matches the shadow.
    #[test]
    fn any_size_hits_agree_with_shadow(seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        let mut tlb = AnySizeTlb::new(8);
        let mut shadow = Shadow::default();
        for _ in 0..200 {
            if rng.chance(0.5) {
                let e = arbitrary_entry(&mut rng, 12);
                tlb.fill(e);
                shadow.install(e);
            } else {
                let asid = rng.below(2) as u16;
                let vpn = rng.below(1 << 20);
                if let Some(hit) = tlb.lookup(asid, vpn) {
                    // A hit must be *a* valid installed translation. With
                    // overlapping installs the shadow's newest wins, but the
                    // TLB may legitimately still hold an older overlapping
                    // entry only if no newer overlapping install happened —
                    // our fill replaces same-(vpn,order) entries, so check
                    // the hit exists somewhere in the install history.
                    let valid = shadow.entries.iter().any(|e| {
                        e.covers(asid, vpn) && e.translate(vpn) == hit.translate(vpn)
                    });
                    prop_assert!(valid, "hit not justified by any install");
                }
            }
        }
    }

    /// Set-associative fixed-size TLB: hits agree with the shadow exactly
    /// (same-page fills replace in place, so the newest always wins).
    #[test]
    fn set_assoc_hits_agree_with_shadow(seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        let mut tlb = SetAssocTlb::new(4, 2, PageOrder::P4K);
        let mut shadow = Shadow::default();
        for _ in 0..300 {
            if rng.chance(0.5) {
                let mut e = arbitrary_entry(&mut rng, 0);
                e.order = PageOrder::P4K;
                tlb.fill(e);
                shadow.install(e);
            } else {
                let asid = rng.below(2) as u16;
                let vpn = rng.below(1 << 20);
                if let Some(hit) = tlb.lookup(asid, vpn) {
                    prop_assert_eq!(
                        Some(hit.translate(vpn)),
                        shadow.translate(asid, vpn),
                        "stale translation returned"
                    );
                }
            }
        }
    }

    /// Dual-probe STLB: hits agree with the newest covering install.
    #[test]
    fn dual_stlb_hits_agree_with_shadow(seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        let mut tlb = DualStlb::new(8, 2);
        let mut shadow = Shadow::default();
        for _ in 0..300 {
            if rng.chance(0.5) {
                let mut e = arbitrary_entry(&mut rng, 0);
                e.order = if rng.chance(0.3) { PageOrder::P2M } else { PageOrder::P4K };
                e.vpn = (e.vpn >> e.order.get()) << e.order.get();
                e.pfn = (e.pfn >> e.order.get()) << e.order.get();
                tlb.fill(e);
                shadow.install(e);
            } else {
                let asid = rng.below(2) as u16;
                let vpn = rng.below(1 << 20);
                if let Some(hit) = tlb.lookup(asid, vpn).hit() {
                    let valid = shadow.entries.iter().any(|e| {
                        e.covers(asid, vpn) && e.translate(vpn) == hit.translate(vpn)
                    });
                    prop_assert!(valid);
                }
            }
        }
    }

    /// Range TLB: hits always come from an installed, covering range.
    #[test]
    fn range_tlb_hits_agree_with_installs(seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        let mut tlb = RangeTlb::new(4);
        let mut installed: Vec<RangeEntry> = Vec::new();
        for _ in 0..200 {
            if rng.chance(0.4) {
                let start = rng.below(1 << 18);
                let len = 1 + rng.below(1 << 14);
                let e = RangeEntry {
                    asid: rng.below(2) as u16,
                    start_vpn: start,
                    end_vpn: start + len,
                    delta: rng.below(1 << 18) as i64 - (1 << 17),
                    writable: rng.chance(0.5),
                };
                tlb.fill(e);
                installed.push(e);
            } else {
                let asid = rng.below(2) as u16;
                let vpn = rng.below(1 << 18);
                if let Some(hit) = tlb.lookup(asid, vpn) {
                    let justified = installed.iter().any(|e| {
                        e.asid == asid
                            && e.start_vpn == hit.start_vpn
                            && e.end_vpn == hit.end_vpn
                            && e.delta == hit.delta
                    });
                    prop_assert!(justified);
                    prop_assert!(hit.covers(asid, vpn));
                }
            }
        }
    }

    /// Invalidation completeness: after shooting down a range, no structure
    /// returns a translation overlapping it.
    #[test]
    fn invalidation_is_complete(seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        let mut tlb = AnySizeTlb::new(16);
        for _ in 0..50 {
            tlb.fill(arbitrary_entry(&mut rng, 10));
        }
        // Shoot down a random 4 MB-aligned region for ASID 0.
        let kill_order = PageOrder::new(10).unwrap();
        let kill_va = VirtAddr::new((rng.below(1 << 10) << 10) << 12).align_down(kill_order.shift());
        tlb.invalidate(0, kill_va, kill_order);
        let start = kill_va.base_page_number();
        for probe in 0..32 {
            let vpn = start + probe * (kill_order.base_pages() / 32).max(1);
            prop_assert!(tlb.lookup(0, vpn).is_none(), "survived shootdown at {vpn}");
        }
    }
}
