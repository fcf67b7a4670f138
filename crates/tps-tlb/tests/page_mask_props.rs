//! Property tests for the per-entry page-mask logic:
//!
//! * the any-size TLB must hit for *every* base page inside an installed
//!   entry's power-of-two page — and for none outside it — at any order;
//! * the dual STLB's two probes (4 KB-indexed and 2 MB-indexed) must
//!   agree with an unbounded shadow on hit/miss and on the translation,
//!   whatever mix of page sizes was installed.

use proptest::prelude::*;
use tps_core::rng::Rng;
use tps_core::PageOrder;
use tps_tlb::{AnySizeTlb, DualStlb, TlbEntry};

/// A random entry of exactly `order`, with vpn/pfn aligned to the page.
fn aligned_entry(rng: &mut Rng, order: PageOrder) -> TlbEntry {
    let align = |n: u64| (n >> order.get()) << order.get();
    TlbEntry {
        asid: rng.below(2) as u16,
        vpn: align(rng.below(1 << 24)),
        pfn: align(rng.below(1 << 24)),
        order,
        writable: rng.chance(0.5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-entry page-mask matching at a random power-of-two order: one
    /// installed entry hits for every offset inside its page with the
    /// exact offset-preserving translation, and misses just outside its
    /// boundaries, for a different ASID, and for distant addresses.
    #[test]
    fn any_size_mask_covers_the_page_and_nothing_else(seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        // Random order from 4 KB up to 1 GB (relative order 0..=18).
        let order = PageOrder::new(rng.below(19) as u8).unwrap();
        let e = aligned_entry(&mut rng, order);
        let mut tlb = AnySizeTlb::new(4);
        tlb.fill(e);

        let pages = order.base_pages();
        // Inside: first, last, and random interior base pages all hit.
        for probe in [0, pages - 1, rng.below(pages), rng.below(pages)] {
            let vpn = e.vpn + probe;
            let hit = tlb.lookup(e.asid, vpn);
            prop_assert!(hit.is_some(), "missed inside the page at +{probe}");
            prop_assert_eq!(hit.unwrap().translate(vpn), e.pfn + probe);
        }
        // Outside: one base page past either boundary misses.
        prop_assert!(tlb.lookup(e.asid, e.vpn + pages).is_none());
        if e.vpn > 0 {
            prop_assert!(tlb.lookup(e.asid, e.vpn - 1).is_none());
        }
        // Same address, other ASID: the mask is tagged, not global.
        prop_assert!(tlb.lookup(e.asid ^ 1, e.vpn).is_none());
    }

    /// Dual-probe hit/miss agreement: with enough ways that nothing is
    /// ever evicted, the STLB hits exactly when some installed 4 KB or
    /// 2 MB entry covers the probe, and the translation it returns is one
    /// an install justifies.
    #[test]
    fn dual_stlb_probes_agree_with_unbounded_shadow(seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        // 64 ways ≥ 48 installs: even a worst-case set never evicts, so
        // capacity cannot excuse a miss.
        let mut tlb = DualStlb::new(8, 64);
        let mut shadow: Vec<TlbEntry> = Vec::new();
        for _ in 0..48 {
            let order = if rng.chance(0.5) { PageOrder::P4K } else { PageOrder::P2M };
            let e = aligned_entry(&mut rng, order);
            tlb.fill(e);
            shadow.push(e);
        }
        for _ in 0..256 {
            // Half the probes target installed pages so hits actually occur.
            let (asid, vpn) = if rng.chance(0.5) {
                let e = &shadow[rng.below(shadow.len() as u64) as usize];
                (e.asid, e.vpn + rng.below(e.order.base_pages()))
            } else {
                (rng.below(2) as u16, rng.below(1 << 24))
            };
            let covered = shadow.iter().any(|e| e.covers(asid, vpn));
            match tlb.lookup(asid, vpn).hit() {
                Some(hit) => {
                    let justified = shadow.iter().any(|e| {
                        e.covers(asid, vpn) && e.translate(vpn) == hit.translate(vpn)
                    });
                    prop_assert!(justified, "hit not justified by any install");
                }
                None => prop_assert!(
                    !covered,
                    "missed a covered probe with eviction impossible (asid {asid}, vpn {vpn:#x})"
                ),
            }
        }
    }
}
