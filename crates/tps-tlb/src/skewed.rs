//! Skewed-associative any-page-size TLB (Seznec, IEEE ToC 2004; cited by
//! the paper §III-A2 as an alternative to the fully-associative TPS TLB).
//!
//! A fully-associative any-size TLB is easy to reason about but costly in
//! CAM area at larger capacities. The skewed alternative gives each way
//! its own *size class* and hash function: a lookup probes every way at
//! the index its class implies, so the page size need not be known before
//! indexing. The ablation benches compare it against the 32-entry FA
//! design.

use crate::entry::{Asid, TlbEntry};
use tps_core::lru::{Invalidation, LruStore};

/// One way of the skewed TLB: a direct-mapped array serving a size class.
#[derive(Clone, Debug)]
struct Way {
    /// Smallest order this way serves.
    floor: u8,
    /// Largest order of the class; the index function shifts by this so
    /// every VPN inside a page of the class maps to one set.
    ceil: u8,
    /// Way-specific hash multiplier (the "skew").
    skew: u64,
    /// The way's sets, one entry each.
    store: LruStore<TlbEntry>,
}

impl Way {
    fn index(&self, vpn: u64) -> usize {
        let page = vpn >> self.ceil;
        (page.wrapping_mul(self.skew) >> (64 - self.store.sets().trailing_zeros())) as usize
    }
}

/// Skewed-associative TLB supporting any page size.
///
/// # Example
///
/// ```
/// use tps_tlb::{SkewedTlb, TlbEntry};
/// use tps_core::PageOrder;
///
/// let mut tlb = SkewedTlb::new(8); // 4 ways x 8 sets = 32 entries
/// let entry = TlbEntry {
///     asid: 0, vpn: 0x8000, order: PageOrder::new(6).unwrap(), // 256K
///     pfn: 0x2000, writable: true,
/// };
/// tlb.fill(entry);
/// assert!(tlb.lookup(0, 0x8000 + 63).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct SkewedTlb {
    ways: Vec<Way>,
}

/// Size classes of the four ways as (floor, ceil) order ranges:
/// 4K–16K, 32K–512K, 1M–16M, 32M–1G. A page fills the way whose class
/// contains its order (pages above 1 GB still work — `covers()` guards
/// correctness — but may alias across sets of the last way).
const WAY_CLASSES: [(u8, u8); 4] = [(0, 2), (3, 7), (8, 12), (13, 18)];

impl SkewedTlb {
    /// Creates a 4-way skewed TLB with `sets_per_way` sets in each way
    /// (total capacity `4 * sets_per_way`).
    ///
    /// # Panics
    ///
    /// Panics if `sets_per_way` is not a power of two.
    pub fn new(sets_per_way: usize) -> Self {
        SkewedTlb {
            ways: WAY_CLASSES
                .iter()
                .enumerate()
                .map(|(i, &(floor, ceil))| Way {
                    floor,
                    ceil,
                    skew: 0x9e37_79b9_7f4a_7c15u64.rotate_left(17 * i as u32) | 1,
                    store: LruStore::new(sets_per_way, 1),
                })
                .collect(),
        }
    }

    /// Probes all ways, each at its own size-class index.
    pub fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<TlbEntry> {
        self.ways.iter_mut().find_map(|way| {
            let idx = way.index(vpn);
            way.store.lookup(idx, |e| e.covers(asid, vpn)).copied()
        })
    }

    /// Installs an entry into its size-class way, replacing whatever that
    /// way's indexed set holds. Each way is direct-mapped and a page has
    /// exactly one way, so there is no alternative placement to weigh.
    pub fn fill(&mut self, entry: TlbEntry) {
        // The way whose class contains the order (last way takes overflow;
        // way 0's floor of 0 accepts every order).
        let way_idx = self
            .ways
            .iter()
            .rposition(|w| w.floor <= entry.order.get())
            .unwrap_or(0);
        let way = &mut self.ways[way_idx];
        let idx = way.index(entry.vpn);
        way.store.fill(idx, entry, |_| false);
    }

    /// Drops the entries a shootdown covers.
    pub(crate) fn shoot_down(&mut self, inv: Invalidation) {
        for way in &mut self.ways {
            way.store.shoot_down(inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::{PageOrder, VirtAddr};

    fn e(vpn: u64, order: u8) -> TlbEntry {
        let o = PageOrder::new(order).unwrap();
        TlbEntry {
            asid: 0,
            vpn: (vpn >> o.get()) << o.get(),
            order: o,
            pfn: vpn + 0x10_0000,
            writable: true,
        }
    }

    #[test]
    fn mixed_sizes_fill_and_hit() {
        let mut t = SkewedTlb::new(8);
        t.fill(e(0, 0)); // 4K -> way 0
        t.fill(e(64, 4)); // 64K -> way 3-floor class
        t.fill(e(1 << 14, 14)); // 64M -> way with floor 13
        assert!(t.lookup(0, 0).is_some());
        assert!(t.lookup(0, 64 + 7).is_some());
        assert!(t.lookup(0, (1 << 14) + 1000).is_some());
    }

    #[test]
    fn conflicting_fills_evict_within_one_way() {
        let mut t = SkewedTlb::new(2); // tiny: 2 sets per way
                                       // Many 4K pages: all land in way 0 (2 sets) -> heavy eviction.
        for vpn in 0..16 {
            t.fill(e(vpn, 0));
        }
        assert!(
            (0..16).filter(|&vpn| t.lookup(0, vpn).is_some()).count() <= 2,
            "4K pages confined to way 0"
        );
        // But a large page in another class is untouched by 4K pressure.
        t.fill(e(1 << 13, 13));
        for vpn in 16..32 {
            t.fill(e(vpn, 0));
        }
        assert!(t.lookup(0, (1 << 13) + 5).is_some(), "class isolation");
    }

    #[test]
    fn invalidation() {
        let mut t = SkewedTlb::new(8);
        t.fill(e(0, 4));
        t.shoot_down(Invalidation::page(
            0,
            VirtAddr::new(3 << 12),
            PageOrder::P4K,
        ));
        assert!(
            t.lookup(0, 0).is_none(),
            "overlapping large entry shot down"
        );
        t.fill(e(0, 0));
        let mut other = e(8, 0);
        other.asid = 5;
        t.fill(other);
        t.shoot_down(Invalidation::Asid(5));
        assert!(t.lookup(5, 8).is_none());
        assert!(t.lookup(0, 0).is_some());
    }

    #[test]
    fn translation_correct_through_mask() {
        let mut t = SkewedTlb::new(8);
        let entry = e(1 << 6, 6); // 256K page
        t.fill(entry);
        let hit = t.lookup(0, (1 << 6) + 13).unwrap();
        assert_eq!(hit.translate((1 << 6) + 13), entry.pfn + 13);
    }
}
