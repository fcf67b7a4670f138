//! Fixed-page-size set-associative TLB (the conventional design).

use crate::entry::{Asid, TlbEntry};
use tps_core::lru::{Invalidation, LruStore};
use tps_core::PageOrder;

/// A set-associative TLB holding entries of one fixed page order.
///
/// Indexed by the low bits of the page number at that order, with true LRU
/// within each set — the structure of the per-size L1 TLBs in commercial
/// cores (paper Fig. 1).
///
/// # Example
///
/// ```
/// use tps_tlb::{SetAssocTlb, TlbEntry};
/// use tps_core::PageOrder;
///
/// let mut tlb = SetAssocTlb::new(16, 4, PageOrder::P4K); // 64-entry L1 DTLB
/// let e = TlbEntry { asid: 0, vpn: 0x42, order: PageOrder::P4K, pfn: 0x99, writable: true };
/// tlb.fill(e);
/// assert_eq!(tlb.lookup(0, 0x42), Some(e));
/// assert_eq!(tlb.lookup(0, 0x43), None);
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocTlb {
    order: PageOrder,
    store: LruStore<TlbEntry>,
}

impl SetAssocTlb {
    /// Creates a TLB with `sets × ways` entries for pages of `order`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize, order: PageOrder) -> Self {
        SetAssocTlb {
            order,
            store: LruStore::new(sets, ways),
        }
    }

    #[inline]
    fn set_of(&self, vpn: u64) -> usize {
        ((vpn >> self.order.get()) & (self.store.sets() as u64 - 1)) as usize
    }

    /// Looks up a base-page VPN; refreshes LRU on hit.
    pub fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<TlbEntry> {
        let set = self.set_of(vpn);
        self.store.lookup(set, |e| e.covers(asid, vpn)).copied()
    }

    /// Installs an entry, evicting the set's LRU entry if needed.
    ///
    /// # Panics
    ///
    /// Panics if the entry's order differs from the TLB's fixed order.
    pub fn fill(&mut self, entry: TlbEntry) {
        assert_eq!(entry.order, self.order, "entry order mismatch");
        let set = self.set_of(entry.vpn);
        self.store
            .fill(set, entry, |e| e.asid == entry.asid && e.vpn == entry.vpn);
    }

    /// Drops the entries a shootdown covers.
    pub(crate) fn shoot_down(&mut self, inv: Invalidation) {
        self.store.shoot_down(inv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(vpn: u64) -> TlbEntry {
        TlbEntry {
            asid: 0,
            vpn,
            order: PageOrder::P4K,
            pfn: vpn + 0x1000, // tps-lint::allow(no-magic-page-size, reason = "PFN index, not a byte size")
            writable: true,
        }
    }

    #[test]
    fn fill_lookup_roundtrip() {
        let mut t = SetAssocTlb::new(16, 4, PageOrder::P4K);
        t.fill(e(5));
        assert_eq!(t.lookup(0, 5).unwrap().pfn, 5 + 0x1000); // tps-lint::allow(no-magic-page-size, reason = "PFN index, not a byte size")
        assert!(t.lookup(0, 6).is_none());
        assert!(t.lookup(1, 5).is_none(), "wrong ASID misses");
    }

    #[test]
    fn conflict_only_within_set() {
        let mut t = SetAssocTlb::new(16, 1, PageOrder::P4K);
        t.fill(e(0));
        t.fill(e(1)); // different set
        assert!(t.lookup(0, 0).is_some());
        assert!(t.lookup(0, 1).is_some());
        t.fill(e(16)); // same set as 0 -> evicts it (1 way)
        assert!(t.lookup(0, 0).is_none());
        assert!(t.lookup(0, 16).is_some());
    }

    #[test]
    fn refill_same_vpn_updates_in_place() {
        let mut t = SetAssocTlb::new(16, 2, PageOrder::P4K);
        t.fill(e(5));
        let mut e2 = e(5);
        e2.pfn = 0x7777;
        t.fill(e2);
        // A duplicate would sit behind the stale entry and never hit.
        assert_eq!(t.lookup(0, 5).unwrap().pfn, 0x7777);
    }

    #[test]
    fn huge_page_indexing() {
        let mut t = SetAssocTlb::new(8, 4, PageOrder::P2M);
        let entry = TlbEntry {
            asid: 0,
            vpn: 512 * 7, // 2M page number 7
            order: PageOrder::P2M,
            pfn: 512 * 100,
            writable: false,
        };
        t.fill(entry);
        // Any base VPN within the 2M page hits.
        assert!(t.lookup(0, 512 * 7 + 13).is_some());
        assert!(t.lookup(0, 512 * 8).is_none());
    }

    #[test]
    #[should_panic(expected = "order mismatch")]
    fn rejects_wrong_order_fill() {
        let mut t = SetAssocTlb::new(16, 4, PageOrder::P4K);
        let mut bad = e(0);
        bad.order = PageOrder::P2M;
        t.fill(bad);
    }
}
