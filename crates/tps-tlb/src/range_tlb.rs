//! The Range TLB of Redundant Memory Mappings (Karakostas et al., ISCA
//! 2015) — the paper's strongest baseline.
//!
//! RMM maintains, alongside the page table, an OS *range table* of
//! unlimited-size contiguous ranges (base, limit, offset). The hardware
//! caches range-table entries in a small fully-associative Range TLB probed
//! in parallel with the L2 TLB: a hit constructs the missing 4 KB PTE
//! without walking the page table (paper §V). Because the Range TLB sits at
//! the L2 level, RMM eliminates *page walks* but no *L1* misses (Fig. 10
//! vs. Fig. 11).

use crate::entry::Asid;
use tps_core::lru::{CachedSpan, Invalidation, LruStore};

/// A cached range translation: `[start_vpn, end_vpn)` maps to
/// `vpn + delta`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RangeEntry {
    /// Address space of the range.
    pub asid: Asid,
    /// First base-page VPN covered.
    pub start_vpn: u64,
    /// One past the last base-page VPN covered.
    pub end_vpn: u64,
    /// `pfn - vpn`, constant across the range.
    pub delta: i64,
    /// Permission of the whole range.
    pub writable: bool,
}

impl RangeEntry {
    /// True if the entry translates `(asid, vpn)`.
    #[inline]
    pub fn covers(&self, asid: Asid, vpn: u64) -> bool {
        self.asid == asid && vpn >= self.start_vpn && vpn < self.end_vpn
    }

    /// Translates a covered VPN.
    #[inline]
    pub fn translate(&self, vpn: u64) -> u64 {
        debug_assert!(vpn >= self.start_vpn && vpn < self.end_vpn);
        (vpn as i64 + self.delta) as u64
    }

    /// Number of base pages covered.
    pub fn pages(&self) -> u64 {
        self.end_vpn - self.start_vpn
    }
}

impl CachedSpan for RangeEntry {
    fn asid(&self) -> Asid {
        self.asid
    }

    fn span(&self) -> (u64, u64) {
        (self.start_vpn, self.end_vpn)
    }
}

/// Fully-associative cache of range-table entries (32 entries in RMM).
///
/// # Example
///
/// ```
/// use tps_tlb::{RangeEntry, RangeTlb};
///
/// let mut rt = RangeTlb::new(32);
/// rt.fill(RangeEntry { asid: 0, start_vpn: 100, end_vpn: 10_000, delta: 500, writable: true });
/// let hit = rt.lookup(0, 5_000).unwrap();
/// assert_eq!(hit.translate(5_000), 5_500);
/// ```
#[derive(Clone, Debug)]
pub struct RangeTlb {
    store: LruStore<RangeEntry>,
}

impl RangeTlb {
    /// Creates a Range TLB with the given entry count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        RangeTlb {
            store: LruStore::new(1, capacity),
        }
    }

    /// Looks up the range covering a VPN.
    pub fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<RangeEntry> {
        self.store.lookup(0, |e| e.covers(asid, vpn)).copied()
    }

    /// Installs a range entry, evicting the LRU one when full.
    pub fn fill(&mut self, entry: RangeEntry) {
        self.store.fill(0, entry, |e| {
            e.asid == entry.asid && e.start_vpn == entry.start_vpn
        });
    }

    /// Drops the entries a shootdown covers.
    pub(crate) fn shoot_down(&mut self, inv: Invalidation) {
        self.store.shoot_down(inv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::{PageOrder, VirtAddr};

    fn r(start: u64, end: u64) -> RangeEntry {
        RangeEntry {
            asid: 0,
            start_vpn: start,
            end_vpn: end,
            delta: 1000,
            writable: true,
        }
    }

    #[test]
    fn unbounded_range_size() {
        let mut rt = RangeTlb::new(4);
        // A 64 GB range in one entry — RMM's key property.
        rt.fill(r(0, 16 << 20));
        assert!(rt.lookup(0, 10 << 20).is_some());
        assert_eq!(rt.lookup(0, 5).unwrap().translate(5), 1005);
        assert!(rt.lookup(0, 16 << 20).is_none());
    }

    #[test]
    fn negative_delta() {
        let mut rt = RangeTlb::new(4);
        rt.fill(RangeEntry {
            asid: 0,
            start_vpn: 5000,
            end_vpn: 6000,
            delta: -4000,
            writable: true,
        });
        assert_eq!(rt.lookup(0, 5500).unwrap().translate(5500), 1500);
    }

    #[test]
    fn invalidate_overlap() {
        let mut rt = RangeTlb::new(4);
        let page = |vpn: u64| Invalidation::page(0, VirtAddr::new(vpn << 12), PageOrder::P4K);
        rt.fill(r(0, 1000));
        rt.shoot_down(page(500));
        assert!(rt.lookup(0, 0).is_none());
        rt.fill(r(0, 1000));
        rt.shoot_down(page(1000));
        assert!(
            rt.lookup(0, 0).is_some(),
            "adjacent page does not invalidate"
        );
    }

    #[test]
    fn asid_isolation() {
        let mut rt = RangeTlb::new(4);
        rt.fill(r(0, 10));
        assert!(rt.lookup(9, 5).is_none());
        rt.shoot_down(Invalidation::Asid(0));
        assert!(rt.lookup(0, 5).is_none());
    }
}
