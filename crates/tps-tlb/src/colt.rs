//! CoLT-SA: the coalesced-TLB baseline (Pham et al., MICRO 2012; paper §V).
//!
//! CoLT exploits the small-scale contiguity the buddy allocator produces
//! naturally: when a fill finds that neighboring PTEs (within the same
//! aligned 8-entry window — one cache line of PTEs, read for free during
//! the walk) map physically contiguous frames with identical permissions,
//! one TLB entry is installed covering the whole run. Running over a
//! THP-style OS, coalescing applies at both granularities the page table
//! produces: 4 KB *and* 2 MB leaves (runs of adjacent huge pages). Reach
//! grows by at most 8×, which is why CoLT barely helps random access over
//! gigabytes (paper Fig. 10, GUPS).

use crate::entry::Asid;
use tps_core::lru::{CachedSpan, Invalidation, LruStore};
use tps_core::PageOrder;

/// Width of the coalescing window in pages (one PTE cache line).
pub const COLT_WINDOW: u64 = 8;

/// A coalesced TLB entry covering `run_len` contiguous pages of one
/// granularity.
///
/// `base_upn` / `base_ufn` are page numbers *at the entry's granularity*
/// (`upn = va >> (12 + granularity)`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ColtEntry {
    /// Address space of the entry.
    pub asid: Asid,
    /// Page size the run coalesces (0 = 4 KB runs, 9 = 2 MB runs).
    pub granularity: PageOrder,
    /// First page number (at granularity) of the run.
    pub base_upn: u64,
    /// Number of contiguous pages covered (1..=8).
    pub run_len: u8,
    /// Frame number (at granularity) backing `base_upn`.
    pub base_ufn: u64,
    /// Cached writable permission (uniform across the run).
    pub writable: bool,
}

impl ColtEntry {
    /// True if the entry translates the given *base-page* VPN.
    #[inline]
    pub fn covers(&self, asid: Asid, vpn: u64) -> bool {
        let upn = vpn >> self.granularity.get();
        self.asid == asid && upn >= self.base_upn && upn < self.base_upn + self.run_len as u64
    }

    /// Translates a covered base-page VPN to its base-page PFN.
    #[inline]
    pub fn translate(&self, vpn: u64) -> u64 {
        let g = self.granularity.get();
        let upn = vpn >> g;
        debug_assert!(upn >= self.base_upn && upn < self.base_upn + self.run_len as u64);
        let ufn = self.base_ufn + (upn - self.base_upn);
        (ufn << g) | (vpn & ((1 << g) - 1))
    }

    /// True if the two entries' runs share a page of one address space.
    fn overlaps(&self, other: &ColtEntry) -> bool {
        self.asid == other.asid
            && self.base_upn < other.base_upn + other.run_len as u64
            && other.base_upn < self.base_upn + self.run_len as u64
    }
}

impl CachedSpan for ColtEntry {
    fn asid(&self) -> Asid {
        self.asid
    }

    fn span(&self) -> (u64, u64) {
        let g = self.granularity.get();
        (
            self.base_upn << g,
            (self.base_upn + self.run_len as u64) << g,
        )
    }
}

/// Detects the contiguous run around page `upn -> ufn` (numbers at the
/// given granularity) within its aligned 8-page window.
///
/// `probe(u)` returns the `(ufn, writable)` mapping of page `u` *at the
/// same granularity* if one exists — in hardware this comes from the PTE
/// cache line already fetched by the walk, so probing is free.
pub fn detect_run(
    asid: Asid,
    granularity: PageOrder,
    upn: u64,
    ufn: u64,
    writable: bool,
    probe: impl Fn(u64) -> Option<(u64, bool)>,
) -> ColtEntry {
    let window_start = upn & !(COLT_WINDOW - 1);
    let window_end = window_start + COLT_WINDOW;
    let mut start = upn;
    while start > window_start {
        let prev = start - 1;
        match probe(prev) {
            // Contiguity: page `prev` must map exactly (upn - prev) frames
            // below `ufn`, with matching permissions.
            Some((f, w)) if w == writable && ufn >= upn - prev && f == ufn - (upn - prev) => {
                start = prev;
            }
            _ => break,
        }
    }
    let mut end = upn + 1;
    while end < window_end {
        match probe(end) {
            Some((f, w)) if w == writable && f == ufn + (end - upn) => end += 1,
            _ => break,
        }
    }
    ColtEntry {
        asid,
        granularity,
        base_upn: start,
        run_len: (end - start) as u8,
        base_ufn: ufn - (upn - start),
        writable,
    }
}

/// Set-associative coalesced TLB for one granularity (CoLT-SA).
///
/// Indexed by the window number (`upn / 8`) so a run always maps to one
/// set.
#[derive(Clone, Debug)]
pub struct ColtTlb {
    granularity: PageOrder,
    store: LruStore<ColtEntry>,
}

impl ColtTlb {
    /// Creates a CoLT TLB with `sets × ways` entries for runs of pages of
    /// the given granularity.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize, granularity: PageOrder) -> Self {
        ColtTlb {
            granularity,
            store: LruStore::new(sets, ways),
        }
    }

    #[inline]
    fn set_of_upn(&self, upn: u64) -> usize {
        // Fibonacci (multiplicative) index hashing: power-of-two-aligned
        // region bases would otherwise land every hot window in one set
        // (commercial TLBs hash their index bits for the same reason).
        // A run's window number is constant, so a run stays in one set.
        let w = upn / COLT_WINDOW;
        let sets = self.store.sets();
        if sets == 1 {
            return 0;
        }
        let shift = 64 - sets.trailing_zeros();
        (w.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize
    }

    /// Looks up a base-page VPN.
    pub fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<ColtEntry> {
        let set = self.set_of_upn(vpn >> self.granularity.get());
        self.store.lookup(set, |e| e.covers(asid, vpn)).copied()
    }

    /// Installs a (possibly coalesced) entry, first dropping every entry
    /// of its set that overlaps the new run (stale sub-runs).
    ///
    /// # Panics
    ///
    /// Panics if the entry's granularity differs from the TLB's.
    pub fn fill(&mut self, entry: ColtEntry) {
        assert_eq!(entry.granularity, self.granularity, "granularity mismatch");
        let set = self.set_of_upn(entry.base_upn);
        self.store.retain_set(set, |e| !e.overlaps(&entry));
        self.store.fill(set, entry, |_| false);
    }

    /// Drops the entries a shootdown covers.
    pub(crate) fn shoot_down(&mut self, inv: Invalidation) {
        self.store.shoot_down(inv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tps_core::VirtAddr;

    fn probe_from(map: &HashMap<u64, (u64, bool)>) -> impl Fn(u64) -> Option<(u64, bool)> + '_ {
        move |v| map.get(&v).copied()
    }

    fn g0() -> PageOrder {
        PageOrder::P4K
    }

    #[test]
    fn detect_full_window_run() {
        // Pages 8..16 map to frames 100..108: perfectly contiguous.
        let map: HashMap<_, _> = (0..8).map(|i| (8 + i, (100 + i, true))).collect();
        let e = detect_run(0, g0(), 11, 103, true, probe_from(&map));
        assert_eq!(e.base_upn, 8);
        assert_eq!(e.run_len, 8);
        assert_eq!(e.base_ufn, 100);
        assert!(e.covers(0, 15));
        assert_eq!(e.translate(15), 107);
    }

    #[test]
    fn detect_stops_at_discontiguity() {
        let mut map: HashMap<_, _> = (0..8).map(|i| (8 + i, (100 + i, true))).collect();
        map.insert(13, (500, true)); // breaks contiguity at page 13
        let e = detect_run(0, g0(), 10, 102, true, probe_from(&map));
        assert_eq!(e.base_upn, 8);
        assert_eq!(e.run_len, 5, "pages 8..13");
    }

    #[test]
    fn detect_respects_window_boundary() {
        // Pages 4..12 contiguous, but window of page 10 is [8, 16).
        let map: HashMap<_, _> = (0..12).map(|i| (4 + i, (200 + i, true))).collect();
        let e = detect_run(0, g0(), 10, 206, true, probe_from(&map));
        assert_eq!(e.base_upn, 8, "cannot extend below the window");
        assert!(e.base_upn + e.run_len as u64 <= 16);
    }

    #[test]
    fn detect_requires_uniform_permissions() {
        let mut map: HashMap<_, _> = (0..8).map(|i| (8 + i, (100 + i, true))).collect();
        map.insert(9, (101, false)); // read-only page breaks the run
        let e = detect_run(0, g0(), 10, 102, true, probe_from(&map));
        assert_eq!(e.base_upn, 10);
    }

    #[test]
    fn singleton_run_when_isolated() {
        let map: HashMap<_, _> = [(42u64, (7u64, true))].into_iter().collect();
        let e = detect_run(0, g0(), 42, 7, true, probe_from(&map));
        assert_eq!(e.run_len, 1);
        assert_eq!(e.base_upn, 42);
    }

    #[test]
    fn two_meg_granularity_run() {
        // 2M pages 4..8 map contiguous 2M frames 20..24.
        let map: HashMap<_, _> = (0..4).map(|i| (4 + i, (20 + i, true))).collect();
        let e = detect_run(0, PageOrder::P2M, 5, 21, true, probe_from(&map));
        assert_eq!(e.base_upn, 4);
        assert_eq!(e.run_len, 4);
        // Base-page VPN inside 2M page 6 translates through the run.
        let vpn = (6 << 9) + 123;
        assert!(e.covers(0, vpn));
        assert_eq!(e.translate(vpn), (22 << 9) + 123);
        // Reach: 4 x 2M = 8 MB from one entry.
        assert!(!e.covers(0, 8 << 9));
    }

    #[test]
    fn tlb_fill_lookup_and_overlap_replacement() {
        let mut t = ColtTlb::new(8, 2, g0());
        let short = ColtEntry {
            asid: 0,
            granularity: g0(),
            base_upn: 8,
            run_len: 2,
            base_ufn: 100,
            writable: true,
        };
        t.fill(short);
        assert!(t.lookup(0, 9).is_some());
        // A longer run over the same window replaces the stale short one.
        let long = ColtEntry {
            run_len: 8,
            ..short
        };
        t.fill(long);
        assert_eq!(t.lookup(0, 15).unwrap().run_len, 8);
    }

    #[test]
    fn invalidation_kills_overlapping_runs() {
        let mut t = ColtTlb::new(8, 2, PageOrder::P2M);
        t.fill(ColtEntry {
            asid: 0,
            granularity: PageOrder::P2M,
            base_upn: 0,
            run_len: 8,
            base_ufn: 100,
            writable: true,
        });
        // Shooting down one 4K page inside the 16M run kills it.
        t.shoot_down(Invalidation::page(
            0,
            VirtAddr::new(5 << 21),
            PageOrder::P4K,
        ));
        assert!(t.lookup(0, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "granularity mismatch")]
    fn rejects_mixed_granularity() {
        let mut t = ColtTlb::new(8, 2, g0());
        t.fill(ColtEntry {
            asid: 0,
            granularity: PageOrder::P2M,
            base_upn: 0,
            run_len: 1,
            base_ufn: 0,
            writable: true,
        });
    }
}
