//! The shared second-level TLB (STLB) holding 4 KB and 2 MB entries.
//!
//! Commercial STLBs (e.g. Skylake's 1536-entry unified L2 TLB) hold two
//! page sizes in one set-associative array by probing the index function of
//! each size — we model that dual probe directly.

use crate::entry::{Asid, TlbEntry};
use tps_core::inject::should_fault;
use tps_core::{FaultSite, InjectorHandle, PageOrder, VirtAddr};

/// What a dual-STLB probe found.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StlbProbe {
    /// An entry covers the address.
    Hit(TlbEntry),
    /// No entry covers the address.
    Miss,
    /// An injected [`FaultSite::StlbProbe`] fault forced the probe to miss.
    ForcedMiss,
}

impl StlbProbe {
    /// The entry found, if any.
    pub fn hit(self) -> Option<TlbEntry> {
        match self {
            StlbProbe::Hit(entry) => Some(entry),
            StlbProbe::Miss | StlbProbe::ForcedMiss => None,
        }
    }
}

/// Set-associative second-level TLB with 4 KB / 2 MB dual-probe lookup.
///
/// # Example
///
/// ```
/// use tps_tlb::{DualStlb, TlbEntry};
/// use tps_core::PageOrder;
///
/// let mut stlb = DualStlb::new(128, 12); // 1536 entries, Skylake-like
/// let e4k = TlbEntry { asid: 0, vpn: 7, order: PageOrder::P4K, pfn: 1, writable: true };
/// let e2m = TlbEntry { asid: 0, vpn: 1024, order: PageOrder::P2M, pfn: 2048, writable: true };
/// stlb.fill(e4k);
/// stlb.fill(e2m);
/// assert!(stlb.lookup(0, 7).hit().is_some());
/// assert!(stlb.lookup(0, 1500).hit().is_some()); // inside the 2M page
/// ```
#[derive(Clone, Debug)]
pub struct DualStlb {
    sets: usize,
    ways: usize,
    entries: Vec<Vec<(TlbEntry, u64)>>,
    clock: u64,
    injector: Option<InjectorHandle>,
}

impl DualStlb {
    /// Creates an STLB with `sets × ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "need at least one way");
        DualStlb {
            sets,
            ways,
            entries: vec![Vec::with_capacity(ways); sets],
            clock: 0,
            injector: None,
        }
    }

    /// Installs (or removes) a fault injector consulted at every lookup.
    /// A [`FaultSite::StlbProbe`] hit forces the dual probe to miss, so
    /// the access falls through to the walk path — slower, never wrong.
    /// The probe reports it as [`StlbProbe::ForcedMiss`].
    pub fn set_fault_injector(&mut self, injector: Option<InjectorHandle>) {
        self.injector = injector;
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    #[inline]
    fn set_for(&self, vpn: u64, order: PageOrder) -> usize {
        // Fibonacci (multiplicative) index hashing so power-of-two-aligned
        // VMA bases do not concentrate hot pages in one set (commercial
        // designs hash their index bits too).
        let p = vpn >> order.get();
        if self.sets == 1 {
            return 0;
        }
        let shift = 64 - self.sets.trailing_zeros();
        (p.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize
    }

    /// Dual-probe lookup: tries the 4 KB index then the 2 MB index.
    pub fn lookup(&mut self, asid: Asid, vpn: u64) -> StlbProbe {
        if should_fault(&self.injector, FaultSite::StlbProbe) {
            return StlbProbe::ForcedMiss;
        }
        self.clock += 1;
        let clock = self.clock;
        for order in [PageOrder::P4K, PageOrder::P2M] {
            let set = self.set_for(vpn, order);
            if let Some((e, stamp)) = self.entries[set]
                .iter_mut()
                .find(|(e, _)| e.order == order && e.covers(asid, vpn))
            {
                *stamp = clock;
                return StlbProbe::Hit(*e);
            }
        }
        StlbProbe::Miss
    }

    /// Installs a 4 KB or 2 MB entry.
    ///
    /// # Panics
    ///
    /// Panics for any other page order — a dual-size STLB cannot index
    /// tailored sizes; the TPS configuration swaps in an any-size structure.
    pub fn fill(&mut self, entry: TlbEntry) {
        assert!(
            entry.order == PageOrder::P4K || entry.order == PageOrder::P2M,
            "dual STLB holds only 4K and 2M entries"
        );
        self.clock += 1;
        let set = self.set_for(entry.vpn, entry.order);
        let ways = self.ways;
        let slot = &mut self.entries[set];
        if let Some((e, stamp)) = slot
            .iter_mut()
            .find(|(e, _)| e.asid == entry.asid && e.vpn == entry.vpn && e.order == entry.order)
        {
            *e = entry;
            *stamp = self.clock;
            return;
        }
        if slot.len() < ways {
            slot.push((entry, self.clock));
            return;
        }
        // A full set with positive way count always yields a victim; fall
        // back to a plain push rather than panicking if it somehow cannot.
        match slot
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map(|(i, _)| i)
        {
            Some(victim) => slot[victim] = (entry, self.clock),
            None => slot.push((entry, self.clock)),
        }
    }

    /// Shoots down entries overlapping the page range for the ASID.
    pub fn invalidate(&mut self, asid: Asid, va: VirtAddr, order: PageOrder) {
        let start = va.align_down(order.shift()).base_page_number();
        let end = start + order.base_pages();
        for set in &mut self.entries {
            set.retain(|(e, _)| {
                let e_end = e.vpn + e.order.base_pages();
                !(e.asid == asid && e.vpn < end && start < e_end)
            });
        }
    }

    /// Removes every entry of an ASID.
    pub fn invalidate_asid(&mut self, asid: Asid) {
        for set in &mut self.entries {
            set.retain(|(e, _)| e.asid != asid);
        }
    }

    /// Removes everything.
    pub fn flush(&mut self) {
        for set in &mut self.entries {
            set.clear();
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e4k(vpn: u64) -> TlbEntry {
        TlbEntry {
            asid: 0,
            vpn,
            order: PageOrder::P4K,
            pfn: vpn + 1,
            writable: true,
        }
    }

    fn e2m(page2m: u64) -> TlbEntry {
        TlbEntry {
            asid: 0,
            vpn: page2m * 512,
            order: PageOrder::P2M,
            pfn: page2m * 512 + 512,
            writable: true,
        }
    }

    #[test]
    fn both_sizes_hit() {
        let mut s = DualStlb::new(8, 2);
        s.fill(e4k(3));
        s.fill(e2m(5));
        assert_eq!(s.lookup(0, 3).hit().unwrap().order, PageOrder::P4K);
        let hit = s.lookup(0, 5 * 512 + 99).hit().unwrap();
        assert_eq!(hit.order, PageOrder::P2M);
        assert_eq!(hit.translate(5 * 512 + 99), 5 * 512 + 512 + 99);
    }

    #[test]
    fn four_k_and_two_m_share_capacity() {
        let mut s = DualStlb::new(1, 2);
        s.fill(e4k(0));
        s.fill(e2m(0));
        s.fill(e4k(1)); // evicts LRU (e4k(0))
        assert!(s.lookup(0, 0).hit().is_some(), "covered by the 2M entry");
        assert!(s.lookup(0, 1).hit().is_some());
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "only 4K and 2M")]
    fn rejects_tailored_orders() {
        let mut s = DualStlb::new(8, 2);
        let mut bad = e4k(0);
        bad.order = PageOrder::new(3).unwrap();
        s.fill(bad);
    }

    #[test]
    fn invalidation() {
        let mut s = DualStlb::new(8, 2);
        s.fill(e4k(3));
        s.fill(e2m(0));
        // Shooting down one 4K page inside the 2M entry kills it.
        s.invalidate(0, VirtAddr::new(7 << 12), PageOrder::P4K);
        assert!(s.lookup(0, 7).hit().is_none());
        assert!(s.lookup(0, 3).hit().is_some());
        s.invalidate(0, VirtAddr::new(3 << 12), PageOrder::P4K);
        assert!(s.lookup(0, 3).hit().is_none());
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(DualStlb::new(128, 12).capacity(), 1536);
    }

    #[test]
    fn injected_probe_fault_forces_a_miss() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use tps_core::{FaultPlan, FaultPlanConfig, InjectorHandle};

        let mut s = DualStlb::new(8, 2);
        s.fill(e4k(3));
        let plan = Rc::new(RefCell::new(FaultPlan::new(FaultPlanConfig {
            stlb_probe: 1.0,
            ..FaultPlanConfig::disabled(41)
        })));
        s.set_fault_injector(Some(plan.clone() as InjectorHandle));
        assert_eq!(s.lookup(0, 3), StlbProbe::ForcedMiss);
        assert_eq!(plan.borrow().injected_at("stlb-probe"), 1);
        // The entry itself is untouched: removing the injector hits again.
        s.set_fault_injector(None);
        assert!(s.lookup(0, 3).hit().is_some());
    }
}
