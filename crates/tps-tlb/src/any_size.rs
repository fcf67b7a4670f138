//! The fully-associative any-page-size TLB — the paper's TPS TLB (Fig. 7).
//!
//! Each entry carries a *page mask* derived from its page order; lookups
//! mask the incoming VPN before the tag compare, adding one gate delay.
//! The paper deploys this as a 32-entry L1 structure replacing the separate
//! 2 MB and 1 GB L1 TLBs, and we also reuse it (with a larger capacity) as
//! the TPS-mode STLB, whose design the paper leaves unspecified.

use crate::entry::{Asid, TlbEntry};
use tps_core::inject::should_fault;
use tps_core::{FaultSite, InjectorHandle, PageOrder, VirtAddr};

/// What a fill did: installed the entry, or absorbed an injected fault.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FillOutcome {
    /// The entry was installed (or updated in place).
    Installed,
    /// An injected [`FaultSite::AnySizeFill`] fault dropped the fill.
    Dropped,
    /// An injected [`FaultSite::AnySizeEvict`] fault evicted the LRU
    /// victim but abandoned the incoming entry.
    Abandoned,
}

/// Fully-associative TLB accepting entries of any page order.
///
/// # Example
///
/// ```
/// use tps_tlb::{AnySizeTlb, TlbEntry};
/// use tps_core::PageOrder;
///
/// let mut tlb = AnySizeTlb::new(32);
/// let entry = TlbEntry {
///     asid: 0, vpn: 0x4000, order: PageOrder::new(5).unwrap(), // 128K page
///     pfn: 0x8000, writable: true,
/// };
/// tlb.fill(entry);
/// // Any base page within the 128K page hits through the mask compare.
/// assert!(tlb.lookup(0, 0x4000 + 31).is_some());
/// assert!(tlb.lookup(0, 0x4000 + 32).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct AnySizeTlb {
    capacity: usize,
    entries: Vec<(TlbEntry, u64)>,
    clock: u64,
    injector: Option<InjectorHandle>,
}

impl AnySizeTlb {
    /// Creates a TLB with the given entry count.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        AnySizeTlb {
            capacity,
            entries: Vec::with_capacity(capacity),
            clock: 0,
            injector: None,
        }
    }

    /// Installs (or removes) a fault injector consulted at every fill and
    /// eviction. A [`FaultSite::AnySizeFill`] hit drops the fill; an
    /// [`FaultSite::AnySizeEvict`] hit evicts the LRU victim but abandons
    /// the incoming entry. Both only lower the hit rate; [`Self::fill`]
    /// reports them in its [`FillOutcome`].
    pub fn set_fault_injector(&mut self, injector: Option<InjectorHandle>) {
        self.injector = injector;
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a base-page VPN (mask-then-compare across all entries).
    pub fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<TlbEntry> {
        self.clock += 1;
        let clock = self.clock;
        self.entries
            .iter_mut()
            .find(|(e, _)| e.covers(asid, vpn))
            .map(|(e, stamp)| {
                *stamp = clock;
                *e
            })
    }

    /// Installs an entry of any order, evicting the LRU entry when full.
    ///
    /// If an existing entry covers the same page start at the same order it
    /// is updated in place.
    pub fn fill(&mut self, entry: TlbEntry) -> FillOutcome {
        if should_fault(&self.injector, FaultSite::AnySizeFill) {
            return FillOutcome::Dropped;
        }
        self.clock += 1;
        if let Some((e, stamp)) = self
            .entries
            .iter_mut()
            .find(|(e, _)| e.asid == entry.asid && e.vpn == entry.vpn && e.order == entry.order)
        {
            *e = entry;
            *stamp = self.clock;
            return FillOutcome::Installed;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((entry, self.clock));
            return FillOutcome::Installed;
        }
        // A full TLB with positive capacity always yields a victim; fall
        // back to a plain push rather than panicking if it somehow cannot.
        let Some(victim) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map(|(i, _)| i)
        else {
            self.entries.push((entry, self.clock));
            return FillOutcome::Installed;
        };
        if should_fault(&self.injector, FaultSite::AnySizeEvict) {
            // The victim is already gone when the install fails: the slot
            // ends up empty until a later fill reuses it.
            self.entries.remove(victim);
            return FillOutcome::Abandoned;
        }
        self.entries[victim] = (entry, self.clock);
        FillOutcome::Installed
    }

    /// Shoots down entries overlapping the given page range for the ASID.
    pub fn invalidate(&mut self, asid: Asid, va: VirtAddr, order: PageOrder) {
        let start = va.align_down(order.shift()).base_page_number();
        let end = start + order.base_pages();
        self.entries.retain(|(e, _)| {
            let e_end = e.vpn + e.order.base_pages();
            !(e.asid == asid && e.vpn < end && start < e_end)
        });
    }

    /// Removes every entry of an ASID.
    pub fn invalidate_asid(&mut self, asid: Asid) {
        self.entries.retain(|(e, _)| e.asid != asid);
    }

    /// Removes everything.
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Iterates live entries (for occupancy statistics).
    pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> {
        self.entries.iter().map(|(e, _)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(vpn: u64, order: u8) -> TlbEntry {
        TlbEntry {
            asid: 0,
            vpn,
            order: PageOrder::new(order).unwrap(),
            pfn: vpn + 0x10_0000,
            writable: true,
        }
    }

    #[test]
    fn mixed_sizes_coexist() {
        let mut t = AnySizeTlb::new(8);
        t.fill(e(0, 0)); // 4K
        t.fill(e(8, 3)); // 32K at page 8
        t.fill(e(512, 9)); // 2M at page 512
        assert!(t.lookup(0, 0).is_some());
        assert!(t.lookup(0, 10).is_some(), "inside the 32K page");
        assert!(t.lookup(0, 700).is_some(), "inside the 2M page");
        assert!(t.lookup(0, 4).is_none());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn lru_eviction() {
        let mut t = AnySizeTlb::new(2);
        t.fill(e(0, 0));
        t.fill(e(1, 0));
        assert!(t.lookup(0, 0).is_some()); // refresh 0
        t.fill(e(2, 0));
        assert!(t.lookup(0, 1).is_none(), "entry 1 was LRU");
        assert!(t.lookup(0, 0).is_some());
        assert!(t.lookup(0, 2).is_some());
    }

    #[test]
    fn translation_through_mask() {
        let mut t = AnySizeTlb::new(4);
        t.fill(e(16, 2)); // 16K page: base pages 16..20
        let hit = t.lookup(0, 19).unwrap();
        assert_eq!(hit.translate(19), 19 + 0x10_0000);
    }

    #[test]
    fn invalidate_overlapping_large_entry() {
        let mut t = AnySizeTlb::new(4);
        t.fill(e(0, 4)); // 64K page: pages 0..16
                         // Shoot down one 4K page inside it: whole entry must go (the
                         // conservative hardware behavior).
        t.invalidate(0, VirtAddr::new(5 << 12), PageOrder::P4K);
        assert!(t.lookup(0, 0).is_none());
    }

    #[test]
    fn asid_isolation() {
        let mut t = AnySizeTlb::new(4);
        let mut a = e(0, 3);
        a.asid = 1;
        let mut b = e(0, 3);
        b.asid = 2;
        b.pfn = 0x999;
        t.fill(a);
        t.fill(b);
        assert_eq!(t.lookup(1, 3).unwrap().pfn, a.pfn);
        assert_eq!(t.lookup(2, 3).unwrap().pfn, 0x999);
        t.invalidate_asid(1);
        assert!(t.lookup(1, 3).is_none());
        assert!(t.lookup(2, 3).is_some());
    }

    #[test]
    fn update_in_place_no_duplicate() {
        let mut t = AnySizeTlb::new(4);
        t.fill(e(8, 3));
        let mut updated = e(8, 3);
        updated.writable = false;
        t.fill(updated);
        assert_eq!(t.len(), 1);
        assert!(!t.lookup(0, 8).unwrap().writable);
    }

    fn hw_plan(
        cfg: tps_core::FaultPlanConfig,
    ) -> std::rc::Rc<std::cell::RefCell<tps_core::FaultPlan>> {
        std::rc::Rc::new(std::cell::RefCell::new(tps_core::FaultPlan::new(cfg)))
    }

    #[test]
    fn injected_fill_fault_drops_the_entry() {
        use tps_core::{FaultPlanConfig, InjectorHandle};
        let mut t = AnySizeTlb::new(4);
        let plan = hw_plan(FaultPlanConfig {
            any_size_fill: 1.0,
            ..FaultPlanConfig::disabled(31)
        });
        t.set_fault_injector(Some(plan.clone() as InjectorHandle));
        assert_eq!(t.fill(e(0, 0)), FillOutcome::Dropped);
        assert!(t.is_empty(), "fill was dropped");
        assert!(t.lookup(0, 0).is_none());
        assert_eq!(plan.borrow().injected_at("any-size-fill"), 1);
    }

    #[test]
    fn injected_evict_fault_abandons_the_incoming_entry() {
        use tps_core::{FaultPlanConfig, InjectorHandle};
        let mut t = AnySizeTlb::new(2);
        t.fill(e(0, 0));
        t.fill(e(1, 0));
        let plan = hw_plan(FaultPlanConfig {
            any_size_evict: 1.0,
            ..FaultPlanConfig::disabled(32)
        });
        t.set_fault_injector(Some(plan.clone() as InjectorHandle));
        // The LRU victim (vpn 0) is gone, the incoming entry never landed.
        assert_eq!(t.fill(e(2, 0)), FillOutcome::Abandoned);
        assert_eq!(t.len(), 1);
        assert!(t.lookup(0, 0).is_none(), "victim evicted");
        assert!(t.lookup(0, 2).is_none(), "incoming abandoned");
        assert!(t.lookup(0, 1).is_some());
        assert_eq!(plan.borrow().injected_at("any-size-evict"), 1);
        // The freed slot is reusable once the injector is removed.
        t.set_fault_injector(None);
        t.fill(e(3, 0));
        assert_eq!(t.len(), 2);
        assert!(t.lookup(0, 3).is_some());
    }
}
