//! The fully-associative any-page-size TLB — the paper's TPS TLB (Fig. 7).
//!
//! Each entry carries a *page mask* derived from its page order; lookups
//! mask the incoming VPN before the tag compare, adding one gate delay.
//! The paper deploys this as a 32-entry L1 structure replacing the separate
//! 2 MB and 1 GB L1 TLBs, and we also reuse it (with a larger capacity) as
//! the TPS-mode STLB, whose design the paper leaves unspecified.
//!
//! Hardware compares every entry in parallel; the model instead indexes
//! its entries by `(asid, order, vpn >> order)` and probes one key per
//! page order present, so a probe costs the same at 32 entries as at 1552.
//! Of the covering entries it returns the one in the lowest slot, exactly
//! what a first-match scan in slot order would return.

use crate::entry::{Asid, TlbEntry};
use tps_core::inject::should_fault;
use tps_core::lru::{Install, Invalidation, LruStore};
use tps_core::{FaultSite, InjectorHandle, PageOrder, VirtAddr, MAX_PAGE_ORDER};

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
    store: LruStore<TlbEntry>,
    /// The slot of every live entry, by tag. Never iterated.
    index: SlotIndex,
    /// Live entries per page order.
    order_counts: [u32; ORDERS],
    /// Bit `o` set iff `order_counts[o] > 0`: the orders a lookup probes.
    orders: u32,
    injector: Option<InjectorHandle>,
}

/// Number of distinct page orders.
const ORDERS: usize = MAX_PAGE_ORDER as usize + 1;

/// What the mask-then-compare matches: an entry covers `(asid, vpn)` iff
/// its tag equals `Tag::probe(asid, order, vpn)` at its own order.
#[derive(Copy, Clone, PartialEq, Eq)]
struct Tag {
    asid: Asid,
    order: u8,
    page: u64,
}

impl Tag {
    #[inline]
    fn probe(asid: Asid, order: u8, vpn: u64) -> Self {
        Tag {
            asid,
            order,
            page: vpn >> order,
        }
    }

    #[inline]
    fn of(e: &TlbEntry) -> Self {
        Tag::probe(e.asid, e.order.get(), e.vpn)
    }
}

/// Empty bucket.
const EMPTY: u32 = u32::MAX;

/// The tag → slot index: an open-addressing hash table of slot numbers,
/// probed linearly and keyed by the tag of the entry in each slot. It has
/// at least twice as many buckets as the TLB has slots, and a removal
/// shifts the rest of its probe run back instead of leaving a tombstone,
/// so the table never fills, never rehashes and never allocates after
/// construction.
#[derive(Clone, Debug)]
struct SlotIndex {
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`: the hash's top bits pick the bucket.
    shift: u32,
}

impl SlotIndex {
    fn new(capacity: usize) -> Self {
        let buckets = (2 * capacity).next_power_of_two();
        SlotIndex {
            buckets: vec![EMPTY; buckets],
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// The tag's first bucket (Fibonacci hashing).
    #[inline]
    fn home(&self, tag: Tag) -> usize {
        let key = tag.page ^ ((tag.asid as u64) << 40) ^ ((tag.order as u64) << 58);
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The slot of the entry of `store` with this tag.
    #[inline]
    fn find(&self, store: &LruStore<TlbEntry>, tag: Tag) -> Option<usize> {
        let mut b = self.home(tag);
        while self.buckets[b] != EMPTY {
            let slot = self.buckets[b] as usize;
            if Tag::of(store.entry(0, slot)) == tag {
                return Some(slot);
            }
            b = (b + 1) & self.mask();
        }
        None
    }

    /// Indexes `slot` under `tag`, which must not be indexed yet.
    #[inline]
    fn insert(&mut self, tag: Tag, slot: usize) {
        let mut b = self.home(tag);
        while self.buckets[b] != EMPTY {
            b = (b + 1) & self.mask();
        }
        self.buckets[b] = slot as u32;
    }

    /// Unindexes `slot`, indexed under `tag`. Only `slot` itself may hold
    /// a different entry by now (a victim already overwritten).
    #[inline]
    fn remove(&mut self, store: &LruStore<TlbEntry>, tag: Tag, slot: usize) {
        let mask = self.mask();
        let mut hole = self.home(tag);
        while self.buckets[hole] != slot as u32 {
            hole = (hole + 1) & mask;
        }
        // Backward-shift deletion: move each later member of the probe run
        // into the hole, unless its home bucket lies cyclically in
        // (hole, its bucket].
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let moving = self.buckets[b];
            if moving == EMPTY {
                break;
            }
            let home = self.home(Tag::of(store.entry(0, moving as usize)));
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.buckets[hole] = moving;
                hole = b;
            }
        }
        self.buckets[hole] = EMPTY;
    }

    fn clear(&mut self) {
        self.buckets.fill(EMPTY);
    }
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
            store: LruStore::new(1, capacity),
            index: SlotIndex::new(capacity),
            order_counts: [0; ORDERS],
            orders: 0,
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

    /// Looks up a base-page VPN (mask-then-compare across all entries).
    pub fn lookup(&mut self, asid: Asid, vpn: u64) -> Option<TlbEntry> {
        let mut first = usize::MAX;
        let mut orders = self.orders;
        while orders != 0 {
            let order = orders.trailing_zeros() as u8;
            orders &= orders - 1;
            if let Some(slot) = self.index.find(&self.store, Tag::probe(asid, order, vpn)) {
                first = first.min(slot);
            }
        }
        (first != usize::MAX).then(|| *self.store.touch(0, first))
    }

    /// Installs an entry of any order, evicting the LRU entry when full.
    ///
    /// If an existing entry covers the same page start at the same order it
    /// is updated in place. The entry's `vpn` must be aligned to its order,
    /// as [`TlbEntry`] requires.
    pub fn fill(&mut self, entry: TlbEntry) -> FillOutcome {
        debug_assert_eq!(entry.vpn & (entry.order.base_pages() - 1), 0);
        if should_fault(&self.injector, FaultSite::AnySizeFill) {
            return FillOutcome::Dropped;
        }
        let tag = Tag::of(&entry);
        let same = self.index.find(&self.store, tag);
        let injector = &self.injector;
        match self.store.install(0, same, entry, || {
            should_fault(injector, FaultSite::AnySizeEvict)
        }) {
            Install::Updated => {}
            Install::Appended(slot) => self.index_entry(tag, slot),
            Install::Replaced(slot, victim) => {
                self.unindex_entry(Tag::of(&victim), slot);
                self.index_entry(tag, slot);
            }
            // The victim is already gone when the install fails: the way
            // stays empty until a later fill reuses it.
            Install::Abandoned => {
                self.reindex();
                return FillOutcome::Abandoned;
            }
        }
        FillOutcome::Installed
    }

    /// Shoots down entries overlapping the given page range for the ASID.
    pub fn invalidate(&mut self, asid: Asid, va: VirtAddr, order: PageOrder) {
        self.shoot_down(Invalidation::page(asid, va, order));
    }

    /// Drops the entries a shootdown covers.
    pub(crate) fn shoot_down(&mut self, inv: Invalidation) {
        let live = self.store.entries(0).len();
        self.store.shoot_down(inv);
        if self.store.entries(0).len() < live {
            self.reindex();
        }
    }

    #[inline]
    fn index_entry(&mut self, tag: Tag, slot: usize) {
        self.index.insert(tag, slot);
        self.order_counts[tag.order as usize] += 1;
        self.orders |= 1 << tag.order;
    }

    #[inline]
    fn unindex_entry(&mut self, tag: Tag, slot: usize) {
        self.index.remove(&self.store, tag, slot);
        let count = &mut self.order_counts[tag.order as usize];
        *count -= 1;
        if *count == 0 {
            self.orders &= !(1 << tag.order);
        }
    }

    /// Rebuilds the index after a removal moved the surviving slots.
    fn reindex(&mut self) {
        self.index.clear();
        self.order_counts = [0; ORDERS];
        self.orders = 0;
        let live = self.store.entries(0).len();
        for slot in 0..live {
            let tag = Tag::of(self.store.entry(0, slot));
            self.index_entry(tag, slot);
        }
    }
}

#[cfg(test)]
mod differential;

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
        t.shoot_down(Invalidation::Asid(1));
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
        // A duplicate would sit behind the stale entry and never hit.
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
        assert!(t.lookup(0, 0).is_none(), "fill was dropped");
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
        assert!(t.lookup(0, 0).is_none(), "victim evicted");
        assert!(t.lookup(0, 2).is_none(), "incoming abandoned");
        assert!(t.lookup(0, 1).is_some());
        assert_eq!(plan.borrow().injected_at("any-size-evict"), 1);
        // The freed way is reused once the injector is removed: the fill
        // lands without evicting the survivor.
        t.set_fault_injector(None);
        t.fill(e(3, 0));
        assert!(t.lookup(0, 3).is_some());
        assert!(t.lookup(0, 1).is_some());
    }
}
