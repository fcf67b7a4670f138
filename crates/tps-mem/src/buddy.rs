//! The buddy physical-memory allocator (paper §II-B).
//!
//! Free physical memory is kept in per-order free lists of power-of-two
//! sized, size-aligned blocks. Allocation of order *k* takes a block from
//! free list *k*, or iteratively splits the smallest larger free block; each
//! split produces a unique buddy pair. Freeing merges a block with its buddy
//! whenever the buddy is also free, repeating upward.

use std::collections::{BTreeSet, HashMap};
use tps_core::inject::{self, FaultSite, InjectorHandle};
use tps_core::{PageOrder, PhysAddr, TpsError, BASE_PAGE_SHIFT, MAX_PAGE_ORDER};

/// Per-order counts of free blocks, in the spirit of `/proc/buddyinfo`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FreeHistogram {
    counts: Vec<u64>,
}

impl FreeHistogram {
    /// Number of free blocks of the given order.
    pub fn count(&self, order: PageOrder) -> u64 {
        self.counts.get(order.get() as usize).copied().unwrap_or(0)
    }

    /// Total free bytes represented by the histogram.
    pub fn free_bytes(&self) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .map(|(o, &c)| c << (BASE_PAGE_SHIFT as u64 + o as u64))
            .sum()
    }

    /// Iterates `(order, count)` pairs, smallest order first.
    pub fn iter(&self) -> impl Iterator<Item = (PageOrder, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(|(o, &c)| (PageOrder::new_unchecked(o as u8), c))
    }

    /// Fraction of free memory usable if *every* allocation used a single
    /// page size of the given order (paper Fig. 15).
    ///
    /// A free buddy block of order `b ≥ s` is fully usable by order-`s`
    /// pages (it is size-aligned); a smaller block is not usable at all.
    /// Returns 1.0 when there is no free memory (vacuously covered).
    pub fn coverage(&self, order: PageOrder) -> f64 {
        let total = self.free_bytes();
        if total == 0 {
            return 1.0;
        }
        let usable: u64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|&(o, _)| o >= order.get() as usize)
            .map(|(o, &c)| c << (BASE_PAGE_SHIFT as u64 + o as u64))
            .sum();
        usable as f64 / total as f64
    }
}

/// A buddy allocator managing `[0, total_bytes)` of simulated physical
/// memory.
///
/// Deterministic: free lists are ordered sets, and allocation always takes
/// the lowest-addressed suitable block.
///
/// # Example
///
/// ```
/// use tps_mem::BuddyAllocator;
/// use tps_core::PageOrder;
///
/// let mut buddy = BuddyAllocator::new(1 << 20);
/// let a = buddy.alloc(PageOrder::new(0).unwrap()).unwrap();
/// let b = buddy.alloc(PageOrder::new(0).unwrap()).unwrap();
/// assert_ne!(a, b);
/// buddy.free(a, PageOrder::new(0).unwrap()).unwrap();
/// buddy.free(b, PageOrder::new(0).unwrap()).unwrap();
/// // a and b were buddies: they merge back into larger blocks.
/// assert_eq!(buddy.free_bytes(), 1 << 20);
/// ```
#[derive(Clone, Debug)]
pub struct BuddyAllocator {
    /// free_lists[k] holds base addresses of free order-k blocks.
    free_lists: Vec<BTreeSet<u64>>,
    /// Allocated blocks: base address -> order. Used to validate frees and
    /// to enumerate movable allocations during compaction.
    allocated: HashMap<u64, u8>,
    total_bytes: u64,
    free_bytes: u64,
    max_order: u8,
    /// Optional fault injector consulted by [`BuddyAllocator::alloc`].
    /// `None` (the default) costs one branch per allocation. Cloning the
    /// allocator shares the injector stream with the clone.
    injector: Option<InjectorHandle>,
}

impl BuddyAllocator {
    /// Creates an allocator managing `total_bytes` of physical memory.
    ///
    /// The initial free space is decomposed greedily into maximal aligned
    /// power-of-two blocks.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` is zero or not a multiple of 4 KB.
    pub fn new(total_bytes: u64) -> Self {
        assert!(total_bytes > 0, "physical memory must be non-empty");
        assert_eq!(
            total_bytes & ((1 << BASE_PAGE_SHIFT) - 1),
            0,
            "physical memory must be a multiple of the base page"
        );
        let max_order = MAX_PAGE_ORDER;
        let mut this = BuddyAllocator {
            free_lists: vec![BTreeSet::new(); max_order as usize + 1],
            allocated: HashMap::new(),
            total_bytes,
            free_bytes: 0,
            max_order,
            injector: None,
        };
        // Greedy decomposition of [0, total) into maximal aligned blocks.
        let mut addr = 0u64;
        while addr < total_bytes {
            let align_order = if addr == 0 {
                max_order as u32
            } else {
                (addr.trailing_zeros() - BASE_PAGE_SHIFT).min(max_order as u32)
            };
            let remaining = total_bytes - addr;
            let fit_order = (63 - remaining.leading_zeros()).saturating_sub(BASE_PAGE_SHIFT);
            let order = align_order.min(fit_order).min(max_order as u32) as u8;
            this.free_lists[order as usize].insert(addr);
            addr += 1u64 << (BASE_PAGE_SHIFT + order as u32);
        }
        this.free_bytes = total_bytes;
        this
    }

    /// Total physical memory managed.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.free_bytes
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.total_bytes - self.free_bytes
    }

    /// The largest order this allocator will ever hand out.
    pub fn max_order(&self) -> PageOrder {
        PageOrder::new_unchecked(self.max_order)
    }

    /// Installs a fault injector consulted on every [`BuddyAllocator::alloc`]
    /// (forced [`TpsError::OutOfMemory`]). Pass `None` to remove it.
    pub fn set_injector(&mut self, injector: Option<InjectorHandle>) {
        self.injector = injector;
    }

    /// Consults the installed injector for a non-allocation site (span
    /// reservation, compaction steps). The `None` fast path is one branch.
    pub(crate) fn consult_injector(&mut self, site: FaultSite) -> bool {
        inject::should_fault(&self.injector, site)
    }

    /// Allocates a size-aligned block of the given order.
    ///
    /// Splits the smallest larger free block if no exact-size block exists.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::OutOfMemory`] if no block of the requested order
    /// (or larger) is free, or if an installed fault injector forces the
    /// allocation to fail.
    pub fn alloc(&mut self, order: PageOrder) -> Result<PhysAddr, TpsError> {
        if inject::should_fault(&self.injector, FaultSite::BuddyAlloc { order: order.get() }) {
            return Err(TpsError::OutOfMemory { order: order.get() });
        }
        self.alloc_uninjected(order)
    }

    /// [`BuddyAllocator::alloc`] without consulting the fault injector.
    ///
    /// Used where an allocation is known to succeed by construction and a
    /// forced failure would break an internal invariant: re-allocating the
    /// freed multiset during compaction, and the degradation path inside
    /// [`BuddyAllocator::alloc_at_most`] after a free list was checked
    /// non-empty.
    pub(crate) fn alloc_uninjected(&mut self, order: PageOrder) -> Result<PhysAddr, TpsError> {
        let want = order.get();
        // Take the first block of the smallest order >= want with one.
        let (from, base) = (want..=self.max_order)
            .find_map(|o| {
                let first = self.free_lists[o as usize].iter().next();
                first.map(|&base| (o, base))
            })
            .ok_or(TpsError::OutOfMemory { order: want })?;
        self.free_lists[from as usize].remove(&base);
        // Split down to the requested order; the upper halves go back free.
        let mut cur = from;
        while cur > want {
            cur -= 1;
            let half = 1u64 << (BASE_PAGE_SHIFT + cur as u32);
            self.free_lists[cur as usize].insert(base + half);
        }
        self.allocated.insert(base, want);
        self.free_bytes -= order.bytes();
        Ok(PhysAddr::new(base))
    }

    /// Allocates the largest available block of order at most `order`.
    ///
    /// Used by the TPS reservation path under fragmentation: when the
    /// desired contiguity does not exist, the OS takes what it can get.
    /// Returns the block and its actual order, or `None` if memory is
    /// completely exhausted.
    pub fn alloc_at_most(&mut self, order: PageOrder) -> Option<(PhysAddr, PageOrder)> {
        // Prefer the exact size (splitting larger blocks if needed), then
        // degrade to the largest smaller block available.
        if let Ok(base) = self.alloc(order) {
            return Some((base, order));
        }
        let best = (0..order.get())
            .rev()
            .find(|&o| !self.free_lists[o as usize].is_empty())?;
        // The exact-order alloc below cannot fail: list `best` is non-empty,
        // and the uninjected path skips the fault injector (the injector was
        // already consulted by the exact-size attempt above).
        let o = PageOrder::new_unchecked(best);
        let base = self.alloc_uninjected(o).ok()?;
        Some((base, o))
    }

    /// Frees a previously allocated block, merging buddies upward.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::InvalidFree`] if `(base, order)` does not match an
    /// outstanding allocation.
    pub fn free(&mut self, base: PhysAddr, order: PageOrder) -> Result<(), TpsError> {
        match self.allocated.get(&base.value()) {
            Some(&o) if o == order.get() => {}
            _ => return Err(TpsError::InvalidFree { addr: base.value() }),
        }
        self.allocated.remove(&base.value());
        self.free_bytes += order.bytes();
        // Merge with the buddy while it is free.
        let mut cur_base = base.value();
        let mut cur_order = order.get();
        while cur_order < self.max_order {
            let buddy = cur_base ^ (1u64 << (BASE_PAGE_SHIFT + cur_order as u32));
            // The buddy may extend past the end of memory for non-power-of-two
            // totals; the set lookup handles that (it simply won't be free).
            if self.free_lists[cur_order as usize].remove(&buddy) {
                cur_base = cur_base.min(buddy);
                cur_order += 1;
            } else {
                break;
            }
        }
        self.free_lists[cur_order as usize].insert(cur_base);
        Ok(())
    }

    /// True if the block at `base` of the given order is currently allocated.
    pub fn is_allocated(&self, base: PhysAddr, order: PageOrder) -> bool {
        self.allocated.get(&base.value()) == Some(&order.get())
    }

    /// Snapshot of the free lists (order → block count).
    pub fn histogram(&self) -> FreeHistogram {
        FreeHistogram {
            counts: self.free_lists.iter().map(|l| l.len() as u64).collect(),
        }
    }

    /// All outstanding allocations as `(base, order)` pairs, address order.
    pub fn allocations(&self) -> Vec<(PhysAddr, PageOrder)> {
        let mut v: Vec<_> = self
            .allocated
            // tps-lint::allow(unordered-iteration, reason = "audited: collected into a Vec that is sorted before being observed")
            .iter()
            .map(|(&b, &o)| (PhysAddr::new(b), PageOrder::new_unchecked(o)))
            .collect();
        v.sort_unstable();
        v
    }

    /// Checks internal invariants; used by tests and debug assertions.
    ///
    /// Verifies that free blocks are aligned, disjoint from each other and
    /// from allocations, and that the byte accounting adds up.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut spans: Vec<(u64, u64, bool)> = Vec::new(); // (start, len, is_free)
        for (o, list) in self.free_lists.iter().enumerate() {
            let size = 1u64 << (BASE_PAGE_SHIFT + o as u32);
            for &b in list {
                if b % size != 0 {
                    return Err(format!("free block {b:#x} misaligned for order {o}"));
                }
                spans.push((b, size, true));
            }
        }
        // tps-lint::allow(unordered-iteration, reason = "audited: spans are sorted below before any order-sensitive check")
        for (&b, &o) in &self.allocated {
            spans.push((b, 1u64 << (BASE_PAGE_SHIFT + o as u32), false));
        }
        spans.sort_unstable();
        let mut end = 0u64;
        let mut free_total = 0u64;
        for (start, len, is_free) in &spans {
            if *start < end {
                return Err(format!("overlap at {start:#x}"));
            }
            end = start + len;
            if *is_free {
                free_total += len;
            }
        }
        if end > self.total_bytes {
            return Err(format!("block past end of memory: {end:#x}"));
        }
        if free_total != self.free_bytes {
            return Err(format!(
                "free byte accounting mismatch: {free_total} vs {}",
                self.free_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::BASE_PAGE_SIZE;

    fn o(x: u8) -> PageOrder {
        PageOrder::new(x).unwrap()
    }

    #[test]
    fn fresh_allocator_is_all_free() {
        let b = BuddyAllocator::new(256 << 20);
        assert_eq!(b.free_bytes(), 256 << 20);
        assert_eq!(b.used_bytes(), 0);
        b.check_invariants().unwrap();
    }

    #[test]
    fn non_power_of_two_total() {
        let total = (256 << 20) + (12 << 10) + BASE_PAGE_SIZE; // odd size
        let b = BuddyAllocator::new(total + BASE_PAGE_SIZE - (total % BASE_PAGE_SIZE));
        b.check_invariants().unwrap();
    }

    #[test]
    fn alloc_is_aligned_and_within_memory() {
        let mut b = BuddyAllocator::new(64 << 20);
        for order in [0u8, 3, 9, 12] {
            let a = b.alloc(o(order)).unwrap();
            assert!(a.is_aligned(12 + order as u32), "order {order}");
            assert!(a.value() + o(order).bytes() <= 64 << 20);
        }
        b.check_invariants().unwrap();
    }

    #[test]
    fn split_and_merge_round_trip() {
        let mut b = BuddyAllocator::new(4 << 20);
        let blocks: Vec<_> = (0..1024).map(|_| b.alloc(o(0)).unwrap()).collect();
        assert_eq!(b.free_bytes(), 0);
        b.check_invariants().unwrap();
        for blk in blocks {
            b.free(blk, o(0)).unwrap();
        }
        assert_eq!(b.free_bytes(), 4 << 20);
        // Everything merged back: one free block of order 10 (4 MB).
        let h = b.histogram();
        assert_eq!(h.count(o(10)), 1);
        assert!(PageOrder::all()
            .filter(|&x| x != o(10))
            .all(|x| h.count(x) == 0));
        b.check_invariants().unwrap();
    }

    #[test]
    fn buddy_merge_requires_buddy_not_neighbor() {
        let mut b = BuddyAllocator::new(16 << 10); // 4 base pages
        let p: Vec<_> = (0..4).map(|_| b.alloc(o(0)).unwrap()).collect();
        // Free pages 1 and 2: adjacent but NOT buddies (1^1=0, 2^1=3).
        b.free(p[1], o(0)).unwrap();
        b.free(p[2], o(0)).unwrap();
        let h = b.histogram();
        assert_eq!(h.count(o(0)), 2);
        assert_eq!(h.count(o(1)), 0);
        // Now free 0: merges with 1. Free 3: merges with 2, then orders 1+1 merge.
        b.free(p[0], o(0)).unwrap();
        assert_eq!(b.histogram().count(o(1)), 1);
        b.free(p[3], o(0)).unwrap();
        assert_eq!(b.histogram().count(o(2)), 1);
    }

    #[test]
    fn out_of_memory() {
        let mut b = BuddyAllocator::new(8 << 10);
        assert!(b.alloc(o(2)).is_err()); // 16K from 8K memory
        let _ = b.alloc(o(1)).unwrap();
        assert!(matches!(
            b.alloc(o(0)),
            Err(TpsError::OutOfMemory { order: 0 })
        ));
    }

    #[test]
    fn invalid_free_detected() {
        let mut b = BuddyAllocator::new(1 << 20);
        let a = b.alloc(o(0)).unwrap();
        assert!(b.free(a, o(1)).is_err()); // wrong order
        assert!(b.free(PhysAddr::new(0x5000), o(0)).is_err()); // never allocated
        b.free(a, o(0)).unwrap();
        assert!(b.free(a, o(0)).is_err()); // double free
    }

    #[test]
    fn alloc_at_most_degrades() {
        let mut b = BuddyAllocator::new(1 << 20); // 256 pages
                                                  // Exhaust into single pages, free every other one -> only order 0 free.
        let pages: Vec<_> = (0..256).map(|_| b.alloc(o(0)).unwrap()).collect();
        for p in pages.iter().step_by(2) {
            b.free(*p, o(0)).unwrap();
        }
        let (blk, got) = b.alloc_at_most(o(8)).unwrap();
        assert_eq!(got, o(0), "only single pages are free");
        assert!(blk.is_aligned(12));
        // Exhaust everything.
        while b.alloc_at_most(o(8)).is_some() {}
        assert_eq!(b.free_bytes(), 0);
        assert!(b.alloc_at_most(o(0)).is_none());
    }

    #[test]
    fn histogram_and_coverage() {
        let mut b = BuddyAllocator::new(2 << 20); // order 9 block
        let h = b.histogram();
        assert_eq!(h.free_bytes(), 2 << 20);
        assert_eq!(h.coverage(o(9)), 1.0);
        // Allocate one 4K page: the order-9 block shatters; 2M coverage -> 0.
        let _ = b.alloc(o(0)).unwrap();
        let h = b.histogram();
        assert_eq!(h.coverage(o(9)), 0.0);
        assert_eq!(h.coverage(o(0)), 1.0);
        assert!(h.coverage(o(8)) > 0.49 && h.coverage(o(8)) < 0.52);
    }

    #[test]
    fn deterministic_allocation_order() {
        let mut a = BuddyAllocator::new(8 << 20);
        let mut b = BuddyAllocator::new(8 << 20);
        for _ in 0..100 {
            assert_eq!(a.alloc(o(1)).unwrap(), b.alloc(o(1)).unwrap());
        }
    }

    #[test]
    fn injector_forces_oom_and_alloc_at_most_degrades() {
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Debug)]
        struct AlwaysFault;
        impl tps_core::FaultInjector for AlwaysFault {
            fn should_fault(&mut self, _site: tps_core::FaultSite) -> bool {
                true
            }
        }

        let mut b = BuddyAllocator::new(1 << 20);
        // Shatter the single large block so smaller free lists are populated.
        let a = b.alloc(o(0)).unwrap();
        b.set_injector(Some(Rc::new(RefCell::new(AlwaysFault))));
        assert!(matches!(
            b.alloc(o(0)),
            Err(TpsError::OutOfMemory { order: 0 })
        ));
        // The degradation path must not panic: the injected exact-size
        // failure falls back to the largest smaller free block.
        let (blk, got) = b.alloc_at_most(o(3)).unwrap();
        assert!(got < o(3));
        b.set_injector(None);
        b.free(blk, got).unwrap();
        b.free(a, o(0)).unwrap();
        assert_eq!(b.free_bytes(), 1 << 20);
        b.check_invariants().unwrap();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random alloc/free sequences keep every invariant intact and
        /// freeing everything restores all memory.
        #[test]
        fn random_churn_preserves_invariants(
            seed in 0u64..1_000_000,
            ops in 1usize..200,
        ) {
            let mut rng = tps_core::rng::Rng::new(seed);
            let mut b = BuddyAllocator::new(16 << 20);
            let mut live: Vec<(PhysAddr, PageOrder)> = Vec::new();
            for _ in 0..ops {
                if live.is_empty() || rng.chance(0.6) {
                    let order = PageOrder::new(rng.below(7) as u8).unwrap();
                    if let Ok(base) = b.alloc(order) {
                        live.push((base, order));
                    }
                } else {
                    let i = rng.below(live.len() as u64) as usize;
                    let (base, order) = live.swap_remove(i);
                    b.free(base, order).unwrap();
                }
            }
            b.check_invariants().map_err(TestCaseError::fail)?;
            for (base, order) in live {
                b.free(base, order).unwrap();
            }
            prop_assert_eq!(b.free_bytes(), 16 << 20);
            b.check_invariants().map_err(TestCaseError::fail)?;
        }

        /// Allocated blocks never overlap.
        #[test]
        fn allocations_disjoint(seed in 0u64..1_000_000) {
            let mut rng = tps_core::rng::Rng::new(seed);
            let mut b = BuddyAllocator::new(4 << 20);
            let mut live = Vec::new();
            for _ in 0..64 {
                let order = PageOrder::new(rng.below(5) as u8).unwrap();
                if let Ok(base) = b.alloc(order) {
                    live.push((base.value(), order.bytes()));
                }
            }
            live.sort_unstable();
            for w in live.windows(2) {
                prop_assert!(w[0].0 + w[0].1 <= w[1].0);
            }
        }
    }
}
