//! Frame reservations for reservation-based demand paging (paper §III-B1).
//!
//! When a large mapping request arrives, the OS does not immediately map it.
//! It removes appropriately sized free blocks from the buddy allocator and
//! parks them in a *paging reservation table* keyed by the virtual range.
//! Demand faults then consume frames from the reservation, and the
//! [`UtilizationTree`] tracks which constituent base pages have been touched
//! so the policy can decide when an aligned power-of-two region is
//! promotable to a single larger page.

use crate::buddy::BuddyAllocator;
use std::collections::BTreeMap;
use tps_core::inject::FaultSite;
use tps_core::{InvariantLayer, PageOrder, PhysAddr, TpsError, VirtAddr, BASE_PAGE_SHIFT};

/// Identifier of a reservation in a [`ReservationTable`].
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub struct ReservationId(pub u64);

/// One physically contiguous piece of a reservation.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct Segment {
    /// Byte offset of this segment within the reserved virtual range.
    pub offset: u64,
    /// Physical base of the reserved block.
    pub base: PhysAddr,
    /// Order of the reserved block.
    pub order: PageOrder,
}

/// A reserved virtual range with the physical blocks backing it.
///
/// Reserved frames are "neither free nor in use": they are out of the buddy
/// allocator but not yet mapped (paper §III-B1).
#[derive(Clone, Debug)]
pub struct Reservation {
    id: ReservationId,
    va_base: VirtAddr,
    len: u64,
    segments: Vec<Segment>,
    util: UtilizationTree,
}

impl Reservation {
    /// Creates a reservation over `[va_base, va_base + len)` backed by the
    /// given segments.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::InvariantViolation`] if the segments do not
    /// exactly tile `[0, len)` in order, if a segment's physical base or
    /// offset is not aligned to its order, or if `len` exceeds the largest
    /// representable page order. These conditions mean the caller's segment
    /// list is corrupt; the mmap path reports that instead of panicking.
    pub fn new(
        id: ReservationId,
        va_base: VirtAddr,
        len: u64,
        segments: Vec<Segment>,
    ) -> Result<Self, TpsError> {
        let mut expect = 0u64;
        for s in &segments {
            if s.offset != expect {
                return Err(TpsError::invariant(
                    InvariantLayer::Reservation,
                    format!(
                        "segments must tile the range: expected offset {expect:#x}, got {:#x}",
                        s.offset
                    ),
                ));
            }
            if !s.base.is_aligned(s.order.shift()) {
                return Err(TpsError::invariant(
                    InvariantLayer::Reservation,
                    format!(
                        "segment base {:#x} misaligned for order {}",
                        s.base.value(),
                        s.order.get()
                    ),
                ));
            }
            if s.offset % s.order.bytes() != 0 {
                return Err(TpsError::invariant(
                    InvariantLayer::Reservation,
                    format!(
                        "segment offset {:#x} not aligned to its order {}",
                        s.offset,
                        s.order.get()
                    ),
                ));
            }
            expect += s.order.bytes();
        }
        if expect != len {
            return Err(TpsError::invariant(
                InvariantLayer::Reservation,
                format!("segments cover {expect:#x} bytes of a {len:#x}-byte range"),
            ));
        }
        let tree_order = PageOrder::covering(len)
            .map_err(|_| {
                TpsError::invariant(
                    InvariantLayer::Reservation,
                    format!("reservation of {len:#x} bytes exceeds the maximum page order"),
                )
            })?
            .get();
        Ok(Reservation {
            id,
            va_base,
            len,
            segments,
            util: UtilizationTree::new(tree_order),
        })
    }

    /// The reservation's identifier.
    pub fn id(&self) -> ReservationId {
        self.id
    }

    /// First virtual address covered.
    pub fn va_base(&self) -> VirtAddr {
        self.va_base
    }

    /// Length in bytes of the reserved virtual range.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if the reservation covers no bytes (never constructed in
    /// practice, provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True if `va` falls inside the reserved range.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.va_base && (va - self.va_base) < self.len
    }

    /// The backing segments, in offset order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Mutable access to the backing segments — used by memory compaction
    /// to retarget physical bases after migration. Callers must preserve
    /// the tiling invariants (offsets and orders may not change) and keep
    /// each base aligned to its order.
    pub fn segments_mut(&mut self) -> &mut [Segment] {
        &mut self.segments
    }

    /// The physical address backing the given byte offset, if reserved.
    pub fn frame_for(&self, offset: u64) -> Option<PhysAddr> {
        if offset >= self.len {
            return None;
        }
        let idx = self
            .segments
            .partition_point(|s| s.offset <= offset)
            .checked_sub(1)?;
        let s = &self.segments[idx];
        debug_assert!(offset >= s.offset && offset < s.offset + s.order.bytes());
        Some(PhysAddr::new(s.base.value() + (offset - s.offset)))
    }

    /// The largest page order that can be mapped at `offset` without leaving
    /// the physically contiguous, VA-aligned segment containing it.
    pub fn max_order_at(&self, offset: u64) -> Option<PageOrder> {
        let idx = self
            .segments
            .partition_point(|s| s.offset <= offset)
            .checked_sub(1)?;
        Some(self.segments[idx].order)
    }

    /// Shared access to the utilization tree.
    pub fn utilization(&self) -> &UtilizationTree {
        &self.util
    }

    /// Mutable access to the utilization tree (the fault handler touches
    /// pages through this).
    pub fn utilization_mut(&mut self) -> &mut UtilizationTree {
        &mut self.util
    }
}

/// The OS paging reservation table: reservations keyed by virtual range.
#[derive(Clone, Debug, Default)]
pub struct ReservationTable {
    by_start: BTreeMap<u64, Reservation>,
    next_id: u64,
}

impl ReservationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live reservations.
    pub fn len(&self) -> usize {
        self.by_start.len()
    }

    /// True if no reservations exist.
    pub fn is_empty(&self) -> bool {
        self.by_start.is_empty()
    }

    /// Inserts a reservation built from segments, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::RangeOverlap`] if the virtual range overlaps an
    /// existing reservation, or [`TpsError::InvariantViolation`] if the
    /// segment list does not validly tile the range (see
    /// [`Reservation::new`]).
    pub fn insert(
        &mut self,
        va_base: VirtAddr,
        len: u64,
        segments: Vec<Segment>,
    ) -> Result<ReservationId, TpsError> {
        let start = va_base.value();
        let overlap_err = TpsError::RangeOverlap { start, len };
        if let Some((_, prev)) = self.by_start.range(..=start).next_back() {
            if prev.va_base.value() + prev.len > start {
                return Err(overlap_err);
            }
        }
        if let Some((&next_start, _)) = self.by_start.range(start..).next() {
            if next_start < start + len {
                return Err(overlap_err);
            }
        }
        let id = ReservationId(self.next_id);
        self.next_id += 1;
        self.by_start
            .insert(start, Reservation::new(id, va_base, len, segments)?);
        Ok(id)
    }

    /// The reservation containing `va`, if any.
    pub fn find(&self, va: VirtAddr) -> Option<&Reservation> {
        let (_, r) = self.by_start.range(..=va.value()).next_back()?;
        r.contains(va).then_some(r)
    }

    /// Mutable variant of [`ReservationTable::find`].
    pub fn find_mut(&mut self, va: VirtAddr) -> Option<&mut Reservation> {
        let (_, r) = self.by_start.range_mut(..=va.value()).next_back()?;
        r.contains(va).then_some(r)
    }

    /// Removes and returns the reservation starting exactly at `va_base`.
    pub fn remove(&mut self, va_base: VirtAddr) -> Option<Reservation> {
        self.by_start.remove(&va_base.value())
    }

    /// Removes and returns every reservation whose base lies in
    /// `[start, end)` — the munmap path.
    pub fn remove_in_range(&mut self, start: VirtAddr, end: VirtAddr) -> Vec<Reservation> {
        let keys: Vec<u64> = self
            .by_start
            .range(start.value()..end.value())
            .map(|(&k, _)| k)
            .collect();
        // filter_map instead of expect: the keys were collected from the map
        // with no interleaving removal, so every lookup hits, but the munmap
        // path must stay panic-free even if that ever changes.
        keys.into_iter()
            .filter_map(|k| self.by_start.remove(&k))
            .collect()
    }

    /// Iterates all reservations in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Reservation> {
        self.by_start.values()
    }

    /// Mutable iteration (compaction retargeting).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Reservation> {
        self.by_start.values_mut()
    }
}

/// Tracks which base pages of a power-of-two region have been touched, with
/// per-node counts for every aligned sub-region, so the TPS policy can make
/// threshold-based promotion decisions (paper §III-B1: "TPS can adjust page
/// promotion aggressiveness based on a utilization threshold").
///
/// Implemented as per-level count arrays: level 0 holds one entry per base
/// page, level `k` holds counts of touched base pages within each aligned
/// `2^k`-page region.
#[derive(Clone, Debug)]
pub struct UtilizationTree {
    order: u8,
    /// levels[k][i] = touched base pages in region i of order k.
    levels: Vec<Vec<u32>>,
}

impl UtilizationTree {
    /// Creates a tree over a region of `2^order` base pages.
    ///
    /// # Panics
    ///
    /// Panics if `order > 24` (a 64 GB region — larger single reservations
    /// are unrealistic and would use excessive host memory).
    pub fn new(order: u8) -> Self {
        assert!(order <= 24, "utilization tree region too large");
        let levels = (0..=order)
            .map(|k| vec![0u32; 1usize << (order - k)])
            .collect();
        UtilizationTree { order, levels }
    }

    /// The region order (log2 of the number of base pages tracked).
    pub fn order(&self) -> u8 {
        self.order
    }

    /// True if the base page at `page_idx` has been touched.
    ///
    /// # Panics
    ///
    /// Panics if `page_idx` is outside the region.
    pub fn touched(&self, page_idx: u64) -> bool {
        self.levels[0][page_idx as usize] != 0
    }

    /// Marks a base page touched. Returns `true` if it was newly touched.
    ///
    /// # Panics
    ///
    /// Panics if `page_idx` is outside the region.
    pub fn touch(&mut self, page_idx: u64) -> bool {
        if self.levels[0][page_idx as usize] != 0 {
            return false;
        }
        for k in 0..=self.order {
            self.levels[k as usize][(page_idx >> k) as usize] += 1;
        }
        true
    }

    /// Count of touched base pages in the aligned order-`k` region that
    /// contains `page_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `k > self.order()` or `page_idx` is outside the region.
    pub fn count(&self, k: u8, page_idx: u64) -> u32 {
        self.levels[k as usize][(page_idx >> k) as usize]
    }

    /// The largest order `k` such that the aligned order-`k` region
    /// containing `page_idx` meets the utilization `threshold`
    /// (`0 < threshold <= 1`). Returns 0 if only the base page qualifies.
    ///
    /// With `threshold = 1.0` this is the paper's conservative policy:
    /// promote only when 100 % of constituent pages are utilized,
    /// guaranteeing memory usage identical to 4 KB-only paging.
    pub fn promotable_order(&self, page_idx: u64, threshold: f64) -> u8 {
        debug_assert!(threshold > 0.0 && threshold <= 1.0);
        let mut best = 0;
        for k in 1..=self.order {
            let cap = 1u64 << k;
            let need = (threshold * cap as f64).ceil() as u64;
            if u64::from(self.count(k, page_idx)) >= need {
                best = k;
            }
            // Counts are monotone down the tree only in capacity fraction,
            // not absolute terms, so do not break early on the first miss:
            // a 50% threshold can pass at a higher level after failing lower.
        }
        best
    }
}

/// Reserves physical blocks covering `len` bytes with the conservative
/// exact-span decomposition (paper §III-B2: "an aligned 28 KB request
/// results in 16 KB + 8 KB + 4 KB").
///
/// Each piece is the largest power of two that fits the remaining length,
/// is aligned at its offset, and does not exceed `max_order`. Under
/// fragmentation, a piece degrades to whatever the buddy allocator can
/// provide ([`BuddyAllocator::alloc_at_most`]).
///
/// # Errors
///
/// Returns [`TpsError::OutOfMemory`] (after rolling back any partial
/// allocation) if physical memory is exhausted, or if a fault injector
/// installed on `buddy` denies the whole-span reservation up front.
/// Returns [`TpsError::InvariantViolation`] if `len` is zero or not a
/// multiple of the base page size — a malformed request from the mmap
/// layer must surface as an error, not a panic.
pub fn reserve_span(
    buddy: &mut BuddyAllocator,
    len: u64,
    max_order: PageOrder,
) -> Result<Vec<Segment>, TpsError> {
    if len == 0 {
        return Err(TpsError::invariant(
            InvariantLayer::Reservation,
            "cannot reserve an empty span".to_string(),
        ));
    }
    if !len.is_multiple_of(1 << BASE_PAGE_SHIFT) {
        return Err(TpsError::invariant(
            InvariantLayer::Reservation,
            format!("span of {len:#x} bytes is not base-page-aligned"),
        ));
    }
    if buddy.consult_injector(FaultSite::ReserveSpan) {
        // Forced denial before any block is taken: the caller sees the same
        // error an exhausted allocator would produce and degrades to 4 KB.
        return Err(TpsError::OutOfMemory {
            order: max_order.get(),
        });
    }
    let mut segments: Vec<Segment> = Vec::new();
    let mut offset = 0u64;
    while offset < len {
        let remaining = len - offset;
        // `remaining` is a positive multiple of the base page size (checked
        // above, and `got.bytes()` only subtracts page multiples), so
        // `fitting` cannot return None; report rather than panic regardless.
        let Some(fit) = PageOrder::fitting(remaining) else {
            return Err(TpsError::invariant(
                InvariantLayer::Reservation,
                format!("no page order fits {remaining:#x} remaining bytes"),
            ));
        };
        let align = if offset == 0 {
            max_order
        } else {
            PageOrder::new_unchecked(
                ((offset.trailing_zeros() - BASE_PAGE_SHIFT) as u8).min(max_order.get()),
            )
        };
        let ideal = fit.min(align).min(max_order);
        match buddy.alloc_at_most(ideal) {
            Some((base, got)) => {
                segments.push(Segment {
                    offset,
                    base,
                    order: got,
                });
                offset += got.bytes();
            }
            None => {
                // Roll back: return everything to the allocator. A rejected
                // rollback free means allocator state is corrupt; report it
                // instead of panicking.
                for s in segments {
                    if buddy.free(s.base, s.order).is_err() {
                        return Err(TpsError::invariant(
                            InvariantLayer::Buddy,
                            format!(
                                "rollback free of just-allocated block {:#x} (order {}) rejected",
                                s.base.value(),
                                s.order.get()
                            ),
                        ));
                    }
                }
                return Err(TpsError::OutOfMemory { order: ideal.get() });
            }
        }
    }
    Ok(segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::BASE_PAGE_SIZE;

    fn o(x: u8) -> PageOrder {
        PageOrder::new(x).unwrap()
    }

    fn fresh_buddy() -> BuddyAllocator {
        BuddyAllocator::new(64 << 20)
    }

    #[test]
    fn exact_span_decomposition_matches_paper_example() {
        let mut buddy = fresh_buddy();
        // 28 KB -> 16 + 8 + 4 (paper §III-B2).
        let segs = reserve_span(&mut buddy, 28 << 10, o(18)).unwrap();
        let orders: Vec<u8> = segs.iter().map(|s| s.order.get()).collect();
        assert_eq!(orders, vec![2, 1, 0]);
        assert_eq!(segs[0].offset, 0);
        assert_eq!(segs[1].offset, 16 << 10);
        assert_eq!(segs[2].offset, 24 << 10);
    }

    #[test]
    fn power_of_two_span_is_single_segment() {
        let mut buddy = fresh_buddy();
        let segs = reserve_span(&mut buddy, 4 << 20, o(18)).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].order, o(10));
    }

    #[test]
    fn span_respects_max_order() {
        let mut buddy = fresh_buddy();
        let segs = reserve_span(&mut buddy, 4 << 20, o(8)).unwrap();
        assert!(segs.iter().all(|s| s.order <= o(8)));
        let total: u64 = segs.iter().map(|s| s.order.bytes()).sum();
        assert_eq!(total, 4 << 20);
    }

    #[test]
    fn span_out_of_memory_rolls_back() {
        let mut buddy = BuddyAllocator::new(1 << 20);
        let before = buddy.free_bytes();
        assert!(reserve_span(&mut buddy, 2 << 20, o(18)).is_err());
        assert_eq!(buddy.free_bytes(), before, "partial allocation rolled back");
        buddy.check_invariants().unwrap();
    }

    #[test]
    fn span_degrades_under_fragmentation() {
        let mut buddy = BuddyAllocator::new(1 << 20);
        // Fragment: allocate all 256 pages, free every other page.
        let pages: Vec<_> = (0..256).map(|_| buddy.alloc(o(0)).unwrap()).collect();
        for p in pages.iter().step_by(2) {
            buddy.free(*p, o(0)).unwrap();
        }
        // Request 64K: only 4K blocks exist -> 16 order-0 segments.
        let segs = reserve_span(&mut buddy, 64 << 10, o(18)).unwrap();
        assert_eq!(segs.len(), 16);
        assert!(segs.iter().all(|s| s.order == o(0)));
    }

    #[test]
    fn reservation_frame_lookup() {
        let mut buddy = fresh_buddy();
        let segs = reserve_span(&mut buddy, 28 << 10, o(18)).unwrap();
        let seg0_base = segs[0].base;
        let seg2_base = segs[2].base;
        let r =
            Reservation::new(ReservationId(0), VirtAddr::new(0x10000000), 28 << 10, segs).unwrap();
        assert_eq!(r.frame_for(0), Some(seg0_base));
        assert_eq!(
            r.frame_for(BASE_PAGE_SIZE),
            Some(PhysAddr::new(seg0_base.value() + BASE_PAGE_SIZE))
        );
        assert_eq!(r.frame_for(24 << 10), Some(seg2_base));
        assert_eq!(r.frame_for(28 << 10), None);
        assert!(r.contains(VirtAddr::new(0x10000fff)));
        assert!(!r.contains(VirtAddr::new(0x10007000)));
    }

    #[test]
    fn reservation_table_overlap_rejected() {
        let mut buddy = fresh_buddy();
        let mut table = ReservationTable::new();
        let segs = reserve_span(&mut buddy, 16 << 10, o(18)).unwrap();
        table
            .insert(VirtAddr::new(0x1000_0000), 16 << 10, segs)
            .unwrap();
        let segs2 = reserve_span(&mut buddy, 16 << 10, o(18)).unwrap();
        // Overlapping from below.
        assert!(table
            .insert(VirtAddr::new(0x1000_2000), 16 << 10, segs2.clone())
            .is_err());
        // Overlapping from above an existing one.
        assert!(table
            .insert(VirtAddr::new(0x0fff_f000), 16 << 10, segs2.clone())
            .is_err());
        // Adjacent is fine.
        table
            .insert(VirtAddr::new(0x1000_4000), 16 << 10, segs2)
            .unwrap();
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn reservation_table_find() {
        let mut buddy = fresh_buddy();
        let mut table = ReservationTable::new();
        let segs = reserve_span(&mut buddy, 64 << 10, o(18)).unwrap();
        let id = table
            .insert(VirtAddr::new(0x2000_0000), 64 << 10, segs)
            .unwrap();
        assert_eq!(table.find(VirtAddr::new(0x2000_8000)).unwrap().id(), id);
        assert!(table.find(VirtAddr::new(0x2001_0000)).is_none());
        assert!(table.find(VirtAddr::new(0x1fff_f000)).is_none());
        let r = table.remove(VirtAddr::new(0x2000_0000)).unwrap();
        assert_eq!(r.id(), id);
        assert!(table.is_empty());
    }

    #[test]
    fn utilization_tree_touch_and_counts() {
        let mut t = UtilizationTree::new(3); // 8 pages
        assert!(t.touch(0));
        assert!(!t.touch(0), "double touch is idempotent");
        assert!(t.touch(1));
        assert_eq!(t.count(0, 0), 1);
        assert_eq!(t.count(1, 0), 2);
        assert_eq!(t.count(3, 7), 2);
        assert!(t.touched(1));
        assert!(!t.touched(2));
    }

    #[test]
    fn promotable_order_full_threshold() {
        let mut t = UtilizationTree::new(3);
        for i in 0..4 {
            t.touch(i);
        }
        // Pages 0..4 full: order-2 region 0 is 100% utilized.
        assert_eq!(t.promotable_order(0, 1.0), 2);
        assert_eq!(t.promotable_order(3, 1.0), 2);
        // Page 5 untouched: region at order 1 containing page 5 not full.
        t.touch(4);
        assert_eq!(t.promotable_order(4, 1.0), 0);
        for i in 5..8 {
            t.touch(i);
        }
        assert_eq!(t.promotable_order(7, 1.0), 3, "whole region now full");
    }

    #[test]
    fn promotable_order_partial_threshold() {
        let mut t = UtilizationTree::new(4); // 16 pages
                                             // Touch pages 0..8 (half the region).
        for i in 0..8 {
            t.touch(i);
        }
        assert_eq!(t.promotable_order(0, 1.0), 3);
        assert_eq!(
            t.promotable_order(0, 0.5),
            4,
            "50% threshold promotes whole"
        );
    }

    #[test]
    #[should_panic(expected = "region too large")]
    fn utilization_tree_caps_order() {
        UtilizationTree::new(25);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tps_core::GIB;

    fn o(x: u8) -> PageOrder {
        PageOrder::new(x).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// reserve_span always tiles exactly and each segment is aligned both
        /// physically and at its VA offset.
        #[test]
        fn span_tiles_exactly(pages in 1u64..2000, max_order in 0u8..12) {
            let mut buddy = BuddyAllocator::new(64 << 20);
            let len = pages << 12;
            let segs = reserve_span(&mut buddy, len, o(max_order)).unwrap();
            let mut expect = 0;
            for s in &segs {
                prop_assert_eq!(s.offset, expect);
                prop_assert!(s.base.is_aligned(s.order.shift()));
                prop_assert_eq!(s.offset % s.order.bytes(), 0);
                prop_assert!(s.order.get() <= max_order);
                expect += s.order.bytes();
            }
            prop_assert_eq!(expect, len);
            // Conservative decomposition never over-reserves.
            prop_assert_eq!(buddy.used_bytes(), len);
        }

        /// frame_for agrees with a naive linear scan.
        #[test]
        fn frame_lookup_matches_linear_scan(pages in 1u64..500, probe in 0u64..500) {
            let mut buddy = BuddyAllocator::new(64 << 20);
            let len = pages << 12;
            let segs = reserve_span(&mut buddy, len, o(18)).unwrap();
            let r = Reservation::new(ReservationId(1), VirtAddr::new(GIB), len, segs.clone())
                .unwrap();
            let offset = (probe % pages) << 12;
            let expected = segs.iter()
                .find(|s| offset >= s.offset && offset < s.offset + s.order.bytes())
                .map(|s| PhysAddr::new(s.base.value() + (offset - s.offset)));
            prop_assert_eq!(r.frame_for(offset), expected);
        }

        /// Utilization counts always equal the number of touched leaves in
        /// the region, at every level.
        #[test]
        fn utilization_counts_consistent(order in 1u8..8, touches in proptest::collection::vec(0u64..256, 1..64)) {
            let mut t = UtilizationTree::new(order);
            let n = 1u64 << order;
            let mut touched = std::collections::HashSet::new();
            for raw in touches {
                let idx = raw % n;
                t.touch(idx);
                touched.insert(idx);
            }
            for k in 0..=order {
                for region in 0..(n >> k) {
                    let lo = region << k;
                    let hi = lo + (1 << k);
                    let expect = touched.iter().filter(|&&p| p >= lo && p < hi).count() as u32;
                    prop_assert_eq!(t.count(k, lo), expect);
                }
            }
        }
    }
}
