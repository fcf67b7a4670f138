//! The 4-level radix page table with tailored-page support.

use std::collections::{BTreeMap, HashMap};
use tps_core::inject::should_fault;
use tps_core::{
    level_base_order, level_for_order, FaultSite, InjectorHandle, LeafInfo, PageOrder, PhysAddr,
    Pte, PteFlags, TpsError, VirtAddr, BASE_PAGE_SHIFT, BASE_PAGE_SIZE, PT_ENTRIES,
};

/// Physical base of the pool from which page-table node frames are drawn.
///
/// Placed at 256 GB, far above any DRAM size the simulator models, so node
/// frames never collide with data frames handed out by the buddy allocator.
pub const PT_POOL_BASE: u64 = 1 << 38;

/// A process page table: a radix tree of 512-entry nodes.
///
/// Supports conventional leaves (4 KB / 2 MB / 1 GB) and TPS tailored leaves
/// at any order. Tailored leaves are written as `2^rel` identical PTEs — the
/// true PTE plus alias PTEs — within one node, where `rel` is the order
/// relative to the leaf level.
///
/// [`Self::map`] and [`Self::unmap`] return the PTE stores they made, so the
/// OS model can charge system time for page-table maintenance, and
/// [`Self::next_leaf`] lists the mapped pages of a range.
///
/// Nodes live in a dense arena: the node at `PT_POOL_BASE + k * 4K` is slot
/// `k`. Slots are never reused — a freed node leaves an empty slot — so
/// every node keeps the physical address it was allocated at, which the
/// MMU-cache tags, walk references and nested-walk costs all depend on.
#[derive(Clone, Debug)]
pub struct PageTable {
    nodes: Vec<Option<Box<[Pte; PT_ENTRIES]>>>,
    live_nodes: usize,
    root: PhysAddr,
    levels: u8,
    /// Fine-grained A/D tracking (paper §III-C1): when enabled, a tailored
    /// page's otherwise-unused alias-PTE bits hold a dirty bit vector over
    /// its constituents, capped at 16 bits. Keyed by page base VA.
    fine_grained_ad: bool,
    ad_vectors: HashMap<u64, u16>,
    injector: Option<InjectorHandle>,
    alias_install_retries: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty 4-level page table (root node allocated).
    pub fn new() -> Self {
        Self::with_levels(4)
    }

    /// Creates an empty page table with 4 or 5 levels. Five-level paging
    /// (Intel LA57) adds one radix level — and thus one more memory access
    /// to uncached walks, the growing overhead the paper's introduction
    /// warns about.
    ///
    /// # Panics
    ///
    /// Panics unless `levels` is 4 or 5.
    pub fn with_levels(levels: u8) -> Self {
        assert!(levels == 4 || levels == 5, "only 4- or 5-level paging");
        let mut pt = PageTable {
            nodes: Vec::new(),
            live_nodes: 0,
            root: PhysAddr::new(PT_POOL_BASE),
            levels,
            fine_grained_ad: false,
            ad_vectors: HashMap::new(),
            injector: None,
            alias_install_retries: 0,
        };
        let root = pt.alloc_node();
        pt.root = root;
        pt
    }

    /// Number of radix levels (4 or 5).
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Enables fine-grained dirty tracking for tailored pages (paper
    /// §III-C1): the unused bits of alias PTEs collect a ≤16-bit dirty
    /// vector over the page's constituents, so swapping/writeback need not
    /// treat the whole tailored page as dirty.
    pub fn set_fine_grained_ad(&mut self, enabled: bool) {
        self.fine_grained_ad = enabled;
    }

    /// The dirty bit vector of the tailored page covering `va`, if
    /// fine-grained tracking recorded one. Bit `i` covers the page's
    /// `i`-th sixteenth (or base page, for pages of ≤16 constituents).
    pub fn dirty_vector(&self, va: VirtAddr) -> Option<u16> {
        let leaf = self.lookup(va)?;
        let base = va.align_down(leaf.order.shift());
        self.ad_vectors.get(&base.value()).copied()
    }

    /// Physical address of the root (CR3 equivalent).
    pub fn root(&self) -> PhysAddr {
        self.root
    }

    /// Number of live page-table nodes (each 4 KB).
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Installs (or removes) a fault injector consulted at every alias-PTE
    /// store. A [`FaultSite::AliasInstall`] hit models a dropped store the
    /// mapping path detects and retries, charging one extra PTE write.
    pub fn set_fault_injector(&mut self, injector: Option<InjectorHandle>) {
        self.injector = injector;
    }

    /// How many alias-PTE stores were retried after an injected
    /// [`FaultSite::AliasInstall`] fault (degradation counter).
    pub fn alias_install_retries(&self) -> u64 {
        self.alias_install_retries
    }

    /// Allocates a zeroed node at the next, never-used pool address.
    fn alloc_node(&mut self) -> PhysAddr {
        let pa = PhysAddr::new(PT_POOL_BASE + self.nodes.len() as u64 * BASE_PAGE_SIZE);
        self.nodes.push(Some(Box::new([Pte::EMPTY; PT_ENTRIES])));
        self.live_nodes += 1;
        pa
    }

    /// Arena slot of the node at `node`: `None` below the pool or for an
    /// address that is not 4 KB-aligned.
    fn slot(node: PhysAddr) -> Option<usize> {
        let offset = node.value().checked_sub(PT_POOL_BASE)?;
        if !offset.is_multiple_of(BASE_PAGE_SIZE) {
            return None;
        }
        usize::try_from(offset / BASE_PAGE_SIZE).ok()
    }

    /// The entries of the live node at `node`, if any.
    fn node(&self, node: PhysAddr) -> Option<&[Pte; PT_ENTRIES]> {
        self.nodes.get(Self::slot(node)?)?.as_deref()
    }

    fn node_mut(&mut self, node: PhysAddr) -> Option<&mut [Pte; PT_ENTRIES]> {
        self.nodes.get_mut(Self::slot(node)?)?.as_deref_mut()
    }

    /// Reads the entry at `(node, index)` the way the walker does. A dead
    /// node, an address outside the pool or an out-of-range index reads as
    /// [`Pte::EMPTY`]: the walker sees not-present and faults, the correct
    /// degradation for a stale node reference mid-campaign (a panic here
    /// would corrupt replay state).
    pub fn read_entry(&self, node: PhysAddr, index: usize) -> Pte {
        self.node(node)
            .and_then(|entries| entries.get(index))
            .copied()
            .unwrap_or(Pte::EMPTY)
    }

    /// Writes the entry at `(node, index)`, returning the PTE stores made
    /// (1, or 0 when dropped). A dead node or out-of-range index drops the
    /// store — the paired [`Self::read_entry`] then reads not-present, so
    /// the table stays self-consistent instead of panicking on the fault
    /// path.
    fn write_entry(&mut self, node: PhysAddr, index: usize, pte: Pte) -> u64 {
        match self
            .node_mut(node)
            .and_then(|entries| entries.get_mut(index))
        {
            Some(entry) => {
                *entry = pte;
                1
            }
            None => 0,
        }
    }

    /// Descends from the root to the leaf covering `va`, returning the node
    /// holding it, its slot index, its level and the PTE found there (the
    /// slot may be an alias). `None` if a non-present entry ends the walk.
    fn find_leaf(&self, va: VirtAddr) -> Option<(PhysAddr, usize, u8, Pte)> {
        let mut node = self.root;
        for level in (1..=self.levels).rev() {
            let idx = va.pt_index(level);
            let pte = self.read_entry(node, idx);
            if !pte.is_present() {
                return None;
            }
            if pte.is_leaf(level) {
                return Some((node, idx, level, pte));
            }
            node = pte.next_table();
        }
        None
    }

    /// Ensures intermediate nodes exist down to `target_level`, returning
    /// the node at that level for `va` and the table-entry stores made.
    ///
    /// If an intermediate slot holds a huge/tailored leaf, returns an error:
    /// the caller must unmap first (mapping *under* a huge page is a bug).
    fn descend_to(&mut self, va: VirtAddr, target_level: u8) -> Result<(PhysAddr, u64), TpsError> {
        let mut node = self.root;
        let mut level = self.levels;
        let mut stores = 0;
        while level > target_level {
            let idx = va.pt_index(level);
            let pte = self.read_entry(node, idx);
            if pte.is_present() {
                if pte.is_leaf(level) {
                    return Err(TpsError::RangeOverlap {
                        start: va.align_down(12 + 9 * (level as u32 - 1)).value(),
                        len: 1u64 << (12 + 9 * (level - 1) as u32),
                    });
                }
                node = pte.next_table();
            } else {
                let child = self.alloc_node();
                stores += self.write_entry(node, idx, Pte::table(child));
                node = child;
            }
            level -= 1;
        }
        Ok((node, stores))
    }

    /// Maps a page of the given order at `va -> pa`.
    ///
    /// Writes the true PTE and all alias PTEs for tailored orders. If the
    /// target slots currently hold smaller-page subtrees (the page-promotion
    /// path), those subtrees are replaced and their nodes freed. A larger
    /// tailored leaf at the same level is overwritten in place over just
    /// this page's slots (the page-split path); the caller then maps the
    /// rest of the old leaf's slots.
    ///
    /// Returns the PTE stores made: new intermediate table entries, the
    /// true PTE and every alias PTE, and each retried alias store.
    ///
    /// # Errors
    ///
    /// * [`TpsError::Misaligned`] if `va` or `pa` is not aligned to the
    ///   page size.
    /// * [`TpsError::RangeOverlap`] if a *larger* leaf already covers `va`.
    pub fn map(
        &mut self,
        va: VirtAddr,
        pa: PhysAddr,
        order: PageOrder,
        flags: PteFlags,
    ) -> Result<u64, TpsError> {
        if !va.is_aligned(order.shift()) {
            return Err(TpsError::Misaligned {
                addr: va.value(),
                shift: order.shift(),
            });
        }
        if !pa.is_aligned(order.shift()) {
            return Err(TpsError::Misaligned {
                addr: pa.value(),
                shift: order.shift(),
            });
        }
        let level = level_for_order(order);
        let (node, mut stores) = self.descend_to(va, level)?;
        let rel = order.get() - level_base_order(level);
        let first = va.pt_index(level) & !((1usize << rel) - 1);
        debug_assert_eq!(
            va.pt_index(level),
            first,
            "va aligned implies index aligned"
        );
        self.forget_dirty_vector(va);
        let pte = Pte::leaf(pa, order, flags);
        for i in 0..(1usize << rel) {
            let old = self.read_entry(node, first + i);
            if old.is_present() && !old.is_leaf(level) {
                // Promotion over an existing subtree: reclaim its nodes.
                self.free_subtree(old.next_table(), level - 1);
            }
            if i > 0 && should_fault(&self.injector, FaultSite::AliasInstall) {
                // A dropped alias store (pointer or full-copy policy) is
                // detected and retried; the failed attempt still cost one
                // PTE write.
                self.alias_install_retries += 1;
                stores += self.write_entry(node, first + i, pte);
            }
            stores += self.write_entry(node, first + i, pte);
        }
        Ok(stores)
    }

    /// Drops the dirty vector recorded for the page at `va`. Skips the hash
    /// entirely while fine-grained tracking has recorded nothing.
    fn forget_dirty_vector(&mut self, va: VirtAddr) {
        if !self.ad_vectors.is_empty() {
            self.ad_vectors.remove(&va.value());
        }
    }

    /// Recursively frees the node `node` (at `level`) and its descendants.
    /// The freed slot stays empty: its address is never handed out again.
    fn free_subtree(&mut self, node: PhysAddr, level: u8) {
        let Some(entries) = Self::slot(node)
            .and_then(|slot| self.nodes.get_mut(slot))
            .and_then(Option::take)
        else {
            return;
        };
        self.live_nodes -= 1;
        if level > 1 {
            for pte in entries.iter() {
                if pte.is_present() && !pte.is_leaf(level) {
                    self.free_subtree(pte.next_table(), level - 1);
                }
            }
        }
    }

    /// Unmaps the page of the given order at `va` (all alias PTEs cleared),
    /// returning the PTE stores made.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::Unmapped`] if no leaf of exactly this order is
    /// mapped at `va`, or [`TpsError::Misaligned`] for a misaligned `va`.
    pub fn unmap(&mut self, va: VirtAddr, order: PageOrder) -> Result<u64, TpsError> {
        if !va.is_aligned(order.shift()) {
            return Err(TpsError::Misaligned {
                addr: va.value(),
                shift: order.shift(),
            });
        }
        let unmapped = || TpsError::Unmapped { vaddr: va.value() };
        let (node, idx, level, pte) = self.find_leaf(va).ok_or_else(unmapped)?;
        let leaf = pte.decode_leaf(level).map_err(|_| unmapped())?;
        if leaf.order != order {
            return Err(unmapped());
        }
        let rel = order.get() - level_base_order(level);
        let first = idx & !((1usize << rel) - 1);
        let mut stores = 0;
        for i in 0..(1usize << rel) {
            stores += self.write_entry(node, first + i, Pte::EMPTY);
        }
        self.forget_dirty_vector(va);
        Ok(stores)
    }

    /// Functional (timing-free) lookup: the leaf covering `va`, if mapped.
    pub fn lookup(&self, va: VirtAddr) -> Option<LeafInfo> {
        let (_, _, level, pte) = self.find_leaf(va)?;
        pte.decode_leaf(level).ok()
    }

    /// The leaf covering `from`, or else the first leaf that starts before
    /// `end`, with the address of its true PTE (the page base, which lies
    /// below `from` when `from` is inside the page). `None` if no leaf
    /// meets `[from, end)`.
    ///
    /// Resuming at `base + order.bytes()` lists each tailored page once and
    /// steps over its alias PTEs. A non-present entry skips its whole
    /// subtree at every level, so a hole costs one read per empty entry,
    /// not a descent per 4 KB. A dangling table pointer or an undecodable
    /// leaf reads as a hole: the scan never panics.
    pub fn next_leaf(&self, from: VirtAddr, end: VirtAddr) -> Option<(VirtAddr, LeafInfo)> {
        let mut va = from.value();
        while va < end.value() {
            let mut node = self.root;
            let mut level = self.levels;
            loop {
                let pte = self.read_entry(node, VirtAddr::new(va).pt_index(level));
                if pte.is_present() && !pte.is_leaf(level) {
                    node = pte.next_table();
                    level -= 1;
                    continue;
                }
                if let Ok(leaf) = pte.decode_leaf(level) {
                    return Some((VirtAddr::new(va).align_down(leaf.order.shift()), leaf));
                }
                // Skip the entry's whole span; re-descend from the root
                // once the scan leaves this node.
                let shift = BASE_PAGE_SHIFT + 9 * u32::from(level - 1);
                va = ((va >> shift) + 1) << shift;
                if va >= end.value() || VirtAddr::new(va).pt_index(level) == 0 {
                    break;
                }
            }
        }
        None
    }

    /// Functional translation of `va` to a physical address.
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        let leaf = self.lookup(va)?;
        Some(PhysAddr::new(
            leaf.base.value() + va.page_offset(leaf.order.shift()),
        ))
    }

    /// Sets the `ACCESSED` (and optionally `DIRTY`) bit on the true PTE for
    /// `va`. Returns `true` if any bit actually changed (i.e. hardware would
    /// have performed a memory store).
    pub fn mark_accessed(&mut self, va: VirtAddr, dirty: bool) -> bool {
        let Some((node, idx, level, pte)) = self.find_leaf(va) else {
            return false;
        };
        // A leaf that fails to decode is a corrupt entry; hardware would
        // fault, the model simply performs no store.
        let Ok(leaf) = pte.decode_leaf(level) else {
            return false;
        };
        let mut stored = false;
        if dirty && self.fine_grained_ad && leaf.order.is_tailored() {
            // Record which sixteenth of the page was written.
            let base = va.align_down(leaf.order.shift());
            let off = va.page_offset(leaf.order.shift());
            let bit = ((off * 16) >> leaf.order.shift()).min(15) as u16;
            let vector = self.ad_vectors.entry(base.value()).or_insert(0);
            if *vector & (1 << bit) == 0 {
                *vector |= 1 << bit;
                stored = true;
            }
        }
        // A/D bits live in the *true* PTE (the walker may have landed on an
        // alias slot, but the true PTE is the authority for bookkeeping).
        let rel = leaf.order.get() - level_base_order(level);
        let true_idx = idx & !((1usize << rel) - 1);
        let true_pte = self.read_entry(node, true_idx);
        let mut updated = true_pte.with_accessed();
        if dirty {
            updated = updated.with_dirty();
        }
        if updated != true_pte {
            self.write_entry(node, true_idx, updated);
            return true;
        }
        stored
    }

    /// Counts distinct mapped pages per order (paper Fig. 18). Alias PTEs
    /// are not double-counted: only the true PTE (aligned slot) counts.
    pub fn page_census(&self) -> BTreeMap<PageOrder, u64> {
        let mut census = BTreeMap::new();
        let mut cursor = VirtAddr::ZERO;
        while let Some((va, leaf)) = self.next_leaf(cursor, VirtAddr::new(u64::MAX)) {
            *census.entry(leaf.order).or_insert(0) += 1;
            cursor = va + leaf.order.bytes();
            if cursor <= va {
                break; // the page ends the address space
            }
        }
        census
    }

    /// Total bytes of virtual address space currently mapped.
    pub fn mapped_bytes(&self) -> u64 {
        self.page_census()
            .iter()
            .map(|(order, count)| order.bytes() * count)
            .sum()
    }

    /// Checks the radix tree's structural invariants; used by the
    /// cross-layer auditor in `tps-check` and by tests.
    ///
    /// Verified:
    /// * every table PTE points at a live node, every pooled node is
    ///   reachable from the root, and no node is reachable twice;
    /// * each tailored leaf occupies a full, slot-aligned run of `2^rel`
    ///   identical alias PTEs (the paper's Fig. 5 encoding);
    /// * every leaf's physical base is aligned to its order.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        self.check_node(self.root, self.levels, &mut seen)?;
        if seen.len() != self.live_nodes {
            return Err(format!(
                "{} page-table nodes unreachable from the root",
                self.live_nodes - seen.len()
            ));
        }
        Ok(())
    }

    fn check_node(
        &self,
        node: PhysAddr,
        level: u8,
        seen: &mut std::collections::HashSet<u64>,
    ) -> Result<(), String> {
        if !seen.insert(node.value()) {
            return Err(format!("node {:#x} reachable twice", node.value()));
        }
        let Some(entries) = self.node(node) else {
            return Err(format!("dangling table pointer to {:#x}", node.value()));
        };
        let mut idx = 0usize;
        while idx < PT_ENTRIES {
            let pte = entries[idx];
            if !pte.is_present() {
                idx += 1;
                continue;
            }
            if pte.is_leaf(level) {
                let leaf = pte
                    .decode_leaf(level)
                    .map_err(|e| format!("undecodable leaf at level {level} slot {idx}: {e}"))?;
                let Some(rel) = leaf.order.get().checked_sub(level_base_order(level)) else {
                    return Err(format!(
                        "leaf of order {} below its level-{level} base order",
                        leaf.order.get()
                    ));
                };
                let span = 1usize << rel;
                if !idx.is_multiple_of(span) {
                    return Err(format!(
                        "tailored leaf not slot-aligned at level {level} slot {idx}"
                    ));
                }
                if !leaf.base.is_aligned(leaf.order.shift()) {
                    return Err(format!(
                        "leaf base {:#x} misaligned for order {}",
                        leaf.base.value(),
                        leaf.order.get()
                    ));
                }
                // A/D bits are maintained on the true PTE only, so compare
                // the aliases with those bits masked out.
                let ad = PteFlags::ACCESSED.bits() | PteFlags::DIRTY.bits();
                for j in 0..span {
                    if entries[idx + j].bits() & !ad != pte.bits() & !ad {
                        return Err(format!(
                            "alias PTE {j} differs from true PTE at level {level} slot {idx}"
                        ));
                    }
                }
                idx += span;
                continue;
            }
            if level == 1 {
                return Err(format!("table pointer in a leaf-level node (slot {idx})"));
            }
            self.check_node(pte.next_table(), level - 1, seen)?;
            idx += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::{GIB, MIB};

    fn o(x: u8) -> PageOrder {
        PageOrder::new(x).unwrap()
    }

    fn w() -> PteFlags {
        PteFlags::WRITABLE | PteFlags::USER
    }

    #[test]
    fn map_and_translate_4k() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr::new(BASE_PAGE_SIZE),
            PhysAddr::new(0x5000),
            o(0),
            w(),
        )
        .unwrap();
        assert_eq!(pt.translate(VirtAddr::new(0x1234)).unwrap().value(), 0x5234);
        assert!(pt.translate(VirtAddr::new(0x2000)).is_none());
        assert_eq!(pt.node_count(), 4, "root + 3 intermediate nodes");
    }

    #[test]
    fn map_and_translate_huge_pages() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(GIB), PhysAddr::new(GIB), o(9), w())
            .unwrap();
        pt.map(
            VirtAddr::new(0x8000_0000),
            PhysAddr::new(0x8000_0000),
            o(18),
            w(),
        )
        .unwrap();
        assert_eq!(
            pt.translate(VirtAddr::new(0x4012_3456)).unwrap().value(),
            0x4012_3456
        );
        assert_eq!(
            pt.translate(VirtAddr::new(0xbfff_ffff)).unwrap().value(),
            0xbfff_ffff
        );
    }

    #[test]
    fn tailored_page_aliases_written() {
        let mut pt = PageTable::new();
        // 32 KB page: 8 slots at level 1.
        pt.map(VirtAddr::new(0x10_0000), PhysAddr::new(2 * MIB), o(3), w())
            .unwrap();
        // Every 4K sub-page translates correctly, through alias PTEs.
        for i in 0..8u64 {
            let va = VirtAddr::new(0x10_0000 + i * BASE_PAGE_SIZE + 42);
            assert_eq!(
                pt.translate(va).unwrap().value(),
                2 * MIB + i * BASE_PAGE_SIZE + 42
            );
        }
        assert!(pt.translate(VirtAddr::new(0x10_8000)).is_none());
    }

    #[test]
    fn misaligned_map_rejected() {
        let mut pt = PageTable::new();
        assert!(matches!(
            pt.map(
                VirtAddr::new(BASE_PAGE_SIZE),
                PhysAddr::new(0x8000),
                o(3),
                w()
            ),
            Err(TpsError::Misaligned { .. })
        ));
        assert!(matches!(
            pt.map(
                VirtAddr::new(0x8000),
                PhysAddr::new(BASE_PAGE_SIZE),
                o(3),
                w()
            ),
            Err(TpsError::Misaligned { .. })
        ));
    }

    #[test]
    fn mapping_under_existing_huge_page_rejected() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(GIB), PhysAddr::new(GIB), o(9), w())
            .unwrap();
        assert!(matches!(
            pt.map(VirtAddr::new(0x4000_1000), PhysAddr::new(0x5000), o(0), w()),
            Err(TpsError::RangeOverlap { .. })
        ));
    }

    #[test]
    fn promotion_replaces_smaller_pages() {
        let mut pt = PageTable::new();
        // Map 8 individual 4K pages, then promote to one 32K page.
        for i in 0..8u64 {
            pt.map(
                VirtAddr::new(0x10_0000 + i * BASE_PAGE_SIZE),
                PhysAddr::new(0x30_0000 + i * BASE_PAGE_SIZE),
                o(0),
                w(),
            )
            .unwrap();
        }
        pt.map(
            VirtAddr::new(0x10_0000),
            PhysAddr::new(0x30_0000),
            o(3),
            w(),
        )
        .unwrap();
        let leaf = pt.lookup(VirtAddr::new(0x10_3000)).unwrap();
        assert_eq!(leaf.order, o(3));
        assert_eq!(
            pt.translate(VirtAddr::new(0x10_3abc)).unwrap().value(),
            0x30_3abc
        );
    }

    #[test]
    fn promotion_across_levels_frees_subtree() {
        let mut pt = PageTable::new();
        // Map 4K pages across a 2M region, then promote to a 4M tailored page.
        for i in 0..16u64 {
            pt.map(
                VirtAddr::new(GIB + i * BASE_PAGE_SIZE),
                PhysAddr::new(GIB + i * BASE_PAGE_SIZE),
                o(0),
                w(),
            )
            .unwrap();
        }
        let nodes_before = pt.node_count();
        pt.map(VirtAddr::new(GIB), PhysAddr::new(GIB), o(10), w())
            .unwrap();
        assert!(pt.node_count() < nodes_before, "level-1 node reclaimed");
        let leaf = pt.lookup(VirtAddr::new(0x4020_0000)).unwrap();
        assert_eq!(leaf.order, o(10));
    }

    #[test]
    fn unmap_clears_all_aliases() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x10_0000), PhysAddr::new(2 * MIB), o(3), w())
            .unwrap();
        pt.unmap(VirtAddr::new(0x10_0000), o(3)).unwrap();
        for i in 0..8u64 {
            assert!(pt
                .translate(VirtAddr::new(0x10_0000 + i * BASE_PAGE_SIZE))
                .is_none());
        }
        // Unmapping again fails.
        assert!(pt.unmap(VirtAddr::new(0x10_0000), o(3)).is_err());
    }

    #[test]
    fn unmap_wrong_order_rejected() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x10_0000), PhysAddr::new(2 * MIB), o(3), w())
            .unwrap();
        assert!(pt.unmap(VirtAddr::new(0x10_0000), o(2)).is_err());
    }

    #[test]
    fn accessed_dirty_tracking() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr::new(BASE_PAGE_SIZE),
            PhysAddr::new(0x5000),
            o(0),
            w(),
        )
        .unwrap();
        assert!(
            pt.mark_accessed(VirtAddr::new(0x1234), false),
            "first access stores"
        );
        assert!(
            !pt.mark_accessed(VirtAddr::new(0x1234), false),
            "sticky: no second store"
        );
        assert!(
            pt.mark_accessed(VirtAddr::new(0x1234), true),
            "first write stores dirty"
        );
        assert!(!pt.mark_accessed(VirtAddr::new(0x1234), true));
        assert!(
            !pt.mark_accessed(VirtAddr::new(0x9000), false),
            "unmapped: no store"
        );
    }

    #[test]
    fn census_counts_true_ptes_only() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr::new(0x10_0000), PhysAddr::new(2 * MIB), o(3), w())
            .unwrap(); // 32K
        pt.map(VirtAddr::new(2 * MIB), PhysAddr::new(0x40_0000), o(0), w())
            .unwrap(); // 4K
        pt.map(VirtAddr::new(GIB), PhysAddr::new(GIB), o(9), w())
            .unwrap(); // 2M
        pt.map(
            VirtAddr::new(0x8000_0000),
            PhysAddr::new(0x800_0000),
            o(11),
            w(),
        )
        .unwrap(); // 8M
        let census = pt.page_census();
        assert_eq!(census.get(&o(3)), Some(&1));
        assert_eq!(census.get(&o(0)), Some(&1));
        assert_eq!(census.get(&o(9)), Some(&1));
        assert_eq!(census.get(&o(11)), Some(&1));
        assert_eq!(
            pt.mapped_bytes(),
            (32 << 10) + (4 << 10) + (2 << 20) + (8 << 20)
        );
    }

    #[test]
    fn invariant_checker_accepts_live_tables() {
        let mut pt = PageTable::new();
        pt.check_invariants().unwrap();
        pt.map(VirtAddr::new(0x10_0000), PhysAddr::new(2 * MIB), o(3), w())
            .unwrap();
        pt.map(VirtAddr::new(GIB), PhysAddr::new(GIB), o(9), w())
            .unwrap();
        pt.map(
            VirtAddr::new(0x8000_0000),
            PhysAddr::new(0x800_0000),
            o(11),
            w(),
        )
        .unwrap();
        pt.mark_accessed(VirtAddr::new(0x10_3000), true); // A/D only on true PTE
        pt.check_invariants().unwrap();
        pt.unmap(VirtAddr::new(0x10_0000), o(3)).unwrap();
        pt.check_invariants().unwrap();
    }

    #[test]
    fn pte_write_counter_advances() {
        let mut pt = PageTable::new();
        let stores = pt
            .map(VirtAddr::new(0x10_0000), PhysAddr::new(2 * MIB), o(3), w())
            .unwrap();
        // 3 intermediate entries + 8 leaf slots.
        assert_eq!(stores, 3 + 8);
        // A second page under the same nodes stores only its own slots;
        // unmapping clears every slot.
        let va = VirtAddr::new(0x10_8000);
        assert_eq!(pt.map(va, PhysAddr::new(4 * MIB), o(2), w()).unwrap(), 4);
        assert_eq!(pt.unmap(va, o(2)).unwrap(), 4);
    }

    #[test]
    fn injected_alias_install_fault_retries_the_store() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use tps_core::{FaultPlan, FaultPlanConfig, InjectorHandle};

        let mut pt = PageTable::new();
        let plan = Rc::new(RefCell::new(FaultPlan::new(FaultPlanConfig {
            alias_install: 1.0,
            ..FaultPlanConfig::disabled(21)
        })));
        pt.set_fault_injector(Some(plan.clone() as InjectorHandle));
        let stores = pt
            .map(VirtAddr::new(0x10_0000), PhysAddr::new(2 * MIB), o(3), w())
            .unwrap();
        // Every one of the 7 alias stores faulted once and was retried:
        // 3 intermediate + 8 leaf + 7 retries.
        assert_eq!(pt.alias_install_retries(), 7);
        assert_eq!(stores, 3 + 8 + 7);
        assert_eq!(plan.borrow().injected_at("alias-install"), 7);
        // The mapping is intact: every constituent translates.
        for i in 0..8u64 {
            let va = VirtAddr::new(0x10_0000 + i * BASE_PAGE_SIZE);
            assert_eq!(
                pt.translate(va).unwrap().value(),
                2 * MIB + i * BASE_PAGE_SIZE
            );
        }
        // A plain 4K map has no alias stores and never consults the plan.
        let consults = plan.borrow().consultations();
        pt.map(VirtAddr::new(0x80_0000), PhysAddr::new(0x5000), o(0), w())
            .unwrap();
        assert_eq!(plan.borrow().consultations(), consults);
    }

    #[test]
    fn addresses_outside_the_arena_read_empty_and_drop_writes() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr::new(BASE_PAGE_SIZE),
            PhysAddr::new(0x5000),
            o(0),
            w(),
        )
        .unwrap();
        let root = pt.root();
        assert!(pt.read_entry(root, 0).is_present());
        let below_pool = PhysAddr::new(PT_POOL_BASE - BASE_PAGE_SIZE);
        let misaligned = PhysAddr::new(root.value() + 8);
        let past_end = PhysAddr::new(PT_POOL_BASE + 64 * BASE_PAGE_SIZE);
        for node in [below_pool, misaligned, past_end, PhysAddr::new(0)] {
            assert_eq!(pt.read_entry(node, 0), Pte::EMPTY, "{:#x}", node.value());
        }
        assert_eq!(pt.read_entry(root, PT_ENTRIES), Pte::EMPTY);
        let leaf = Pte::leaf(PhysAddr::new(0x5000), o(0), w());
        for node in [below_pool, misaligned, past_end] {
            assert_eq!(pt.write_entry(node, 0, leaf), 0, "dropped stores count 0");
        }
        assert_eq!(pt.write_entry(root, PT_ENTRIES, leaf), 0);
        pt.check_invariants().unwrap();
    }
}

#[cfg(test)]
mod ad_vector_tests {
    use super::*;
    use tps_core::GIB;

    fn o(x: u8) -> PageOrder {
        PageOrder::new(x).unwrap()
    }

    fn pt_with_64k_page() -> (PageTable, VirtAddr) {
        let mut pt = PageTable::new();
        pt.set_fine_grained_ad(true);
        let va = VirtAddr::new(0x40_0000);
        pt.map(va, PhysAddr::new(0x80_0000), o(4), PteFlags::WRITABLE)
            .unwrap();
        (pt, va)
    }

    #[test]
    fn writes_set_per_sixteenth_bits() {
        let (mut pt, va) = pt_with_64k_page();
        // A 64K page has 16 base pages: one bit each.
        pt.mark_accessed(va, true);
        pt.mark_accessed(VirtAddr::new(va.value() + 0x5000), true);
        pt.mark_accessed(VirtAddr::new(va.value() + 0xf000), true);
        let v = pt.dirty_vector(va).unwrap();
        assert_eq!(v, (1 << 0) | (1 << 5) | (1 << 15));
    }

    #[test]
    fn reads_do_not_set_vector_bits() {
        let (mut pt, va) = pt_with_64k_page();
        pt.mark_accessed(va, false);
        assert!(pt.dirty_vector(va).is_none());
    }

    #[test]
    fn large_pages_cap_at_sixteen_bits() {
        let mut pt = PageTable::new();
        pt.set_fine_grained_ad(true);
        let va = VirtAddr::new(GIB);
        pt.map(va, PhysAddr::new(0x800_0000), o(11), PteFlags::WRITABLE) // 8 MB
            .unwrap();
        // Writing near the end sets bit 15; each bit covers 512 KB.
        pt.mark_accessed(VirtAddr::new(va.value() + (8 << 20) - BASE_PAGE_SIZE), true);
        pt.mark_accessed(VirtAddr::new(va.value() + 100), true);
        assert_eq!(pt.dirty_vector(va).unwrap(), (1 << 15) | 1);
    }

    #[test]
    fn conventional_pages_are_not_tracked() {
        let mut pt = PageTable::new();
        pt.set_fine_grained_ad(true);
        let va = VirtAddr::new(GIB);
        pt.map(va, PhysAddr::new(GIB), PageOrder::P2M, PteFlags::WRITABLE)
            .unwrap();
        pt.mark_accessed(va, true);
        assert!(
            pt.dirty_vector(va).is_none(),
            "2M is conventional: plain D bit"
        );
    }

    #[test]
    fn disabled_by_default_and_cleared_on_remap() {
        let (mut pt, va) = pt_with_64k_page();
        pt.mark_accessed(va, true);
        assert!(pt.dirty_vector(va).is_some());
        // Remap (promotion path) resets the vector.
        pt.map(va, PhysAddr::new(0x80_0000), o(4), PteFlags::WRITABLE)
            .unwrap();
        assert!(pt.dirty_vector(va).is_none());
        // And a fresh table has tracking off.
        let mut plain = PageTable::new();
        plain
            .map(va, PhysAddr::new(0x80_0000), o(4), PteFlags::WRITABLE)
            .unwrap();
        plain.mark_accessed(va, true);
        assert!(plain.dirty_vector(va).is_none());
    }

    #[test]
    fn unmap_clears_vector() {
        let (mut pt, va) = pt_with_64k_page();
        pt.mark_accessed(va, true);
        pt.unmap(va, o(4)).unwrap();
        pt.map(va, PhysAddr::new(0x80_0000), o(4), PteFlags::WRITABLE)
            .unwrap();
        assert!(pt.dirty_vector(va).is_none());
    }
}

#[cfg(test)]
mod five_level_tests {
    use super::*;
    use tps_core::BASE_PAGE_SIZE;

    fn o(x: u8) -> PageOrder {
        PageOrder::new(x).unwrap()
    }

    #[test]
    fn five_level_maps_and_translates() {
        let mut pt = PageTable::with_levels(5);
        assert_eq!(pt.levels(), 5);
        pt.map(
            VirtAddr::new(BASE_PAGE_SIZE),
            PhysAddr::new(0x7000),
            o(0),
            PteFlags::WRITABLE,
        )
        .unwrap();
        assert_eq!(pt.translate(VirtAddr::new(0x1234)).unwrap().value(), 0x7234);
        // One extra node level: root + 4 intermediates.
        assert_eq!(pt.node_count(), 5);
    }

    #[test]
    fn five_level_supports_tailored_pages() {
        let mut pt = PageTable::with_levels(5);
        pt.map(
            VirtAddr::new(0x40_0000),
            PhysAddr::new(0x80_0000),
            o(4),
            PteFlags::WRITABLE,
        )
        .unwrap();
        let leaf = pt.lookup(VirtAddr::new(0x40_f000)).unwrap();
        assert_eq!(leaf.order, o(4));
        assert_eq!(pt.page_census().get(&o(4)), Some(&1));
        pt.unmap(VirtAddr::new(0x40_0000), o(4)).unwrap();
        assert!(pt.translate(VirtAddr::new(0x40_0000)).is_none());
    }

    #[test]
    fn next_leaf_skips_empty_upper_level_entries() {
        let end = VirtAddr::new(u64::MAX);
        for levels in [4, 5] {
            let mut pt = PageTable::with_levels(levels);
            let near = VirtAddr::new(BASE_PAGE_SIZE);
            // Level-4 entry 3, level-3 entry 5: every entry between the two
            // pages at levels 2 to 4 is a hole.
            let far = VirtAddr::new((3 << 39) | (5 << 30) | 0x4000);
            let top = VirtAddr::new(u64::MAX).align_down(BASE_PAGE_SHIFT);
            pt.map(near, PhysAddr::new(0x7000), o(0), PteFlags::WRITABLE)
                .unwrap();
            pt.map(far, PhysAddr::new(0x8000), o(2), PteFlags::WRITABLE)
                .unwrap();
            pt.map(top, PhysAddr::new(0x9000), o(0), PteFlags::WRITABLE)
                .unwrap();
            let found = |from: VirtAddr, end| pt.next_leaf(from, end).map(|(va, l)| (va, l.order));
            assert_eq!(found(near + BASE_PAGE_SIZE, end), Some((far, o(2))));
            // From an alias slot, the page is reported at its true PTE.
            assert_eq!(found(far + 0x2abc, end), Some((far, o(2))));
            assert_eq!(found(near + BASE_PAGE_SIZE, far), None, "starts at end");
            assert_eq!(found(far + 0x4000, end), Some((top, o(0))));
            assert_eq!(found(top, top), None, "empty range");
            // The census reaches the last page of the address space.
            assert_eq!(pt.page_census().values().sum::<u64>(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "only 4- or 5-level")]
    fn rejects_other_level_counts() {
        PageTable::with_levels(3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use tps_core::{GIB, MIB};

    fn o(x: u8) -> PageOrder {
        PageOrder::new(x).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every base page inside a mapped page of any order translates to
        /// the matching offset in the physical block; addresses outside
        /// don't translate.
        #[test]
        fn translation_covers_exactly_the_page(
            order in 0u8..14,
            va_slot in 0u64..64,
            pa_slot in 0u64..64,
            probe in 0u64..(1 << 20),
        ) {
            let ord = o(order);
            let va = VirtAddr::new((0x10_0000_0000 + va_slot * (1 << 26)) & !(ord.bytes() - 1));
            let pa = PhysAddr::new((pa_slot * (1 << 26)) & !(ord.bytes() - 1));
            let mut pt = PageTable::new();
            pt.map(va, pa, ord, PteFlags::WRITABLE).unwrap();
            let inside = VirtAddr::new(va.value() + probe % ord.bytes());
            prop_assert_eq!(
                pt.translate(inside).unwrap().value(),
                pa.value() + probe % ord.bytes()
            );
            let outside = VirtAddr::new(va.value() + ord.bytes() + probe % ord.bytes());
            prop_assert!(pt.translate(outside).is_none());
        }

        /// map → unmap round-trips to an empty translation.
        #[test]
        fn map_unmap_round_trip(order in 0u8..12, slot in 0u64..32) {
            let ord = o(order);
            let va = VirtAddr::new((0x20_0000_0000 + slot * (1 << 25)) & !(ord.bytes() - 1));
            let pa = PhysAddr::new((slot * (1 << 25)) & !(ord.bytes() - 1));
            let mut pt = PageTable::new();
            pt.map(va, pa, ord, PteFlags::WRITABLE).unwrap();
            pt.unmap(va, ord).unwrap();
            prop_assert!(pt.translate(va).is_none());
            prop_assert_eq!(pt.page_census().values().sum::<u64>(), 0);
        }

        /// Over random map / promote / split / unmap sequences on 4- and
        /// 5-level tables, the arena hands out node addresses
        /// `PT_POOL_BASE + k * 4K` with `k` strictly increasing and never
        /// reused, `node_count` tracks the reachable nodes, and a freed node
        /// reads as empty. `next_leaf` lists the same pages as the per-4 KB
        /// `lookup` scan: around every step, over random ranges that start
        /// mid-page or on an alias slot, and over the whole table, whose
        /// holes span whole level-2 to level-4 entries. `page_census`
        /// matches the scan's per-order counts.
        #[test]
        fn arena_never_reuses_node_addresses(
            levels in 4u8..6,
            ops in prop::collection::vec(((0u8..7, 0usize..3), 0u64..1024), 1..48),
            probes in prop::collection::vec(((0usize..3, 0u64..1536), 0u64..1536), 4..8),
        ) {
            let mut pt = PageTable::with_levels(levels);
            let mut live = reachable_nodes(&pt);
            let mut freed = BTreeSet::new();
            let mut next_k = 1;
            for ((kind, region), slot) in ops {
                let va = VirtAddr::new(REGIONS[region] + slot * BASE_PAGE_SIZE);
                let order = match kind {
                    0 => Some(0),
                    1 => Some(3),
                    2 => Some(9),
                    3 => Some(10),
                    4 => Some(18),
                    _ => None,
                };
                match (kind, order.map(o)) {
                    (_, Some(order)) => {
                        let va = va.align_down(order.shift());
                        // Remap the way the OS does: a larger page covering
                        // this one goes first.
                        if let Some(cover) = pt.lookup(va).filter(|l| l.order > order) {
                            pt.unmap(va.align_down(cover.order.shift()), cover.order).unwrap();
                        }
                        let pa = PhysAddr::new(va.value());
                        pt.map(va, pa, order, PteFlags::WRITABLE).unwrap();
                    }
                    (5, None) => {
                        if let Some(leaf) = pt.lookup(va) {
                            let base = va.align_down(leaf.order.shift());
                            pt.unmap(base, leaf.order).unwrap();
                        }
                    }
                    _ => {
                        // Split into halves the way `mprotect` does: in
                        // place within a node, through an unmap across
                        // levels. A 1 GB page stays whole, so every page
                        // starts inside a window.
                        let splits = |l: &LeafInfo| (1..=10).contains(&l.order.get());
                        if let Some(leaf) = pt.lookup(va).filter(splits) {
                            let base = va.align_down(leaf.order.shift());
                            let half = o(leaf.order.get() - 1);
                            if level_for_order(half) != level_for_order(leaf.order) {
                                pt.unmap(base, leaf.order).unwrap();
                            }
                            for k in 0..2 {
                                let off = k * half.bytes();
                                pt.map(base + off, leaf.base + off, half, PteFlags::WRITABLE).unwrap();
                            }
                        }
                    }
                }
                let now = reachable_nodes(&pt);
                for &pa in now.difference(&live) {
                    let offset = pa - PT_POOL_BASE;
                    prop_assert_eq!(offset % BASE_PAGE_SIZE, 0);
                    let k = offset / BASE_PAGE_SIZE;
                    prop_assert!(k >= next_k, "node k={} handed out again", k);
                    next_k = k + 1;
                }
                freed.extend(live.difference(&now).copied());
                prop_assert!(now.is_disjoint(&freed), "a freed node address came back");
                prop_assert_eq!(pt.node_count(), now.len());
                pt.check_invariants().map_err(TestCaseError::fail)?;
                for &pa in &freed {
                    for idx in [0, 1, PT_ENTRIES / 2, PT_ENTRIES - 1] {
                        prop_assert_eq!(pt.read_entry(PhysAddr::new(pa), idx), Pte::EMPTY);
                    }
                }
                live = now;
                let (from, end) = (VirtAddr::new(va.value() - MIB), va + MIB);
                prop_assert_eq!(walk(&pt, from, end), scan(&pt, from, end));
            }
            for &((region, start), len) in &probes {
                // Mid-page and alias-slot starts: a 4 KB-granular start plus
                // a sub-page offset.
                let from = VirtAddr::new(REGIONS[region] + start * BASE_PAGE_SIZE + start % 3 * 1000);
                let end = from + len * BASE_PAGE_SIZE;
                prop_assert_eq!(walk(&pt, from, end), scan(&pt, from, end));
            }
            // Every page starts in a window, so scanning the windows (and
            // the level-2 holes between the first two) lists the table; the
            // walk also crosses the empty level-3 entries at 0 and 2 GB.
            let mut whole = scan(&pt, VirtAddr::new(GIB - 2 * MIB), VirtAddr::new(GIB + 12 * MIB));
            whole.extend(scan(&pt, VirtAddr::new(3 * GIB - 2 * MIB), VirtAddr::new(3 * GIB + 4 * MIB)));
            prop_assert_eq!(walk(&pt, VirtAddr::new(0), VirtAddr::new(u64::MAX)), whole.clone());
            let mut census = BTreeMap::new();
            for (_, leaf) in &whole {
                *census.entry(leaf.order).or_insert(0u64) += 1;
            }
            prop_assert_eq!(pt.page_census(), census);
            prop_assert_eq!(
                pt.mapped_bytes(),
                whole.iter().map(|(_, leaf)| leaf.order.bytes()).sum::<u64>()
            );
        }
    }

    /// Bases of the three 4 MB mapping windows: two in one level-3 entry
    /// with whole level-2 holes between them, and one past an empty
    /// level-3 entry.
    const REGIONS: [u64; 3] = [GIB, GIB + 8 * MIB, 3 * GIB];

    /// The pages `next_leaf` lists over `[from, end)`, resuming after each.
    fn walk(pt: &PageTable, from: VirtAddr, end: VirtAddr) -> Vec<(VirtAddr, LeafInfo)> {
        let mut out = Vec::new();
        let mut cursor = from;
        while let Some((va, leaf)) = pt.next_leaf(cursor, end) {
            out.push((va, leaf));
            let next = va + leaf.order.bytes();
            if next <= cursor {
                break; // no progress: the listing is already wrong
            }
            cursor = next;
        }
        out
    }

    /// The reference `next_leaf` replaced: a `lookup` per 4 KB over
    /// `[from, end)`, stepping over each page found.
    fn scan(pt: &PageTable, from: VirtAddr, end: VirtAddr) -> Vec<(VirtAddr, LeafInfo)> {
        let mut out = Vec::new();
        let mut va = from.align_down(BASE_PAGE_SHIFT);
        while va < end {
            match pt.lookup(va) {
                Some(leaf) => {
                    let base = va.align_down(leaf.order.shift());
                    out.push((base, leaf));
                    va = base + leaf.order.bytes();
                }
                None => va = va + BASE_PAGE_SIZE,
            }
        }
        out
    }

    /// Node addresses reachable from the root, found through `read_entry`.
    fn reachable_nodes(pt: &PageTable) -> BTreeSet<u64> {
        fn visit(pt: &PageTable, node: PhysAddr, level: u8, out: &mut BTreeSet<u64>) {
            out.insert(node.value());
            for idx in 0..PT_ENTRIES {
                let pte = pt.read_entry(node, idx);
                if level > 1 && pte.is_present() && !pte.is_leaf(level) {
                    visit(pt, pte.next_table(), level - 1, out);
                }
            }
        }
        let mut out = BTreeSet::new();
        visit(pt, pt.root(), pt.levels(), &mut out);
        out
    }
}
