//! The hardware page walker, including the alias-PTE extra access.

use crate::mmu_cache::{Asid, MmuCaches};
use crate::table::PageTable;
use tps_core::inject::should_fault;
use tps_core::{level_base_order, FaultSite, InjectorHandle, LeafInfo, PhysAddr, VirtAddr};

/// How alias PTEs of tailored pages behave (paper §III-A1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum AliasPolicy {
    /// Alias PTEs only carry the size; a walk landing on one performs one
    /// extra memory access to the true PTE (the paper's default, Fig. 6).
    #[default]
    Pointer,
    /// Alias PTEs are complete copies of the true PTE: no extra walk
    /// access, but every PTE update must store to all aliases (the paper's
    /// alternative; ablated in the benches).
    FullCopy,
}

/// The page-table accesses of one walk, in order, stored inline.
///
/// A walk performs at most 10 accesses — up to 4 before the single
/// permitted fault-injected restart, 5 LA57 levels after it, and 1
/// alias-PTE extra — so the buffer never spills in practice. The walker
/// used to collect these into a `Vec`, which was the translation fast
/// path's only per-access heap allocation (`hot-path-alloc`); the inline
/// buffer saturates (with a `debug_assert`) instead of growing.
#[derive(Clone, Copy)]
pub struct WalkRefs {
    buf: [PhysAddr; Self::MAX],
    len: u8,
}

impl WalkRefs {
    /// Inline capacity: the 10-access worst case plus headroom.
    pub const MAX: usize = 12;

    /// An empty access list.
    pub fn new() -> Self {
        WalkRefs {
            buf: [PhysAddr::new(0); Self::MAX],
            len: 0,
        }
    }

    /// Appends an access, saturating at [`Self::MAX`]. Saturation would
    /// mean the walker's access bound is wrong, so debug builds assert.
    fn push(&mut self, pa: PhysAddr) {
        debug_assert!(
            (self.len as usize) < Self::MAX,
            "walk exceeded the {}-access bound",
            Self::MAX
        );
        if (self.len as usize) < Self::MAX {
            self.buf[self.len as usize] = pa;
            self.len += 1;
        }
    }
}

impl Default for WalkRefs {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for WalkRefs {
    type Target = [PhysAddr];

    fn deref(&self) -> &[PhysAddr] {
        &self.buf[..self.len as usize]
    }
}

impl std::fmt::Debug for WalkRefs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for WalkRefs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for WalkRefs {}

/// A successful walk.
#[derive(Clone, Debug)]
pub struct WalkOk {
    /// The decoded leaf.
    pub leaf: LeafInfo,
    /// Physical addresses of every page-table access performed, in order.
    pub refs: WalkRefs,
    /// True if the final access landed on an alias PTE and (under
    /// [`AliasPolicy::Pointer`]) an extra access to the true PTE occurred.
    pub alias_extra: bool,
    /// MMU-cache and injected-fault events of the walk.
    pub events: WalkEvents,
}

impl WalkOk {
    /// The physical address `va` translates to.
    pub fn translate(&self, va: VirtAddr) -> PhysAddr {
        PhysAddr::new(self.leaf.base.value() + va.page_offset(self.leaf.order.shift()))
    }
}

/// A walk that found no mapping (page fault).
#[derive(Clone, Debug)]
pub struct WalkFault {
    /// The level whose entry was not present.
    pub level: u8,
    /// Page-table accesses performed before faulting.
    pub refs: WalkRefs,
    /// MMU-cache and injected-fault events of the walk.
    pub events: WalkEvents,
}

/// What a walk did to the translation hardware besides reading the page
/// table, reported with its result so the caller can charge it to the
/// address space that walked.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalkEvents {
    /// The level the walk resumed at after an MMU-cache hit: 1 for a PDE
    /// hit, 2 for a PDPTE hit, 3 for a PML4E hit; `None` on a miss or
    /// without caches.
    pub cache_resume: Option<u8>,
    /// True if an injected [`FaultSite::WalkStep`] fault restarted the
    /// walk from the root.
    pub restarted: bool,
    /// MMU-cache fills dropped by injected [`FaultSite::MmuCacheFill`]
    /// faults.
    pub cache_fill_drops: u32,
}

/// The hardware page-table walker.
///
/// # Example
///
/// ```
/// use tps_core::{PageOrder, PhysAddr, PteFlags, VirtAddr, BASE_PAGE_SIZE};
/// use tps_pt::{AliasPolicy, PageTable, Walker};
///
/// let mut pt = PageTable::new();
/// pt.map(VirtAddr::new(BASE_PAGE_SIZE), PhysAddr::new(0x7000), PageOrder::P4K,
///        PteFlags::WRITABLE).unwrap();
/// let mut walker = Walker::new(AliasPolicy::Pointer);
/// let ok = walker.walk(&pt, VirtAddr::new(0x1abc), None).unwrap();
/// assert_eq!(ok.refs.len(), 4); // full 4-level walk, no MMU caches
/// assert_eq!(ok.translate(VirtAddr::new(0x1abc)).value(), 0x7abc);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Walker {
    alias_policy: AliasPolicy,
    injector: Option<InjectorHandle>,
}

impl Walker {
    /// Creates a walker with the given alias-PTE policy.
    pub fn new(alias_policy: AliasPolicy) -> Self {
        Walker {
            alias_policy,
            injector: None,
        }
    }

    /// The configured alias policy.
    pub fn alias_policy(&self) -> AliasPolicy {
        self.alias_policy
    }

    /// Installs (or removes) a fault injector consulted at every walk
    /// step. A [`FaultSite::WalkStep`] hit models a transient translation
    /// error: the walk restarts from the root, bypassing the MMU caches,
    /// at most once per walk — slower, never incorrect. The walk reports
    /// the restart in [`WalkEvents::restarted`].
    pub fn set_fault_injector(&mut self, injector: Option<InjectorHandle>) {
        self.injector = injector;
    }

    /// Walks the page table for `va`.
    ///
    /// If `caches` is provided, the walk starts from the deepest cached
    /// upper-level entry and newly read non-leaf entries are inserted.
    ///
    /// # Errors
    ///
    /// Returns [`WalkFault`] when an entry on the path is not present.
    pub fn walk(
        &mut self,
        pt: &PageTable,
        va: VirtAddr,
        caches: Option<&mut MmuCaches>,
    ) -> Result<WalkOk, WalkFault> {
        self.walk_for(0, pt, va, caches)
    }

    /// [`Walker::walk`] with an explicit address-space id for the MMU-cache
    /// tags (SMT threads share the caches).
    ///
    /// # Errors
    ///
    /// Returns [`WalkFault`] when an entry on the path is not present.
    pub fn walk_for(
        &mut self,
        asid: Asid,
        pt: &PageTable,
        va: VirtAddr,
        mut caches: Option<&mut MmuCaches>,
    ) -> Result<WalkOk, WalkFault> {
        let mut refs = WalkRefs::new();
        let cached = caches.as_deref_mut().and_then(|c| c.lookup(asid, va));
        let mut events = WalkEvents {
            cache_resume: cached.map(|(lvl, _)| lvl),
            restarted: false,
            cache_fill_drops: 0,
        };
        let (mut level, mut node) = cached.unwrap_or((pt.levels(), pt.root()));
        loop {
            if !events.restarted && should_fault(&self.injector, FaultSite::WalkStep { level }) {
                // Transient step fault: restart from the root, bypassing
                // the MMU caches. At most one restart per walk keeps the
                // walk finite under a pathological (p = 1.0) plan.
                events.restarted = true;
                (level, node) = (pt.levels(), pt.root());
            }
            let idx = va.pt_index(level);
            let entry_pa = PhysAddr::new(node.value() + (idx as u64) * 8);
            refs.push(entry_pa);
            let pte = pt.read_entry(node, idx);
            if !pte.is_present() {
                return Err(WalkFault {
                    level,
                    refs,
                    events,
                });
            }
            if pte.is_leaf(level) {
                // `is_leaf` passed, so decode cannot fail; treat a decode
                // error as a not-present entry rather than panicking.
                let Ok(leaf) = pte.decode_leaf(level) else {
                    return Err(WalkFault {
                        level,
                        refs,
                        events,
                    });
                };
                // Alias detection: the index bits that are really page
                // offset must be zero in the true PTE's slot.
                let rel = leaf.order.get() - level_base_order(level);
                let low = idx & ((1usize << rel) - 1);
                let mut alias_extra = false;
                if low != 0 && self.alias_policy == AliasPolicy::Pointer {
                    alias_extra = true;
                    let true_idx = idx & !((1usize << rel) - 1);
                    refs.push(PhysAddr::new(node.value() + (true_idx as u64) * 8));
                }
                return Ok(WalkOk {
                    leaf,
                    refs,
                    alias_extra,
                    events,
                });
            }
            // Non-leaf: record in the MMU caches and descend.
            let next = pte.next_table();
            if let Some(c) = caches.as_deref_mut() {
                // Only levels 2..=4 have page-structure caches; the extra
                // fifth level is the uncached access LA57 pays for.
                if (2..=4).contains(&level) && c.insert(asid, va, level, next) {
                    events.cache_fill_drops += 1;
                }
            }
            node = next;
            level -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmu_cache::MmuCacheConfig;
    use tps_core::{PageOrder, PteFlags, BASE_PAGE_SIZE, GIB};

    fn o(x: u8) -> PageOrder {
        PageOrder::new(x).unwrap()
    }

    fn mapped_pt() -> PageTable {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr::new(BASE_PAGE_SIZE),
            PhysAddr::new(0x7000),
            o(0),
            PteFlags::WRITABLE,
        )
        .unwrap();
        pt.map(
            VirtAddr::new(GIB),
            PhysAddr::new(GIB),
            o(9),
            PteFlags::WRITABLE,
        )
        .unwrap();
        pt.map(
            VirtAddr::new(0x10_0000),
            PhysAddr::new(0x80_0000),
            o(3),
            PteFlags::WRITABLE,
        )
        .unwrap();
        pt
    }

    #[test]
    fn walk_refs_push_saturates_at_capacity() {
        let mut refs = WalkRefs::new();
        assert!(refs.is_empty());
        for i in 0..WalkRefs::MAX {
            refs.push(PhysAddr::new((i as u64) * 8));
        }
        assert_eq!(refs.len(), WalkRefs::MAX);
        assert_eq!(
            refs[WalkRefs::MAX - 1].value(),
            ((WalkRefs::MAX - 1) * 8) as u64
        );
        // Release-mode saturation: a 13th push is dropped, not UB. (Debug
        // builds assert instead — construct past the bound only here.)
        if cfg!(not(debug_assertions)) {
            refs.push(PhysAddr::new(0xdead));
            assert_eq!(refs.len(), WalkRefs::MAX);
        }
        // Equality and Debug go through the live prefix.
        let other = refs;
        assert_eq!(refs, other);
        assert!(format!("{refs:?}").starts_with('['));
    }

    #[test]
    fn full_walk_is_four_accesses() {
        let pt = mapped_pt();
        let ok = Walker::default()
            .walk(&pt, VirtAddr::new(0x1123), None)
            .unwrap();
        assert_eq!(ok.refs.len(), 4);
        assert_eq!(ok.leaf.order, o(0));
    }

    #[test]
    fn huge_page_walk_is_shorter() {
        let pt = mapped_pt();
        let ok = Walker::default()
            .walk(&pt, VirtAddr::new(0x4012_3456), None)
            .unwrap();
        assert_eq!(ok.refs.len(), 3, "2M leaf found at level 2");
        assert_eq!(
            ok.translate(VirtAddr::new(0x4012_3456)).value(),
            0x4012_3456
        );
    }

    #[test]
    fn alias_pte_costs_one_extra_access() {
        let pt = mapped_pt();
        let mut w = Walker::new(AliasPolicy::Pointer);
        // First 4K slot of the 32K page: true PTE, no extra access.
        let ok = w.walk(&pt, VirtAddr::new(0x10_0abc), None).unwrap();
        assert!(!ok.alias_extra);
        assert_eq!(ok.refs.len(), 4);
        // Interior slot: alias PTE, one extra access.
        let ok = w.walk(&pt, VirtAddr::new(0x10_5abc), None).unwrap();
        assert!(ok.alias_extra);
        assert_eq!(ok.refs.len(), 5);
        assert_eq!(ok.translate(VirtAddr::new(0x10_5abc)).value(), 0x80_5abc);
        // The extra access targets the true PTE's slot (5 slots earlier).
        let last = ok.refs[4].value();
        let alias = ok.refs[3].value();
        assert_eq!(alias - last, 5 * 8);
    }

    #[test]
    fn full_copy_policy_has_no_extra_access() {
        let pt = mapped_pt();
        let mut w = Walker::new(AliasPolicy::FullCopy);
        let ok = w.walk(&pt, VirtAddr::new(0x10_5abc), None).unwrap();
        assert!(!ok.alias_extra);
        assert_eq!(ok.refs.len(), 4);
    }

    #[test]
    fn fault_reports_level_and_refs() {
        let pt = mapped_pt();
        let err = Walker::default()
            .walk(&pt, VirtAddr::new(0x9999_0000_0000), None)
            .unwrap_err();
        assert_eq!(err.level, 4);
        assert_eq!(err.refs.len(), 1);
        // Fault below the root: same 2M region as a mapped page but a
        // different 4K slot.
        let err = Walker::default()
            .walk(&pt, VirtAddr::new(0x3000), None)
            .unwrap_err();
        assert_eq!(err.level, 1);
        assert_eq!(err.refs.len(), 4);
    }

    #[test]
    fn mmu_caches_shorten_repeat_walks() {
        let pt = mapped_pt();
        let mut caches = MmuCaches::new(MmuCacheConfig::default());
        let mut w = Walker::default();
        let first = w
            .walk(&pt, VirtAddr::new(0x1123), Some(&mut caches))
            .unwrap();
        assert_eq!(first.refs.len(), 4);
        let second = w
            .walk(&pt, VirtAddr::new(0x1456), Some(&mut caches))
            .unwrap();
        assert_eq!(
            second.refs.len(),
            1,
            "PDE cache hit leaves only the leaf access"
        );
        // The 2M page at 1 GB shares only the PML4 region: PML4E cache hit,
        // then the level-3 entry and the level-2 leaf are read.
        let third = w
            .walk(&pt, VirtAddr::new(0x4000_0123), Some(&mut caches))
            .unwrap();
        assert_eq!(third.refs.len(), 2, "PML4E cache hit, leaf at level 2");
        // A second access to the same 2M page hits the PDPTE cache.
        let fourth = w
            .walk(&pt, VirtAddr::new(0x4000_0456), Some(&mut caches))
            .unwrap();
        assert_eq!(fourth.refs.len(), 1, "PDPTE cache hit, leaf at level 2");
    }

    #[test]
    fn cached_walk_translates_identically() {
        let pt = mapped_pt();
        let mut caches = MmuCaches::default();
        let mut w = Walker::default();
        let va = VirtAddr::new(0x10_6eef);
        let cold = w.walk(&pt, va, None).unwrap();
        let warm = w.walk(&pt, va, Some(&mut caches)).unwrap();
        let hot = w.walk(&pt, va, Some(&mut caches)).unwrap();
        assert_eq!(cold.translate(va), warm.translate(va));
        assert_eq!(warm.translate(va), hot.translate(va));
        assert!(hot.refs.len() < warm.refs.len());
    }

    #[test]
    fn five_level_walk_costs_one_more_access() {
        let mut pt = PageTable::with_levels(5);
        pt.map(
            VirtAddr::new(BASE_PAGE_SIZE),
            PhysAddr::new(0x7000),
            o(0),
            PteFlags::WRITABLE,
        )
        .unwrap();
        let ok = Walker::default()
            .walk(&pt, VirtAddr::new(0x1123), None)
            .unwrap();
        assert_eq!(ok.refs.len(), 5, "LA57 full walk");
        // With warm MMU caches the extra level is skipped along with the
        // other upper levels.
        let mut caches = MmuCaches::default();
        Walker::default()
            .walk(&pt, VirtAddr::new(0x1123), Some(&mut caches))
            .unwrap();
        let warm = Walker::default()
            .walk(&pt, VirtAddr::new(0x1456), Some(&mut caches))
            .unwrap();
        assert_eq!(warm.refs.len(), 1);
    }

    #[test]
    fn walker_agrees_with_functional_lookup() {
        let pt = mapped_pt();
        let mut w = Walker::default();
        for raw in [0x1001u64, 0x10_0000, 0x10_7fff, GIB, 0x401f_ffff] {
            let va = VirtAddr::new(raw);
            let ok = w.walk(&pt, va, None).unwrap();
            assert_eq!(Some(ok.translate(va)), pt.translate(va), "va {va}");
        }
    }

    #[test]
    fn injected_step_fault_restarts_once_and_translates_correctly() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use tps_core::{FaultPlan, FaultPlanConfig, InjectorHandle};

        let pt = mapped_pt();
        let mut w = Walker::default();
        let plan = Rc::new(RefCell::new(FaultPlan::new(FaultPlanConfig {
            walk_step: 1.0,
            ..FaultPlanConfig::disabled(3)
        })));
        w.set_fault_injector(Some(plan.clone() as InjectorHandle));
        let va = VirtAddr::new(0x1123);
        let ok = w.walk(&pt, va, None).unwrap();
        // One restart: the first step faulted, the rerun's four accesses
        // follow the aborted attempt's zero accesses.
        assert!(ok.events.restarted);
        assert_eq!(ok.refs.len(), 4);
        assert_eq!(Some(ok.translate(va)), pt.translate(va));
        assert_eq!(plan.borrow().injected_at("walk-step"), 1);
        // Warm caches are bypassed on restart: a faulted cached walk still
        // translates identically.
        let mut caches = MmuCaches::default();
        let warm = w.walk(&pt, va, Some(&mut caches)).unwrap();
        assert_eq!(Some(warm.translate(va)), pt.translate(va));
        assert!(warm.events.restarted);
    }

    #[test]
    fn walks_report_their_mmu_cache_resume_level() {
        let pt = mapped_pt();
        let mut caches = MmuCaches::default();
        let mut w = Walker::default();
        let cold = w
            .walk(&pt, VirtAddr::new(0x1123), Some(&mut caches))
            .unwrap();
        assert_eq!(cold.events, WalkEvents::default(), "cold walk: no hit");
        let pde = w
            .walk(&pt, VirtAddr::new(0x1456), Some(&mut caches))
            .unwrap();
        assert_eq!(pde.events.cache_resume, Some(1), "PDE hit");
        let pml4e = w
            .walk(&pt, VirtAddr::new(0x4000_0123), Some(&mut caches))
            .unwrap();
        assert_eq!(pml4e.events.cache_resume, Some(3), "PML4E hit");
        let fault = w
            .walk(&pt, VirtAddr::new(0x3000), Some(&mut caches))
            .unwrap_err();
        assert_eq!(
            fault.events.cache_resume,
            Some(1),
            "faulting walks report too"
        );
    }
}
