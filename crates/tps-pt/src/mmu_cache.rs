//! MMU caches (page-structure caches).
//!
//! Commercial MMUs cache recently used entries from the *upper* levels of
//! the page-table tree so a walk can skip one or more memory accesses
//! (paper §II-A). We model one small fully-associative LRU cache per
//! non-leaf level, tagged by the virtual-address prefix that selects the
//! entry:
//!
//! * **PML4E cache** (level 4 entries): tag `VA[47:39]` → level-3 node.
//! * **PDPTE cache** (level 3 entries): tag `VA[47:30]` → level-2 node.
//! * **PDE cache** (level 2 entries): tag `VA[47:21]` → level-1 node.
//!
//! A hit in the PDE cache leaves only the leaf access to perform.

use tps_core::inject::should_fault;
use tps_core::lru::LruCache;
use tps_core::{FaultSite, InjectorHandle, PhysAddr, VirtAddr};

/// Address-space id distinguishing processes sharing the MMU caches (SMT).
pub type Asid = u16;

/// Sizes of the three page-structure caches.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MmuCacheConfig {
    /// Entries caching level-4 (PML4) entries.
    pub pml4e_entries: usize,
    /// Entries caching level-3 (PDPT) entries.
    pub pdpte_entries: usize,
    /// Entries caching level-2 (PD) entries.
    pub pde_entries: usize,
}

impl Default for MmuCacheConfig {
    /// Sizes in the spirit of recent Intel parts.
    fn default() -> Self {
        MmuCacheConfig {
            pml4e_entries: 4,
            pdpte_entries: 8,
            pde_entries: 32,
        }
    }
}

/// The per-level MMU caches. Hits and dropped fills are reported through
/// return values, so the walker can charge them to the walking ASID.
#[derive(Clone, Debug)]
pub struct MmuCaches {
    /// caches[0] = PDE (level 2), caches[1] = PDPTE (level 3),
    /// caches[2] = PML4E (level 4). Value = node of the next-lower level.
    caches: [LruCache<(Asid, u64), PhysAddr>; 3],
    injector: Option<InjectorHandle>,
}

impl Default for MmuCaches {
    fn default() -> Self {
        Self::new(MmuCacheConfig::default())
    }
}

impl MmuCaches {
    /// Creates MMU caches with the given sizes.
    pub fn new(config: MmuCacheConfig) -> Self {
        MmuCaches {
            caches: [
                LruCache::new(config.pde_entries),
                LruCache::new(config.pdpte_entries),
                LruCache::new(config.pml4e_entries),
            ],
            injector: None,
        }
    }

    /// Installs (or removes) a fault injector consulted at every fill. A
    /// [`FaultSite::MmuCacheFill`] hit drops the insertion: later walks
    /// miss and re-reference the page table — slower, never incorrect.
    pub fn set_fault_injector(&mut self, injector: Option<InjectorHandle>) {
        self.injector = injector;
    }

    fn tag(asid: Asid, va: VirtAddr, level: u8) -> (Asid, u64) {
        // The prefix that selects the level-`level` entry: everything above
        // the bits translated below that entry.
        (asid, va.value() >> (12 + 9 * (level as u32 - 1)))
    }

    /// Finds the deepest cached pointer for `va`.
    ///
    /// Returns `(resume_level, node)`: the walk should next read the entry
    /// at `resume_level` inside `node`. With no hit the caller resumes at
    /// the root.
    pub fn lookup(&mut self, asid: Asid, va: VirtAddr) -> Option<(u8, PhysAddr)> {
        // Deepest first: PDE (level-2 entries) lets us skip 3 accesses.
        for (slot, level) in [(0usize, 2u8), (1, 3), (2, 4)] {
            if let Some(&node) = self.caches[slot].get(&Self::tag(asid, va, level)) {
                // A cached level-L entry points at the level L-1 node.
                return Some((level - 1, node));
            }
        }
        None
    }

    /// Records the non-leaf entry read at `level` for `va`, whose content
    /// points to `next_node`.
    ///
    /// Levels outside 2..=4 are ignored (leaf levels are cached by TLBs,
    /// not MMU caches). Returns `true` when an injected
    /// [`FaultSite::MmuCacheFill`] fault dropped the fill.
    pub fn insert(&mut self, asid: Asid, va: VirtAddr, level: u8, next_node: PhysAddr) -> bool {
        let slot = match level {
            2 => 0,
            3 => 1,
            4 => 2,
            other => {
                debug_assert!(
                    false,
                    "MMU caches hold only level 2..=4 entries, not {other}"
                );
                return false;
            }
        };
        if should_fault(&self.injector, FaultSite::MmuCacheFill) {
            return true;
        }
        self.caches[slot].insert(Self::tag(asid, va, level), next_node);
        false
    }

    /// Flushes everything (TLB shootdown / CR3 write).
    pub fn invalidate_all(&mut self) {
        for c in &mut self.caches {
            c.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::{BASE_PAGE_SIZE, MIB};

    #[test]
    fn miss_then_hit_at_deepest_level() {
        let mut c = MmuCaches::default();
        let va = VirtAddr::new(0x12_3456_7000);
        assert!(c.lookup(0, va).is_none());
        c.insert(0, va, 4, PhysAddr::new(BASE_PAGE_SIZE));
        c.insert(0, va, 3, PhysAddr::new(0x2000));
        c.insert(0, va, 2, PhysAddr::new(0x3000));
        // Deepest wins: resume at level 1 with the PDE-cached node.
        assert_eq!(c.lookup(0, va), Some((1, PhysAddr::new(0x3000))));
        // A different ASID with the same VA prefix misses.
        assert!(c.lookup(1, va).is_none());
    }

    #[test]
    fn falls_back_to_shallower_levels() {
        let mut c = MmuCaches::default();
        let va = VirtAddr::new(0x12_3456_7000);
        c.insert(0, va, 4, PhysAddr::new(BASE_PAGE_SIZE));
        // Same PML4 region, different PDPT/PD region: only level 4 applies.
        let va2 = VirtAddr::new(0x12_0000_0000);
        assert_eq!(
            MmuCaches::tag(0, va, 4),
            MmuCaches::tag(0, va2, 4),
            "both in the same 512G region"
        );
        assert_eq!(c.lookup(0, va2), Some((3, PhysAddr::new(BASE_PAGE_SIZE))));
    }

    #[test]
    fn different_regions_do_not_alias() {
        let mut c = MmuCaches::default();
        c.insert(0, VirtAddr::new(0), 2, PhysAddr::new(0x3000));
        assert!(c.lookup(0, VirtAddr::new(2 << 21)).is_none());
        assert!(
            c.lookup(0, VirtAddr::new(0x1fffff)).is_some(),
            "same 2M region hits"
        );
    }

    #[test]
    fn capacity_eviction() {
        let mut c = MmuCaches::new(MmuCacheConfig {
            pml4e_entries: 1,
            pdpte_entries: 1,
            pde_entries: 2,
        });
        c.insert(0, VirtAddr::new(0), 2, PhysAddr::new(BASE_PAGE_SIZE));
        c.insert(0, VirtAddr::new(2 * MIB), 2, PhysAddr::new(0x2000));
        c.insert(0, VirtAddr::new(2 << 21), 2, PhysAddr::new(0x3000));
        assert!(
            c.lookup(0, VirtAddr::new(0)).is_none(),
            "oldest PDE evicted"
        );
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = MmuCaches::default();
        c.insert(0, VirtAddr::new(0), 2, PhysAddr::new(BASE_PAGE_SIZE));
        c.invalidate_all();
        assert!(c.lookup(0, VirtAddr::new(0)).is_none());
    }

    #[test]
    fn injected_fill_fault_drops_the_insert() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use tps_core::{FaultPlan, FaultPlanConfig, InjectorHandle};

        let mut c = MmuCaches::default();
        let plan = Rc::new(RefCell::new(FaultPlan::new(FaultPlanConfig {
            mmu_cache_fill: 1.0,
            ..FaultPlanConfig::disabled(11)
        })));
        c.set_fault_injector(Some(plan.clone() as InjectorHandle));
        assert!(
            c.insert(0, VirtAddr::new(0), 2, PhysAddr::new(BASE_PAGE_SIZE)),
            "the fill reports its drop"
        );
        assert!(c.lookup(0, VirtAddr::new(0)).is_none(), "fill was dropped");
        assert_eq!(plan.borrow().injected_at("mmu-cache-fill"), 1);
        // Removing the injector restores normal fills.
        c.set_fault_injector(None);
        assert!(!c.insert(0, VirtAddr::new(0), 2, PhysAddr::new(BASE_PAGE_SIZE)));
        assert!(c.lookup(0, VirtAddr::new(0)).is_some());
    }
}
