//! Two-dimensional (virtualized) page-walk amplification (paper Fig. 2).
//!
//! Under hardware virtualization every *guest* page-table access is itself
//! a guest-physical address that must be translated through the *host*
//! (nested) page table — turning a 4-access native walk into up to 24
//! accesses. We model a real host page table mapping guest-physical memory
//! (2 MB host pages, as hypervisors use) with its own MMU caches, and
//! translate each guest walk reference through it.

use tps_core::{PageOrder, PhysAddr, PteFlags, VirtAddr, GIB};
use tps_pt::{MmuCaches, PageTable, Walker, PT_POOL_BASE};

/// The host (nested) translation stage.
#[derive(Clone, Debug)]
pub struct NestedWalkModel {
    host_pt: PageTable,
    host_caches: MmuCaches,
    walker: Walker,
}

/// Guest page-table pool window the host maps (1 GB of node frames —
/// far more nodes than any simulated process allocates).
const PT_POOL_WINDOW: u64 = GIB;

impl NestedWalkModel {
    /// Builds a host page table covering `guest_memory_bytes` of
    /// guest-physical space plus the guest's page-table node pool, using
    /// 2 MB host pages (identity-mapped; the offset is irrelevant to
    /// reference counting).
    ///
    /// # Panics
    ///
    /// Panics if `guest_memory_bytes` is zero.
    pub fn new(guest_memory_bytes: u64) -> Self {
        assert!(guest_memory_bytes > 0);
        let mut host_pt = PageTable::new();
        let two_m = PageOrder::P2M;
        let mut addr = 0u64;
        let end = guest_memory_bytes.next_multiple_of(two_m.bytes());
        while addr < end {
            host_pt
                .map(
                    VirtAddr::new(addr),
                    PhysAddr::new(addr),
                    two_m,
                    PteFlags::WRITABLE,
                )
                .expect("aligned identity mapping");
            addr += two_m.bytes();
        }
        let mut addr = PT_POOL_BASE;
        while addr < PT_POOL_BASE + PT_POOL_WINDOW {
            host_pt
                .map(
                    VirtAddr::new(addr),
                    PhysAddr::new(addr & ((1 << 40) - 1)),
                    two_m,
                    PteFlags::WRITABLE,
                )
                .expect("aligned identity mapping");
            addr += two_m.bytes();
        }
        NestedWalkModel {
            host_pt,
            host_caches: MmuCaches::default(),
            walker: Walker::default(),
        }
    }

    /// Translates one guest page-table access through the host tables,
    /// returning the number of *host* memory references it cost.
    ///
    /// # Panics
    ///
    /// Panics if the guest physical address falls outside the modeled
    /// guest-physical space (a simulator bug).
    pub fn nested_refs(&mut self, guest_pa: PhysAddr) -> u64 {
        let ok = self
            .walker
            .walk_for(
                0,
                &self.host_pt,
                VirtAddr::new(guest_pa.value()),
                Some(&mut self.host_caches),
            )
            .expect("host maps all guest-physical memory");
        ok.refs.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::BASE_PAGE_SIZE;

    #[test]
    fn cold_nested_translation_costs_a_full_walk() {
        let mut n = NestedWalkModel::new(64 << 20);
        let cost = n.nested_refs(PhysAddr::new(0x12_3456));
        assert_eq!(cost, 3, "PML4 + PDPT + 2M leaf at level 2");
    }

    #[test]
    fn warm_nested_translations_are_cheap() {
        let mut n = NestedWalkModel::new(64 << 20);
        n.nested_refs(PhysAddr::new(BASE_PAGE_SIZE));
        let warm = n.nested_refs(PhysAddr::new(0x2000));
        assert_eq!(warm, 1, "PDPTE cache hit leaves only the leaf access");
    }

    #[test]
    fn pt_pool_addresses_are_translatable() {
        let mut n = NestedWalkModel::new(16 << 20);
        let cost = n.nested_refs(PhysAddr::new(PT_POOL_BASE + 0x5028));
        assert!(cost >= 1);
    }

    #[test]
    #[should_panic(expected = "host maps all guest-physical")]
    fn out_of_range_guest_pa_panics() {
        let mut n = NestedWalkModel::new(16 << 20);
        n.nested_refs(PhysAddr::new(32 << 20));
    }
}
