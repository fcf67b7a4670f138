//! The TLB entry type shared by every TLB structure.

pub use tps_core::lru::Asid;
use tps_core::lru::CachedSpan;
use tps_core::{LeafInfo, PageOrder, PteFlags, VirtAddr};

/// One cached virtual-to-physical translation.
///
/// `vpn`/`pfn` are base-page numbers of the *page start* (so they are
/// aligned to `1 << order`). The paper's any-size TLB stores a *page mask*
/// per entry (Fig. 7); [`TlbEntry::covers`] performs exactly that
/// mask-then-compare.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TlbEntry {
    /// Address space the entry belongs to.
    pub asid: Asid,
    /// Base-page VPN of the page start.
    pub vpn: u64,
    /// Page order (the mask field: `order` low VPN bits are offset).
    pub order: PageOrder,
    /// Base-page PFN of the page start.
    pub pfn: u64,
    /// Cached writable permission.
    pub writable: bool,
}

impl TlbEntry {
    /// Builds an entry from a decoded leaf PTE and the accessed address.
    pub fn from_leaf(asid: Asid, va: VirtAddr, leaf: &LeafInfo) -> Self {
        let page_va = va.align_down(leaf.order.shift());
        TlbEntry {
            asid,
            vpn: page_va.base_page_number(),
            order: leaf.order,
            pfn: leaf.base.base_page_number(),
            writable: leaf.flags.contains(PteFlags::WRITABLE),
        }
    }

    /// True if this entry translates `(asid, vpn)` — the hardware's
    /// mask-then-compare (one extra gate delay in the paper's design).
    #[inline]
    pub fn covers(&self, asid: Asid, vpn: u64) -> bool {
        self.asid == asid && (vpn >> self.order.get()) == (self.vpn >> self.order.get())
    }

    /// Translates a covered VPN to its PFN.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the VPN is covered.
    #[inline]
    pub fn translate(&self, vpn: u64) -> u64 {
        debug_assert!((vpn >> self.order.get()) == (self.vpn >> self.order.get()));
        self.pfn + (vpn - self.vpn)
    }
}

impl CachedSpan for TlbEntry {
    fn asid(&self) -> Asid {
        self.asid
    }

    fn span(&self) -> (u64, u64) {
        (self.vpn, self.vpn + self.order.base_pages())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::{PhysAddr, PteFlags};

    fn entry(order: u8, vpn: u64, pfn: u64) -> TlbEntry {
        TlbEntry {
            asid: 0,
            vpn,
            order: PageOrder::new(order).unwrap(),
            pfn,
            writable: true,
        }
    }

    #[test]
    fn covers_respects_mask() {
        let e = entry(3, 0x100, 0x900); // 32K page: 8 base pages
        assert!(e.covers(0, 0x100));
        assert!(e.covers(0, 0x107));
        assert!(!e.covers(0, 0x108));
        assert!(!e.covers(0, 0xff));
        assert!(!e.covers(1, 0x100), "other ASID never hits");
    }

    #[test]
    fn translate_offsets_within_page() {
        let e = entry(3, 0x100, 0x900);
        assert_eq!(e.translate(0x100), 0x900);
        assert_eq!(e.translate(0x105), 0x905);
    }

    #[test]
    fn from_leaf_aligns_to_page_start() {
        let leaf = LeafInfo {
            base: PhysAddr::new(0x40_0000),
            order: PageOrder::new(4).unwrap(), // 64K
            flags: PteFlags::PRESENT | PteFlags::WRITABLE,
        };
        let e = TlbEntry::from_leaf(7, VirtAddr::new(0x12_3456), &leaf);
        assert_eq!(e.vpn, 0x12_0000 >> 12);
        assert_eq!(e.pfn, 0x40_0000 >> 12);
        assert_eq!(e.asid, 7);
        assert!(e.writable);
        assert!(e.covers(7, 0x12_f000 >> 12));
    }
}
