//! Fork and copy-on-write (paper §III-C3).
//!
//! With larger pages, CoW sharing opportunities shrink and write faults
//! get more expensive. The paper describes two options on a write to a
//! shared large page: copy the *whole* range (costly, preserves TLB
//! reach) or copy only the written part as a *smaller* page and keep
//! sharing the rest (cheap, fragments the mapping). Both are implemented
//! here; the ablation benches compare them.
//!
//! Sharing is counted per base page, whatever page sizes map it, so one
//! process may map a frame as part of a 64 KB page while another maps it
//! as 4 KB pages. Shrinking a shared page is one `PageTable::split`.

use std::collections::BTreeMap;
use tps_core::{InvariantLayer, LeafInfo, PageOrder, TpsError};

/// What the CoW write-fault handler copies on a fault to a shared page.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum CowPolicy {
    /// Copy the entire shared page, whatever its size: expensive copies,
    /// but the mapping keeps its large-page TLB reach.
    #[default]
    CopyWholePage,
    /// Copy only the faulting base page: the large page is split into
    /// base pages over the same frames, the written one is copied, and the
    /// rest keep sharing. A written base page that no one else maps any
    /// more regains write permission without a copy.
    CopySmallest,
}

/// How many leaves map each base page that a `fork` ever shared, keyed by
/// frame number.
///
/// A base page is tracked from the fork that shares it until its last
/// mapper unmaps it, so a frame that a copy-on-write left to a single
/// process that does not own its block stays visible. Untracked pages
/// count 1: only their owner maps them.
#[derive(Clone, Debug, Default)]
pub struct FrameShares {
    counts: BTreeMap<u64, u32>,
}

impl FrameShares {
    /// Registers one more mapper of every base page of the leaf at `pfn`.
    pub fn share(&mut self, pfn: u64, order: PageOrder) {
        for page in pfn..pfn + order.base_pages() {
            *self.counts.entry(page).or_insert(1) += 1;
        }
    }

    /// The sharer count of the leaf at `pfn`: the largest count among its
    /// base pages (1 if none is tracked).
    pub fn count(&self, pfn: u64, order: PageOrder) -> u32 {
        self.pages(pfn, order).map(|(_, c)| c).max().unwrap_or(1)
    }

    /// True if another leaf maps one of `leaf`'s base pages too.
    pub fn shared(&self, leaf: &LeafInfo) -> bool {
        self.count(leaf.base.base_page_number(), leaf.order) > 1
    }

    /// The tracked base pages of the leaf at `pfn`, with their counts.
    pub fn pages(&self, pfn: u64, order: PageOrder) -> impl Iterator<Item = (u64, u32)> + '_ {
        let pages = self.counts.range(pfn..pfn + order.base_pages());
        pages.map(|(&pfn, &c)| (pfn, c))
    }

    /// [`Self::forget`] for a leaf whose mapper copied it away.
    ///
    /// # Errors
    ///
    /// A [`TpsError::InvariantViolation`], with nothing changed, if no base
    /// page of the leaf was shared.
    pub fn release(&mut self, pfn: u64, order: PageOrder) -> Result<(), TpsError> {
        if self.count(pfn, order) <= 1 {
            return Err(TpsError::invariant(
                InvariantLayer::Os,
                format!("releasing frame {pfn:#x} (order {order}) that was never shared"),
            ));
        }
        self.forget(pfn, order);
        Ok(())
    }

    /// Drops one mapper of every tracked base page of the leaf at `pfn`,
    /// untracking pages no one maps any more.
    pub fn forget(&mut self, pfn: u64, order: PageOrder) {
        let mut unmapped = Vec::new();
        for (&page, c) in self.counts.range_mut(pfn..pfn + order.base_pages()) {
            *c -= 1;
            if *c == 0 {
                unmapped.push(page);
            }
        }
        for page in unmapped {
            self.counts.remove(&page);
        }
    }

    /// Every tracked base page with its mapper count, by frame number.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.counts.iter().map(|(&pfn, &c)| (pfn, c))
    }

    /// True if no base page is tracked.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(x: u8) -> PageOrder {
        PageOrder::new(x).unwrap()
    }

    #[test]
    fn share_and_release() {
        let mut s = FrameShares::default();
        assert_eq!(s.count(100, o(0)), 1);
        s.share(100, o(0));
        assert_eq!(s.count(100, o(0)), 2);
        s.share(100, o(0));
        assert_eq!(s.count(100, o(0)), 3);
        s.release(100, o(0)).unwrap();
        assert_eq!(s.count(100, o(0)), 2);
        s.release(100, o(0)).unwrap();
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            [(100, 1)],
            "last mapper tracked"
        );
        s.forget(100, o(0));
        assert!(s.is_empty(), "unmapped by its last mapper");
        assert_eq!(s.count(100, o(0)), 1);
    }

    #[test]
    fn counts_are_per_base_page_whatever_the_leaf_size() {
        let mut s = FrameShares::default();
        s.share(64, o(3)); // a shared 32K page at pfn 64
        assert_eq!(s.iter().count(), 8);
        for i in 0..8 {
            assert_eq!(s.count(64 + i, o(0)), 2, "base page {i}");
        }
        assert_eq!(s.count(0, o(7)), 2, "a larger leaf over it");
        assert_eq!(s.count(72, o(3)), 1, "the next 32K");
        // One mapper copies base page 5 away: the 32K leaf still counts
        // 2, and a whole-page copy releases only the still-shared pages.
        s.release(69, o(0)).unwrap();
        assert_eq!((s.count(69, o(0)), s.count(64, o(3))), (1, 2));
        s.release(64, o(3)).unwrap();
        assert_eq!(s.count(64, o(3)), 1);
        assert_eq!(s.iter().count(), 7, "page 5 lost its last mapper");
    }

    #[test]
    fn release_unshared_is_an_invariant_violation() {
        let err = FrameShares::default().release(5, o(0)).unwrap_err();
        assert!(err.to_string().contains("never shared"), "{err}");
        let mut s = FrameShares::default();
        s.share(8, o(2));
        s.release(8, o(2)).unwrap();
        let err = s.release(8, o(2)).unwrap_err();
        assert!(err.to_string().contains("never shared"), "{err}");
        assert_eq!(s.iter().count(), 4, "nothing changed");
    }
}
