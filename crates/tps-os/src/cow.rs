//! Fork and copy-on-write (paper §III-C3).
//!
//! With larger pages, CoW sharing opportunities shrink and write faults
//! get more expensive. The paper describes two options on a write to a
//! shared large page: copy the *whole* range (costly, preserves TLB
//! reach) or copy only the written part as a *smaller* page and keep
//! sharing the rest (cheap, fragments the mapping). Both are implemented
//! here; the ablation benches compare them.

use tps_core::{InvariantLayer, PageOrder, TpsError};

/// What the CoW write-fault handler copies on a fault to a shared page.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum CowPolicy {
    /// Copy the entire shared page, whatever its size: expensive copies,
    /// but the mapping keeps its large-page TLB reach.
    #[default]
    CopyWholePage,
    /// Copy only the faulting base page; the rest of the large page is
    /// re-mapped as smaller pages that keep sharing the original frames.
    CopySmallest,
}

/// Reference counts of physically shared pages, keyed by
/// `(frame base-page number, order)`.
///
/// Only pages that have ever been shared appear; absence means refcount 1.
#[derive(Clone, Debug, Default)]
pub struct FrameShares {
    counts: std::collections::HashMap<(u64, u8), u32>,
}

impl FrameShares {
    /// Creates an empty share table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one more sharer of a frame (absent entries start at 1).
    pub fn share(&mut self, pfn: u64, order: PageOrder) {
        *self.counts.entry((pfn, order.get())).or_insert(1) += 1;
    }

    /// Current sharer count.
    pub fn count(&self, pfn: u64, order: PageOrder) -> u32 {
        self.counts.get(&(pfn, order.get())).copied().unwrap_or(1)
    }

    /// Drops one sharer; returns the remaining count. Entries reaching 1
    /// are removed (sole ownership).
    ///
    /// # Errors
    ///
    /// A [`TpsError::InvariantViolation`] if the frame was not shared.
    pub fn release(&mut self, pfn: u64, order: PageOrder) -> Result<u32, TpsError> {
        let key = (pfn, order.get());
        let Some(c) = self.counts.get_mut(&key) else {
            return Err(TpsError::invariant(
                InvariantLayer::Os,
                format!("releasing frame {pfn:#x} (order {order}) that was never shared"),
            ));
        };
        *c -= 1;
        let remaining = *c;
        if remaining <= 1 {
            self.counts.remove(&key);
        }
        Ok(remaining)
    }

    /// Splits the share bookkeeping of a large frame into its constituent
    /// sub-frames at `sub_order` (used by [`CowPolicy::CopySmallest`]):
    /// every sub-frame inherits the parent's sharer count.
    ///
    /// # Errors
    ///
    /// A [`TpsError::InvariantViolation`], with nothing changed, unless
    /// `sub_order` is smaller than `order`.
    pub fn split(
        &mut self,
        pfn: u64,
        order: PageOrder,
        sub_order: PageOrder,
    ) -> Result<(), TpsError> {
        if sub_order >= order {
            return Err(TpsError::invariant(
                InvariantLayer::Os,
                format!("splitting frame {pfn:#x} from order {order} to {sub_order}"),
            ));
        }
        let key = (pfn, order.get());
        if let Some(c) = self.counts.remove(&key) {
            let subs = 1u64 << (order.get() - sub_order.get());
            for i in 0..subs {
                self.counts
                    .insert((pfn + i * sub_order.base_pages(), sub_order.get()), c);
            }
        }
        Ok(())
    }

    /// Number of distinct shared frames tracked.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if nothing is shared.
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
        let mut s = FrameShares::new();
        assert_eq!(s.count(100, o(0)), 1);
        s.share(100, o(0));
        assert_eq!(s.count(100, o(0)), 2);
        s.share(100, o(0));
        assert_eq!(s.count(100, o(0)), 3);
        assert_eq!(s.release(100, o(0)), Ok(2));
        assert_eq!(s.release(100, o(0)), Ok(1));
        assert!(s.is_empty(), "sole ownership drops the entry");
        assert_eq!(s.count(100, o(0)), 1);
    }

    #[test]
    fn orders_are_distinct_keys() {
        let mut s = FrameShares::new();
        s.share(0, o(3));
        assert_eq!(s.count(0, o(3)), 2);
        assert_eq!(s.count(0, o(0)), 1, "different order, different page");
    }

    #[test]
    fn split_propagates_counts() {
        let mut s = FrameShares::new();
        s.share(64, o(3)); // a shared 32K page at pfn 64
        s.split(64, o(3), o(0)).unwrap();
        for i in 0..8 {
            assert_eq!(s.count(64 + i, o(0)), 2, "sub-page {i}");
        }
        assert_eq!(s.count(64, o(3)), 1, "parent entry gone");

        // A split that does not reduce the order is refused, changing nothing.
        s.share(128, o(2));
        for sub in [o(2), o(3)] {
            let err = s.split(128, o(2), sub).unwrap_err();
            assert!(err.to_string().contains("splitting frame"), "{err}");
            assert_eq!(s.count(128, o(2)), 2, "entry kept after {sub}");
        }
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn release_unshared_is_an_invariant_violation() {
        let err = FrameShares::new().release(5, o(0)).unwrap_err();
        assert!(err.to_string().contains("never shared"), "{err}");
    }
}
