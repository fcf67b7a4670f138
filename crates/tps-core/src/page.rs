//! Page sizes expressed as power-of-two *orders* above the 4 KB base page.

use crate::addr::BASE_PAGE_SHIFT;
use crate::error::TpsError;
use std::fmt;

/// Number of index bits per page-table level (512-entry tables).
pub const PT_INDEX_BITS: u32 = 9;
/// Number of entries in one page-table node.
pub const PT_ENTRIES: usize = 1 << PT_INDEX_BITS;
/// Number of page-table levels modeled (x86-64 4-level paging).
pub const LEVELS: u8 = 4;

/// The largest supported page order.
///
/// Order 26 is a 256 GB page — the largest size a level-3 leaf can express
/// with the tailored encoding (level 3 hosts orders 18..=26).
pub const MAX_PAGE_ORDER: u8 = 26;

/// A power-of-two page size expressed as an order above the base page:
/// `size = 4 KB << order`.
///
/// Order 0 is 4 KB, order 9 is 2 MB, order 18 is 1 GB — the conventional
/// x86-64 page sizes. Every other order in `1..=26` is a *tailored* size
/// introduced by TPS.
///
/// # Example
///
/// ```
/// use tps_core::PageOrder;
/// let o = PageOrder::new(3).unwrap(); // 32 KB
/// assert_eq!(o.bytes(), 32 * 1024);
/// assert_eq!(o.base_pages(), 8);
/// assert!(o.is_tailored());
/// assert!(!PageOrder::P2M.is_tailored());
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Default)]
pub struct PageOrder(u8);

impl PageOrder {
    /// The 4 KB base page.
    pub const P4K: PageOrder = PageOrder(0);
    /// The conventional 2 MB huge page.
    pub const P2M: PageOrder = PageOrder(9);
    /// The conventional 1 GB huge page.
    pub const P1G: PageOrder = PageOrder(18);

    /// Creates a page order.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::InvalidPageOrder`] if `order > MAX_PAGE_ORDER`.
    pub fn new(order: u8) -> Result<Self, TpsError> {
        if order > MAX_PAGE_ORDER {
            Err(TpsError::InvalidPageOrder(order))
        } else {
            Ok(PageOrder(order))
        }
    }

    /// Creates a page order without bounds checking against
    /// [`MAX_PAGE_ORDER`].
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `order > MAX_PAGE_ORDER`.
    #[inline]
    pub const fn new_unchecked(order: u8) -> Self {
        debug_assert!(order <= MAX_PAGE_ORDER);
        PageOrder(order)
    }

    /// The numeric order.
    #[inline]
    pub const fn get(self) -> u8 {
        self.0
    }

    /// The page size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        1u64 << self.shift()
    }

    /// Log2 of the page size (`12 + order`).
    #[inline]
    pub const fn shift(self) -> u32 {
        BASE_PAGE_SHIFT + self.0 as u32
    }

    /// Number of 4 KB base pages this page spans.
    #[inline]
    pub const fn base_pages(self) -> u64 {
        1u64 << self.0
    }

    /// True for sizes other than the conventional 4 KB / 2 MB / 1 GB —
    /// i.e. the sizes that only TPS supports.
    #[inline]
    pub const fn is_tailored(self) -> bool {
        !matches!(self.0, 0 | 9 | 18)
    }

    /// The smallest order whose page covers at least `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::InvalidPageOrder`] if `bytes` exceeds the largest
    /// supported page.
    pub fn covering(bytes: u64) -> Result<Self, TpsError> {
        if bytes == 0 {
            return Ok(PageOrder(0));
        }
        let shift = 64 - (bytes - 1).leading_zeros();
        let order = shift.saturating_sub(BASE_PAGE_SHIFT) as u8;
        PageOrder::new(order)
    }

    /// The largest order whose page fits within `bytes`
    /// (`None` if `bytes < 4 KB`).
    pub fn fitting(bytes: u64) -> Option<Self> {
        if bytes < (1 << BASE_PAGE_SHIFT) {
            return None;
        }
        let order = (63 - bytes.leading_zeros()).saturating_sub(BASE_PAGE_SHIFT) as u8;
        Some(PageOrder(order.min(MAX_PAGE_ORDER)))
    }

    /// Iterator over all supported orders, smallest first.
    pub fn all() -> impl Iterator<Item = PageOrder> {
        (0..=MAX_PAGE_ORDER).map(PageOrder)
    }

    /// A human-readable size string like `"4K"`, `"32K"`, `"2M"`, `"1G"`.
    pub fn label(self) -> String {
        let b = self.bytes();
        if b >= 1 << 30 {
            format!("{}G", b >> 30)
        } else if b >= 1 << 20 {
            format!("{}M", b >> 20)
        } else {
            format!("{}K", b >> 10)
        }
    }
}

impl fmt::Debug for PageOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageOrder({} = {})", self.0, self.label())
    }
}

impl fmt::Display for PageOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl TryFrom<u8> for PageOrder {
    type Error = TpsError;
    fn try_from(v: u8) -> Result<Self, TpsError> {
        PageOrder::new(v)
    }
}

/// A page size in bytes, guaranteed to be a supported power of two.
///
/// Thin wrapper over [`PageOrder`] for call sites that think in bytes.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug, Default)]
pub struct PageSize(PageOrder);

impl PageSize {
    /// Creates a page size from an order.
    #[inline]
    pub const fn from_order(order: PageOrder) -> Self {
        PageSize(order)
    }

    /// The size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        self.0.bytes()
    }

    /// The underlying order.
    #[inline]
    pub const fn order(self) -> PageOrder {
        self.0
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// The page-table level (1..=3) at which a leaf of the given order lives.
///
/// Level 1 hosts orders 0..=8 (4 KB and tailored up to 1 MB), level 2 hosts
/// 9..=17 (2 MB and tailored up to 512 MB), level 3 hosts 18..=26.
///
/// # Panics
///
/// Panics if `order > MAX_PAGE_ORDER`.
#[inline]
pub fn level_for_order(order: PageOrder) -> u8 {
    assert!(order.get() <= MAX_PAGE_ORDER);
    order.get() / 9 + 1
}

/// The smallest order hosted at a given leaf level: 0, 9 or 18.
///
/// # Panics
///
/// Panics if `level` is not in `1..=3`.
#[inline]
pub fn level_base_order(level: u8) -> u8 {
    assert!((1..=3).contains(&level), "leaf level out of range");
    (level - 1) * 9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventional_sizes() {
        assert_eq!(PageOrder::P4K.bytes(), 4096);
        assert_eq!(PageOrder::P2M.bytes(), 2 << 20);
        assert_eq!(PageOrder::P1G.bytes(), 1 << 30);
        assert!(!PageOrder::P4K.is_tailored());
        assert!(PageOrder::new(1).unwrap().is_tailored()); // 8K
        assert!(PageOrder::new(17).unwrap().is_tailored()); // 512M
    }

    #[test]
    fn covering_rounds_up() {
        assert_eq!(PageOrder::covering(1).unwrap().get(), 0);
        assert_eq!(PageOrder::covering(4096).unwrap().get(), 0);
        assert_eq!(PageOrder::covering(4097).unwrap().get(), 1);
        assert_eq!(PageOrder::covering(28 * 1024).unwrap().get(), 3); // 32K covers 28K
        assert_eq!(PageOrder::covering(2052 * 1024).unwrap().label(), "4M"); // paper example
        assert!(PageOrder::covering(1 << 60).is_err());
    }

    #[test]
    fn fitting_rounds_down() {
        assert!(PageOrder::fitting(1000).is_none());
        assert_eq!(PageOrder::fitting(4096).unwrap().get(), 0);
        assert_eq!(PageOrder::fitting(28 * 1024).unwrap().get(), 2); // 16K fits in 28K
        assert_eq!(PageOrder::fitting(u64::MAX).unwrap().get(), MAX_PAGE_ORDER);
    }

    #[test]
    fn level_assignment() {
        assert_eq!(level_for_order(PageOrder::P4K), 1);
        assert_eq!(level_for_order(PageOrder::new(8).unwrap()), 1);
        assert_eq!(level_for_order(PageOrder::P2M), 2);
        assert_eq!(level_for_order(PageOrder::new(17).unwrap()), 2);
        assert_eq!(level_for_order(PageOrder::P1G), 3);
        assert_eq!(level_for_order(PageOrder::new(26).unwrap()), 3);
        assert_eq!(level_base_order(1), 0);
        assert_eq!(level_base_order(2), 9);
        assert_eq!(level_base_order(3), 18);
    }

    #[test]
    fn labels() {
        assert_eq!(PageOrder::new(0).unwrap().label(), "4K");
        assert_eq!(PageOrder::new(2).unwrap().label(), "16K");
        assert_eq!(PageOrder::new(9).unwrap().label(), "2M");
        assert_eq!(PageOrder::new(12).unwrap().label(), "16M");
        assert_eq!(PageOrder::new(18).unwrap().label(), "1G");
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(PageOrder::new(MAX_PAGE_ORDER + 1).is_err());
        assert!(PageOrder::new(MAX_PAGE_ORDER).is_ok());
    }

    #[test]
    fn all_orders_enumerates() {
        let all: Vec<_> = PageOrder::all().collect();
        assert_eq!(all.len(), MAX_PAGE_ORDER as usize + 1);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }
}
