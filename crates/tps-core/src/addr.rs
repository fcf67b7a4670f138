//! Virtual and physical address newtypes.

use std::fmt;
use std::ops::{Add, Sub};

/// Log2 of the base (smallest) page size. 4 KB, as in x86-64.
pub const BASE_PAGE_SHIFT: u32 = 12;
/// The base page size in bytes (4 KB).
pub const BASE_PAGE_SIZE: u64 = 1 << BASE_PAGE_SHIFT;
/// Bytes in a 2 MB page (order 9) — the x86-64 "huge page" TPS subsumes.
pub const PAGE_2M_BYTES: u64 = 1 << (BASE_PAGE_SHIFT + 9);
/// Bytes in a 1 GB page (order 18) — the largest conventional x86-64 size.
pub const PAGE_1G_BYTES: u64 = 1 << (BASE_PAGE_SHIFT + 18);
/// One binary kilobyte.
pub const KIB: u64 = 1 << 10;
/// One binary megabyte.
pub const MIB: u64 = 1 << 20;
/// One binary gigabyte.
pub const GIB: u64 = 1 << 30;
/// Number of meaningful virtual-address bits (x86-64 4-level paging).
pub const VA_BITS: u32 = 48;
/// Number of physical-address bits modeled (the paper's example uses 40).
pub const PA_BITS: u32 = 40;

/// A virtual address in a process address space.
///
/// Only the low [`VA_BITS`] bits are meaningful; constructors mask the rest
/// (we model the canonical lower half of the address space).
///
/// # Example
///
/// ```
/// use tps_core::VirtAddr;
/// let va = VirtAddr::new(0x7f00_1234);
/// assert_eq!(va.align_down(12).value(), 0x7f00_1000);
/// assert_eq!(va.page_offset(12), 0x234);
/// ```
///
/// The field is private: code outside this crate can neither read the raw
/// bits nor build an address past [`VirtAddr::new`]'s width masking.
///
/// ```compile_fail,E0616
/// let raw = tps_core::VirtAddr::new(0x1000).0;
/// ```
///
/// ```compile_fail,E0423
/// let va = tps_core::VirtAddr(0x1000);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Default)]
pub struct VirtAddr(u64);

/// A physical address (a location in simulated DRAM).
///
/// Only the low [`PA_BITS`] bits are meaningful. As with [`VirtAddr`], the
/// field is private:
///
/// ```compile_fail,E0616
/// let raw = tps_core::PhysAddr::new(0x1000).0;
/// ```
///
/// ```compile_fail,E0423
/// let pa = tps_core::PhysAddr(0x1000);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Default)]
pub struct PhysAddr(u64);

macro_rules! addr_impl {
    ($t:ident, $bits:expr) => {
        impl $t {
            /// Mask selecting the meaningful address bits.
            pub const MASK: u64 = (1u64 << $bits) - 1;

            /// Creates an address, masking to the modeled width.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw & Self::MASK)
            }

            /// The zero address.
            pub const ZERO: Self = Self(0);

            /// Returns the raw numeric value.
            #[inline]
            pub const fn value(self) -> u64 {
                self.0
            }

            /// Returns the address rounded down to a `1 << shift` boundary.
            #[inline]
            pub const fn align_down(self, shift: u32) -> Self {
                Self(self.0 & !((1u64 << shift) - 1))
            }

            /// Returns the address rounded up to a `1 << shift` boundary.
            ///
            /// Wraps within the modeled address width (masked), which never
            /// occurs for the address ranges the simulator uses.
            #[inline]
            pub const fn align_up(self, shift: u32) -> Self {
                let sz = 1u64 << shift;
                Self((self.0.wrapping_add(sz - 1) & !(sz - 1)) & Self::MASK)
            }

            /// True if the address is aligned to a `1 << shift` boundary.
            #[inline]
            pub const fn is_aligned(self, shift: u32) -> bool {
                self.0 & ((1u64 << shift) - 1) == 0
            }

            /// The offset of this address within its enclosing page of the
            /// given shift (`shift = 12 + order`).
            #[inline]
            pub const fn page_offset(self, shift: u32) -> u64 {
                self.0 & ((1u64 << shift) - 1)
            }

            /// The page frame / page number at the base page granularity.
            #[inline]
            pub const fn base_page_number(self) -> u64 {
                self.0 >> BASE_PAGE_SHIFT
            }

            /// Adds a byte offset, saturating within the modeled width.
            #[inline]
            pub const fn offset(self, bytes: u64) -> Self {
                Self((self.0 + bytes) & Self::MASK)
            }
        }

        impl fmt::Debug for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($t), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $t {
            fn from(raw: u64) -> Self {
                Self::new(raw)
            }
        }

        impl From<$t> for u64 {
            fn from(a: $t) -> u64 {
                a.0
            }
        }

        impl Add<u64> for $t {
            type Output = Self;
            fn add(self, rhs: u64) -> Self {
                Self::new(self.0 + rhs)
            }
        }

        impl Sub<$t> for $t {
            type Output = u64;
            fn sub(self, rhs: $t) -> u64 {
                self.0 - rhs.0
            }
        }
    };
}

addr_impl!(VirtAddr, VA_BITS);
addr_impl!(PhysAddr, PA_BITS);

impl VirtAddr {
    /// The virtual page number at the base page granularity (synonym for
    /// [`VirtAddr::base_page_number`], named as hardware documentation does).
    #[inline]
    pub const fn vpn(self) -> u64 {
        self.base_page_number()
    }

    /// The 9-bit page-table index for the given level (1 = leaf level,
    /// 4 = root of 4-level paging, 5 = root of 5-level paging; with 48-bit
    /// VAs the level-5 index is always 0, modeling the extra constant
    /// lookup five-level hardware performs).
    ///
    /// # Panics
    ///
    /// Panics if `level` is not in `1..=5`.
    #[inline]
    pub fn pt_index(self, level: u8) -> usize {
        assert!((1..=5).contains(&level), "page table level out of range");
        let shift = BASE_PAGE_SHIFT + 9 * (level as u32 - 1);
        ((self.0 >> shift) & 0x1ff) as usize
    }
}

impl PhysAddr {
    /// The physical frame number at the base page granularity.
    #[inline]
    pub const fn pfn(self) -> u64 {
        self.base_page_number()
    }

    /// Constructs a physical address from a base-page frame number.
    #[inline]
    pub const fn from_pfn(pfn: u64) -> Self {
        Self::new(pfn << BASE_PAGE_SHIFT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_to_width() {
        assert_eq!(VirtAddr::new(u64::MAX).value(), (1 << VA_BITS) - 1);
        assert_eq!(PhysAddr::new(u64::MAX).value(), (1 << PA_BITS) - 1);
    }

    #[test]
    fn align_round_trip() {
        let a = VirtAddr::new(0x1234_5678);
        assert_eq!(a.align_down(12).value(), 0x1234_5000);
        assert_eq!(a.align_up(12).value(), 0x1234_6000);
        assert!(a.align_down(21).is_aligned(21));
        assert_eq!(a.align_down(12).align_up(12), a.align_down(12));
    }

    #[test]
    fn page_offset_and_vpn() {
        let a = VirtAddr::new(0xdead_beef);
        assert_eq!(a.page_offset(12), 0xeef);
        assert_eq!(a.vpn(), 0xdead_beef >> 12);
        assert_eq!(a.page_offset(15), 0xdead_beef & 0x7fff);
    }

    #[test]
    fn pt_index_decomposition() {
        // VA bits: [47:39]=idx4, [38:30]=idx3, [29:21]=idx2, [20:12]=idx1.
        let va = VirtAddr::new((5u64 << 39) | (6 << 30) | (7 << 21) | (8 << 12) | 0x123);
        assert_eq!(va.pt_index(4), 5);
        assert_eq!(va.pt_index(3), 6);
        assert_eq!(va.pt_index(2), 7);
        assert_eq!(va.pt_index(1), 8);
    }

    #[test]
    #[should_panic(expected = "level out of range")]
    fn pt_index_rejects_bad_level() {
        VirtAddr::new(0).pt_index(6);
    }

    #[test]
    fn level_five_index_is_zero_for_48_bit_vas() {
        assert_eq!(VirtAddr::new((1 << VA_BITS) - 1).pt_index(5), 0);
    }

    #[test]
    fn pfn_round_trip() {
        let pa = PhysAddr::from_pfn(0x1_2345);
        assert_eq!(pa.pfn(), 0x1_2345);
        assert_eq!(pa.value(), 0x1_2345 << 12);
    }

    #[test]
    fn arithmetic() {
        let a = PhysAddr::new(0x1000);
        let b = a + 0x234;
        assert_eq!(b.value(), 0x1234);
        assert_eq!(b - a, 0x234);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", VirtAddr::new(0xabc)), "0xabc");
        assert_eq!(format!("{:?}", PhysAddr::new(0xabc)), "PhysAddr(0xabc)");
    }
}
