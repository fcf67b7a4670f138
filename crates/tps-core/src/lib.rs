//! Core types shared by every crate in the Tailored Page Sizes (TPS)
//! reproduction.
//!
//! TPS (Guvenilir & Patt, ISCA 2020) extends a conventional x86-64-like
//! virtual memory system with pages of *any* power-of-two size at or above
//! the 4 KB base page. This crate provides the vocabulary types used by the
//! physical-memory, page-table, TLB, OS and simulator crates:
//!
//! * [`VirtAddr`] / [`PhysAddr`] — newtype addresses with alignment helpers.
//! * [`PageOrder`] / [`PageSize`] — power-of-two page sizes expressed as an
//!   order relative to the 4 KB base page.
//! * [`Pte`] — a 64-bit page table entry implementing the paper's single
//!   reserved-bit (`T`) tailored-size encoding (Fig. 5): the size of a
//!   tailored page is recovered from otherwise-unused low PFN bits with a
//!   priority encoder.
//! * [`rng`] — a small deterministic PRNG so that every experiment in the
//!   reproduction is bit-for-bit repeatable.
//!
//! # Example
//!
//! ```
//! use tps_core::{PageOrder, PageSize, PhysAddr, Pte, PteFlags, VirtAddr};
//!
//! // A 32 KB tailored page (order 3) mapping VA 0x1000_8000 -> PA 0x4000_0000.
//! let order = PageOrder::new(3).unwrap();
//! let pa = PhysAddr::new(0x4000_0000);
//! let pte = Pte::leaf(pa, order, PteFlags::WRITABLE | PteFlags::USER);
//! let leaf = pte.decode_leaf(1).unwrap();
//! assert_eq!(leaf.base, pa);
//! assert_eq!(leaf.order, order);
//! assert_eq!(PageSize::from_order(order).bytes(), 32 * 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod counter;
mod error;
pub mod inject;
pub mod lru;
mod page;
mod pte;
pub mod rng;

pub use addr::{
    PhysAddr, VirtAddr, BASE_PAGE_SHIFT, BASE_PAGE_SIZE, GIB, KIB, MIB, PAGE_1G_BYTES,
    PAGE_2M_BYTES, PA_BITS, VA_BITS,
};
pub use error::{InvariantLayer, TenantFault, TenantFaultCause, TpsError};
pub use inject::{FaultInjector, FaultPlan, FaultPlanConfig, FaultSite, InjectorHandle};
pub use page::{
    level_base_order, level_for_order, PageOrder, PageSize, LEVELS, MAX_PAGE_ORDER, PT_ENTRIES,
    PT_INDEX_BITS,
};
pub use pte::{LeafInfo, Pte, PteFlags};

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, TpsError>;
