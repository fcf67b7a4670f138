//! Page-table substrate: the x86-64-style 4-level radix page table extended
//! with TPS tailored pages, the hardware page walker, and MMU caches.
//!
//! Three pieces (paper §III-A1):
//!
//! * [`PageTable`] — the in-memory radix tree. Conventional leaves live at
//!   level 1 (4 KB), level 2 (2 MB, `PS` bit) and level 3 (1 GB). Tailored
//!   leaves occupy `2^rel` consecutive slots of one node — one *true* PTE
//!   (index low bits zero) plus *alias* PTEs, all encoding the page size.
//! * [`Walker`] — the hardware walker. It reads one entry per level,
//!   consults the [`MmuCaches`] to skip upper levels, and — under
//!   [`AliasPolicy::Pointer`] — performs the paper's one extra memory access
//!   when the final read landed on an alias PTE (Fig. 6).
//! * [`MmuCaches`] — per-level page-structure caches (PML4E/PDPTE/PDE),
//!   which shorten walks exactly as in commercial MMUs.
//!
//! # Example
//!
//! ```
//! use tps_core::{PageOrder, PhysAddr, PteFlags, VirtAddr};
//! use tps_pt::{AliasPolicy, MmuCaches, PageTable, Walker};
//!
//! let mut pt = PageTable::new();
//! // Map a 32 KB tailored page.
//! let order = PageOrder::new(3).unwrap();
//! pt.map(VirtAddr::new(0x4000_8000), PhysAddr::new(0x200_0000),
//!        order, PteFlags::WRITABLE).unwrap();
//!
//! let mut walker = Walker::new(AliasPolicy::Pointer);
//! let mut caches = MmuCaches::default();
//! // An access inside the page, but not at its first 4 KB slot: the walk
//! // lands on an alias PTE and performs one extra access.
//! let out = walker.walk(&pt, VirtAddr::new(0x4000_c123), Some(&mut caches)).unwrap();
//! assert_eq!(out.leaf.order, order);
//! assert!(out.alias_extra);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mmu_cache;
mod table;
mod walker;

pub use mmu_cache::{Asid as PtAsid, MmuCacheConfig, MmuCaches};
pub use table::{PageTable, PT_POOL_BASE};
pub use walker::{AliasPolicy, WalkEvents, WalkFault, WalkOk, WalkRefs, Walker};
