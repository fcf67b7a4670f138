//! TLB structures for the TPS reproduction.
//!
//! Everything the paper's §III-A2 and §V evaluate at the TLB level:
//!
//! * [`SetAssocTlb`] — conventional fixed-size set-associative TLB.
//! * [`AnySizeTlb`] — the paper's TPS TLB: fully associative, one *page
//!   mask* per entry, mask-then-compare lookup (Fig. 7).
//! * [`DualStlb`] — Skylake-style unified L2 TLB with 4 KB/2 MB dual-probe.
//! * [`ColtTlb`] / [`detect_run`] — CoLT-SA coalesced TLB baseline.
//! * [`RangeTlb`] — the RMM Range TLB baseline (L2-level range cache).
//! * [`TlbHierarchy`] — the assembled two-level hierarchy in all four
//!   organizations, with hit/miss statistics.
//!
//! # Example
//!
//! ```
//! use tps_tlb::{HierarchyKind, TlbConfig, TlbHierarchy};
//! use tps_core::{LeafInfo, PageOrder, PhysAddr, PteFlags, VirtAddr};
//!
//! let mut h = TlbHierarchy::new(TlbConfig::with_kind(HierarchyKind::Tps));
//! let leaf = LeafInfo {
//!     base: PhysAddr::new(0x800_0000),
//!     order: PageOrder::new(6).unwrap(), // a 256 KB tailored page
//!     flags: PteFlags::PRESENT | PteFlags::WRITABLE,
//! };
//! let va = VirtAddr::new(0x800_0000);
//! h.fill_l1(0, va, &leaf);
//! assert!(h.lookup_l1(0, VirtAddr::new(0x803_f000)).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod any_size;
mod colt;
mod dual_stlb;
mod entry;
mod hierarchy;
mod range_tlb;
mod set_assoc;
mod skewed;

pub use any_size::{AnySizeTlb, FillOutcome};
pub use colt::{detect_run, ColtEntry, ColtTlb, COLT_WINDOW};
pub use dual_stlb::{DualStlb, StlbProbe};
pub use entry::{Asid, TlbEntry};
pub use hierarchy::{HierarchyKind, L2Hit, TlbConfig, TlbHierarchy, TlbStats, Translation};
pub use range_tlb::{RangeEntry, RangeTlb};
pub use set_assoc::SetAssocTlb;
pub use skewed::SkewedTlb;
