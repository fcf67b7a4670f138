//! Physical-memory substrate for the TPS reproduction.
//!
//! The paper's OS-side machinery rests on four pieces of Linux/FreeBSD
//! infrastructure, all rebuilt here:
//!
//! * [`BuddyAllocator`] — power-of-two free lists with split on allocation
//!   and buddy-merge on free (paper §II-B).
//! * [`fragment`] — a churn engine that drives the allocator into the
//!   heavily-fragmented states of Fig. 15/16, plus free-memory *coverage*
//!   analysis (what fraction of free memory each single page size could use).
//! * [`compaction`] — a model of the memory-compaction daemon: migrates
//!   movable allocations to re-create contiguity, reporting what moved.
//! * [`reservation`] — frame-reservation bookkeeping for reservation-based
//!   demand paging (paper §III-B1): reserved spans, offset→frame lookup, and
//!   the utilization tree that drives TPS page promotion.
//!
//! # Example
//!
//! ```
//! use tps_mem::BuddyAllocator;
//! use tps_core::PageOrder;
//!
//! let mut buddy = BuddyAllocator::new(64 << 20); // 64 MB of physical memory
//! let block = buddy.alloc(PageOrder::new(4).unwrap()).unwrap(); // 64 KB
//! assert!(block.is_aligned(16));
//! buddy.free(block, PageOrder::new(4).unwrap()).unwrap();
//! assert_eq!(buddy.free_bytes(), 64 << 20);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod buddy;
pub mod compaction;
pub mod fragment;
pub mod reservation;

pub use buddy::{BuddyAllocator, FreeHistogram};
pub use compaction::{CompactionOutcome, Relocation};
pub use fragment::{FragmentParams, Fragmenter};
pub use reservation::{Reservation, ReservationId, ReservationTable, Segment, UtilizationTree};
