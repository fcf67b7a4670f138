//! Operating-system model for the TPS reproduction (paper §III-B).
//!
//! Provides processes with virtual address spaces, serves `mmap`/`munmap`,
//! and handles page faults under the six paging policies the evaluation
//! compares:
//!
//! * [`PolicyKind::Only4K`] — demand 4 KB paging (THP off).
//! * [`PolicyKind::Only2M`] — exclusive 2 MB paging (the Fig. 9 bloat study).
//! * [`PolicyKind::Thp`] — reservation-based Transparent Huge Pages
//!   (the paper's baseline).
//! * [`PolicyKind::Tps`] — Tailored Page Sizes: whole-request frame
//!   reservations, threshold-driven promotion through every power of two.
//! * [`PolicyKind::TpsEager`] — TPS with eager paging.
//! * [`PolicyKind::Rmm`] — Redundant Memory Mappings: eager paging plus an
//!   OS range table backing the Range TLB.
//!
//! The OS charges every operation to a [`CostModel`] so the simulator can
//! report system time (Fig. 17).

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

mod address_space;
mod cow;
mod os;
mod policy;

pub use address_space::{round_up_pages, AddressSpace, Vma};
pub use cow::{CowPolicy, FrameShares};
pub use os::{FaultOutcome, Os, OsStats, Process, Shootdown};
pub use policy::{CostModel, PolicyConfig, PolicyKind};

// Re-exported so downstream users configure the walker without adding a
// direct tps-pt dependency.
pub use tps_pt::AliasPolicy;
