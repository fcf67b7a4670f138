//! Deterministic workload generators for the TPS reproduction.
//!
//! Replaces the paper's PIN-traced SPEC CPU2017 + big-data binaries with
//! seeded kernels that reproduce each benchmark's address-stream character
//! (see DESIGN.md §2):
//!
//! * [`Gups`] — random read-modify-write over a giant table.
//! * [`Graph500`] — real R-MAT graph construction + BFS replay.
//! * [`XsBench`] — unionized-energy-grid binary search + nuclide gathers.
//! * [`Dbx1000`] — Zipf-skewed OLTP with hash index and log.
//! * [`Spec17Kernel`] — locality-class kernels for the SPEC17 benchmarks.
//! * [`Initialized`] — the startup page-touch sweep real applications do.
//! * [`trace`] — record any workload to a text trace and replay traces
//!   (including ones converted from real PIN/DynamoRIO tools).
//! * [`build`]/[`suite_names`] — the paper's benchmark sets at three scales.
//!
//! All generators are deterministic: same parameters, same event stream.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod dbx1000;
mod event;
mod graph500;
mod gups;
mod init;
mod spec17;
mod suite;
pub mod trace;
mod xsbench;
pub mod zipf;

pub use dbx1000::{Dbx1000, Dbx1000Params};
pub use event::{Event, Workload, WorkloadProfile};
pub use graph500::{Graph500, Graph500Params};
pub use gups::{Gups, GupsParams};
pub use init::Initialized;
pub use spec17::{Spec17Kernel, SpecBench};
pub use suite::{
    build, build_seeded, default_suite_seed, profiling_names, suite_names, tenant_seeds, SuiteScale,
};
pub use trace::{format_event, parse_event, replay, Recorder, TraceReplay};
pub use xsbench::{XsBench, XsBenchParams};
