//! Robustness harness for the TPS reproduction.
//!
//! The paper's OS machinery (reservations, promotion, compaction, TLB
//! shootdowns) has many cross-layer contracts that no single crate can
//! check on its own. This crate closes that gap with three pieces:
//!
//! * [`FaultPlan`] — a deterministic, seeded [`tps_core::FaultInjector`]
//!   that forces buddy-allocation failure, whole-span reservation denial,
//!   compaction interruption, and dropped TLB-shootdown deliveries at
//!   configurable per-site probabilities.
//! * [`Auditor`] — a cross-layer invariant checker that walks a live
//!   [`tps_os::Os`] and verifies buddy free-list conservation, the
//!   reservation-table ⊆ buddy-ownership bijection, page-table-leaf ↔
//!   reservation consistency, alias-PTE coherence, and (via a shadow TLB
//!   fed from fault outcomes and shootdown lists) that every surviving
//!   TLB entry still translates — i.e. no shootdown was forgotten.
//! * [`campaign`] — a randomized schedule driver that runs seeded
//!   `mmap`/fault/`munmap`/`compact` sequences under an injected fault
//!   plan and audits as it goes. The headline robustness claim — ~1,000
//!   seeded schedules complete with zero panics and every invariant held —
//!   is `tests/campaign.rs` running [`campaign::run_campaign`].
//! * [`shadow`] — a differential shadow-walk oracle for the *hardware*
//!   fault sites: every translation performed under injected walker /
//!   MMU-cache / TLB faults is replayed against a naive cache-free
//!   reference walker, proving injected hardware faults only ever cost
//!   time, never correctness.
//! * [`chaos`] — a deterministic chaos campaign for the experiment
//!   engine's *artifact* I/O: whole matrix runs driven through
//!   [`tps_sim::FaultyIo`], killed at randomized byte offsets and fed
//!   corrupted journals, proving every salvageable journal resumes
//!   byte-identically and every corruption is detected — never a
//!   silently wrong report.
//! * [`containment`] — a multi-tenant fault-containment chaos campaign:
//!   hundreds of seeded schedules mixing well-behaved tenants with
//!   memory hogs, cap overrunners and malformed event streams, proving
//!   the machine kills misbehaving tenants without panicking, returns
//!   their frames to a conserved buddy state, keeps per-tenant
//!   statistics summing exactly to the rollup, and reproduces the same
//!   kill sequence on every re-run.
//!
//! Nothing here is in the simulator's hot path: production crates only
//! carry the `Option<InjectorHandle>` hook, which stays `None` (one
//! untaken branch) unless a harness installs a plan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
pub mod campaign;
pub mod chaos;
pub mod containment;
mod schedule;
pub mod shadow;

pub use audit::Auditor;
pub use schedule::{ScheduleConfig, ScheduleFailure};
pub use tps_core::{FaultPlan, FaultPlanConfig};
