//! The TPS machine simulator.
//!
//! Ties the substrates together into the paper's evaluation vehicle:
//!
//! * [`Machine`] — N tenant address spaces over one shared OS, buddy
//!   allocator and MMU (TLB hierarchy + MMU caches + page walker), built
//!   with [`MachineBuilder`] from [`TenantSpec`]s and interleaved
//!   round-robin, producing [`MachineRunStats`] (per-tenant [`RunStats`]
//!   plus the machine-wide rollup). Two tenants are two SMT hardware
//!   threads sharing one core's translation hardware.
//! * [`Mechanism`] / [`MachineConfig`] — the compared systems (THP
//!   baseline, CoLT, RMM, TPS) over the paper's Table I hardware.
//! * [`NestedWalkModel`] — two-dimensional (virtualized) page walks.
//! * [`TimingModel`] — the paper's `T = T_IDEAL + T_L1DTLBM + T_PW`
//!   execution-time decomposition.
//! * [`experiment`] — the deterministic parallel experiment-matrix
//!   runner ([`ExperimentSpec`] → [`ExperimentMatrix`] →
//!   [`ExperimentReport`]) behind the CLI and the figure harnesses.
//!
//! # Example
//!
//! ```
//! use tps_sim::{MachineBuilder, MachineConfig, Mechanism, TenantSpec, TimingModel};
//! use tps_wl::{Gups, GupsParams};
//!
//! let gups = Gups::new(GupsParams { table_bytes: 8 << 20, updates: 20_000, seed: 1 });
//! let stats = MachineBuilder::new(
//!     MachineConfig::for_mechanism(Mechanism::Tps).with_memory(64 << 20))
//!     .tenant(TenantSpec::workload(gups))
//!     .build()
//!     .unwrap()
//!     .run()
//!     .into_solo();
//! let timing = TimingModel::default().evaluate(&stats, false);
//! assert!(timing.total() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod config;
pub mod experiment;
mod machine;
mod mmu;
mod nested;
mod stats;
mod timing;

pub use config::{table1_rows, MachineConfig, Mechanism};
pub use experiment::{
    write_atomic, ArtifactIo, ArtifactSink, CellFailure, CellReport, DerivedMetrics,
    ExperimentCell, ExperimentMatrix, ExperimentReport, ExperimentSpec, FailureCause, FaultyIo,
    FaultyIoConfig, RealIo, RunOptions, TenantCount, CHECKPOINT_SCHEMA, CHECKPOINT_VERSION,
    DEFAULT_EXPERIMENT_SEED, HALT_EXIT_CODE, MAX_TENANTS, REPORT_SCHEMA, REPORT_VERSION,
};
pub use machine::{
    Machine, MachineBuilder, OnOom, RunCounters, TenantScheduler, TenantSpec, ThreadCounters,
};
pub use mmu::{AccessLevel, AccessOutcome, Mmu};
pub use nested::NestedWalkModel;
pub use stats::{HwFaultStats, MachineRunStats, RunStats, TenantOutcome};
pub use timing::{TimingBreakdown, TimingModel};
