//! # tps — Tailored Page Sizes (ISCA 2020) reproduction
//!
//! Facade crate re-exporting the full simulation stack:
//!
//! * [`core`] — addresses, page orders, the TPS PTE encoding.
//! * [`mem`] — buddy allocator, fragmentation engine, compaction,
//!   frame reservations.
//! * [`pt`] — 4-level radix page table, page walker, alias PTEs, MMU caches.
//! * [`tlb`] — TLB structures (incl. the any-size TPS TLB), CoLT, Range TLB.
//! * [`os`] — address spaces, paging policies (4K-only / THP / TPS / RMM),
//!   fault handling.
//! * [`wl`] — deterministic workload generators (GUPS, Graph500, XSBench,
//!   DBx1000, SPEC17-like kernels).
//! * [`sim`] — the multi-tenant machine driver, SMT and virtualization
//!   models, and the `T = T_IDEAL + T_L1DTLBM + T_PW` timing model.
//!
//! ## Quickstart
//!
//! ```
//! use tps::prelude::*;
//!
//! // Simulate a small GUPS run under the TPS paging policy.
//! let config = MachineConfig::default().with_policy(PolicyKind::Tps);
//! let wl = Gups::new(GupsParams { table_bytes: 8 << 20, updates: 20_000, seed: 1 });
//! let stats = MachineBuilder::new(config)
//!     .tenant(TenantSpec::workload(wl))
//!     .build()?
//!     .run()
//!     .into_solo();
//! assert!(stats.mem.accesses > 0);
//! println!("L1 hit rate: {:.2}%", 100.0 * stats.mem.l1_hit_rate());
//! # Ok::<(), tps::core::TpsError>(())
//! ```
//!
//! Several tenants share one machine — one buddy allocator, one TLB
//! hierarchy, ASID-tagged entries with real shootdown cross-talk:
//!
//! ```
//! use tps::prelude::*;
//!
//! let config = MachineConfig::default().with_memory(128 << 20);
//! let stats = MachineBuilder::new(config)
//!     .tenants((0..4).map(|i| TenantSpec::suite("gups", SuiteScale::Test, 100 + i)))
//!     .build()?
//!     .run();
//! assert_eq!(stats.per_tenant.len(), 4);
//! let shared: u64 = stats.per_tenant.iter().map(|t| t.mem.accesses).sum();
//! assert_eq!(shared, stats.global.mem.accesses);
//! # Ok::<(), tps::core::TpsError>(())
//! ```
//!
//! ## Experiment matrices
//!
//! Whole (benchmark × mechanism) sweeps go through the declarative
//! experiment API; the matrix runs on a worker pool with per-cell pinned
//! seeds, and the report (including its JSON form) is byte-identical at
//! any thread count:
//!
//! ```
//! use tps::prelude::*;
//!
//! let matrix = ExperimentSpec::new().bench("gups").all_mechanisms().scale(SuiteScale::Test).build()?;
//! let report = matrix.run();
//! assert!(report.stats("gups", Mechanism::Tps).is_some());
//! # Ok::<(), tps::core::TpsError>(())
//! ```

pub use tps_core as core;
pub use tps_mem as mem;
pub use tps_os as os;
pub use tps_pt as pt;
pub use tps_sim as sim;
pub use tps_tlb as tlb;
pub use tps_wl as wl;

/// Commonly used items, importable with `use tps::prelude::*`.
pub mod prelude {
    pub use tps_core::{
        PageOrder, PageSize, PhysAddr, Pte, PteFlags, TenantFault, TenantFaultCause, TpsError,
        VirtAddr,
    };
    pub use tps_os::{AliasPolicy, PolicyKind};
    pub use tps_sim::{
        CellFailure, CellReport, DerivedMetrics, ExperimentCell, ExperimentMatrix,
        ExperimentReport, ExperimentSpec, FailureCause, HwFaultStats, Machine, MachineBuilder,
        MachineConfig, MachineRunStats, Mechanism, OnOom, RunOptions, RunStats, TenantCount,
        TenantOutcome, TenantSpec, DEFAULT_EXPERIMENT_SEED, MAX_TENANTS, REPORT_SCHEMA,
        REPORT_VERSION,
    };
    pub use tps_wl::{
        Dbx1000, Dbx1000Params, Event, Graph500, Graph500Params, Gups, GupsParams, Spec17Kernel,
        SuiteScale, Workload, XsBench, XsBenchParams,
    };
}
