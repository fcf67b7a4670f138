//! Run statistics collected by the machine.

use std::collections::BTreeMap;
use tps_core::{PageOrder, TenantFaultCause};
use tps_os::OsStats;
use tps_tlb::TlbStats;
use tps_wl::WorkloadProfile;

/// How one tenant's run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantOutcome {
    /// The tenant's event stream ran to completion.
    Completed,
    /// The machine killed the tenant: its statistics were frozen at the
    /// fault point and its memory returned to the shared pool.
    Killed {
        /// The fault that triggered the kill.
        cause: TenantFaultCause,
        /// The 0-based index of the event the tenant was executing when
        /// it faulted; for an OOM-killer victim, the number of events it
        /// had executed when it was chosen.
        at_event: u64,
    },
}

impl TenantOutcome {
    /// Whether the tenant was killed.
    pub fn is_killed(&self) -> bool {
        matches!(self, TenantOutcome::Killed { .. })
    }
}

tps_core::counter_table! {
    /// Degradation counters from injected hardware-model faults.
    ///
    /// Every counter records a fault a hardware structure absorbed on a
    /// panic-free path: the run stays architecturally correct, only slower.
    /// All zero when no fault injector is installed.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct HwFaultStats {
        /// Page walks restarted from the root after a `walk-step` fault.
        pub walk_restarts: u64,
        /// Alias-PTE stores retried after an `alias-install` fault.
        pub alias_install_retries: u64,
        /// MMU paging-structure-cache fills dropped by a `mmu-cache-fill` fault.
        pub mmu_cache_fill_drops: u64,
        /// Any-size TLB fills dropped by an `any-size-fill` fault.
        pub tlb_fill_drops: u64,
        /// Any-size TLB evictions abandoned by an `any-size-evict` fault.
        pub tlb_evict_abandons: u64,
        /// Dual-STLB probes forced to miss by an `stlb-probe` fault.
        pub stlb_probe_misses: u64,
    }
}

/// Everything one simulated run produced.
///
/// TLB/walk counters come in two flavors: the *measured region* (after the
/// workload's [`tps_wl::Event::StatsBarrier`] ROI marker, i.e. steady
/// state — what the figures report) and the *full run* (initialization
/// included — what the system-time figure needs).
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Benchmark name.
    pub name: String,
    /// The workload's timing profile (calibration knobs).
    pub profile: WorkloadProfile,
    /// TLB hierarchy counters.
    pub mem: TlbStats,
    /// Page walks performed (full L2 misses).
    pub walks: u64,
    /// Page-table memory references made by the hardware walker
    /// (including alias-PTE extra accesses and nested amplification).
    pub walk_refs: u64,
    /// Walks whose final access landed on an alias PTE (extra access).
    pub alias_extras: u64,
    /// Hardware A/D-bit update stores.
    pub ad_updates: u64,
    /// OS activity counters.
    pub os: OsStats,
    /// Instructions executed in the measured region (accesses ×
    /// instructions-per-access plus explicit `Compute` events).
    pub instructions: u64,
    /// Instructions over the whole run, initialization included.
    pub full_instructions: u64,
    /// TLB counters over the whole run (compulsory misses included).
    pub full_mem: TlbStats,
    /// Walk memory references over the whole run.
    pub full_walk_refs: u64,
    /// Final page census of the process (order → live pages, Fig. 18).
    pub page_census: BTreeMap<PageOrder, u64>,
    /// Bytes of virtual memory mapped when the run ended.
    pub resident_bytes: u64,
    /// Bytes demand-touched at base-page granularity.
    pub touched_bytes: u64,
    /// MMU-cache hits (PDE, PDPTE, PML4E).
    pub mmu_cache_hits: (u64, u64, u64),
    /// Hardware-fault degradation counters (all zero without an injector).
    pub hw_faults: HwFaultStats,
}

/// Everything a multi-tenant machine run produced: one [`RunStats`] per
/// tenant (in tenant order, attributed by the event scheduler) plus the
/// machine-wide rollup.
///
/// For a single-tenant machine the rollup is exactly what the old
/// single-process driver reported, so `into_solo()` is the drop-in
/// replacement for the previous `Machine::run` return value.
#[derive(Clone, Debug)]
pub struct MachineRunStats {
    /// Machine-wide rollup: counter sums across tenants, plus the OS work
    /// done for no tenant (compaction).
    pub global: RunStats,
    /// Per-tenant statistics, indexed by tenant slot (== ASID).
    pub per_tenant: Vec<RunStats>,
    /// Per-tenant outcomes, indexed by tenant slot like `per_tenant`. All
    /// [`TenantOutcome::Completed`] on a fault-free run. An SMT matrix
    /// cell projects its statistics onto the primary thread but keeps both
    /// threads' outcomes, so here it holds one entry more than
    /// `per_tenant` and a killed sibling stays visible.
    pub outcomes: Vec<TenantOutcome>,
}

impl MachineRunStats {
    /// One tenant's outcome. Tenants of runs recorded before outcomes
    /// existed (or slots out of range) report `Completed`.
    pub fn outcome(&self, slot: usize) -> TenantOutcome {
        self.outcomes
            .get(slot)
            .copied()
            .unwrap_or(TenantOutcome::Completed)
    }

    /// Number of tenants the machine killed.
    pub fn killed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_killed()).count()
    }

    /// One tenant's statistics.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn tenant(&self, slot: usize) -> &RunStats {
        &self.per_tenant[slot]
    }

    /// Unwraps the statistics of a single-tenant run.
    ///
    /// # Panics
    ///
    /// Panics if the machine ran more than one tenant.
    pub fn into_solo(self) -> RunStats {
        assert_eq!(
            self.per_tenant.len(),
            1,
            "into_solo on a {}-tenant run",
            self.per_tenant.len()
        );
        self.global
    }
}

impl RunStats {
    /// L1 DTLB misses per thousand instructions (Fig. 8).
    pub fn l1_mpki(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.mem.l1_misses() as f64 * 1000.0 / self.instructions as f64
    }

    /// Fraction of L1 misses eliminated relative to a baseline run
    /// (Fig. 10/16). Returns 1.0 when the baseline itself has no misses.
    pub fn l1_misses_eliminated_vs(&self, baseline: &RunStats) -> f64 {
        let base = baseline.mem.l1_misses();
        if base == 0 {
            return 1.0;
        }
        1.0 - self.mem.l1_misses() as f64 / base as f64
    }

    /// Fraction of page-walk memory references eliminated relative to a
    /// baseline run (Fig. 11).
    pub fn walk_refs_eliminated_vs(&self, baseline: &RunStats) -> f64 {
        if baseline.walk_refs == 0 {
            return 1.0;
        }
        1.0 - self.walk_refs as f64 / baseline.walk_refs as f64
    }

    /// Average walk memory references per walk.
    pub fn refs_per_walk(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.walk_refs as f64 / self.walks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(l1_misses: u64, walk_refs: u64) -> RunStats {
        RunStats {
            name: "t".into(),
            profile: WorkloadProfile::named("t"),
            mem: TlbStats {
                accesses: 1000,
                l1_hits: 1000 - l1_misses,
                stlb_hits: l1_misses,
                range_hits: 0,
                l2_misses: 0,
            },
            walks: walk_refs / 4,
            walk_refs,
            alias_extras: 0,
            ad_updates: 0,
            os: OsStats::default(),
            instructions: 10_000,
            full_instructions: 10_000,
            full_mem: TlbStats::default(),
            full_walk_refs: walk_refs,
            page_census: BTreeMap::new(),
            resident_bytes: 0,
            touched_bytes: 0,
            mmu_cache_hits: (0, 0, 0),
            hw_faults: HwFaultStats::default(),
        }
    }

    #[test]
    fn mpki() {
        let s = stats(50, 0);
        assert!((s.l1_mpki() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn elimination_ratios() {
        let base = stats(100, 400);
        let tps = stats(2, 8);
        assert!((tps.l1_misses_eliminated_vs(&base) - 0.98).abs() < 1e-9);
        assert!((tps.walk_refs_eliminated_vs(&base) - 0.98).abs() < 1e-9);
        assert_eq!(base.l1_misses_eliminated_vs(&base), 0.0);
    }

    #[test]
    fn vacuous_baseline() {
        let base = stats(0, 0);
        let other = stats(0, 0);
        assert_eq!(other.l1_misses_eliminated_vs(&base), 1.0);
        assert_eq!(other.walk_refs_eliminated_vs(&base), 1.0);
        assert_eq!(other.refs_per_walk(), 0.0);
    }
}
