//! The execution-time model: `T = T_IDEAL + T_L1DTLBM + T_PW`, exactly
//! the decomposition the paper uses in §IV-B. System time (Fig. 17) is
//! not part of it: the Fig. 17 harness reads `RunStats::os` directly.
//!
//! The paper measures `T_L1DTLBM` with ZSim and calibrates the
//! savable-walk-cycle fraction from hardware performance counters; here
//! both per-workload factors live in the [`tps_wl::WorkloadProfile`]
//! (documented substitution, DESIGN.md §2).

use crate::stats::RunStats;

/// Cycle-cost constants of the timing model.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TimingModel {
    /// Cycles to complete a translation from the STLB after an L1 miss.
    pub stlb_hit_cycles: f64,
    /// Average cycles per page-walk memory reference (PTE reads hit the
    /// cache hierarchy at mixed levels).
    pub walk_ref_cycles: f64,
    /// Extra cycles for a Range-TLB-provided translation (PTE construction
    /// after the parallel STLB/Range lookup).
    pub range_hit_cycles: f64,
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel {
            stlb_hit_cycles: 9.0,
            walk_ref_cycles: 25.0,
            // The Range TLB is probed in parallel with the STLB; PTE
            // construction adds a trivial extra on top of the same latency
            // class.
            range_hit_cycles: 10.0,
        }
    }
}

/// The decomposed execution time of one run, in cycles.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TimingBreakdown {
    /// Ideal execution time (no translation overhead).
    pub t_ideal: f64,
    /// Time lost to L1 TLB misses that hit the L2 level.
    pub t_l1dtlbm: f64,
    /// Time lost to page walks (savable fraction of walker cycles).
    pub t_pw: f64,
    /// Raw page-walker-active cycles (the hardware counter `PWC`; only the
    /// savable fraction appears in `t_pw`).
    pub pwc: f64,
}

impl TimingBreakdown {
    /// Total execution time.
    pub fn total(&self) -> f64 {
        self.t_ideal + self.t_l1dtlbm + self.t_pw
    }

    /// Fraction of execution time the walker was active (paper Fig. 2's
    /// counter-based metric).
    pub fn walk_active_fraction(&self) -> f64 {
        self.pwc / self.total()
    }

    /// Speedup of `self` relative to `baseline` (>1 means faster).
    pub fn speedup_over(&self, baseline: &TimingBreakdown) -> f64 {
        baseline.total() / self.total()
    }
}

impl TimingModel {
    /// Evaluates the decomposition for the measured region of one run.
    ///
    /// `smt` applies the workload's core-sharing slowdown to the ideal
    /// term (non-TLB contention), as in the paper's Fig. 14 discussion.
    pub fn evaluate(&self, stats: &RunStats, smt: bool) -> TimingBreakdown {
        let p = &stats.profile;
        let smt_factor = if smt { p.smt_slowdown } else { 1.0 };
        let t_ideal = stats.instructions as f64 * p.base_cpi * smt_factor;
        let t_l1dtlbm = (stats.mem.stlb_hits as f64 * self.stlb_hit_cycles
            + stats.mem.range_hits as f64 * self.range_hit_cycles)
            * p.l1_miss_criticality;
        let pwc = stats.walk_refs as f64 * self.walk_ref_cycles;
        let t_pw = pwc * p.walk_savable;
        TimingBreakdown {
            t_ideal,
            t_l1dtlbm,
            t_pw,
            pwc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tps_os::OsStats;
    use tps_tlb::TlbStats;
    use tps_wl::WorkloadProfile;

    fn stats(l1_misses: u64, walk_refs: u64) -> RunStats {
        let mut profile = WorkloadProfile::named("t");
        profile.base_cpi = 0.5;
        profile.insts_per_access = 4.0;
        profile.l1_miss_criticality = 0.5;
        profile.walk_savable = 0.8;
        profile.smt_slowdown = 1.4;
        RunStats {
            name: "t".into(),
            profile,
            mem: TlbStats {
                accesses: 1_000_000,
                l1_hits: 1_000_000 - l1_misses,
                stlb_hits: l1_misses,
                range_hits: 0,
                l2_misses: 0,
            },
            walks: walk_refs / 4,
            walk_refs,
            alias_extras: 0,
            ad_updates: 0,
            os: OsStats {
                op_cycles: 10_000,
                ..Default::default()
            },
            instructions: 4_000_000,
            full_instructions: 4_000_000,
            full_mem: TlbStats {
                accesses: 1_000_000,
                l1_hits: 1_000_000 - l1_misses,
                stlb_hits: l1_misses,
                range_hits: 0,
                l2_misses: 0,
            },
            full_walk_refs: walk_refs,
            page_census: BTreeMap::new(),
            resident_bytes: 0,
            touched_bytes: 0,
            mmu_cache_hits: (0, 0, 0),
            hw_faults: crate::stats::HwFaultStats::default(),
        }
    }

    #[test]
    fn decomposition_adds_up() {
        let model = TimingModel::default();
        let b = model.evaluate(&stats(10_000, 40_000), false);
        assert!((b.total() - (b.t_ideal + b.t_l1dtlbm + b.t_pw)).abs() < 1e-6);
        assert!(b.t_ideal > 0.0 && b.t_l1dtlbm > 0.0 && b.t_pw > 0.0);
        // t_ideal = 4M * 0.5 = 2M; t_l1dtlbm = 10k * 9 * 0.5 = 45k.
        assert!((b.t_ideal - 2_000_000.0).abs() < 1.0);
        assert!((b.t_l1dtlbm - 45_000.0).abs() < 1.0);
        assert!((b.pwc - 1_000_000.0).abs() < 1.0);
        assert!((b.t_pw - 800_000.0).abs() < 1.0);
    }

    #[test]
    fn fewer_misses_means_speedup() {
        let model = TimingModel::default();
        let base = model.evaluate(&stats(50_000, 200_000), false);
        let tps = model.evaluate(&stats(1_000, 4_000), false);
        let speedup = tps.speedup_over(&base);
        assert!(speedup > 1.5, "speedup {speedup}");
        assert!(base.speedup_over(&base) == 1.0);
    }

    #[test]
    fn smt_scales_ideal_time() {
        let model = TimingModel::default();
        let native = model.evaluate(&stats(0, 0), false);
        let smt = model.evaluate(&stats(0, 0), true);
        assert!((smt.t_ideal / native.t_ideal - 1.4).abs() < 1e-9);
    }

    #[test]
    fn fractions_bounded() {
        let model = TimingModel::default();
        let b = model.evaluate(&stats(10_000, 40_000), false);
        assert!(b.walk_active_fraction() > 0.0 && b.walk_active_fraction() < 1.0);
    }
}
