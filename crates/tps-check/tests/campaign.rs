//! The headline robustness claims, as executable tests:
//!
//! 1. ~1,000 randomized seeded mmap/fault/munmap/compact schedules under
//!    injected faults complete with zero panics and every cross-layer
//!    invariant held.
//! 2. The injection hooks are zero-cost by default: a schedule run with
//!    no injector and the same schedule run with a never-faulting plan
//!    produce byte-identical OS statistics and free-list state.

use tps_check::campaign::{
    run_campaign, run_schedule_with_injector, CampaignConfig, CampaignReport,
};
use tps_check::{FaultPlan, FaultPlanConfig};

/// 1,000 schedules × 48 ops, faults injected at every site, audits every
/// 8 ops plus a full audit and leak check at each teardown. Zero panics is
/// implicit (a panic fails the test); zero violations is asserted.
#[test]
fn thousand_fault_injected_schedules_hold_every_invariant() {
    let cfg = CampaignConfig {
        schedules: 1000,
        ..CampaignConfig::default()
    };
    let report = run_campaign(&cfg);
    assert_eq!(report.schedules_run, 1000);
    assert!(
        report.violations.is_empty(),
        "invariant violations ({} shown, {} truncated): {:#?}",
        report.violations.len().min(CampaignReport::MAX_VIOLATIONS),
        report.violations_truncated,
        report.violations
    );
    // The campaign must have actually exercised the fault machinery, not
    // merely survived an idle run.
    assert!(report.faults_injected > 1000, "faults were injected");
    assert!(report.os.faults > 10_000, "schedules did real paging work");
    assert!(
        report.os.oom_fallbacks > 0,
        "allocation denial degraded to 4K"
    );
    assert!(
        report.os.compaction_aborts > 0,
        "compaction was interrupted"
    );
    assert!(
        report.os.shootdowns_retried > 0,
        "dropped shootdowns were retried"
    );
    assert!(report.os.promotions > 0, "promotion machinery kept working");
}

/// Torture variant: every site faults at high probability. Much more
/// degradation, still zero violations.
#[test]
fn high_probability_torture_schedules_stay_consistent() {
    let cfg = CampaignConfig {
        schedules: 100,
        plan: FaultPlanConfig::uniform(0, 0.6),
        seed: 0x0123_4567_89ab_cdef,
        ..CampaignConfig::default()
    };
    let report = run_campaign(&cfg);
    assert!(
        report.violations.is_empty(),
        "torture violations: {:#?}",
        report.violations
    );
    assert!(
        report.faults_injected > report.schedules_run,
        "torture really hurt"
    );
}

/// Zero-cost default: for many seeds, running with no injector installed
/// and running with a never-faulting `FaultPlan` installed produce
/// byte-identical statistics, free bytes, and free-list histograms.
#[test]
fn disabled_injection_is_byte_identical_to_no_injector() {
    let cfg = CampaignConfig::default();
    for seed in 0..25u64 {
        let bare = run_schedule_with_injector(&cfg, seed, None);
        let (handle, plan) = FaultPlan::handles(FaultPlanConfig::disabled(seed));
        let hooked = run_schedule_with_injector(&cfg, seed, Some(handle));
        assert!(
            bare.violations.is_empty(),
            "seed {seed}: {:?}",
            bare.violations
        );
        assert!(
            hooked.violations.is_empty(),
            "seed {seed}: {:?}",
            hooked.violations
        );
        assert_eq!(bare.stats, hooked.stats, "seed {seed}: OsStats diverged");
        assert_eq!(bare.free_bytes, hooked.free_bytes, "seed {seed}");
        assert_eq!(bare.histogram, hooked.histogram, "seed {seed}");
        assert!(
            plan.borrow().consultations() > 0,
            "seed {seed}: the disabled plan was really installed and consulted"
        );
    }
}
