//! The sharing claim: seeded schedules of fork, copy-on-write writes,
//! `mprotect`, page merging and `munmap` over THP 2 MB pages and TPS
//! tailored pages, under both CoW policies, hold every cross-layer
//! invariant after every operation — frame-share conservation and
//! isolation included — and tear down to an empty machine.

use tps_check::sharing::{run_sharing_campaign, DEFAULT_CONFIG};

#[test]
fn sharing_campaign_holds_every_invariant() {
    let config = DEFAULT_CONFIG;
    let report = run_sharing_campaign(&config);
    for failure in &report.failures {
        eprintln!("FAIL {failure}");
    }
    assert!(report.passed(), "{}", report.summary());
    assert_eq!(report.schedules, config.schedules);
    // Every path the campaign exists for really ran.
    for (what, n) in [
        ("forks", report.forks),
        ("CoW faults", report.cow_faults),
        ("mprotects", report.mprotects),
        ("refusals", report.refusals),
        ("merges", report.merges),
        ("munmaps", report.munmaps),
        ("splits of 2 MB+ pages", report.large_splits),
    ] {
        assert!(n > 0, "no {what}: {}", report.summary());
    }
    eprintln!("{}", report.summary());
}

#[test]
fn one_pinned_schedule_per_setup_replays_in_isolation() {
    for schedule in 0..4 {
        tps_check::sharing::run_schedule(&DEFAULT_CONFIG, schedule)
            .unwrap_or_else(|e| panic!("schedule {schedule}: {e}"));
    }
}
