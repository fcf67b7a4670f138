//! The headline artifact-robustness claim: a pinned-seed chaos campaign
//! of kill / corruption / I/O-storm schedules over the experiment
//! engine's checkpoint journal and report publication path completes
//! with zero contract violations.
//!
//! Every schedule is a pure function of the pinned campaign seed and its
//! index, so a failure here is replayable in isolation with
//! `chaos::run_schedule` at the (schedule, seed) pair the assertion
//! message prints.

use tps_check::chaos::{run_chaos_campaign, scratch_dir, DEFAULT_CONFIG};

#[test]
fn chaos_campaign_holds_every_artifact_contract() {
    let config = DEFAULT_CONFIG;
    assert!(
        config.schedules >= 200,
        "the acceptance bar is >= 200 pinned-seed schedules"
    );
    let dir = scratch_dir("campaign");
    let report = run_chaos_campaign(&config, &dir);
    assert_eq!(report.schedules, config.schedules);
    // Every schedule family actually ran.
    assert!(report.kills > 0 && report.corruptions > 0 && report.io_storms > 0);
    // Every family exercised its success path at least once: kills that
    // resumed byte-identically, corruptions that were caught, damaged
    // journals that salvage recovered.
    assert!(report.resumed > 0, "{}", report.summary());
    assert!(report.detected > 0, "{}", report.summary());
    assert!(report.salvaged > 0, "{}", report.summary());
    assert!(
        report.passed(),
        "chaos campaign failed — replay with chaos::run_schedule:\n{}\n{}",
        report.summary(),
        report
            .failures
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    std::fs::remove_dir_all(&dir).ok();
}
