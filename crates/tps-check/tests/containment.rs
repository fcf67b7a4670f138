//! The headline containment claim: hundreds of seeded multi-tenant
//! schedules full of hogs, cap overrunners, malformed event streams and
//! injected allocation faults complete with zero panics, a conserved
//! buddy state after every kill, per-tenant statistics that sum exactly
//! to the rollup, and byte-for-byte reproducible kill sequences.

use tps_check::containment::{run_containment_campaign, DEFAULT_CONFIG};

#[test]
fn containment_campaign_holds_every_contract() {
    let config = DEFAULT_CONFIG;
    assert!(
        config.schedules >= 200,
        "the campaign must stay substantial"
    );
    let report = run_containment_campaign(&config);
    for failure in &report.failures {
        eprintln!("FAIL {failure}");
    }
    assert!(report.passed(), "{}", report.summary());
    assert_eq!(report.schedules, config.schedules);
    // The cast guarantees the campaign actually exercised every kill
    // path, not just fault-free runs.
    assert!(report.kills > 0, "{}", report.summary());
    assert!(report.oom_kills > 0, "{}", report.summary());
    assert!(report.cap_kills > 0, "{}", report.summary());
    assert!(report.bad_event_kills > 0, "{}", report.summary());
    assert!(report.completed > 0, "{}", report.summary());
    assert!(report.manual > 0, "{}", report.summary());
    assert!(report.armed > 0, "{}", report.summary());
}

#[test]
fn one_pinned_schedule_replays_in_isolation() {
    let config = DEFAULT_CONFIG;
    tps_check::containment::run_schedule(&config, 0).expect("schedule 0 upholds the contracts");
}
