//! Property tests of tenant fault containment: random kills interleaved
//! into multi-tenant runs must conserve buddy frames, leave the
//! survivors' statistics untouched by the victim's unexecuted tail, and
//! round-trip `Killed` outcomes through the report and journal JSON.

use proptest::prelude::*;
use std::path::PathBuf;
use tps_core::rng::Rng;
use tps_core::TenantFaultCause;
use tps_sim::{
    ExperimentSpec, MachineBuilder, MachineConfig, MachineRunStats, Mechanism, OnOom, RunOptions,
    TenantCount, TenantOutcome, TenantSpec,
};
use tps_wl::{Event, SuiteScale, Workload, WorkloadProfile};

const MIB: u64 = 1 << 20;

/// A tenant replaying a precomputed event script.
struct Scripted {
    name: &'static str,
    events: std::vec::IntoIter<Event>,
}

impl Scripted {
    fn new(name: &'static str, events: Vec<Event>) -> Self {
        Scripted {
            name,
            events: events.into_iter(),
        }
    }
}

impl Workload for Scripted {
    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile::named(self.name)
    }

    fn next_event(&mut self) -> Option<Event> {
        self.events.next()
    }
}

/// A well-behaved script: a few regions, a burst of accesses each, and an
/// munmap of every region before the stream ends.
fn benign_script(seed: u64) -> Vec<Event> {
    let mut rng = Rng::new(seed);
    let regions = 1 + rng.below(3) as u32;
    let mut events = Vec::new();
    for region in 0..regions {
        let bytes = MIB * (1 + rng.below(2));
        events.push(Event::Mmap { region, bytes });
        for _ in 0..64 {
            events.push(Event::Access {
                region,
                offset: rng.below(bytes),
                write: rng.chance(0.4),
            });
        }
    }
    events.extend((0..regions).map(|region| Event::Munmap { region }));
    events
}

/// A script that keeps mapping 1 MiB regions past any small cap.
fn greedy_script(seed: u64, regions: u32) -> Vec<Event> {
    let mut rng = Rng::new(seed);
    let mut events = Vec::new();
    for region in 0..regions {
        events.push(Event::Mmap { region, bytes: MIB });
        for _ in 0..24 {
            events.push(Event::Access {
                region,
                offset: rng.below(MIB),
                write: rng.chance(0.5),
            });
        }
    }
    events
}

fn run_pair(survivor_seed: u64, victim_events: Vec<Event>, cap: u64) -> MachineRunStats {
    let config = MachineConfig::for_mechanism(Mechanism::Tps).with_memory(64 * MIB);
    let victim = TenantSpec::workload(Scripted::new("victim", victim_events)).memory_cap(cap);
    MachineBuilder::new(config)
        .tenant(TenantSpec::workload(Scripted::new(
            "survivor",
            benign_script(survivor_seed),
        )))
        .tenant(victim)
        .on_oom(OnOom::FailFast)
        .build()
        .expect("two tenants form a valid machine")
        .run()
}

/// Interleaved random kills conserve buddy frames: a machine whose capped
/// tenant was killed mid-run still hands every frame back by the time the
/// survivor, which unmaps its own regions, retires.
fn kill_conserves_frames(
    survivor_seed: u64,
    victim_seed: u64,
    cap_mib: u64,
) -> Result<(), TestCaseError> {
    let config = MachineConfig::for_mechanism(Mechanism::Tps).with_memory(64 * MIB);
    let mut machine = MachineBuilder::new(config)
        .tenant(TenantSpec::workload(Scripted::new(
            "survivor",
            benign_script(survivor_seed),
        )))
        .tenant(
            TenantSpec::workload(Scripted::new("victim", greedy_script(victim_seed, 8)))
                .memory_cap(cap_mib * MIB),
        )
        .build()
        .expect("two tenants form a valid machine");
    let stats = machine.run();
    prop_assert_eq!(stats.killed_count(), 1, "the greedy tenant must die");
    machine
        .os()
        .buddy()
        .check_invariants()
        .map_err(TestCaseError::fail)?;
    prop_assert_eq!(
        machine.os().buddy().used_bytes(),
        0,
        "the kill's reclaim plus the survivor's munmaps must return every frame"
    );
    Ok(())
}

/// The reference run for [`survivors_unchanged`]: the same two scripts
/// driven through [`tps_sim::Machine::step`] in the machine's round-robin
/// order, the victim stopped after `kill_at` events by
/// [`tps_sim::Machine::kill_tenant`] — no fault involved.
fn run_stepped(survivor: Vec<Event>, mut victim: Vec<Event>, kill_at: u64) -> MachineRunStats {
    let config = MachineConfig::for_mechanism(Mechanism::Tps).with_memory(64 * MIB);
    let mut machine = MachineBuilder::new(config)
        .tenant(TenantSpec::external("survivor"))
        .tenant(TenantSpec::external("victim"))
        .build()
        .expect("two tenants form a valid machine");
    victim.truncate(kill_at as usize);
    let mut streams = [survivor.into_iter(), victim.into_iter()];
    let (mut live, mut cursor) = (vec![0, 1], 0);
    while !live.is_empty() {
        if cursor >= live.len() {
            cursor = 0;
        }
        let slot = live[cursor];
        match streams[slot].next() {
            Some(event) => {
                machine
                    .step(slot, event)
                    .expect("scripted events are valid");
                cursor += 1;
            }
            None => {
                live.remove(cursor);
                if slot == 1 {
                    machine.kill_tenant(1, TenantFaultCause::CapExceeded);
                }
            }
        }
    }
    machine.run()
}

/// Survivor determinism: killing the victim at event `k` must leave the
/// survivor's statistics byte-identical to a run where a driver stops the
/// victim after its `k` executed events (a cap kill fires before any OS
/// mutation, so the faulting event leaves no trace).
fn survivors_unchanged(
    survivor_seed: u64,
    victim_seed: u64,
    cap_mib: u64,
) -> Result<(), TestCaseError> {
    let victim_events = greedy_script(victim_seed, 8);
    let killed = run_pair(survivor_seed, victim_events.clone(), cap_mib * MIB);
    let at_event = match killed.outcome(1) {
        TenantOutcome::Killed { cause, at_event } => {
            prop_assert_eq!(cause, TenantFaultCause::CapExceeded);
            at_event
        }
        TenantOutcome::Completed => {
            return Err(TestCaseError::fail("victim was not killed"));
        }
    };
    let stopped = run_stepped(benign_script(survivor_seed), victim_events, at_event);
    prop_assert_eq!(stopped.killed_count(), 1);
    prop_assert_eq!(
        format!("{:?}", killed.per_tenant[0]),
        format!("{:?}", stopped.per_tenant[0]),
        "the survivor saw a different run"
    );
    Ok(())
}

/// `Killed` outcomes round-trip through the report JSON and the journal:
/// a resumed run replays the kill byte-identically.
fn killed_outcome_round_trips(seed: u64, cap_mib: u64) -> Result<(), TestCaseError> {
    let dir = std::env::temp_dir().join(format!("tps-containment-prop-{seed}-{cap_mib}"));
    std::fs::create_dir_all(&dir).map_err(|e| TestCaseError::fail(e.to_string()))?;
    let path: PathBuf = dir.join("kill.ckpt");
    std::fs::remove_file(&path).ok();
    let matrix = ExperimentSpec::new()
        .bench("gups")
        .mechanisms([Mechanism::Tps])
        .scale(SuiteScale::Test)
        .seed(seed)
        .tenants(TenantCount::new(2).expect("2 tenants is in range"))
        .tenant_cap(1, cap_mib * MIB)
        .threads(1)
        .build()
        .expect("spec is valid");
    let first = matrix
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            ..RunOptions::default()
        })
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    let report = first.to_json();
    prop_assert!(report.contains("\"outcome\": \"killed\""), "{}", report);
    prop_assert!(report.contains("\"cause\": \"cap-exceeded\""), "{}", report);
    let resumed = matrix
        .run_with(&RunOptions {
            resume: Some(path.clone()),
            ..RunOptions::default()
        })
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(report, resumed.to_json(), "resume changed the kill bytes");
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// An SMT cell whose sibling thread runs out of shared memory reports the
/// kill under either OOM policy — the cell's statistics are the primary
/// thread's, its outcomes both threads' — and the kill survives a
/// checkpoint/resume round-trip byte for byte.
#[test]
fn smt_sibling_kill_shows_in_the_report_and_survives_resume() {
    for policy in [OnOom::FailFast, OnOom::KillVictim] {
        let dir = std::env::temp_dir().join(format!("tps-containment-smt-{policy}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("smt.ckpt");
        std::fs::remove_file(&path).ok();
        let matrix = ExperimentSpec::new()
            .bench("gups")
            .mechanisms([Mechanism::Tps])
            .scale(SuiteScale::Test)
            .smt(true)
            .memory(24 * MIB)
            .seed(7)
            .on_oom(policy)
            .threads(1)
            .build()
            .expect("spec is valid");
        let first = matrix
            .run_with(&RunOptions {
                checkpoint: Some(path.clone()),
                ..RunOptions::default()
            })
            .unwrap();
        let machine = first.cells()[0].result.as_ref().unwrap();
        assert_eq!(
            machine.per_tenant.len(),
            1,
            "{policy}: projected to the primary"
        );
        assert_eq!(
            machine.outcomes.len(),
            2,
            "{policy}: both threads' outcomes"
        );
        assert_eq!(machine.killed_count(), 1, "{policy}");
        let report = first.to_json();
        assert!(
            report.contains("\"outcome\": \"killed\""),
            "{policy}: {report}"
        );
        assert!(report.contains("\"cause\": \"oom\""), "{policy}: {report}");
        let resumed = matrix
            .run_with(&RunOptions {
                resume: Some(path.clone()),
                ..RunOptions::default()
            })
            .unwrap();
        assert_eq!(
            report,
            resumed.to_json(),
            "{policy}: resume changed the kill bytes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Regression seeds worth keeping pinned (the deterministic proptest
/// shim does not persist failures).
#[test]
fn containment_regression_seeds() {
    kill_conserves_frames(11, 42, 2).unwrap_or_else(|e| panic!("conserve 11/42/2: {e:?}"));
    survivors_unchanged(7, 1001, 3).unwrap_or_else(|e| panic!("survivors 7/1001/3: {e:?}"));
    killed_outcome_round_trips(0xfeed, 1).unwrap_or_else(|e| panic!("roundtrip: {e:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_kills_conserve_buddy_frames(
        survivor_seed in 0u64..100_000,
        victim_seed in 0u64..100_000,
        cap_mib in 1u64..5,
    ) {
        kill_conserves_frames(survivor_seed, victim_seed, cap_mib)?;
    }

    #[test]
    fn survivors_are_unchanged_by_the_victims_unexecuted_tail(
        survivor_seed in 0u64..100_000,
        victim_seed in 0u64..100_000,
        cap_mib in 1u64..5,
    ) {
        survivors_unchanged(survivor_seed, victim_seed, cap_mib)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn killed_outcomes_round_trip_through_report_and_journal(
        seed in 0u64..10_000,
        cap_mib in 1u64..3,
    ) {
        killed_outcome_round_trips(seed, cap_mib)?;
    }
}
