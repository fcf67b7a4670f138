//! Integration gate for the experiment runner's determinism contract:
//! the aggregated JSON of a parallel run must be byte-identical to the
//! serial run of the same spec — including under fault injection with
//! retries — a memory-starved cell must contain the kill as a structured
//! tenant outcome without aborting the rest of the matrix, and a resumed
//! run must reproduce an uninterrupted run byte-for-byte.

use tps::core::{FaultPlanConfig, TenantFaultCause};
use tps::prelude::*;
use tps::sim::{RunOptions, TenantOutcome};

/// The pinned seed every test in this file uses, so the gate exercises
/// one fixed matrix rather than whatever the default happens to be.
const PINNED_SEED: u64 = 0x7e57_0bad_cafe_f00d;

fn gups_matrix(threads: usize) -> ExperimentReport {
    ExperimentSpec::new()
        .bench("gups")
        .mechanisms([Mechanism::Only4K, Mechanism::Thp, Mechanism::Tps])
        .scale(SuiteScale::Test)
        .seed(PINNED_SEED)
        .threads(threads)
        .build()
        .expect("static spec is valid")
        .run()
}

#[test]
fn parallel_json_is_byte_identical_to_serial() {
    let serial = gups_matrix(1).to_json();
    let parallel = gups_matrix(4).to_json();
    assert_eq!(serial, parallel, "thread count changed the report bytes");
    // The document is versioned and carries the pinned seed, not the
    // thread count.
    assert!(serial.contains(&format!("\"schema\": \"{REPORT_SCHEMA}\"")));
    assert!(serial.contains(&format!("\"version\": {REPORT_VERSION}")));
    assert!(serial.contains(&format!("\"seed\": {PINNED_SEED}")));
    assert!(!serial.contains("thread"));
}

#[test]
fn parallel_report_matches_serial_cell_for_cell() {
    let serial = gups_matrix(1);
    let parallel = gups_matrix(4);
    assert_eq!(serial.cells().len(), 3);
    for (a, b) in serial.cells().iter().zip(parallel.cells()) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.mechanism, b.mechanism);
        assert_eq!(a.seed, b.seed);
        let (sa, sb) = (
            &a.result.as_ref().unwrap().global,
            &b.result.as_ref().unwrap().global,
        );
        assert_eq!(sa.mem.accesses, sb.mem.accesses);
        assert_eq!(sa.mem.l1_misses(), sb.mem.l1_misses());
        assert_eq!(sa.walk_refs, sb.walk_refs);
        assert_eq!(sa.os.faults, sb.os.faults);
    }
}

#[test]
fn memory_starved_cell_is_contained_not_failed() {
    // 1 MiB of physical memory cannot hold even the test-scale GUPS
    // table, so every cell's machine kills its tenant at the first
    // allocation it cannot back. The kill is containment, not a cell
    // failure: the cell completes with a structured `Killed` outcome
    // and the rest of the matrix keeps running.
    let report = ExperimentSpec::new()
        .bench("gups")
        .mechanisms([Mechanism::Thp, Mechanism::Tps])
        .scale(SuiteScale::Test)
        .seed(PINNED_SEED)
        .memory(1 << 20)
        .threads(2)
        .build()
        .expect("static spec is valid")
        .run();
    assert_eq!(report.cells().len(), 2, "no cell was dropped");
    assert_eq!(report.error_count(), 0, "containment is not a failure");
    for cell in report.cells() {
        let machine = cell.result.as_ref().expect("cell must complete");
        assert_eq!(machine.killed_count(), 1);
        match machine.outcome(0) {
            TenantOutcome::Killed { cause, .. } => {
                assert_eq!(cause, TenantFaultCause::Oom)
            }
            TenantOutcome::Completed => panic!("tenant must be killed"),
        }
    }
    let json = report.to_json();
    assert!(json.contains("\"outcome\": \"killed\""));
    assert!(json.contains("\"cause\": \"oom\""));
    assert!(!json.contains("\"cause\": \"panic\""));
}

/// A spec with faults armed on every OS and hardware site plus a retry
/// budget — the resilient configuration the determinism contract must
/// also hold for.
fn faulted_spec(threads: usize) -> ExperimentSpec {
    let plan = FaultPlanConfig {
        buddy_alloc: 0.02,
        reserve_span: 0.05,
        compaction_step: 0.05,
        shootdown_deliver: 0.05,
        walk_step: 0.02,
        alias_install: 0.02,
        mmu_cache_fill: 0.02,
        any_size_fill: 0.02,
        any_size_evict: 0.02,
        stlb_probe: 0.02,
        ..FaultPlanConfig::disabled(PINNED_SEED)
    };
    ExperimentSpec::new()
        .bench("gups")
        .mechanisms([Mechanism::Thp, Mechanism::Tps])
        .scale(SuiteScale::Test)
        .seed(PINNED_SEED)
        .faults(plan)
        .retries(2)
        .threads(threads)
}

#[test]
fn faulted_retried_runs_stay_byte_identical_across_thread_counts() {
    let serial = faulted_spec(1).build().expect("valid spec").run();
    let parallel = faulted_spec(4).build().expect("valid spec").run();
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "fault injection with retries broke the determinism contract"
    );
    // The faulted run did real work and absorbed real hardware faults.
    let stats = serial
        .stats("gups", Mechanism::Tps)
        .expect("faulted cell still completes");
    assert!(
        stats.hw_faults.values().iter().sum::<u64>() > 0,
        "{:?}",
        stats.hw_faults
    );
}

#[test]
fn resumed_run_matches_uninterrupted_run_byte_for_byte() {
    let dir = std::env::temp_dir().join("tps-matrix-determinism-resume");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("matrix.ckpt");

    let uninterrupted = gups_matrix(2).to_json();

    // Journal a full run, then truncate the journal to the header plus
    // one completed cell — the deterministic stand-in for a kill.
    let matrix = ExperimentSpec::new()
        .bench("gups")
        .mechanisms([Mechanism::Only4K, Mechanism::Thp, Mechanism::Tps])
        .scale(SuiteScale::Test)
        .seed(PINNED_SEED)
        .threads(2)
        .build()
        .expect("static spec is valid");
    matrix
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            ..RunOptions::default()
        })
        .expect("journal is writable");
    let text = std::fs::read_to_string(&path).unwrap();
    let partial: Vec<&str> = text.lines().take(2).collect();
    std::fs::write(&path, format!("{}\n", partial.join("\n"))).unwrap();

    let resumed = matrix
        .run_with(&RunOptions {
            resume: Some(path.clone()),
            ..RunOptions::default()
        })
        .expect("journal is readable")
        .to_json();
    assert_eq!(resumed, uninterrupted, "resume changed the report bytes");
    std::fs::remove_dir_all(&dir).ok();
}
