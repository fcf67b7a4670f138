//! Golden corpus: pinned-seed report JSONs that every change must
//! reproduce byte for byte.
//!
//! Each case builds an [`ExperimentSpec`] at test scale with seed 7, runs
//! it and compares `to_json()` with `tests/golden/<name>.json`. The cases
//! cover every mechanism, multi-tenant, SMT and virtualized cells, injected
//! faults with retries, capped kills and OOM kills under faults, so they
//! pin per-tenant OS and hardware-fault values rather than only
//! self-consistency.
//!
//! On a mismatch the test writes the new bytes to
//! `target/golden-actual/<name>.json` and fails naming that path. A change
//! that alters behaviour on purpose copies those files over the corpus and
//! explains the difference in its change notes.

use std::path::{Path, PathBuf};
use tps::core::FaultPlanConfig;
use tps::prelude::*;

const SEED: u64 = 7;

fn base() -> ExperimentSpec {
    ExperimentSpec::new()
        .scale(SuiteScale::Test)
        .seed(SEED)
        .threads(2)
}

fn tenants(n: u32) -> TenantCount {
    TenantCount::new(n).expect("static tenant count")
}

fn tps_thp() -> [Mechanism; 2] {
    [Mechanism::Tps, Mechanism::Thp]
}

/// Every corpus entry: file stem and the spec that produces it.
fn cases() -> Vec<(&'static str, ExperimentSpec)> {
    vec![
        ("gups-all", base().bench("gups").all_mechanisms()),
        ("xsbench-all", base().bench("xsbench").all_mechanisms()),
        ("graph500-all", base().bench("graph500").all_mechanisms()),
        (
            "gups-tenants8",
            base()
                .bench("gups")
                .mechanisms(tps_thp())
                .tenants(tenants(8)),
        ),
        (
            "gups-smt",
            base().bench("gups").mechanisms(tps_thp()).smt(true),
        ),
        (
            "gups-virtualized",
            base()
                .bench("gups")
                .mechanisms([Mechanism::Thp, Mechanism::Tps])
                .virtualized(true),
        ),
        (
            "gups-faulted",
            base()
                .bench("gups")
                .all_mechanisms()
                .faults(FaultPlanConfig::uniform_all(SEED, 0.02))
                .retries(2),
        ),
        (
            "gups-faulted-tenants8",
            base()
                .bench("gups")
                .all_mechanisms()
                .faults(FaultPlanConfig::uniform_all(SEED, 0.02))
                .retries(2)
                .tenants(tenants(8)),
        ),
        (
            "gups-capped-kill",
            base()
                .bench("gups")
                .mechanisms(tps_thp())
                .tenants(tenants(8))
                .tenant_cap(3, 4 << 20)
                .on_oom(OnOom::KillVictim),
        ),
        (
            "gups-oom-kills-faulted",
            base()
                .bench("gups")
                .mechanisms(tps_thp())
                .tenants(tenants(8))
                .on_oom(OnOom::KillVictim)
                .memory(32 << 20)
                .faults(FaultPlanConfig::uniform(SEED, 0.02)),
        ),
    ]
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn reports_match_the_golden_corpus() {
    let golden_dir = manifest_dir().join("tests/golden");
    let actual_dir = manifest_dir().join("target/golden-actual");
    let mut mismatched: Vec<PathBuf> = Vec::new();
    for (name, spec) in cases() {
        let json = spec.build().expect("static spec is valid").run().to_json();
        let file = format!("{name}.json");
        let expected = std::fs::read_to_string(golden_dir.join(&file)).unwrap_or_default();
        if json != expected {
            std::fs::create_dir_all(&actual_dir).expect("target dir is writable");
            let path = actual_dir.join(&file);
            std::fs::write(&path, &json).expect("target dir is writable");
            mismatched.push(path);
        }
    }
    assert!(
        mismatched.is_empty(),
        "reports differ from tests/golden; new bytes written to {mismatched:#?}"
    );
}

#[test]
fn corpus_exercises_kills() {
    // Guards the corpus against silently losing its containment cases.
    let golden_dir = manifest_dir().join("tests/golden");
    let read = |name: &str| {
        std::fs::read_to_string(golden_dir.join(format!("{name}.json"))).expect("corpus file")
    };
    assert!(read("gups-capped-kill").contains("\"cause\": \"cap-exceeded\""));
    assert!(read("gups-oom-kills-faulted").contains("\"outcome\": \"killed\""));
    assert!(read("gups-tenants8").contains("\"tenants\": 8"));
}
