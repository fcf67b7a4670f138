//! End-to-end integration: the full benchmark suite under every mechanism,
//! with translation verification enabled — every TLB-provided translation
//! is cross-checked against the page table on every access.

use tps::sim::{MachineBuilder, MachineConfig, Mechanism, TenantSpec};
use tps::wl::{default_suite_seed, suite_names, SuiteScale};

fn run(name: &str, mech: Mechanism) -> tps::sim::RunStats {
    let config = MachineConfig::for_mechanism(mech)
        .with_memory(SuiteScale::Test.recommended_memory())
        .with_verification();
    MachineBuilder::new(config)
        .tenant(TenantSpec::suite(
            name,
            SuiteScale::Test,
            default_suite_seed(name),
        ))
        .build()
        .expect("one tenant builds")
        .run()
        .into_solo()
}

#[test]
fn every_benchmark_translates_correctly_under_every_mechanism() {
    for name in suite_names() {
        for mech in [
            Mechanism::Only4K,
            Mechanism::Thp,
            Mechanism::Colt,
            Mechanism::Rmm,
            Mechanism::Tps,
            Mechanism::TpsEager,
        ] {
            // with_verification() asserts translation correctness inside.
            let stats = run(name, mech);
            assert!(stats.mem.accesses > 0, "{name}/{mech}");
            assert_eq!(
                stats.mem.l1_hits
                    + stats.mem.stlb_hits
                    + stats.mem.range_hits
                    + stats.mem.l2_misses,
                stats.mem.accesses,
                "{name}/{mech}: outcome counts must partition accesses"
            );
        }
    }
}

#[test]
fn tps_dominates_thp_on_l1_misses_across_the_suite() {
    for name in suite_names() {
        let thp = run(name, Mechanism::Thp);
        let tps = run(name, Mechanism::Tps);
        // Allow a handful of misses of slack: at test scale some baselines
        // are already near-perfect and TPS's different fill order can cost
        // a few compulsory-adjacent misses.
        assert!(
            tps.mem.l1_misses() <= thp.mem.l1_misses() + 16,
            "{name}: TPS {} vs THP {}",
            tps.mem.l1_misses(),
            thp.mem.l1_misses()
        );
    }
}

#[test]
fn tps_eliminates_almost_all_walk_refs() {
    for name in suite_names() {
        let thp = run(name, Mechanism::Thp);
        let tps = run(name, Mechanism::Tps);
        let elim = tps.walk_refs_eliminated_vs(&thp);
        assert!(
            elim > 0.5 || thp.walk_refs < 100,
            "{name}: walk-ref elimination only {:.1}% ({} vs {})",
            100.0 * elim,
            tps.walk_refs,
            thp.walk_refs
        );
    }
}

#[test]
fn rmm_walks_less_than_thp() {
    for name in suite_names() {
        let thp = run(name, Mechanism::Thp);
        let rmm = run(name, Mechanism::Rmm);
        assert!(
            rmm.full_walk_refs <= thp.full_walk_refs,
            "{name}: RMM {} vs THP {}",
            rmm.full_walk_refs,
            thp.full_walk_refs
        );
    }
}

#[test]
fn thp_census_is_conventional_only() {
    for name in suite_names() {
        let thp = run(name, Mechanism::Thp);
        for order in thp.page_census.keys() {
            assert!(!order.is_tailored(), "{name}: THP produced a {order} page");
        }
    }
}

#[test]
fn tps_conservative_threshold_never_bloats() {
    for name in suite_names() {
        let only4k = run(name, Mechanism::Only4K);
        let tps = run(name, Mechanism::Tps);
        assert_eq!(
            tps.resident_bytes, only4k.resident_bytes,
            "{name}: 100% promotion threshold guarantees 4K-identical residency"
        );
    }
}

#[test]
fn deterministic_across_identical_runs() {
    for mech in [Mechanism::Thp, Mechanism::Tps] {
        let a = run("xsbench", mech);
        let b = run("xsbench", mech);
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.walk_refs, b.walk_refs);
        assert_eq!(a.page_census, b.page_census);
    }
}
