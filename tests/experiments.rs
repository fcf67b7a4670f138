//! Experiment-level invariants: the headline result shapes the figure
//! harnesses rely on, checked at test scale so regressions are caught by
//! `cargo test`.

use tps::mem::{BuddyAllocator, FragmentParams, Fragmenter};
use tps::sim::{MachineBuilder, MachineConfig, Mechanism, TenantSpec, TimingModel};
use tps::wl::{default_suite_seed, SuiteScale};
use tps_bench_shapes::*;

/// Helpers shared by the shape tests.
mod tps_bench_shapes {
    use super::*;

    pub fn run(name: &str, mech: Mechanism) -> tps::sim::RunStats {
        run_with(name, mech, |c| c)
    }

    pub fn run_with(
        name: &str,
        mech: Mechanism,
        tweak: impl FnOnce(MachineConfig) -> MachineConfig,
    ) -> tps::sim::RunStats {
        let config = tweak(
            MachineConfig::for_mechanism(mech).with_memory(SuiteScale::Test.recommended_memory()),
        );
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
}

#[test]
fn fig03_shape_perfect_l1_speedup_positive_for_pointer_chasers() {
    let model = TimingModel::default();
    let perfect_l2 = run_with("mcf", Mechanism::Thp, |mut c| {
        c.perfect_l2 = true;
        c
    });
    let perfect_l1 = run_with("mcf", Mechanism::Thp, |mut c| {
        c.perfect_l1 = true;
        c
    });
    let speedup = model
        .evaluate(&perfect_l1, false)
        .speedup_over(&model.evaluate(&perfect_l2, false));
    assert!(speedup >= 1.0, "perfect L1 can never lose: {speedup}");
}

#[test]
fn fig09_shape_2m_only_bloats_sparse_workloads() {
    // dbx1000's zipf-touched table is sparse at test scale.
    let only4k = run("dbx1000", Mechanism::Only4K);
    let only2m = run("dbx1000", Mechanism::Only2M);
    assert!(
        only2m.resident_bytes >= only4k.resident_bytes,
        "2M-only cannot be smaller"
    );
}

#[test]
fn fig10_shape_ordering_tps_geq_colt_geq_zero() {
    for name in ["gcc", "xsbench", "dbx1000"] {
        let base = run(name, Mechanism::Thp);
        if base.mem.l1_misses() < 1000 {
            continue; // no signal at this scale
        }
        let tps = run(name, Mechanism::Tps).l1_misses_eliminated_vs(&base);
        let colt = run(name, Mechanism::Colt).l1_misses_eliminated_vs(&base);
        assert!(tps >= colt - 0.05, "{name}: TPS {tps} vs CoLT {colt}");
        assert!(tps > 0.5, "{name}: TPS elimination too weak: {tps}");
    }
}

#[test]
fn fig11_shape_tps_beats_rmm_on_gcc_walks() {
    // The paper's specific claim: gcc's many ranges overflow the 32-entry
    // Range TLB, while TPS pages survive in the (bigger) STLB.
    let base = run("gcc", Mechanism::Thp);
    let tps = run("gcc", Mechanism::Tps).walk_refs_eliminated_vs(&base);
    let rmm = run("gcc", Mechanism::Rmm).walk_refs_eliminated_vs(&base);
    assert!(
        tps > rmm,
        "TPS must out-eliminate RMM on gcc: TPS {tps:.3} vs RMM {rmm:.3}"
    );
}

#[test]
fn fig14_shape_smt_hurts_baseline_more_than_tps() {
    let config = |mech| {
        MachineConfig::for_mechanism(mech).with_memory(2 * SuiteScale::Test.recommended_memory())
    };
    // Two SMT hardware threads: two tenants on one core, reporting the
    // primary thread.
    let smt_run = |mech| {
        let thread =
            || TenantSpec::suite("xsbench", SuiteScale::Test, default_suite_seed("xsbench"));
        let mut stats = MachineBuilder::new(config(mech))
            .tenant(thread())
            .tenant(thread())
            .build()
            .expect("two tenants build")
            .run();
        stats.per_tenant.swap_remove(0)
    };
    let thp_solo = run("xsbench", Mechanism::Thp);
    let thp_smt = smt_run(Mechanism::Thp);
    let tps_smt = smt_run(Mechanism::Tps);
    assert!(thp_smt.mem.l1_misses() >= thp_solo.mem.l1_misses());
    assert!(tps_smt.mem.l1_misses() < thp_smt.mem.l1_misses());
}

#[test]
fn fig15_shape_fragmented_coverage_declines_with_size() {
    let mut buddy = BuddyAllocator::new(512 << 20);
    Fragmenter::new(FragmentParams::default()).run(&mut buddy);
    let hist = buddy.histogram();
    let cov: Vec<f64> = (0..=12)
        .map(|k| hist.coverage(tps::core::PageOrder::new(k).unwrap()))
        .collect();
    assert_eq!(cov[0], 1.0);
    for w in cov.windows(2) {
        assert!(w[0] >= w[1] - 1e-12, "coverage must be monotone");
    }
    assert!(cov[12] < 0.8, "16M coverage must show fragmentation");
}

#[test]
fn fig16_shape_tps_still_helps_under_fragmentation_with_locality() {
    let fragmented = || {
        let mut buddy = BuddyAllocator::new(512 << 20);
        Fragmenter::new(FragmentParams {
            target_free_fraction: 0.6,
            ..Default::default()
        })
        .run(&mut buddy);
        buddy
    };
    let base = run_with("xsbench", Mechanism::Thp, |c| {
        c.with_initial_memory(fragmented())
    });
    let tps = run_with("xsbench", Mechanism::Tps, |c| {
        c.with_initial_memory(fragmented())
    });
    if base.mem.l1_misses() > 1000 {
        let elim = tps.l1_misses_eliminated_vs(&base);
        assert!(
            elim > 0.0,
            "some benefit must survive fragmentation: {elim}"
        );
    }
}

#[test]
fn fig17_shape_tps_system_work_is_comparable_to_thp() {
    // The paper's argument: system time is negligible, so even a large
    // constant-factor increase from TPS bookkeeping would not matter. We
    // check the constant factor directly: TPS OS cycles per resident page
    // stay within a small multiple of THP's.
    let thp = run("xsbench", Mechanism::Thp);
    let tps = run("xsbench", Mechanism::Tps);
    let per_page =
        |s: &tps::sim::RunStats| s.os.op_cycles as f64 / (s.resident_bytes >> 12).max(1) as f64;
    let ratio = per_page(&tps) / per_page(&thp);
    assert!(
        ratio < 3.0,
        "TPS system work per page {}x THP's — far beyond the paper's margin",
        ratio
    );
}

#[test]
fn fig18_shape_tps_uses_few_pages_of_many_sizes() {
    let tps = run("xsbench", Mechanism::Tps);
    let total: u64 = tps.page_census.values().sum();
    let only4k = run("xsbench", Mechanism::Only4K);
    let base_pages: u64 = only4k.page_census.values().sum();
    assert!(
        total * 100 < base_pages,
        "TPS needs 100x fewer pages: {total} vs {base_pages}"
    );
}

#[test]
fn virtualization_amplifies_walk_cost() {
    let native = run("xsbench", Mechanism::Thp);
    let virt = run_with("xsbench", Mechanism::Thp, |mut c| {
        c.virtualized = true;
        c
    });
    assert!(virt.full_walk_refs > native.full_walk_refs);
    assert_eq!(virt.mem.l1_misses(), native.mem.l1_misses());
}
