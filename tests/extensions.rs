//! Integration tests for the extension features: 5-level paging, skewed
//! TPS TLB, fine-grained A/D, trace replay — all through a verified
//! machine.

use tps::core::BASE_PAGE_SIZE;
use tps::sim::{Machine, MachineBuilder, MachineConfig, Mechanism, RunStats, TenantSpec};
use tps::wl::{
    default_suite_seed, replay, Gups, GupsParams, Initialized, Recorder, SuiteScale, Workload,
    WorkloadProfile,
};

fn base_config(mech: Mechanism) -> MachineConfig {
    MachineConfig::for_mechanism(mech)
        .with_memory(SuiteScale::Test.recommended_memory())
        .with_verification()
}

fn solo(config: MachineConfig, spec: TenantSpec) -> Machine {
    MachineBuilder::new(config)
        .tenant(spec)
        .build()
        .expect("one tenant builds")
}

fn run_suite(config: MachineConfig, name: &str) -> RunStats {
    solo(
        config,
        TenantSpec::suite(name, SuiteScale::Test, default_suite_seed(name)),
    )
    .run()
    .into_solo()
}

#[test]
fn five_level_machine_runs_the_suite_correctly() {
    let mut config = base_config(Mechanism::Tps);
    config.five_level_paging = true;
    let five = run_suite(config, "xsbench");

    let four = run_suite(base_config(Mechanism::Tps), "xsbench");

    // Same translation behavior (hit counts identical)...
    assert_eq!(five.mem, four.mem);
    // ...but cold walks reference one extra level.
    assert!(five.full_walk_refs >= four.full_walk_refs);
}

#[test]
fn skewed_tps_tlb_runs_verified_and_close_to_fa() {
    let mut config = base_config(Mechanism::Tps);
    config.tlb.tps_l1_skewed = true;
    let skewed = run_suite(config, "gups");

    let fa = run_suite(base_config(Mechanism::Tps), "gups");

    // Verification (enabled) proves correctness; hit rates are close — a
    // single-page GUPS footprint fits either organization.
    assert!(
        skewed.mem.l1_hit_rate() > 0.95,
        "{}",
        skewed.mem.l1_hit_rate()
    );
    assert!(fa.mem.l1_hit_rate() >= skewed.mem.l1_hit_rate() - 0.02);
}

#[test]
fn fine_grained_ad_flag_plumbs_through_the_machine() {
    let mut config = base_config(Mechanism::Tps);
    config.fine_grained_ad = true;
    let wl = Initialized::new(Gups::new(GupsParams {
        table_bytes: 1 << 20,
        updates: 2_000,
        seed: 5,
    }));
    let mut machine = solo(config, TenantSpec::workload(wl));
    machine.run();
    // The 1 MB table promoted to one tailored page; writes recorded a
    // dirty vector on it.
    let process = machine.os().process(0);
    let vma_base = process.address_space().iter().next().unwrap().base();
    assert!(
        process.page_table().dirty_vector(vma_base).is_some(),
        "dirty vector recorded for the tailored page"
    );
    let writeback = machine.os().dirty_writeback_bytes(0, vma_base);
    assert!(writeback > 0 && writeback <= 1 << 20);
}

#[test]
fn recorded_trace_replays_to_identical_statistics() {
    let inner = Initialized::new(Gups::new(GupsParams {
        table_bytes: 2 << 20,
        updates: 5_000,
        seed: 11,
    }));
    // Record through the step API: an externally-driven tenant replays
    // the recorder's event stream one event at a time.
    let mut buf = Vec::new();
    let mut recorder = Recorder::new(inner, &mut buf);
    let mut live_machine = solo(base_config(Mechanism::Tps), TenantSpec::external("gups"));
    while let Some(e) = recorder.next_event() {
        live_machine
            .step(0, e)
            .expect("scripted event is well-formed");
    }
    let live = live_machine.counters(0).measured.clone();
    let live_census = live_machine.os().process(0).page_table().page_census();
    drop(recorder);

    let replayed = replay(std::io::Cursor::new(buf), WorkloadProfile::named("gups")).unwrap();
    let again = solo(base_config(Mechanism::Tps), TenantSpec::workload(replayed))
        .run()
        .into_solo();
    assert_eq!(live.mem, again.mem);
    assert_eq!(live.walk_refs, again.walk_refs);
    assert_eq!(live_census, again.page_census);
}

#[test]
fn mprotect_round_trip_through_verified_accesses() {
    use tps::core::VirtAddr;
    use tps::wl::Event;

    let mut machine = solo(base_config(Mechanism::Tps), TenantSpec::external("driver"));
    machine
        .step(
            0,
            Event::Mmap {
                region: 0,
                bytes: 64 << 10,
            },
        )
        .expect("scripted event is well-formed");
    for i in 0..16u64 {
        machine
            .step(
                0,
                Event::Access {
                    region: 0,
                    offset: i * BASE_PAGE_SIZE,
                    write: true,
                },
            )
            .expect("scripted event is well-formed");
    }
    // mprotect at the OS level is visible in the page table; verified
    // reads still succeed afterwards. (Writes to the read-only part would
    // take a CoW-style fault, exercised in the tps-sim unit tests.)
    let base = machine
        .os()
        .process(0)
        .address_space()
        .iter()
        .next()
        .unwrap()
        .base();
    // Direct OS access isn't exposed mutably through Machine by design;
    // validate the flag change via page-table inspection using a second
    // OS-level scenario instead.
    let mut os = tps::os::Os::new(
        64 << 20,
        tps::os::PolicyConfig::new(tps::os::PolicyKind::Tps),
    );
    let pid = os.spawn();
    let vma = os.mmap(pid, 64 << 10).unwrap();
    let mut va = vma.base();
    while va < vma.end() {
        os.handle_fault(pid, va, true).unwrap();
        va = VirtAddr::new(va.value() + BASE_PAGE_SIZE);
    }
    os.mprotect(pid, vma.base(), 64 << 10, false).unwrap();
    assert!(os.needs_cow(pid, vma.base()), "read-only after mprotect");
    let _ = base;
}
