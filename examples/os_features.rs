//! Tour of the OS-level mechanisms beyond the headline experiments:
//! fork + copy-on-write, `mprotect` splitting, page merging, compaction,
//! fine-grained dirty tracking, and trace record/replay.
//!
//! ```sh
//! cargo run --release --example os_features
//! ```

use tps::core::{VirtAddr, BASE_PAGE_SIZE};
use tps::os::{CowPolicy, Os, PolicyConfig, PolicyKind, Process};
use tps::sim::{MachineBuilder, MachineConfig, Mechanism, TenantSpec};
use tps::wl::{replay, Event, Gups, GupsParams, Recorder, Workload, WorkloadProfile};

fn main() {
    cow_demo();
    mprotect_demo();
    trace_demo();
}

/// Fork a process, write from the child, and watch CoW resolve under both
/// of the paper's §III-C3 strategies.
fn cow_demo() {
    println!("== fork + copy-on-write ==");
    for policy in [CowPolicy::CopyWholePage, CowPolicy::CopySmallest] {
        let mut os = Os::new(256 << 20, PolicyConfig::new(PolicyKind::Tps));
        os.set_cow_policy(policy);
        let parent = os.spawn();
        let vma = os.mmap(parent, 256 << 10).unwrap();
        let mut va = vma.base();
        while va < vma.end() {
            os.handle_fault(parent, va, true).unwrap();
            va = VirtAddr::new(va.value() + BASE_PAGE_SIZE);
        }
        let (child, _sds) = os.fork(parent).expect("fork mirrors existing leaves");
        // The child writes one word in the middle of the 256 KB page.
        os.handle_cow_fault(child, vma.base() + (100 << 10))
            .unwrap();
        let stats = os.stats();
        println!(
            "  {policy:?}: copied {} KB in {} CoW fault(s); child census: {:?}",
            stats.cow_bytes_copied >> 10,
            stats.cow_faults,
            os.process(child)
                .page_table()
                .page_census()
                .iter()
                .map(|(o, n)| format!("{}x{}", n, o.label()))
                .collect::<Vec<_>>()
        );
    }
}

/// Protect part of a tailored page read-only: it splits; re-allow writes
/// and merge it back together. Then split a THP 2 MB page the same way.
fn mprotect_demo() {
    println!("\n== mprotect split / page merge ==");
    let mut os = Os::new(256 << 20, PolicyConfig::new(PolicyKind::Tps));
    os.set_fine_grained_ad(true);
    let pid = os.spawn();
    let vma = os.mmap(pid, 128 << 10).unwrap();
    let mut va = vma.base();
    while va < vma.end() {
        os.handle_fault(pid, va, true).unwrap();
        va = VirtAddr::new(va.value() + BASE_PAGE_SIZE);
    }
    println!("  after faulting:  {}", census(os.process(pid)));
    os.mprotect(pid, vma.base() + (32 << 10), 32 << 10, false)
        .unwrap();
    println!("  after mprotect:  {}", census(os.process(pid)));
    os.mprotect(pid, vma.base(), 128 << 10, true).unwrap();
    let merges = os.merge_pages(pid);
    println!("  after {merges} merges: {}", census(os.process(pid)));
    // Fine-grained dirty accounting: dirty three sixteenths of the page.
    for i in [0u64, 7, 12] {
        os.hw_mark_accessed(pid, VirtAddr::new(vma.base().value() + i * (8 << 10)), true);
    }
    println!(
        "  swap-out would write {} KB of the {} KB page (dirty vector)",
        os.dirty_writeback_bytes(pid, vma.base()) >> 10,
        128
    );
    // The same split works at every size: THP promotes a 2 MB page, and
    // write-protecting one 4 KB page inside it demotes it to base pages.
    let mut os = Os::new(256 << 20, PolicyConfig::new(PolicyKind::Thp));
    let pid = os.spawn();
    let vma = os.mmap(pid, 2 << 20).unwrap();
    let mut va = vma.base();
    while va < vma.end() {
        os.handle_fault(pid, va, true).unwrap();
        va = VirtAddr::new(va.value() + BASE_PAGE_SIZE);
    }
    println!("  THP after faulting: {}", census(os.process(pid)));
    let sds = os
        .mprotect(pid, vma.base() + (1 << 20), BASE_PAGE_SIZE, false)
        .unwrap();
    println!(
        "  THP after a 4 KB mprotect: {} ({} shootdown)",
        census(os.process(pid)),
        sds.len()
    );
}

/// The page census of a process, as "count x size" items.
fn census(proc: &Process) -> String {
    proc.page_table()
        .page_census()
        .iter()
        .map(|(o, n)| format!("{}x{}", n, o.label()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Record a workload to a trace, then replay the trace through a machine.
fn trace_demo() {
    println!("\n== trace record / replay ==");
    let inner = Gups::new(GupsParams {
        table_bytes: 4 << 20,
        updates: 50_000,
        seed: 3,
    });
    // Record while simulating: the recorder wraps the workload, and the
    // step API drives an externally-fed tenant event by event.
    let mut buf = Vec::new();
    let mut recorder = Recorder::new(inner, &mut buf);
    let mut machine =
        MachineBuilder::new(MachineConfig::for_mechanism(Mechanism::Tps).with_memory(64 << 20))
            .tenant(TenantSpec::external("gups"))
            .build()
            .expect("one tenant builds");
    while let Some(e) = recorder.next_event() {
        machine.step(0, e).expect("replayed event is well-formed");
    }
    let live = machine.counters(0).measured.mem;
    let events = recorder.events_recorded();
    println!(
        "  recorded {events} events ({} KB of trace) while simulating: {} L1 misses",
        buf.len() >> 10,
        live.l1_misses()
    );
    let replayed = replay(
        std::io::Cursor::new(buf.clone()),
        WorkloadProfile::named("gups"),
    )
    .unwrap();
    let again =
        MachineBuilder::new(MachineConfig::for_mechanism(Mechanism::Tps).with_memory(64 << 20))
            .tenant(TenantSpec::workload(replayed))
            .build()
            .expect("one tenant builds")
            .run()
            .into_solo();
    println!(
        "  replay reproduces the run exactly: {} L1 misses ({})",
        again.mem.l1_misses(),
        if again.mem == live {
            "identical"
        } else {
            "DIFFERENT!"
        }
    );
    // Traces also make ad-hoc experiments easy: hand-written event streams.
    let handwritten = "M 0 8192\nA 0 0 W\nA 0 4096 R\nB\nA 0 0 R\n";
    let mut wl = replay(
        handwritten.as_bytes(),
        WorkloadProfile::named("handwritten"),
    )
    .unwrap();
    let mut m3 =
        MachineBuilder::new(MachineConfig::for_mechanism(Mechanism::Thp).with_memory(16 << 20))
            .tenant(TenantSpec::external("handwritten"))
            .build()
            .expect("one tenant builds");
    while let Some(e) = wl.next_event() {
        m3.step(0, e).expect("replayed event is well-formed");
    }
    let counters = m3.counters(0);
    println!(
        "  hand-written trace: {} accesses, {} in measured region",
        counters.full.accesses, counters.measured.accesses
    );
    let _ = Event::StatsBarrier; // (the `B` line above)
}
