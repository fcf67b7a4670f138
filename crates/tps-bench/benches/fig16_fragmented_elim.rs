//! Fig. 16: % L1 DTLB misses eliminated under heavy external
//! fragmentation (no compaction). GUPS collapses (no locality, no large
//! reservations possible); benchmarks with locality keep most of the win.
use tps_bench::{pct, print_table, run_bench, scale_from_env};
use tps_mem::{BuddyAllocator, FragmentParams, Fragmenter};
use tps_sim::Mechanism;
use tps_wl::suite_names;

fn main() {
    let scale = scale_from_env();
    let fragmented = || {
        // A fragmented machine with just enough free memory for the run.
        let mut buddy = BuddyAllocator::new(2 * scale.recommended_memory());
        let mut frag = Fragmenter::new(FragmentParams {
            target_free_fraction: 0.55,
            ..Default::default()
        });
        frag.run(&mut buddy);
        buddy
    };
    let mut rows = Vec::new();
    for name in suite_names() {
        let base = run_bench(name, Mechanism::Thp, scale, 1, |c| {
            c.with_initial_memory(fragmented())
        });
        let tps = run_bench(name, Mechanism::Tps, scale, 1, |c| {
            c.with_initial_memory(fragmented())
        });
        rows.push(vec![
            name.to_string(),
            format!("{}", base.mem.l1_misses()),
            pct(tps.l1_misses_eliminated_vs(&base)),
            format!("{}", tps.os.fallback_4k),
        ]);
    }
    print_table(
        "Fig. 16: % L1 DTLB misses eliminated under heavy fragmentation (TPS vs THP)",
        &[
            "benchmark",
            "baseline misses",
            "TPS eliminated",
            "TPS 4K fallbacks",
        ],
        &rows,
    );
}
