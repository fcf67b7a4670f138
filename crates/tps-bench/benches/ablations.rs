//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. Alias-PTE policy: pointer (one extra walk access) vs full-copy
//!    (no extra access, more PTE update stores) — paper §III-A1.
//! 2. Promotion threshold: 100 % (no bloat) vs lower (fewer misses,
//!    memory bloat) — paper §III-B1.
//! 3. MMU cache sizing: how much page-structure caching shortens walks.
//! 4. Four- vs five-level paging: the walk-cost growth the paper's
//!    introduction warns about — and how TPS neutralizes it.
use tps_bench::{pct, print_table, run_bench, scale_from_env};
use tps_os::{AliasPolicy, PolicyConfig, PolicyKind};
use tps_pt::MmuCacheConfig;
use tps_sim::{MachineBuilder, MachineConfig, Mechanism, TenantSpec};
use tps_wl::{Gups, GupsParams, Initialized};

fn alias_policy_ablation() {
    let scale = scale_from_env();
    let mut rows = Vec::new();
    for name in ["gcc", "xsbench", "dbx1000"] {
        let pointer = run_bench(name, Mechanism::Tps, scale, 1, |c| MachineConfig {
            alias: AliasPolicy::Pointer,
            ..c
        });
        let fullcopy = run_bench(name, Mechanism::Tps, scale, 1, |c| MachineConfig {
            alias: AliasPolicy::FullCopy,
            ..c
        });
        rows.push(vec![
            name.to_string(),
            format!("{}", pointer.full_walk_refs),
            format!("{}", pointer.alias_extras),
            format!("{}", fullcopy.full_walk_refs),
            format!("{}", fullcopy.os.op_cycles),
            format!("{}", pointer.os.op_cycles),
        ]);
    }
    print_table(
        "Ablation 1: alias-PTE policy (TPS)",
        &[
            "benchmark",
            "ptr walk refs",
            "alias extras",
            "copy walk refs",
            "copy OS cycles",
            "ptr OS cycles",
        ],
        &rows,
    );
}

fn promotion_threshold_ablation() {
    // A sparse toucher: GUPS with updates << pages, no init sweep, so
    // regions are partially utilized and the threshold matters.
    let mut rows = Vec::new();
    for threshold in [1.0, 0.75, 0.5, 0.25] {
        let mut config = MachineConfig::for_mechanism(Mechanism::Tps).with_memory(512 << 20);
        config.policy = PolicyConfig::new(PolicyKind::Tps).with_threshold(threshold);
        let wl = Gups::new(GupsParams {
            table_bytes: 128 << 20,
            updates: 60_000,
            seed: 77,
        });
        let stats = MachineBuilder::new(config)
            .tenant(TenantSpec::workload(wl))
            .build()
            .expect("one tenant builds")
            .run()
            .into_solo();
        let bloat = stats.resident_bytes as f64 / stats.touched_bytes.max(1) as f64 - 1.0;
        rows.push(vec![
            format!("{:.0}%", threshold * 100.0),
            format!("{}", stats.mem.l1_misses()),
            pct(stats.mem.l1_hit_rate()),
            format!("{:.1} MB", stats.resident_bytes as f64 / (1 << 20) as f64),
            pct(bloat),
        ]);
    }
    print_table(
        "Ablation 2: TPS promotion threshold (sparse GUPS, no init sweep)",
        &[
            "threshold",
            "L1 misses",
            "L1 hit rate",
            "resident",
            "bloat vs touched",
        ],
        &rows,
    );
}

fn mmu_cache_ablation() {
    let mut rows = Vec::new();
    for (label, cfg) in [
        (
            "1/1/1",
            MmuCacheConfig {
                pml4e_entries: 1,
                pdpte_entries: 1,
                pde_entries: 1,
            },
        ),
        (
            "2/4/16",
            MmuCacheConfig {
                pml4e_entries: 2,
                pdpte_entries: 4,
                pde_entries: 16,
            },
        ),
        ("4/8/32 (default)", MmuCacheConfig::default()),
        (
            "8/16/64",
            MmuCacheConfig {
                pml4e_entries: 8,
                pdpte_entries: 16,
                pde_entries: 64,
            },
        ),
    ] {
        let mut config = MachineConfig::for_mechanism(Mechanism::Only4K).with_memory(512 << 20);
        config.mmu_cache = cfg;
        let wl = Initialized::new(Gups::new(GupsParams {
            table_bytes: 128 << 20,
            updates: 200_000,
            seed: 78,
        }));
        let stats = MachineBuilder::new(config)
            .tenant(TenantSpec::workload(wl))
            .build()
            .expect("one tenant builds")
            .run()
            .into_solo();
        rows.push(vec![
            label.to_string(),
            format!("{}", stats.walk_refs),
            format!("{:.2}", stats.refs_per_walk()),
        ]);
    }
    print_table(
        "Ablation 3: MMU-cache sizing (4K-only GUPS, walk cost)",
        &[
            "PML4E/PDPTE/PDE entries",
            "walk refs (measured)",
            "refs per walk",
        ],
        &rows,
    );
}

fn five_level_ablation() {
    let scale = scale_from_env();
    let mut rows = Vec::new();
    for name in ["gups", "xsbench"] {
        for mech in [Mechanism::Only4K, Mechanism::Tps] {
            let four = run_bench(name, mech, scale, 1, |c| c);
            let five = run_bench(name, mech, scale, 1, |c| MachineConfig {
                five_level_paging: true,
                ..c
            });
            rows.push(vec![
                format!("{name}/{mech}"),
                format!("{}", four.full_walk_refs),
                format!("{}", five.full_walk_refs),
                format!(
                    "{:+.1}%",
                    100.0 * (five.full_walk_refs as f64 / four.full_walk_refs.max(1) as f64 - 1.0)
                ),
            ]);
        }
    }
    print_table(
        "Ablation 4: 4-level vs 5-level paging (walk references)",
        &["config", "4-level refs", "5-level refs", "growth"],
        &rows,
    );
}

fn skewed_tlb_ablation() {
    let scale = scale_from_env();
    let mut rows = Vec::new();
    for name in ["gcc", "gups", "xsbench"] {
        let fa = run_bench(name, Mechanism::Tps, scale, 1, |c| c);
        let skewed = run_bench(name, Mechanism::Tps, scale, 1, |mut c| {
            c.tlb.tps_l1_skewed = true;
            c
        });
        rows.push(vec![
            name.to_string(),
            format!("{}", fa.mem.l1_misses()),
            format!("{}", skewed.mem.l1_misses()),
            pct(fa.mem.l1_hit_rate()),
            pct(skewed.mem.l1_hit_rate()),
        ]);
    }
    print_table(
        "Ablation 5: TPS L1 organization — 32e fully-assoc vs 4-way skewed",
        &[
            "benchmark",
            "FA misses",
            "skewed misses",
            "FA hit",
            "skewed hit",
        ],
        &rows,
    );
}

fn main() {
    alias_policy_ablation();
    promotion_threshold_ablation();
    mmu_cache_ablation();
    five_level_ablation();
    skewed_tlb_ablation();
}
