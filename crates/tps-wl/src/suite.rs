//! The paper's benchmark suite at three reproducibility scales.

use crate::dbx1000::{Dbx1000, Dbx1000Params};
use crate::event::Workload;
use crate::graph500::{Graph500, Graph500Params};
use crate::gups::{Gups, GupsParams};
use crate::init::Initialized;
use crate::spec17::{Spec17Kernel, SpecBench};
use crate::xsbench::{XsBench, XsBenchParams};
use tps_core::{TpsError, GIB};

/// How large a suite run should be.
///
/// The paper traces full executions; we provide three deterministic scales
/// trading fidelity for wall-clock time. Relative behavior (who wins and by
/// roughly how much) is stable across scales.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SuiteScale {
    /// Tiny footprints for unit tests (seconds).
    Test,
    /// Mid footprints for iterating on experiments.
    Small,
    /// The default evaluation scale used by the figure harnesses.
    Paper,
}

impl SuiteScale {
    /// Every scale, smallest first (CLI help, round-trip tests).
    pub fn all() -> [SuiteScale; 3] {
        [SuiteScale::Test, SuiteScale::Small, SuiteScale::Paper]
    }

    /// Canonical name as accepted by the [`FromStr`](std::str::FromStr)
    /// impl and used in CLI flags and JSON labels.
    pub fn label(self) -> &'static str {
        match self {
            SuiteScale::Test => "test",
            SuiteScale::Small => "small",
            SuiteScale::Paper => "paper",
        }
    }

    fn spec_shrink(self) -> u32 {
        match self {
            SuiteScale::Test => 6,
            SuiteScale::Small => 1,
            SuiteScale::Paper => 0,
        }
    }

    fn spec_accesses(self) -> u64 {
        match self {
            SuiteScale::Test => 20_000,
            SuiteScale::Small => 800_000,
            SuiteScale::Paper => 2_500_000,
        }
    }

    /// Physical memory a [`SuiteScale`] machine should model.
    pub fn recommended_memory(self) -> u64 {
        match self {
            SuiteScale::Test => 256 << 20,
            SuiteScale::Small => 2 << 30,
            SuiteScale::Paper => 4 << 30,
        }
    }
}

impl std::fmt::Display for SuiteScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for SuiteScale {
    type Err = TpsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SuiteScale::all()
            .into_iter()
            .find(|scale| scale.label() == s)
            .ok_or_else(|| {
                TpsError::invalid_spec(format!("unknown scale {s:?} (test, small, paper)"))
            })
    }
}

/// The suite's default seed for one benchmark, as used by [`build`].
pub fn default_suite_seed(name: &str) -> u64 {
    0x7e57_0000 ^ name.len() as u64
}

/// Builds one suite benchmark by name (see [`suite_names`]).
///
/// All workloads are wrapped in the [`Initialized`] sweep, matching the
/// paper's start-to-finish traces.
///
/// # Panics
///
/// Panics on an unknown benchmark name.
pub fn build(name: &str, scale: SuiteScale) -> Box<dyn Workload> {
    build_seeded(name, scale, default_suite_seed(name))
}

/// Per-tenant workload seeds for a multi-tenant machine: a SplitMix64
/// stream over `base`, one draw per tenant in slot order. Deterministic
/// in `(base, count)` alone — never in scheduling — and the seeds are
/// pairwise distinct with overwhelming probability, so co-scheduled
/// tenants of the same benchmark walk different access streams.
pub fn tenant_seeds(base: u64, count: u32) -> Vec<u64> {
    let mut rng = tps_core::rng::SplitMix64::new(base);
    (0..count).map(|_| rng.next_u64()).collect()
}

/// [`build`] with an explicit workload seed, for experiment matrices that
/// pin per-cell seeds. `build(name, scale)` is
/// `build_seeded(name, scale, default_suite_seed(name))`.
///
/// # Panics
///
/// Panics on an unknown benchmark name.
pub fn build_seeded(name: &str, scale: SuiteScale, seed: u64) -> Box<dyn Workload> {
    if let Some(bench) = SpecBench::all().iter().find(|b| b.label() == name) {
        return Box::new(Initialized::new(Spec17Kernel::new(
            *bench,
            scale.spec_accesses(),
            scale.spec_shrink(),
            seed,
        )));
    }
    match name {
        "gups" => {
            let params = match scale {
                SuiteScale::Test => GupsParams {
                    table_bytes: 16 << 20,
                    updates: 20_000,
                    seed,
                },
                SuiteScale::Small => GupsParams {
                    table_bytes: 256 << 20,
                    updates: 800_000,
                    seed,
                },
                SuiteScale::Paper => GupsParams {
                    table_bytes: GIB,
                    updates: 2_500_000,
                    seed,
                },
            };
            Box::new(Initialized::new(Gups::new(params)))
        }
        "graph500" => {
            let params = match scale {
                SuiteScale::Test => Graph500Params {
                    scale: 12,
                    edge_factor: 8,
                    bfs_roots: 2,
                    max_accesses: 20_000,
                    seed,
                },
                SuiteScale::Small => Graph500Params {
                    scale: 22,
                    edge_factor: 6,
                    bfs_roots: 4,
                    max_accesses: 800_000,
                    seed,
                },
                SuiteScale::Paper => Graph500Params {
                    scale: 24,
                    edge_factor: 4,
                    bfs_roots: 6,
                    max_accesses: 2_500_000,
                    seed,
                },
            };
            Box::new(Initialized::new(Graph500::new(params)))
        }
        "xsbench" => {
            let params = match scale {
                SuiteScale::Test => XsBenchParams {
                    grid_points: 1 << 16,
                    nuclides: 16,
                    nuclide_grid_points: 1 << 10,
                    lookups: 1_000,
                    seed,
                },
                SuiteScale::Small => XsBenchParams {
                    grid_points: 1 << 22,
                    nuclides: 68,
                    nuclide_grid_points: 16 << 10,
                    lookups: 30_000,
                    seed,
                },
                SuiteScale::Paper => XsBenchParams {
                    grid_points: 8 << 20,
                    nuclides: 68,
                    nuclide_grid_points: 64 << 10,
                    lookups: 80_000,
                    seed,
                },
            };
            Box::new(Initialized::new(XsBench::new(params)))
        }
        "dbx1000" => {
            let params = match scale {
                SuiteScale::Test => Dbx1000Params {
                    rows: 1 << 16,
                    txns: 1_000,
                    seed,
                    ..Default::default()
                },
                SuiteScale::Small => Dbx1000Params {
                    rows: 1 << 21, // tps-lint::allow(no-magic-page-size, reason = "row count, not a byte size")
                    txns: 40_000,
                    seed,
                    ..Default::default()
                },
                SuiteScale::Paper => Dbx1000Params {
                    rows: 4 << 20,
                    txns: 100_000,
                    seed,
                    ..Default::default()
                },
            };
            Box::new(Initialized::new(Dbx1000::new(params)))
        }
        other => panic!("unknown benchmark {other:?}"),
    }
}

/// Names of the TLB-intensive evaluation suite (paper Figs. 10–18):
/// the MPKI > 5 SPEC17 benchmarks plus the four big-data workloads.
pub fn suite_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = SpecBench::tlb_intensive()
        .iter()
        .map(|b| b.label())
        .collect();
    names.extend(["gups", "graph500", "xsbench", "dbx1000"]);
    names
}

/// Names of the full profiling sweep (paper Fig. 8): every modeled SPEC17
/// benchmark plus the big-data workloads.
pub fn profiling_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = SpecBench::all().iter().map(|b| b.label()).collect();
    names.extend(["gups", "graph500", "xsbench", "dbx1000"]);
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn every_suite_member_builds_and_runs() {
        for name in suite_names() {
            let mut wl = build(name, SuiteScale::Test);
            assert_eq!(wl.name(), name);
            let mut accesses = 0u64;
            let mut mmaps = 0u64;
            for _ in 0..200_000 {
                match wl.next_event() {
                    Some(Event::Access { .. }) => accesses += 1,
                    Some(Event::Mmap { .. }) => mmaps += 1,
                    Some(_) => {}
                    None => break,
                }
            }
            assert!(mmaps > 0, "{name}");
            assert!(accesses > 1000, "{name}: {accesses} accesses");
        }
    }

    #[test]
    fn tenant_seeds_are_pinned_and_distinct() {
        let a = tenant_seeds(0xfeed, 64);
        let b = tenant_seeds(0xfeed, 64);
        assert_eq!(a, b, "seeds depend on (base, count) alone");
        let unique: std::collections::BTreeSet<u64> = a.iter().copied().collect();
        assert_eq!(unique.len(), 64, "tenants draw distinct streams");
        // The first seeds of a shorter draw are a prefix of a longer one,
        // so growing a tenant set never reshuffles existing tenants.
        assert_eq!(tenant_seeds(0xfeed, 8), a[..8].to_vec());
    }

    #[test]
    fn profiling_superset_of_suite() {
        let prof = profiling_names();
        for name in suite_names() {
            assert!(prof.contains(&name), "{name} missing from profiling set");
        }
        assert!(prof.len() > suite_names().len());
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_name_panics() {
        build("nonesuch", SuiteScale::Test);
    }

    #[test]
    fn scale_labels_round_trip() {
        // Exhaustive over SuiteScale: adding a scale must extend `all()`
        // (asserted by the length check) and keep parse(label) == scale.
        let all = SuiteScale::all();
        assert_eq!(all.len(), 3);
        for scale in all {
            let label = match scale {
                SuiteScale::Test => "test",
                SuiteScale::Small => "small",
                SuiteScale::Paper => "paper",
            };
            assert_eq!(scale.label(), label);
            assert_eq!(scale.to_string(), label);
            assert_eq!(label.parse::<SuiteScale>().unwrap(), scale);
        }
        assert!("huge".parse::<SuiteScale>().is_err());
        assert!(
            "Test".parse::<SuiteScale>().is_err(),
            "labels are lowercase"
        );
    }

    #[test]
    fn build_seeded_controls_the_stream() {
        let drain = |seed: u64| {
            let mut wl = build_seeded("gups", SuiteScale::Test, seed);
            // Skip the seed-independent Initialized sweep: sample the
            // measured region after the ROI barrier.
            while !matches!(wl.next_event(), Some(Event::StatsBarrier) | None) {}
            let mut sig = Vec::new();
            for _ in 0..500 {
                match wl.next_event() {
                    Some(Event::Access { offset, .. }) => sig.push(offset),
                    Some(_) => {}
                    None => break,
                }
            }
            sig
        };
        assert_eq!(drain(1), drain(1), "same seed, same stream");
        assert_ne!(drain(1), drain(2), "different seed, different stream");
        // `build` is exactly `build_seeded` at the default suite seed.
        let mut a = build("gups", SuiteScale::Test);
        let mut b = build_seeded("gups", SuiteScale::Test, default_suite_seed("gups"));
        for _ in 0..200 {
            assert_eq!(
                format!("{:?}", a.next_event()),
                format!("{:?}", b.next_event())
            );
        }
    }

    #[test]
    fn scales_report_memory() {
        assert!(SuiteScale::Test.recommended_memory() < SuiteScale::Small.recommended_memory());
        assert!(SuiteScale::Small.recommended_memory() <= SuiteScale::Paper.recommended_memory());
    }
}
