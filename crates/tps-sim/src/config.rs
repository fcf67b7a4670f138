//! Machine configuration (the paper's Table I plus policy selection).

use tps_core::TpsError;
use tps_mem::BuddyAllocator;
use tps_os::{AliasPolicy, PolicyConfig, PolicyKind};
use tps_pt::MmuCacheConfig;
use tps_tlb::{HierarchyKind, TlbConfig};

/// Faults between foreign background allocations on every machine (see
/// `tps_os::Os::set_background_noise`): 1536 makes buddy adjacency match
/// a realistically busy system.
pub(crate) const OS_NOISE_PERIOD: u64 = 1536;

/// The translation mechanisms compared in the paper's figures.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mechanism {
    /// Reservation-based THP on the conventional TLB hierarchy — the
    /// baseline of Figs. 10–14.
    Thp,
    /// CoLT-SA coalesced TLB over the THP OS policy.
    Colt,
    /// Redundant Memory Mappings: eager paging + Range TLB.
    Rmm,
    /// Tailored Page Sizes (reservation mode, 100 % utilization threshold).
    Tps,
    /// TPS with eager paging.
    TpsEager,
    /// 4 KB-only demand paging on the conventional hierarchy.
    Only4K,
    /// Exclusive 2 MB paging (Fig. 9 memory-bloat study).
    Only2M,
}

impl Mechanism {
    /// Label as used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::Thp => "THP",
            Mechanism::Colt => "CoLT",
            Mechanism::Rmm => "RMM",
            Mechanism::Tps => "TPS",
            Mechanism::TpsEager => "TPS-eager",
            Mechanism::Only4K => "4K",
            Mechanism::Only2M => "2M",
        }
    }

    /// The OS paging policy this mechanism runs.
    pub fn policy_kind(self) -> PolicyKind {
        match self {
            Mechanism::Thp | Mechanism::Colt => PolicyKind::Thp,
            Mechanism::Rmm => PolicyKind::Rmm,
            Mechanism::Tps => PolicyKind::Tps,
            Mechanism::TpsEager => PolicyKind::TpsEager,
            Mechanism::Only4K => PolicyKind::Only4K,
            Mechanism::Only2M => PolicyKind::Only2M,
        }
    }

    /// The TLB organization this mechanism uses.
    pub fn hierarchy_kind(self) -> HierarchyKind {
        match self {
            Mechanism::Colt => HierarchyKind::Colt,
            Mechanism::Rmm => HierarchyKind::Rmm,
            Mechanism::Tps | Mechanism::TpsEager => HierarchyKind::Tps,
            Mechanism::Thp | Mechanism::Only4K | Mechanism::Only2M => HierarchyKind::Baseline,
        }
    }

    /// The three mechanisms compared against the THP baseline in
    /// Figs. 10–14.
    pub fn contenders() -> [Mechanism; 3] {
        [Mechanism::Tps, Mechanism::Colt, Mechanism::Rmm]
    }

    /// Every mechanism, in the stable order used by CLI help and reports.
    pub fn all() -> [Mechanism; 7] {
        [
            Mechanism::Only4K,
            Mechanism::Only2M,
            Mechanism::Thp,
            Mechanism::Colt,
            Mechanism::Rmm,
            Mechanism::Tps,
            Mechanism::TpsEager,
        ]
    }

    /// Canonical CLI name: the figure-legend label, lowercased
    /// (`thp`, `colt`, `rmm`, `tps`, `tps-eager`, `4k`, `2m`).
    pub fn cli_name(self) -> &'static str {
        match self {
            Mechanism::Thp => "thp",
            Mechanism::Colt => "colt",
            Mechanism::Rmm => "rmm",
            Mechanism::Tps => "tps",
            Mechanism::TpsEager => "tps-eager",
            Mechanism::Only4K => "4k",
            Mechanism::Only2M => "2m",
        }
    }
}

impl std::fmt::Display for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Mechanism {
    type Err = TpsError;

    /// Parses a mechanism from its CLI name or figure-legend label,
    /// case-insensitively (`tpseager` is accepted for `tps-eager`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        if lower == "tpseager" {
            return Ok(Mechanism::TpsEager);
        }
        Mechanism::all()
            .into_iter()
            .find(|m| m.cli_name() == lower || m.label().to_ascii_lowercase() == lower)
            .ok_or_else(|| {
                TpsError::invalid_spec(format!(
                    "unknown mechanism {s:?} (4k, 2m, thp, colt, rmm, tps, tps-eager)"
                ))
            })
    }
}

/// Full machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Modeled physical memory size.
    pub memory_bytes: u64,
    /// OS paging policy.
    pub policy: PolicyConfig,
    /// TLB organization and sizes.
    pub tlb: TlbConfig,
    /// Alias-PTE behavior of the walker.
    pub alias: AliasPolicy,
    /// MMU (page-structure) cache sizes.
    pub mmu_cache: MmuCacheConfig,
    /// Model a perfect L1 TLB (every access hits L1; Fig. 3).
    pub perfect_l1: bool,
    /// Model a perfect L2 TLB (every L1 miss hits the STLB; Fig. 3).
    pub perfect_l2: bool,
    /// Two-dimensional (virtualized) page walks (Fig. 2).
    pub virtualized: bool,
    /// Cross-check every translation against the page table (slow; tests).
    pub verify_translations: bool,
    /// Pre-fragmented physical memory to start from (Fig. 15/16), replacing
    /// the fresh allocator of `memory_bytes`.
    pub initial_memory: Option<BuddyAllocator>,
    /// Five-level paging (Intel LA57): one extra radix level per walk.
    pub five_level_paging: bool,
    /// Fine-grained A/D bit vectors in alias-PTE spare bits (paper
    /// §III-C1): tailored pages track dirty sixteenths so swap-out writes
    /// back less.
    pub fine_grained_ad: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            memory_bytes: 4 << 30,
            policy: PolicyConfig::new(PolicyKind::Thp),
            tlb: TlbConfig::default(),
            alias: AliasPolicy::Pointer,
            mmu_cache: MmuCacheConfig::default(),
            perfect_l1: false,
            perfect_l2: false,
            virtualized: false,
            verify_translations: false,
            initial_memory: None,
            five_level_paging: false,
            fine_grained_ad: false,
        }
    }
}

impl MachineConfig {
    /// Table I configuration running the given mechanism.
    pub fn for_mechanism(mechanism: Mechanism) -> Self {
        MachineConfig {
            policy: PolicyConfig::new(mechanism.policy_kind()),
            tlb: TlbConfig::with_kind(mechanism.hierarchy_kind()),
            ..Default::default()
        }
    }

    /// Sets the physical memory size.
    #[must_use]
    pub fn with_memory(mut self, bytes: u64) -> Self {
        self.memory_bytes = bytes;
        self
    }

    /// Starts from a pre-fragmented allocator (Fig. 15/16).
    #[must_use]
    pub fn with_initial_memory(mut self, buddy: BuddyAllocator) -> Self {
        self.initial_memory = Some(buddy);
        self
    }

    /// Enables translation verification against the page table.
    #[must_use]
    pub fn with_verification(mut self) -> Self {
        self.verify_translations = true;
        self
    }
}

/// The simulated processor configuration of the paper's Table I, as
/// `(component, description)` rows. The TLB rows reflect [`TlbConfig`]
/// defaults; core/cache rows parameterize the timing model.
pub fn table1_rows() -> Vec<(&'static str, String)> {
    let t = TlbConfig::default();
    vec![
        (
            "Core",
            "4-wide issue, 256-entry ROB, 3.2 GHz (timing model: per-workload base CPI)".into(),
        ),
        (
            "L1 caches",
            "32 KB I$ + 32 KB D$, 64 B lines, 4-cycle latency, 8-way".into(),
        ),
        (
            "Last-level cache",
            "2 MB, 16-way, 64 B lines, 10-cycle latency".into(),
        ),
        (
            "L1 DTLB",
            format!(
                "{} × 4K ({}x{}-way) + {} × 2M + {} × 1G",
                t.l1_4k_sets * t.l1_4k_ways,
                t.l1_4k_sets,
                t.l1_4k_ways,
                t.l1_2m_entries,
                t.l1_1g_entries
            ),
        ),
        (
            "STLB",
            format!(
                "{} × 4K/2M ({}x{}-way) + {} × 1G",
                t.stlb_sets * t.stlb_ways,
                t.stlb_sets,
                t.stlb_ways,
                t.stlb_1g_entries
            ),
        ),
        (
            "TPS TLB",
            format!(
                "{} entries, fully associative, any page size",
                t.tps_l1_entries
            ),
        ),
        (
            "Range TLB (RMM)",
            format!("{} entries, fully associative", t.range_tlb_entries),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_mapping_consistent() {
        assert_eq!(Mechanism::Tps.hierarchy_kind(), HierarchyKind::Tps);
        assert_eq!(Mechanism::Colt.policy_kind(), PolicyKind::Thp);
        assert_eq!(Mechanism::Colt.hierarchy_kind(), HierarchyKind::Colt);
        assert_eq!(Mechanism::Rmm.policy_kind(), PolicyKind::Rmm);
        assert_eq!(Mechanism::Thp.hierarchy_kind(), HierarchyKind::Baseline);
    }

    #[test]
    fn table1_has_all_rows() {
        let rows = table1_rows();
        assert!(rows.len() >= 6);
        assert!(rows.iter().any(|(k, _)| *k == "STLB"));
        assert!(rows.iter().any(|(_, v)| v.contains("1536")));
    }

    #[test]
    fn labels_unique() {
        let all = Mechanism::all();
        let mut labels: Vec<_> = all.iter().map(|m| m.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn cli_names_round_trip() {
        // Exhaustive over Mechanism: adding a variant must extend `all()`
        // and keep parse(cli_name) == mechanism and parse(label) == it too.
        let all = Mechanism::all();
        assert_eq!(all.len(), 7);
        for mech in all {
            let cli = match mech {
                Mechanism::Thp => "thp",
                Mechanism::Colt => "colt",
                Mechanism::Rmm => "rmm",
                Mechanism::Tps => "tps",
                Mechanism::TpsEager => "tps-eager",
                Mechanism::Only4K => "4k",
                Mechanism::Only2M => "2m",
            };
            assert_eq!(mech.cli_name(), cli);
            assert_eq!(cli.parse::<Mechanism>().unwrap(), mech);
            assert_eq!(mech.label().parse::<Mechanism>().unwrap(), mech);
            assert_eq!(
                mech.label()
                    .to_ascii_uppercase()
                    .parse::<Mechanism>()
                    .unwrap(),
                mech,
                "parsing is case-insensitive"
            );
        }
        assert_eq!(
            "tpseager".parse::<Mechanism>().unwrap(),
            Mechanism::TpsEager
        );
        let err = "hugepages".parse::<Mechanism>().unwrap_err();
        assert!(err.to_string().contains("unknown mechanism"));
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    #[test]
    fn default_config_matches_table_one() {
        let c = MachineConfig::default();
        assert_eq!(c.tlb.l1_4k_sets * c.tlb.l1_4k_ways, 64);
        assert_eq!(c.tlb.stlb_sets * c.tlb.stlb_ways, 1536);
        assert_eq!(c.tlb.tps_l1_entries, 32);
        assert!(!c.five_level_paging);
        assert!(!c.fine_grained_ad);
    }

    #[test]
    fn builders_compose() {
        let c = MachineConfig::for_mechanism(Mechanism::Tps)
            .with_memory(123 << 20)
            .with_verification();
        assert_eq!(c.memory_bytes, 123 << 20);
        assert!(c.verify_translations);
        assert_eq!(c.tlb.kind, HierarchyKind::Tps);
        assert_eq!(c.policy.kind, PolicyKind::Tps);
    }

    #[test]
    fn initial_memory_overrides_size() {
        use tps_mem::BuddyAllocator;
        let c = MachineConfig::for_mechanism(Mechanism::Thp)
            .with_initial_memory(BuddyAllocator::new(32 << 20));
        assert_eq!(c.initial_memory.as_ref().unwrap().total_bytes(), 32 << 20);
        let machine = crate::MachineBuilder::new(c)
            .tenant(crate::TenantSpec::external("probe"))
            .build()
            .unwrap();
        assert_eq!(machine.os().buddy().total_bytes(), 32 << 20);
    }
}
