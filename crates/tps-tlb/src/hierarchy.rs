//! The two-level TLB hierarchy under its four studied organizations.
//!
//! | Kind       | L1                                   | L2                              |
//! |------------|--------------------------------------|---------------------------------|
//! | `Baseline` | 64e 4K SA + 32e 2M + 4e 1G           | 1536e dual 4K/2M + 16e 1G       |
//! | `Tps`      | 64e 4K SA + **32e any-size (mask)**  | any-size (same capacity)        |
//! | `Colt`     | 64e coalesced 4K SA + 32e 2M + 4e 1G | 1536e dual 4K/2M + 16e 1G       |
//! | `Rmm`      | as Baseline                          | as Baseline + **32e Range TLB** |
//!
//! Capacities follow Table I / §III-A2 of the paper. The TPS-mode STLB is
//! modeled as a fully-associative any-size structure of the baseline STLB's
//! capacity — the paper leaves its indexing unspecified. A single TPS
//! process rarely reaches it, but many tenants sharing the L1 do: in a
//! 64-tenant machine the STLB serves nearly every access.

use crate::any_size::{AnySizeTlb, FillOutcome};
use crate::colt::{detect_run, ColtTlb};
use crate::dual_stlb::{DualStlb, StlbProbe};
use crate::entry::{Asid, TlbEntry};
use crate::range_tlb::{RangeEntry, RangeTlb};
use crate::set_assoc::SetAssocTlb;
use crate::skewed::SkewedTlb;
use tps_core::lru::Invalidation;
use tps_core::{InjectorHandle, LeafInfo, PageOrder, VirtAddr};

/// Which TLB organization to build.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum HierarchyKind {
    /// Conventional per-size TLBs (reservation-THP baseline).
    #[default]
    Baseline,
    /// Tailored Page Sizes: any-size L1 TLB with page masks.
    Tps,
    /// CoLT-SA coalesced TLB baseline.
    Colt,
    /// Redundant Memory Mappings: Range TLB at the L2 level.
    Rmm,
}

/// Structure sizes (defaults follow the paper's Table I).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Which organization to build.
    pub kind: HierarchyKind,
    /// Sets of the 4 KB L1 TLB.
    pub l1_4k_sets: usize,
    /// Ways of the 4 KB L1 TLB.
    pub l1_4k_ways: usize,
    /// Entries of the 2 MB L1 TLB (baseline/CoLT/RMM).
    pub l1_2m_entries: usize,
    /// Entries of the 1 GB L1 TLB (baseline/CoLT/RMM).
    pub l1_1g_entries: usize,
    /// Entries of the any-size TPS L1 TLB.
    pub tps_l1_entries: usize,
    /// Sets of the dual-size STLB.
    pub stlb_sets: usize,
    /// Ways of the dual-size STLB.
    pub stlb_ways: usize,
    /// Entries of the 1 GB STLB.
    pub stlb_1g_entries: usize,
    /// Entries of the any-size STLB used in TPS mode.
    pub tps_stlb_entries: usize,
    /// Entries of the RMM Range TLB.
    pub range_tlb_entries: usize,
    /// Use the skewed-associative any-size TLB instead of the fully
    /// associative one for the TPS L1 (design ablation; paper §III-A2
    /// notes skewed-associative alternatives are possible).
    pub tps_l1_skewed: bool,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig {
            kind: HierarchyKind::Baseline,
            l1_4k_sets: 16,
            l1_4k_ways: 4,
            l1_2m_entries: 32,
            l1_1g_entries: 4,
            tps_l1_entries: 32,
            stlb_sets: 128,
            stlb_ways: 12,
            stlb_1g_entries: 16,
            tps_stlb_entries: 1536 + 16,
            range_tlb_entries: 32,
            tps_l1_skewed: false,
        }
    }
}

impl TlbConfig {
    /// Table I configuration with the given organization.
    pub fn with_kind(kind: HierarchyKind) -> Self {
        TlbConfig {
            kind,
            ..Default::default()
        }
    }
}

/// The result a TLB structure produced for one access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Translation {
    /// Base-page PFN the accessed VPN maps to.
    pub pfn: u64,
    /// Whether the cached mapping permits writes.
    pub writable: bool,
}

/// Outcome of the L2-level probe.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum L2Hit {
    /// The STLB (or 1 GB STLB) provided the translation.
    Stlb(Translation),
    /// The STLB missed but the Range TLB covered the address (RMM only):
    /// the PTE is constructed without a page walk.
    Range(Translation),
    /// Both missed: a page walk is required.
    Miss,
}

tps_core::counter_table! {
    /// Hit/miss counters of the hierarchy.
    #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
    pub struct TlbStats {
        /// L1 lookups performed (= memory accesses translated).
        pub accesses: u64,
        /// L1 hits.
        pub l1_hits: u64,
        /// L2 hits in the STLB structures.
        pub stlb_hits: u64,
        /// L2 hits provided by the Range TLB after an STLB miss.
        pub range_hits: u64,
        /// Accesses that missed every TLB level (page walks).
        pub l2_misses: u64,
    }
}

impl TlbStats {
    /// L1 misses.
    pub fn l1_misses(&self) -> u64 {
        self.accesses - self.l1_hits
    }

    /// L1 hit rate in `[0, 1]`.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.l1_hits as f64 / self.accesses as f64
        }
    }
}

/// The L1 structures of one organization. Each variant holds exactly the
/// structures its organization fills; [`TlbHierarchy::lookup_l1`] probes
/// them in field order.
#[derive(Clone, Debug)]
enum L1 {
    /// Baseline and RMM: one TLB per conventional page size.
    Conventional {
        p4k: SetAssocTlb,
        p2m: AnySizeTlb,
        p1g: AnySizeTlb,
    },
    /// CoLT: coalescing 4 KB and 2 MB TLBs, and a plain 1 GB TLB.
    Colt {
        c4k: ColtTlb,
        c2m: ColtTlb,
        p1g: AnySizeTlb,
    },
    /// TPS: a 4 KB TLB and the fully-associative any-size TLB.
    Tps { p4k: SetAssocTlb, any: AnySizeTlb },
    /// TPS with the skewed-associative any-size TLB (design ablation).
    TpsSkewed { p4k: SetAssocTlb, any: SkewedTlb },
}

/// The conventional STLB: dual-probe 4 KB/2 MB array, then the 1 GB STLB.
#[derive(Clone, Debug)]
struct ConventionalStlb {
    dual: DualStlb,
    p1g: AnySizeTlb,
}

impl ConventionalStlb {
    /// The entry found, and whether an injected fault forced the dual
    /// probe to miss.
    fn lookup(&mut self, asid: Asid, vpn: u64) -> (Option<TlbEntry>, bool) {
        let probe = self.dual.lookup(asid, vpn);
        let hit = probe.hit().or_else(|| self.p1g.lookup(asid, vpn));
        (hit, probe == StlbProbe::ForcedMiss)
    }

    fn fill(&mut self, entry: TlbEntry) -> FillOutcome {
        match entry.order {
            PageOrder::P4K | PageOrder::P2M => {
                self.dual.fill(entry);
                FillOutcome::Installed
            }
            PageOrder::P1G => self.p1g.fill(entry),
            other => panic!("conventional STLB cannot hold a {other} page"),
        }
    }

    fn shoot_down(&mut self, inv: Invalidation) {
        self.dual.shoot_down(inv);
        self.p1g.shoot_down(inv);
    }
}

/// The L2 structures of one organization.
#[derive(Clone, Debug)]
enum L2 {
    /// Baseline and CoLT.
    Conventional(ConventionalStlb),
    /// RMM: the conventional STLB, then the Range TLB on its miss.
    Rmm(ConventionalStlb, RangeTlb),
    /// TPS: one any-size STLB.
    Tps(AnySizeTlb),
}

/// The full two-level TLB hierarchy of one core.
///
/// The hierarchy performs lookups and fills; *when* to fill which level is
/// orchestrated by the simulator's MMU so walk/fault interleaving is modeled
/// in one place.
#[derive(Clone, Debug)]
pub struct TlbHierarchy {
    l1: L1,
    l2: L2,
    stats: TlbStats,
}

fn translation(pfn: u64, writable: bool) -> Translation {
    Translation { pfn, writable }
}

impl TlbHierarchy {
    /// Builds a hierarchy from a configuration.
    pub fn new(config: TlbConfig) -> Self {
        let p4k = || SetAssocTlb::new(config.l1_4k_sets, config.l1_4k_ways, PageOrder::P4K);
        let stlb = || ConventionalStlb {
            dual: DualStlb::new(config.stlb_sets, config.stlb_ways),
            p1g: AnySizeTlb::new(config.stlb_1g_entries),
        };
        let conventional_l1 = || L1::Conventional {
            p4k: p4k(),
            p2m: AnySizeTlb::new(config.l1_2m_entries),
            p1g: AnySizeTlb::new(config.l1_1g_entries),
        };
        let (l1, l2) = match config.kind {
            HierarchyKind::Baseline => (conventional_l1(), L2::Conventional(stlb())),
            HierarchyKind::Rmm => (
                conventional_l1(),
                L2::Rmm(stlb(), RangeTlb::new(config.range_tlb_entries)),
            ),
            HierarchyKind::Colt => (
                L1::Colt {
                    c4k: ColtTlb::new(config.l1_4k_sets, config.l1_4k_ways, PageOrder::P4K),
                    c2m: ColtTlb::new(8, config.l1_2m_entries / 8, PageOrder::P2M),
                    p1g: AnySizeTlb::new(config.l1_1g_entries),
                },
                L2::Conventional(stlb()),
            ),
            HierarchyKind::Tps => (
                if config.tps_l1_skewed {
                    L1::TpsSkewed {
                        p4k: p4k(),
                        any: SkewedTlb::new((config.tps_l1_entries / 4).max(1)),
                    }
                } else {
                    L1::Tps {
                        p4k: p4k(),
                        any: AnySizeTlb::new(config.tps_l1_entries),
                    }
                },
                L2::Tps(AnySizeTlb::new(config.tps_stlb_entries)),
            ),
        };
        TlbHierarchy {
            l1,
            l2,
            stats: TlbStats::default(),
        }
    }

    /// Probes the L1 structures for one access. Counts the access.
    pub fn lookup_l1(&mut self, asid: Asid, va: VirtAddr) -> Option<Translation> {
        self.stats.accesses += 1;
        let vpn = va.base_page_number();
        let hit = self.probe_l1(asid, vpn);
        if hit.is_some() {
            self.stats.l1_hits += 1;
        }
        hit
    }

    fn probe_l1(&mut self, asid: Asid, vpn: u64) -> Option<Translation> {
        let page = |e: TlbEntry| translation(e.translate(vpn), e.writable);
        match &mut self.l1 {
            L1::Conventional { p4k, p2m, p1g } => p4k
                .lookup(asid, vpn)
                .or_else(|| p2m.lookup(asid, vpn))
                .or_else(|| p1g.lookup(asid, vpn))
                .map(page),
            L1::Colt { c4k, c2m, p1g } => c4k
                .lookup(asid, vpn)
                .or_else(|| c2m.lookup(asid, vpn))
                .map(|e| translation(e.translate(vpn), e.writable))
                .or_else(|| p1g.lookup(asid, vpn).map(page)),
            L1::Tps { p4k, any } => p4k
                .lookup(asid, vpn)
                .or_else(|| any.lookup(asid, vpn))
                .map(page),
            L1::TpsSkewed { p4k, any } => p4k
                .lookup(asid, vpn)
                .or_else(|| any.lookup(asid, vpn))
                .map(page),
        }
    }

    /// Probes the L2 structures (STLB — and, under RMM, the Range TLB
    /// after an STLB miss). Counts hits/misses. The flag is `true` when an
    /// injected fault forced the dual-STLB probe to miss.
    pub fn lookup_l2(&mut self, asid: Asid, va: VirtAddr) -> (L2Hit, bool) {
        let vpn = va.base_page_number();
        let (stlb_hit, forced_miss) = match &mut self.l2 {
            L2::Conventional(stlb) | L2::Rmm(stlb, _) => stlb.lookup(asid, vpn),
            L2::Tps(stlb) => (stlb.lookup(asid, vpn), false),
        };
        if let Some(e) = stlb_hit {
            self.stats.stlb_hits += 1;
            let hit = L2Hit::Stlb(translation(e.translate(vpn), e.writable));
            return (hit, forced_miss);
        }
        if let L2::Rmm(_, range) = &mut self.l2 {
            if let Some(r) = range.lookup(asid, vpn) {
                self.stats.range_hits += 1;
                let hit = L2Hit::Range(translation(r.translate(vpn), r.writable));
                return (hit, forced_miss);
            }
        }
        self.stats.l2_misses += 1;
        (L2Hit::Miss, forced_miss)
    }

    /// Installs a walked leaf into the appropriate L1 structure with no
    /// contiguity information: CoLT fills degrade to single-page runs.
    pub fn fill_l1(&mut self, asid: Asid, va: VirtAddr, leaf: &LeafInfo) -> FillOutcome {
        self.fill_l1_with_probe(asid, va, leaf, |_, _| None)
    }

    /// [`Self::fill_l1`] with CoLT's PTE-cache-line contiguity probe: for
    /// a page number at the given granularity, the probe returns the
    /// `(frame, writable)` mapping of that neighbor if one of exactly that
    /// size exists. Ignored by the other organizations. The probe is a
    /// generic parameter (not `dyn`) so the per-fill neighbor checks
    /// inline into the CoLT run detection. Only the any-size structures
    /// can absorb an injected fault; every other fill reports
    /// [`FillOutcome::Installed`].
    pub fn fill_l1_with_probe(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        leaf: &LeafInfo,
        contiguity: impl Fn(u64, PageOrder) -> Option<(u64, bool)>,
    ) -> FillOutcome {
        let entry = TlbEntry::from_leaf(asid, va, leaf);
        let g = entry.order;
        match &mut self.l1 {
            L1::Conventional { p4k, .. } | L1::Tps { p4k, .. } | L1::TpsSkewed { p4k, .. }
                if g == PageOrder::P4K =>
            {
                p4k.fill(entry)
            }
            L1::Tps { any, .. } => return any.fill(entry),
            L1::TpsSkewed { any, .. } => any.fill(entry),
            L1::Conventional { p2m, .. } if g == PageOrder::P2M => return p2m.fill(entry),
            L1::Conventional { p1g, .. } | L1::Colt { p1g, .. } if g == PageOrder::P1G => {
                return p1g.fill(entry)
            }
            L1::Colt { c4k, c2m, .. } if g == PageOrder::P4K || g == PageOrder::P2M => {
                let colt = if g == PageOrder::P4K { c4k } else { c2m };
                let upn = va.base_page_number() >> g.get();
                let ufn = entry.pfn >> g.get();
                colt.fill(detect_run(asid, g, upn, ufn, entry.writable, |u| {
                    contiguity(u, g)
                }));
            }
            L1::Conventional { .. } | L1::Colt { .. } => {
                panic!("conventional hierarchy cannot hold a {g} page")
            }
        }
        FillOutcome::Installed
    }

    /// Installs a walked leaf into the L2 level.
    pub fn fill_l2(&mut self, asid: Asid, va: VirtAddr, leaf: &LeafInfo) -> FillOutcome {
        let entry = TlbEntry::from_leaf(asid, va, leaf);
        match &mut self.l2 {
            L2::Conventional(stlb) | L2::Rmm(stlb, _) => stlb.fill(entry),
            L2::Tps(stlb) => stlb.fill(entry),
        }
    }

    /// Installs a range into the Range TLB (no-op unless RMM).
    pub fn fill_range(&mut self, entry: RangeEntry) {
        if let L2::Rmm(_, range) = &mut self.l2 {
            range.fill(entry);
        }
    }

    /// True if this hierarchy has a Range TLB (i.e. is RMM).
    pub fn has_range_tlb(&self) -> bool {
        matches!(self.l2, L2::Rmm(..))
    }

    /// Shoots down all cached translations overlapping a page.
    pub fn invalidate_page(&mut self, asid: Asid, va: VirtAddr, order: PageOrder) {
        self.shoot_down(Invalidation::page(asid, va, order));
    }

    /// Removes every cached translation of an ASID.
    pub fn invalidate_asid(&mut self, asid: Asid) {
        self.shoot_down(Invalidation::Asid(asid));
    }

    fn shoot_down(&mut self, inv: Invalidation) {
        match &mut self.l1 {
            L1::Conventional { p4k, p2m, p1g } => {
                p4k.shoot_down(inv);
                p2m.shoot_down(inv);
                p1g.shoot_down(inv);
            }
            L1::Colt { c4k, c2m, p1g } => {
                c4k.shoot_down(inv);
                c2m.shoot_down(inv);
                p1g.shoot_down(inv);
            }
            L1::Tps { p4k, any } => {
                p4k.shoot_down(inv);
                any.shoot_down(inv);
            }
            L1::TpsSkewed { p4k, any } => {
                p4k.shoot_down(inv);
                any.shoot_down(inv);
            }
        }
        match &mut self.l2 {
            L2::Conventional(stlb) => stlb.shoot_down(inv),
            L2::Rmm(stlb, range) => {
                stlb.shoot_down(inv);
                range.shoot_down(inv);
            }
            L2::Tps(stlb) => stlb.shoot_down(inv),
        }
    }

    /// Installs (or removes) a fault injector on every structure that
    /// carries injection hooks: the any-size TLBs (fill/evict sites) and
    /// the dual STLB (probe site). The set-associative, CoLT, skewed and
    /// range structures are not instrumented.
    pub fn set_fault_injector(&mut self, injector: Option<InjectorHandle>) {
        match &mut self.l1 {
            L1::Conventional { p2m, p1g, .. } => {
                p2m.set_fault_injector(injector.clone());
                p1g.set_fault_injector(injector.clone());
            }
            L1::Colt { p1g, .. } => p1g.set_fault_injector(injector.clone()),
            L1::Tps { any, .. } => any.set_fault_injector(injector.clone()),
            L1::TpsSkewed { .. } => {}
        }
        match &mut self.l2 {
            L2::Conventional(stlb) | L2::Rmm(stlb, _) => {
                stlb.dual.set_fault_injector(injector.clone());
                stlb.p1g.set_fault_injector(injector);
            }
            L2::Tps(stlb) => stlb.set_fault_injector(injector),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::{PhysAddr, PteFlags, GIB};

    fn leaf(pa: u64, order: u8) -> LeafInfo {
        LeafInfo {
            base: PhysAddr::new(pa),
            order: PageOrder::new(order).unwrap(),
            flags: PteFlags::PRESENT | PteFlags::WRITABLE,
        }
    }

    #[test]
    fn baseline_miss_fill_hit_cycle() {
        let mut h = TlbHierarchy::new(TlbConfig::default());
        let va = VirtAddr::new(0x1234_5000);
        assert!(h.lookup_l1(0, va).is_none());
        assert_eq!(h.lookup_l2(0, va).0, L2Hit::Miss);
        let l = leaf(0x8000_0000, 0);
        h.fill_l1(0, va, &l);
        h.fill_l2(0, va, &l);
        let t = h.lookup_l1(0, va).unwrap();
        assert_eq!(t.pfn, 0x8000_0000 >> 12);
        let s = h.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.l2_misses, 1);
    }

    #[test]
    fn stlb_backstops_l1_eviction() {
        let mut h = TlbHierarchy::new(TlbConfig::default());
        // Fill 65 distinct 4K pages: more than the 64-entry L1.
        for i in 0..65u64 {
            let va = VirtAddr::new(i << 12);
            let l = leaf(i << 12, 0);
            h.fill_l1(0, va, &l);
            h.fill_l2(0, va, &l);
        }
        // Page 0 was evicted from L1 but lives in the STLB.
        let va0 = VirtAddr::new(0);
        assert!(h.lookup_l1(0, va0).is_none());
        assert!(matches!(h.lookup_l2(0, va0).0, L2Hit::Stlb(_)));
    }

    #[test]
    fn tps_hierarchy_accepts_tailored_sizes() {
        let mut h = TlbHierarchy::new(TlbConfig::with_kind(HierarchyKind::Tps));
        let va = VirtAddr::new(GIB);
        let l = leaf(GIB, 14); // 64 MB tailored page
        h.fill_l1(0, va, &l);
        h.fill_l2(0, va, &l);
        // Anywhere within 64 MB hits the single TPS entry.
        let deep = VirtAddr::new(GIB + (63 << 20));
        let t = h.lookup_l1(0, deep).unwrap();
        assert_eq!(t.pfn, deep.base_page_number());
        assert_eq!(h.stats().l1_hits, 1);
    }

    #[test]
    fn one_gig_shootdown_reaches_both_levels() {
        for kind in [HierarchyKind::Baseline, HierarchyKind::Rmm] {
            let mut h = TlbHierarchy::new(TlbConfig::with_kind(kind));
            let va = VirtAddr::new(3 * GIB);
            let l = leaf(GIB, PageOrder::P1G.get());
            h.fill_l1(0, va, &l);
            h.fill_l2(0, va, &l);
            assert!(h.lookup_l1(0, va).is_some(), "{kind:?}: L1 fill");
            assert!(matches!(h.lookup_l2(0, va).0, L2Hit::Stlb(_)), "{kind:?}");
            h.invalidate_page(0, va, PageOrder::P1G);
            let inside = va + (GIB - 1);
            assert!(h.lookup_l1(0, inside).is_none(), "{kind:?}: stale L1");
            assert_eq!(
                h.lookup_l2(0, inside).0,
                L2Hit::Miss,
                "{kind:?}: stale STLB"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn baseline_rejects_tailored_fill() {
        let mut h = TlbHierarchy::new(TlbConfig::default());
        h.fill_l1(0, VirtAddr::new(0), &leaf(0, 3));
    }

    #[test]
    fn colt_coalesces_with_probe() {
        let mut h = TlbHierarchy::new(TlbConfig::with_kind(HierarchyKind::Colt));
        // Pages 0..8 map contiguously to frames 0..8.
        let probe = |v: u64, g: PageOrder| (g == PageOrder::P4K && v < 8).then_some((v, true));
        h.fill_l1_with_probe(0, VirtAddr::new(0x3000), &leaf(0x3000, 0), probe);
        // The single fill covers the whole window.
        for i in 0..8u64 {
            assert!(h.lookup_l1(0, VirtAddr::new(i << 12)).is_some(), "page {i}");
        }
        assert!(h.lookup_l1(0, VirtAddr::new(8 << 12)).is_none());
    }

    #[test]
    fn rmm_range_hit_after_stlb_miss() {
        let mut h = TlbHierarchy::new(TlbConfig::with_kind(HierarchyKind::Rmm));
        h.fill_range(RangeEntry {
            asid: 0,
            start_vpn: 0x1000, // tps-lint::allow(no-magic-page-size, reason = "VPN index, not a byte size")
            end_vpn: 0x10_0000,
            delta: 0x5000,
            writable: true,
        });
        let va = VirtAddr::new(0x8765 << 12);
        assert!(h.lookup_l1(0, va).is_none());
        match h.lookup_l2(0, va).0 {
            L2Hit::Range(t) => assert_eq!(t.pfn, 0x8765 + 0x5000),
            other => panic!("expected range hit, got {other:?}"),
        }
        assert_eq!(h.stats().range_hits, 1);
    }

    #[test]
    fn baseline_ignores_range_fill() {
        let mut h = TlbHierarchy::new(TlbConfig::default());
        assert!(!h.has_range_tlb());
        h.fill_range(RangeEntry {
            asid: 0,
            start_vpn: 0,
            end_vpn: 100,
            delta: 0,
            writable: true,
        });
        assert_eq!(h.lookup_l2(0, VirtAddr::new(0x5000)).0, L2Hit::Miss);
    }

    #[test]
    fn shootdown_reaches_every_level() {
        let mut h = TlbHierarchy::new(TlbConfig::default());
        let va = VirtAddr::new(0x7000);
        let l = leaf(0x9000, 0);
        h.fill_l1(0, va, &l);
        h.fill_l2(0, va, &l);
        h.invalidate_page(0, va, PageOrder::P4K);
        assert!(h.lookup_l1(0, va).is_none());
        assert_eq!(h.lookup_l2(0, va).0, L2Hit::Miss);
    }

    #[test]
    fn asid_isolation_across_hierarchy() {
        let mut h = TlbHierarchy::new(TlbConfig::with_kind(HierarchyKind::Tps));
        let va = VirtAddr::new(GIB);
        let l = leaf(GIB, 10);
        h.fill_l1(1, va, &l);
        assert!(h.lookup_l1(2, va).is_none());
        assert!(h.lookup_l1(1, va).is_some());
        h.invalidate_asid(1);
        assert!(h.lookup_l1(1, va).is_none());
    }

    #[test]
    fn skewed_tps_l1_serves_tailored_sizes() {
        let mut config = TlbConfig::with_kind(HierarchyKind::Tps);
        config.tps_l1_skewed = true;
        let mut h = TlbHierarchy::new(config);
        let va = VirtAddr::new(GIB);
        let l = leaf(GIB, 14);
        h.fill_l1(0, va, &l);
        assert!(h.lookup_l1(0, VirtAddr::new(GIB + (63 << 20))).is_some());
        h.invalidate_page(0, va, PageOrder::new(14).unwrap());
        assert!(h.lookup_l1(0, va).is_none());
    }

    #[test]
    fn hit_rate_computation() {
        let mut s = TlbStats::default();
        assert_eq!(s.l1_hit_rate(), 1.0, "vacuous");
        s.accesses = 10;
        s.l1_hits = 9;
        s.stlb_hits = 1;
        assert!((s.l1_hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(s.l1_misses(), 1);
    }
}
