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
//! capacity — the paper leaves its indexing unspecified, and TPS almost
//! never reaches the STLB anyway.

use crate::any_size::{AnySizeTlb, FillOutcome};
use crate::colt::{detect_run, ColtTlb};
use crate::dual_stlb::{DualStlb, StlbProbe};
use crate::entry::{Asid, TlbEntry};
use crate::range_tlb::{RangeEntry, RangeTlb};
use crate::set_assoc::SetAssocTlb;
use crate::skewed::SkewedTlb;
use tps_core::{InjectorHandle, LeafInfo, PageOrder, PteFlags, VirtAddr};

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

    /// L1 misses that still hit somewhere in the L2 level.
    pub fn l1_miss_l2_hit(&self) -> u64 {
        self.stlb_hits + self.range_hits
    }
}

/// The full two-level TLB hierarchy of one core.
///
/// The hierarchy performs lookups and fills; *when* to fill which level is
/// orchestrated by the simulator's MMU so walk/fault interleaving is modeled
/// in one place.
#[derive(Clone, Debug)]
pub struct TlbHierarchy {
    kind: HierarchyKind,
    l1_4k: SetAssocTlb,
    colt_l1: Option<ColtTlb>,
    colt_l1_2m: Option<ColtTlb>,
    l1_2m: Option<AnySizeTlb>,
    l1_1g: Option<AnySizeTlb>,
    tps_l1: Option<AnySizeTlb>,
    tps_l1_skewed: Option<SkewedTlb>,
    stlb: Option<DualStlb>,
    stlb_1g: Option<AnySizeTlb>,
    tps_stlb: Option<AnySizeTlb>,
    range: Option<RangeTlb>,
    stats: TlbStats,
}

impl TlbHierarchy {
    /// Builds a hierarchy from a configuration.
    pub fn new(config: TlbConfig) -> Self {
        let kind = config.kind;
        let tps = kind == HierarchyKind::Tps;
        TlbHierarchy {
            kind,
            l1_4k: SetAssocTlb::new(config.l1_4k_sets, config.l1_4k_ways, PageOrder::P4K),
            colt_l1: (kind == HierarchyKind::Colt)
                .then(|| ColtTlb::new(config.l1_4k_sets, config.l1_4k_ways, PageOrder::P4K)),
            colt_l1_2m: (kind == HierarchyKind::Colt)
                .then(|| ColtTlb::new(8, config.l1_2m_entries / 8, PageOrder::P2M)),
            l1_2m: (!tps).then(|| AnySizeTlb::new(config.l1_2m_entries)),
            l1_1g: (!tps).then(|| AnySizeTlb::new(config.l1_1g_entries)),
            tps_l1: (tps && !config.tps_l1_skewed).then(|| AnySizeTlb::new(config.tps_l1_entries)),
            tps_l1_skewed: (tps && config.tps_l1_skewed)
                .then(|| SkewedTlb::new((config.tps_l1_entries / 4).max(1))),
            stlb: (!tps).then(|| DualStlb::new(config.stlb_sets, config.stlb_ways)),
            stlb_1g: (!tps).then(|| AnySizeTlb::new(config.stlb_1g_entries)),
            tps_stlb: tps.then(|| AnySizeTlb::new(config.tps_stlb_entries)),
            range: (kind == HierarchyKind::Rmm).then(|| RangeTlb::new(config.range_tlb_entries)),
            stats: TlbStats::default(),
        }
    }

    /// The configured organization.
    pub fn kind(&self) -> HierarchyKind {
        self.kind
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
        if self.colt_l1.is_some() {
            for colt in [&mut self.colt_l1, &mut self.colt_l1_2m]
                .into_iter()
                .flatten()
            {
                if let Some(e) = colt.lookup(asid, vpn) {
                    return Some(Translation {
                        pfn: e.translate(vpn),
                        writable: e.writable,
                    });
                }
            }
        } else if let Some(e) = self.l1_4k.lookup(asid, vpn) {
            return Some(Translation {
                pfn: e.translate(vpn),
                writable: e.writable,
            });
        }
        for tlb in [&mut self.tps_l1, &mut self.l1_2m, &mut self.l1_1g]
            .into_iter()
            .flatten()
        {
            if let Some(e) = tlb.lookup(asid, vpn) {
                return Some(Translation {
                    pfn: e.translate(vpn),
                    writable: e.writable,
                });
            }
        }
        if let Some(t) = &mut self.tps_l1_skewed {
            if let Some(e) = t.lookup(asid, vpn) {
                return Some(Translation {
                    pfn: e.translate(vpn),
                    writable: e.writable,
                });
            }
        }
        None
    }

    /// Probes the L2 structures (STLB — and, under RMM, the Range TLB in
    /// parallel). Counts hits/misses. The flag is `true` when an injected
    /// fault forced the dual-STLB probe to miss.
    pub fn lookup_l2(&mut self, asid: Asid, va: VirtAddr) -> (L2Hit, bool) {
        let vpn = va.base_page_number();
        let probe = self.stlb.as_mut().map(|s| s.lookup(asid, vpn));
        let forced_miss = probe == Some(StlbProbe::ForcedMiss);
        let stlb_hit = probe
            .and_then(StlbProbe::hit)
            .or_else(|| self.stlb_1g.as_mut().and_then(|s| s.lookup(asid, vpn)))
            .or_else(|| self.tps_stlb.as_mut().and_then(|s| s.lookup(asid, vpn)));
        if let Some(e) = stlb_hit {
            self.stats.stlb_hits += 1;
            let hit = L2Hit::Stlb(Translation {
                pfn: e.translate(vpn),
                writable: e.writable,
            });
            return (hit, forced_miss);
        }
        if let Some(range) = &mut self.range {
            if let Some(r) = range.lookup(asid, vpn) {
                self.stats.range_hits += 1;
                let hit = L2Hit::Range(Translation {
                    pfn: r.translate(vpn),
                    writable: r.writable,
                });
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
        match self.kind {
            HierarchyKind::Tps => {
                if entry.order == PageOrder::P4K {
                    self.l1_4k.fill(entry);
                } else if let Some(t) = &mut self.tps_l1 {
                    return t.fill(entry);
                } else {
                    self.tps_l1_skewed
                        .as_mut()
                        .expect("a TPS L1 structure exists")
                        .fill(entry);
                }
            }
            HierarchyKind::Colt => {
                let g = entry.order;
                if g == PageOrder::P4K || g == PageOrder::P2M {
                    let upn = va.base_page_number() >> g.get();
                    let ufn = entry.pfn >> g.get();
                    let writable = leaf.flags.contains(PteFlags::WRITABLE);
                    let run = detect_run(asid, g, upn, ufn, writable, |u| contiguity(u, g));
                    if g == PageOrder::P4K {
                        self.colt_l1.as_mut().expect("CoLT 4K L1 exists").fill(run);
                    } else {
                        self.colt_l1_2m
                            .as_mut()
                            .expect("CoLT 2M L1 exists")
                            .fill(run);
                    }
                } else {
                    return self.fill_l1_conventional_large(entry);
                }
            }
            HierarchyKind::Baseline | HierarchyKind::Rmm => {
                if entry.order == PageOrder::P4K {
                    self.l1_4k.fill(entry);
                } else {
                    return self.fill_l1_conventional_large(entry);
                }
            }
        }
        FillOutcome::Installed
    }

    fn fill_l1_conventional_large(&mut self, entry: TlbEntry) -> FillOutcome {
        match entry.order {
            PageOrder::P2M => self.l1_2m.as_mut().expect("2M L1 exists").fill(entry),
            PageOrder::P1G => self.l1_1g.as_mut().expect("1G L1 exists").fill(entry),
            other => panic!("conventional hierarchy cannot hold a {other} page"),
        }
    }

    /// Installs a walked leaf into the L2 level.
    pub fn fill_l2(&mut self, asid: Asid, va: VirtAddr, leaf: &LeafInfo) -> FillOutcome {
        let entry = TlbEntry::from_leaf(asid, va, leaf);
        if let Some(stlb) = &mut self.tps_stlb {
            return stlb.fill(entry);
        }
        match entry.order {
            PageOrder::P4K | PageOrder::P2M => {
                self.stlb.as_mut().expect("dual STLB exists").fill(entry);
                FillOutcome::Installed
            }
            PageOrder::P1G => self.stlb_1g.as_mut().expect("1G STLB exists").fill(entry),
            other => panic!("conventional STLB cannot hold a {other} page"),
        }
    }

    /// Installs a range into the Range TLB (no-op unless RMM).
    pub fn fill_range(&mut self, entry: RangeEntry) {
        if let Some(range) = &mut self.range {
            range.fill(entry);
        }
    }

    /// True if this hierarchy has a Range TLB (i.e. is RMM).
    pub fn has_range_tlb(&self) -> bool {
        self.range.is_some()
    }

    /// Shoots down all cached translations overlapping a page.
    pub fn invalidate_page(&mut self, asid: Asid, va: VirtAddr, order: PageOrder) {
        self.l1_4k.invalidate(asid, va, order);
        for t in [&mut self.colt_l1, &mut self.colt_l1_2m]
            .into_iter()
            .flatten()
        {
            t.invalidate(asid, va, order);
        }
        for t in [&mut self.l1_2m, &mut self.l1_1g, &mut self.tps_l1]
            .into_iter()
            .flatten()
        {
            t.invalidate(asid, va, order);
        }
        if let Some(t) = &mut self.tps_l1_skewed {
            t.invalidate(asid, va, order);
        }
        if let Some(t) = &mut self.stlb {
            t.invalidate(asid, va, order);
        }
        for t in [&mut self.stlb_1g, &mut self.tps_stlb]
            .into_iter()
            .flatten()
        {
            t.invalidate(asid, va, order);
        }
        if let Some(t) = &mut self.range {
            t.invalidate(asid, va, order);
        }
    }

    /// Removes every cached translation of an ASID.
    pub fn invalidate_asid(&mut self, asid: Asid) {
        self.l1_4k.invalidate_asid(asid);
        for t in [&mut self.colt_l1, &mut self.colt_l1_2m]
            .into_iter()
            .flatten()
        {
            t.invalidate_asid(asid);
        }
        for t in [&mut self.l1_2m, &mut self.l1_1g, &mut self.tps_l1]
            .into_iter()
            .flatten()
        {
            t.invalidate_asid(asid);
        }
        if let Some(t) = &mut self.tps_l1_skewed {
            t.invalidate_asid(asid);
        }
        if let Some(t) = &mut self.stlb {
            t.invalidate_asid(asid);
        }
        for t in [&mut self.stlb_1g, &mut self.tps_stlb]
            .into_iter()
            .flatten()
        {
            t.invalidate_asid(asid);
        }
        if let Some(t) = &mut self.range {
            t.invalidate_asid(asid);
        }
    }

    /// Flushes everything.
    pub fn flush(&mut self) {
        self.l1_4k.flush();
        for t in [&mut self.colt_l1, &mut self.colt_l1_2m]
            .into_iter()
            .flatten()
        {
            t.flush();
        }
        for t in [&mut self.l1_2m, &mut self.l1_1g, &mut self.tps_l1]
            .into_iter()
            .flatten()
        {
            t.flush();
        }
        if let Some(t) = &mut self.tps_l1_skewed {
            t.flush();
        }
        if let Some(t) = &mut self.stlb {
            t.flush();
        }
        for t in [&mut self.stlb_1g, &mut self.tps_stlb]
            .into_iter()
            .flatten()
        {
            t.flush();
        }
        if let Some(t) = &mut self.range {
            t.flush();
        }
    }

    /// Installs (or removes) a fault injector on every structure that
    /// carries injection hooks: the any-size TLBs (fill/evict sites) and
    /// the dual STLB (probe site). The set-associative, CoLT, skewed and
    /// range structures are not instrumented.
    pub fn set_fault_injector(&mut self, injector: Option<InjectorHandle>) {
        for t in [
            &mut self.l1_2m,
            &mut self.l1_1g,
            &mut self.tps_l1,
            &mut self.stlb_1g,
            &mut self.tps_stlb,
        ]
        .into_iter()
        .flatten()
        {
            t.set_fault_injector(injector.clone());
        }
        if let Some(s) = &mut self.stlb {
            s.set_fault_injector(injector);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets counters (not contents) — used after warmup.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Mean CoLT run length (1.0 for other organizations).
    pub fn colt_mean_run_len(&self) -> f64 {
        self.colt_l1.as_ref().map_or(1.0, ColtTlb::mean_run_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::PhysAddr;
    use tps_core::GIB;

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
        assert!(h.colt_mean_run_len() > 7.9);
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
    fn stats_reset() {
        let mut h = TlbHierarchy::new(TlbConfig::default());
        h.lookup_l1(0, VirtAddr::new(0));
        assert_eq!(h.stats().accesses, 1);
        h.reset_stats();
        assert_eq!(h.stats().accesses, 0);
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
        assert_eq!(s.l1_miss_l2_hit(), 1);
    }
}
