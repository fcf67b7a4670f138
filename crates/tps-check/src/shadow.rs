//! Differential shadow-walk oracle for the hardware-layer fault sites.
//!
//! The OS-level campaign checks cross-layer invariants; this oracle
//! checks the *hardware model* under injected faults. Under THP, CoLT, RMM
//! and TPS in turn it drives random accesses through the simulator's own
//! [`Mmu::access`] — the TLB hierarchy that mechanism builds, its MMU
//! paging-structure caches and its page walker — with every hardware
//! [`tps_core::FaultSite`] armed, and replays **every** translation (in
//! particular every one that absorbed a fault) against a naive reference
//! walker that descends the page table entry by entry with no caches, no
//! TLBs, and no injector. Injected hardware faults may only cost time;
//! any divergence from the reference is a correctness violation.

use crate::{FaultPlan, FaultPlanConfig};
use tps_core::rng::Rng;
use tps_core::{PhysAddr, VirtAddr, BASE_PAGE_SIZE};
use tps_os::{Os, PolicyConfig, Vma};
use tps_pt::PageTable;
use tps_sim::{AccessLevel, HwFaultStats, MachineConfig, Mechanism, Mmu};
use tps_tlb::TlbConfig;

/// Knobs for one shadow-walk run.
#[derive(Copy, Clone, Debug)]
pub struct ShadowConfig {
    /// Random translations driven through each mechanism's MMU.
    pub translations: u32,
    /// Master seed: fixes the address stream and the fault stream.
    pub seed: u64,
    /// Per-site probability armed on every hardware fault site.
    pub rate: f64,
    /// Modeled physical memory backing the mappings.
    pub mem_bytes: u64,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        ShadowConfig {
            translations: 4_000,
            seed: 0x5aad_0e11,
            rate: 0.05,
            mem_bytes: 64 << 20,
        }
    }
}

/// What one shadow-walk run observed.
#[derive(Clone, Debug, Default)]
pub struct ShadowReport {
    /// Translations performed, over every mechanism.
    pub translations: u64,
    /// Translations during which the injector fired at least once.
    pub faulted_translations: u64,
    /// L1 TLB hits, over every mechanism.
    pub tlb_hits: u64,
    /// STLB hits, over every mechanism.
    pub stlb_hits: u64,
    /// Full page walks, over every mechanism.
    pub walks: u64,
    /// Each mechanism's translations by the [`AccessLevel`] that served
    /// them (indexed `level as usize`), one entry per TLB organization:
    /// THP, CoLT, RMM, TPS.
    pub served: Vec<(Mechanism, [u64; 4])>,
    /// Product-vs-reference divergences (correctness violations; must be
    /// empty). Each entry names the mechanism, the VA and both frames.
    pub mismatches: Vec<String>,
    /// Injections per fault-site label, in label order.
    pub injected: Vec<(&'static str, u64)>,
    /// The panic-free cost of the absorbed faults: every MMU's ledger plus
    /// every page table's alias-install retries.
    pub degradations: HwFaultStats,
}

impl ShadowReport {
    /// Injections recorded for one site label.
    pub fn injected_at(&self, label: &str) -> u64 {
        self.injected
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |(_, n)| *n)
    }
}

/// The naive reference walker: a plain radix descent over raw entries.
/// No caches, no TLBs, no injector, no alias bookkeeping — just the
/// architectural definition of a page walk.
fn reference_walk(pt: &PageTable, va: VirtAddr) -> Option<PhysAddr> {
    let mut level = pt.levels();
    let mut node = pt.root();
    loop {
        let pte = pt.read_entry(node, va.pt_index(level));
        if !pte.is_present() {
            return None;
        }
        if pte.is_leaf(level) {
            let leaf = pte.decode_leaf(level).ok()?;
            return Some(PhysAddr::new(
                leaf.base.value() + va.page_offset(leaf.order.shift()),
            ));
        }
        node = pte.next_table();
        level -= 1;
    }
}

/// `mechanism`'s Table I machine with deliberately tiny TLBs: TPS
/// promotion covers each arena with a handful of tailored pages, so
/// realistic capacities would almost never miss — and the fill, evict and
/// probe sites only fire on misses.
fn tiny_tlb_machine(mechanism: Mechanism) -> MachineConfig {
    let mut config = MachineConfig::for_mechanism(mechanism);
    config.tlb = TlbConfig {
        l1_4k_sets: 1,
        l1_4k_ways: 4,
        l1_2m_entries: 8,
        l1_1g_entries: 1,
        tps_l1_entries: 4,
        stlb_sets: 4,
        stlb_ways: 2,
        stlb_1g_entries: 1,
        tps_stlb_entries: 8,
        range_tlb_entries: 2,
        ..config.tlb
    };
    config
}

/// Runs the oracle: for each of THP, CoLT, RMM and TPS, populates an
/// address space under that mechanism's policy, then drives `cfg.translations`
/// random translations through its faulted MMU, checking each against a
/// naive walk of the page table.
pub fn run_shadow_walk(cfg: &ShadowConfig) -> ShadowReport {
    // Arm every hardware site; OS sites stay at zero so the only faults
    // in play are the ones this oracle is auditing. One fault stream runs
    // through every mechanism.
    let (handle, plan) = FaultPlan::handles(FaultPlanConfig::uniform_hw(
        cfg.seed ^ 0x9e37_79b9_7f4a_7c15,
        cfg.rate,
    ));
    let mut report = ShadowReport::default();
    for mechanism in [
        Mechanism::Thp,
        Mechanism::Colt,
        Mechanism::Rmm,
        Mechanism::Tps,
    ] {
        let mut rng = Rng::new(cfg.seed);
        let mut os = Os::new(cfg.mem_bytes, PolicyConfig::new(mechanism.policy_kind()));
        let pid = os.spawn();
        let mut mmu = Mmu::new(&tiny_tlb_machine(mechanism));
        mmu.open_ledger(pid);
        // The OS hook reaches the page table's alias-install site; the
        // MMU's reaches its walker, MMU caches and TLBs.
        os.set_fault_injector(Some(handle.clone()));
        mmu.set_fault_injector(Some(handle.clone()));

        // Populate: a few VMAs, every base page touched, so the policy
        // promotes (TPS to tailored pages, installing alias PTEs).
        let mut vmas: Vec<Vma> = Vec::new();
        for _ in 0..8 {
            let bytes = BASE_PAGE_SIZE * (32 + rng.below(96));
            let vma = os.mmap(pid, bytes).expect("shadow arena fits");
            for page in 0..vma.len() / BASE_PAGE_SIZE {
                let va = vma.base() + page * BASE_PAGE_SIZE;
                mmu.access(&mut os, pid, va, rng.chance(0.5))
                    .expect("demand fault succeeds");
            }
            vmas.push(vma);
        }

        let mut served = [0u64; 4];
        for _ in 0..cfg.translations {
            let vma = &vmas[rng.below(vmas.len() as u64) as usize];
            let va = VirtAddr::new(vma.base().value() + rng.below(vma.len()));
            let injected_before = plan.borrow().injected_total();
            let out = mmu
                .access(&mut os, pid, va, false)
                .expect("every VA in the arena is mapped");
            served[out.level as usize] += 1;
            if plan.borrow().injected_total() > injected_before {
                report.faulted_translations += 1;
            }
            report.translations += 1;

            // The differential check: the MMU must agree with the naive
            // reference on every translation, faulted or not.
            let reference = reference_walk(os.page_table(pid), va);
            if reference.map(PhysAddr::base_page_number) != Some(out.pfn)
                && report.mismatches.len() < 32
            {
                report.mismatches.push(format!(
                    "{mechanism} va {va}: frame {:#x}, reference {reference:?}",
                    out.pfn
                ));
            }
        }

        report.tlb_hits += served[AccessLevel::L1 as usize];
        report.stlb_hits += served[AccessLevel::Stlb as usize];
        report.walks += served[AccessLevel::Walk as usize];
        report.served.push((mechanism, served));
        report.degradations.accumulate(&mmu.ledger(pid).faults);
        report.degradations.alias_install_retries += os.page_table(pid).alias_install_retries();
    }
    report.injected = plan
        .borrow()
        .injected()
        .iter()
        .map(|(label, count)| (*label, *count))
        .collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulted_translations_always_match_the_reference() {
        let report = run_shadow_walk(&ShadowConfig::default());
        assert!(report.mismatches.is_empty(), "{:#?}", report.mismatches);
        assert!(report.faulted_translations > 0, "faults actually landed");
        assert!(report.walks > 0 && report.tlb_hits > 0);
    }

    #[test]
    fn every_mechanism_walks_and_rmm_hits_its_range_tlb() {
        let report = run_shadow_walk(&ShadowConfig::default());
        let mechanisms: Vec<_> = report.served.iter().map(|(m, _)| *m).collect();
        assert_eq!(
            mechanisms,
            [
                Mechanism::Thp,
                Mechanism::Colt,
                Mechanism::Rmm,
                Mechanism::Tps
            ]
        );
        for (mechanism, served) in &report.served {
            assert!(
                served[AccessLevel::Walk as usize] > 0,
                "{mechanism}: {served:?}"
            );
            let range = served[AccessLevel::Range as usize];
            if *mechanism == Mechanism::Rmm {
                assert!(range > 0, "RMM never hit its range TLB: {served:?}");
            } else {
                assert_eq!(range, 0, "{mechanism} has no range TLB");
            }
        }
    }

    #[test]
    fn every_hardware_site_fires_and_is_absorbed() {
        // A high rate and enough traffic make every site statistically
        // certain to fire; the seed pins the exact counts.
        let report = run_shadow_walk(&ShadowConfig {
            rate: 0.2,
            ..ShadowConfig::default()
        });
        for label in [
            "walk-step",
            "alias-install",
            "mmu-cache-fill",
            "any-size-fill",
            "any-size-evict",
            "stlb-probe",
        ] {
            assert!(
                report.injected_at(label) > 0,
                "site {label} never fired: {:?}",
                report.injected
            );
        }
        assert!(report.mismatches.is_empty(), "{:#?}", report.mismatches);
        // Each injection shows up as a degradation, never a wrong answer.
        let degradations: u64 = report.degradations.values().iter().sum();
        assert!(degradations > 0);
    }

    #[test]
    fn oracle_replays_deterministically() {
        let a = run_shadow_walk(&ShadowConfig::default());
        let b = run_shadow_walk(&ShadowConfig::default());
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.degradations, b.degradations);
        assert_eq!(a.tlb_hits, b.tlb_hits);
        assert_eq!(a.walks, b.walks);
    }
}
