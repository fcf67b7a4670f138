//! Deterministic fault-injection hooks (robustness substrate).
//!
//! The OS model's graceful-degradation claims — 4 KB fallback under
//! fragmentation, reservation denial, interrupted compaction, retried TLB
//! shootdowns — are only trustworthy if those paths are actually exercised.
//! The same holds one layer down: the paper's core mechanism (one PTE per
//! arbitrarily sized power-of-two region) lives in the page-table walker,
//! the alias-PTE install paths, and the any-size TLBs, so those structures
//! carry injection hooks too. This module defines the *vocabulary* for
//! injecting such faults — a [`FaultSite`] enumeration of the places a
//! fault can strike and a [`FaultInjector`] trait the lower layers consult
//! before committing an operation — plus [`FaultPlan`], the standard
//! seeded injector implementation shared by the harnesses and the
//! experiment runner.
//!
//! The hooks are held as `Option<InjectorHandle>` by the structures they
//! instrument (the buddy allocator, the OS model, the walker, the MMU
//! caches, and the TLBs). The default is `None`, which every site checks
//! with a single branch before doing anything else — no injector state, no
//! RNG draw, no behavioral difference.

use crate::rng::Rng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A place where a fault can be injected.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A buddy-allocator block allocation (forced
    /// [`TpsError::OutOfMemory`](crate::TpsError::OutOfMemory)). Carries
    /// the requested order.
    BuddyAlloc {
        /// The order being allocated.
        order: u8,
    },
    /// A whole-span reservation request (forced denial before any block is
    /// taken — the fragmentation fallback path).
    ReserveSpan,
    /// One block-migration step of the compaction daemon; a fault here
    /// interrupts the pass, leaving the remaining blocks unmoved.
    CompactionStep,
    /// Delivery of one TLB-shootdown IPI; a fault models a dropped
    /// interrupt the OS must detect and retry.
    ShootdownDeliver,
    /// One step of a page-table walk; a fault models a transient
    /// translation error and forces the walker to restart the walk from
    /// the root, bypassing the MMU caches. Carries the level being read.
    WalkStep {
        /// The page-table level (1 = leaf level) being stepped through.
        level: u8,
    },
    /// Installation of one alias PTE while mapping a tailored page (both
    /// pointer and full-copy policies); a fault models a dropped store the
    /// page table must detect and retry.
    AliasInstall,
    /// Insertion of a non-leaf entry into the MMU page-structure caches;
    /// a fault drops the fill, so later walks miss and re-reference the
    /// page table — slower, never incorrect.
    MmuCacheFill,
    /// Fill of one entry into an any-size (fully associative) TLB; a fault
    /// drops the fill, degrading hit rate without affecting correctness.
    AnySizeFill,
    /// Eviction from a full any-size TLB; a fault evicts the victim but
    /// abandons the incoming entry, leaving the slot empty.
    AnySizeEvict,
    /// One dual probe of the set-associative STLB; a fault forces the
    /// lookup to miss, falling through to the walk path.
    StlbProbe,
}

impl FaultSite {
    /// Short label for stats and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::BuddyAlloc { .. } => "buddy-alloc",
            FaultSite::ReserveSpan => "reserve-span",
            FaultSite::CompactionStep => "compaction-step",
            FaultSite::ShootdownDeliver => "shootdown-deliver",
            FaultSite::WalkStep { .. } => "walk-step",
            FaultSite::AliasInstall => "alias-install",
            FaultSite::MmuCacheFill => "mmu-cache-fill",
            FaultSite::AnySizeFill => "any-size-fill",
            FaultSite::AnySizeEvict => "any-size-evict",
            FaultSite::StlbProbe => "stlb-probe",
        }
    }
}

/// Decides whether a fault strikes at a given site.
///
/// Implementations must be deterministic for reproducibility (seeded RNG,
/// scripted schedules). The trait is object-safe: instrumented structures
/// hold `Rc<RefCell<dyn FaultInjector>>` so one plan can be shared across
/// the allocator and the OS and consulted in program order.
pub trait FaultInjector: std::fmt::Debug {
    /// Returns `true` if the operation at `site` should fail.
    ///
    /// Called once per potential fault; implementations typically count
    /// calls per site and draw from a seeded RNG.
    fn should_fault(&mut self, site: FaultSite) -> bool;
}

/// Shared handle to a fault injector.
///
/// `Rc` (not `Arc`): the simulator is single-threaded, and cloning an
/// instrumented structure intentionally shares the injector stream.
pub type InjectorHandle = Rc<RefCell<dyn FaultInjector>>;

/// Consults an optional injector; the `None` fast path is a single branch.
#[inline]
pub fn should_fault(handle: &Option<InjectorHandle>, site: FaultSite) -> bool {
    match handle {
        None => false,
        Some(h) => h.borrow_mut().should_fault(site),
    }
}

/// Per-site fault probabilities plus the stream seed.
///
/// A probability of `0.0` disables a site without consuming randomness,
/// so the injected stream depends only on the enabled sites.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FaultPlanConfig {
    /// Seed for the injector's private random stream.
    pub seed: u64,
    /// Probability that a buddy allocation is forced to fail.
    pub buddy_alloc: f64,
    /// Probability that a whole-span reservation is denied.
    pub reserve_span: f64,
    /// Probability that a compaction pass is interrupted at each block.
    pub compaction_step: f64,
    /// Probability that a TLB shootdown delivery is dropped (and retried).
    pub shootdown_deliver: f64,
    /// Probability that one page-table walk step forces a restart.
    pub walk_step: f64,
    /// Probability that one alias-PTE store is dropped (and retried).
    pub alias_install: f64,
    /// Probability that one MMU page-structure-cache fill is dropped.
    pub mmu_cache_fill: f64,
    /// Probability that one any-size TLB fill is dropped.
    pub any_size_fill: f64,
    /// Probability that one any-size TLB eviction abandons the new entry.
    pub any_size_evict: f64,
    /// Probability that one dual STLB probe is forced to miss.
    pub stlb_probe: f64,
}

impl FaultPlanConfig {
    /// A plan that never faults. Installing it must be behaviorally
    /// indistinguishable from installing no injector at all — the
    /// zero-cost-default property the campaign tests pin down.
    pub fn disabled(seed: u64) -> Self {
        FaultPlanConfig {
            seed,
            buddy_alloc: 0.0,
            reserve_span: 0.0,
            compaction_step: 0.0,
            shootdown_deliver: 0.0,
            walk_step: 0.0,
            alias_install: 0.0,
            mmu_cache_fill: 0.0,
            any_size_fill: 0.0,
            any_size_evict: 0.0,
            stlb_probe: 0.0,
        }
    }

    /// The same probability at every OS-layer site; hardware-model sites
    /// stay disabled. (The original campaign harness predates the
    /// hardware-layer sites and its schedules are pinned to this stream.)
    pub fn uniform(seed: u64, p: f64) -> Self {
        FaultPlanConfig {
            buddy_alloc: p,
            reserve_span: p,
            compaction_step: p,
            shootdown_deliver: p,
            ..FaultPlanConfig::disabled(seed)
        }
    }

    /// The same probability at every hardware-model site (walker, page
    /// table, MMU caches, TLBs); OS-layer sites stay disabled. These
    /// faults are correctness-preserving degradations, so a run under
    /// `uniform_hw` must still translate every address correctly.
    pub fn uniform_hw(seed: u64, p: f64) -> Self {
        FaultPlanConfig {
            walk_step: p,
            alias_install: p,
            mmu_cache_fill: p,
            any_size_fill: p,
            any_size_evict: p,
            stlb_probe: p,
            ..FaultPlanConfig::disabled(seed)
        }
    }

    /// The same probability at every site, OS and hardware alike (the
    /// plan `tps_run --fault-rate` arms).
    pub fn uniform_all(seed: u64, p: f64) -> Self {
        FaultPlanConfig {
            buddy_alloc: p,
            reserve_span: p,
            compaction_step: p,
            shootdown_deliver: p,
            ..FaultPlanConfig::uniform_hw(seed, p)
        }
    }
}

/// A seeded, replayable fault injector with per-site hit counters.
///
/// Each consultation draws from a seeded [`Rng`] stream against a per-site
/// probability, so a (seed, config) pair replays the exact same fault
/// sequence every run — a failing schedule is reproducible from its seed
/// alone.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultPlanConfig,
    rng: Rng,
    consultations: u64,
    injected: BTreeMap<&'static str, u64>,
}

impl FaultPlan {
    /// Builds a plan from its configuration.
    pub fn new(cfg: FaultPlanConfig) -> Self {
        FaultPlan {
            cfg,
            rng: Rng::new(cfg.seed),
            consultations: 0,
            injected: BTreeMap::new(),
        }
    }

    /// Builds a plan and returns both a shareable [`InjectorHandle`] (to
    /// install via `Os::set_fault_injector`) and a concrete handle the
    /// caller keeps for reading counters after the run.
    pub fn handles(cfg: FaultPlanConfig) -> (InjectorHandle, Rc<RefCell<FaultPlan>>) {
        let concrete = Rc::new(RefCell::new(FaultPlan::new(cfg)));
        let dyn_handle: InjectorHandle = concrete.clone();
        (dyn_handle, concrete)
    }

    /// How many times any site consulted this plan.
    pub fn consultations(&self) -> u64 {
        self.consultations
    }

    /// Total faults injected across all sites.
    pub fn injected_total(&self) -> u64 {
        self.injected.values().sum()
    }

    /// Faults injected at the site with the given [`FaultSite::label`].
    pub fn injected_at(&self, label: &str) -> u64 {
        self.injected.get(label).copied().unwrap_or(0)
    }

    /// Per-site injection counts keyed by [`FaultSite::label`], in
    /// stable label order.
    pub fn injected(&self) -> &BTreeMap<&'static str, u64> {
        &self.injected
    }
}

impl FaultInjector for FaultPlan {
    fn should_fault(&mut self, site: FaultSite) -> bool {
        self.consultations += 1;
        let p = match site {
            FaultSite::BuddyAlloc { .. } => self.cfg.buddy_alloc,
            FaultSite::ReserveSpan => self.cfg.reserve_span,
            FaultSite::CompactionStep => self.cfg.compaction_step,
            FaultSite::ShootdownDeliver => self.cfg.shootdown_deliver,
            FaultSite::WalkStep { .. } => self.cfg.walk_step,
            FaultSite::AliasInstall => self.cfg.alias_install,
            FaultSite::MmuCacheFill => self.cfg.mmu_cache_fill,
            FaultSite::AnySizeFill => self.cfg.any_size_fill,
            FaultSite::AnySizeEvict => self.cfg.any_size_evict,
            FaultSite::StlbProbe => self.cfg.stlb_probe,
        };
        let hit = p > 0.0 && self.rng.chance(p);
        if hit {
            *self.injected.entry(site.label()).or_insert(0) += 1;
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct EveryOther {
        calls: u64,
    }

    impl FaultInjector for EveryOther {
        fn should_fault(&mut self, _site: FaultSite) -> bool {
            self.calls += 1;
            self.calls.is_multiple_of(2)
        }
    }

    #[test]
    fn none_never_faults() {
        assert!(!should_fault(&None, FaultSite::ReserveSpan));
    }

    #[test]
    fn handle_is_shared_and_stateful() {
        let h: InjectorHandle = Rc::new(RefCell::new(EveryOther::default()));
        let a = Some(Rc::clone(&h));
        let b = Some(h);
        assert!(!should_fault(&a, FaultSite::ReserveSpan));
        assert!(should_fault(&b, FaultSite::ReserveSpan), "state is shared");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultSite::BuddyAlloc { order: 3 }.label(), "buddy-alloc");
        assert_eq!(FaultSite::ShootdownDeliver.label(), "shootdown-deliver");
        assert_eq!(FaultSite::WalkStep { level: 2 }.label(), "walk-step");
        assert_eq!(FaultSite::AliasInstall.label(), "alias-install");
        assert_eq!(FaultSite::MmuCacheFill.label(), "mmu-cache-fill");
        assert_eq!(FaultSite::AnySizeFill.label(), "any-size-fill");
        assert_eq!(FaultSite::AnySizeEvict.label(), "any-size-evict");
        assert_eq!(FaultSite::StlbProbe.label(), "stlb-probe");
    }

    fn drive(plan: &mut FaultPlan, n: u64) -> Vec<bool> {
        (0..n)
            .map(|i| {
                plan.should_fault(FaultSite::BuddyAlloc {
                    order: (i % 10) as u8,
                })
            })
            .collect()
    }

    #[test]
    fn replays_identically_from_the_seed() {
        let cfg = FaultPlanConfig::uniform(42, 0.3);
        let a = drive(&mut FaultPlan::new(cfg), 500);
        let b = drive(&mut FaultPlan::new(cfg), 500);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "p=0.3 over 500 draws must hit");
        assert!(!a.iter().all(|&x| x), "p=0.3 over 500 draws must miss");
    }

    #[test]
    fn disabled_plan_never_faults_and_draws_no_randomness() {
        let mut plan = FaultPlan::new(FaultPlanConfig::disabled(7));
        for v in drive(&mut plan, 200) {
            assert!(!v);
        }
        assert_eq!(plan.consultations(), 200);
        assert_eq!(plan.injected_total(), 0);
    }

    #[test]
    fn counters_split_by_site_label() {
        let cfg = FaultPlanConfig {
            buddy_alloc: 1.0,
            compaction_step: 1.0,
            ..FaultPlanConfig::disabled(1)
        };
        let mut plan = FaultPlan::new(cfg);
        assert!(plan.should_fault(FaultSite::BuddyAlloc { order: 0 }));
        assert!(!plan.should_fault(FaultSite::ReserveSpan));
        assert!(plan.should_fault(FaultSite::CompactionStep));
        assert!(!plan.should_fault(FaultSite::ShootdownDeliver));
        assert_eq!(plan.injected_at("buddy-alloc"), 1);
        assert_eq!(plan.injected_at("compaction-step"), 1);
        assert_eq!(plan.injected_at("reserve-span"), 0);
        assert_eq!(plan.injected_total(), 2);
    }

    #[test]
    fn shared_handle_feeds_one_stream() {
        let (handle, concrete) = FaultPlan::handles(FaultPlanConfig::uniform(9, 1.0));
        assert!(handle.borrow_mut().should_fault(FaultSite::ReserveSpan));
        assert_eq!(concrete.borrow().consultations(), 1);
        assert_eq!(concrete.borrow().injected_total(), 1);
    }

    #[test]
    fn uniform_all_arms_every_site() {
        assert_eq!(
            FaultPlanConfig::uniform_all(5, 0.25),
            FaultPlanConfig {
                seed: 5,
                buddy_alloc: 0.25,
                reserve_span: 0.25,
                compaction_step: 0.25,
                shootdown_deliver: 0.25,
                walk_step: 0.25,
                alias_install: 0.25,
                mmu_cache_fill: 0.25,
                any_size_fill: 0.25,
                any_size_evict: 0.25,
                stlb_probe: 0.25,
            }
        );
        let mut plan = FaultPlan::new(FaultPlanConfig::uniform_all(5, 1.0));
        assert!(plan.should_fault(FaultSite::BuddyAlloc { order: 0 }));
        assert!(plan.should_fault(FaultSite::ReserveSpan));
        assert!(plan.should_fault(FaultSite::CompactionStep));
        assert!(plan.should_fault(FaultSite::ShootdownDeliver));
        assert!(plan.should_fault(FaultSite::WalkStep { level: 1 }));
        assert!(plan.should_fault(FaultSite::StlbProbe));
        assert_eq!(plan.injected_total(), 6);
    }

    #[test]
    fn uniform_hw_leaves_os_sites_disabled() {
        let mut plan = FaultPlan::new(FaultPlanConfig::uniform_hw(5, 1.0));
        assert!(!plan.should_fault(FaultSite::BuddyAlloc { order: 0 }));
        assert!(!plan.should_fault(FaultSite::ShootdownDeliver));
        assert!(plan.should_fault(FaultSite::WalkStep { level: 1 }));
        assert!(plan.should_fault(FaultSite::AliasInstall));
        assert!(plan.should_fault(FaultSite::MmuCacheFill));
        assert!(plan.should_fault(FaultSite::AnySizeFill));
        assert!(plan.should_fault(FaultSite::AnySizeEvict));
        assert!(plan.should_fault(FaultSite::StlbProbe));
        assert_eq!(plan.injected_total(), 6);
    }
}
