//! The MMU: orchestrates TLB lookups, page walks, faults and fills for one
//! core (shared by both hardware threads under SMT).

use crate::config::MachineConfig;
use crate::nested::NestedWalkModel;
use crate::stats::HwFaultStats;
use tps_core::{LeafInfo, PageOrder, PteFlags, TpsError, VirtAddr};
use tps_os::{Os, Shootdown};
use tps_pt::{MmuCaches, WalkEvents, Walker};
use tps_tlb::{Asid, FillOutcome, L2Hit, TlbHierarchy};

/// Where an access found its translation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AccessLevel {
    /// Hit in an L1 TLB structure.
    L1,
    /// Hit in the STLB after an L1 miss.
    Stlb,
    /// STLB miss covered by the Range TLB (RMM only).
    Range,
    /// Full miss: a hardware page walk was performed.
    Walk,
}

/// The outcome of translating one access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Where the translation came from.
    pub level: AccessLevel,
    /// Page-table memory references performed (including aborted faulting
    /// walks, alias-PTE extra accesses, and nested amplification).
    pub walk_refs: u64,
    /// True if a completed walk ended on an alias PTE.
    pub alias_extra: bool,
    /// Page faults taken while serving this access.
    pub faults: u32,
    /// True if the fault handler promoted a page while serving this
    /// access.
    pub promoted: bool,
    /// Hardware A/D-bit stores performed.
    pub ad_updates: u64,
}

/// Hardware work charged to one ASID: MMU-cache hits and the
/// degradations of absorbed injected faults.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct HwLedger {
    /// Injected-fault degradations. `alias_install_retries` stays zero
    /// here: alias installs are page-table work, counted by the page table.
    pub faults: HwFaultStats,
    /// MMU-cache hits (PDE, PDPTE, PML4E).
    pub mmu_cache_hits: (u64, u64, u64),
}

impl HwLedger {
    fn charge_walk(&mut self, events: &WalkEvents) {
        self.faults.walk_restarts += u64::from(events.restarted);
        self.faults.mmu_cache_fill_drops += u64::from(events.cache_fill_drops);
        match events.cache_resume {
            Some(1) => self.mmu_cache_hits.0 += 1,
            Some(2) => self.mmu_cache_hits.1 += 1,
            Some(3) => self.mmu_cache_hits.2 += 1,
            _ => {}
        }
    }

    fn charge_fill(&mut self, fill: FillOutcome) {
        match fill {
            FillOutcome::Installed => {}
            FillOutcome::Dropped => self.faults.tlb_fill_drops += 1,
            FillOutcome::Abandoned => self.faults.tlb_evict_abandons += 1,
        }
    }
}

/// The core's translation machinery.
#[derive(Clone, Debug)]
pub struct Mmu {
    tlb: TlbHierarchy,
    caches: MmuCaches,
    walker: Walker,
    nested: Option<NestedWalkModel>,
    perfect_l1: bool,
    perfect_l2: bool,
    verify: bool,
    /// One ledger per ASID opened with [`Mmu::open_ledger`].
    ledgers: Vec<HwLedger>,
    /// Where charges for an ASID without an open ledger land; never
    /// reported.
    unopened: HwLedger,
}

impl Mmu {
    /// Builds the MMU for a machine configuration.
    pub fn new(config: &MachineConfig) -> Self {
        Mmu {
            tlb: TlbHierarchy::new(config.tlb),
            caches: MmuCaches::new(config.mmu_cache),
            walker: Walker::new(config.alias),
            nested: config
                .virtualized
                .then(|| NestedWalkModel::new(config.memory_bytes)),
            perfect_l1: config.perfect_l1,
            perfect_l2: config.perfect_l2,
            verify: config.verify_translations,
            ledgers: Vec::new(),
            unopened: HwLedger::default(),
        }
    }

    /// The TLB hierarchy (inspection).
    pub fn tlb(&self) -> &TlbHierarchy {
        &self.tlb
    }

    /// Opens a hardware ledger for `asid` (and for every lower ASID
    /// without one). Call it when the address space is created: the
    /// storage is sized here, so translation never allocates.
    pub fn open_ledger(&mut self, asid: Asid) {
        let len = usize::from(asid) + 1;
        if self.ledgers.len() < len {
            self.ledgers.resize(len, HwLedger::default());
        }
    }

    /// The hardware work charged to `asid` so far; all zero for an ASID
    /// without an open ledger.
    pub fn ledger(&self, asid: Asid) -> HwLedger {
        self.ledgers
            .get(usize::from(asid))
            .copied()
            .unwrap_or_default()
    }

    fn ledger_mut(&mut self, asid: Asid) -> &mut HwLedger {
        match self.ledgers.get_mut(usize::from(asid)) {
            Some(ledger) => ledger,
            None => &mut self.unopened,
        }
    }

    /// Installs (or removes) a fault injector on every hardware structure
    /// this MMU owns: the page walker (walk-step restarts), the MMU
    /// page-structure caches (dropped fills), and the TLB hierarchy
    /// (dropped fills, abandoned evictions, forced STLB probe misses).
    pub fn set_fault_injector(&mut self, injector: Option<tps_core::InjectorHandle>) {
        self.walker.set_fault_injector(injector.clone());
        self.caches.set_fault_injector(injector.clone());
        self.tlb.set_fault_injector(injector);
    }

    /// Flushes the paging-structure caches only (page merges free
    /// page-table nodes but leave TLB entries valid — paper §III-C2).
    pub fn flush_structure_caches(&mut self) {
        self.caches.invalidate_all();
    }

    /// Drops every TLB entry tagged with `asid` — the hardware side of a
    /// tenant exiting: its dead translations stop occupying shared TLB
    /// capacity, so surviving tenants immediately gain reach (the
    /// capacity-release half of multi-tenant cross-talk).
    pub fn retire_asid(&mut self, asid: Asid) {
        self.tlb.invalidate_asid(asid);
    }

    /// Applies OS-requested TLB shootdowns (munmap, compaction).
    pub fn apply_shootdowns(&mut self, shootdowns: &[Shootdown]) {
        for sd in shootdowns {
            self.tlb.invalidate_page(sd.asid, sd.va, sd.order);
        }
        if !shootdowns.is_empty() {
            // INVLPG also flushes paging-structure caches.
            self.caches.invalidate_all();
        }
    }

    /// Makes sure `va` is mapped, faulting as needed, and returns the
    /// covering leaf. Faults and promotions are added to `out`.
    fn ensure_mapped(
        &mut self,
        os: &mut Os,
        asid: Asid,
        va: VirtAddr,
        write: bool,
        out: &mut AccessOutcome,
    ) -> Result<LeafInfo, TpsError> {
        loop {
            if let Some(leaf) = os.page_table(asid).lookup(va) {
                return Ok(leaf);
            }
            let fault = os.handle_fault(asid, va, write)?;
            out.faults += 1;
            out.promoted |= fault.promoted;
        }
    }

    /// Translates one access, performing fills, walks, faults and
    /// copy-on-write resolution. Hardware work — MMU-cache hits and
    /// absorbed injected faults — is charged to `asid`'s ledger as it
    /// happens, so a failed access keeps its partial charges.
    ///
    /// # Errors
    ///
    /// Propagates the OS fault handler's error when the access cannot be
    /// served — the pool is out of memory, or the address lies outside
    /// every region (segfault). The machine converts these into tenant
    /// faults; they never panic.
    ///
    /// # Panics
    ///
    /// With `verify_translations`, panics if a cached translation
    /// disagrees with the page table (a simulator invariant, not a
    /// tenant-reachable fault).
    pub fn access(
        &mut self,
        os: &mut Os,
        asid: Asid,
        va: VirtAddr,
        write: bool,
    ) -> Result<AccessOutcome, TpsError> {
        let mut outcome = AccessOutcome {
            level: AccessLevel::L1,
            walk_refs: 0,
            alias_extra: false,
            faults: 0,
            promoted: false,
            ad_updates: 0,
        };
        let (level, mut writable) = self.access_attempt(os, asid, va, write, &mut outcome)?;
        outcome.level = level;
        while write && !writable {
            // Protection fault: resolve copy-on-write and retry. The access
            // keeps the level its first attempt found.
            let shootdowns = os.handle_cow_fault(asid, va)?;
            self.apply_shootdowns(&shootdowns);
            outcome.faults += 1;
            (_, writable) = self.access_attempt(os, asid, va, write, &mut outcome)?;
        }
        Ok(outcome)
    }

    /// One translation attempt, adding its counts into `out`; returns
    /// where the translation came from and whether the mapping used
    /// permits writes.
    fn access_attempt(
        &mut self,
        os: &mut Os,
        asid: Asid,
        va: VirtAddr,
        write: bool,
        out: &mut AccessOutcome,
    ) -> Result<(AccessLevel, bool), TpsError> {
        if self.perfect_l1 {
            let leaf = self.ensure_mapped(os, asid, va, write, out)?;
            return Ok((AccessLevel::L1, leaf.flags.contains(PteFlags::WRITABLE)));
        }

        if let Some(t) = self.tlb.lookup_l1(asid, va) {
            if self.verify {
                self.verify_translation(os, asid, va, t.pfn);
            }
            return Ok((AccessLevel::L1, t.writable));
        }

        if self.perfect_l2 {
            let leaf = self.ensure_mapped(os, asid, va, write, out)?;
            let fill = self.tlb.fill_l1(asid, va, &leaf);
            self.ledger_mut(asid).charge_fill(fill);
            out.ad_updates += u64::from(os.hw_mark_accessed(asid, va, write));
            return Ok((AccessLevel::Stlb, leaf.flags.contains(PteFlags::WRITABLE)));
        }

        let (l2, forced_miss) = self.tlb.lookup_l2(asid, va);
        self.ledger_mut(asid).faults.stlb_probe_misses += u64::from(forced_miss);
        match l2 {
            L2Hit::Stlb(t) => {
                // Refill L1 from the (functionally looked-up) leaf: the
                // hardware already has everything it needs in the entry.
                let leaf = self.ensure_mapped(os, asid, va, write, out)?;
                self.fill_l1(os, asid, va, &leaf);
                if self.verify {
                    self.verify_translation(os, asid, va, t.pfn);
                }
                out.ad_updates += u64::from(os.hw_mark_accessed(asid, va, write));
                Ok((AccessLevel::Stlb, t.writable))
            }
            L2Hit::Range(t) => {
                // RMM: construct the 4 KB PTE from the range, no walk.
                let leaf = LeafInfo {
                    base: tps_core::PhysAddr::from_pfn(t.pfn),
                    order: PageOrder::P4K,
                    flags: if t.writable {
                        PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::USER
                    } else {
                        PteFlags::PRESENT | PteFlags::USER
                    },
                };
                let fill = self.tlb.fill_l1(asid, va.align_down(12), &leaf);
                self.ledger_mut(asid).charge_fill(fill);
                if self.verify {
                    self.verify_translation(os, asid, va, t.pfn);
                }
                out.ad_updates += u64::from(os.hw_mark_accessed(asid, va, write));
                Ok((AccessLevel::Range, t.writable))
            }
            L2Hit::Miss => self.walk_and_fill(os, asid, va, write, out),
        }
    }

    /// Page walk, handling faults and promotions, then fill all levels.
    fn walk_and_fill(
        &mut self,
        os: &mut Os,
        asid: Asid,
        va: VirtAddr,
        write: bool,
        out: &mut AccessOutcome,
    ) -> Result<(AccessLevel, bool), TpsError> {
        let leaf = loop {
            let result =
                self.walker
                    .walk_for(asid, os.page_table(asid), va, Some(&mut self.caches));
            match result {
                Ok(ok) => {
                    self.ledger_mut(asid).charge_walk(&ok.events);
                    out.walk_refs += self.charge_refs(&ok.refs);
                    out.alias_extra |= ok.alias_extra;
                    break ok.leaf;
                }
                Err(fault) => {
                    self.ledger_mut(asid).charge_walk(&fault.events);
                    out.walk_refs += self.charge_refs(&fault.refs);
                    let outcome = os.handle_fault(asid, va, write)?;
                    out.faults += 1;
                    if outcome.promoted {
                        out.promoted = true;
                        // Cross-level promotion may free page-table nodes:
                        // the OS flushes the paging-structure caches.
                        self.caches.invalidate_all();
                    }
                }
            }
        };
        let fill = self.tlb.fill_l2(asid, va, &leaf);
        self.ledger_mut(asid).charge_fill(fill);
        self.fill_l1(os, asid, va, &leaf);
        // RMM refills its Range TLB from the OS range table after the walk
        // (off the critical path).
        if self.tlb.has_range_tlb() {
            if let Some(range) = os.range_for(asid, va) {
                self.tlb.fill_range(range);
            }
        }
        if self.verify {
            let pfn = leaf.base.base_page_number()
                + (va.base_page_number() - va.align_down(leaf.order.shift()).base_page_number());
            self.verify_translation(os, asid, va, pfn);
        }
        out.ad_updates += u64::from(os.hw_mark_accessed(asid, va, write));
        Ok((AccessLevel::Walk, leaf.flags.contains(PteFlags::WRITABLE)))
    }

    /// Counts guest refs plus nested (host) amplification when virtualized.
    fn charge_refs(&mut self, refs: &[tps_core::PhysAddr]) -> u64 {
        let mut total = refs.len() as u64;
        if let Some(nested) = &mut self.nested {
            for &pa in refs {
                total += nested.nested_refs(pa);
            }
        }
        total
    }

    /// Installs an L1 entry, giving CoLT its PTE-cache-line probe. The
    /// probe closure is passed as a generic parameter so the per-fill
    /// neighbor checks inline into the run detection.
    fn fill_l1(&mut self, os: &Os, asid: Asid, va: VirtAddr, leaf: &LeafInfo) {
        let fill = self
            .tlb
            .fill_l1_with_probe(asid, va, leaf, |upn: u64, order: PageOrder| {
                os.probe_mapping_order(asid, upn, order)
            });
        self.ledger_mut(asid).charge_fill(fill);
    }

    fn verify_translation(&self, os: &Os, asid: Asid, va: VirtAddr, pfn: u64) {
        let expect = os
            .page_table(asid)
            .translate(va)
            .expect("verified access must be mapped")
            .base_page_number();
        assert_eq!(
            pfn, expect,
            "translation mismatch at {va} (asid {asid}): tlb {pfn:#x} vs pt {expect:#x}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, Mechanism};
    use tps_core::BASE_PAGE_SIZE;
    use tps_os::{CowPolicy, PolicyConfig, PolicyKind};

    fn setup() -> (Os, Mmu, Asid) {
        let config = MachineConfig::for_mechanism(Mechanism::Tps)
            .with_memory(64 << 20)
            .with_verification();
        let mut os = Os::with_buddy(
            tps_mem::BuddyAllocator::new(64 << 20),
            PolicyConfig::new(PolicyKind::Tps),
        );
        let asid = os.spawn();
        (os, Mmu::new(&config), asid)
    }

    #[test]
    fn cow_write_after_fork_resolves_through_the_tlb() {
        let (mut os, mut mmu, parent) = setup();
        let vma = os.mmap(parent, 64 << 10).unwrap();
        // Parent touches everything (writable), warming its TLB entries.
        for i in 0..16u64 {
            let va = VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE);
            mmu.access(&mut os, parent, va, true).unwrap();
        }
        let (child, shootdowns) = os.fork(parent).unwrap();
        mmu.apply_shootdowns(&shootdowns);

        // Child reads: hits shared read-only frames; verification checks
        // the translation against the child's page table.
        let out = mmu.access(&mut os, child, vma.base(), false).unwrap();
        assert_eq!(out.faults, 0);

        // Child writes: the CoW fault resolves inside Mmu::access.
        let out = mmu
            .access(&mut os, child, vma.base() + 0x2000, true)
            .unwrap();
        assert!(out.faults >= 1, "CoW fault must be taken");
        assert!(os.stats().cow_faults >= 1);

        // Parent writes after the child diverged: sole-owner re-protect.
        let out = mmu
            .access(&mut os, parent, vma.base() + 0x2000, true)
            .unwrap();
        assert!(out.faults >= 1);
        // Subsequent writes are fault-free in both.
        assert_eq!(
            mmu.access(&mut os, child, vma.base() + 0x2000, true)
                .unwrap()
                .faults,
            0
        );
        assert_eq!(
            mmu.access(&mut os, parent, vma.base() + 0x2000, true)
                .unwrap()
                .faults,
            0
        );
    }

    #[test]
    fn hardware_work_is_charged_to_the_translating_asid() {
        let (mut os, mut mmu, a) = setup();
        let b = os.spawn();
        mmu.open_ledger(a);
        mmu.open_ledger(b);
        let (handle, _plan) =
            tps_core::FaultPlan::handles(tps_core::FaultPlanConfig::uniform_hw(9, 0.2));
        mmu.set_fault_injector(Some(handle));
        let vma = os.mmap(a, 4 << 20).unwrap();
        for i in 0..1024u64 {
            let va = VirtAddr::new(vma.base().value() + (i * 0x9_1000) % (4 << 20));
            mmu.access(&mut os, a, va, i % 3 == 0).unwrap();
        }
        let ledger = mmu.ledger(a);
        assert!(ledger.faults.values().iter().sum::<u64>() > 0, "{ledger:?}");
        assert!(ledger.mmu_cache_hits.0 > 0, "{ledger:?}");
        assert_eq!(mmu.ledger(b), HwLedger::default(), "b never translated");
        assert_eq!(mmu.ledger(7), HwLedger::default(), "no ledger was opened");
    }

    #[test]
    fn cow_copy_smallest_through_the_tlb() {
        let (mut os, mut mmu, parent) = setup();
        os.set_cow_policy(CowPolicy::CopySmallest);
        let vma = os.mmap(parent, 32 << 10).unwrap();
        for i in 0..8u64 {
            mmu.access(
                &mut os,
                parent,
                VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE),
                true,
            )
            .unwrap();
        }
        let (child, sds) = os.fork(parent).unwrap();
        mmu.apply_shootdowns(&sds);
        // One child write splits the shared 32K page; every later access
        // still translates correctly (verification is on).
        mmu.access(&mut os, child, vma.base() + 0x3000, true)
            .unwrap();
        for i in 0..8u64 {
            mmu.access(
                &mut os,
                child,
                VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE),
                false,
            )
            .unwrap();
            mmu.access(
                &mut os,
                parent,
                VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE),
                false,
            )
            .unwrap();
        }
        assert_eq!(os.stats().cow_bytes_copied, BASE_PAGE_SIZE);
    }
}
