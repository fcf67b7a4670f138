//! The operating-system model: processes, mmap/munmap, the page-fault
//! handler, and the paging policies of the paper's evaluation.

use crate::address_space::{round_up_pages, AddressSpace, Vma};
use crate::cow::{CowPolicy, FrameShares};
use crate::policy::{CostModel, PolicyConfig, PolicyKind, MAX_POLICY_ORDER};
use std::collections::BTreeMap;
use tps_core::inject::{self, FaultSite, InjectorHandle};
use tps_core::{
    InvariantLayer, LeafInfo, PageOrder, PhysAddr, PteFlags, TpsError, VirtAddr, BASE_PAGE_SHIFT,
    BASE_PAGE_SIZE,
};
use tps_mem::compaction::{compact, CompactionOutcome};
use tps_mem::reservation::reserve_span;
use tps_mem::{BuddyAllocator, ReservationTable, Segment};
use tps_pt::PageTable;
use tps_tlb::{Asid, RangeEntry};

/// A TLB invalidation the OS requires the hardware to perform.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Shootdown {
    /// Address space to invalidate in.
    pub asid: Asid,
    /// Page base address.
    pub va: VirtAddr,
    /// Page order.
    pub order: PageOrder,
}

impl Shootdown {
    /// The shootdown of `asid`'s page `leaf`, based at `va`.
    fn of(asid: Asid, (va, leaf): (VirtAddr, LeafInfo)) -> Self {
        Shootdown {
            asid,
            va,
            order: leaf.order,
        }
    }
}

/// How the reservation fault path is allowed to grow a mapping.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum PromotionMode {
    /// Promote to any power-of-two order up to the cap (TPS).
    AnyPowerOfTwo(PageOrder),
    /// Promote only to exactly this order, when fully reachable (THP's
    /// conventional 2 MB promotion).
    ExactOrder(PageOrder),
}

/// What a handled page fault did.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultOutcome {
    /// The faulting address.
    pub va: VirtAddr,
    /// Order of the leaf now covering `va`.
    pub mapped_order: PageOrder,
    /// True if this fault promoted the mapping to a larger page.
    pub promoted: bool,
}

tps_core::counter_table! {
    /// Aggregate OS activity counters (system-time model, Fig. 17).
    #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
    pub struct OsStats {
        /// `mmap` calls served.
        pub mmaps: u64,
        /// `munmap` calls served.
        pub munmaps: u64,
        /// Page faults handled.
        pub faults: u64,
        /// Page promotions performed.
        pub promotions: u64,
        /// Frame reservations created.
        pub reservations_created: u64,
        /// Faults served without any reservation (fragmentation fallback).
        pub fallback_4k: u64,
        /// TLB shootdowns issued.
        pub shootdowns: u64,
        /// Copy-on-write write faults handled.
        pub cow_faults: u64,
        /// Bytes copied by CoW faults.
        pub cow_bytes_copied: u64,
        /// Total modeled OS cycles (allocator + page table + handler work).
        pub op_cycles: u64,
        /// Degradations caused specifically by a failed physical allocation
        /// (exhaustion or an injected fault), as opposed to alignment-driven
        /// 4 KB fallbacks. Always `<= fallback_4k`.
        pub oom_fallbacks: u64,
        /// Compaction passes interrupted before processing every movable block.
        pub compaction_aborts: u64,
        /// TLB-shootdown IPIs re-issued after the delivery was dropped (only a
        /// fault injector can drop one; zero in normal operation).
        pub shootdowns_retried: u64,
    }
}

/// One simulated process.
#[derive(Clone, Debug)]
pub struct Process {
    asid: Asid,
    page_table: PageTable,
    address_space: AddressSpace,
    reservations: ReservationTable,
    /// RMM range table, sorted by `start_vpn`.
    ranges: Vec<RangeEntry>,
    /// Directly allocated blocks (no reservation), keyed by VMA base.
    direct_blocks: BTreeMap<u64, Vec<(PhysAddr, PageOrder)>>,
    /// Distinct base pages demand-touched (for footprint accounting).
    touched_pages: u64,
    /// OS work done for this process, charged as it happens.
    stats: OsStats,
}

impl Process {
    /// The process's address-space identifier.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// The OS work done for this process so far: every counter an entry
    /// point called with this ASID incremented.
    pub fn stats(&self) -> OsStats {
        self.stats
    }

    /// The process page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// The process address space (VMA list).
    pub fn address_space(&self) -> &AddressSpace {
        &self.address_space
    }

    /// The reservation table.
    pub fn reservations(&self) -> &ReservationTable {
        &self.reservations
    }

    /// The RMM range table.
    pub fn ranges(&self) -> &[RangeEntry] {
        &self.ranges
    }

    /// Bytes of virtual memory currently mapped (resident set).
    pub fn resident_bytes(&self) -> u64 {
        self.page_table.mapped_bytes()
    }

    /// Bytes actually demand-touched at base-page granularity.
    pub fn touched_bytes(&self) -> u64 {
        self.touched_pages << BASE_PAGE_SHIFT
    }

    /// Directly allocated blocks (no reservation) per owning VMA base —
    /// exposed for cross-layer audits of physical-frame ownership.
    pub fn direct_blocks(&self) -> impl Iterator<Item = (u64, &[(PhysAddr, PageOrder)])> {
        self.direct_blocks.iter().map(|(&b, v)| (b, v.as_slice()))
    }
}

/// The operating system: one buddy allocator plus per-process state.
///
/// # Example
///
/// ```
/// use tps_os::{Os, PolicyConfig, PolicyKind};
/// use tps_core::VirtAddr;
///
/// let mut os = Os::new(256 << 20, PolicyConfig::new(PolicyKind::Tps));
/// let pid = os.spawn();
/// let vma = os.mmap(pid, 1 << 20).unwrap();
/// // First touch demand-maps a 4 KB page from the reservation.
/// let out = os.handle_fault(pid, vma.base(), false).unwrap();
/// assert_eq!(out.mapped_order.get(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct Os {
    buddy: BuddyAllocator,
    policy: PolicyConfig,
    cost: CostModel,
    processes: Vec<Process>,
    /// OS work done for no process (compaction).
    machine_stats: OsStats,
    /// Every `noise_period` faults the kernel/other tenants take a 2 MB
    /// block of their own (0 = off). A single pristine process would see
    /// unrealistically perfect physical adjacency between its buddy
    /// allocations; this reproduces the interleaving real systems have,
    /// which is what bounds CoLT's coalesced run lengths.
    noise_period: u64,
    noise_counter: u64,
    noise_blocks: Vec<PhysAddr>,
    /// Copy-on-write bookkeeping (paper §III-C3).
    shares: FrameShares,
    cow_policy: CowPolicy,
    /// Radix levels for newly spawned processes (4 or 5).
    pt_levels: u8,
    /// Fine-grained A/D tracking for newly spawned processes (§III-C1).
    fine_grained_ad: bool,
    /// Fault injector consulted for dropped shootdown IPIs; the same handle
    /// is installed on the buddy allocator for allocation-site faults.
    injector: Option<InjectorHandle>,
}

impl Os {
    /// Creates an OS managing `total_bytes` of fresh physical memory.
    pub fn new(total_bytes: u64, policy: PolicyConfig) -> Self {
        Self::with_buddy(BuddyAllocator::new(total_bytes), policy)
    }

    /// Creates an OS over an existing (possibly fragmented) allocator —
    /// the Fig. 15/16 heavy-load scenario.
    pub fn with_buddy(buddy: BuddyAllocator, policy: PolicyConfig) -> Self {
        Os {
            buddy,
            policy,
            cost: CostModel::default(),
            processes: Vec::new(),
            machine_stats: OsStats::default(),
            noise_period: 0,
            noise_counter: 0,
            noise_blocks: Vec::new(),
            shares: FrameShares::default(),
            cow_policy: CowPolicy::default(),
            pt_levels: 4,
            fine_grained_ad: false,
            injector: None,
        }
    }

    /// Installs a deterministic fault injector across the whole OS stack:
    /// buddy allocations, span reservations, compaction steps (via the
    /// allocator), TLB-shootdown delivery (checked here), and alias-PTE
    /// installs in every process page table — existing and future. Pass
    /// `None` to remove it; with no injector every hook is a single branch
    /// and behavior is identical to an uninstrumented build.
    pub fn set_fault_injector(&mut self, injector: Option<InjectorHandle>) {
        self.buddy.set_injector(injector.clone());
        for proc in &mut self.processes {
            proc.page_table.set_fault_injector(injector.clone());
        }
        self.injector = injector;
    }

    /// Enables fine-grained A/D bit vectors (paper §III-C1) for processes
    /// spawned afterwards: tailored pages track which sixteenth was
    /// written, so swap-out need not write the whole page back.
    pub fn set_fine_grained_ad(&mut self, enabled: bool) {
        self.fine_grained_ad = enabled;
    }

    /// Selects 4- or 5-level paging for processes spawned afterwards.
    ///
    /// # Panics
    ///
    /// Panics unless `levels` is 4 or 5.
    pub fn set_page_table_levels(&mut self, levels: u8) {
        assert!(levels == 4 || levels == 5, "only 4- or 5-level paging");
        self.pt_levels = levels;
    }

    /// Selects the copy-on-write policy (paper §III-C3).
    pub fn set_cow_policy(&mut self, policy: CowPolicy) {
        self.cow_policy = policy;
    }

    /// Enables background-allocation noise: every `period` faults, a
    /// foreign 2 MB block is allocated (never freed), as kernel and
    /// neighbor-tenant activity does on real machines. Pass 0 to disable.
    pub fn set_background_noise(&mut self, period: u64) {
        self.noise_period = period;
    }

    /// The active policy configuration.
    pub fn policy(&self) -> PolicyConfig {
        self.policy
    }

    /// Machine-wide activity counters so far: every process's account
    /// ([`Process::stats`]) plus the work done for no process.
    pub fn stats(&self) -> OsStats {
        let mut total = self.machine_stats;
        for proc in &self.processes {
            total.accumulate(&proc.stats);
        }
        total
    }

    /// The physical allocator (inspection only).
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
    }

    /// The copy-on-write share counts (inspection only).
    pub fn frame_shares(&self) -> &FrameShares {
        &self.shares
    }

    /// Number of processes spawned so far (ASIDs are `0..count`).
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Blocks taken by simulated background/kernel noise (never freed).
    /// Each is a pinned 2 MB allocation; exposed for cross-layer audits.
    pub fn noise_blocks(&self) -> &[PhysAddr] {
        &self.noise_blocks
    }

    /// Issues a batch of TLB shootdowns on `payer`'s account (see
    /// [`Os::ledger`]): counts them, charges one IPI each, and models their
    /// delivery. An installed fault injector may drop a delivery, which the
    /// OS detects (ack timeout) and re-issues, counting
    /// [`OsStats::shootdowns_retried`]. The returned shootdown lists are
    /// therefore always complete. Bounded retries keep a pathological
    /// injector from hanging the simulation.
    fn issue_shootdowns(&mut self, payer: Option<Asid>, shootdowns: &[Shootdown]) {
        let cost = self.cost.shootdown;
        let ledger = self.ledger(payer);
        ledger.shootdowns += shootdowns.len() as u64;
        ledger.op_cycles += cost * shootdowns.len() as u64;
        if self.injector.is_none() {
            return;
        }
        const MAX_RETRIES: u32 = 8;
        for _ in shootdowns {
            let mut attempts = 0;
            while attempts < MAX_RETRIES
                && inject::should_fault(&self.injector, FaultSite::ShootdownDeliver)
            {
                let ledger = self.ledger(payer);
                ledger.shootdowns_retried += 1;
                ledger.op_cycles += cost;
                attempts += 1;
            }
        }
    }

    /// Creates a process, returning its ASID.
    pub fn spawn(&mut self) -> Asid {
        let asid = self.processes.len() as Asid;
        let mut page_table = PageTable::with_levels(self.pt_levels);
        page_table.set_fine_grained_ad(self.fine_grained_ad);
        page_table.set_fault_injector(self.injector.clone());
        self.processes.push(Process {
            asid,
            page_table,
            address_space: AddressSpace::new(),
            reservations: ReservationTable::new(),
            ranges: Vec::new(),
            direct_blocks: BTreeMap::new(),
            touched_pages: 0,
            stats: OsStats::default(),
        });
        asid
    }

    /// Shared access to a process.
    ///
    /// # Panics
    ///
    /// Panics if `asid` was not returned by [`Os::spawn`].
    pub fn process(&self, asid: Asid) -> &Process {
        &self.processes[asid as usize]
    }

    fn proc_mut(&mut self, asid: Asid) -> &mut Process {
        &mut self.processes[asid as usize]
    }

    /// The process `asid` names, or an error if [`Os::spawn`] never
    /// returned it. Every `Result`-returning operation that takes an ASID
    /// checks it here once, on entry, so its later indexing cannot panic.
    fn checked_proc(&self, asid: Asid) -> Result<&Process, TpsError> {
        self.processes.get(asid as usize).ok_or_else(|| {
            TpsError::invariant(
                InvariantLayer::Os,
                format!(
                    "unknown ASID {asid}: only {} processes were spawned",
                    self.processes.len()
                ),
            )
        })
    }

    /// The page table of a process (for the hardware walker).
    pub fn page_table(&self, asid: Asid) -> &PageTable {
        &self.processes[asid as usize].page_table
    }

    /// Hardware Accessed/Dirty-bit update on the true PTE for `va` — done
    /// by the page-walk hardware, so *not* charged as system time. Returns
    /// `true` if a store was actually performed (the bits are sticky).
    pub fn hw_mark_accessed(&mut self, asid: Asid, va: VirtAddr, dirty: bool) -> bool {
        self.proc_mut(asid).page_table.mark_accessed(va, dirty)
    }

    /// CoLT's PTE-cache-line probe at any granularity: the `(frame, writable)`
    /// mapping of the page numbered `upn` *at the given order*, provided a
    /// leaf of exactly that order maps it (runs only coalesce equal sizes).
    pub fn probe_mapping_order(
        &self,
        asid: Asid,
        upn: u64,
        order: PageOrder,
    ) -> Option<(u64, bool)> {
        let va = VirtAddr::new(upn << (BASE_PAGE_SHIFT + order.get() as u32));
        let leaf = self.processes[asid as usize].page_table.lookup(va)?;
        if leaf.order != order {
            return None;
        }
        Some((
            leaf.base.value() >> (BASE_PAGE_SHIFT + order.get() as u32),
            leaf.flags.contains(PteFlags::WRITABLE),
        ))
    }

    /// RMM range-table lookup (refills the Range TLB after a walk).
    pub fn range_for(&self, asid: Asid, va: VirtAddr) -> Option<RangeEntry> {
        let vpn = va.base_page_number();
        let ranges = &self.processes[asid as usize].ranges;
        let idx = ranges
            .partition_point(|r| r.start_vpn <= vpn)
            .checked_sub(1)?;
        let r = ranges[idx];
        (vpn < r.end_vpn).then_some(r)
    }

    /// The account OS work is charged to: the process it was done for, or
    /// the machine's own account for work done for no process (`None`).
    fn ledger(&mut self, payer: Option<Asid>) -> &mut OsStats {
        match payer {
            Some(asid) => &mut self.proc_mut(asid).stats,
            None => &mut self.machine_stats,
        }
    }

    fn charge(&mut self, asid: Asid, cycles: u64) {
        self.proc_mut(asid).stats.op_cycles += cycles;
    }

    /// Allocates a block directly (no reservation), recording ownership
    /// under the VMA for later munmap.
    fn alloc_direct(
        &mut self,
        asid: Asid,
        vma_base: VirtAddr,
        order: PageOrder,
    ) -> Result<PhysAddr, TpsError> {
        let pa = self.buddy.alloc(order)?;
        self.charge(
            asid,
            self.cost.buddy_op + self.cost.zero_4k * order.base_pages(),
        );
        self.proc_mut(asid)
            .direct_blocks
            .entry(vma_base.value())
            .or_default()
            .push((pa, order));
        Ok(pa)
    }

    /// Serves an `mmap` of `len` bytes for the process.
    ///
    /// Policy-dependent: TPS/RMM create reservations (and, when eager, full
    /// mappings) here; demand policies only record the VMA.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::OutOfMemory`] only for eager policies that could
    /// not back the region at all; reservation failures degrade to demand
    /// 4 KB faulting instead. A zero-length request is reported as
    /// [`TpsError::InvariantViolation`], as is an `asid` that
    /// [`Os::spawn`] never returned.
    pub fn mmap(&mut self, asid: Asid, len: u64) -> Result<Vma, TpsError> {
        self.checked_proc(asid)?;
        let len_r = round_up_pages(len);
        let covering = PageOrder::covering(len_r).unwrap_or(MAX_POLICY_ORDER);
        let align = covering.min(MAX_POLICY_ORDER);
        let vma = self.proc_mut(asid).address_space.map_region(len_r, align)?;
        self.proc_mut(asid).stats.mmaps += 1;
        self.charge(asid, self.cost.reservation_op);

        match self.policy.kind {
            PolicyKind::Only4K | PolicyKind::Only2M | PolicyKind::Thp => {}
            PolicyKind::Tps | PolicyKind::TpsEager => {
                // The fewest pages exactly spanning the request (aligned
                // 28 KB → 16 K + 8 K + 4 K): no internal fragmentation.
                match reserve_span(&mut self.buddy, len_r, MAX_POLICY_ORDER) {
                    Ok(segments) => {
                        self.charge(asid, self.cost.buddy_op * segments.len() as u64);
                        let backup = segments.clone();
                        if self
                            .install_reservation(asid, vma.base(), len_r, segments)
                            .is_err()
                        {
                            // Installing can only fail on a VA overlap, which
                            // the fresh VMA rules out — but stay panic-free:
                            // return the frames and degrade to 4 KB faulting.
                            for s in backup {
                                let _ = self.buddy.free(s.base, s.order);
                            }
                            self.proc_mut(asid).stats.fallback_4k += 1;
                        } else if self.policy.kind == PolicyKind::TpsEager
                            && self
                                .map_reservation_eagerly(asid, vma.base(), &backup)
                                .is_err()
                        {
                            self.rollback_reservation(asid, vma.base());
                        }
                    }
                    Err(e @ TpsError::InvariantViolation { .. }) => return Err(e),
                    Err(_) => {
                        // Degrade to 4 KB demand faulting (fragmentation or
                        // an injected reservation denial).
                        self.proc_mut(asid).stats.fallback_4k += 1;
                        self.proc_mut(asid).stats.oom_fallbacks += 1;
                    }
                }
            }
            PolicyKind::Rmm => {
                let segments = reserve_span(&mut self.buddy, len_r, MAX_POLICY_ORDER)?;
                self.charge(asid, self.cost.buddy_op * segments.len() as u64);
                self.map_rmm_eagerly(asid, &vma, segments)?;
            }
        }
        Ok(vma)
    }

    /// Undoes a freshly installed reservation after a failure on the eager
    /// mapping path: unmaps whatever leaves were already installed, frees
    /// the reserved frames, and leaves the VMA to demand 4 KB faulting.
    fn rollback_reservation(&mut self, asid: Asid, va_base: VirtAddr) {
        let Some(res) = self.proc_mut(asid).reservations.remove(va_base) else {
            return;
        };
        for seg in res.segments() {
            // Fails, changing nothing, where no page of the segment's
            // order was installed.
            let _ = self
                .proc_mut(asid)
                .page_table
                .unmap(va_base + seg.offset, seg.order);
            let _ = self.buddy.free(seg.base, seg.order);
        }
        self.proc_mut(asid).stats.fallback_4k += 1;
    }

    fn install_reservation(
        &mut self,
        asid: Asid,
        va_base: VirtAddr,
        len: u64,
        segments: Vec<Segment>,
    ) -> Result<(), TpsError> {
        self.proc_mut(asid)
            .reservations
            .insert(va_base, len, segments)?;
        self.proc_mut(asid).stats.reservations_created += 1;
        self.charge(asid, self.cost.reservation_op);
        Ok(())
    }

    /// Maps every segment of the reservation just installed at `va_base`
    /// as one page of its own order (TPS eager paging). The whole cost —
    /// zeroing included — lands on the `mmap`.
    fn map_reservation_eagerly(
        &mut self,
        asid: Asid,
        va_base: VirtAddr,
        segments: &[Segment],
    ) -> Result<(), TpsError> {
        let (mut pte_cost, mut zero_pages) = (0, 0);
        let pt = &mut self.proc_mut(asid).page_table;
        for seg in segments {
            pte_cost += pt.map(va_base + seg.offset, seg.base, seg.order, user_flags(true))?;
            zero_pages += seg.order.base_pages();
        }
        self.charge(
            asid,
            self.cost.pte_write * pte_cost + self.cost.zero_4k * zero_pages,
        );
        Ok(())
    }

    /// RMM eager paging: map conventionally (2 MB where aligned, else
    /// 4 KB), register contiguous ranges in the range table, and record the
    /// blocks for munmap.
    fn map_rmm_eagerly(
        &mut self,
        asid: Asid,
        vma: &Vma,
        segments: Vec<Segment>,
    ) -> Result<(), TpsError> {
        let two_m = PageOrder::P2M.bytes();
        let mut pte_cost = 0u64;
        let mut zero_pages = 0u64;
        {
            let proc = self.proc_mut(asid);
            // Record frame ownership.
            proc.direct_blocks
                .entry(vma.base().value())
                .or_default()
                .extend(segments.iter().map(|s| (s.base, s.order)));
            // Conventional-size mapping inside each segment.
            for seg in &segments {
                let mut off = 0u64;
                while off < seg.order.bytes() {
                    let va = VirtAddr::new(vma.base().value() + seg.offset + off);
                    let pa = PhysAddr::new(seg.base.value() + off);
                    let remaining = seg.order.bytes() - off;
                    let order = if va.is_aligned(21) && pa.is_aligned(21) && remaining >= two_m {
                        PageOrder::P2M
                    } else {
                        PageOrder::P4K
                    };
                    pte_cost +=
                        proc.page_table
                            .map(va, pa, order, PteFlags::WRITABLE | PteFlags::USER)?;
                    zero_pages += order.base_pages();
                    off += order.bytes();
                }
            }
            // Coalesce physically contiguous consecutive segments into
            // ranges (RMM ranges have no size/alignment restrictions).
            let contiguous = |a: &Segment, b: &Segment| {
                a.base + a.order.bytes() == b.base && a.offset + a.order.bytes() == b.offset
            };
            for run in segments.chunk_by(contiguous) {
                let (Some(first), Some(last)) = (run.first(), run.last()) else {
                    continue;
                };
                let start_vpn = (vma.base() + first.offset).base_page_number();
                let end_vpn = (vma.base() + last.offset + last.order.bytes()).base_page_number();
                proc.ranges.push(RangeEntry {
                    asid,
                    start_vpn,
                    end_vpn,
                    delta: first.base.base_page_number() as i64 - start_vpn as i64,
                    writable: true,
                });
            }
            proc.ranges.sort_by_key(|r| r.start_vpn);
        }
        self.charge(
            asid,
            self.cost.pte_write * pte_cost + self.cost.zero_4k * zero_pages,
        );
        Ok(())
    }

    /// Handles a page fault at `va`.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::Unmapped`] if `va` lies in no VMA (a real
    /// segfault — the simulator treats this as a workload bug), and
    /// [`TpsError::InvariantViolation`] for an unknown `asid`.
    pub fn handle_fault(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        _is_write: bool,
    ) -> Result<FaultOutcome, TpsError> {
        let vma = self
            .checked_proc(asid)?
            .address_space
            .find(va)
            .cloned()
            .ok_or(TpsError::Unmapped { vaddr: va.value() })?;
        self.proc_mut(asid).stats.faults += 1;
        self.charge(asid, self.cost.fault_base);

        // Background allocator interference (see `set_background_noise`).
        if self.noise_period > 0 {
            self.noise_counter += 1;
            if self.noise_counter.is_multiple_of(self.noise_period) {
                if let Ok(block) = self.buddy.alloc(PageOrder::P2M) {
                    self.noise_blocks.push(block);
                }
            }
        }

        match self.policy.kind {
            PolicyKind::Only4K => self.fault_direct_4k(asid, &vma, va),
            PolicyKind::Only2M => self.fault_only_2m(asid, &vma, va),
            PolicyKind::Thp => self.fault_thp(asid, &vma, va),
            PolicyKind::Tps | PolicyKind::TpsEager => self.fault_tps(asid, &vma, va),
            PolicyKind::Rmm => self.fault_direct_4k(asid, &vma, va),
        }
    }

    fn fault_direct_4k(
        &mut self,
        asid: Asid,
        vma: &Vma,
        va: VirtAddr,
    ) -> Result<FaultOutcome, TpsError> {
        let pa = self.alloc_direct(asid, vma.base(), PageOrder::P4K)?;
        self.map_direct(asid, va, pa, PageOrder::P4K)
    }

    /// Maps the freshly allocated direct block `pa` of `order` over the
    /// page of `va`: the end of every fault served without a reservation.
    fn map_direct(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        pa: PhysAddr,
        order: PageOrder,
    ) -> Result<FaultOutcome, TpsError> {
        let proc = self.proc_mut(asid);
        let page_va = va.align_down(order.shift());
        let stores = proc.page_table.map(page_va, pa, order, user_flags(true))?;
        proc.touched_pages += 1;
        self.charge(asid, self.cost.pte_write * stores);
        Ok(FaultOutcome {
            va,
            mapped_order: order,
            promoted: false,
        })
    }

    fn fault_only_2m(
        &mut self,
        asid: Asid,
        vma: &Vma,
        va: VirtAddr,
    ) -> Result<FaultOutcome, TpsError> {
        let chunk = va.align_down(PageOrder::P2M.shift());
        let whole_chunk_inside = chunk >= vma.base() && chunk + PageOrder::P2M.bytes() <= vma.end();
        if whole_chunk_inside {
            if let Ok(pa) = self.alloc_direct(asid, vma.base(), PageOrder::P2M) {
                return self.map_direct(asid, va, pa, PageOrder::P2M);
            }
            // Inside the VMA the only way here is a failed 2 MB allocation.
            self.proc_mut(asid).stats.oom_fallbacks += 1;
        }
        // Tail of the VMA (or no 2M contiguity): fall back to 4 KB.
        self.proc_mut(asid).stats.fallback_4k += 1;
        self.fault_direct_4k(asid, vma, va)
    }

    fn fault_thp(&mut self, asid: Asid, vma: &Vma, va: VirtAddr) -> Result<FaultOutcome, TpsError> {
        let chunk = va.align_down(PageOrder::P2M.shift());
        let has_reservation = self.processes[asid as usize]
            .reservations
            .find(va)
            .is_some();
        if !has_reservation {
            // Try to reserve a whole 2M frame for this chunk; a VMA tail
            // smaller than 2M, or a failed allocation, demands 4K.
            let whole_chunk_inside =
                chunk >= vma.base() && chunk + PageOrder::P2M.bytes() <= vma.end();
            let block = whole_chunk_inside.then(|| self.buddy.alloc(PageOrder::P2M).ok());
            let Some(Some(block)) = block else {
                self.proc_mut(asid).stats.fallback_4k += 1;
                self.proc_mut(asid).stats.oom_fallbacks += u64::from(whole_chunk_inside);
                return self.fault_direct_4k(asid, vma, va);
            };
            self.charge(asid, self.cost.buddy_op);
            let segment = Segment {
                offset: 0,
                base: block,
                order: PageOrder::P2M,
            };
            self.install_reservation(asid, chunk, PageOrder::P2M.bytes(), vec![segment])?;
        }
        self.fault_from_reservation(asid, va, PromotionMode::ExactOrder(PageOrder::P2M))
    }

    fn fault_tps(&mut self, asid: Asid, vma: &Vma, va: VirtAddr) -> Result<FaultOutcome, TpsError> {
        if self.processes[asid as usize]
            .reservations
            .find(va)
            .is_some()
        {
            let cap = MAX_POLICY_ORDER;
            self.fault_from_reservation(asid, va, PromotionMode::AnyPowerOfTwo(cap))
        } else {
            // Reservation failed at mmap time (fragmentation fallback).
            self.proc_mut(asid).stats.fallback_4k += 1;
            self.fault_direct_4k(asid, vma, va)
        }
    }

    /// The shared reservation fault path: map the demanded 4 KB page from
    /// the reserved frames, mark utilization, and promote the mapping when
    /// the enclosing aligned region reaches the promotion threshold.
    fn fault_from_reservation(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        mode: PromotionMode,
    ) -> Result<FaultOutcome, TpsError> {
        let threshold = self.policy.promotion_threshold;
        let res_invariant = |what: &str| {
            TpsError::invariant(
                InvariantLayer::Reservation,
                format!("{what} for fault at {va}"),
            )
        };
        let (res_base, offset, pa, seg_order, promotable) = {
            let proc = self.proc_mut(asid);
            let res = proc
                .reservations
                .find_mut(va)
                .ok_or_else(|| res_invariant("reservation the caller found vanished"))?;
            let offset = va - res.va_base();
            let page_idx = offset >> BASE_PAGE_SHIFT;
            if res.utilization_mut().touch(page_idx) {
                proc.touched_pages += 1;
            }
            let uncovered = || res_invariant("reservation does not cover its own range");
            let pa = res.frame_for(offset).ok_or_else(uncovered)?;
            let seg_order = res.max_order_at(offset).ok_or_else(uncovered)?;
            let promotable = res.utilization().promotable_order(page_idx, threshold);
            (res.va_base(), offset, pa, seg_order, promotable)
        };
        self.charge(asid, self.cost.reservation_op + self.cost.zero_4k);

        // Map the demanded base page if nothing covers it yet.
        let page_va = va.align_down(BASE_PAGE_SHIFT);
        let current = self.processes[asid as usize].page_table.lookup(va);
        let mut mapped_order = match current {
            Some(leaf) => leaf.order,
            None => {
                let frame = pa.align_down(BASE_PAGE_SHIFT);
                let pt = &mut self.proc_mut(asid).page_table;
                let stores = pt.map(page_va, frame, PageOrder::P4K, user_flags(true))?;
                self.charge(asid, self.cost.pte_write * stores);
                PageOrder::P4K
            }
        };

        // Promotion: grow to the largest aligned region that satisfies the
        // threshold, capped by segment contiguity and the policy rules.
        let reachable = promotable.min(seg_order.get());
        let target = match mode {
            // TPS: any power of two up to the cap.
            PromotionMode::AnyPowerOfTwo(cap) => reachable.min(cap.get()),
            // THP: conventional sizes only — all or nothing.
            PromotionMode::ExactOrder(order) => {
                if reachable >= order.get() {
                    order.get()
                } else {
                    0
                }
            }
        };
        let mut promoted = false;
        if target > mapped_order.get() {
            let order = PageOrder::new_unchecked(target);
            let aligned_off = offset & !(order.bytes() - 1);
            let va_k = VirtAddr::new(res_base.value() + aligned_off);
            let proc = &self.processes[asid as usize];
            let res = proc
                .reservations
                .find(va)
                .ok_or_else(|| res_invariant("reservation vanished before promotion"))?;
            let pa_k = res
                .frame_for(aligned_off)
                .ok_or_else(|| res_invariant("promotion offset left the reservation"))?;
            // Promote only over leaves that map the reservation's own frames
            // and that no one else maps: a CoW copy, a frame inherited by
            // fork, or a shared one would lose its contents or its sharing
            // (only possible after a fork, so free for ordinary processes).
            let foreign = |(leaf_va, leaf): (VirtAddr, LeafInfo)| {
                res.frame_for(leaf_va - res.va_base()) != Some(leaf.base)
                    || self.shares.shared(&leaf)
            };
            let va_end = va_k + order.bytes();
            if self.shares.is_empty() || !proc.page_table.leaves(va_k, va_end).any(foreign) {
                let pt = &mut self.proc_mut(asid).page_table;
                let stores = pt.map(va_k, pa_k, order, user_flags(true))?;
                self.charge(asid, self.cost.pte_write * stores + self.cost.promote_op);
                self.proc_mut(asid).stats.promotions += 1;
                mapped_order = order;
                promoted = true;
            }
        }
        Ok(FaultOutcome {
            va,
            mapped_order,
            promoted,
        })
    }

    /// Forks `parent`: the child shares every currently mapped page
    /// copy-on-write (paper §III-C3). Both processes' PTEs are downgraded
    /// to read-only; the returned shootdowns cover the parent's now-stale
    /// writable TLB entries.
    ///
    /// The child starts with no reservations of its own; its faults to
    /// not-yet-mapped parts of inherited VMAs allocate fresh 4 KB frames.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::InvariantViolation`] if `parent` was never
    /// spawned (no child is created then). Propagates a page-table failure
    /// while downgrading or mirroring a leaf (remapping an existing leaf
    /// does not fail in practice).
    pub fn fork(&mut self, parent: Asid) -> Result<(Asid, Vec<Shootdown>), TpsError> {
        self.checked_proc(parent)?;
        let child = self.spawn();
        let from = &self.processes[parent as usize];
        let leaves: Vec<_> = from
            .page_table
            .leaves(VirtAddr::ZERO, VirtAddr::new(u64::MAX))
            .collect();
        self.processes[child as usize].address_space = from.address_space.clone();
        let shootdowns: Vec<_> = leaves.iter().map(|&l| Shootdown::of(parent, l)).collect();
        let mut stores = 0u64;
        for (va, leaf) in leaves {
            // Downgrade the parent and mirror into the child.
            for pid in [parent, child] {
                let pt = &mut self.processes[pid as usize].page_table;
                stores += pt.map(va, leaf.base, leaf.order, user_flags(false))?;
            }
            self.shares.share(leaf.base.base_page_number(), leaf.order);
        }
        self.charge(parent, self.cost.pte_write * stores);
        self.issue_shootdowns(Some(parent), &shootdowns);
        Ok((child, shootdowns))
    }

    /// True if a write to `va` must take a CoW fault first.
    pub fn needs_cow(&self, asid: Asid, va: VirtAddr) -> bool {
        self.processes[asid as usize]
            .page_table
            .lookup(va)
            .is_some_and(|leaf| !leaf.flags.contains(PteFlags::WRITABLE))
    }

    /// Handles a write fault to a read-only (CoW) mapping.
    ///
    /// A page no other leaf maps regains write permission in place. A
    /// shared one is copied per the configured [`CowPolicy`]: whole, or
    /// split into read-only base pages over the same frames, of which only
    /// the faulting one is copied (or, if no longer shared, made writable).
    /// Sharing is counted per base page, so this works at every page size.
    /// The one shootdown covers the page as it was before the fault.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::Unmapped`] if nothing is mapped at `va`, or
    /// [`TpsError::OutOfMemory`] if the copy target cannot be allocated.
    /// An unknown `asid`, or a leaf that is already writable (nothing to
    /// copy on write), is a [`TpsError::InvariantViolation`] and changes
    /// nothing.
    pub fn handle_cow_fault(
        &mut self,
        asid: Asid,
        va: VirtAddr,
    ) -> Result<Vec<Shootdown>, TpsError> {
        let unmapped = || TpsError::Unmapped { vaddr: va.value() };
        let proc = self.checked_proc(asid)?;
        let mut leaf = proc.page_table.lookup(va).ok_or_else(unmapped)?;
        if leaf.flags.contains(PteFlags::WRITABLE) {
            return Err(TpsError::invariant(
                InvariantLayer::Os,
                format!("CoW fault at {:#x} on a writable leaf", va.value()),
            ));
        }
        let vma_base = proc.address_space.find(va).ok_or_else(unmapped)?.base();
        self.proc_mut(asid).stats.cow_faults += 1;
        self.charge(asid, self.cost.fault_base);
        let shootdowns = vec![Shootdown::of(
            asid,
            (va.align_down(leaf.order.shift()), leaf),
        )];
        if self.cow_policy == CowPolicy::CopySmallest
            && leaf.order > PageOrder::P4K
            && self.shares.shared(&leaf)
        {
            let pt = &mut self.proc_mut(asid).page_table;
            let stores = pt.split(va, |_| user_flags(false))?;
            leaf = pt.lookup(va).ok_or_else(unmapped)?;
            self.charge(asid, self.cost.pte_write * stores);
        }
        // No one else maps the page: it regains write permission in place.
        let mut frame = leaf.base;
        if self.shares.shared(&leaf) {
            frame = self.alloc_direct(asid, vma_base, leaf.order)?;
            self.proc_mut(asid).stats.cow_bytes_copied += leaf.order.bytes();
            self.charge(asid, self.cost.zero_4k * leaf.order.base_pages()); // the copy
            self.shares
                .release(leaf.base.base_page_number(), leaf.order)?;
        }
        let pt = &mut self.proc_mut(asid).page_table;
        let stores = pt.map(
            va.align_down(leaf.order.shift()),
            frame,
            leaf.order,
            user_flags(true),
        )?;
        self.charge(asid, self.cost.pte_write * stores);
        self.issue_shootdowns(Some(asid), &shootdowns);
        Ok(shootdowns)
    }

    /// Changes the write permission of `[va, va + len)` (an `mprotect`).
    ///
    /// The at most two pages that straddle an end of the range are
    /// **split** into base pages first, with the new permission inside the
    /// range and the old one outside: the cost the paper notes the OS pays
    /// when permissions diverge inside a large page (§III-C1/§III-C3), at
    /// any page size. Every other page in the range is rewritten whole.
    /// [`Os::merge_pages`] can rebuild split pages once permissions
    /// re-converge.
    ///
    /// All or nothing: every check runs before the first store, and every
    /// page it rewrites or splits gets one shootdown, returned in address
    /// order.
    ///
    /// # Errors
    ///
    /// Nothing is changed or charged on any error.
    ///
    /// * [`TpsError::Misaligned`] unless `va`/`len` are base-page aligned.
    /// * [`TpsError::Unmapped`] if the range leaves the VMA.
    /// * [`TpsError::SharedMapping`] if a CoW-shared page intersects the
    ///   range (resolve sharing first).
    /// * [`TpsError::InvariantViolation`] for an unknown `asid`.
    pub fn mprotect(
        &mut self,
        asid: Asid,
        va: VirtAddr,
        len: u64,
        writable: bool,
    ) -> Result<Vec<Shootdown>, TpsError> {
        if !va.is_aligned(BASE_PAGE_SHIFT) || !len.is_multiple_of(BASE_PAGE_SIZE) || len == 0 {
            return Err(TpsError::Misaligned {
                addr: va.value(),
                shift: BASE_PAGE_SHIFT,
            });
        }
        let end = va + len;
        {
            let vma = self
                .checked_proc(asid)?
                .address_space
                .find(va)
                .ok_or(TpsError::Unmapped { vaddr: va.value() })?;
            if end > vma.end() {
                return Err(TpsError::Unmapped { vaddr: end.value() });
            }
        }
        if let Some(leaf_va) = self.first_shared_leaf(asid, va, end) {
            return Err(TpsError::SharedMapping {
                vaddr: leaf_va.max(va).value(),
            });
        }
        let new_flags = user_flags(writable);
        let pt = &mut self.proc_mut(asid).page_table;
        let leaf_end = |(leaf_va, leaf): (VirtAddr, LeafInfo)| leaf_va + leaf.order.bytes();
        let straddles = |&l: &(VirtAddr, LeafInfo)| l.0 < va || leaf_end(l) > end;
        let head = pt.next_leaf(va, end).filter(straddles);
        let last_page = VirtAddr::new(end.value() - BASE_PAGE_SIZE);
        let tail = pt
            .next_leaf(last_page, end)
            .filter(|&l| straddles(&l) && Some(l.0) != head.map(|h| h.0));
        // Split the straddlers, then rewrite every leaf between them.
        let (mut lo, mut hi, mut stores) = (va, end, 0);
        for l in [head, tail].into_iter().flatten() {
            let keep = user_flags(l.1.flags.contains(PteFlags::WRITABLE));
            let inside = |sub: VirtAddr| {
                if sub >= va && sub < end {
                    new_flags
                } else {
                    keep
                }
            };
            stores += pt.split(l.0, inside)?;
            if l.0 < va {
                lo = leaf_end(l);
            }
            if leaf_end(l) > end {
                hi = l.0;
            }
        }
        let inner: Vec<_> = pt.leaves(lo, hi).collect();
        for &(leaf_va, leaf) in &inner {
            stores += pt.map(leaf_va, leaf.base, leaf.order, new_flags)?;
        }
        let shootdowns: Vec<Shootdown> = head
            .into_iter()
            .chain(inner)
            .chain(tail)
            .map(|l| Shootdown::of(asid, l))
            .collect();
        self.charge(asid, self.cost.pte_write * stores);
        self.issue_shootdowns(Some(asid), &shootdowns);
        Ok(shootdowns)
    }

    /// Bytes a swap-out of the page covering `va` would have to write back.
    ///
    /// With fine-grained A/D tracking enabled, a tailored page's dirty
    /// vector limits writeback to the dirtied sixteenths (paper §III-C1);
    /// otherwise a dirty page writes back in full, and a clean page not at
    /// all.
    pub fn dirty_writeback_bytes(&self, asid: Asid, va: VirtAddr) -> u64 {
        let pt = &self.processes[asid as usize].page_table;
        let Some(leaf) = pt.lookup(va) else { return 0 };
        if !leaf.flags.contains(PteFlags::DIRTY) {
            return 0;
        }
        match pt.dirty_vector(va) {
            Some(vector) => {
                let chunks = u64::from(vector.count_ones());
                let chunk_bytes = (leaf.order.bytes() / 16).max(BASE_PAGE_SIZE);
                (chunks * chunk_bytes).min(leaf.order.bytes())
            }
            None => leaf.order.bytes(),
        }
    }

    /// Runs the memory-compaction daemon (paper §II-B, §III-B3): migrates
    /// every process's movable blocks toward low addresses so free memory
    /// coalesces, updates reservations and page tables, and reports the
    /// TLB shootdowns migration requires. Kernel noise blocks are pinned
    /// (unmovable), as on real systems.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::SharedMapping`] while CoW sharing is live —
    /// migrating shared frames would require rekeying the share table.
    pub fn compact(&mut self) -> Result<(CompactionOutcome, Vec<Shootdown>), TpsError> {
        if !self.shares.is_empty() {
            return Err(TpsError::SharedMapping { vaddr: 0 });
        }
        // Gather every movable block: reservation segments + direct blocks.
        let mut movable: Vec<(PhysAddr, PageOrder)> = Vec::new();
        for proc in &self.processes {
            for res in proc.reservations.iter() {
                movable.extend(res.segments().iter().map(|s| (s.base, s.order)));
            }
            for blocks in proc.direct_blocks.values() {
                movable.extend(blocks.iter().copied());
            }
        }
        let outcome = compact(&mut self.buddy, &movable)?;
        // Compaction acts for no process: its work lands in the machine's
        // own account.
        if outcome.interrupted {
            self.machine_stats.compaction_aborts += 1;
        }
        self.machine_stats.op_cycles += self.cost.compact_page * outcome.pages_moved;

        // Relocation lookup, sorted by source base.
        let mut relocs: Vec<(u64, u64, u64)> = outcome
            .relocations
            .iter()
            .map(|r| (r.from.value(), r.to.value(), r.order.bytes()))
            .collect();
        relocs.sort_unstable();
        let relocate = |pa: PhysAddr| -> Option<PhysAddr> {
            let idx = relocs.partition_point(|&(from, _, _)| from <= pa.value());
            let (from, to, bytes) = *relocs.get(idx.checked_sub(1)?)?;
            (pa.value() < from + bytes).then(|| PhysAddr::new(to + (pa.value() - from)))
        };

        // Retarget reservations and direct blocks.
        for proc in &mut self.processes {
            for res in proc.reservations.iter_mut() {
                for seg in res.segments_mut() {
                    if let Some(new) = relocate(seg.base) {
                        seg.base = new;
                    }
                }
            }
            for blocks in proc.direct_blocks.values_mut() {
                for (base, _) in blocks.iter_mut() {
                    if let Some(new) = relocate(*base) {
                        *base = new;
                    }
                }
            }
        }

        // Rewrite page-table leaves pointing into moved blocks.
        let mut shootdowns = Vec::new();
        let mut stores = 0u64;
        for (pid, proc) in self.processes.iter_mut().enumerate() {
            let pt = &mut proc.page_table;
            let every_leaf = pt.leaves(VirtAddr::ZERO, VirtAddr::new(u64::MAX));
            let moved: Vec<_> = every_leaf
                .filter_map(|(va, leaf)| Some((va, leaf, relocate(leaf.base)?)))
                .collect();
            for (va, leaf, new) in moved {
                stores += pt.map(va, new, leaf.order, leaf.flags).map_err(|e| {
                    TpsError::invariant(
                        InvariantLayer::PageTable,
                        format!("remap to migrated frame at {va} failed: {e}"),
                    )
                })?;
                shootdowns.push(Shootdown::of(pid as Asid, (va, leaf)));
            }
        }
        self.machine_stats.op_cycles += self.cost.pte_write * stores;
        self.issue_shootdowns(None, &shootdowns);
        Ok((outcome, shootdowns))
    }

    /// Page merging (paper §III-B3): scans a process's mappings for buddy
    /// pairs — two adjacent leaves of equal order whose virtual and
    /// physical addresses are co-aligned to the next order with identical
    /// permissions — and merges each pair into one page of the next order.
    /// Repeats until no more merges apply. Returns the number of merges.
    ///
    /// As the paper argues (§III-C2), merging requires **no TLB
    /// shootdowns**: stale smaller-page entries still translate their
    /// portion of the merged page correctly.
    pub fn merge_pages(&mut self, asid: Asid) -> u64 {
        let mut total = 0u64;
        loop {
            // Each pass merges the buddy pairs it finds, left to right.
            let proc = &self.processes[asid as usize];
            let mut pairs = Vec::new();
            for vma in proc.address_space.iter() {
                let leaves: Vec<_> = proc.page_table.leaves(vma.base(), vma.end()).collect();
                let mut i = 0;
                while let [(va, a), (buddy_va, b), ..] = leaves[i..] {
                    let merged = a.order.get() + 1;
                    let buddies = merged <= MAX_POLICY_ORDER.get()
                        && va.is_aligned(BASE_PAGE_SHIFT + u32::from(merged))
                        && a.base.is_aligned(BASE_PAGE_SHIFT + u32::from(merged))
                        && buddy_va == va + a.order.bytes()
                        && (b.order, b.base) == (a.order, a.base + a.order.bytes())
                        && a.flags.contains(PteFlags::WRITABLE)
                            == b.flags.contains(PteFlags::WRITABLE)
                        && !self.shares.shared(&a)
                        && !self.shares.shared(&b);
                    if buddies {
                        pairs.push((va, a, PageOrder::new_unchecked(merged)));
                    }
                    i += if buddies { 2 } else { 1 };
                }
            }
            let mut merged_this_pass = 0u64;
            for (va, leaf, merged_order) in pairs {
                // Remapping existing leaves does not fail in practice; a
                // pair whose remap fails stays unmerged.
                let pt = &mut self.proc_mut(asid).page_table;
                if let Ok(stores) = pt.map(va, leaf.base, merged_order, leaf.flags) {
                    self.charge(asid, self.cost.pte_write * stores + self.cost.promote_op);
                    merged_this_pass += 1;
                }
            }
            total += merged_this_pass;
            if merged_this_pass == 0 {
                break;
            }
        }
        self.proc_mut(asid).stats.promotions += total;
        total
    }

    /// The base of the first CoW-shared leaf meeting `[start, end)`.
    fn first_shared_leaf(&self, asid: Asid, start: VirtAddr, end: VirtAddr) -> Option<VirtAddr> {
        if self.shares.is_empty() {
            return None;
        }
        let pt = &self.processes[asid as usize].page_table;
        let shared = pt
            .leaves(start, end)
            .find(|(_, leaf)| self.shares.shared(leaf));
        shared.map(|(va, _)| va)
    }

    /// The blocks `asid`'s VMA `vma` owns: its reservations' segments, then
    /// its direct blocks.
    fn vma_blocks(&self, asid: Asid, vma: &Vma) -> Vec<(PhysAddr, PageOrder)> {
        let proc = &self.processes[asid as usize];
        let reserved = proc
            .reservations
            .iter()
            .filter(|res| vma.contains(res.va_base()));
        let direct = proc.direct_blocks.get(&vma.base().value());
        (reserved.flat_map(|res| res.segments()))
            .map(|seg| (seg.base, seg.order))
            .chain(direct.into_iter().flatten().copied())
            .collect()
    }

    /// True if another process still maps a frame of a block that `vma`
    /// owns: a copy-on-write left it there when this process copied its
    /// page away, and freeing the block would free a mapped frame.
    fn lends_frames(&self, asid: Asid, vma: &Vma) -> bool {
        if self.shares.is_empty() {
            return false;
        }
        let pt = &self.processes[asid as usize].page_table;
        let tracked = |(pa, order): (PhysAddr, PageOrder)| {
            self.shares
                .pages(pa.base_page_number(), order)
                .map(|(pfn, _)| pfn)
        };
        // The tracked pages this VMA maps itself; it is their only mapper,
        // as the shared-leaf check ran first.
        let own: std::collections::BTreeSet<u64> = (pt.leaves(vma.base(), vma.end()))
            .flat_map(|(_, leaf)| tracked((leaf.base, leaf.order)))
            .collect();
        let blocks = self.vma_blocks(asid, vma).into_iter();
        blocks.flat_map(tracked).any(|pfn| !own.contains(&pfn))
    }

    /// Serves `munmap` of the VMA starting at `base`, freeing frames and
    /// reporting the TLB shootdowns the hardware must perform.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::Unmapped`] if no VMA starts at `base`, and
    /// [`TpsError::InvariantViolation`] for an unknown `asid`.
    pub fn munmap(&mut self, asid: Asid, base: VirtAddr) -> Result<Vec<Shootdown>, TpsError> {
        // Reject ranges with live CoW sharing: the block-ownership model
        // cannot reclaim frames another process still references.
        if let Some(vma) = self.checked_proc(asid)?.address_space.find(base) {
            let lent = || self.lends_frames(asid, vma).then(|| vma.base());
            if let Some(va) = self
                .first_shared_leaf(asid, vma.base(), vma.end())
                .or_else(lent)
            {
                return Err(TpsError::SharedMapping { vaddr: va.value() });
            }
        }
        let vma = self.proc_mut(asid).address_space.unmap_region(base)?;
        self.proc_mut(asid).stats.munmaps += 1;
        let mut shootdowns = Vec::new();

        // Unmap every leaf in the range.
        let mut stores = 0u64;
        let pt = &mut self.processes[asid as usize].page_table;
        let leaves: Vec<_> = pt.leaves(vma.base(), vma.end()).collect();
        for (va, leaf) in leaves {
            stores += pt.unmap(va, leaf.order).map_err(|e| {
                TpsError::invariant(
                    InvariantLayer::PageTable,
                    format!("munmap of just-listed leaf at {va} failed: {e}"),
                )
            })?;
            self.shares.forget(leaf.base.base_page_number(), leaf.order);
            shootdowns.push(Shootdown::of(asid, (va, leaf)));
        }

        // Return reserved, then directly allocated, frames.
        let blocks = self.vma_blocks(asid, &vma);
        let proc = self.proc_mut(asid);
        proc.reservations.remove_in_range(vma.base(), vma.end());
        proc.direct_blocks.remove(&vma.base().value());
        for (pa, order) in blocks {
            self.buddy.free(pa, order).map_err(|e| {
                TpsError::invariant(
                    InvariantLayer::Buddy,
                    format!("munmap free of block {pa:?} failed: {e}"),
                )
            })?;
            self.charge(asid, self.cost.buddy_op);
        }

        // Drop RMM ranges inside the region.
        {
            let start = vma.base().base_page_number();
            let end = vma.end().base_page_number();
            self.proc_mut(asid)
                .ranges
                .retain(|r| r.end_vpn <= start || r.start_vpn >= end);
        }

        self.charge(asid, self.cost.pte_write * stores);
        self.issue_shootdowns(Some(asid), &shootdowns);
        Ok(shootdowns)
    }
}

/// The flags of a user page with or without write permission.
fn user_flags(writable: bool) -> PteFlags {
    if writable {
        PteFlags::WRITABLE | PteFlags::USER
    } else {
        PteFlags::USER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn os(kind: PolicyKind) -> (Os, Asid) {
        let mut os = Os::new(512 << 20, PolicyConfig::new(kind));
        let pid = os.spawn();
        (os, pid)
    }

    fn touch_all(os: &mut Os, pid: Asid, vma: &Vma) {
        let mut va = vma.base();
        while va < vma.end() {
            if os.page_table(pid).lookup(va).is_none() {
                os.handle_fault(pid, va, true).unwrap();
            }
            va = VirtAddr::new(va.value() + BASE_PAGE_SIZE);
        }
    }

    #[test]
    fn unknown_asid_is_an_error_that_changes_nothing() {
        let (mut os, pid) = os(PolicyKind::Tps);
        let vma = os.mmap(pid, 64 << 10).unwrap();
        touch_all(&mut os, pid, &vma);
        let unknown = os.process_count() as Asid;
        let state = |os: &Os| (os.stats(), os.buddy().free_bytes(), os.process_count());
        let before = state(&os);
        let va = vma.base();
        let results = [
            ("mmap", os.mmap(unknown, 64 << 10).map(drop)),
            ("handle_fault", os.handle_fault(unknown, va, true).map(drop)),
            (
                "handle_cow_fault",
                os.handle_cow_fault(unknown, va).map(drop),
            ),
            (
                "mprotect",
                os.mprotect(unknown, va, BASE_PAGE_SIZE, false).map(drop),
            ),
            ("munmap", os.munmap(unknown, va).map(drop)),
            ("fork", os.fork(unknown).map(drop)),
        ];
        for (op, result) in results {
            assert!(
                matches!(
                    result,
                    Err(TpsError::InvariantViolation {
                        layer: InvariantLayer::Os,
                        ..
                    })
                ),
                "{op}: {result:?}"
            );
        }
        assert_eq!(state(&os), before);
    }

    #[test]
    fn cow_fault_on_a_writable_leaf_is_an_error() {
        let (mut os, pid) = os(PolicyKind::Tps);
        let vma = os.mmap(pid, 64 << 10).unwrap();
        touch_all(&mut os, pid, &vma);
        let before = os.stats();
        let err = os.handle_cow_fault(pid, vma.base()).unwrap_err();
        assert!(err.to_string().contains("writable leaf"), "{err}");
        assert_eq!(os.stats(), before, "nothing counted or charged");
    }

    #[test]
    fn only_4k_maps_base_pages() {
        let (mut os, pid) = os(PolicyKind::Only4K);
        let vma = os.mmap(pid, 64 << 10).unwrap();
        let out = os.handle_fault(pid, vma.base() + 0x3456, false).unwrap();
        assert_eq!(out.mapped_order, PageOrder::P4K);
        assert!(!out.promoted);
        assert_eq!(os.process(pid).resident_bytes(), BASE_PAGE_SIZE);
    }

    #[test]
    fn only_2m_bloats_memory() {
        let (mut os, pid) = os(PolicyKind::Only2M);
        let vma = os.mmap(pid, 8 << 20).unwrap();
        os.handle_fault(pid, vma.base(), false).unwrap();
        // One touch resident-maps 2 MB.
        assert_eq!(os.process(pid).resident_bytes(), 2 << 20);
        assert_eq!(os.process(pid).touched_bytes(), BASE_PAGE_SIZE);
    }

    #[test]
    fn thp_promotes_at_full_utilization() {
        let (mut os, pid) = os(PolicyKind::Thp);
        let vma = os.mmap(pid, 4 << 20).unwrap();
        // Touch all pages of the first 2M chunk.
        for i in 0..512u64 {
            let out = os
                .handle_fault(
                    pid,
                    VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE),
                    true,
                )
                .unwrap();
            if i < 511 {
                assert_eq!(out.mapped_order, PageOrder::P4K, "page {i}");
            } else {
                assert_eq!(out.mapped_order, PageOrder::P2M, "last touch promotes");
                assert!(out.promoted);
            }
        }
        let leaf = os.page_table(pid).lookup(vma.base()).unwrap();
        assert_eq!(leaf.order, PageOrder::P2M);
        // Memory accounting: resident equals touched (no bloat).
        assert_eq!(os.process(pid).resident_bytes(), 2 << 20);
    }

    #[test]
    fn thp_never_creates_tailored_sizes() {
        let (mut os, pid) = os(PolicyKind::Thp);
        let vma = os.mmap(pid, 2 << 20).unwrap();
        touch_all(&mut os, pid, &vma);
        for (order, _) in os.page_table(pid).page_census() {
            assert!(!order.is_tailored(), "THP produced {order}");
        }
    }

    #[test]
    fn tps_grows_through_every_power_of_two() {
        let (mut os, pid) = os(PolicyKind::Tps);
        let vma = os.mmap(pid, 256 << 10).unwrap(); // 64 pages
        let mut seen_orders = Vec::new();
        for i in 0..64u64 {
            let out = os
                .handle_fault(
                    pid,
                    VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE),
                    true,
                )
                .unwrap();
            if out.promoted {
                seen_orders.push(out.mapped_order.get());
                // Sequential touch promotes the region ending at page i to
                // order v2(i+1) — the binary ruler sequence: sub-regions
                // grow independently and merge upward.
                assert_eq!(out.mapped_order.get() as u32, (i + 1).trailing_zeros());
            }
        }
        assert_eq!(seen_orders.len(), 32, "every odd touch promotes");
        assert_eq!(*seen_orders.iter().max().unwrap(), 6);
        let leaf = os.page_table(pid).lookup(vma.base()).unwrap();
        assert_eq!(leaf.order.get(), 6, "whole region is one 256K page");
        // Single PTE: census shows exactly one page.
        let census = os.page_table(pid).page_census();
        assert_eq!(census.get(&PageOrder::new(6).unwrap()), Some(&1));
        assert_eq!(census.len(), 1);
    }

    #[test]
    fn tps_conservative_threshold_means_no_bloat() {
        let (mut os, pid) = os(PolicyKind::Tps);
        let vma = os.mmap(pid, 1 << 20).unwrap();
        // Touch half the pages scattered: no promotion beyond what is full.
        for i in (0..256u64).step_by(2) {
            os.handle_fault(
                pid,
                VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE),
                true,
            )
            .unwrap();
        }
        assert_eq!(
            os.process(pid).resident_bytes(),
            os.process(pid).touched_bytes(),
            "100% threshold guarantees resident == touched"
        );
    }

    #[test]
    fn tps_low_threshold_promotes_eagerly() {
        let mut os = Os::new(
            512 << 20,
            PolicyConfig::new(PolicyKind::Tps).with_threshold(0.5),
        );
        let pid = os.spawn();
        let vma = os.mmap(pid, 64 << 10).unwrap(); // 16 pages
                                                   // Touch 8 of 16 pages (the first half).
        for i in 0..8u64 {
            os.handle_fault(
                pid,
                VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE),
                true,
            )
            .unwrap();
        }
        let leaf = os.page_table(pid).lookup(vma.base()).unwrap();
        assert_eq!(leaf.order.get(), 4, "50% threshold promoted the whole 64K");
        assert!(os.process(pid).resident_bytes() > os.process(pid).touched_bytes());
    }

    #[test]
    fn tps_eager_maps_at_mmap() {
        let (mut os, pid) = os(PolicyKind::TpsEager);
        let vma = os.mmap(pid, 28 << 10).unwrap();
        // Everything is mapped already: exact span 16+8+4.
        assert_eq!(os.process(pid).resident_bytes(), 28 << 10);
        let orders: Vec<u8> = os
            .page_table(pid)
            .page_census()
            .keys()
            .map(|o| o.get())
            .collect();
        assert_eq!(orders, vec![0, 1, 2]);
        assert!(os.page_table(pid).lookup(vma.base() + (20 << 10)).is_some());
    }

    #[test]
    fn rmm_registers_ranges_and_maps_conventionally() {
        let (mut os, pid) = os(PolicyKind::Rmm);
        let vma = os.mmap(pid, 8 << 20).unwrap();
        assert_eq!(os.process(pid).resident_bytes(), 8 << 20, "eager paging");
        // A fresh buddy gives one contiguous block -> exactly one range.
        assert_eq!(os.process(pid).ranges().len(), 1);
        let r = os.range_for(pid, vma.base() + (5 << 20)).unwrap();
        assert_eq!(r.pages(), (8 << 20) / BASE_PAGE_SIZE);
        // Page table uses only conventional sizes.
        for (order, _) in os.page_table(pid).page_census() {
            assert!(!order.is_tailored());
        }
        assert!(os.range_for(pid, VirtAddr::new(0x100)).is_none());
    }

    #[test]
    fn tps_fragmentation_fallback_direct_4k() {
        // Tiny memory: reservation for a huge region fails, faults degrade.
        let mut buddy = BuddyAllocator::new(1 << 20);
        // Waste most memory so the span reservation fails.
        let hold = buddy.alloc(PageOrder::new(7).unwrap()).unwrap();
        let _hold2 = buddy.alloc(PageOrder::new(6).unwrap()).unwrap();
        buddy.free(hold, PageOrder::new(7).unwrap()).unwrap();
        let mut os = Os::with_buddy(buddy, PolicyConfig::new(PolicyKind::Tps));
        let pid = os.spawn();
        let vma = os.mmap(pid, 2 << 20).unwrap(); // 2 MB > free memory
        assert!(os.stats().fallback_4k > 0);
        let out = os.handle_fault(pid, vma.base(), false).unwrap();
        assert_eq!(out.mapped_order, PageOrder::P4K);
    }

    #[test]
    fn munmap_returns_all_memory() {
        for kind in [
            PolicyKind::Only4K,
            PolicyKind::Only2M,
            PolicyKind::Thp,
            PolicyKind::Tps,
            PolicyKind::TpsEager,
            PolicyKind::Rmm,
        ] {
            let (mut os, pid) = os(kind);
            let free_before = os.buddy().free_bytes();
            let vma = os.mmap(pid, 4 << 20).unwrap();
            touch_all(&mut os, pid, &vma);
            let shootdowns = os.munmap(pid, vma.base()).unwrap();
            assert!(!shootdowns.is_empty(), "{kind}: shootdowns required");
            assert_eq!(
                os.buddy().free_bytes(),
                free_before,
                "{kind}: all frames returned"
            );
            assert!(os.page_table(pid).lookup(vma.base()).is_none());
            assert_eq!(os.process(pid).resident_bytes(), 0, "{kind}");
            os.buddy().check_invariants().unwrap();
        }
    }

    #[test]
    fn fault_outside_vma_is_segfault() {
        let (mut os, pid) = os(PolicyKind::Tps);
        assert!(matches!(
            os.handle_fault(pid, VirtAddr::new(0x50), false),
            Err(TpsError::Unmapped { .. })
        ));
    }

    #[test]
    fn probe_mapping_reports_neighbors() {
        let (mut os, pid) = os(PolicyKind::Only4K);
        let vma = os.mmap(pid, 64 << 10).unwrap();
        os.handle_fault(pid, vma.base(), true).unwrap();
        os.handle_fault(pid, vma.base() + BASE_PAGE_SIZE, true)
            .unwrap();
        let vpn = vma.base().base_page_number();
        let probe = |vpn| os.probe_mapping_order(pid, vpn, PageOrder::P4K);
        let (pfn0, w0) = probe(vpn).unwrap();
        let (pfn1, _) = probe(vpn + 1).unwrap();
        assert!(w0);
        // Fresh buddy hands out consecutive pages: contiguity CoLT exploits.
        assert_eq!(pfn1, pfn0 + 1);
        assert!(probe(vpn + 5).is_none());
    }

    #[test]
    fn os_stats_accumulate() {
        let (mut os, pid) = os(PolicyKind::Tps);
        let vma = os.mmap(pid, 64 << 10).unwrap();
        touch_all(&mut os, pid, &vma);
        let s = os.stats();
        assert_eq!(s.mmaps, 1);
        assert_eq!(s.faults, 16);
        assert!(s.promotions >= 4);
        assert_eq!(s.reservations_created, 1);
        assert!(s.op_cycles > 0);
    }

    #[test]
    fn work_is_charged_to_its_process_and_compaction_to_the_machine() {
        let mut os = Os::new(256 << 20, PolicyConfig::new(PolicyKind::Tps));
        let a = os.spawn();
        let b = os.spawn();
        let vma_a = os.mmap(a, 256 << 10).unwrap();
        let vma_b = os.mmap(b, 64 << 10).unwrap();
        touch_all(&mut os, a, &vma_a);
        touch_all(&mut os, b, &vma_b);
        os.munmap(a, vma_a.base()).unwrap();
        let (sa, sb) = (os.process(a).stats(), os.process(b).stats());
        assert_eq!((sa.mmaps, sa.munmaps, sa.faults), (1, 1, 64));
        assert_eq!((sb.mmaps, sb.munmaps, sb.faults), (1, 0, 16));
        let mut sum = sa;
        sum.accumulate(&sb);
        assert_eq!(os.stats(), sum, "every counter so far belongs to a process");

        // b's frames sit above the hole a left: compaction moves them, and
        // the work lands in the machine total only.
        let (outcome, shootdowns) = os.compact().unwrap();
        assert!(outcome.pages_moved > 0);
        assert_eq!((os.process(a).stats(), os.process(b).stats()), (sa, sb));
        let machine = os.stats();
        assert_eq!(machine.shootdowns, sum.shootdowns + shootdowns.len() as u64);
        assert!(machine.op_cycles > sum.op_cycles);
    }

    #[test]
    fn two_processes_are_isolated() {
        let mut os = Os::new(256 << 20, PolicyConfig::new(PolicyKind::Tps));
        let a = os.spawn();
        let b = os.spawn();
        let va_a = os.mmap(a, 1 << 20).unwrap();
        let va_b = os.mmap(b, 1 << 20).unwrap();
        os.handle_fault(a, va_a.base(), true).unwrap();
        os.handle_fault(b, va_b.base(), true).unwrap();
        let pa_a = os.page_table(a).translate(va_a.base()).unwrap();
        let pa_b = os.page_table(b).translate(va_b.base()).unwrap();
        assert_ne!(pa_a, pa_b, "distinct frames");
        assert!(os.page_table(a).translate(va_b.base()).is_none() || va_a.base() == va_b.base());
    }

    #[test]
    fn fork_shares_pages_read_only() {
        let (mut os, parent) = os(PolicyKind::Tps);
        let vma = os.mmap(parent, 64 << 10).unwrap();
        touch_all(&mut os, parent, &vma);
        let parent_pa = os.page_table(parent).translate(vma.base()).unwrap();
        let (child, shootdowns) = os.fork(parent).unwrap();
        assert!(
            !shootdowns.is_empty(),
            "parent's writable entries are stale"
        );
        // The child sees the same frames, read-only, in both page tables.
        assert_eq!(os.page_table(child).translate(vma.base()), Some(parent_pa));
        for pid in [parent, child] {
            let leaf = os.page_table(pid).lookup(vma.base()).unwrap();
            assert!(!leaf.flags.contains(PteFlags::WRITABLE), "pid {pid}");
        }
        assert!(os.needs_cow(parent, vma.base()));
        assert!(os.needs_cow(child, vma.base()));
    }

    #[test]
    fn cow_whole_page_copy_diverges_frames() {
        let (mut os, parent) = os(PolicyKind::Tps);
        let vma = os.mmap(parent, 64 << 10).unwrap();
        touch_all(&mut os, parent, &vma);
        let (child, _) = os.fork(parent).unwrap();
        let shared_pa = os.page_table(child).translate(vma.base()).unwrap();
        // Child writes: whole-page policy copies the full 64K page.
        let sds = os.handle_cow_fault(child, vma.base() + 0x5000).unwrap();
        assert!(!sds.is_empty());
        let child_pa = os.page_table(child).translate(vma.base()).unwrap();
        assert_ne!(child_pa, shared_pa, "child got its own frame");
        assert!(!os.needs_cow(child, vma.base()));
        // Parent still maps the original frames, still read-only until it
        // writes; then it regains write permission in place (sole owner).
        assert_eq!(
            os.page_table(parent).translate(vma.base()).unwrap(),
            shared_pa
        );
        os.handle_cow_fault(parent, vma.base()).unwrap();
        assert!(!os.needs_cow(parent, vma.base()));
        assert_eq!(
            os.page_table(parent).translate(vma.base()).unwrap(),
            shared_pa
        );
        assert_eq!(os.stats().cow_faults, 2);
        assert_eq!(os.stats().cow_bytes_copied, 64 << 10);
    }

    #[test]
    fn cow_copy_smallest_keeps_sharing_the_rest() {
        let (mut os, parent) = os(PolicyKind::Tps);
        os.set_cow_policy(crate::cow::CowPolicy::CopySmallest);
        let vma = os.mmap(parent, 64 << 10).unwrap();
        touch_all(&mut os, parent, &vma);
        let (child, _) = os.fork(parent).unwrap();
        let shared_pa = os.page_table(child).translate(vma.base()).unwrap();
        // Child writes one base page in the middle of the 64K page.
        os.handle_cow_fault(child, vma.base() + 0x5000).unwrap();
        // The faulting 4K diverged; neighbors still share the old frames.
        let forked = os.page_table(child).translate(vma.base() + 0x5000).unwrap();
        assert_ne!(
            forked.align_down(12),
            PhysAddr::new(shared_pa.value() + 0x5000).align_down(12)
        );
        assert_eq!(
            os.page_table(child).translate(vma.base()).unwrap(),
            shared_pa,
            "unwritten part keeps sharing"
        );
        // The big page split into base pages in the child.
        let leaf = os.page_table(child).lookup(vma.base()).unwrap();
        assert_eq!(leaf.order, PageOrder::P4K);
        assert_eq!(os.stats().cow_bytes_copied, BASE_PAGE_SIZE);
    }

    #[test]
    fn cow_copy_smallest_of_a_base_page_copies_it() {
        let (mut os, parent) = os(PolicyKind::Only4K);
        os.set_cow_policy(CowPolicy::CopySmallest);
        let vma = os.mmap(parent, BASE_PAGE_SIZE).unwrap();
        touch_all(&mut os, parent, &vma);
        let (child, _) = os.fork(parent).unwrap();
        let shared_pa = os.page_table(child).translate(vma.base()).unwrap();
        os.handle_cow_fault(child, vma.base()).unwrap();
        assert_ne!(os.page_table(child).translate(vma.base()), Some(shared_pa));
        assert!(!os.needs_cow(child, vma.base()));
        assert_eq!(os.stats().cow_bytes_copied, BASE_PAGE_SIZE);
    }

    #[test]
    fn shared_cow_fault_issues_exactly_one_shootdown() {
        use tps_core::{FaultPlan, FaultPlanConfig};
        for policy in [CowPolicy::CopyWholePage, CowPolicy::CopySmallest] {
            let (mut os, parent) = os(PolicyKind::Tps);
            os.set_cow_policy(policy);
            let vma = os.mmap(parent, 64 << 10).unwrap();
            touch_all(&mut os, parent, &vma);
            let (child, _) = os.fork(parent).unwrap();
            // Every delivery is dropped, so each one spends the full retry
            // budget of 8 re-issues.
            let (handle, _plan) = FaultPlan::handles(FaultPlanConfig {
                shootdown_deliver: 1.0,
                ..FaultPlanConfig::disabled(7)
            });
            os.set_fault_injector(Some(handle));
            let before = os.process(child).stats();
            let sds = os.handle_cow_fault(child, vma.base() + 0x5000).unwrap();
            let after = os.process(child).stats();
            assert_eq!(sds.len(), 1, "{policy:?}: {sds:?}");
            assert_eq!(after.shootdowns - before.shootdowns, 1, "{policy:?}");
            assert_eq!(
                after.shootdowns_retried - before.shootdowns_retried,
                8,
                "{policy:?}: one delivery"
            );
        }
    }

    #[test]
    fn munmap_of_shared_range_is_rejected() {
        let (mut os, parent) = os(PolicyKind::Tps);
        let vma = os.mmap(parent, 16 << 10).unwrap();
        touch_all(&mut os, parent, &vma);
        let (_child, _) = os.fork(parent).unwrap();
        assert!(matches!(
            os.munmap(parent, vma.base()),
            Err(TpsError::SharedMapping { .. })
        ));
    }

    #[test]
    fn no_promotion_over_shared_leaves() {
        let (mut os, parent) = os(PolicyKind::Tps);
        let vma = os.mmap(parent, 64 << 10).unwrap();
        // Touch the first half, fork, then touch the rest.
        for i in 0..8u64 {
            os.handle_fault(
                parent,
                VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE),
                true,
            )
            .unwrap();
        }
        let (_child, _) = os.fork(parent).unwrap();
        for i in 8..16u64 {
            os.handle_fault(
                parent,
                VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE),
                true,
            )
            .unwrap();
        }
        // The region is fully touched but must NOT be promoted to 64K:
        // the first half's frames are still shared with the child.
        let leaf = os.page_table(parent).lookup(vma.base()).unwrap();
        assert!(
            leaf.order.bytes() <= 32 << 10,
            "promotion over shared leaves: got {}",
            leaf.order
        );
    }

    #[test]
    fn mprotect_flips_permissions_and_splits_straddlers() {
        let (mut os, pid) = os(PolicyKind::Tps);
        let vma = os.mmap(pid, 64 << 10).unwrap();
        touch_all(&mut os, pid, &vma); // promoted to one 64K page
                                       // Protect the middle 16K read-only: the 64K page must split.
        let mid = VirtAddr::new(vma.base().value() + (16 << 10));
        let sds = os.mprotect(pid, mid, 16 << 10, false).unwrap();
        assert!(!sds.is_empty());
        let ro = os.page_table(pid).lookup(mid).unwrap();
        assert!(!ro.flags.contains(PteFlags::WRITABLE));
        assert_eq!(ro.order, PageOrder::P4K, "straddler split to base pages");
        // Outside the range, permissions survive.
        let rw = os.page_table(pid).lookup(vma.base()).unwrap();
        assert!(rw.flags.contains(PteFlags::WRITABLE));
        // Translations unchanged by the split.
        assert!(os.page_table(pid).translate(mid).is_some());
        // Re-protect writable and merge back up.
        os.mprotect(pid, VirtAddr::new(vma.base().value()), 64 << 10, true)
            .unwrap();
        let merges = os.merge_pages(pid);
        assert!(merges > 0);
        assert_eq!(
            os.page_table(pid).lookup(vma.base()).unwrap().order.bytes(),
            64 << 10,
            "permissions re-converged: merged back to one page"
        );
    }

    #[test]
    fn mprotect_of_a_partly_shared_range_changes_nothing() {
        let (mut os, parent) = os(PolicyKind::Tps);
        os.set_cow_policy(CowPolicy::CopySmallest);
        let vma = os.mmap(parent, 64 << 10).unwrap();
        touch_all(&mut os, parent, &vma); // one 64K page
        os.fork(parent).unwrap();
        // The parent's write copies page 0 and leaves pages 1..16 shared.
        os.handle_cow_fault(parent, vma.base()).unwrap();
        let leaves = |os: &Os| {
            (0..16u64)
                .map(|i| {
                    os.page_table(parent)
                        .lookup(vma.base() + i * BASE_PAGE_SIZE)
                })
                .collect::<Vec<_>>()
        };
        let before = (leaves(&os), os.process(parent).stats());
        assert!(before.0[0].unwrap().flags.contains(PteFlags::WRITABLE));
        let err = os.mprotect(parent, vma.base(), 64 << 10, false);
        assert_eq!(
            err,
            Err(TpsError::SharedMapping {
                vaddr: vma.base().value() + BASE_PAGE_SIZE
            })
        );
        let after = (leaves(&os), os.process(parent).stats());
        assert_eq!(after.0, before.0, "no leaf rewritten");
        assert_eq!(after.1.shootdowns, before.1.shootdowns);
        assert_eq!(after.1.op_cycles, before.1.op_cycles, "nothing charged");
    }

    /// A THP process with one VMA of `chunks` 2 MB chunks, every chunk
    /// promoted to a 2 MB page.
    fn thp_with_2m_pages(chunks: u64) -> (Os, Asid, Vma) {
        let (mut os, pid) = os(PolicyKind::Thp);
        let vma = os.mmap(pid, chunks * PageOrder::P2M.bytes()).unwrap();
        touch_all(&mut os, pid, &vma);
        for i in 0..chunks {
            let leaf = os.page_table(pid).lookup(vma.base() + i * (2 << 20));
            assert_eq!(leaf.unwrap().order, PageOrder::P2M, "chunk {i}");
        }
        (os, pid, vma)
    }

    /// Every leaf of every process, per base page: (asid, frame number,
    /// writable).
    fn mapped_base_pages(os: &Os) -> Vec<(Asid, u64, bool)> {
        let mut out = Vec::new();
        for asid in 0..os.process_count() as Asid {
            let pt = os.page_table(asid);
            let mut cursor = VirtAddr::ZERO;
            while let Some((va, leaf)) = pt.next_leaf(cursor, VirtAddr::new(u64::MAX)) {
                let writable = leaf.flags.contains(PteFlags::WRITABLE);
                let pfn = leaf.base.base_page_number();
                out.extend((0..leaf.order.base_pages()).map(|i| (asid, pfn + i, writable)));
                cursor = va + leaf.order.bytes();
            }
        }
        out
    }

    /// No process holds a writable leaf over a frame another process maps.
    fn assert_isolated(os: &Os) {
        let mut mappers: BTreeMap<u64, Vec<(Asid, bool)>> = BTreeMap::new();
        for (asid, pfn, writable) in mapped_base_pages(os) {
            mappers.entry(pfn).or_default().push((asid, writable));
        }
        for (pfn, m) in mappers {
            assert!(
                m.len() == 1 || m.iter().all(|&(_, w)| !w),
                "frame {pfn:#x} is mapped writable while shared: {m:?}"
            );
        }
    }

    #[test]
    fn mprotect_splits_a_2m_page_around_one_base_page() {
        let (mut os, pid, vma) = thp_with_2m_pages(1);
        let before = os.page_table(pid).lookup(vma.base()).unwrap();
        let target = vma.base() + BASE_PAGE_SIZE;
        let sds = os.mprotect(pid, target, BASE_PAGE_SIZE, false).unwrap();
        assert_eq!(
            sds,
            [Shootdown {
                asid: pid,
                va: vma.base(),
                order: PageOrder::P2M
            }]
        );
        for i in 0..512u64 {
            let va = vma.base() + i * BASE_PAGE_SIZE;
            let leaf = os.page_table(pid).lookup(va).unwrap();
            assert_eq!(leaf.order, PageOrder::P4K, "page {i}");
            assert_eq!(leaf.base, before.base + i * BASE_PAGE_SIZE, "page {i}");
            assert_eq!(leaf.flags.contains(PteFlags::WRITABLE), va != target);
        }
        os.page_table(pid).check_invariants().unwrap();
    }

    #[test]
    fn mprotect_across_two_2m_pages_rewrites_one_and_splits_the_other() {
        let (mut os, pid, vma) = thp_with_2m_pages(2);
        let second = vma.base() + (2 << 20);
        let frames = [vma.base(), second].map(|va| os.page_table(pid).lookup(va).unwrap().base);
        let before = os.process(pid).stats();
        let sds = os
            .mprotect(pid, vma.base(), (2 << 20) + BASE_PAGE_SIZE, false)
            .unwrap();
        let expected = [vma.base(), second].map(|va| Shootdown {
            asid: pid,
            va,
            order: PageOrder::P2M,
        });
        assert_eq!(sds, expected, "both leaves changed, both shot down");
        let after = os.process(pid).stats();
        assert_eq!(after.shootdowns - before.shootdowns, 2);
        // The first page is rewritten whole (1 store); the second splits
        // into a new level-1 table (1 + 512 stores).
        let cost = CostModel::default();
        assert_eq!(
            after.op_cycles - before.op_cycles,
            cost.pte_write * (1 + 1 + 512) + 2 * cost.shootdown
        );
        let pt = os.page_table(pid);
        let first = pt.lookup(vma.base()).unwrap();
        assert_eq!((first.order, first.base), (PageOrder::P2M, frames[0]));
        assert!(!first.flags.contains(PteFlags::WRITABLE));
        let split = |i: u64| pt.lookup(second + i * BASE_PAGE_SIZE).unwrap();
        assert_eq!((split(0).order, split(0).base), (PageOrder::P4K, frames[1]));
        assert!(!split(0).flags.contains(PteFlags::WRITABLE));
        assert!(split(1).flags.contains(PteFlags::WRITABLE));
        assert_eq!(split(511).base, frames[1] + 511 * BASE_PAGE_SIZE);
        pt.check_invariants().unwrap();
    }

    #[test]
    fn a_failing_mprotect_over_2m_pages_changes_nothing() {
        let (mut os, parent, vma) = thp_with_2m_pages(2);
        os.fork(parent).unwrap();
        // The parent's write copies the first 2 MB page; the second stays
        // shared, so a range that reaches into it must be refused whole.
        os.handle_cow_fault(parent, vma.base()).unwrap();
        let leaves = |os: &Os| {
            let pt = os.page_table(parent);
            [0u64, 1, 512, 513].map(|i| pt.lookup(vma.base() + i * BASE_PAGE_SIZE))
        };
        let before = (leaves(&os), os.stats());
        assert_eq!(
            os.mprotect(parent, vma.base(), (2 << 20) + BASE_PAGE_SIZE, false),
            Err(TpsError::SharedMapping {
                vaddr: vma.base().value() + (2 << 20)
            })
        );
        assert_eq!(
            (leaves(&os), os.stats()),
            before,
            "no leaf, counter or shootdown"
        );
    }

    #[test]
    fn cow_copy_smallest_splits_a_shared_2m_page() {
        let (mut os, parent, vma) = thp_with_2m_pages(1);
        os.set_cow_policy(CowPolicy::CopySmallest);
        let (child, _) = os.fork(parent).unwrap();
        let shared = os.page_table(child).lookup(vma.base()).unwrap();
        for page in [3u64, 7] {
            let va = vma.base() + page * BASE_PAGE_SIZE;
            let sds = os.handle_cow_fault(parent, va).unwrap();
            assert_eq!(sds.len(), 1);
            let leaf = os.page_table(parent).lookup(va).unwrap();
            assert_eq!(leaf.order, PageOrder::P4K);
            assert!(leaf.flags.contains(PteFlags::WRITABLE));
            assert_ne!(leaf.base, shared.base + page * BASE_PAGE_SIZE, "copied");
            assert_isolated(&os);
        }
        assert_eq!(os.stats().cow_faults, 2);
        assert_eq!(os.stats().cow_bytes_copied, 2 * BASE_PAGE_SIZE);
        // The rest of the parent's pages keep sharing, read-only; the
        // child still maps the whole 2 MB page.
        let kept = os.page_table(parent).lookup(vma.base()).unwrap();
        assert_eq!((kept.order, kept.base), (PageOrder::P4K, shared.base));
        assert!(os.needs_cow(parent, vma.base()));
        assert_eq!(os.page_table(child).lookup(vma.base()), Some(shared));
        // The child's write to the 2 MB page copies one base page too.
        os.handle_cow_fault(child, vma.base() + (1 << 20)).unwrap();
        assert_isolated(&os);
    }

    #[test]
    fn cow_copy_smallest_never_unshares_a_page_the_other_process_maps() {
        let (mut os, parent) = os(PolicyKind::Tps);
        os.set_cow_policy(CowPolicy::CopySmallest);
        let vma = os.mmap(parent, 64 << 10).unwrap();
        touch_all(&mut os, parent, &vma); // one 64K page
        let (child, _) = os.fork(parent).unwrap();
        os.handle_cow_fault(child, vma.base() + 0x5000).unwrap();
        // The parent's 64K page still shares 15 frames with the child:
        // its write copies page 0 and leaves the other 14 shared.
        os.handle_cow_fault(parent, vma.base()).unwrap();
        assert_isolated(&os);
        assert_eq!(os.stats().cow_bytes_copied, 2 * BASE_PAGE_SIZE);
        let parent_leaf = |os: &Os, i: u64| {
            os.page_table(parent)
                .lookup(vma.base() + i * BASE_PAGE_SIZE)
                .unwrap()
        };
        assert_eq!(parent_leaf(&os, 1).order, PageOrder::P4K);
        assert!(!parent_leaf(&os, 1).flags.contains(PteFlags::WRITABLE));
        // Page 5 is the parent's alone now: its write needs no copy.
        let frame = parent_leaf(&os, 5).base;
        os.handle_cow_fault(parent, vma.base() + 0x5000).unwrap();
        assert_eq!(parent_leaf(&os, 5).base, frame);
        assert!(parent_leaf(&os, 5).flags.contains(PteFlags::WRITABLE));
        assert_eq!(os.stats().cow_bytes_copied, 2 * BASE_PAGE_SIZE);
        assert_isolated(&os);
    }

    #[test]
    fn mprotect_validates_inputs() {
        let (mut os, pid) = os(PolicyKind::Tps);
        let vma = os.mmap(pid, 16 << 10).unwrap();
        assert!(matches!(
            os.mprotect(pid, vma.base() + 1, BASE_PAGE_SIZE, false),
            Err(TpsError::Misaligned { .. })
        ));
        assert!(matches!(
            os.mprotect(pid, vma.base(), 64 << 10, false),
            Err(TpsError::Unmapped { .. })
        ));
        assert!(matches!(
            os.mprotect(pid, VirtAddr::new(BASE_PAGE_SIZE), BASE_PAGE_SIZE, false),
            Err(TpsError::Unmapped { .. })
        ));
    }

    #[test]
    fn dirty_vector_limits_writeback() {
        let mut os = Os::new(128 << 20, PolicyConfig::new(PolicyKind::Tps));
        os.set_fine_grained_ad(true);
        let pid = os.spawn();
        let vma = os.mmap(pid, 64 << 10).unwrap();
        // Read-fault everything in (clean), promoting to one 64K page.
        let mut va = vma.base();
        while va < vma.end() {
            os.handle_fault(pid, va, false).unwrap();
            va = VirtAddr::new(va.value() + BASE_PAGE_SIZE);
        }
        assert_eq!(os.dirty_writeback_bytes(pid, vma.base()), 0, "clean page");
        // Dirty two of sixteen base pages.
        os.hw_mark_accessed(pid, vma.base(), true);
        os.hw_mark_accessed(pid, vma.base() + (5 << 12), true);
        assert_eq!(
            os.dirty_writeback_bytes(pid, vma.base()),
            2 * BASE_PAGE_SIZE,
            "only the dirtied sixteenths write back"
        );
        // Without tracking, the whole page writes back.
        let mut os2 = Os::new(128 << 20, PolicyConfig::new(PolicyKind::Tps));
        let pid2 = os2.spawn();
        let vma2 = os2.mmap(pid2, 64 << 10).unwrap();
        let mut va = vma2.base();
        while va < vma2.end() {
            os2.handle_fault(pid2, va, false).unwrap();
            va = VirtAddr::new(va.value() + BASE_PAGE_SIZE);
        }
        os2.hw_mark_accessed(pid2, vma2.base(), true);
        assert_eq!(os2.dirty_writeback_bytes(pid2, vma2.base()), 64 << 10);
    }

    #[test]
    fn compaction_relocates_and_remaps_consistently() {
        let (mut os, pid) = os(PolicyKind::Tps);
        // Create fragmentation: map/touch/unmap interleaved regions.
        let keep1 = os.mmap(pid, 1 << 20).unwrap();
        let drop1 = os.mmap(pid, 4 << 20).unwrap();
        let keep2 = os.mmap(pid, 2 << 20).unwrap();
        for vma in [&keep1, &drop1, &keep2] {
            touch_all(&mut os, pid, vma);
        }
        os.munmap(pid, drop1.base()).unwrap();
        // Remember logical contents: VA -> PA before compaction.
        let before1 = os.page_table(pid).translate(keep1.base()).unwrap();
        let (outcome, shootdowns) = os.compact().unwrap();
        let after1 = os.page_table(pid).translate(keep1.base()).unwrap();
        // Compaction may move pages; mappings must still resolve, and the
        // shootdown list must cover every moved leaf.
        if outcome.pages_moved > 0 {
            assert!(!shootdowns.is_empty());
        }
        let _ = (before1, after1);
        // Frame lookups through reservations agree with the page table.
        for vma in [&keep1, &keep2] {
            let mut va = vma.base();
            while va < vma.end() {
                let pt_pa = os.page_table(pid).translate(va).unwrap();
                let res = os.process(pid).reservations().find(va).unwrap();
                let res_pa = res.frame_for(va - res.va_base()).unwrap();
                assert_eq!(pt_pa, res_pa, "reservation and PT agree at {va}");
                va = VirtAddr::new(va.value() + BASE_PAGE_SIZE);
            }
        }
        os.buddy().check_invariants().unwrap();
    }

    #[test]
    fn page_merging_coalesces_buddy_leaves() {
        // 4K-only policy on pristine memory: sequential faults get
        // physically contiguous frames, so merging can rebuild large pages
        // without moving a byte.
        let (mut os, pid) = os(PolicyKind::Only4K);
        let vma = os.mmap(pid, 64 << 10).unwrap();
        touch_all(&mut os, pid, &vma);
        assert_eq!(
            os.page_table(pid).page_census().get(&PageOrder::P4K),
            Some(&16)
        );
        let before: Vec<_> = (0..16u64)
            .map(|i| {
                os.page_table(pid)
                    .translate(vma.base() + i * BASE_PAGE_SIZE)
                    .unwrap()
            })
            .collect();
        let merges = os.merge_pages(pid);
        assert!(merges >= 8, "16 pages merge pairwise up the tree: {merges}");
        // The whole region collapsed into one 64K page.
        let census = os.page_table(pid).page_census();
        assert_eq!(
            census.get(&PageOrder::new(4).unwrap()),
            Some(&1),
            "{census:?}"
        );
        // Translations unchanged (no migration happened).
        for (i, pa) in before.iter().enumerate() {
            assert_eq!(
                os.page_table(pid)
                    .translate(vma.base() + i as u64 * BASE_PAGE_SIZE)
                    .unwrap(),
                *pa
            );
        }
    }

    #[test]
    fn page_merging_respects_discontiguity() {
        let (mut os, pid) = os(PolicyKind::Only4K);
        // Interleave faults across two VMAs so frames alternate and are
        // not buddy-aligned pairs within either VMA.
        let a = os.mmap(pid, 16 << 10).unwrap();
        let b = os.mmap(pid, 16 << 10).unwrap();
        for i in 0..4u64 {
            os.handle_fault(
                pid,
                VirtAddr::new(a.base().value() + i * BASE_PAGE_SIZE),
                true,
            )
            .unwrap();
            os.handle_fault(
                pid,
                VirtAddr::new(b.base().value() + i * BASE_PAGE_SIZE),
                true,
            )
            .unwrap();
        }
        let merges = os.merge_pages(pid);
        // Alternating frames: VA-adjacent pages are not PA-adjacent.
        assert_eq!(merges, 0, "no mergeable buddies");
    }

    #[test]
    fn compaction_rejected_while_cow_shared() {
        let (mut os, pid) = os(PolicyKind::Tps);
        let vma = os.mmap(pid, 16 << 10).unwrap();
        touch_all(&mut os, pid, &vma);
        os.fork(pid).unwrap();
        assert!(matches!(os.compact(), Err(TpsError::SharedMapping { .. })));
    }
}
