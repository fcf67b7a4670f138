//! The machine driver: N tenant processes over one shared OS, buddy
//! allocator and TLB hierarchy, interleaved by a deterministic scheduler.
//!
//! A machine is built with [`MachineBuilder`] from one [`TenantSpec`] per
//! tenant. Each tenant is its own address space (ASID); all tenants share
//! the physical memory pool and the translation hardware, so one tenant's
//! promotions and shootdowns evict and invalidate another's TLB entries —
//! the cross-talk the paper's fragmentation story is about.

use crate::config::MachineConfig;
use crate::mmu::{AccessLevel, Mmu};
use crate::stats::{HwFaultStats, MachineRunStats, RunStats, TenantOutcome};
use std::collections::BTreeMap;
use tps_core::{InjectorHandle, TenantFault, TenantFaultCause, TpsError, VirtAddr};
use tps_mem::BuddyAllocator;
use tps_os::{Os, OsStats};
use tps_tlb::{Asid, TlbStats};
use tps_wl::{build_seeded, Event, SuiteScale, Workload, WorkloadProfile};

/// Per-thread counters the machine accumulates while executing events.
///
/// Most callers never touch this directly — [`Machine::run`] manages one
/// per tenant. It is public for custom drivers built on [`Machine::step`].
#[derive(Clone, Debug, Default)]
pub struct ThreadCounters {
    /// TLB hierarchy counters.
    pub mem: TlbStats,
    /// Completed page walks.
    pub walks: u64,
    /// Page-table memory references.
    pub walk_refs: u64,
    /// Walks that ended on an alias PTE.
    pub alias_extras: u64,
    /// Hardware A/D-bit stores.
    pub ad_updates: u64,
    /// Access events executed.
    pub accesses: u64,
    /// Instructions from explicit `Compute` events.
    pub extra_insts: u64,
}

/// Measured-region plus full-run counters for one tenant.
///
/// `full` accumulates from the first event; `measured` is reset at each
/// [`Event::StatsBarrier`] so figures report steady-state behavior while
/// full-run totals remain available (system-time accounting, Fig. 17).
#[derive(Clone, Debug, Default)]
pub struct RunCounters {
    /// Counters since the last ROI barrier.
    pub measured: ThreadCounters,
    /// Counters over the whole run.
    pub full: ThreadCounters,
}

impl RunCounters {
    /// Records one translated access into both counter sets.
    pub fn record(&mut self, level: AccessLevel, outcome: &crate::mmu::AccessOutcome) {
        self.measured.record(level, outcome);
        self.full.record(level, outcome);
    }

    /// Adds compute instructions to both counter sets.
    pub fn compute(&mut self, insts: u64) {
        self.measured.extra_insts += insts;
        self.full.extra_insts += insts;
    }

    /// Handles the ROI barrier: restarts the measured region.
    pub fn barrier(&mut self) {
        self.measured = ThreadCounters::default();
    }
}

impl ThreadCounters {
    /// Records one translated access.
    pub fn record(&mut self, level: AccessLevel, outcome: &crate::mmu::AccessOutcome) {
        self.accesses += 1;
        self.mem.accesses += 1;
        match level {
            AccessLevel::L1 => self.mem.l1_hits += 1,
            AccessLevel::Stlb => self.mem.stlb_hits += 1,
            AccessLevel::Range => self.mem.range_hits += 1,
            AccessLevel::Walk => {
                self.mem.l2_misses += 1;
                self.walks += 1;
            }
        }
        self.walk_refs += outcome.walk_refs;
        self.alias_extras += u64::from(outcome.alias_extra);
        self.ad_updates += outcome.ad_updates;
    }
}

/// Machine-level policy for a shared-pool out-of-memory fault raised by a
/// tenant's `mmap`.
///
/// Either way the decision is a pure function of machine state, so runs
/// (and their kill sequences) stay byte-deterministic at any thread count
/// and across checkpoint resume.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum OnOom {
    /// Kill the tenant whose request failed. Nobody else is disturbed;
    /// the faulter's memory returns to the pool.
    #[default]
    FailFast,
    /// Kill the tenant with the most mapped bytes (lowest slot on a tie)
    /// and retry the failed request — a deterministic OOM killer. When
    /// the faulter itself is the largest tenant, it is the victim and the
    /// request dies with it.
    KillVictim,
}

impl OnOom {
    /// Stable label used by CLI flags and spec fingerprints.
    pub fn label(&self) -> &'static str {
        match self {
            OnOom::FailFast => "fail-fast",
            OnOom::KillVictim => "kill-victim",
        }
    }
}

impl std::fmt::Display for OnOom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for OnOom {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fail-fast" => Ok(OnOom::FailFast),
            "kill-victim" => Ok(OnOom::KillVictim),
            other => Err(format!(
                "unknown OOM policy \"{other}\" (expected fail-fast or kill-victim)"
            )),
        }
    }
}

/// The machine's scheduler: a strict round-robin rotation over the live
/// tenants, in tenant order, deciding per event slot which tenant runs
/// next. A retired tenant drops out of the rotation; the order of the
/// survivors is preserved. With two tenants this is exactly the
/// fine-grained SMT alternation; with one it degenerates to the solo
/// loop.
///
/// Declared as a hot-path entry point in `hot-paths.toml`: the decision
/// sits on the per-event dispatch loop, so it must stay free of
/// allocation, locks and dynamic dispatch.
#[derive(Clone, Debug)]
pub struct TenantScheduler {
    cursor: usize,
}

impl TenantScheduler {
    /// Picks the next tenant as an index into the machine's live list
    /// (`0..live`). `live` must be non-zero.
    #[inline]
    pub fn next_tenant(&mut self, live: usize) -> usize {
        if self.cursor >= live {
            self.cursor = 0;
        }
        let pick = self.cursor;
        self.cursor += 1;
        pick
    }

    /// Tells the scheduler the tenant it just picked retired (was removed
    /// from the live list at `pick`), keeping the rotation aligned.
    fn tenant_retired(&mut self, pick: usize) {
        if pick < self.cursor {
            self.cursor -= 1;
        }
    }
}

/// Where a tenant's event stream comes from.
enum WorkloadSource {
    /// A caller-provided workload object.
    Boxed(Box<dyn Workload>),
    /// A suite benchmark built at [`MachineBuilder::build`] time with a
    /// per-tenant seed.
    Suite {
        name: String,
        scale: SuiteScale,
        seed: u64,
    },
    /// No events: the tenant is driven externally via [`Machine::step`].
    External(WorkloadProfile),
}

/// One tenant of a multi-tenant machine: its workload, an optional label
/// and an optional cap on how much of the shared physical memory it may
/// map.
pub struct TenantSpec {
    source: WorkloadSource,
    label: Option<String>,
    memory_cap: Option<u64>,
}

impl TenantSpec {
    /// A tenant running the given workload object.
    pub fn workload(workload: impl Workload + 'static) -> Self {
        TenantSpec {
            source: WorkloadSource::Boxed(Box::new(workload)),
            label: None,
            memory_cap: None,
        }
    }

    /// A tenant running one suite benchmark with its own seed — the
    /// per-tenant seeded form experiment matrices use.
    ///
    /// The workload is built during [`MachineBuilder::build`]; an unknown
    /// benchmark name panics there (the experiment layer validates names
    /// before any machine is built).
    pub fn suite(name: impl Into<String>, scale: SuiteScale, seed: u64) -> Self {
        TenantSpec {
            source: WorkloadSource::Suite {
                name: name.into(),
                scale,
                seed,
            },
            label: None,
            memory_cap: None,
        }
    }

    /// A tenant with an empty event stream, for machines driven through
    /// [`Machine::step`] by an external harness or test.
    pub fn external(name: impl Into<String>) -> Self {
        TenantSpec {
            source: WorkloadSource::External(WorkloadProfile::named(name.into())),
            label: None,
            memory_cap: None,
        }
    }

    /// Labels the tenant (defaults to the workload's benchmark name).
    #[must_use]
    pub fn named(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Caps the bytes of virtual memory this tenant may have mapped at
    /// once — its share of the machine. Exceeding the cap raises a
    /// [`TenantFaultCause::CapExceeded`] fault: [`Machine::step`] returns
    /// it, and [`Machine::run`] kills the tenant and runs the survivors
    /// on.
    #[must_use]
    pub fn memory_cap(mut self, bytes: u64) -> Self {
        self.memory_cap = Some(bytes);
        self
    }
}

/// Builds a [`Machine`]: one shared [`MachineConfig`] plus one
/// [`TenantSpec`] per tenant, interleaved round-robin.
///
/// # Example
///
/// ```
/// use tps_sim::{MachineBuilder, MachineConfig, Mechanism, TenantSpec};
/// use tps_wl::{Gups, GupsParams, Initialized};
///
/// let config = MachineConfig::for_mechanism(Mechanism::Tps).with_memory(64 << 20);
/// // Initialized adds the startup page-touch sweep real applications do,
/// // so TPS promotions finish before the measured region begins.
/// let wl = Initialized::new(
///     Gups::new(GupsParams { table_bytes: 8 << 20, updates: 10_000, seed: 7 }));
/// let stats = MachineBuilder::new(config)
///     .tenant(TenantSpec::workload(wl))
///     .build()
///     .expect("one tenant is a valid machine")
///     .run()
///     .into_solo();
/// assert_eq!(stats.mem.accesses, 10_000);
/// assert!(stats.mem.l1_hit_rate() > 0.99);
/// ```
pub struct MachineBuilder {
    config: MachineConfig,
    on_oom: OnOom,
    tenants: Vec<TenantSpec>,
}

impl MachineBuilder {
    /// Starts a builder from a machine configuration.
    pub fn new(config: MachineConfig) -> Self {
        MachineBuilder {
            config,
            on_oom: OnOom::FailFast,
            tenants: Vec::new(),
        }
    }

    /// Adds one tenant. Tenants get ASIDs in the order they are added.
    #[must_use]
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Adds several tenants at once.
    #[must_use]
    pub fn tenants(mut self, specs: impl IntoIterator<Item = TenantSpec>) -> Self {
        self.tenants.extend(specs);
        self
    }

    /// Selects the machine's shared-pool OOM policy (default
    /// [`OnOom::FailFast`]).
    #[must_use]
    pub fn on_oom(mut self, policy: OnOom) -> Self {
        self.on_oom = policy;
        self
    }

    /// Builds the machine: one shared OS over one buddy allocator, one
    /// MMU, and one address space (ASID) per tenant.
    ///
    /// # Errors
    ///
    /// Returns [`TpsError::InvalidSpec`] when no tenant was added.
    ///
    /// # Panics
    ///
    /// Panics if a [`TenantSpec::suite`] names an unknown benchmark.
    pub fn build(self) -> Result<Machine, TpsError> {
        if self.tenants.is_empty() {
            return Err(TpsError::invalid_spec(
                "a machine needs at least one tenant",
            ));
        }
        let buddy = self
            .config
            .initial_memory
            .clone()
            .unwrap_or_else(|| BuddyAllocator::new(self.config.memory_bytes));
        let mut os = Os::with_buddy(buddy, self.config.policy);
        os.set_background_noise(self.config.os_noise_period);
        if self.config.five_level_paging {
            os.set_page_table_levels(5);
        }
        os.set_fine_grained_ad(self.config.fine_grained_ad);
        let mut mmu = Mmu::new(&self.config);
        let mut tenants = Vec::with_capacity(self.tenants.len());
        for spec in self.tenants {
            let asid = os.spawn();
            mmu.open_ledger(asid);
            let workload: Box<dyn Workload> = match spec.source {
                WorkloadSource::Boxed(workload) => workload,
                WorkloadSource::Suite { name, scale, seed } => build_seeded(&name, scale, seed),
                WorkloadSource::External(profile) => Box::new(ExternalTenant(profile)),
            };
            let label = spec
                .label
                .unwrap_or_else(|| workload.profile().name.clone());
            tenants.push(Tenant {
                asid,
                label,
                workload,
                memory_cap: spec.memory_cap,
                mapped_bytes: 0,
                regions: BTreeMap::new(),
                counters: RunCounters::default(),
                events: 0,
                killed: None,
                final_stats: None,
            });
        }
        let live = (0..tenants.len()).collect();
        Ok(Machine {
            config: self.config,
            os,
            mmu,
            scheduler: TenantScheduler { cursor: 0 },
            on_oom: self.on_oom,
            tenants,
            live,
        })
    }
}

/// The empty event stream behind [`TenantSpec::external`].
struct ExternalTenant(WorkloadProfile);

impl Workload for ExternalTenant {
    fn profile(&self) -> WorkloadProfile {
        self.0.clone()
    }

    fn next_event(&mut self) -> Option<Event> {
        None
    }
}

/// One tenant's run-time state.
struct Tenant {
    asid: Asid,
    label: String,
    workload: Box<dyn Workload>,
    memory_cap: Option<u64>,
    mapped_bytes: u64,
    regions: BTreeMap<u32, (VirtAddr, u64)>,
    counters: RunCounters,
    /// Events executed so far (the 0-based index of the next event).
    events: u64,
    /// Set when the machine killed this tenant: the fault cause and the
    /// index of the event it was executing (for an OOM-killer victim, the
    /// number of events it had executed when it was chosen).
    killed: Option<(TenantFaultCause, u64)>,
    final_stats: Option<RunStats>,
}

/// One simulated machine: N tenant processes sharing the OS, the physical
/// memory pool and the core's translation hardware. Built with
/// [`MachineBuilder`]; two tenants model two SMT hardware threads on one
/// core.
pub struct Machine {
    config: MachineConfig,
    os: Os,
    mmu: Mmu,
    scheduler: TenantScheduler,
    on_oom: OnOom,
    tenants: Vec<Tenant>,
    /// Tenant slots whose event streams have not ended, in tenant order.
    live: Vec<usize>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("config", &self.config)
            .field("tenants", &self.tenants.len())
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The operating system (inspection).
    pub fn os(&self) -> &Os {
        &self.os
    }

    /// The MMU (inspection).
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// Number of tenants (retired ones included).
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// One tenant's label.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn tenant_label(&self, tenant: usize) -> &str {
        &self.tenants[tenant].label
    }

    /// One tenant's live counters, for custom drivers built on
    /// [`Machine::step`].
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn counters(&self, tenant: usize) -> &RunCounters {
        &self.tenants[tenant].counters
    }

    /// Installs (or removes) a fault injector on every instrumented layer
    /// of this machine: the OS fault sites (buddy alloc, reserve spans,
    /// compaction steps, shootdown delivery) plus the hardware-model sites
    /// (page walker, alias-PTE installs, MMU caches, TLBs). Each site
    /// degrades on a panic-free path; the run stays correct, only slower.
    pub fn set_fault_injector(&mut self, injector: Option<InjectorHandle>) {
        self.os.set_fault_injector(injector.clone());
        self.mmu.set_fault_injector(injector);
    }

    /// Runs the memory-compaction daemon and applies the resulting TLB
    /// shootdowns (paper §III-B3). Subsequent `mmap`s find the recovered
    /// contiguity. Machine-level work: charged to no tenant.
    ///
    /// # Errors
    ///
    /// Propagates [`tps_core::TpsError::SharedMapping`] while CoW sharing
    /// is live.
    pub fn compact(&mut self) -> Result<tps_mem::CompactionOutcome, tps_core::TpsError> {
        let (outcome, shootdowns) = self.os.compact()?;
        self.mmu.apply_shootdowns(&shootdowns);
        Ok(outcome)
    }

    /// Merges buddy-pair mappings of one tenant into larger pages (paper
    /// §III-B3). TLB entries need no shootdown (smaller entries stay
    /// correct), but the paging-structure caches are flushed: cross-level
    /// merges free page-table nodes. The OS work is charged to the tenant.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn merge_pages(&mut self, tenant: usize) -> u64 {
        let merges = self.os.merge_pages(self.tenants[tenant].asid);
        if merges > 0 {
            self.mmu.flush_structure_caches();
        }
        merges
    }

    /// Executes one event on behalf of `tenant`. Exposed for custom
    /// drivers; most callers use [`Machine::run`].
    ///
    /// # Errors
    ///
    /// Returns a [`TenantFault`] on workload errors: accessing or
    /// unmapping an unknown region, re-mapping a live region id, an
    /// out-of-bounds access offset, exceeding the tenant's memory cap,
    /// exhausting shared physical memory, or stepping a tenant that
    /// already retired (`tenant` out of range reports the same way). A
    /// faulting event leaves the tenant's regions untouched; whatever OS
    /// and hardware work the attempt did stays charged to the tenant. The
    /// machine itself never panics on a tenant-originated fault —
    /// [`Machine::run`] contains it by killing the tenant.
    pub fn step(&mut self, tenant: usize, event: Event) -> Result<(), TenantFault> {
        if tenant >= self.tenants.len() {
            return Err(TenantFault::new(
                TenantFaultCause::BadEvent,
                format!("tenant slot {tenant} does not exist"),
            ));
        }
        if self.tenants[tenant].final_stats.is_some() {
            return Err(TenantFault::new(
                TenantFaultCause::BadEvent,
                format!("tenant {tenant} already retired"),
            ));
        }
        let result = self.dispatch(tenant, event);
        if result.is_ok() {
            self.tenants[tenant].events += 1;
        }
        result
    }

    /// The event interpreter behind [`Machine::step`]: every workload
    /// error degrades into a [`TenantFault`] instead of a panic.
    fn dispatch(&mut self, tenant: usize, event: Event) -> Result<(), TenantFault> {
        match event {
            Event::Mmap { region, bytes } => {
                let t = &self.tenants[tenant];
                if t.regions.contains_key(&region) {
                    return Err(TenantFault::new(
                        TenantFaultCause::BadEvent,
                        format!("mmap of already-mapped region {region}"),
                    ));
                }
                if let Some(cap) = t.memory_cap {
                    if t.mapped_bytes.saturating_add(bytes) > cap {
                        return Err(TenantFault::new(
                            TenantFaultCause::CapExceeded,
                            format!(
                                "mapping {bytes} more bytes over {} already mapped exceeds \
                                 the {cap}-byte memory share",
                                t.mapped_bytes
                            ),
                        ));
                    }
                }
                let asid = t.asid;
                let vma = self.os.mmap(asid, bytes).map_err(|e| match e {
                    TpsError::OutOfMemory { .. } => TenantFault::new(
                        TenantFaultCause::Oom,
                        format!("shared pool cannot back a {bytes}-byte mapping: {e}"),
                    ),
                    other => TenantFault::new(
                        TenantFaultCause::BadEvent,
                        format!("mmap of {bytes} bytes rejected: {other}"),
                    ),
                })?;
                let t = &mut self.tenants[tenant];
                t.regions.insert(region, (vma.base(), bytes));
                t.mapped_bytes += bytes;
                Ok(())
            }
            Event::Munmap { region } => {
                let t = &self.tenants[tenant];
                let Some(&(base, bytes)) = t.regions.get(&region) else {
                    return Err(TenantFault::new(
                        TenantFaultCause::UnknownRegion,
                        format!("munmap of unknown region {region}"),
                    ));
                };
                let asid = t.asid;
                let shootdowns = self.os.munmap(asid, base).map_err(|e| {
                    TenantFault::new(
                        TenantFaultCause::BadEvent,
                        format!("munmap of region {region} rejected: {e}"),
                    )
                })?;
                self.mmu.apply_shootdowns(&shootdowns);
                let t = &mut self.tenants[tenant];
                t.regions.remove(&region);
                t.mapped_bytes -= bytes;
                Ok(())
            }
            Event::Access {
                region,
                offset,
                write,
            } => {
                let t = &self.tenants[tenant];
                let Some(&(base, bytes)) = t.regions.get(&region) else {
                    return Err(TenantFault::new(
                        TenantFaultCause::UnknownRegion,
                        format!("access to unknown region {region}"),
                    ));
                };
                if offset >= bytes {
                    return Err(TenantFault::new(
                        TenantFaultCause::BadEvent,
                        format!(
                            "access at offset {offset:#x} beyond the {bytes}-byte region {region}"
                        ),
                    ));
                }
                let asid = t.asid;
                let va = VirtAddr::new(base.value() + offset);
                let outcome =
                    self.mmu
                        .access(&mut self.os, asid, va, write)
                        .map_err(|e| match e {
                            TpsError::OutOfMemory { .. } => TenantFault::new(
                                TenantFaultCause::Oom,
                                format!("shared pool cannot back the demand fault at {va}: {e}"),
                            ),
                            other => TenantFault::new(
                                TenantFaultCause::BadEvent,
                                format!("access at {va} rejected: {other}"),
                            ),
                        })?;
                self.tenants[tenant]
                    .counters
                    .record(outcome.level, &outcome);
                Ok(())
            }
            Event::Compute { insts } => {
                self.tenants[tenant].counters.compute(insts);
                Ok(())
            }
            Event::StatsBarrier => {
                self.tenants[tenant].counters.barrier();
                Ok(())
            }
        }
    }

    /// Kills one tenant exactly as [`Machine::run`]'s containment path
    /// does: statistics frozen at the current point, ASID flushed from
    /// the shared TLBs, regions returned to the shared buddy with real
    /// shootdowns, the reclaim work attributed to the victim. For custom
    /// drivers built on [`Machine::step`] that implement their own fault
    /// policy; a slot that is out of range or already finalized is
    /// ignored.
    pub fn kill_tenant(&mut self, tenant: usize, cause: TenantFaultCause) {
        if tenant >= self.tenants.len() || self.tenants[tenant].final_stats.is_some() {
            return;
        }
        self.kill(tenant, cause);
    }

    /// Runs every tenant's event stream to completion under the
    /// scheduler, returning per-tenant statistics, per-tenant
    /// [`TenantOutcome`]s and the machine-wide rollup. Tenants that
    /// already retired (or were added as [`TenantSpec::external`] and
    /// fully stepped) are finalized as-is.
    ///
    /// A [`TenantFault`] never propagates out of `run`: the faulting
    /// tenant (or, for an OOM under [`OnOom::KillVictim`], the largest
    /// tenant) is killed — its statistics frozen at the fault point, its
    /// ASID flushed, its regions returned to the shared pool with real
    /// shootdowns, the reclaim work attributed to the victim — and the
    /// survivors run on deterministically.
    pub fn run(&mut self) -> MachineRunStats {
        while !self.live.is_empty() {
            let pick = self.scheduler.next_tenant(self.live.len());
            let slot = self.live[pick];
            match self.tenants[slot].workload.next_event() {
                Some(event) => self.execute_contained(slot, event),
                None => {
                    self.live.remove(pick);
                    self.scheduler.tenant_retired(pick);
                    let stats = self.retire(slot);
                    self.tenants[slot].final_stats = Some(stats);
                }
            }
        }
        // Every slot left the live list retired or killed, with its
        // final_stats frozen; freeze any straggler defensively
        // so collection stays total.
        for slot in 0..self.tenants.len() {
            if self.tenants[slot].final_stats.is_none() {
                let stats = self.freeze(slot);
                self.tenants[slot].final_stats = Some(stats);
            }
        }
        let per_tenant: Vec<RunStats> = self
            .tenants
            .iter()
            .filter_map(|t| t.final_stats.clone())
            .collect();
        let outcomes = self
            .tenants
            .iter()
            .map(|t| match t.killed {
                Some((cause, at_event)) => TenantOutcome::Killed { cause, at_event },
                None => TenantOutcome::Completed,
            })
            .collect();
        let global = rollup(&per_tenant, self.os.stats());
        MachineRunStats {
            global,
            per_tenant,
            outcomes,
        }
    }

    /// Executes one scheduled event under fault containment: a fault
    /// kills a tenant (per [`OnOom`]) instead of propagating.
    fn execute_contained(&mut self, slot: usize, event: Event) {
        let mut pending = Some(event);
        while let Some(event) = pending.take() {
            let Err(fault) = self.step(slot, event) else {
                return;
            };
            match (fault.cause(), self.on_oom) {
                (TenantFaultCause::Oom, OnOom::KillVictim) => {
                    let victim = self.select_victim();
                    self.kill(victim, TenantFaultCause::Oom);
                    if victim != slot {
                        // The faulter survives; retry its event against
                        // the memory the victim's death just freed.
                        pending = Some(event);
                    }
                }
                _ => self.kill(slot, fault.cause()),
            }
        }
    }

    /// The OOM killer's deterministic victim: the live tenant with the
    /// most mapped bytes, lowest slot on a tie.
    fn select_victim(&self) -> usize {
        let mut victim = self.live[0];
        for &slot in &self.live {
            if self.tenants[slot].mapped_bytes > self.tenants[victim].mapped_bytes {
                victim = slot;
            }
        }
        victim
    }

    /// Kills one live tenant: freezes its statistics at the fault point,
    /// unmaps its regions back into the shared buddy with real
    /// shootdowns (attributing the reclaim work to the victim), and
    /// flushes its ASID from the shared TLBs. The survivors keep
    /// running.
    fn kill(&mut self, slot: usize, cause: TenantFaultCause) {
        if let Some(pos) = self.live.iter().position(|&s| s == slot) {
            self.live.remove(pos);
            self.scheduler.tenant_retired(pos);
        }
        let at_event = self.tenants[slot].events;
        let stats = self.retire(slot);
        // The reclaim munmaps run under the victim's ASID, so the OS
        // charges them to its account, which is read again once they are
        // done.
        let asid = self.tenants[slot].asid;
        let regions = std::mem::take(&mut self.tenants[slot].regions);
        for (base, _) in regions.into_values() {
            // A region recorded here is mapped by construction; if the OS
            // disagrees the munmap is skipped rather than panicking
            // mid-reclaim.
            if let Ok(shootdowns) = self.os.munmap(asid, base) {
                self.mmu.apply_shootdowns(&shootdowns);
            }
        }
        self.tenants[slot].mapped_bytes = 0;
        self.tenants[slot].killed = Some((cause, at_event));
        self.tenants[slot].final_stats = Some(RunStats {
            os: self.os.process(asid).stats(),
            ..stats
        });
    }

    /// Retires a tenant whose event stream ended (and is the first step of
    /// a kill): freezes its statistics as of the exit point, then flushes
    /// its ASID from the shared TLBs (its dead translations stop
    /// occupying capacity the survivors could use). Its regions stay
    /// mapped, so final footprints remain inspectable after the run.
    fn retire(&mut self, slot: usize) -> RunStats {
        let stats = self.freeze(slot);
        self.mmu.retire_asid(self.tenants[slot].asid);
        stats
    }

    /// Builds one tenant's final [`RunStats`] from its own counters, its
    /// process's OS account and its ASID's hardware ledger.
    fn freeze(&self, slot: usize) -> RunStats {
        let t = &self.tenants[slot];
        let profile = t.workload.profile();
        let insts = |c: &ThreadCounters| {
            (c.accesses as f64 * profile.insts_per_access) as u64 + c.extra_insts
        };
        let process = self.os.process(t.asid);
        let ledger = self.mmu.ledger(t.asid);
        let hw_faults = HwFaultStats {
            alias_install_retries: process.page_table().alias_install_retries(),
            ..ledger.faults
        };
        RunStats {
            name: profile.name.clone(),
            instructions: insts(&t.counters.measured),
            full_instructions: insts(&t.counters.full),
            profile,
            mem: t.counters.measured.mem,
            walks: t.counters.measured.walks,
            walk_refs: t.counters.measured.walk_refs,
            alias_extras: t.counters.measured.alias_extras,
            ad_updates: t.counters.measured.ad_updates,
            full_mem: t.counters.full.mem,
            full_walk_refs: t.counters.full.walk_refs,
            os: process.stats(),
            page_census: process.page_table().page_census(),
            resident_bytes: process.resident_bytes(),
            touched_bytes: process.touched_bytes(),
            mmu_cache_hits: ledger.mmu_cache_hits,
            hw_faults,
        }
    }
}

/// The machine-wide rollup: counter sums across tenants, with `os` the
/// machine's OS total (tenants plus the work done for no tenant, such as
/// compaction). For a single tenant this is exactly what the old solo
/// driver reported.
pub(crate) fn rollup(per_tenant: &[RunStats], os: OsStats) -> RunStats {
    if let [solo] = per_tenant {
        return RunStats { os, ..solo.clone() };
    }
    let sum = |field: fn(&RunStats) -> u64| per_tenant.iter().map(field).sum::<u64>();
    let mut mem = TlbStats::default();
    let mut full_mem = TlbStats::default();
    let mut hw_faults = HwFaultStats::default();
    let mut page_census = BTreeMap::new();
    for s in per_tenant {
        mem.accumulate(&s.mem);
        full_mem.accumulate(&s.full_mem);
        hw_faults.accumulate(&s.hw_faults);
        for (order, count) in &s.page_census {
            *page_census.entry(*order).or_insert(0) += count;
        }
    }
    let name = if per_tenant.iter().all(|s| s.name == per_tenant[0].name) {
        per_tenant[0].name.clone()
    } else {
        "mixed".to_string()
    };
    RunStats {
        name: name.clone(),
        profile: weighted_profile(name, per_tenant),
        mem,
        walks: sum(|s| s.walks),
        walk_refs: sum(|s| s.walk_refs),
        alias_extras: sum(|s| s.alias_extras),
        ad_updates: sum(|s| s.ad_updates),
        os,
        instructions: sum(|s| s.instructions),
        full_instructions: sum(|s| s.full_instructions),
        full_mem,
        full_walk_refs: sum(|s| s.full_walk_refs),
        page_census,
        resident_bytes: sum(|s| s.resident_bytes),
        touched_bytes: sum(|s| s.touched_bytes),
        mmu_cache_hits: (
            sum(|s| s.mmu_cache_hits.0),
            sum(|s| s.mmu_cache_hits.1),
            sum(|s| s.mmu_cache_hits.2),
        ),
        hw_faults,
    }
}

/// Access-weighted mean of the tenants' timing profiles, so the global
/// rollup remains evaluable by [`crate::TimingModel`]. Weights are
/// full-run accesses; all-idle tenants fall back to an unweighted mean.
/// The fold runs in tenant order, so the result is deterministic.
fn weighted_profile(name: String, per_tenant: &[RunStats]) -> WorkloadProfile {
    let weight = |s: &RunStats| s.full_mem.accesses as f64;
    let mut total: f64 = per_tenant.iter().map(weight).sum();
    let uniform = total == 0.0;
    if uniform {
        total = per_tenant.len() as f64;
    }
    let mean = |field: fn(&WorkloadProfile) -> f64| {
        per_tenant
            .iter()
            .map(|s| field(&s.profile) * if uniform { 1.0 } else { weight(s) })
            .sum::<f64>()
            / total
    };
    WorkloadProfile {
        name,
        base_cpi: mean(|p| p.base_cpi),
        insts_per_access: mean(|p| p.insts_per_access),
        l1_miss_criticality: mean(|p| p.l1_miss_criticality),
        walk_savable: mean(|p| p.walk_savable),
        smt_slowdown: mean(|p| p.smt_slowdown),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mechanism;
    use tps_core::rng::SplitMix64;
    use tps_core::BASE_PAGE_SIZE;
    use tps_wl::{Gups, GupsParams, Initialized};

    fn gups(updates: u64) -> Initialized<Gups> {
        Initialized::new(Gups::new(GupsParams {
            table_bytes: 8 << 20,
            updates,
            seed: 3,
        }))
    }

    /// GUPS over a table far beyond the 2M L1 TLB's 64 MB reach, so the
    /// baseline keeps missing after full THP promotion.
    fn gups_big(updates: u64) -> Initialized<Gups> {
        Initialized::new(Gups::new(GupsParams {
            table_bytes: 256 << 20,
            updates,
            seed: 3,
        }))
    }

    fn solo(mechanism: Mechanism, memory: u64, workload: impl Workload + 'static) -> RunStats {
        MachineBuilder::new(
            MachineConfig::for_mechanism(mechanism)
                .with_memory(memory)
                .with_verification(),
        )
        .tenant(TenantSpec::workload(workload))
        .build()
        .expect("one tenant is a valid machine")
        .run()
        .into_solo()
    }

    fn machine(mechanism: Mechanism) -> Machine {
        MachineBuilder::new(
            MachineConfig::for_mechanism(mechanism)
                .with_memory(128 << 20)
                .with_verification(),
        )
        .tenant(TenantSpec::external("driver"))
        .build()
        .expect("one tenant is a valid machine")
    }

    #[test]
    fn runs_gups_under_every_mechanism() {
        for mech in [
            Mechanism::Thp,
            Mechanism::Colt,
            Mechanism::Rmm,
            Mechanism::Tps,
            Mechanism::TpsEager,
            Mechanism::Only4K,
            Mechanism::Only2M,
        ] {
            let stats = solo(mech, 128 << 20, gups(5_000));
            // Measured region: the 5000 updates. Full run adds the 2048
            // init touches.
            assert_eq!(stats.mem.accesses, 5_000, "{mech}");
            assert_eq!(stats.full_mem.accesses, 2048 + 5_000, "{mech}");
            assert!(stats.full_instructions > stats.instructions, "{mech}");
            assert!(stats.resident_bytes >= 8 << 20, "{mech}");
        }
    }

    #[test]
    fn tps_beats_thp_on_l1_misses() {
        let thp = solo(Mechanism::Thp, 512 << 20, gups_big(20_000));
        let tps = solo(Mechanism::Tps, 512 << 20, gups_big(20_000));
        assert!(
            tps.mem.l1_misses() < thp.mem.l1_misses() / 4,
            "tps {} vs thp {}",
            tps.mem.l1_misses(),
            thp.mem.l1_misses()
        );
        // The 256 MB table collapses into very few tailored pages.
        assert!(tps.page_census.len() <= 3, "census {:?}", tps.page_census);
    }

    #[test]
    fn rmm_eliminates_walks_not_l1_misses() {
        let thp = solo(Mechanism::Thp, 512 << 20, gups_big(20_000));
        let rmm = solo(Mechanism::Rmm, 512 << 20, gups_big(20_000));
        // Range TLB: essentially no walks even counting initialization.
        assert!(
            rmm.full_walk_refs < thp.full_walk_refs / 4,
            "rmm {} vs thp {}",
            rmm.full_walk_refs,
            thp.full_walk_refs
        );
        // But the L1 sees no relief (range hits fill 4K entries).
        assert!(rmm.mem.l1_misses() * 2 > thp.mem.l1_misses());
    }

    #[test]
    fn perfect_l1_has_no_misses() {
        let mut config = MachineConfig::for_mechanism(Mechanism::Thp).with_memory(64 << 20);
        config.perfect_l1 = true;
        let stats = MachineBuilder::new(config)
            .tenant(TenantSpec::workload(gups(5_000)))
            .build()
            .unwrap()
            .run()
            .into_solo();
        assert_eq!(stats.mem.l1_misses(), 0);
        assert_eq!(stats.walk_refs, 0);
    }

    #[test]
    fn perfect_l2_walks_never() {
        let mut config = MachineConfig::for_mechanism(Mechanism::Thp).with_memory(64 << 20);
        config.perfect_l2 = true;
        let stats = MachineBuilder::new(config)
            .tenant(TenantSpec::workload(gups(5_000)))
            .build()
            .unwrap()
            .run()
            .into_solo();
        assert_eq!(stats.walks, 0);
        assert_eq!(stats.full_walk_refs, 0);
        assert!(
            stats.full_mem.l1_misses() > 0,
            "L1 still misses (compulsory)"
        );
        assert_eq!(stats.full_mem.l1_misses(), stats.full_mem.stlb_hits);
    }

    #[test]
    fn virtualized_walks_are_amplified() {
        let native = solo(Mechanism::Thp, 128 << 20, gups(10_000));
        let mut config = MachineConfig::for_mechanism(Mechanism::Thp).with_memory(128 << 20);
        config.virtualized = true;
        config.verify_translations = true;
        let virt = MachineBuilder::new(config)
            .tenant(TenantSpec::workload(gups(10_000)))
            .build()
            .unwrap()
            .run()
            .into_solo();
        assert!(
            virt.full_walk_refs > native.full_walk_refs * 2,
            "2D walks amplify: {} vs {}",
            virt.full_walk_refs,
            native.full_walk_refs
        );
        assert_eq!(virt.full_mem.l1_misses(), native.full_mem.l1_misses());
    }

    #[test]
    fn munmap_shoots_down_tlbs() {
        struct MapUnmapMap {
            step: u32,
        }
        impl Workload for MapUnmapMap {
            fn profile(&self) -> WorkloadProfile {
                WorkloadProfile::named("map-unmap")
            }
            fn next_event(&mut self) -> Option<Event> {
                self.step += 1;
                match self.step {
                    1 => Some(Event::Mmap {
                        region: 0,
                        bytes: 64 << 10,
                    }),
                    2..=17 => Some(Event::Access {
                        region: 0,
                        offset: ((self.step - 2) as u64) * BASE_PAGE_SIZE,
                        write: true,
                    }),
                    18 => Some(Event::Munmap { region: 0 }),
                    19 => Some(Event::Mmap {
                        region: 1,
                        bytes: 64 << 10,
                    }),
                    20..=35 => Some(Event::Access {
                        region: 1,
                        offset: ((self.step - 20) as u64) * BASE_PAGE_SIZE,
                        write: true,
                    }),
                    _ => None,
                }
            }
        }
        let stats = solo(Mechanism::Tps, 128 << 20, MapUnmapMap { step: 0 });
        assert_eq!(stats.mem.accesses, 32);
        assert!(stats.os.shootdowns > 0);
        // All memory from region 0 was freed and reused safely (verified
        // translations prove no stale TLB entry survived).
    }

    #[test]
    fn census_and_footprint_reported() {
        let stats = solo(Mechanism::Tps, 128 << 20, gups(5_000));
        let total_pages: u64 = stats.page_census.values().sum();
        assert!(total_pages >= 1);
        assert_eq!(stats.touched_bytes, 8 << 20, "init sweep touched the table");
    }

    #[test]
    fn step_driven_machine_matches_counters() {
        let mut m = machine(Mechanism::Tps);
        m.step(
            0,
            Event::Mmap {
                region: 9,
                bytes: 1 << 20,
            },
        )
        .unwrap();
        for i in 0..256u64 {
            m.step(
                0,
                Event::Access {
                    region: 9,
                    offset: i * BASE_PAGE_SIZE,
                    write: true,
                },
            )
            .unwrap();
        }
        assert_eq!(m.counters(0).full.accesses, 256);
        let census = m.os().process(0).page_table().page_census();
        assert_eq!(census.len(), 1);
    }

    #[test]
    fn per_tenant_stats_sum_to_global() {
        let config = MachineConfig::for_mechanism(Mechanism::Tps)
            .with_memory(256 << 20)
            .with_verification();
        let stats = MachineBuilder::new(config)
            .tenant(TenantSpec::workload(gups(2_000)))
            .tenant(TenantSpec::workload(gups(3_000)))
            .tenant(TenantSpec::workload(gups(1_000)))
            .build()
            .unwrap()
            .run();
        assert_eq!(stats.per_tenant.len(), 3);
        let per_sum: u64 = stats.per_tenant.iter().map(|s| s.mem.accesses).sum();
        assert_eq!(stats.global.mem.accesses, per_sum);
        assert_eq!(stats.tenant(0).mem.accesses, 2_000);
        assert_eq!(stats.tenant(1).mem.accesses, 3_000);
        assert_eq!(stats.tenant(2).mem.accesses, 1_000);
        // Attributed OS work adds up to the machine-wide totals: every
        // event belongs to exactly one tenant.
        let fault_sum: u64 = stats.per_tenant.iter().map(|s| s.os.faults).sum();
        assert_eq!(stats.global.os.faults, fault_sum);
        let cycle_sum: u64 = stats.per_tenant.iter().map(|s| s.os.op_cycles).sum();
        assert_eq!(stats.global.os.op_cycles, cycle_sum);
    }

    #[test]
    fn round_robin_runs_are_deterministic() {
        let run = || {
            let config = MachineConfig::for_mechanism(Mechanism::Tps)
                .with_memory(256 << 20)
                .with_verification();
            MachineBuilder::new(config)
                .tenant(TenantSpec::workload(gups(2_000)))
                .tenant(TenantSpec::workload(gups(2_000)))
                .build()
                .unwrap()
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.global.mem, b.global.mem);
        assert_eq!(a.global.page_census, b.global.page_census);
        for (x, y) in a.per_tenant.iter().zip(&b.per_tenant) {
            assert_eq!(x.mem, y.mem);
        }
    }

    #[test]
    fn memory_cap_overrun_faults_without_panicking() {
        let config = MachineConfig::for_mechanism(Mechanism::Tps).with_memory(64 << 20);
        let mut m = MachineBuilder::new(config)
            .tenant(TenantSpec::external("greedy").memory_cap(1 << 20))
            .build()
            .unwrap();
        m.step(
            0,
            Event::Mmap {
                region: 0,
                bytes: 512 << 10,
            },
        )
        .unwrap();
        let fault = m
            .step(
                0,
                Event::Mmap {
                    region: 1,
                    bytes: 1 << 20,
                },
            )
            .unwrap_err();
        assert_eq!(fault.cause(), TenantFaultCause::CapExceeded);
        // The failed mmap changed nothing: the tenant still holds exactly
        // its first region and can keep executing within its share.
        m.step(
            0,
            Event::Access {
                region: 0,
                offset: 0,
                write: true,
            },
        )
        .unwrap();
        assert_eq!(m.counters(0).full.accesses, 1);
    }

    #[test]
    fn malformed_events_fault_with_structured_causes() {
        let mut m = machine(Mechanism::Tps);
        let step_err = |m: &mut Machine, e| m.step(0, e).unwrap_err().cause();
        assert_eq!(
            step_err(&mut m, Event::Munmap { region: 7 }),
            TenantFaultCause::UnknownRegion
        );
        assert_eq!(
            step_err(
                &mut m,
                Event::Access {
                    region: 7,
                    offset: 0,
                    write: false,
                }
            ),
            TenantFaultCause::UnknownRegion
        );
        m.step(
            0,
            Event::Mmap {
                region: 7,
                bytes: 64 << 10,
            },
        )
        .unwrap();
        assert_eq!(
            step_err(
                &mut m,
                Event::Mmap {
                    region: 7,
                    bytes: 64 << 10,
                }
            ),
            TenantFaultCause::BadEvent
        );
        assert_eq!(
            step_err(
                &mut m,
                Event::Access {
                    region: 7,
                    offset: 64 << 10,
                    write: false,
                }
            ),
            TenantFaultCause::BadEvent
        );
        // Out-of-range and retired-tenant steps degrade the same way.
        assert!(m.step(99, Event::StatsBarrier).is_err());
        let stats = m.run();
        assert_eq!(stats.outcomes, vec![TenantOutcome::Completed]);
        assert!(m.step(0, Event::StatsBarrier).is_err(), "already retired");
    }

    /// A workload that maps `chunk`-byte regions forever without ever
    /// unmapping — guaranteed to hit a cap or exhaust the pool.
    struct Hog {
        chunk: u64,
        touches: u32,
        step: u64,
    }

    impl Workload for Hog {
        fn profile(&self) -> WorkloadProfile {
            WorkloadProfile::named("hog")
        }

        fn next_event(&mut self) -> Option<Event> {
            let step = self.step;
            self.step += 1;
            let period = u64::from(self.touches) + 1;
            let chunk_no = step / period;
            Some(match step % period {
                0 => Event::Mmap {
                    region: chunk_no as u32,
                    bytes: self.chunk,
                },
                i => Event::Access {
                    region: chunk_no as u32,
                    offset: (i - 1) * BASE_PAGE_SIZE,
                    write: true,
                },
            })
        }
    }

    #[test]
    fn run_contains_a_cap_overrun_and_survivors_complete() {
        let config = MachineConfig::for_mechanism(Mechanism::Tps)
            .with_memory(128 << 20)
            .with_verification();
        let stats = MachineBuilder::new(config)
            .tenant(
                TenantSpec::workload(Hog {
                    chunk: 1 << 20,
                    touches: 4,
                    step: 0,
                })
                .named("noisy")
                .memory_cap(4 << 20),
            )
            .tenant(TenantSpec::workload(gups(2_000)))
            .build()
            .unwrap()
            .run();
        let TenantOutcome::Killed { cause, at_event } = stats.outcomes[0] else {
            panic!("the hog must be killed, got {:?}", stats.outcomes[0]);
        };
        assert_eq!(cause, TenantFaultCause::CapExceeded);
        assert!(at_event > 0, "the hog executed events before its kill");
        assert_eq!(stats.outcomes[1], TenantOutcome::Completed);
        assert_eq!(stats.tenant(1).mem.accesses, 2_000, "survivor unharmed");
        assert_eq!(stats.killed_count(), 1);
        // The victim's memory went back to the shared pool.
        assert!(stats.tenant(0).resident_bytes > 0, "frozen at fault point");
        assert_eq!(stats.tenant(0).os.munmaps, 4, "reclaim charged to victim");
    }

    #[test]
    fn oom_fail_fast_kills_the_faulter_and_kill_victim_kills_the_largest() {
        let hog = || {
            TenantSpec::workload(Hog {
                chunk: 2 << 20,
                touches: 2,
                step: 0,
            })
        };
        let small = || TenantSpec::workload(gups(300));
        let run = |policy| {
            let config = MachineConfig::for_mechanism(Mechanism::TpsEager)
                .with_memory(32 << 20)
                .with_verification();
            MachineBuilder::new(config)
                .tenant(small())
                .tenant(hog())
                .on_oom(policy)
                .build()
                .unwrap()
                .run()
        };
        // Fail-fast: whoever's mmap fails dies — here the hog, whose
        // endless mapping is what exhausts the pool.
        let ff = run(OnOom::FailFast);
        assert!(ff.killed_count() >= 1, "someone must die");
        // Kill-victim: the hog is always the largest mapper, so the gups
        // tenant survives to completion.
        let kv = run(OnOom::KillVictim);
        let TenantOutcome::Killed { cause, .. } = kv.outcomes[1] else {
            panic!("the hog must be the OOM victim, got {:?}", kv.outcomes[1]);
        };
        assert_eq!(cause, TenantFaultCause::Oom);
        assert_eq!(kv.outcomes[0], TenantOutcome::Completed);
        assert_eq!(kv.tenant(0).mem.accesses, 300);
    }

    #[test]
    fn kill_sequences_are_deterministic() {
        let run = || {
            let config = MachineConfig::for_mechanism(Mechanism::TpsEager)
                .with_memory(24 << 20)
                .with_verification();
            MachineBuilder::new(config)
                .tenant(TenantSpec::workload(gups(500)))
                .tenant(TenantSpec::workload(Hog {
                    chunk: 2 << 20,
                    touches: 2,
                    step: 0,
                }))
                .tenant(TenantSpec::workload(gups(700)))
                .on_oom(OnOom::KillVictim)
                .build()
                .unwrap()
                .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.outcomes, b.outcomes);
        assert!(a.killed_count() >= 1);
        for (x, y) in a.per_tenant.iter().zip(&b.per_tenant) {
            assert_eq!(x.mem, y.mem);
            assert_eq!(x.os, y.os);
        }
    }

    #[test]
    fn per_tenant_os_work_sums_to_machine_totals_with_kills() {
        let config = MachineConfig::for_mechanism(Mechanism::Tps)
            .with_memory(128 << 20)
            .with_verification();
        let mut m = MachineBuilder::new(config)
            .tenant(TenantSpec::workload(gups(1_000)))
            .tenant(
                TenantSpec::workload(Hog {
                    chunk: 1 << 20,
                    touches: 4,
                    step: 0,
                })
                .memory_cap(3 << 20),
            )
            .tenant(TenantSpec::workload(gups(2_000)))
            .build()
            .unwrap();
        let stats = m.run();
        assert_eq!(stats.killed_count(), 1);
        // Every OS counter — including the munmaps and shootdowns of the
        // kill's reclaim — is attributed to exactly one tenant.
        let machine_wide = m.os().stats();
        let sum = |f: fn(&OsStats) -> u64| stats.per_tenant.iter().map(|s| f(&s.os)).sum::<u64>();
        assert_eq!(sum(|o| o.mmaps), machine_wide.mmaps);
        assert_eq!(sum(|o| o.munmaps), machine_wide.munmaps);
        assert_eq!(sum(|o| o.faults), machine_wide.faults);
        assert_eq!(sum(|o| o.shootdowns), machine_wide.shootdowns);
        assert_eq!(sum(|o| o.op_cycles), machine_wide.op_cycles);
        assert_eq!(stats.global.os.munmaps, machine_wide.munmaps);
        assert!(stats.tenant(1).os.munmaps > 0, "the kill reclaimed");
        // Reclaim really happened: the victim holds no memory after the
        // run, while the retired survivors keep theirs.
        assert_eq!(m.os().process(1).resident_bytes(), 0);
        assert!(m.os().process(0).resident_bytes() > 0);
    }

    #[test]
    fn retired_tenants_keep_their_footprint_inspectable() {
        let config = MachineConfig::for_mechanism(Mechanism::Tps).with_memory(128 << 20);
        let mut m = MachineBuilder::new(config)
            .tenant(TenantSpec::workload(gups(500)))
            .build()
            .unwrap();
        let stats = m.run().into_solo();
        // Stats were frozen at exit with the table resident, and the exit
        // left it mapped.
        assert!(stats.resident_bytes >= 8 << 20);
        assert_eq!(m.os().process(0).resident_bytes(), stats.resident_bytes);
    }

    /// GUPS for the SMT tests: each thread's table exceeds the 2M L1 TLB
    /// reach on its own, so sharing the structures is visible in the miss
    /// counts.
    fn smt_gups(seed: u64) -> Initialized<Gups> {
        Initialized::new(Gups::new(GupsParams {
            table_bytes: 128 << 20,
            updates: 20_000,
            seed,
        }))
    }

    /// Two SMT hardware threads: two tenants sharing one core's TLBs, MMU
    /// caches and memory, alternating round-robin.
    fn smt(mechanism: Mechanism, primary: u64, sibling: u64) -> MachineRunStats {
        MachineBuilder::new(
            MachineConfig::for_mechanism(mechanism)
                .with_memory(512 << 20)
                .with_verification(),
        )
        .tenant(TenantSpec::workload(smt_gups(primary)))
        .tenant(TenantSpec::workload(smt_gups(sibling)))
        .build()
        .expect("two tenants form a valid machine")
        .run()
    }

    #[test]
    fn smt_interference_increases_misses() {
        let solo = solo(Mechanism::Thp, 512 << 20, smt_gups(1));
        let smt = smt(Mechanism::Thp, 1, 2);
        assert_eq!(smt.tenant(0).mem.accesses, solo.mem.accesses);
        assert!(
            smt.tenant(0).mem.l1_misses() > solo.mem.l1_misses(),
            "sharing the TLB must hurt: smt {} vs solo {}",
            smt.tenant(0).mem.l1_misses(),
            solo.mem.l1_misses()
        );
    }

    #[test]
    fn smt_threads_translate_correctly_in_isolation() {
        // verify_translations is on: any ASID mix-up would assert inside.
        let stats = smt(Mechanism::Tps, 3, 4);
        assert_eq!(stats.tenant(0).mem.accesses, stats.tenant(1).mem.accesses);
        assert!(stats.tenant(0).mem.l1_hit_rate() > 0.9);
    }

    #[test]
    fn tps_suffers_less_under_smt_than_thp() {
        let thp = smt(Mechanism::Thp, 5, 6);
        let tps = smt(Mechanism::Tps, 5, 6);
        assert!(
            tps.tenant(0).mem.l1_misses() < thp.tenant(0).mem.l1_misses(),
            "tps {} vs thp {}",
            tps.tenant(0).mem.l1_misses(),
            thp.tenant(0).mem.l1_misses()
        );
    }

    #[test]
    fn smt_os_work_is_attributed_not_duplicated() {
        let stats = smt(Mechanism::Tps, 7, 8);
        let (primary, sibling) = (stats.tenant(0), stats.tenant(1));
        // Symmetric workloads: each thread owns roughly half the faults,
        // and neither sees the machine-wide total (the old double-count).
        let total = primary.os.faults + sibling.os.faults;
        assert!(primary.os.faults > 0);
        assert!(sibling.os.faults > 0);
        assert!(primary.os.faults < total);
    }

    #[test]
    fn builder_rejects_zero_tenants() {
        let config = MachineConfig::for_mechanism(Mechanism::Tps).with_memory(64 << 20);
        assert!(MachineBuilder::new(config).build().is_err());
    }

    #[test]
    fn thousand_tenant_machine_completes_and_attributes_all_work() {
        let config = MachineConfig::for_mechanism(Mechanism::Tps).with_memory(2 << 30);
        let stats = MachineBuilder::new(config)
            .tenants((0..1000).map(|i| {
                TenantSpec::workload(Gups::new(GupsParams {
                    table_bytes: 128 << 10,
                    updates: 40,
                    seed: 0x5eed + i,
                }))
            }))
            .build()
            .unwrap()
            .run();
        assert_eq!(stats.per_tenant.len(), 1000);
        for (slot, t) in stats.per_tenant.iter().enumerate() {
            assert!(t.mem.accesses > 0, "tenant {slot} did no work");
        }
        let sum: u64 = stats.per_tenant.iter().map(|t| t.mem.accesses).sum();
        assert_eq!(sum, stats.global.mem.accesses);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        /// Tenant A's translations must never resolve through tenant B's
        /// TLB entries, even while interleaved munmaps fire ASID-targeted
        /// shootdowns through the shared hierarchy. Verification mode
        /// cross-checks every TLB-provided translation against the acting
        /// tenant's own page table, so one translation served from the
        /// other address space's entry panics the machine.
        #[test]
        fn tenants_never_resolve_through_each_others_tlb_entries(
            seed in 0u64..1 << 20,
            script in proptest::collection::vec((0usize..2usize, 0u8..8u8), 40..160),
        ) {
            let config = MachineConfig::for_mechanism(Mechanism::Tps)
                .with_memory(256 << 20)
                .with_verification();
            let mut m = MachineBuilder::new(config)
                .tenant(TenantSpec::external("a"))
                .tenant(TenantSpec::external("b"))
                .build()
                .unwrap();
            let mut rng = SplitMix64::new(seed);
            let mut live: [Vec<(u32, u64)>; 2] = [Vec::new(), Vec::new()];
            let mut next_region = [0u32; 2];
            for (tenant, op) in script {
                match op {
                    // Map a fresh region (64 KB .. 2 MB).
                    0 | 1 if live[tenant].len() < 6 => {
                        let bytes = (64 << 10) + rng.next_u64() % (2 << 20);
                        let region = next_region[tenant];
                        next_region[tenant] += 1;
                        live[tenant].push((region, bytes));
                        m.step(tenant, Event::Mmap { region, bytes }).unwrap();
                    }
                    // Unmap: shoots this ASID down in the shared TLBs.
                    2 if !live[tenant].is_empty() => {
                        let i = (rng.next_u64() % live[tenant].len() as u64) as usize;
                        let (region, _) = live[tenant].swap_remove(i);
                        m.step(tenant, Event::Munmap { region }).unwrap();
                    }
                    // Access a live region; verification asserts the
                    // translation came from this tenant's page table.
                    _ if !live[tenant].is_empty() => {
                        let i = (rng.next_u64() % live[tenant].len() as u64) as usize;
                        let (region, bytes) = live[tenant][i];
                        let offset = rng.next_u64() % bytes;
                        let write = rng.next_u64().is_multiple_of(2);
                        m.step(tenant, Event::Access { region, offset, write })
                            .unwrap();
                    }
                    _ => {}
                }
            }
            // Both tenants did verified work through the shared hierarchy.
            let a = m.counters(0).full.accesses;
            let b = m.counters(1).full.accesses;
            proptest::prop_assert_eq!(a + b, a.max(b) + a.min(b));
        }
    }
}
