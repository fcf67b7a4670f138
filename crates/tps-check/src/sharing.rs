//! Fork / copy-on-write / `mprotect` / page-merging campaign.
//!
//! [`crate::campaign`] drives `mmap`, faults, `munmap` and compaction;
//! this module drives the OS paths that share frames between processes
//! and change page sizes in place. Every schedule is a pure function of
//! `(campaign seed, schedule index)`. It runs one of four setups — THP or
//! TPS, each under both [`CowPolicy`] values — over processes whose VMAs
//! are faulted in whole, so they hold 2 MB pages (THP) or tailored pages
//! up to 4 MB (TPS), and then draws `fork`, writes (copy-on-write faults
//! on shared pages, demand faults on holes), reads, `mprotect` (whole
//! VMAs and ranges that straddle pages), [`Os::merge_pages`], new VMAs
//! and `munmap`. After every operation the [`Auditor`] checks the OS:
//! buddy and ownership conservation, leaf backing (a leaf over another
//! process's frame must be share-counted), frame-share conservation (a
//! base page mapped by `n` leaves has count `n`, and is writable in
//! none), and a shadow TLB that flags any translation or write
//! permission that changed without its shootdown.
//!
//! An operation may be refused — `mprotect` or `munmap` of a range that
//! is still shared returns [`TpsError::SharedMapping`] — or run out of
//! memory; a refused `mprotect` must leave the process's leaves and the
//! OS counters exactly as they were. Any other error is a failure.
//!
//! Teardown write-faults every leaf that is still shared until none is,
//! then unmaps every VMA, children before parents (a child may map its
//! parent's frames, which blocks the parent's `munmap`), and requires
//! every frame back in the buddy allocator and no share count left.

use crate::audit::Auditor;
use crate::{ScheduleConfig, ScheduleFailure};
use tps_core::rng::Rng;
use tps_core::{LeafInfo, PageOrder, PteFlags, TpsError, VirtAddr, BASE_PAGE_SIZE};
use tps_os::{CowPolicy, Os, PolicyConfig, PolicyKind, Vma};
use tps_tlb::Asid;

/// The pinned sharing campaign: 96 schedules, 24 per setup.
pub const DEFAULT_CONFIG: ScheduleConfig = ScheduleConfig {
    schedules: 96,
    seed: 0x5ba2_ed00_f04c_0c0e,
};

/// Operations per schedule, before teardown.
const OPS: u32 = 32;
/// Processes a schedule may grow to through `fork`.
const MAX_PROCESSES: usize = 3;
/// VMAs one process may hold.
const MAX_VMAS: usize = 3;

/// Aggregated outcome of a sharing campaign.
#[derive(Clone, Debug, Default)]
pub struct SharingReport {
    /// Schedules executed.
    pub schedules: u64,
    /// Successful forks.
    pub forks: u64,
    /// Copy-on-write faults handled (teardown's included).
    pub cow_faults: u64,
    /// Bytes those faults copied.
    pub cow_bytes_copied: u64,
    /// Successful `mprotect` calls.
    pub mprotects: u64,
    /// `mprotect` and `munmap` calls refused because the range was shared.
    pub refusals: u64,
    /// Pages merged by [`Os::merge_pages`].
    pub merges: u64,
    /// Successful `munmap` calls during the schedules (not teardown).
    pub munmaps: u64,
    /// Pages of 2 MB or more that a copy-on-write fault or an `mprotect`
    /// split.
    pub large_splits: u64,
    /// Contract violations, pinned for replay. Empty means the campaign
    /// passed.
    pub failures: Vec<ScheduleFailure>,
}

impl SharingReport {
    /// Whether every schedule upheld every contract.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} schedules: {} forks, {} CoW faults ({} KB copied), {} mprotects, \
             {} refusals, {} merges, {} munmaps, {} splits of 2 MB+ pages, {} failures",
            self.schedules,
            self.forks,
            self.cow_faults,
            self.cow_bytes_copied >> 10,
            self.mprotects,
            self.refusals,
            self.merges,
            self.munmaps,
            self.large_splits,
            self.failures.len()
        )
    }
}

/// The paging policy and CoW policy schedule `schedule` runs.
pub fn setup(schedule: u64) -> (PolicyKind, CowPolicy) {
    let kind = [PolicyKind::Thp, PolicyKind::Tps][(schedule % 2) as usize];
    let cow = [CowPolicy::CopyWholePage, CowPolicy::CopySmallest][(schedule / 2 % 2) as usize];
    (kind, cow)
}

/// Runs the whole campaign. Deterministic: same config, same verdicts.
pub fn run_sharing_campaign(config: &ScheduleConfig) -> SharingReport {
    let mut report = SharingReport::default();
    for s in 0..config.schedules {
        report.schedules += 1;
        let seed = config.schedule_seed(s);
        let mut schedule = Schedule::new(seed, s);
        let result = schedule.run();
        let stats = schedule.os.stats();
        report.cow_faults += stats.cow_faults;
        report.cow_bytes_copied += stats.cow_bytes_copied;
        report.forks += schedule.tally.forks;
        report.mprotects += schedule.tally.mprotects;
        report.refusals += schedule.tally.refusals;
        report.merges += schedule.tally.merges;
        report.munmaps += schedule.tally.munmaps;
        report.large_splits += schedule.tally.large_splits;
        if let Err(detail) = result {
            report.failures.push(ScheduleFailure {
                schedule: s,
                seed,
                detail,
            });
        }
    }
    report
}

/// Replays one pinned schedule (by campaign seed + index) in isolation.
///
/// # Errors
///
/// The broken contract's description, exactly as the campaign pins it.
pub fn run_schedule(config: &ScheduleConfig, schedule: u64) -> Result<(), String> {
    Schedule::new(config.schedule_seed(schedule), schedule).run()
}

/// What one schedule did, for the report.
#[derive(Default)]
struct Tally {
    forks: u64,
    mprotects: u64,
    refusals: u64,
    merges: u64,
    munmaps: u64,
    large_splits: u64,
}

/// One schedule's state.
struct Schedule {
    os: Os,
    kind: PolicyKind,
    rng: Rng,
    auditor: Auditor,
    processes: Vec<Asid>,
    /// Every live VMA, with its process; a fork copies the parent's.
    vmas: Vec<(Asid, Vma)>,
    tally: Tally,
}

impl Schedule {
    fn new(seed: u64, schedule: u64) -> Self {
        let (kind, cow) = setup(schedule);
        let mut os = Os::new(256 << 20, PolicyConfig::new(kind));
        os.set_cow_policy(cow);
        let root = os.spawn();
        Schedule {
            os,
            kind,
            rng: Rng::new(seed),
            auditor: Auditor::new(),
            processes: vec![root],
            vmas: Vec::new(),
            tally: Tally::default(),
        }
    }

    fn run(&mut self) -> Result<(), String> {
        let root = self.processes[0];
        for op in 0..OPS {
            let what = if op < 2 {
                self.mmap(root)
            } else {
                self.random_op()
            };
            let what = what.map_err(|e| format!("op {op}: {e}"))?;
            let violations = self.auditor.audit(&self.os);
            if !violations.is_empty() {
                return Err(format!("op {op} ({what}): {}", violations.join("; ")));
            }
        }
        self.teardown().map_err(|e| format!("teardown: {e}"))
    }

    /// Draws and runs one operation, returning what it did.
    fn random_op(&mut self) -> Result<String, String> {
        let pid = self.processes[self.rng.below(self.processes.len() as u64) as usize];
        let own: Vec<Vma> = self
            .vmas
            .iter()
            .filter(|(p, _)| *p == pid)
            .map(|(_, v)| v.clone())
            .collect();
        let roll = self.rng.next_f64();
        if own.is_empty() || (roll < 0.08 && own.len() < MAX_VMAS) {
            return self.mmap(pid);
        }
        let vma = own[self.rng.below(own.len() as u64) as usize].clone();
        if roll < 0.20 && self.processes.len() < MAX_PROCESSES {
            self.fork(pid)
        } else if roll < 0.55 {
            let va = vma.base() + self.rng.below(vma.len() / BASE_PAGE_SIZE) * BASE_PAGE_SIZE;
            let write = self.rng.chance(0.75);
            self.access(pid, va, write)
        } else if roll < 0.80 {
            self.mprotect(pid, &vma)
        } else if roll < 0.90 {
            let merged = self.os.merge_pages(pid);
            self.tally.merges += merged;
            Ok(format!("merge_pages(asid {pid}): {merged}"))
        } else {
            self.munmap(pid, &vma)
        }
    }

    /// Maps a new VMA in `pid` and faults every page of it in.
    fn mmap(&mut self, pid: Asid) -> Result<String, String> {
        let pages = match self.kind {
            // One or two 2 MB chunks, sometimes with a 4 KB-paged tail.
            PolicyKind::Thp => {
                (1 + self.rng.below(2)) * 512 + self.rng.below(2) * self.rng.below(64)
            }
            // Up to 4 MB and a bit: tailored pages up to 4 MB.
            _ => 1 + self.rng.below(1100),
        };
        let vma = self
            .os
            .mmap(pid, pages * BASE_PAGE_SIZE)
            .map_err(|e| format!("mmap of {pages} pages failed: {e}"))?;
        for i in 0..pages {
            self.access(pid, vma.base() + i * BASE_PAGE_SIZE, true)?;
        }
        let what = format!("mmap(asid {pid}, {pages} pages) at {}", vma.base());
        self.vmas.push((pid, vma));
        Ok(what)
    }

    fn fork(&mut self, pid: Asid) -> Result<String, String> {
        let (child, sds) = self
            .os
            .fork(pid)
            .map_err(|e| format!("fork of asid {pid} failed: {e}"))?;
        self.auditor.record_shootdowns(&sds);
        let inherited: Vec<(Asid, Vma)> = self
            .vmas
            .iter()
            .filter(|(p, _)| *p == pid)
            .map(|(_, v)| (child, v.clone()))
            .collect();
        self.vmas.extend(inherited);
        self.processes.push(child);
        self.tally.forks += 1;
        Ok(format!("fork(asid {pid}) -> asid {child}"))
    }

    /// A read or write of `va` as the MMU would serve it: a demand fault
    /// on a hole, a copy-on-write fault on a write to a read-only page,
    /// then a TLB fill.
    fn access(&mut self, pid: Asid, va: VirtAddr, write: bool) -> Result<String, String> {
        let what = format!("{} asid {pid} {va}", if write { "write" } else { "read" });
        let before = self.leaf(pid, va);
        let result = match before {
            None => self.os.handle_fault(pid, va, write).map(drop),
            Some(leaf) if write && !leaf.flags.contains(PteFlags::WRITABLE) => {
                self.os.handle_cow_fault(pid, va).map(|sds| {
                    self.auditor.record_shootdowns(&sds);
                })
            }
            Some(_) => Ok(()),
        };
        match result {
            Ok(()) => {
                self.count_split(pid, va, before);
                self.auditor.record_fill(&self.os, pid, va);
                Ok(what)
            }
            Err(TpsError::OutOfMemory { .. }) => Ok(format!("{what}: out of memory")),
            Err(e) => Err(format!("{what} failed: {e}")),
        }
    }

    /// `mprotect` of a whole VMA or of a random range inside it.
    fn mprotect(&mut self, pid: Asid, vma: &Vma) -> Result<String, String> {
        let pages = vma.len() / BASE_PAGE_SIZE;
        let (start, len) = if self.rng.chance(0.3) {
            (0, pages)
        } else {
            let start = self.rng.below(pages);
            (start, 1 + self.rng.below(pages - start))
        };
        let (va, end) = (
            vma.base() + start * BASE_PAGE_SIZE,
            vma.base() + (start + len) * BASE_PAGE_SIZE,
        );
        let writable = self.rng.chance(0.5);
        let what = format!("mprotect(asid {pid}, [{va}, {end}), writable {writable})");
        let last = VirtAddr::new(end.value() - BASE_PAGE_SIZE);
        let ends = [self.leaf(pid, va), self.leaf(pid, last)];
        let before = (self.leaves(pid, vma), self.os.stats());
        match self.os.mprotect(pid, va, len * BASE_PAGE_SIZE, writable) {
            Ok(sds) => {
                self.auditor.record_shootdowns(&sds);
                self.count_split(pid, va, ends[0]);
                if ends[1].map(|l| l.base) != ends[0].map(|l| l.base) {
                    self.count_split(pid, last, ends[1]);
                }
                self.tally.mprotects += 1;
                Ok(what)
            }
            Err(TpsError::SharedMapping { .. }) => {
                if (self.leaves(pid, vma), self.os.stats()) != before {
                    return Err(format!("{what} was refused but changed the process"));
                }
                self.tally.refusals += 1;
                Ok(format!("{what}: refused, shared"))
            }
            Err(e) => Err(format!("{what} failed: {e}")),
        }
    }

    fn munmap(&mut self, pid: Asid, vma: &Vma) -> Result<String, String> {
        let what = format!("munmap(asid {pid}, {})", vma.base());
        match self.os.munmap(pid, vma.base()) {
            Ok(sds) => {
                self.auditor.record_shootdowns(&sds);
                self.vmas
                    .retain(|(p, v)| !(*p == pid && v.base() == vma.base()));
                self.tally.munmaps += 1;
                Ok(what)
            }
            Err(TpsError::SharedMapping { .. }) => {
                self.tally.refusals += 1;
                Ok(format!("{what}: refused, shared"))
            }
            Err(e) => Err(format!("{what} failed: {e}")),
        }
    }

    /// Write-faults every still-shared leaf, then unmaps every VMA,
    /// children first, and checks that every frame came back.
    fn teardown(&mut self) -> Result<(), String> {
        for (pid, vma) in self.vmas.clone() {
            let mut cursor = vma.base();
            while let Some((va, leaf)) = self.os.page_table(pid).next_leaf(cursor, vma.end()) {
                if self.os.frame_shares().shared(&leaf) {
                    // Under CopySmallest the fault splits the page; the
                    // next pass over `va` finds its first base page.
                    let sds = self
                        .os
                        .handle_cow_fault(pid, va)
                        .map_err(|e| format!("CoW fault at {va} (asid {pid}): {e}"))?;
                    self.auditor.record_shootdowns(&sds);
                    continue;
                }
                cursor = va + leaf.order.bytes();
            }
        }
        let violations = self.auditor.audit(&self.os);
        if !violations.is_empty() {
            return Err(format!("after the CoW faults: {}", violations.join("; ")));
        }
        self.vmas
            .sort_by_key(|(pid, vma)| (std::cmp::Reverse(*pid), vma.base()));
        for (pid, vma) in std::mem::take(&mut self.vmas) {
            let sds = self
                .os
                .munmap(pid, vma.base())
                .map_err(|e| format!("munmap(asid {pid}, {}): {e}", vma.base()))?;
            self.auditor.record_shootdowns(&sds);
        }
        let violations = self.auditor.audit(&self.os);
        if !violations.is_empty() {
            return Err(violations.join("; "));
        }
        if self.os.buddy().used_bytes() != 0 || !self.os.frame_shares().is_empty() {
            return Err(format!(
                "{} bytes still allocated and {} base pages still share-counted",
                self.os.buddy().used_bytes(),
                self.os.frame_shares().iter().count()
            ));
        }
        Ok(())
    }

    fn leaf(&self, pid: Asid, va: VirtAddr) -> Option<LeafInfo> {
        self.os.page_table(pid).lookup(va)
    }

    /// The leaves of `pid` inside `vma`, in address order.
    fn leaves(&self, pid: Asid, vma: &Vma) -> Vec<(VirtAddr, LeafInfo)> {
        let pt = self.os.page_table(pid);
        let mut out = Vec::new();
        let mut cursor = vma.base();
        while let Some((va, leaf)) = pt.next_leaf(cursor, vma.end()) {
            out.push((va, leaf));
            cursor = va + leaf.order.bytes();
        }
        out
    }

    /// Counts a split if the page of 2 MB or more that covered `va`
    /// before an operation is now covered by a smaller one.
    fn count_split(&mut self, pid: Asid, va: VirtAddr, before: Option<LeafInfo>) {
        let large = before.filter(|l| l.order >= PageOrder::P2M);
        let now = self.leaf(pid, va);
        if large.zip(now).is_some_and(|(b, n)| n.order < b.order) {
            self.tally.large_splits += 1;
        }
    }
}
