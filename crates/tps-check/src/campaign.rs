//! Randomized fault-injection campaigns.
//!
//! A *schedule* is a seeded sequence of `mmap` / page-fault / `munmap` /
//! `compact` operations run against a small, pressured [`Os`] instance
//! with a [`FaultPlan`] installed, audited by an [`Auditor`] as it goes
//! and torn down completely at the end (all VMAs unmapped, with a final
//! everything-returned check). A *campaign* runs many schedules with
//! derived seeds and aggregates the results.
//!
//! Everything is deterministic: the campaign seed fixes the schedule
//! seeds, each schedule seed fixes both the op stream and the fault
//! stream, so any reported violation replays exactly.

use crate::audit::Auditor;
use crate::{FaultPlan, FaultPlanConfig};
use tps_core::rng::Rng;
use tps_core::{InjectorHandle, PageOrder, TpsError, VirtAddr};
use tps_os::{Os, OsStats, PolicyConfig, PolicyKind, Vma};
use tps_tlb::Asid;

/// Knobs for a campaign (and for each schedule inside it).
#[derive(Copy, Clone, Debug)]
pub struct CampaignConfig {
    /// Number of schedules to run.
    pub schedules: u64,
    /// Operations per schedule (before the final teardown).
    pub ops_per_schedule: u32,
    /// Physical memory per schedule; small sizes create real pressure.
    pub mem_bytes: u64,
    /// Campaign master seed; schedule seeds derive from it.
    pub seed: u64,
    /// Fault-site probabilities. The `seed` field inside is ignored —
    /// each schedule derives its own injector seed.
    pub plan: FaultPlanConfig,
    /// Audit after every this-many ops (0 = only at schedule end).
    pub audit_every: u32,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            schedules: 100,
            ops_per_schedule: 48,
            mem_bytes: 32 << 20,
            seed: 0x7505_cafe,
            plan: FaultPlanConfig {
                buddy_alloc: 0.05,
                reserve_span: 0.20,
                compaction_step: 0.25,
                shootdown_deliver: 0.25,
                // Hardware sites stay off here: the campaign audits the OS
                // layer; `crate::shadow` owns the hardware sites.
                ..FaultPlanConfig::disabled(0)
            },
            audit_every: 8,
        }
    }
}

/// What one schedule did and found.
#[derive(Clone, Debug)]
pub struct ScheduleOutcome {
    /// Final OS counters (after teardown).
    pub stats: OsStats,
    /// Free bytes at teardown (for conservation checks).
    pub free_bytes: u64,
    /// Free-list histogram at teardown, as (order, count) pairs — part of
    /// the byte-identical fingerprint for zero-cost-default checks.
    pub histogram: Vec<(u8, u64)>,
    /// Invariant violations, prefixed with the op index where found.
    pub violations: Vec<String>,
    /// Operations that legitimately failed with `OutOfMemory`.
    pub oom_events: u64,
    /// Faults the injector introduced (0 if the caller supplied its own
    /// injector or none).
    pub injected: u64,
    /// Injector consultations (0 under a caller-supplied injector).
    pub consultations: u64,
}

/// Aggregate results of a campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Schedules completed.
    pub schedules_run: u64,
    /// Total operations executed.
    pub ops_run: u64,
    /// Total faults injected across all schedules.
    pub faults_injected: u64,
    /// Total legitimate out-of-memory degradations observed.
    pub oom_events: u64,
    /// OS counters summed over every schedule: faults, fallbacks,
    /// compaction aborts, redelivered shootdowns and promotions prove the
    /// degradation paths and the TPS machinery really ran.
    pub os: OsStats,
    /// All violations, each prefixed with its schedule seed (truncated to
    /// [`CampaignReport::MAX_VIOLATIONS`]).
    pub violations: Vec<String>,
    /// Violations dropped beyond the cap.
    pub violations_truncated: u64,
}

impl CampaignReport {
    /// Cap on retained violation messages.
    pub const MAX_VIOLATIONS: usize = 32;
}

/// The policies a schedule may draw (RMM is exercised elsewhere; its
/// eager `mmap` propagates OOM rather than degrading, which would blur
/// the campaign's "errors are violations" rule).
const POLICIES: [PolicyKind; 5] = [
    PolicyKind::Tps,
    PolicyKind::TpsEager,
    PolicyKind::Thp,
    PolicyKind::Only4K,
    PolicyKind::Only2M,
];

/// Runs one schedule with a caller-chosen injector (possibly `None`).
///
/// The op stream depends only on `(cfg, schedule_seed)` and the OS's
/// observable behavior, so two runs with behaviorally identical injectors
/// (e.g. `None` vs a never-faulting plan) produce identical outcomes —
/// the zero-cost-default property.
pub fn run_schedule_with_injector(
    cfg: &CampaignConfig,
    schedule_seed: u64,
    injector: Option<InjectorHandle>,
) -> ScheduleOutcome {
    let mut rng = Rng::new(schedule_seed);
    let kind = POLICIES[rng.below(POLICIES.len() as u64) as usize];
    let mut policy = PolicyConfig::new(kind);
    if kind == PolicyKind::Tps && rng.chance(0.5) {
        // Exercise speculative promotion too (bloat allowed, audited).
        policy = policy.with_threshold(0.5);
    }
    let mut os = Os::new(cfg.mem_bytes, policy);
    if rng.chance(0.5) {
        os.set_background_noise(16);
    }
    os.set_fault_injector(injector);

    let procs: Vec<Asid> = (0..1 + rng.below(2)).map(|_| os.spawn()).collect();
    let mut vmas: Vec<(Asid, Vma)> = Vec::new();
    let mut auditor = Auditor::new();
    let mut out = ScheduleOutcome {
        stats: OsStats::default(),
        free_bytes: 0,
        histogram: Vec::new(),
        violations: Vec::new(),
        oom_events: 0,
        injected: 0,
        consultations: 0,
    };
    let violation = |out: &mut ScheduleOutcome, op: u32, msg: String| {
        out.violations.push(format!("op {op}: {msg}"));
    };

    for op in 0..cfg.ops_per_schedule {
        let roll = rng.next_f64();
        if vmas.is_empty() || (roll < 0.20 && vmas.len() < 24) {
            let pid = procs[rng.below(procs.len() as u64) as usize];
            let bytes = PageOrder::P4K.bytes() * (1 + rng.below(96));
            match os.mmap(pid, bytes) {
                Ok(vma) => vmas.push((pid, vma)),
                Err(e) => violation(&mut out, op, format!("mmap failed: {e}")),
            }
        } else if roll < 0.28 {
            let (pid, vma) = vmas.swap_remove(rng.below(vmas.len() as u64) as usize);
            match os.munmap(pid, vma.base()) {
                Ok(shootdowns) => auditor.record_shootdowns(&shootdowns),
                Err(e) => violation(&mut out, op, format!("munmap failed: {e}")),
            }
        } else if roll < 0.34 {
            match os.compact() {
                Ok((_, shootdowns)) => auditor.record_shootdowns(&shootdowns),
                Err(e) => violation(&mut out, op, format!("compact failed: {e}")),
            }
        } else {
            let (pid, vma) = &vmas[rng.below(vmas.len() as u64) as usize];
            let off = rng.below(vma.len());
            let va = VirtAddr::new(vma.base().value() + off);
            if os.page_table(*pid).lookup(va).is_none() {
                match os.handle_fault(*pid, va, rng.chance(0.5)) {
                    Ok(outcome) => auditor.record_fill(&os, *pid, outcome.va),
                    Err(TpsError::OutOfMemory { .. }) => out.oom_events += 1,
                    Err(e) => violation(&mut out, op, format!("fault at {va} failed: {e}")),
                }
            }
        }
        if cfg.audit_every > 0 && (op + 1) % cfg.audit_every == 0 {
            for msg in auditor.audit(&os) {
                violation(&mut out, op, msg);
            }
        }
    }

    // Teardown: unmap everything, then all non-noise memory must be back.
    for (pid, vma) in vmas.drain(..) {
        match os.munmap(pid, vma.base()) {
            Ok(shootdowns) => auditor.record_shootdowns(&shootdowns),
            Err(e) => violation(
                &mut out,
                cfg.ops_per_schedule,
                format!("teardown munmap: {e}"),
            ),
        }
    }
    for msg in auditor.audit(&os) {
        violation(&mut out, cfg.ops_per_schedule, msg);
    }
    let noise_bytes = os.noise_blocks().len() as u64 * PageOrder::P2M.bytes();
    if os.buddy().used_bytes() != noise_bytes {
        violation(
            &mut out,
            cfg.ops_per_schedule,
            format!(
                "teardown leak: {} bytes still allocated, {} attributable to noise",
                os.buddy().used_bytes(),
                noise_bytes
            ),
        );
    }

    out.stats = os.stats();
    out.free_bytes = os.buddy().free_bytes();
    out.histogram = os
        .buddy()
        .histogram()
        .iter()
        .map(|(order, count)| (order.get(), count))
        .collect();
    out
}

/// Runs one schedule with a [`FaultPlan`] built from `cfg.plan` (seeded
/// per schedule) and reports its injection counters.
pub fn run_schedule(cfg: &CampaignConfig, schedule_seed: u64) -> ScheduleOutcome {
    let plan_cfg = FaultPlanConfig {
        // Decorrelate the fault stream from the op stream.
        seed: schedule_seed ^ 0x9e37_79b9_7f4a_7c15,
        ..cfg.plan
    };
    let (handle, plan) = FaultPlan::handles(plan_cfg);
    let mut out = run_schedule_with_injector(cfg, schedule_seed, Some(handle));
    out.injected = plan.borrow().injected_total();
    out.consultations = plan.borrow().consultations();
    out
}

/// Runs `cfg.schedules` schedules with seeds derived from `cfg.seed`.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut seeder = Rng::new(cfg.seed);
    let mut report = CampaignReport::default();
    for _ in 0..cfg.schedules {
        let schedule_seed = seeder.next_u64();
        let out = run_schedule(cfg, schedule_seed);
        report.schedules_run += 1;
        report.ops_run += u64::from(cfg.ops_per_schedule);
        report.faults_injected += out.injected;
        report.oom_events += out.oom_events;
        report.os.accumulate(&out.stats);
        for msg in out.violations {
            if report.violations.len() < CampaignReport::MAX_VIOLATIONS {
                report
                    .violations
                    .push(format!("schedule {schedule_seed:#x}: {msg}"));
            } else {
                report.violations_truncated += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_schedule_runs_clean_under_injection() {
        let cfg = CampaignConfig::default();
        let out = run_schedule(&cfg, 0xdead_beef);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.consultations > 0, "injector was consulted");
        assert!(out.stats.faults > 0, "schedule did real work");
    }

    #[test]
    fn schedules_replay_deterministically() {
        let cfg = CampaignConfig::default();
        let a = run_schedule(&cfg, 42);
        let b = run_schedule(&cfg, 42);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.free_bytes, b.free_bytes);
        assert_eq!(a.histogram, b.histogram);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn small_campaign_aggregates() {
        let cfg = CampaignConfig {
            schedules: 8,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        assert_eq!(report.schedules_run, 8);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.os.faults > 0);
    }
}
