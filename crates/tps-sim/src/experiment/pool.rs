//! Deterministic `std::thread` worker pool executing matrix cells, with
//! per-cell retry, an optional watchdog deadline, and checkpoint
//! journaling.
//!
//! Cells are claimed from a shared atomic cursor (work stealing keeps the
//! pool busy regardless of per-cell runtime skew) and every result is
//! written back to the cell's stable index, so the aggregated output is
//! identical for any thread count — including 1. A failing cell (panic,
//! injected fault, or blown deadline) is retried through the spec's
//! budget — every attempt from the cell's same pinned workload seed —
//! then degrades to a structured [`CellFailure`]; the remaining cells
//! keep running either way.

#[cfg(test)]
use crate::config::Mechanism;
use crate::machine::{MachineBuilder, TenantSpec};
use crate::stats::MachineRunStats;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;
use tps_core::rng::SplitMix64;
use tps_core::{FaultPlan, InjectorHandle};
use tps_wl::tenant_seeds;

use super::checkpoint::{CheckpointWriter, ResumeMap};
use super::report::{CellFailure, FailureCause};
use super::spec::{ExperimentCell, ExperimentSpec};

/// Journal/resume/crash-simulation hooks threaded into one pool run.
pub(crate) struct PoolHooks<'a, 'io> {
    /// Outcomes replayed from a journal; their cells are not executed.
    pub resume: Option<&'a ResumeMap>,
    /// Journal that newly completed cells are appended to.
    pub journal: Option<&'a CheckpointWriter<'io>>,
    /// Crash simulation: after this many cells have been journaled, the
    /// process exits with [`super::HALT_EXIT_CODE`] — as close to `kill -9`
    /// mid-run as a test can deterministically get.
    pub halt_after: Option<u64>,
}

/// Runs every cell on `threads` workers, returning results in cell order.
pub(crate) fn run_cells(
    spec: &ExperimentSpec,
    cells: &[ExperimentCell],
    threads: usize,
    hooks: &PoolHooks<'_, '_>,
) -> Vec<Result<MachineRunStats, CellFailure>> {
    let cursor = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<MachineRunStats, CellFailure>>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else {
                    break;
                };
                if let Some(done) = hooks.resume.and_then(|map| map.get(&cell.index())) {
                    store(&slots[i], done.clone());
                    continue;
                }
                let outcome = run_cell_resilient(spec, cell);
                if let Some(journal) = hooks.journal {
                    // A journal write failure must not lose the in-memory
                    // result; degrade to an unjournaled (non-resumable)
                    // cell and keep going.
                    let _ = journal.record(cell.index(), &outcome);
                    let finished = completed.fetch_add(1, Ordering::SeqCst) as u64 + 1;
                    if hooks.halt_after == Some(finished) {
                        std::process::exit(super::HALT_EXIT_CODE);
                    }
                }
                store(&slots[i], outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let inner = match slot.into_inner() {
                Ok(inner) => inner,
                Err(poisoned) => poisoned.into_inner(),
            };
            inner.unwrap_or_else(|| {
                Err(CellFailure {
                    cause: FailureCause::Panic,
                    attempts: 1,
                    message: "cell result missing after pool shutdown".to_string(),
                })
            })
        })
        .collect()
}

fn store(
    slot: &Mutex<Option<Result<MachineRunStats, CellFailure>>>,
    outcome: Result<MachineRunStats, CellFailure>,
) {
    match slot.lock() {
        Ok(mut guard) => *guard = Some(outcome),
        // A poisoned slot means another worker panicked while holding this
        // lock, which the assignment above cannot do; recover the guard
        // rather than aborting the pool.
        Err(poisoned) => *poisoned.into_inner() = Some(outcome),
    }
}

/// Runs one cell through its retry budget: the original attempt plus up
/// to `spec.retry_limit()` retries, each from the cell's same pinned
/// workload seed (only the fault-plan seed varies, deterministically, by
/// attempt). The last failure is returned when the budget runs out.
pub(crate) fn run_cell_resilient(
    spec: &ExperimentSpec,
    cell: &ExperimentCell,
) -> Result<MachineRunStats, CellFailure> {
    let budget = spec.retry_limit();
    let mut attempt = 1u32;
    loop {
        match run_attempt(spec, cell, attempt) {
            Ok(stats) => return Ok(stats),
            Err((cause, message)) => {
                if attempt <= budget {
                    attempt += 1;
                    continue;
                }
                return Err(CellFailure {
                    cause,
                    attempts: attempt,
                    message,
                });
            }
        }
    }
}

/// Runs one attempt, under the watchdog when the spec has a deadline.
fn run_attempt(
    spec: &ExperimentSpec,
    cell: &ExperimentCell,
    attempt: u32,
) -> Result<MachineRunStats, (FailureCause, String)> {
    match spec.cell_timeout() {
        None => run_attempt_caught(spec, cell, attempt),
        Some(deadline) => run_attempt_watched(spec, cell, attempt, deadline),
    }
}

/// Watchdog: the attempt runs on a detached thread; the monitor waits on
/// a channel with the deadline. A timed-out attempt is *abandoned* — the
/// simulator has no preemption points to interrupt, so its thread is left
/// to finish (or spin) on its own and the result, if any, is discarded.
fn run_attempt_watched(
    spec: &ExperimentSpec,
    cell: &ExperimentCell,
    attempt: u32,
    deadline: Duration,
) -> Result<MachineRunStats, (FailureCause, String)> {
    let (tx, rx) = mpsc::channel();
    let spec_owned = spec.clone();
    let cell_owned = cell.clone();
    std::thread::spawn(move || {
        let _ = tx.send(run_attempt_caught(&spec_owned, &cell_owned, attempt));
    });
    match rx.recv_timeout(deadline) {
        Ok(outcome) => outcome,
        Err(mpsc::RecvTimeoutError::Timeout) => Err((
            FailureCause::Timeout,
            format!(
                "cell ({}, {}): exceeded the {} ms deadline",
                cell.benchmark(),
                cell.mechanism(),
                deadline.as_millis()
            ),
        )),
        // The sender can only drop without sending if the runner thread
        // died outside catch_unwind, which an abort-on-panic build would
        // turn into process death anyway; classify as a panic.
        Err(mpsc::RecvTimeoutError::Disconnected) => Err((
            FailureCause::Panic,
            format!(
                "cell ({}, {}): attempt thread died without a result",
                cell.benchmark(),
                cell.mechanism()
            ),
        )),
    }
}

/// Runs one attempt in place, converting a panic anywhere below into a
/// failure. With fault injection configured, a panic is classified as
/// [`FailureCause::Fault`] — the injected faults are the presumed trigger.
fn run_attempt_caught(
    spec: &ExperimentSpec,
    cell: &ExperimentCell,
    attempt: u32,
) -> Result<MachineRunStats, (FailureCause, String)> {
    match catch_unwind(AssertUnwindSafe(|| run_cell(spec, cell, attempt))) {
        Ok(stats) => Ok(stats),
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            let cause = if spec.fault_config().is_some() {
                FailureCause::Fault
            } else {
                FailureCause::Panic
            };
            Err((
                cause,
                format!(
                    "worker thread panicked: cell ({}, {}): {message}",
                    cell.benchmark(),
                    cell.mechanism()
                ),
            ))
        }
    }
}

/// Executes one cell attempt: a fresh machine, freshly seeded workloads
/// (one per tenant or SMT thread), and (when configured) a fresh fault
/// plan pinned to (cell, attempt).
fn run_cell(spec: &ExperimentSpec, cell: &ExperimentCell, attempt: u32) -> MachineRunStats {
    let config = spec.machine_config(cell.mechanism());
    let scale = spec.suite_scale();
    let seeds = match spec.cell_tenants() {
        // The classic single-process cell: the workload runs from the
        // cell seed itself, byte-identical with the pre-tenant runner.
        1 => vec![cell.seed()],
        n => tenant_seeds(cell.seed(), n),
    };
    let cap = spec.tenant_cap_config();
    let specs = seeds.into_iter().enumerate().map(|(slot, seed)| {
        let tenant = TenantSpec::suite(cell.benchmark(), scale, seed);
        match cap {
            Some((capped, bytes)) if slot == capped as usize => tenant.memory_cap(bytes),
            _ => tenant,
        }
    });
    let mut machine = MachineBuilder::new(config)
        .tenants(specs)
        .on_oom(spec.oom_policy())
        .build()
        .expect("a validated spec builds a non-empty machine");
    if let Some(mut fault_cfg) = spec.fault_config() {
        fault_cfg.seed = attempt_fault_seed(fault_cfg.seed, cell.seed(), attempt);
        let plan = Rc::new(RefCell::new(FaultPlan::new(fault_cfg)));
        machine.set_fault_injector(Some(plan as InjectorHandle));
    }
    let mut stats = machine.run();
    if spec.is_smt() {
        // SMT cells report the primary thread's statistics but keep both
        // threads' outcomes, so a killed sibling still shows.
        stats.per_tenant.truncate(1);
        stats.global = stats.per_tenant[0].clone();
    }
    stats
}

/// The fault-plan seed of one (cell, attempt) pair. Pinned to the plan's
/// base seed, the cell's position-pinned seed, and the attempt number —
/// never to scheduling — so retries are deterministic yet see a fresh
/// fault stream (a faulted attempt can deterministically succeed on
/// retry).
fn attempt_fault_seed(base: u64, cell_seed: u64, attempt: u32) -> u64 {
    SplitMix64::new(base ^ cell_seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .next_u64()
}

/// Convenience used by tests: runs one (benchmark, mechanism) cell the
/// way the pool would, without building a full matrix.
#[cfg(test)]
pub(crate) fn run_single(
    spec: &ExperimentSpec,
    benchmark: &str,
    mechanism: Mechanism,
    seed: u64,
) -> Result<MachineRunStats, CellFailure> {
    run_cell_resilient(
        spec,
        &ExperimentCell {
            index: 0,
            benchmark: benchmark.to_string(),
            mechanism,
            seed,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::FaultPlanConfig;
    use tps_wl::SuiteScale;

    #[test]
    fn single_cell_runs_and_panics_are_caught() {
        let spec = ExperimentSpec::new().scale(SuiteScale::Test);
        let ok = run_single(&spec, "gups", Mechanism::Tps, 11).unwrap();
        assert!(ok.global.mem.accesses > 0);
        // A panic below the runner — here a bogus benchmark name reaching
        // the workload factory, bypassing spec validation — must surface
        // as a cell failure, not abort the process.
        let failure = run_single(&spec, "nonesuch", Mechanism::Tps, 11).unwrap_err();
        assert_eq!(failure.cause, FailureCause::Panic);
        assert_eq!(failure.attempts, 1);
        assert!(failure.message.contains("worker thread panicked"));
        assert!(failure.message.contains("nonesuch"));
    }

    #[test]
    fn oom_cells_contain_instead_of_panicking() {
        // 1 MB of physical memory cannot hold the test-scale GUPS table:
        // the machine kills the tenant at its first mmap and completes the
        // run with a structured outcome instead of panicking the cell.
        let tiny = ExperimentSpec::new()
            .scale(SuiteScale::Test)
            .memory(1 << 20);
        let stats = run_single(&tiny, "gups", Mechanism::Tps, 11).unwrap();
        assert_eq!(stats.killed_count(), 1);
        assert!(matches!(
            stats.outcome(0),
            crate::stats::TenantOutcome::Killed {
                cause: tps_core::TenantFaultCause::Oom,
                ..
            }
        ));
    }

    #[test]
    fn smt_cells_run() {
        let spec = ExperimentSpec::new().scale(SuiteScale::Test).smt(true);
        let stats = run_single(&spec, "gups", Mechanism::Thp, 3).unwrap();
        assert!(stats.global.mem.accesses > 0);
    }

    #[test]
    fn multi_tenant_cells_attribute_per_tenant_stats() {
        use super::super::spec::TenantCount;
        let spec = ExperimentSpec::new()
            .scale(SuiteScale::Test)
            .tenants(TenantCount::new(4).unwrap());
        let stats = run_single(&spec, "gups", Mechanism::Tps, 9).unwrap();
        assert_eq!(stats.per_tenant.len(), 4);
        for tenant in &stats.per_tenant {
            assert!(tenant.mem.accesses > 0);
        }
        let sum: u64 = stats.per_tenant.iter().map(|s| s.mem.accesses).sum();
        assert_eq!(stats.global.mem.accesses, sum);
    }

    #[test]
    fn capped_tenants_and_oom_policy_reach_the_machine() {
        use super::super::spec::TenantCount;
        // The cap knob lands on the right slot: tenant 0 dies at its first
        // mmap (16 MB table, 1 MB cap), tenant 1 runs to completion.
        let spec = ExperimentSpec::new()
            .scale(SuiteScale::Test)
            .tenants(TenantCount::new(2).unwrap())
            .tenant_cap(0, 1 << 20);
        let stats = run_single(&spec, "gups", Mechanism::Tps, 9).unwrap();
        assert!(matches!(
            stats.outcome(0),
            crate::stats::TenantOutcome::Killed {
                cause: tps_core::TenantFaultCause::CapExceeded,
                ..
            }
        ));
        assert!(!stats.outcome(1).is_killed());
        assert!(stats.per_tenant[1].mem.accesses > 0);
    }

    #[test]
    fn deterministic_panic_exhausts_the_retry_budget() {
        let spec = ExperimentSpec::new().scale(SuiteScale::Test).retries(2);
        let failure = run_single(&spec, "nonesuch", Mechanism::Tps, 11).unwrap_err();
        assert_eq!(failure.attempts, 3, "original attempt + 2 retries");
        assert_eq!(failure.cause, FailureCause::Panic);
    }

    #[test]
    fn panics_under_fault_injection_classify_as_faults() {
        let spec = ExperimentSpec::new()
            .scale(SuiteScale::Test)
            .faults(FaultPlanConfig::disabled(1));
        let failure = run_single(&spec, "nonesuch", Mechanism::Tps, 11).unwrap_err();
        assert_eq!(failure.cause, FailureCause::Fault);
    }

    #[test]
    fn faulted_cells_degrade_not_fail() {
        // Heavy uniform fault pressure on every OS and hardware site: the
        // run must still complete with correct translations, counting its
        // degradations instead of failing.
        let mut cfg = FaultPlanConfig::uniform(7, 0.05);
        let hw = FaultPlanConfig::uniform_hw(7, 0.05);
        cfg.walk_step = hw.walk_step;
        cfg.alias_install = hw.alias_install;
        cfg.mmu_cache_fill = hw.mmu_cache_fill;
        cfg.any_size_fill = hw.any_size_fill;
        cfg.any_size_evict = hw.any_size_evict;
        cfg.stlb_probe = hw.stlb_probe;
        let spec = ExperimentSpec::new()
            .scale(SuiteScale::Test)
            .verify(true)
            .faults(cfg);
        let stats = run_single(&spec, "gups", Mechanism::Tps, 11).unwrap();
        assert!(
            stats.global.hw_faults.values().iter().sum::<u64>() > 0,
            "hardware sites absorbed faults: {:?}",
            stats.global.hw_faults
        );
    }

    #[test]
    fn retries_are_deterministic() {
        let spec = ExperimentSpec::new()
            .scale(SuiteScale::Test)
            .retries(2)
            .faults(FaultPlanConfig::uniform(3, 0.02));
        let a = run_single(&spec, "gups", Mechanism::Tps, 5);
        let b = run_single(&spec, "gups", Mechanism::Tps, 5);
        match (&a, &b) {
            (Ok(x), Ok(y)) => assert_eq!(x.global.mem, y.global.mem),
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("outcomes diverged between identical runs"),
        }
    }

    #[test]
    fn watchdog_times_a_cell_out() {
        // A 0 ms deadline fires immediately; the cell degrades to a
        // Timeout failure after its whole retry budget.
        let spec = ExperimentSpec::new()
            .scale(SuiteScale::Test)
            .cell_timeout_ms(0)
            .retries(1);
        let failure = run_single(&spec, "gups", Mechanism::Tps, 11).unwrap_err();
        assert_eq!(failure.cause, FailureCause::Timeout);
        assert_eq!(failure.attempts, 2);
        assert!(failure.message.contains("deadline"));
        // A generous deadline does not perturb the result.
        let ok = ExperimentSpec::new()
            .scale(SuiteScale::Test)
            .cell_timeout_ms(600_000);
        let stats = run_single(&ok, "gups", Mechanism::Tps, 11).unwrap();
        let plain = run_single(
            &ExperimentSpec::new().scale(SuiteScale::Test),
            "gups",
            Mechanism::Tps,
            11,
        )
        .unwrap();
        assert_eq!(stats.global.mem, plain.global.mem);
    }
}
