//! `tps-run`: command-line driver for the TPS simulator.
//!
//! ```text
//! tps-run [--bench NAME]... [--mech MECH]... [--all] [--matrix]
//!         [--scale test|small|paper] [--threads N] [--seed S]
//!         [--tenants N] [--smt] [--virtualized] [--five-level]
//!         [--threshold F] [--verify] [--json PATH|-]
//!         [--on-oom fail-fast|kill-victim] [--tenant-cap SLOT:BYTES]
//!         [--cell-timeout MS] [--retries N]
//!         [--fault-rate P] [--fault-seed S]
//!         [--checkpoint PATH] [--resume PATH] [--resume-salvage PATH]
//!         [--force-checkpoint] [--halt-after N]
//! ```
//!
//! Flags build one declarative [`ExperimentSpec`]; the matrix of
//! (benchmark × mechanism) cells runs on a worker pool (`--threads`,
//! default = available parallelism) with per-cell pinned seeds, so the
//! output — including `--json` bytes — is identical at every thread
//! count. `--tenants N` runs every cell as an N-process machine — N
//! seeded instances of the benchmark in their own address spaces over
//! one shared allocator and TLB hierarchy, interleaved round-robin —
//! and embeds the per-tenant stats breakdown in the report JSON.
//! `--tenant-cap SLOT:BYTES` pins a per-tenant memory budget on one
//! slot and `--on-oom` picks the containment policy when a tenant
//! faults for memory: `fail-fast` (default) kills the faulting tenant,
//! `kill-victim` kills the largest-mapped tenant and retries the event.
//! A killed tenant's pages return to the shared pool and its row in the
//! report carries a structured `{"outcome": "killed", ...}` record;
//! survivors run to completion.
//! `--cell-timeout`/`--retries` arm the per-cell watchdog and
//! retry budget; `--fault-rate` injects faults at every site with a
//! per-cell derived seed; `--checkpoint`/`--resume` stream completed
//! cells through an append-only journal (checksummed and fsynced per
//! entry) so an interrupted run replays byte-identically. A journal with
//! mid-file corruption is refused with its own exit code;
//! `--resume-salvage` drops the damaged entries and recomputes those
//! cells instead, noting the drop count in the report. `--checkpoint`
//! refuses to overwrite a journal holding entries (or one of another
//! spec) unless `--force-checkpoint` is passed. Report JSON is published
//! atomically (temp file + rename), so a partial report is never
//! observable at the output path. Examples:
//!
//! ```sh
//! tps-run --bench gups --all --scale small
//! tps-run --matrix --scale test --threads 8 --json report.json
//! tps-run --bench xsbench --mech tps --smt
//! tps-run --bench gups --mech tps --tenants 8 --json -
//! tps-run --matrix --retries 2 --cell-timeout 60000 --checkpoint run.ckpt
//! tps-run --matrix --resume run.ckpt --json report.json
//! ```
//!
//! Exit codes: 0 success, 1 I/O error, 2 usage, 3 one or more cells
//! failed (report still written), 4 checkpoint error, 5 halted by
//! `--halt-after`, 6 checkpoint corruption detected.

use std::path::{Path, PathBuf};

use tps::core::{FaultPlanConfig, TpsError};
use tps::sim::{
    write_atomic, ExperimentReport, ExperimentSpec, Mechanism, OnOom, RealIo, RunOptions,
    TenantCount,
};
use tps::wl::{suite_names, SuiteScale};

/// One or more cells degraded to a structured failure entry.
const EXIT_CELL_FAILURES: i32 = 3;
/// The checkpoint journal could not be created, loaded, or verified.
const EXIT_CHECKPOINT: i32 = 4;
/// The checkpoint journal was read back damaged (CRC/framing/sequence):
/// distinct from [`EXIT_CHECKPOINT`] so tooling can tell "storage lied"
/// from "wrong file" and decide to re-run with `--resume-salvage`.
const EXIT_CHECKPOINT_CORRUPT: i32 = 6;

/// Parsed command line: the spec plus output and resilience options.
struct Options {
    spec: ExperimentSpec,
    json: Option<String>,
    run: RunOptions,
}

fn usage() -> ! {
    eprintln!(
        "usage: tps-run [--bench NAME]... [--mech MECH]... [--all] [--matrix] \
         [--scale test|small|paper] [--threads N] [--seed S] [--tenants N] [--smt] \
         [--virtualized] [--five-level] [--threshold F] [--verify] [--json PATH|-] \
         [--on-oom fail-fast|kill-victim] [--tenant-cap SLOT:BYTES] \
         [--cell-timeout MS] [--retries N] [--fault-rate P] [--fault-seed S] \
         [--checkpoint PATH] [--resume PATH] [--resume-salvage PATH] \
         [--force-checkpoint] [--halt-after N]\n\
         benchmarks: {}\n\
         mechanisms: {}",
        suite_names().join(", "),
        Mechanism::all()
            .iter()
            .map(|m| m.cli_name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2)
}

/// Parses a `SLOT:BYTES` tenant-cap argument.
fn parse_tenant_cap(text: &str) -> Option<(u32, u64)> {
    let (slot, bytes) = text.split_once(':')?;
    Some((slot.parse().ok()?, bytes.parse().ok()?))
}

fn parse_args() -> Options {
    let mut benches: Vec<String> = Vec::new();
    let mut mechs: Vec<Mechanism> = Vec::new();
    let mut matrix = false;
    let mut spec = ExperimentSpec::new();
    let mut json = None;
    let mut run = RunOptions::default();
    let mut fault_rate: Option<f64> = None;
    let mut fault_seed: u64 = 0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => benches.push(args.next().unwrap_or_else(|| usage())),
            "--mech" => {
                let m = args.next().unwrap_or_else(|| usage());
                match m.parse::<Mechanism>() {
                    Ok(mech) => mechs.push(mech),
                    Err(err) => {
                        eprintln!("{err}");
                        usage()
                    }
                }
            }
            "--all" => mechs.extend([
                Mechanism::Only4K,
                Mechanism::Thp,
                Mechanism::Colt,
                Mechanism::Rmm,
                Mechanism::Tps,
                Mechanism::TpsEager,
            ]),
            "--matrix" => matrix = true,
            "--scale" => {
                let s = args.next().unwrap_or_else(|| usage());
                match s.parse::<SuiteScale>() {
                    Ok(scale) => spec = spec.scale(scale),
                    Err(err) => {
                        eprintln!("{err}");
                        usage()
                    }
                }
            }
            "--threads" => {
                let n: usize = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                spec = spec.threads(n);
            }
            "--seed" => {
                let s: u64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                spec = spec.seed(s);
            }
            "--tenants" => {
                let t = args.next().unwrap_or_else(|| usage());
                match t.parse::<TenantCount>() {
                    Ok(tenants) => spec = spec.tenants(tenants),
                    Err(err) => {
                        eprintln!("{err}");
                        usage()
                    }
                }
            }
            "--smt" => spec = spec.smt(true),
            "--virtualized" => spec = spec.virtualized(true),
            "--five-level" => spec = spec.five_level(true),
            "--threshold" => {
                let v: f64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                spec = spec.threshold(v);
            }
            "--verify" => spec = spec.verify(true),
            "--on-oom" => {
                let p = args.next().unwrap_or_else(|| usage());
                match p.parse::<OnOom>() {
                    Ok(policy) => spec = spec.on_oom(policy),
                    Err(err) => {
                        eprintln!("{err}");
                        usage()
                    }
                }
            }
            "--tenant-cap" => {
                let v = args.next().unwrap_or_else(|| usage());
                match parse_tenant_cap(&v) {
                    Some((slot, bytes)) => spec = spec.tenant_cap(slot, bytes),
                    None => {
                        eprintln!("--tenant-cap expects SLOT:BYTES, got {v:?}");
                        usage()
                    }
                }
            }
            "--json" => json = Some(args.next().unwrap_or_else(|| usage())),
            "--cell-timeout" => {
                let ms: u64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                spec = spec.cell_timeout_ms(ms);
            }
            "--retries" => {
                let n: u32 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                spec = spec.retries(n);
            }
            "--fault-rate" => {
                let p: f64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|p| (0.0..=1.0).contains(p))
                    .unwrap_or_else(|| usage());
                fault_rate = Some(p);
            }
            "--fault-seed" => {
                fault_seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--checkpoint" => {
                run.checkpoint = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--resume" => {
                run.resume = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
            }
            "--resume-salvage" => {
                run.resume = Some(PathBuf::from(args.next().unwrap_or_else(|| usage())));
                run.salvage = true;
            }
            "--force-checkpoint" => run.force_checkpoint = true,
            "--halt-after" => {
                let n: u64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                run.halt_after = Some(n);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    if matrix {
        if benches.is_empty() {
            spec = spec.suite();
        } else {
            spec = spec.benches(benches);
        }
        if mechs.is_empty() {
            spec = spec.mechanisms([
                Mechanism::Thp,
                Mechanism::Colt,
                Mechanism::Rmm,
                Mechanism::Tps,
            ]);
        } else {
            spec = spec.mechanisms(mechs);
        }
    } else {
        if benches.is_empty() {
            benches.push("gups".into());
        }
        if mechs.is_empty() {
            mechs.push(Mechanism::Tps);
        }
        spec = spec.benches(benches).mechanisms(mechs);
    }
    if let Some(rate) = fault_rate {
        spec = spec.faults(FaultPlanConfig::uniform_all(fault_seed, rate));
    }
    Options { spec, json, run }
}

fn print_report(report: &ExperimentReport) {
    println!(
        "scale: {}   smt: {}   tenants: {}   seed: {:#x}   baseline: {}",
        report.scale(),
        report.is_smt(),
        report.tenant_count(),
        report.base_seed(),
        report
            .baseline_mechanism()
            .map_or("-".into(), |m| m.to_string())
    );
    println!(
        "{:>10} {:>10} {:>12} {:>9} {:>12} {:>9} {:>10} {:>8}",
        "benchmark",
        "mechanism",
        "L1 misses",
        "hit rate",
        "walk refs",
        "faults",
        "promotions",
        "speedup"
    );
    for cell in report.cells() {
        match &cell.result {
            Ok(machine) => {
                let stats = &machine.global;
                let speedup = cell
                    .derived
                    .and_then(|d| d.speedup_vs_baseline)
                    .map_or("-".into(), |s| format!("{s:.3}x"));
                let kills = machine.killed_count();
                let killed = if kills > 0 {
                    format!("  [{kills} tenant(s) killed]")
                } else {
                    String::new()
                };
                println!(
                    "{:>10} {:>10} {:>12} {:>8.2}% {:>12} {:>9} {:>10} {:>8}{killed}",
                    cell.benchmark,
                    cell.mechanism.label(),
                    stats.mem.l1_misses(),
                    100.0 * stats.mem.l1_hit_rate(),
                    stats.walk_refs,
                    stats.os.faults,
                    stats.os.promotions,
                    speedup
                );
            }
            Err(err) => println!(
                "{:>10} {:>10} ERROR: {err}",
                cell.benchmark,
                cell.mechanism.label()
            ),
        }
    }
}

fn main() {
    let opts = parse_args();
    let matrix = match opts.spec.build() {
        Ok(matrix) => matrix,
        Err(err) => {
            eprintln!("{err}");
            usage()
        }
    };
    let report = match matrix.run_with(&opts.run) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("{err}");
            let code = if matches!(err, TpsError::CheckpointCorrupt { .. }) {
                EXIT_CHECKPOINT_CORRUPT
            } else {
                EXIT_CHECKPOINT
            };
            std::process::exit(code);
        }
    };
    print_report(&report);
    if let Some(dropped) = report.salvage_dropped() {
        eprintln!("salvage: dropped {dropped} corrupt journal entr(ies) and re-ran those cells");
    }
    if let Some(path) = opts.json {
        let doc = report.to_json() + "\n";
        if path == "-" {
            print!("{doc}");
        } else if let Err(err) = write_atomic(&RealIo, Path::new(&path), doc.as_bytes()) {
            eprintln!("cannot write {path}: {err}");
            std::process::exit(1);
        } else {
            eprintln!("wrote {path}");
        }
    }
    if report.error_count() > 0 {
        eprintln!("{} cell(s) failed", report.error_count());
        std::process::exit(EXIT_CELL_FAILURES);
    }
}
