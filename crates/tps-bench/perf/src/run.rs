//! `tps-perf run [--seed N] [--out PATH]`: every workload, each its
//! `run_reps` times, repetitions interleaved rep-major (W1..W4, W1..W4,
//! ...) so drift on a shared machine falls on every workload alike, then
//! one traced pass per workload and the isolations once. Prints every
//! metric with its unit and sample count, writes the result document
//! `compare` reads and the `trace.json` sidecar, and exits non-zero on any
//! failure, golden-digest mismatch or bench8 counter difference.

use std::path::PathBuf;

use crate::metrics::{Summary, END_TO_END, ISOLATIONS, PER_WORKLOAD};
use crate::results::{Results, WorkloadResult};
use crate::trace::Spans;
use crate::workload::WORKLOADS;
use crate::{golden, isolate, layers, rep};

struct Options {
    seed: u64,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seed: golden::SEED,
        out: rep::work_dir().join("results.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--out" => opts.out = PathBuf::from(value),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

pub fn main(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("tps-perf run: {e}\n{}", crate::USAGE);
            return 2;
        }
    };
    let rounds = WORKLOADS.iter().map(|w| w.run_reps).max().unwrap_or(0);
    let mut reps: Vec<Vec<rep::Rep>> = vec![Vec::new(); WORKLOADS.len()];
    let mut lost: Vec<Vec<String>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 0..rounds {
        for (i, workload) in WORKLOADS.iter().enumerate() {
            if round >= workload.run_reps {
                continue;
            }
            eprintln!("tps-perf run: {} repetition {}", workload.name, round + 1);
            match rep::spawn(workload, opts.seed) {
                Ok(r) => reps[i].push(r),
                Err(e) => lost[i].push(e),
            }
        }
    }

    let mut spans = Spans::default();
    let mut histograms = Vec::new();
    let mut results = Results {
        seed: opts.seed,
        workloads: Vec::new(),
        isolations: Vec::new(),
        problems: Vec::new(),
    };
    for (i, workload) in WORKLOADS.iter().enumerate() {
        eprintln!("tps-perf run: {} traced pass", workload.name);
        let checked = rep::check(workload, opts.seed, &reps[i], &lost[i]);
        results.problems.extend(checked.problems);
        let per_layer = match layers::measure(workload, opts.seed, &mut spans) {
            Ok(l) => {
                results.problems.extend(l.problems);
                histograms.push((workload.name, l.histograms));
                l.metrics
            }
            Err(e) => {
                results.problems.push(format!("{}: {e}", workload.name));
                Vec::new()
            }
        };
        results.workloads.push(WorkloadResult {
            name: workload.name.to_string(),
            attempted: checked.attempted,
            failed: checked.failed,
            end_to_end: rep::end_to_end(&reps[i])
                .into_iter()
                .map(|(name, xs)| (name.to_string(), xs))
                .collect(),
            per_layer: per_layer
                .into_iter()
                .map(|(name, v)| (name.to_string(), v))
                .collect(),
            digest: reps[i]
                .first()
                .map(|r| r.digest.clone())
                .unwrap_or_default(),
        });
    }
    eprintln!("tps-perf run: isolations");
    let (isolations, isolation_problems) = isolate::run_all();
    results.problems.extend(isolation_problems);
    results.isolations = isolations
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect();

    print_table(&results);
    let mut code = 0;
    if let Err(e) = layers::write_sidecar(&layers::sidecar(opts.seed, &spans, &histograms)) {
        eprintln!("tps-perf run: {e}");
        code = 1;
    }
    match std::fs::write(&opts.out, results.to_json()) {
        Ok(()) => eprintln!("tps-perf run: wrote {}", opts.out.display()),
        Err(e) => {
            eprintln!("tps-perf run: cannot write {}: {e}", opts.out.display());
            code = 1;
        }
    }
    for problem in &results.problems {
        eprintln!("tps-perf run: FAILED {problem}");
    }
    let failed: u64 = results.workloads.iter().map(|w| w.failed).sum();
    if failed > 0 || !results.problems.is_empty() {
        code = 1;
    }
    code
}

fn print_table(results: &Results) {
    for workload in &WORKLOADS {
        println!("{:<16} {}", workload.name, workload.why);
    }
    println!(
        "\n{:<16} {:<26} {:<10} {:>3} {:>12} {:>12} {:>12}  better",
        "workload", "metric", "unit", "n", "median", "q1", "q3"
    );
    for w in &results.workloads {
        for metric in &END_TO_END {
            match Summary::of(w.samples(metric.name)) {
                Some(s) => println!(
                    "{:<16} {:<26} {:<10} {:>3} {:>12.6} {:>12.6} {:>12.6}  {}",
                    w.name,
                    metric.name,
                    metric.unit,
                    s.n,
                    s.median,
                    s.q1,
                    s.q3,
                    metric.better.label()
                ),
                None => println!("{:<16} {:<26} no samples", w.name, metric.name),
            }
        }
        println!(
            "{:<16} {:<26} {:<10} {:>3} {:>12}",
            w.name,
            "fail_ratio",
            "ratio",
            w.attempted,
            w.fail_ratio()
        );
    }
    println!("\nper layer: one traced pass per workload (n = 1)");
    for w in &results.workloads {
        for ((name, value), metric) in w.per_layer.iter().zip(&PER_WORKLOAD) {
            println!(
                "{:<16} {:<26} {:<10} {:>3} {:>12.4}",
                w.name, name, metric.unit, 1, value
            );
        }
    }
    println!("\nisolations: pinned inputs, run once per `run`");
    for ((name, value), metric) in results.isolations.iter().zip(&ISOLATIONS) {
        println!(
            "{:<16} {:<26} {:<10} {:>3} {:>12.4}",
            "-",
            name,
            metric.unit,
            isolate::samples(name),
            value
        );
    }
}
