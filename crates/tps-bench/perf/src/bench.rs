//! `tps-perf --workload NAME --seed N --seconds S --trace 0|1`: one
//! workload, measured for about `S` seconds, ending with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced (`--trace 0`)
//! it repeats the workload in fresh child processes and reports the
//! medians of the end-to-end metrics; traced (`--trace 1`) it reports
//! every per-layer metric from one traced pass plus the isolations.

use std::time::Instant;

use crate::json::Obj;
use crate::metrics::{Summary, END_TO_END};
use crate::trace::Spans;
use crate::workload::{self, Workload};
use crate::{isolate, layers, rep, USAGE};

struct Options {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = crate::golden::SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (known: {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<u32>()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value:?} (1..=3600)"))?
                    .into();
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

pub fn main(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("tps-perf: {e}\n{USAGE}");
            return 2;
        }
    };
    let result = if opts.trace {
        traced(&opts)
    } else {
        untraced(&opts)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(e) => {
            eprintln!("tps-perf: {e}");
            1
        }
    }
}

/// The final line: verdict, counts and `(name, value, unit)` metrics.
fn result_line(
    attempted: u64,
    failed: u64,
    problems: &[String],
    metrics: &[(&str, f64, &str)],
) -> String {
    for problem in problems {
        eprintln!("tps-perf: FAILED {problem}");
    }
    let correct =
        failed == 0 && problems.is_empty() && metrics.iter().all(|(_, v, _)| v.is_finite());
    let metrics = metrics
        .iter()
        .fold(Obj::new(), |obj, (name, value, unit)| {
            obj.raw(
                name,
                &Obj::new().num("value", *value).str("unit", unit).finish(),
            )
        })
        .finish();
    Obj::new()
        .bool("correct", correct)
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", &metrics)
        .finish()
}

/// Repetitions in fresh children until the next one would end past the
/// time budget; at least one.
fn untraced(opts: &Options) -> Result<String, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut lost = Vec::new();
    let mut last = 0.0;
    while reps.is_empty() || start.elapsed().as_secs_f64() + last <= opts.seconds {
        let t = Instant::now();
        match rep::spawn(opts.workload, opts.seed) {
            Ok(r) => {
                eprintln!(
                    "tps-perf: {} repetition {}: wall_s {:.4} peak_rss_mb {:.2}",
                    opts.workload.name,
                    reps.len() + 1,
                    r.wall_s,
                    r.peak_rss_mb()
                );
                reps.push(r);
            }
            Err(e) => lost.push(e),
        }
        last = t.elapsed().as_secs_f64();
        if lost.len() >= 3 {
            break;
        }
    }
    if reps.is_empty() {
        return Err(format!("no repetition completed: {}", lost.join("; ")));
    }
    let checked = rep::check(opts.workload, opts.seed, &reps, &lost);
    let samples = rep::end_to_end(&reps);
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(&samples)
        .map(|(metric, (_, xs))| {
            let median = Summary::of(xs).map_or(f64::NAN, |s| s.median);
            (metric.name, median, metric.unit)
        })
        .collect();
    eprintln!(
        "tps-perf: {} x{} in {:.1} s",
        opts.workload.name,
        reps.len(),
        start.elapsed().as_secs_f64()
    );
    Ok(result_line(
        checked.attempted,
        checked.failed,
        &checked.problems,
        &metrics,
    ))
}

/// One traced pass over the workload plus every isolation.
fn traced(opts: &Options) -> Result<String, String> {
    let mut spans = Spans::default();
    let layers = layers::measure(opts.workload, opts.seed, &mut spans)?;
    let (isolations, isolation_problems) = isolate::run_all();
    layers::write_sidecar(&layers::sidecar(
        opts.seed,
        &spans,
        &[(opts.workload.name, layers.histograms.clone())],
    ))?;

    let mut problems = layers.problems;
    problems.extend(isolation_problems);
    let attempted = layers.attempted + isolations.len() as u64;
    let failed = (problems.len() as u64).min(attempted);
    let metrics: Vec<(&str, f64, &str)> = layers
        .metrics
        .iter()
        .chain(&isolations)
        .map(|&(name, value)| {
            let unit = crate::metrics::per_layer(name).map_or("?", |m| m.unit);
            (name, value, unit)
        })
        .collect();
    Ok(result_line(attempted, failed, &problems, &metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let opts = parse(&args(&[
            "--workload",
            "solo-tps",
            "--seed",
            "11",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(opts.workload.name, "solo-tps");
        assert_eq!((opts.seed, opts.seconds, opts.trace), (11, 20.0, true));
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "solo-tps", "--trace", "2"],
            &["--workload", "solo-tps", "--seconds", "0"],
            &["--workload", "solo-tps", "--bogus", "1"],
            &["--workload"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(4, 0, &[], &[("wall_s", 1.25, "s")]);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(true)));
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
        let failed = json::parse(&result_line(4, 1, &[], &[])).unwrap();
        assert_eq!(failed.get("correct"), Some(&json::Value::Bool(false)));
    }
}
