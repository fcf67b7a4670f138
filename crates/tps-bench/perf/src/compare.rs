//! `tps-perf compare BASE.json NEW.json`: one row per workload and
//! end-to-end metric with both medians, quartiles, the delta and a
//! verdict. A metric regressed when NEW's median is worse than BASE's by
//! more than its bound (or its floor); it is unresolved when either
//! side's interquartile spread exceeds that allowance, unless every NEW
//! run beats every BASE run. Exits non-zero on any digest or counter
//! difference, any failed cell, or any regression. Per-layer metrics are
//! printed, never gated.

use crate::metrics::{Better, EndToEnd, Summary, END_TO_END};
use crate::results::Results;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × metric row.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static EndToEnd,
    pub base: Summary,
    pub new: Summary,
    pub verdict: Verdict,
}

impl Row {
    /// NEW's median relative to BASE's.
    fn delta(&self) -> f64 {
        self.new.median / self.base.median - 1.0
    }
}

/// Judges one metric's samples.
pub fn verdict(
    metric: &EndToEnd,
    base: &[f64],
    new: &[f64],
) -> Option<(Summary, Summary, Verdict)> {
    let (b, n) = (Summary::of(base)?, Summary::of(new)?);
    let allowed = (metric.bound * b.median.abs()).max(metric.floor);
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let (worse, new_beats_every_base) = match metric.better {
        Better::Lower => (n.median - b.median, max(new) < min(base)),
        Better::Higher => (b.median - n.median, min(new) > max(base)),
    };
    let spread = (b.q3 - b.q1).max(n.q3 - n.q1);
    let verdict = if spread > allowed && !new_beats_every_base {
        Verdict::Unresolved
    } else if worse > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some((b, n, verdict))
}

/// Everything `compare` found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub rows: Vec<Row>,
    /// Digest, counter, failure and shape differences; any one fails.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Regressed)
    }
}

pub fn evaluate(base: &Results, new: &Results) -> Outcome {
    let mut out = Outcome::default();
    if base.seed != new.seed {
        out.errors.push(format!(
            "seeds differ ({} vs {}): digests are comparable only at one seed",
            base.seed, new.seed
        ));
    }
    for problem in &new.problems {
        out.errors.push(format!("NEW: {problem}"));
    }
    for b in &base.workloads {
        let Some(n) = new.workloads.iter().find(|w| w.name == b.name) else {
            out.errors.push(format!("{}: missing from NEW", b.name));
            continue;
        };
        if n.failed > 0 {
            out.errors.push(format!(
                "{}: {} of {} cells failed in NEW",
                n.name, n.failed, n.attempted
            ));
        }
        if b.digest != n.digest {
            let differing = b
                .digest
                .iter()
                .zip(&n.digest)
                .filter(|(x, y)| x != y)
                .map(|(x, y)| format!("\n    BASE {x}\n    NEW  {y}"));
            let lines: String = differing.collect();
            out.errors.push(format!(
                "{}: digests differ ({} vs {} lines){lines}",
                b.name,
                b.digest.len(),
                n.digest.len()
            ));
        }
        for metric in &END_TO_END {
            match verdict(metric, b.samples(metric.name), n.samples(metric.name)) {
                Some((base, new, verdict)) => out.rows.push(Row {
                    workload: b.name.clone(),
                    metric,
                    base,
                    new,
                    verdict,
                }),
                None => out
                    .errors
                    .push(format!("{}: no {} samples", b.name, metric.name)),
            }
        }
    }
    out
}

pub fn main(args: &[String]) -> i32 {
    let [base_path, new_path] = args else {
        eprintln!("usage: tps-perf compare BASE.json NEW.json");
        return 2;
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Results::from_json(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("tps-perf compare: {e}");
            return 2;
        }
    };
    let outcome = evaluate(&base, &new);
    println!(
        "{:<16} {:<18} {:<10} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "base", "base q1..q3", "new", "new q1..q3", "delta", "bound"
    );
    for r in &outcome.rows {
        println!(
            "{:<16} {:<18} {:<10} {:>12.5} {:>25} {:>12.5} {:>25} {:>+7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric.name,
            r.metric.unit,
            r.base.median,
            format!("{:.5}..{:.5}", r.base.q1, r.base.q3),
            r.new.median,
            format!("{:.5}..{:.5}", r.new.q1, r.new.q3),
            r.delta() * 100.0,
            r.metric.bound * 100.0,
            r.verdict.label()
        );
    }
    println!("\nper layer (not gated)");
    for b in &base.workloads {
        let Some(n) = new.workloads.iter().find(|w| w.name == b.name) else {
            continue;
        };
        print_values(&b.name, &b.per_layer, &n.per_layer);
    }
    print_values("-", &base.isolations, &new.isolations);
    for e in &outcome.errors {
        eprintln!("tps-perf compare: {e}");
    }
    let regressed = outcome
        .rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    let unresolved = outcome
        .rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "\n{} rows: {regressed} regressed, {unresolved} unresolved, {} error(s)",
        outcome.rows.len(),
        outcome.errors.len()
    );
    if outcome.passed() {
        0
    } else {
        1
    }
}

fn print_values(workload: &str, base: &[(String, f64)], new: &[(String, f64)]) {
    for (name, b) in base {
        let Some((_, n)) = new.iter().find(|(m, _)| m == name) else {
            continue;
        };
        let Some(metric) = crate::metrics::per_layer(name) else {
            continue;
        };
        let delta = if *b == 0.0 || b == n {
            String::from("-")
        } else {
            let improved = (n < b) == (metric.better == Better::Lower);
            format!(
                "{:+.1}% {}",
                (n / b - 1.0) * 100.0,
                if improved { "better" } else { "worse" }
            )
        };
        println!(
            "{workload:<16} {name:<26} {:<6} {b:>14.4} {n:>14.4}  {delta}",
            metric.unit
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::WorkloadResult;

    fn results(wall: &[f64], digest: &[&str]) -> Results {
        let mut e2e: Vec<(String, Vec<f64>)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), vec![1.0, 1.01, 0.99, 1.0, 1.02]))
            .collect();
        e2e[0].1 = wall.to_vec();
        Results {
            seed: 7,
            workloads: vec![WorkloadResult {
                name: "solo-tps".into(),
                attempted: 4,
                failed: 0,
                end_to_end: e2e,
                per_layer: vec![],
                digest: digest.iter().map(|s| s.to_string()).collect(),
            }],
            isolations: vec![],
            problems: vec![],
        }
    }

    const WALL: [f64; 5] = [2.0, 2.02, 1.98, 2.01, 1.99];
    const DIGEST: [&str; 2] = [
        "solo-tps spec 0 crc32=0badf00d bytes=100",
        "solo-tps cell 0.0 gups tps accesses=10 l1=9 stlb=0 range=0 walks=1 walk_refs=4 faults=1 promotions=0 shootdowns=0",
    ];

    #[test]
    fn identical_runs_pass() {
        let outcome = evaluate(&results(&WALL, &DIGEST), &results(&WALL, &DIGEST));
        assert!(outcome.passed(), "{outcome:?}");
        assert!(outcome.rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn flags_a_one_counter_difference() {
        let mut changed = DIGEST.map(String::from);
        changed[1] = changed[1].replace("walk_refs=4", "walk_refs=5");
        let changed: Vec<&str> = changed.iter().map(String::as_str).collect();
        let outcome = evaluate(&results(&WALL, &DIGEST), &results(&WALL, &changed));
        assert!(!outcome.passed());
        assert_eq!(outcome.errors.len(), 1);
        assert!(
            outcome.errors[0].contains("walk_refs=5"),
            "{:?}",
            outcome.errors
        );
    }

    #[test]
    fn flags_a_twenty_percent_wall_regression() {
        let scaled = |factor: f64| -> Vec<f64> { WALL.iter().map(|w| w * factor).collect() };
        let outcome = evaluate(&results(&WALL, &DIGEST), &results(&scaled(1.2), &DIGEST));
        assert!(!outcome.passed());
        let wall = outcome
            .rows
            .iter()
            .find(|r| r.metric.name == "wall_s")
            .unwrap();
        assert_eq!(wall.verdict, Verdict::Regressed);
        assert!((wall.delta() - 0.2).abs() < 1e-9);
        // Just inside the bound, and any speed-up, is no regression.
        let bound = END_TO_END[0].bound;
        for factor in [1.0 + 0.9 * bound, 1.0 / 1.2] {
            let outcome = evaluate(&results(&WALL, &DIGEST), &results(&scaled(factor), &DIGEST));
            assert!(outcome.passed(), "x{factor}: {outcome:?}");
        }
    }

    #[test]
    fn noisy_metrics_are_unresolved_unless_new_wins_every_pair() {
        let wall = &END_TO_END[0];
        let noisy = [1.0, 1.5, 2.0, 2.5, 3.0];
        let (_, _, v) = verdict(wall, &noisy, &noisy).unwrap();
        assert_eq!(v, Verdict::Unresolved);
        let (_, _, v) = verdict(wall, &noisy, &[0.1, 0.2, 0.3, 0.4, 0.9]).unwrap();
        assert_eq!(v, Verdict::Ok);
        // The floor absorbs millisecond jitter in tens-of-ms set-up.
        let setup = &END_TO_END[1];
        let (_, _, v) = verdict(setup, &[0.020, 0.021, 0.022], &[0.030, 0.031, 0.032]).unwrap();
        assert_eq!(v, Verdict::Ok);
    }
}
