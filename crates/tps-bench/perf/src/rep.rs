//! One repetition in a fresh child process. Each repetition pays the
//! process start and cold heap every `tps_run` invocation pays, and its
//! peak resident set is its own. The child (`tps-perf rep`) runs the
//! workload untraced, then the construct-only set-up passes, and prints
//! one JSON line the parent parses.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::golden;
use crate::json::{self, Obj, Value};
use crate::metrics::END_TO_END;
use crate::trace::Spans;
use crate::untraced;
use crate::workload::{self, Workload};

/// What one repetition measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rep {
    pub wall_s: f64,
    pub setup_s: Vec<f64>,
    pub accesses: u64,
    pub peak_rss_kb: u64,
    pub failed_cells: u64,
    pub digest: Vec<String>,
    pub problems: Vec<String>,
}

impl Rep {
    pub fn maccess_per_s(&self) -> f64 {
        self.accesses as f64 / self.wall_s / 1e6
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_kb as f64 / 1024.0
    }

    fn to_json(&self) -> String {
        let strings = |xs: &[String]| json::array(xs.iter().map(|s| json::quote(s)));
        Obj::new()
            .num("wall_s", self.wall_s)
            .raw(
                "setup_s",
                &json::array(self.setup_s.iter().map(|s| json::num(*s))),
            )
            .int("accesses", self.accesses)
            .int("peak_rss_kb", self.peak_rss_kb)
            .int("failed_cells", self.failed_cells)
            .raw("digest", &strings(&self.digest))
            .raw("problems", &strings(&self.problems))
            .finish()
    }

    fn from_json(v: &Value) -> Result<Rep, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("rep record lacks number {key:?}"))
        };
        let int = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("rep record lacks integer {key:?}"))
        };
        let list = |key: &str| {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("rep record lacks list {key:?}"))
        };
        let strings = |key: &str| -> Result<Vec<String>, String> {
            list(key)?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or_else(|| format!("{key:?} holds a non-string"))
        };
        Ok(Rep {
            wall_s: num("wall_s")?,
            setup_s: list("setup_s")?
                .iter()
                .map(Value::as_f64)
                .collect::<Option<_>>()
                .ok_or("\"setup_s\" holds a non-number")?,
            accesses: int("accesses")?,
            peak_rss_kb: int("peak_rss_kb")?,
            failed_cells: int("failed_cells")?,
            digest: strings("digest")?,
            problems: strings("problems")?,
        })
    }
}

/// End-to-end samples of `reps`, in catalog order: one per repetition,
/// except `setup_s`, which has one per construct-only pass.
pub fn end_to_end(reps: &[Rep]) -> Vec<(&'static str, Vec<f64>)> {
    END_TO_END
        .iter()
        .map(|metric| {
            let samples = match metric.name {
                "wall_s" => reps.iter().map(|r| r.wall_s).collect(),
                "setup_s" => reps.iter().flat_map(|r| r.setup_s.clone()).collect(),
                "sim_maccess_per_s" => reps.iter().map(Rep::maccess_per_s).collect(),
                "peak_rss_mb" => reps.iter().map(Rep::peak_rss_mb).collect(),
                other => unreachable!("end-to-end metric {other} has no sampler"),
            };
            (metric.name, samples)
        })
        .collect()
}

/// The correctness verdict over a set of repetitions.
#[derive(Debug, Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// Checks repetitions of `workload` at `seed`: the failures each child
/// reported, and every repetition's digest against the committed golden
/// digest at the golden seed, or against the first repetition's at any
/// other seed. `lost` are repetitions that produced no record; all their
/// cells count as failed.
pub fn check(workload: &Workload, seed: u64, reps: &[Rep], lost: &[String]) -> Checked {
    let cells = workload.cells(seed) as u64;
    let mut out = Checked {
        attempted: cells * (reps.len() + lost.len()) as u64,
        failed: cells * lost.len() as u64,
        problems: lost.to_vec(),
    };
    for (i, rep) in reps.iter().enumerate() {
        let diffs = if seed == golden::SEED {
            golden::mismatches(workload, &rep.digest)
        } else if rep.digest != reps[0].digest {
            vec![format!(
                "repetition {i} digest differs from repetition 0 at the same seed"
            )]
        } else {
            Vec::new()
        };
        out.failed += (rep.failed_cells + diffs.len() as u64).min(cells);
        out.problems.extend(
            rep.problems
                .iter()
                .chain(&diffs)
                .map(|p| format!("{} repetition {i}: {p}", workload.name)),
        );
    }
    out
}

/// Where repetitions write their journals and reports: beside the
/// executable, inside the build directory.
pub fn work_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("tps-perf-work")))
        .unwrap_or_else(|| PathBuf::from("tps-perf-work"))
}

/// Runs one repetition in this process: the child side.
pub fn measure(workload: &Workload, seed: u64) -> Result<Rep, String> {
    let run = untraced::run(workload, seed, &work_dir(), &mut Spans::default(), 0)?;
    // Read before the set-up passes, so the peak is the run's own.
    let peak_rss_kb = untraced::peak_rss_kb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let setup_s = untraced::setup_samples(&workload.specs(seed));
    Ok(Rep {
        wall_s: run.wall_s,
        setup_s,
        accesses: run.accesses,
        peak_rss_kb,
        failed_cells: run.failed_cells() as u64,
        digest: run.digest,
        problems: run.problems,
    })
}

/// `tps-perf rep --workload NAME --seed N`: prints one repetition's record.
pub fn child_main(args: &[String]) -> i32 {
    let (workload, seed) = match args {
        [w, name, s, seed] if w == "--workload" && s == "--seed" => {
            match (workload::find(name), seed.parse::<u64>()) {
                (Some(workload), Ok(seed)) => (workload, seed),
                _ => {
                    eprintln!("tps-perf rep: unknown workload {name:?} or bad seed {seed:?}");
                    return 2;
                }
            }
        }
        _ => {
            eprintln!("usage: tps-perf rep --workload NAME --seed N");
            return 2;
        }
    };
    match measure(workload, seed) {
        Ok(rep) => {
            println!("{}", rep.to_json());
            0
        }
        Err(e) => {
            eprintln!("tps-perf rep {}: {e}", workload.name);
            1
        }
    }
}

/// Runs one repetition in a fresh child process and waits for it.
pub fn spawn(workload: &Workload, seed: u64) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let output = Command::new(exe)
        .args([
            "rep",
            "--workload",
            workload.name,
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a repetition: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} repetition exited with {}",
            workload.name, output.status
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().unwrap_or_default();
    Rep::from_json(&json::parse(line)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let rep = Rep {
            wall_s: 2.5,
            setup_s: vec![0.031, 0.029],
            accesses: 12_200_000,
            peak_rss_kb: 14_000,
            failed_cells: 0,
            digest: vec!["w spec 0 crc32=00000000 bytes=1".into()],
            problems: vec![],
        };
        let back = Rep::from_json(&json::parse(&rep.to_json()).unwrap()).unwrap();
        assert_eq!(back, rep);
    }
}
