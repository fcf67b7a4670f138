//! Golden digests at the default seed: every workload's report CRC32 per
//! spec and counters per cell, committed as `golden-seed-7.txt`. A change
//! that keeps behaviour reproduces them line for line; one that changes
//! behaviour on purpose regenerates them with `tps-perf golden` and says
//! why.

use crate::trace::Spans;
use crate::workload::{Workload, WORKLOADS};

/// The seed the golden digests were taken at; other seeds skip the check.
pub const SEED: u64 = 7;

/// The committed digests.
const GOLDEN: &str = include_str!("../golden-seed-7.txt");

/// The committed digest lines of `workload`.
pub fn expected(workload: &Workload) -> Vec<&'static str> {
    let prefix = format!("{} ", workload.name);
    GOLDEN
        .lines()
        .filter(|line| line.starts_with(&prefix))
        .collect()
}

/// Lines of `digest` that differ from the committed digest of
/// `workload`, position by position, each described for a report.
pub fn mismatches(workload: &Workload, digest: &[String]) -> Vec<String> {
    let expected = expected(workload);
    let mut out = Vec::new();
    for i in 0..expected.len().max(digest.len()) {
        match (expected.get(i), digest.get(i)) {
            (Some(want), Some(got)) if *want == got => {}
            (want, got) => out.push(format!(
                "golden line {i}: expected {:?}, got {:?}",
                want.copied().unwrap_or("<none>"),
                got.map_or("<none>", String::as_str)
            )),
        }
    }
    out
}

/// `tps-perf golden`: runs every workload once at [`SEED`] and prints the
/// digest file to stdout.
pub fn main(args: &[String]) -> i32 {
    if !args.is_empty() {
        eprintln!("usage: tps-perf golden > crates/tps-bench/perf/golden-seed-7.txt");
        return 2;
    }
    println!("# tps-perf golden digests at --seed {SEED}: per spec the CRC32 and length of");
    println!("# the published report, per cell the full-run counters of the machine rollup.");
    println!("# Regenerate with `tps-perf golden` only when behaviour changes on purpose.");
    for workload in &WORKLOADS {
        match crate::untraced::run(
            workload,
            SEED,
            &crate::rep::work_dir(),
            &mut Spans::default(),
            0,
        ) {
            Ok(run) => {
                for problem in &run.problems {
                    eprintln!("{}: {problem}", workload.name);
                }
                for line in &run.digest {
                    println!("{line}");
                }
            }
            Err(e) => {
                eprintln!("{}: {e}", workload.name);
                return 1;
            }
        }
    }
    0
}
