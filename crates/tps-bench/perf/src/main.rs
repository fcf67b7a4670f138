//! `tps-perf`: the repository benchmark. Host time of the simulator end to
//! end on four workloads, split per layer by a traced pass and pinned
//! isolations, with golden digests of every simulated counter and a
//! compare gate. See `README.md` beside this crate.
//!
//! ```sh
//! cargo run --release --manifest-path crates/tps-bench/perf/Cargo.toml -- run
//! cargo run --release --manifest-path crates/tps-bench/perf/Cargo.toml -- \
//!     --workload solo-tps --seed 7 --seconds 30 --trace 0
//! ```

mod bench;
mod compare;
mod golden;
mod isolate;
mod json;
mod layers;
mod metrics;
mod rep;
mod results;
mod run;
mod trace;
mod untraced;
mod workload;

pub const USAGE: &str =
    "usage: tps-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
                         tps-perf run [--seed N] [--out PATH]\n       \
                         tps-perf compare BASE.json NEW.json\n       \
                         tps-perf golden";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run::main(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("golden") => golden::main(&args[1..]),
        Some("rep") => rep::child_main(&args[1..]),
        Some(flag) if flag.starts_with("--") => bench::main(&args),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use crate::json::{self, Value};
    use crate::metrics::{END_TO_END, ISOLATIONS, PER_WORKLOAD};
    use crate::workload::WORKLOADS;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn keys(v: &Value) -> Vec<&str> {
        v.as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    /// `BENCHMARK.json` names exactly this runner's workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_runner() {
        let doc = json::parse(include_str!("../../../../BENCHMARK.json")).unwrap();
        assert_eq!(
            keys(&doc),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let paths = doc.get("paths").unwrap().as_array().unwrap();
        assert_eq!(paths, [Value::Str("crates/tps-bench/perf".into())]);
        let seconds = doc.get("run_seconds").unwrap().as_u64().unwrap();
        assert!((1..=60).contains(&seconds));

        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        assert!((2..=8).contains(&workloads.len()));
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, workload) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(keys(entry), ["name", "why"]);
            assert_eq!(entry.get("name").unwrap().as_str(), Some(workload.name));
            assert_eq!(entry.get("why").unwrap().as_str(), Some(workload.why));
            assert!(is_name(workload.name) && workload.why.len() <= 200);
        }

        let end_to_end = doc.get("end_to_end").unwrap().as_array().unwrap();
        assert!((1..=16).contains(&end_to_end.len()));
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, metric) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
            assert_eq!(entry.get("name").unwrap().as_str(), Some(metric.name));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(metric.unit));
            assert_eq!(
                entry.get("better").unwrap().as_str(),
                Some(metric.better.label())
            );
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(metric.bound));
            assert!(metric.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

        let per_layer = doc.get("per_layer").unwrap().as_array().unwrap();
        let catalog: Vec<_> = PER_WORKLOAD.iter().chain(ISOLATIONS.iter()).collect();
        assert!((1..=128).contains(&per_layer.len()));
        assert_eq!(per_layer.len(), catalog.len());
        for (entry, metric) in per_layer.iter().zip(&catalog) {
            assert_eq!(keys(entry), ["name", "unit", "better"]);
            assert_eq!(entry.get("name").unwrap().as_str(), Some(metric.name));
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(metric.unit));
            assert_eq!(
                entry.get("better").unwrap().as_str(),
                Some(metric.better.label())
            );
        }

        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(catalog.iter().map(|m| m.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "every name is used once");
        assert!(names.iter().all(|n| is_name(n)));
        assert!(END_TO_END.iter().all(|m| is_unit(m.unit)));
        assert!(catalog.iter().all(|m| is_unit(m.unit)));
    }

    /// Every catalogued metric is emitted, in catalog order, by the code
    /// that produces it.
    #[test]
    fn every_listed_metric_is_emitted() {
        let samples = crate::rep::end_to_end(&[crate::rep::Rep::default()]);
        let emitted: Vec<&str> = samples.iter().map(|(name, _)| *name).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(emitted, listed);

        let mut spans = crate::trace::Spans::default();
        let layers = crate::layers::measure(&crate::workload::TINY, 3, &mut spans).unwrap();
        assert!(layers.problems.is_empty(), "{:?}", layers.problems);
        let emitted: Vec<&str> = layers.metrics.iter().map(|(name, _)| *name).collect();
        let listed: Vec<&str> = PER_WORKLOAD.iter().map(|m| m.name).collect();
        assert_eq!(emitted, listed);
        let sidecar = crate::layers::sidecar(3, &spans, &[("tiny", layers.histograms)]);
        let sidecar = json::parse(&sidecar).unwrap();
        let names: Vec<&str> = sidecar
            .get("trace")
            .and_then(|t| t.get("self_ns"))
            .map(keys)
            .unwrap();
        for name in [
            "workload",
            "experiment.run_with",
            "machine.steps",
            "wl.build",
        ] {
            assert!(names.contains(&name), "{name} missing from {names:?}");
        }

        let (isolations, problems) = crate::isolate::run_all();
        assert!(problems.is_empty(), "{problems:?}");
        let emitted: Vec<&str> = isolations.iter().map(|(name, _)| *name).collect();
        let listed: Vec<&str> = ISOLATIONS.iter().map(|m| m.name).collect();
        assert_eq!(emitted, listed);
        for ((name, value), metric) in isolations.iter().zip(&ISOLATIONS) {
            // A time is never 0; a promotion count may be (RMM maps
            // eagerly and never promotes).
            let ok = value.is_finite() && (*value > 0.0 || metric.unit == "count");
            assert!(ok, "{name} = {value}");
        }
    }
}
