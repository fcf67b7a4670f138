//! The result document `tps-perf run` writes and `tps-perf compare`
//! reads: every end-to-end sample, the per-layer values and the digests,
//! per workload. Units, directions and bounds are not stored: both sides
//! of a comparison take them from the binary's metric catalog.

use crate::json::{self, Obj, Value};

pub const SCHEMA: &str = "tps-perf-results/v1";

/// One workload's measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    /// Cells attempted over every repetition.
    pub attempted: u64,
    /// Cells that failed, lost a tenant or missed a digest.
    pub failed: u64,
    /// End-to-end samples by metric name, one per repetition (`setup_s`
    /// has one per construct-only pass).
    pub end_to_end: Vec<(String, Vec<f64>)>,
    /// Per-layer values by metric name, from one traced pass.
    pub per_layer: Vec<(String, f64)>,
    /// Golden-digest lines of the first repetition.
    pub digest: Vec<String>,
}

impl WorkloadResult {
    pub fn samples(&self, metric: &str) -> &[f64] {
        self.end_to_end
            .iter()
            .find(|(name, _)| name == metric)
            .map_or(&[], |(_, samples)| samples)
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A whole `run`.
#[derive(Clone, Debug, PartialEq)]
pub struct Results {
    pub seed: u64,
    pub workloads: Vec<WorkloadResult>,
    /// Isolation values by metric name.
    pub isolations: Vec<(String, f64)>,
    /// Every correctness problem the run found, including bench8 counter
    /// mismatches; empty on a good run.
    pub problems: Vec<String>,
}

fn values(pairs: &[(String, f64)]) -> String {
    pairs
        .iter()
        .fold(Obj::new(), |obj, (name, v)| obj.num(name, *v))
        .finish()
}

fn strings(xs: &[String]) -> String {
    json::array(xs.iter().map(|s| json::quote(s)))
}

impl Results {
    pub fn to_json(&self) -> String {
        let workloads = self.workloads.iter().map(|w| {
            let e2e = w
                .end_to_end
                .iter()
                .fold(Obj::new(), |obj, (name, samples)| {
                    obj.raw(name, &json::array(samples.iter().map(|s| json::num(*s))))
                })
                .finish();
            Obj::new()
                .str("name", &w.name)
                .int("attempted", w.attempted)
                .int("failed", w.failed)
                .raw("end_to_end", &e2e)
                .raw("per_layer", &values(&w.per_layer))
                .raw("digest", &strings(&w.digest))
                .finish()
        });
        Obj::new()
            .str("schema", SCHEMA)
            .str("seed", &self.seed.to_string())
            .raw("workloads", &json::array(workloads))
            .raw("isolations", &values(&self.isolations))
            .raw("problems", &strings(&self.problems))
            .finish()
            + "\n"
    }

    pub fn from_json(text: &str) -> Result<Results, String> {
        let doc = json::parse(text)?;
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} document"));
        }
        let seed = doc
            .get("seed")
            .and_then(Value::as_str)
            .and_then(|s| s.parse().ok())
            .ok_or("bad \"seed\"")?;
        let numbers = |v: Option<&Value>, what: &str| -> Result<Vec<(String, f64)>, String> {
            v.and_then(Value::as_object)
                .ok_or(format!("bad {what:?}"))?
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or(format!("{what:?}.{k} is not a number"))
                })
                .collect()
        };
        let string_list = |v: Option<&Value>, what: &str| -> Result<Vec<String>, String> {
            v.and_then(Value::as_array)
                .ok_or(format!("bad {what:?}"))?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or(format!("{what:?} holds a non-string"))
        };
        let mut workloads = Vec::new();
        for w in doc
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("bad \"workloads\"")?
        {
            let name = w
                .get("name")
                .and_then(Value::as_str)
                .ok_or("workload without a name")?;
            let int = |key: &str| {
                w.get(key)
                    .and_then(Value::as_u64)
                    .ok_or(format!("{name}: bad {key:?}"))
            };
            let end_to_end = w
                .get("end_to_end")
                .and_then(Value::as_object)
                .ok_or(format!("{name}: bad \"end_to_end\""))?
                .iter()
                .map(|(metric, samples)| {
                    samples
                        .as_array()
                        .and_then(|xs| xs.iter().map(Value::as_f64).collect::<Option<Vec<_>>>())
                        .map(|xs| (metric.clone(), xs))
                        .ok_or(format!("{name}: bad samples for {metric}"))
                })
                .collect::<Result<_, _>>()?;
            workloads.push(WorkloadResult {
                name: name.to_string(),
                attempted: int("attempted")?,
                failed: int("failed")?,
                end_to_end,
                per_layer: numbers(w.get("per_layer"), "per_layer")?,
                digest: string_list(w.get("digest"), "digest")?,
            });
        }
        Ok(Results {
            seed,
            workloads,
            isolations: numbers(doc.get("isolations"), "isolations")?,
            problems: string_list(doc.get("problems"), "problems")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_round_trip() {
        let results = Results {
            seed: 7,
            workloads: vec![WorkloadResult {
                name: "solo-tps".into(),
                attempted: 20,
                failed: 0,
                end_to_end: vec![("wall_s".into(), vec![1.5, 1.6])],
                per_layer: vec![("wl.events".into(), 3.0)],
                digest: vec!["solo-tps spec 0 crc32=deadbeef bytes=9".into()],
            }],
            isolations: vec![("pt.lookup_ns".into(), 21.5)],
            problems: vec![],
        };
        assert_eq!(Results::from_json(&results.to_json()).unwrap(), results);
        assert!(Results::from_json("{}").is_err());
    }
}
