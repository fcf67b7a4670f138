//! The traced pass: drives each cell's machine event by event from the
//! outside, timing every `Workload::next_event` and `Machine::step` call
//! and bucketing each step by the counters it moved. Spans around the
//! calls into each layer go to a `trace.json` sidecar.
//!
//! The pass mirrors `Machine::run`: `TenantSpec::external` tenants fed
//! from `tps_wl::build_seeded` at the cell's tenant seeds, round-robin
//! over the live tenants, and one `Machine::run()` at the end to finalize.
//! A tenant whose stream ends early stays in the shared TLBs until then,
//! where `Machine::run` would retire it at once; the faithfulness guard
//! (traced counters equal to the untraced report's) catches that and any
//! other divergence.

use std::time::Instant;

use tps_sim::{ExperimentSpec, MachineBuilder, MachineRunStats, TenantSpec};
use tps_wl::{build_seeded, Event, Workload};

use crate::json::{self, Obj};
use crate::untraced::CellCounters;
use crate::workload::tenant_seeds;

/// What a step did, judged by the counters it moved. An RMM range-TLB hit
/// counts as `Stlb`: both serve an L1 miss at the second level without a
/// walk.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Bucket {
    L1,
    Stlb,
    Walk,
    Fault,
    /// `mmap` or `munmap`.
    Map,
    /// Compute and statistics-barrier events.
    Other,
}

impl Bucket {
    pub const ALL: [Bucket; 6] = [
        Bucket::L1,
        Bucket::Stlb,
        Bucket::Walk,
        Bucket::Fault,
        Bucket::Map,
        Bucket::Other,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Bucket::L1 => "l1",
            Bucket::Stlb => "stlb",
            Bucket::Walk => "walk",
            Bucket::Fault => "fault",
            Bucket::Map => "map",
            Bucket::Other => "other",
        }
    }
}

/// Sub-buckets per power of two: fine enough that a percentile read from
/// the histogram moves with the data rather than snapping to a power of
/// two.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Count, total and a log-linear histogram of nanosecond durations.
#[derive(Clone)]
pub struct Hist {
    pub count: u64,
    pub total_ns: u64,
    buckets: Vec<u64>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            total_ns: 0,
            buckets: vec![0; BUCKETS],
        }
    }
}

/// Bucket index of `ns`: exact below `SUB`, then `SUB` linear steps per
/// power of two.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros(); // >= SUB_BITS
    let sub = (ns >> (octave - SUB_BITS)) as usize & (SUB - 1);
    (octave - SUB_BITS + 1) as usize * SUB + sub
}

/// The `[lo, hi)` range of values bucket `index` holds.
fn bucket_range(index: usize) -> (f64, f64) {
    if index < SUB {
        return (index as f64, index as f64 + 1.0);
    }
    let octave = (index / SUB) as i32 + SUB_BITS as i32 - 1;
    // In f64: the top bucket ends at 2^64, past u64.
    let width = 2f64.powi(octave - SUB_BITS as i32);
    let lo = 2f64.powi(octave) + (index % SUB) as f64 * width;
    (lo, lo + width)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.buckets[bucket_of(ns)] += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Mean duration; 0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// The `q` quantile, interpolated linearly inside its bucket.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * self.count as f64;
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            if n > 0 && (seen + n) as f64 >= rank {
                let (lo, hi) = bucket_range(index);
                let frac = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
            seen += n;
        }
        bucket_range(BUCKETS - 1).1
    }

    /// Counts per power of two (`[2^i, 2^(i+1))`, bucket 0 holding 0 ns),
    /// trimmed after the last non-empty one: the form the sidecar keeps.
    fn log2_counts(&self) -> Vec<u64> {
        let mut out = vec![0u64; 65];
        for (index, &n) in self.buckets.iter().enumerate() {
            let lo = bucket_range(index).0 as u64;
            let slot = if lo == 0 {
                0
            } else {
                64 - lo.leading_zeros() as usize
            };
            out[slot] += n;
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    pub fn to_json(&self) -> String {
        Obj::new()
            .int("count", self.count)
            .int("total_ns", self.total_ns)
            .num("mean_ns", self.mean_ns())
            .num("p50_ns", self.quantile_ns(0.5))
            .num("p99_ns", self.quantile_ns(0.99))
            .raw(
                "log2_ns",
                &json::array(self.log2_counts().iter().map(u64::to_string)),
            )
            .finish()
    }
}

/// One timed span: a call into a layer, with the span that caused it.
struct Span {
    id: usize,
    /// 0 for a root span.
    parent: usize,
    name: &'static str,
    label: String,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans recorded in memory and written out when the benchmark ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Opens a span under `parent` (0 for a root) and returns its id.
    pub fn open(&mut self, parent: usize, name: &'static str, label: impl Into<String>) -> usize {
        let id = self.spans.len() + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            label: label.into(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        id
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id - 1];
        span.dur_ns = now - span.start_ns;
        span.dur_ns as f64 / 1e9
    }

    /// Self time per span name: each span's duration minus what its
    /// children cover, summed by name, in first-seen order.
    pub fn self_ns(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for span in &self.spans {
            child_ns[span.parent] += span.dur_ns;
        }
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for span in &self.spans {
            let own = span.dur_ns.saturating_sub(child_ns[span.id]);
            match out.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += own,
                None => out.push((span.name, own)),
            }
        }
        out
    }

    pub fn to_json(&self) -> String {
        let spans = self.spans.iter().map(|s| {
            Obj::new()
                .int("id", s.id as u64)
                .int("parent", s.parent as u64)
                .str("name", s.name)
                .str("label", &s.label)
                .int("start_ns", s.start_ns)
                .int("dur_ns", s.dur_ns)
                .finish()
        });
        let self_ns = self
            .self_ns()
            .into_iter()
            .fold(Obj::new(), |obj, (name, ns)| obj.int(name, ns));
        Obj::new()
            .raw("spans", &json::array(spans))
            .raw("self_ns", &self_ns.finish())
            .finish()
    }
}

/// The per-step counters the bucketing reads: per tenant, from
/// `Machine::counters(t).full`.
#[derive(Copy, Clone, Default, PartialEq, Eq)]
struct StepCounters {
    l1: u64,
    stlb: u64,
    range: u64,
    walks: u64,
}

/// What one traced pass over a workload's cells measured.
#[derive(Default)]
pub struct TracedRun {
    pub wl_build_s: f64,
    pub machine_build_s: f64,
    pub next_event: Hist,
    /// Step histograms, indexed like [`Bucket::ALL`].
    pub steps: Vec<Hist>,
    /// Range-TLB hits among the `Stlb` steps.
    pub range_steps: u64,
    pub events: u64,
    /// Counters per cell, in spec then cell order; `None` when a tenant
    /// faulted.
    pub cells: Vec<Option<CellCounters>>,
    pub problems: Vec<String>,
}

impl TracedRun {
    pub fn bucket(&self, bucket: Bucket) -> &Hist {
        &self.steps[bucket as usize]
    }

    /// Every step, whatever its bucket.
    pub fn all_steps(&self) -> Hist {
        let mut all = Hist::default();
        for h in &self.steps {
            all.merge(h);
        }
        all
    }
}

/// Runs the traced pass over `specs`, recording spans under `parent`.
pub fn run(specs: &[ExperimentSpec], spans: &mut Spans, parent: usize) -> TracedRun {
    let mut out = TracedRun {
        steps: vec![Hist::default(); Bucket::ALL.len()],
        ..TracedRun::default()
    };
    for spec in specs {
        let matrix = spec.clone().build().expect("workload specs are valid");
        for cell in matrix.cells() {
            let label = format!("{} {}", cell.benchmark(), cell.mechanism().cli_name());
            let cell_span = spans.open(parent, "cell", label.as_str());
            let stats = run_cell(spec, cell, spans, cell_span, &mut out);
            spans.close(cell_span);
            match stats {
                Ok(stats) => out.cells.push(Some(CellCounters::of(&stats.global))),
                Err(problem) => {
                    out.problems.push(format!("{label}: {problem}"));
                    out.cells.push(None);
                }
            }
        }
    }
    out
}

fn run_cell(
    spec: &ExperimentSpec,
    cell: &tps_sim::ExperimentCell,
    spans: &mut Spans,
    cell_span: usize,
    out: &mut TracedRun,
) -> Result<MachineRunStats, String> {
    let span = spans.open(cell_span, "wl.build", "");
    let mut workloads: Vec<Box<dyn Workload>> = tenant_seeds(spec, cell)
        .into_iter()
        .map(|seed| build_seeded(cell.benchmark(), spec.suite_scale(), seed))
        .collect();
    out.wl_build_s += spans.close(span);

    let span = spans.open(cell_span, "machine.build", "");
    let tenants = (0..workloads.len()).map(|_| TenantSpec::external(cell.benchmark()));
    let mut machine = MachineBuilder::new(spec.machine_config(cell.mechanism()))
        .tenants(tenants)
        .on_oom(spec.oom_policy())
        .build()
        .map_err(|e| format!("machine build failed: {e}"))?;
    out.machine_build_s += spans.close(span);

    let span = spans.open(cell_span, "machine.steps", "");
    let mut seen = vec![StepCounters::default(); workloads.len()];
    let mut faults = machine.os().stats().faults;
    let mut live: Vec<usize> = (0..workloads.len()).collect();
    let mut cursor = 0usize;
    let mut problem = None;
    while !live.is_empty() {
        // Scheduler::RoundRobin, as Machine::run rotates.
        if cursor >= live.len() {
            cursor = 0;
        }
        let pick = cursor;
        cursor += 1;
        let slot = live[pick];

        let t0 = Instant::now();
        let event = workloads[slot].next_event();
        let t1 = Instant::now();
        out.next_event.record((t1 - t0).as_nanos() as u64);
        let result = event.map(|event| {
            let is_map = matches!(event, Event::Mmap { .. } | Event::Munmap { .. });
            (is_map, machine.step(slot, event))
        });
        let ns = t1.elapsed().as_nanos() as u64;
        let is_map = match result {
            Some((is_map, Ok(()))) => is_map,
            // The stream ended, or the tenant faulted: it leaves the
            // rotation, keeping the survivors' order.
            end => {
                if let Some((_, Err(fault))) = end {
                    problem.get_or_insert(format!("tenant {slot} faulted: {fault}"));
                    machine.kill_tenant(slot, fault.cause());
                }
                live.remove(pick);
                if pick < cursor {
                    cursor -= 1;
                }
                continue;
            }
        };
        out.events += 1;

        let full = &machine.counters(slot).full;
        let now = StepCounters {
            l1: full.mem.l1_hits,
            stlb: full.mem.stlb_hits,
            range: full.mem.range_hits,
            walks: full.walks,
        };
        let faults_now = machine.os().stats().faults;
        let before = std::mem::replace(&mut seen[slot], now);
        let bucket = if is_map {
            Bucket::Map
        } else if faults_now != faults {
            Bucket::Fault
        } else if now.walks != before.walks {
            Bucket::Walk
        } else if now.stlb != before.stlb || now.range != before.range {
            out.range_steps += now.range - before.range;
            Bucket::Stlb
        } else if now.l1 != before.l1 {
            Bucket::L1
        } else {
            Bucket::Other
        };
        faults = faults_now;
        out.steps[bucket as usize].record(ns);
    }
    spans.close(span);

    let span = spans.open(cell_span, "machine.finalize", "");
    let stats = machine.run();
    spans.close(span);
    match problem {
        Some(problem) => Err(problem),
        None => Ok(stats),
    }
}

/// Checks the traced counters against an untraced run's, cell by cell.
pub fn guard(
    traced: &[Option<CellCounters>],
    untraced: &[crate::untraced::CellResult],
) -> Vec<String> {
    if traced.len() != untraced.len() {
        return vec![format!(
            "traced pass ran {} cells, the untraced run {}",
            traced.len(),
            untraced.len()
        )];
    }
    traced
        .iter()
        .zip(untraced)
        .filter(|(t, u)| t.is_none() || *t != &u.counters)
        .map(|(t, u)| {
            format!(
                "{} {}: traced counters {t:?} differ from untraced {:?}",
                u.benchmark, u.mechanism, u.counters
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_sim::{Mechanism, TenantCount};
    use tps_wl::SuiteScale;

    #[test]
    fn histogram_buckets_cover_every_value_once() {
        let mut previous_hi = 0.0;
        for index in 0..BUCKETS {
            let (lo, hi) = bucket_range(index);
            assert_eq!(
                lo, previous_hi,
                "bucket {index} starts where the last ended"
            );
            assert!(hi > lo);
            previous_hi = hi;
        }
        for ns in [0, 1, 15, 16, 17, 31, 32, 1000, 123_456_789, (1 << 52) + 3] {
            let (lo, hi) = bucket_range(bucket_of(ns));
            assert!(lo <= ns as f64 && (ns as f64) < hi, "{ns} in [{lo}, {hi})");
        }
    }

    #[test]
    fn quantiles_interpolate_inside_buckets() {
        let mut h = Hist::default();
        for ns in 1..=1000 {
            h.record(ns);
        }
        let p99 = h.quantile_ns(0.99);
        assert!((980.0..=1000.0).contains(&p99), "p99 {p99}");
        assert!((h.mean_ns() - 500.5).abs() < 1e-9);
        assert_eq!(h.log2_counts().iter().sum::<u64>(), 1000);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::default();
        let root = spans.open(0, "workload", "w");
        let a = spans.open(root, "child", "");
        let b = spans.open(root, "child", "");
        for (id, dur_ns) in [(root, 100), (a, 40), (b, 10)] {
            spans.spans[id - 1].dur_ns = dur_ns;
        }
        let own = spans.self_ns();
        assert_eq!(own, vec![("workload", 50), ("child", 50)]);
    }

    /// The traced pass reproduces `Machine::run` exactly on a test-scale
    /// 8-tenant gups cell.
    #[test]
    fn traced_counters_equal_machine_run() {
        let spec = ExperimentSpec::new()
            .bench("gups")
            .mechanism(Mechanism::Tps)
            .scale(SuiteScale::Test)
            .tenants(TenantCount::new(8).unwrap())
            .seed(7)
            .threads(1);
        let report = spec.clone().build().unwrap().run();
        let expect = CellCounters::of(&report.cells()[0].result.as_ref().unwrap().global);
        let mut spans = Spans::default();
        let traced = run(&[spec], &mut spans, 0);
        assert!(traced.problems.is_empty(), "{:?}", traced.problems);
        assert_eq!(traced.cells, vec![Some(expect.clone())]);
        let steps = traced.all_steps().count;
        assert_eq!(steps, traced.events);
        assert!(traced.bucket(Bucket::Map).count >= 8, "every tenant maps");
        assert!(traced.bucket(Bucket::Fault).count > 0);
        assert_eq!(
            traced.bucket(Bucket::L1).count
                + traced.bucket(Bucket::Stlb).count
                + traced.bucket(Bucket::Walk).count
                + traced.bucket(Bucket::Fault).count,
            expect.accesses,
            "every access lands in exactly one translation bucket"
        );
    }
}
