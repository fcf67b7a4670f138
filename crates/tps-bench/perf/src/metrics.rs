//! The metric catalog — the single list `BENCHMARK.json`, the benchmark
//! form's output, `run`'s table and `compare` all follow — plus the summary
//! statistics every timing is reported with.

/// Which direction of change is an improvement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: measured with tracing off, one sample per
/// repetition, gated by `compare`.
#[derive(Copy, Clone, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Largest relative worsening of the median that is not a regression.
    pub bound: f64,
    /// Absolute worsening always tolerated, in the metric's unit: set-up
    /// of a solo workload is tens of milliseconds, where a relative bound
    /// alone would gate on scheduler noise.
    pub floor: f64,
}

/// End-to-end metrics, in report order.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.18,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.025,
    },
    EndToEnd {
        name: "sim_maccess_per_s",
        unit: "Maccess/s",
        better: Better::Higher,
        bound: 0.18,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
    },
];

/// One per-layer metric: reported, never gated. Counts that repeat
/// exactly are direction-less; they are marked by which way means less
/// host work.
#[derive(Copy, Clone, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

impl PerLayer {
    const fn new(name: &'static str, unit: &'static str, better: Better) -> Self {
        PerLayer { name, unit, better }
    }
}

/// Per-layer metrics measured on the traced pass over the run's workload.
/// Layer prefixes name the module timed: `wl` = tps-wl, `machine` =
/// tps-sim::machine, `os` = tps-os, `experiment` = tps-sim::experiment.
pub const PER_WORKLOAD: [PerLayer; 22] = [
    PerLayer::new("wl.build_s", "s", Better::Lower),
    PerLayer::new("wl.next_event_ns", "ns", Better::Lower),
    PerLayer::new("wl.events", "count", Better::Lower),
    PerLayer::new("machine.build_s", "s", Better::Lower),
    PerLayer::new("machine.step_l1_ns", "ns", Better::Lower),
    PerLayer::new("machine.step_stlb_ns", "ns", Better::Lower),
    PerLayer::new("machine.step_walk_ns", "ns", Better::Lower),
    PerLayer::new("machine.step_fault_ns", "ns", Better::Lower),
    PerLayer::new("machine.step_map_ns", "ns", Better::Lower),
    PerLayer::new("machine.step_p99_ns", "ns", Better::Lower),
    PerLayer::new("machine.l1_n", "count", Better::Higher),
    PerLayer::new("machine.stlb_n", "count", Better::Lower),
    PerLayer::new("machine.range_n", "count", Better::Lower),
    PerLayer::new("machine.walk_n", "count", Better::Lower),
    PerLayer::new("machine.fault_n", "count", Better::Lower),
    PerLayer::new("os.promotions_n", "count", Better::Lower),
    PerLayer::new("os.shootdowns_n", "count", Better::Lower),
    PerLayer::new("experiment.run_with_s", "s", Better::Lower),
    PerLayer::new("experiment.to_json_ms", "ms", Better::Lower),
    PerLayer::new("experiment.publish_ms", "ms", Better::Lower),
    PerLayer::new("experiment.report_kb", "kB", Better::Lower),
    PerLayer::new("trace.overhead_pct", "%", Better::Lower),
];

/// Per-layer isolations: pinned inputs, independent of the workload.
/// `mmu` = tps-sim::mmu, `tlb` = tps-tlb, `pt` = tps-pt plus
/// tps-sim::nested, `os` = tps-os, `mem` = tps-mem.
pub const ISOLATIONS: [PerLayer; 19] = [
    PerLayer::new("mmu.xlate_ns.thp", "ns", Better::Lower),
    PerLayer::new("mmu.xlate_ns.tps", "ns", Better::Lower),
    PerLayer::new("mmu.xlate_ns.colt", "ns", Better::Lower),
    PerLayer::new("mmu.xlate_ns.rmm", "ns", Better::Lower),
    PerLayer::new("tlb.l1_hit_ns.set_assoc", "ns", Better::Lower),
    PerLayer::new("tlb.l1_hit_ns.any_size", "ns", Better::Lower),
    PerLayer::new("tlb.stlb_hit_ns", "ns", Better::Lower),
    PerLayer::new("pt.lookup_ns", "ns", Better::Lower),
    PerLayer::new("pt.walk_cold_ns", "ns", Better::Lower),
    PerLayer::new("pt.walk_cached_ns", "ns", Better::Lower),
    PerLayer::new("pt.nested_ref_ns", "ns", Better::Lower),
    PerLayer::new("os.fault_ns.thp", "ns", Better::Lower),
    PerLayer::new("os.fault_ns.tps", "ns", Better::Lower),
    PerLayer::new("os.fault_ns.rmm", "ns", Better::Lower),
    PerLayer::new("os.fault_promotions.thp", "count", Better::Lower),
    PerLayer::new("os.fault_promotions.tps", "count", Better::Lower),
    PerLayer::new("os.fault_promotions.rmm", "count", Better::Lower),
    PerLayer::new("mem.alloc_free_ns.4k", "ns", Better::Lower),
    PerLayer::new("mem.alloc_free_ns.2m", "ns", Better::Lower),
];

/// The per-layer metric called `name`.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_WORKLOAD
        .iter()
        .chain(ISOLATIONS.iter())
        .find(|m| m.name == name)
}

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` ("exclusive" method) gives them;
/// for fewer than two samples every quartile is the one sample.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut xs = samples.to_vec();
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        match n {
            0 => None,
            1 => Some(Summary {
                q1: xs[0],
                median: xs[0],
                q3: xs[0],
                n,
            }),
            _ => {
                // CPython's formula verbatim, including its linear
                // extrapolation when the position is clamped.
                let quantile = |i: usize| {
                    let m = i * (n + 1);
                    let j = (m / 4).clamp(1, n - 1);
                    let delta = m as f64 - (j * 4) as f64;
                    (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
                };
                Some(Summary {
                    q1: quantile(1),
                    median: quantile(2),
                    q3: quantile(3),
                    n,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[4.0, 2.0, 3.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        assert_eq!(Summary::of(&[4.0]).unwrap().median, 4.0);
        assert!(Summary::of(&[]).is_none());
    }
}
