//! Graph500: Kronecker (R-MAT) graph generation plus BFS traversal.
//!
//! The generator builds a real CSR graph in host memory (deterministically,
//! from the seed) and replays the memory accesses a level-synchronous BFS
//! performs over it: frontier pops, offset-array reads, adjacency scans and
//! visited-bitmap updates. Adjacency scans have run-length locality; vertex
//! lookups are effectively random — the mix that makes Graph500 respond
//! well to TPS but only partially to CoLT (paper Figs. 10/16).
//!
//! Construction is the host cost of the workload (seconds at `small`
//! scale), so it runs on every core the host offers, in parts, and the CSR
//! it yields does not depend on the part count: it is bit for bit the graph
//! one sequential pass over one xoshiro256++ stream yields. The edge list is
//! cut into contiguous chunks, and each chunk's generator jumps straight to
//! the chunk's first draw ([`Rng::advance`]). The counting-sort scatter is
//! cut by source-vertex range; each part scans the whole edge list in
//! generation order, so each vertex's neighbours keep that order.
//!
//! Each R-MAT level compares one raw `u64` draw against integer thresholds
//! that are exact images of the float quadrant bounds, which yields bit for
//! bit the graph a `next_f64() < p` cascade yields from the same stream. The
//! adjacency is stored as `u32` vertex ids (`scale <= 26`); the simulated
//! regions keep their 8-byte entries, so the replayed accesses are the same.

use crate::event::{Event, Workload, WorkloadProfile};
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::thread;
use tps_core::rng::Rng;

/// Graph500 parameters.
#[derive(Copy, Clone, Debug)]
pub struct Graph500Params {
    /// log2 of the vertex count (Graph500 "scale").
    pub scale: u32,
    /// Average directed edges per vertex.
    pub edge_factor: u32,
    /// Number of BFS roots to traverse from.
    pub bfs_roots: u32,
    /// Cap on emitted access events (0 = unlimited).
    pub max_accesses: u64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for Graph500Params {
    fn default() -> Self {
        Graph500Params {
            scale: 19,
            edge_factor: 8,
            bfs_roots: 4,
            max_accesses: 4_000_000,
            seed: 0x6500,
        }
    }
}

/// Region ids used by the generator.
const R_XADJ: u32 = 0; // CSR offsets: (n+1) * 8 bytes
const R_ADJ: u32 = 1; // CSR adjacency: m * 8 bytes
const R_VISITED: u32 = 2; // parent + distance arrays: n * 16 bytes
const R_QUEUE: u32 = 3; // frontier queue: n * 8 bytes

/// Cumulative R-MAT quadrant bounds: A = 0.57, A + B = 0.76 and
/// A + B + C = 0.95 (B = C = 0.19, D = 0.05). A level's draw `r` picks the
/// first quadrant whose bound exceeds it.
const RMAT_BOUNDS: [f64; 3] = [0.57, 0.76, 0.95];

/// The smallest 53-bit draw `k` with `k · 2⁻⁵³ ≥ p`, for `p` in `[0, 1]`.
///
/// [`Rng::next_f64`] returns `(x >> 11) · 2⁻⁵³`. Converting a 53-bit
/// integer to `f64` is exact, and so is scaling by a power of two, so
/// `next_f64() < p` holds exactly when `x >> 11 < p · 2⁵³`, a comparison of
/// reals. `p · 2⁵³` is itself exact in `f64` for the same reason, and for an
/// integer `k` the comparison is `k < ⌈p · 2⁵³⌉`.
fn draw_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// One R-MAT level from one raw draw `x`: the quadrant's (row, column) bits.
///
/// With `a`, `b`, `c` the draw being at or above each of the three
/// thresholds, the quadrants 00, 01, 10, 11 are `abc` = 000, 100, 110, 111,
/// so the row bit is `b` and the column bit is `a ^ b ^ c`. Branch-free:
/// the quadrant is random, so a branch on it mispredicts often.
#[inline(always)]
fn rmat_quadrant(x: u64, thresholds: &[u64; 3]) -> (u32, u32) {
    let k = x >> 11;
    let a = u32::from(k >= thresholds[0]);
    let b = u32::from(k >= thresholds[1]);
    let c = u32::from(k >= thresholds[2]);
    (b, a ^ b ^ c)
}

/// The `m` R-MAT edges in generation order, drawn in `parts` contiguous
/// chunks on scoped threads. Edge `i` starts at draw `i · scale` of the
/// seed's stream, so each chunk's generator jumps there and the list is the
/// one a single sequential pass draws.
fn rmat_edges(params: Graph500Params, m: usize, parts: usize) -> Vec<(u32, u32)> {
    let thresholds = RMAT_BOUNDS.map(draw_threshold);
    let mut edges = vec![(0u32, 0u32); m];
    // `chunks_mut(0)` panics, and `m` is 0 when `edge_factor` is.
    let chunk = m.div_ceil(parts).max(1);
    thread::scope(|s| {
        for (i, part) in edges.chunks_mut(chunk).enumerate() {
            s.spawn(move || {
                let mut rng = Rng::new(params.seed);
                rng.advance((i * chunk) as u64 * u64::from(params.scale));
                for edge in part {
                    let (mut u, mut v) = (0u32, 0u32);
                    for _ in 0..params.scale {
                        let (bu, bv) = rmat_quadrant(rng.next_u64(), &thresholds);
                        u = (u << 1) | bu;
                        v = (v << 1) | bv;
                    }
                    *edge = (u, v);
                }
            });
        }
    });
    edges
}

/// The CSR offsets (`n + 1`) and adjacency of `edges` over `n` vertices: a
/// stable counting sort by source.
///
/// Out-degrees are counted into `xadj` shifted by two and prefix-summed in
/// place, both sequentially; the scatter then runs through `xadj` itself, so
/// no degree or cursor array is allocated. The scatter is cut into `parts`
/// source-vertex ranges of about `m / parts` edges each, cut where the
/// prefix sums cross `k · m / parts`; R-MAT degrees are skewed, so an even
/// vertex split would give the first range most of the edges. Each range's
/// thread scans the whole list in generation order and writes only its own
/// offsets and runs, so the sort stays stable for any `parts`.
fn csr(n: usize, edges: &[(u32, u32)], parts: usize) -> (Vec<u64>, Vec<u32>) {
    let m = edges.len();
    // xadj[u + 2] counts u's out-degree, in a pass of its own: inside the
    // draw loop, the cache-missing increment stalls the draws for longer
    // than this whole pass takes.
    let mut xadj = vec![0u64; n + 2];
    for &(u, _) in edges {
        xadj[u as usize + 2] += 1;
    }
    // Inclusive prefix sum: xadj[u + 1] is now the start of u's run, for u
    // in 0..=n (u = n: the end, m).
    for i in 1..xadj.len() {
        xadj[i] += xadj[i - 1];
    }
    let run_start = &xadj[1..];
    // (first vertex, start of its run) of each range, then (n, m).
    let cuts: Vec<(usize, u64)> = (0..=parts)
        .map(|k| {
            let target = (k * m / parts) as u64;
            let v = if k == parts {
                n
            } else {
                run_start.partition_point(|&s| s < target)
            };
            (v, run_start[v])
        })
        .collect();
    // Scatter through xadj[u + 1], which ends at the start of u + 1's run:
    // xadj[0..=n] is then the CSR offsets and the last slot spare.
    let mut adj = vec![0u32; m];
    thread::scope(|s| {
        let mut cursors = &mut xadj[1..=n];
        let mut runs = adj.as_mut_slice();
        for w in cuts.windows(2) {
            let ((lo, base), (hi, end)) = (w[0], w[1]);
            let (part_cursors, rest) = std::mem::take(&mut cursors).split_at_mut(hi - lo);
            cursors = rest;
            let (part_runs, rest) = std::mem::take(&mut runs).split_at_mut((end - base) as usize);
            runs = rest;
            if !part_cursors.is_empty() {
                s.spawn(move || scatter(edges, lo, base, part_cursors, part_runs));
            }
        }
    });
    xadj.pop();
    (xadj, adj)
}

/// Scatters the targets of the edges whose source lies in
/// `lo..lo + cursors.len()`: `cursors[u - lo]` is the next slot of `u`'s
/// run, counted from the start of the whole adjacency, and `runs` is the
/// adjacency from `base` on.
fn scatter(edges: &[(u32, u32)], lo: usize, base: u64, cursors: &mut [u64], runs: &mut [u32]) {
    for &(u, v) in edges {
        let i = (u as usize).wrapping_sub(lo);
        if let Some(slot) = cursors.get_mut(i) {
            runs[(*slot - base) as usize] = v;
            *slot += 1;
        }
    }
}

/// The Graph500 generator.
#[derive(Clone, Debug)]
pub struct Graph500 {
    params: Graph500Params,
    xadj: Vec<u64>,
    /// Neighbour ids; `scale <= 26`, so they fit in `u32`. The simulated
    /// adjacency region still holds 8-byte entries.
    adj: Vec<u32>,
    /// Pending events to drain before stepping the BFS.
    pending: VecDeque<Event>,
    /// BFS state.
    visited: Vec<bool>,
    queue: VecDeque<u64>,
    queue_emitted: u64,
    roots_left: u32,
    rng: Rng,
    emitted: u64,
    setup_done: bool,
}

impl Graph500 {
    /// Builds the graph and prepares the BFS replay.
    ///
    /// Each of the `n · edge_factor` edges takes `scale` R-MAT levels, one
    /// `next_u64` draw per level, compared against the quadrant bounds
    /// through exact integer thresholds (see `draw_threshold`). The
    /// adjacency is a stable counting sort of the edge list by source, so
    /// each vertex's neighbours keep their generation order.
    ///
    /// The draws and the scatter run in as many parts as
    /// [`std::thread::available_parallelism`] reports, on scoped threads;
    /// the CSR, and the stream position the BFS roots are drawn from, are
    /// the same for every part count (see `rmat_edges` and `csr`). The edge
    /// list is dropped before the BFS state is built.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is 0 or larger than 26 (host-memory guard).
    pub fn new(params: Graph500Params) -> Self {
        let parts = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Self::build(params, parts)
    }

    /// [`Graph500::new`] in `parts` parts.
    fn build(params: Graph500Params, parts: usize) -> Self {
        assert!((1..=26).contains(&params.scale), "scale out of range");
        let n = 1usize << params.scale;
        let m = n * params.edge_factor as usize;
        let (xadj, adj) = {
            let edges = rmat_edges(params, m, parts);
            csr(n, &edges, parts)
        };
        // Where one sequential stream would stand after the edge draws.
        let mut rng = Rng::new(params.seed);
        rng.advance(m as u64 * u64::from(params.scale));
        Graph500 {
            params,
            xadj,
            adj,
            pending: VecDeque::new(),
            visited: vec![false; n],
            queue: VecDeque::new(),
            queue_emitted: 0,
            roots_left: params.bfs_roots,
            rng,
            emitted: 0,
            setup_done: false,
        }
    }

    fn n(&self) -> u64 {
        1u64 << self.params.scale
    }

    fn start_next_root(&mut self) -> bool {
        while self.roots_left > 0 {
            self.roots_left -= 1;
            // Graph500 samples search keys among vertices with degree >= 1,
            // so retry the draw (bounded, to stay total when every such
            // vertex is already visited) instead of dropping the root.
            for _ in 0..4 * self.n() {
                let root = self.rng.below(self.n());
                if !self.visited[root as usize]
                    && self.xadj[root as usize] != self.xadj[root as usize + 1]
                {
                    self.visited[root as usize] = true;
                    self.queue.push_back(root);
                    return true;
                }
            }
        }
        false
    }

    /// Runs one BFS vertex expansion, queueing its memory accesses.
    fn step(&mut self) -> bool {
        let u = loop {
            match self.queue.pop_front() {
                Some(u) => break u,
                None => {
                    if !self.start_next_root() {
                        return false;
                    }
                }
            }
        };
        // Pop from the frontier queue (sequential).
        self.pending.push_back(Event::Access {
            region: R_QUEUE,
            offset: (self.queue_emitted % self.n()) * 8,
            write: false,
        });
        self.queue_emitted += 1;
        // Read xadj[u] and xadj[u+1] (adjacent words: one page).
        self.pending.push_back(Event::Access {
            region: R_XADJ,
            offset: u * 8,
            write: false,
        });
        let (start, end) = (self.xadj[u as usize], self.xadj[u as usize + 1]);
        // Scan the adjacency run at cache-line granularity.
        let mut line = u64::MAX;
        for e in start..end {
            let l = (e * 8) / 64;
            if l != line {
                line = l;
                self.pending.push_back(Event::Access {
                    region: R_ADJ,
                    offset: e * 8,
                    write: false,
                });
            }
            let v = u64::from(self.adj[e as usize]);
            // Visited check: a random-vertex lookup (16 B of metadata:
            // parent + distance).
            self.pending.push_back(Event::Access {
                region: R_VISITED,
                offset: v * 16,
                write: false,
            });
            if !self.visited[v as usize] {
                self.visited[v as usize] = true;
                self.queue.push_back(v);
                // Parent write.
                self.pending.push_back(Event::Access {
                    region: R_VISITED,
                    offset: v * 16,
                    write: true,
                });
            }
        }
        true
    }
}

impl Workload for Graph500 {
    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile {
            name: "graph500".into(),
            base_cpi: 0.7,
            insts_per_access: 8.0,
            l1_miss_criticality: 0.3,
            walk_savable: 0.75,
            smt_slowdown: 1.3,
        }
    }

    fn next_event(&mut self) -> Option<Event> {
        if !self.setup_done {
            self.setup_done = true;
            let n = self.n();
            let m = self.adj.len() as u64;
            self.pending.extend([
                Event::Mmap {
                    region: R_XADJ,
                    bytes: (n + 1) * 8,
                },
                Event::Mmap {
                    region: R_ADJ,
                    bytes: m.max(1) * 8,
                },
                Event::Mmap {
                    region: R_VISITED,
                    bytes: n * 16,
                },
                Event::Mmap {
                    region: R_QUEUE,
                    bytes: n * 8,
                },
            ]);
        }
        loop {
            if let Some(e) = self.pending.pop_front() {
                if matches!(e, Event::Access { .. }) {
                    if self.params.max_accesses != 0 && self.emitted >= self.params.max_accesses {
                        return None;
                    }
                    self.emitted += 1;
                }
                return Some(e);
            }
            if !self.step() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Graph500Params {
        Graph500Params {
            scale: 10,
            edge_factor: 8,
            bfs_roots: 4,
            max_accesses: 0,
            seed: 42,
        }
    }

    /// FNV-1a over `xadj` then `adj`, each value widened to a little-endian
    /// `u64`, so the pin does not depend on the host element types.
    fn csr_hash(g: &Graph500) -> u64 {
        let values = g
            .xadj
            .iter()
            .copied()
            .chain(g.adj.iter().map(|&a| u64::from(a)));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for value in values {
            for byte in value.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn csr_is_pinned() {
        // (scale, edge_factor, seed) -> FNV-1a of the CSR. Any change to the
        // R-MAT stream, the edge order or the counting sort moves these.
        let pins = [
            (10, 8, 42, 0xa8fe_ff4f_270a_f029u64),
            (12, 8, 7, 0x59ff_9a1b_e51d_d32b),
            (14, 4, 0x6500, 0x59ee_d547_43dd_d4cc),
            (16, 6, 1, 0x24e3_b905_ea1d_dc44),
        ];
        for (scale, edge_factor, seed, want) in pins {
            let g = Graph500::new(Graph500Params {
                scale,
                edge_factor,
                seed,
                ..small()
            });
            assert_eq!(g.xadj.len(), (1usize << scale) + 1);
            assert_eq!(g.adj.len(), (edge_factor as usize) << scale);
            assert_eq!(
                csr_hash(&g),
                want,
                "scale {scale} edge_factor {edge_factor} seed {seed:#x}"
            );
        }
    }

    /// The quadrant choice before the integer thresholds: a branch cascade
    /// on [`Rng::next_f64`].
    fn quadrant_reference(r: f64) -> (u32, u32) {
        if r < 0.57 {
            (0, 0)
        } else if r < 0.76 {
            (0, 1)
        } else if r < 0.95 {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    /// The CSR as it was built before the integer thresholds: float draws,
    /// separate degree and cursor arrays, `u64` adjacency. Also returns the
    /// generator, whose later draws pick the BFS roots.
    fn reference_csr(params: Graph500Params) -> (Vec<u64>, Vec<u64>, Rng) {
        let n = 1usize << params.scale;
        let m = n * params.edge_factor as usize;
        let mut rng = Rng::new(params.seed);
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m);
        for _ in 0..m {
            let (mut u, mut v) = (0u32, 0u32);
            for _ in 0..params.scale {
                let (bu, bv) = quadrant_reference(rng.next_f64());
                u = (u << 1) | bu;
                v = (v << 1) | bv;
            }
            edges.push((u, v));
        }
        let mut degree = vec![0u64; n];
        for &(u, _) in &edges {
            degree[u as usize] += 1;
        }
        let mut xadj = vec![0u64; n + 1];
        for i in 0..n {
            xadj[i + 1] = xadj[i] + degree[i];
        }
        let mut cursor = xadj.clone();
        let mut adj = vec![0u64; m];
        for &(u, v) in &edges {
            adj[cursor[u as usize] as usize] = u64::from(v);
            cursor[u as usize] += 1;
        }
        (xadj, adj, rng)
    }

    /// [`Rng::next_f64`]'s mapping from a raw draw.
    fn as_f64(x: u64) -> f64 {
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    #[test]
    fn thresholds_are_exact_at_their_edges() {
        for p in [0.57, 0.76, 0.95] {
            let t = draw_threshold(p);
            for k in [t - 1, t, t + 1] {
                // The 11 bits next_f64 drops must not matter either.
                for x in [k << 11, (k << 11) | 0x7ff] {
                    assert_eq!(x >> 11 < t, as_f64(x) < p, "p {p} k {k}");
                }
            }
            assert!(as_f64((t - 1) << 11) < p && as_f64(t << 11) >= p);
        }
        let thresholds = RMAT_BOUNDS.map(draw_threshold);
        for t in thresholds {
            for x in [(t - 1) << 11, t << 11, (t + 1) << 11] {
                assert_eq!(rmat_quadrant(x, &thresholds), quadrant_reference(as_f64(x)));
            }
        }
    }

    #[test]
    fn integer_quadrants_match_the_float_cascade() {
        let thresholds = RMAT_BOUNDS.map(draw_threshold);
        let (mut raw, mut float) = (Rng::new(0x6500), Rng::new(0x6500));
        let mut seen = [0u32; 4];
        for _ in 0..1 << 20 {
            let (bu, bv) = rmat_quadrant(raw.next_u64(), &thresholds);
            assert_eq!((bu, bv), quadrant_reference(float.next_f64()));
            seen[(bu * 2 + bv) as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "quadrant counts {seen:?}");
    }

    #[test]
    fn csr_matches_the_float_reference() {
        for (scale, edge_factor, seed) in [(1, 3, 5), (2, 0, 9), (5, 16, 3), (11, 8, 0xbeef)] {
            let params = Graph500Params {
                scale,
                edge_factor,
                seed,
                ..small()
            };
            let mut g = Graph500::new(params);
            let (xadj, adj, mut rng) = reference_csr(params);
            assert_eq!(g.xadj, xadj, "scale {scale} edge_factor {edge_factor}");
            let widened: Vec<u64> = g.adj.iter().map(|&v| u64::from(v)).collect();
            assert_eq!(widened, adj, "scale {scale} edge_factor {edge_factor}");
            assert_eq!(g.rng.next_u64(), rng.next_u64(), "stream position");
        }
    }

    #[test]
    fn part_count_does_not_matter() {
        // (2, 0, 9) has no edges; (1, 3, 5) has fewer edges than most part
        // counts, so some chunks and vertex ranges are empty.
        for (scale, edge_factor, seed) in [(2, 0, 9), (1, 3, 5), (5, 16, 3), (10, 8, 42)] {
            let params = Graph500Params {
                scale,
                edge_factor,
                seed,
                ..small()
            };
            let (xadj, adj, rng) = reference_csr(params);
            for parts in [1, 2, 3, 4, 7, 64] {
                let mut g = Graph500::build(params, parts);
                let case = format!("scale {scale} edge_factor {edge_factor} parts {parts}");
                assert_eq!(g.xadj, xadj, "{case}");
                let widened: Vec<u64> = g.adj.iter().map(|&v| u64::from(v)).collect();
                assert_eq!(widened, adj, "{case}");
                assert_eq!(
                    g.rng.next_u64(),
                    rng.clone().next_u64(),
                    "{case}: stream position"
                );
            }
        }
    }

    #[test]
    fn emits_mmaps_then_accesses() {
        let mut g = Graph500::new(small());
        for expected in [R_XADJ, R_ADJ, R_VISITED, R_QUEUE] {
            match g.next_event() {
                Some(Event::Mmap { region, bytes }) => {
                    assert_eq!(region, expected);
                    assert!(bytes > 0);
                }
                other => panic!("expected mmap, got {other:?}"),
            }
        }
        assert!(matches!(g.next_event(), Some(Event::Access { .. })));
    }

    #[test]
    fn accesses_stay_in_bounds() {
        let mut g = Graph500::new(small());
        let n = 1u64 << 10;
        let m = g.adj.len() as u64;
        let mut count = 0u64;
        while let Some(e) = g.next_event() {
            if let Event::Access { region, offset, .. } = e {
                let limit = match region {
                    R_XADJ => (n + 1) * 8,
                    R_ADJ => m * 8,
                    R_VISITED => n * 16,
                    R_QUEUE => n * 8,
                    _ => panic!("unknown region"),
                };
                assert!(offset < limit, "region {region} offset {offset}");
                count += 1;
            }
        }
        // BFS from 4 roots over a 1K-vertex graph visits plenty.
        assert!(count > 1000, "only {count} accesses");
    }

    #[test]
    fn bfs_visits_most_of_the_giant_component() {
        let mut g = Graph500::new(small());
        while g.next_event().is_some() {}
        let visited = g.visited.iter().filter(|&&v| v).count();
        // R-MAT graphs have a giant component holding most non-isolated
        // vertices.
        assert!(visited > 300, "visited {visited}");
    }

    #[test]
    fn max_accesses_caps_the_run() {
        let mut p = small();
        p.max_accesses = 500;
        let mut g = Graph500::new(p);
        let mut count = 0;
        while let Some(e) = g.next_event() {
            if matches!(e, Event::Access { .. }) {
                count += 1;
            }
        }
        assert_eq!(count, 500);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut g = Graph500::new(small());
            let mut sum = 0u64;
            while let Some(Event::Access { offset, .. } | Event::Mmap { bytes: offset, .. }) =
                g.next_event()
            {
                sum = sum.wrapping_mul(31).wrapping_add(offset);
            }
            sum
        };
        assert_eq!(run(), run());
    }
}
