//! External-fragmentation engine.
//!
//! The paper studies TPS on a *heavily loaded* server by dumping
//! `/proc/buddyinfo` and `/proc/pid/pagemap` and replaying that state into
//! the simulator (Fig. 15/16). We have no production server, so this module
//! produces an equivalent state synthetically: a long randomized
//! allocate/free churn with a small-order-biased size distribution (as real
//! kernel allocations are), stopped when the requested free fraction is
//! reached. The result is a [`BuddyAllocator`] whose free-list histogram has
//! the paper's qualitative shape — 100 % of free memory usable at 4 KB,
//! declining coverage toward larger page sizes.

use crate::buddy::BuddyAllocator;
use tps_core::rng::Rng;
use tps_core::{PageOrder, PhysAddr};

/// Parameters of the fragmentation churn.
#[derive(Clone, Debug)]
pub struct FragmentParams {
    /// PRNG seed — the whole process is deterministic.
    pub seed: u64,
    /// Fraction of memory left free when churn finishes (e.g. 0.25).
    pub target_free_fraction: f64,
    /// Number of churn operations per megabyte of physical memory.
    pub churn_per_mib: u64,
    /// Largest block order the churn allocates (biased toward small).
    pub max_alloc_order: u8,
    /// Geometric bias of allocation sizes: probability of stopping at each
    /// order step (higher = smaller allocations dominate).
    pub small_bias: f64,
}

impl Default for FragmentParams {
    fn default() -> Self {
        FragmentParams {
            seed: 0x7a5_0001,
            target_free_fraction: 0.25,
            churn_per_mib: 64,
            max_alloc_order: 10,
            small_bias: 0.45,
        }
    }
}

/// Drives a [`BuddyAllocator`] into a fragmented state.
///
/// # Example
///
/// ```
/// use tps_mem::{BuddyAllocator, Fragmenter, FragmentParams};
/// use tps_core::PageOrder;
///
/// let mut buddy = BuddyAllocator::new(64 << 20);
/// let mut frag = Fragmenter::new(FragmentParams::default());
/// let pinned = frag.run(&mut buddy);
/// assert!(!pinned.is_empty());
/// let h = buddy.histogram();
/// // Base pages always fully usable; multi-MB contiguity is scarce.
/// assert_eq!(h.coverage(PageOrder::new(0).unwrap()), 1.0);
/// assert!(h.coverage(PageOrder::new(10).unwrap()) < 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct Fragmenter {
    params: FragmentParams,
    rng: Rng,
}

impl Fragmenter {
    /// Creates a fragmenter with the given parameters.
    pub fn new(params: FragmentParams) -> Self {
        let rng = Rng::new(params.seed);
        Fragmenter { params, rng }
    }

    /// Samples an allocation order with geometric small-size bias.
    fn sample_order(&mut self) -> PageOrder {
        let mut order = 0u8;
        while order < self.params.max_alloc_order && !self.rng.chance(self.params.small_bias) {
            order += 1;
        }
        PageOrder::new_unchecked(order)
    }

    /// Runs the churn, returning the blocks still allocated afterwards
    /// (the simulated "other tenants" of the machine). The allocator is
    /// left holding these allocations; its free space is fragmented.
    pub fn run(&mut self, buddy: &mut BuddyAllocator) -> Vec<(PhysAddr, PageOrder)> {
        let total = buddy.total_bytes();
        let target_free = (total as f64 * self.params.target_free_fraction) as u64;
        let mut live: Vec<(PhysAddr, PageOrder)> = Vec::new();

        // Phase 1: fill to ~10% free so splits permeate the space.
        let fill_floor = (total / 10).min(target_free);
        while buddy.free_bytes() > fill_floor {
            let order = self.sample_order();
            match buddy.alloc(order) {
                Ok(base) => live.push((base, order)),
                Err(_) => {
                    // No block of that order; take a base page instead.
                    match buddy.alloc(PageOrder::P4K) {
                        Ok(base) => live.push((base, PageOrder::P4K)),
                        Err(_) => break,
                    }
                }
            }
        }

        // Phase 2: churn — interleave frees and allocations so the free
        // space ends up scattered.
        let ops = self.params.churn_per_mib * (total >> 20).max(1);
        for _ in 0..ops {
            if !live.is_empty() && self.rng.chance(0.5) {
                let i = self.rng.below(live.len() as u64) as usize;
                let (base, order) = live.swap_remove(i);
                // `live` holds only real allocations, so the free cannot
                // fail; a block it refused would simply stay allocated.
                let _ = buddy.free(base, order);
            } else {
                let order = self.sample_order();
                if let Ok(base) = buddy.alloc(order) {
                    live.push((base, order));
                }
            }
        }

        // Phase 3: free random blocks until the free target is reached.
        while buddy.free_bytes() < target_free && !live.is_empty() {
            let i = self.rng.below(live.len() as u64) as usize;
            let (base, order) = live.swap_remove(i);
            let _ = buddy.free(base, order); // cannot fail, as in phase 2
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(x: u8) -> PageOrder {
        PageOrder::new(x).unwrap()
    }

    #[test]
    fn reaches_free_target() {
        let mut buddy = BuddyAllocator::new(128 << 20);
        let mut frag = Fragmenter::new(FragmentParams {
            target_free_fraction: 0.3,
            ..Default::default()
        });
        frag.run(&mut buddy);
        let free_frac = buddy.free_bytes() as f64 / buddy.total_bytes() as f64;
        assert!(free_frac >= 0.3, "free fraction {free_frac}");
        assert!(free_frac < 0.45, "should not overshoot wildly: {free_frac}");
        buddy.check_invariants().unwrap();
    }

    #[test]
    fn produces_declining_coverage_curve() {
        let mut buddy = BuddyAllocator::new(256 << 20);
        let mut frag = Fragmenter::new(FragmentParams::default());
        frag.run(&mut buddy);
        let h = buddy.histogram();
        assert_eq!(h.coverage(o(0)), 1.0);
        // Coverage is monotonically non-increasing with page size.
        let cov: Vec<f64> = (0..=12).map(|k| h.coverage(o(k))).collect();
        for w in cov.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        // Heavily fragmented: intermediate contiguity exists but big blocks
        // are scarce.
        assert!(
            h.coverage(o(3)) > 0.10,
            "some 32K contiguity: {}",
            h.coverage(o(3))
        );
        assert!(
            h.coverage(o(12)) < h.coverage(o(2)),
            "16M coverage below 16K coverage"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut buddy = BuddyAllocator::new(64 << 20);
            let mut frag = Fragmenter::new(FragmentParams {
                seed,
                ..Default::default()
            });
            let live = frag.run(&mut buddy);
            (buddy.histogram(), live.len())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).0, run(10).0);
    }

    #[test]
    fn pinned_blocks_are_really_allocated() {
        let mut buddy = BuddyAllocator::new(32 << 20);
        let mut frag = Fragmenter::new(FragmentParams::default());
        let live = frag.run(&mut buddy);
        for (base, order) in &live {
            assert!(buddy.is_allocated(*base, *order));
        }
    }
}
