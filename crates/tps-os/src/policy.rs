//! Paging policy configuration (paper §III-B).

use tps_core::PageOrder;

/// The paging policies studied in the paper's evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// Demand paging with 4 KB pages only (THP disabled).
    Only4K,
    /// Every fault eagerly maps the enclosing 2 MB region with a 2 MB page
    /// (the exclusive-2MB memory-bloat study, Fig. 9).
    Only2M,
    /// Reservation-based Transparent Huge Pages: 2 MB frame reservations,
    /// 4 KB demand mapping, promotion to 2 MB at full utilization — the
    /// paper's baseline for Figs. 10–14.
    #[default]
    Thp,
    /// Tailored Page Sizes with frame reservations and threshold-driven
    /// promotion through every power-of-two size (§III-B1).
    Tps,
    /// TPS with eager paging: the whole request is mapped at `mmap` time
    /// with the exact-span page decomposition (best walk reduction, worst
    /// allocation latency).
    TpsEager,
    /// Redundant Memory Mappings: eager paging + OS range table; page
    /// table itself uses conventional sizes (4 KB / 2 MB).
    Rmm,
}

impl PolicyKind {
    /// All policy kinds, in evaluation order.
    pub fn all() -> [PolicyKind; 6] {
        [
            PolicyKind::Only4K,
            PolicyKind::Only2M,
            PolicyKind::Thp,
            PolicyKind::Tps,
            PolicyKind::TpsEager,
            PolicyKind::Rmm,
        ]
    }

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Only4K => "4K-only",
            PolicyKind::Only2M => "2M-only",
            PolicyKind::Thp => "THP",
            PolicyKind::Tps => "TPS",
            PolicyKind::TpsEager => "TPS-eager",
            PolicyKind::Rmm => "RMM",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How a TPS reservation sizes itself relative to the request (§III-B2,
/// internal fragmentation).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum ReservationRounding {
    /// Conservative: the fewest pages exactly spanning the request
    /// (aligned 28 KB → 16 K + 8 K + 4 K). Zero internal fragmentation.
    #[default]
    ExactSpan,
    /// Aggressive: one block of the smallest power of two covering the
    /// request (2052 KB → 4 MB) — up to ~50 % internal fragmentation,
    /// fewest TLB entries.
    PowerOfTwo,
}

/// Full paging-policy configuration.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct PolicyConfig {
    /// Which policy runs.
    pub kind: PolicyKind,
    /// Utilization fraction an aligned region must reach before promotion
    /// (1.0 = the paper's conservative no-bloat setting).
    pub promotion_threshold: f64,
    /// Largest page order any policy will create.
    pub max_order: PageOrder,
    /// Reservation sizing mode for TPS.
    pub rounding: ReservationRounding,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            kind: PolicyKind::Thp,
            promotion_threshold: 1.0,
            max_order: PageOrder::P1G,
            rounding: ReservationRounding::ExactSpan,
        }
    }
}

impl PolicyConfig {
    /// Default configuration for a given policy kind.
    pub fn new(kind: PolicyKind) -> Self {
        PolicyConfig {
            kind,
            ..Default::default()
        }
    }

    /// Sets the promotion threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold <= 1`.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1]"
        );
        self.promotion_threshold = threshold;
        self
    }

    /// Chooses the reservation rounding mode.
    #[must_use]
    pub fn with_rounding(mut self, rounding: ReservationRounding) -> Self {
        self.rounding = rounding;
        self
    }
}

/// Cost model for OS work, in core cycles (system-time accounting for the
/// paper's Fig. 17). Values are calibration knobs, not measurements.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed cost of taking any page fault (trap + handler entry/exit).
    pub fault_base: u64,
    /// Cost per PTE store.
    pub pte_write: u64,
    /// Cost per buddy-allocator operation (alloc/free incl. splits/merges).
    pub buddy_op: u64,
    /// Cost of zeroing one newly delivered 4 KB page.
    pub zero_4k: u64,
    /// Cost of creating or consulting a reservation entry.
    pub reservation_op: u64,
    /// Fixed extra cost of a page promotion.
    pub promote_op: u64,
    /// Cost of issuing one TLB shootdown.
    pub shootdown: u64,
    /// Cost of migrating one 4 KB page during compaction.
    pub compact_page: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            fault_base: 1200,
            pte_write: 12,
            buddy_op: 150,
            zero_4k: 500,
            reservation_op: 200,
            promote_op: 400,
            shootdown: 800,
            compact_page: 600,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_unique() {
        let labels: Vec<_> = PolicyKind::all().iter().map(|p| p.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn builder_chain() {
        let c = PolicyConfig::new(PolicyKind::Tps)
            .with_threshold(0.5)
            .with_rounding(ReservationRounding::PowerOfTwo);
        assert_eq!(c.kind, PolicyKind::Tps);
        assert_eq!(c.promotion_threshold, 0.5);
        assert_eq!(c.rounding, ReservationRounding::PowerOfTwo);
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn rejects_zero_threshold() {
        let _ = PolicyConfig::default().with_threshold(0.0);
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(PolicyKind::Tps.to_string(), "TPS");
        assert_eq!(PolicyKind::Thp.to_string(), "THP");
    }
}
