//! Plumbing shared by the seeded schedule campaigns ([`crate::chaos`] and
//! [`crate::containment`]): the campaign configuration, the per-schedule
//! seed, and the pinned failure record.

/// SplitMix64's golden-gamma increment, reused to spread schedule indices.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Configuration of one seeded schedule campaign.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleConfig {
    /// Number of seeded schedules to run.
    pub schedules: u64,
    /// Campaign base seed; every schedule's randomness derives from
    /// `seed ^ (index * GOLDEN)`, so a failing index replays alone.
    pub seed: u64,
}

impl ScheduleConfig {
    /// The seed schedule `schedule` derives all of its randomness from.
    pub fn schedule_seed(&self, schedule: u64) -> u64 {
        self.seed ^ schedule.wrapping_mul(GOLDEN)
    }
}

/// One pinned schedule failure: everything needed to replay it.
#[derive(Clone, Debug)]
pub struct ScheduleFailure {
    /// The schedule's index within the campaign.
    pub schedule: u64,
    /// The schedule's derived seed (what the campaign's `run_schedule`
    /// re-derives).
    pub seed: u64,
    /// What contract broke.
    pub detail: String,
}

impl std::fmt::Display for ScheduleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "schedule {} (seed {:#x}): {}",
            self.schedule, self.seed, self.detail
        )
    }
}
