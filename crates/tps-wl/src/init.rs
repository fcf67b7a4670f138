//! Initialization-sweep wrapper.
//!
//! Real applications fault their data structures in during startup (file
//! loading, `calloc` zeroing, table initialization) before entering the
//! measured access pattern. [`Initialized`] reproduces that: after the
//! inner workload's leading `Mmap` events, it emits one write per 4 KB page
//! of every mapped region, then resumes the inner stream. This is what
//! lets reservation-based policies (THP and TPS alike) finish their page
//! promotions early, as they do for the paper's start-to-finish traces.

use crate::event::{Event, Workload, WorkloadProfile};
use tps_core::BASE_PAGE_SHIFT;

/// Wraps a workload with a page-granular initialization sweep.
#[derive(Clone, Debug)]
pub struct Initialized<W> {
    inner: W,
    /// Regions gathered from the leading mmap events: (region, bytes).
    regions: Vec<(u32, u64)>,
    /// The first non-mmap event, held back until the sweep finishes.
    deferred: Option<Event>,
    phase: Phase,
    cursor_region: usize,
    cursor_page: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Mmaps,
    Sweep,
    Compute,
    Barrier,
    Run,
}

impl<W: Workload> Initialized<W> {
    /// Wraps `inner`.
    pub fn new(inner: W) -> Self {
        Initialized {
            inner,
            regions: Vec::new(),
            deferred: None,
            phase: Phase::Mmaps,
            cursor_region: 0,
            cursor_page: 0,
        }
    }

    /// Consumes the wrapper, returning the inner workload.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Workload> Workload for Initialized<W> {
    fn profile(&self) -> WorkloadProfile {
        self.inner.profile()
    }

    fn next_event(&mut self) -> Option<Event> {
        loop {
            match self.phase {
                Phase::Mmaps => match self.inner.next_event() {
                    Some(e @ Event::Mmap { region, bytes }) => {
                        self.regions.push((region, bytes));
                        return Some(e);
                    }
                    other => {
                        self.deferred = other;
                        self.phase = Phase::Sweep;
                    }
                },
                Phase::Sweep => {
                    while self.cursor_region < self.regions.len() {
                        let (region, bytes) = self.regions[self.cursor_region];
                        let pages = bytes.div_ceil(1 << BASE_PAGE_SHIFT);
                        if self.cursor_page < pages {
                            let offset = self.cursor_page << BASE_PAGE_SHIFT;
                            self.cursor_page += 1;
                            return Some(Event::Access {
                                region,
                                offset,
                                write: true,
                            });
                        }
                        self.cursor_region += 1;
                        self.cursor_page = 0;
                    }
                    self.phase = Phase::Compute;
                }
                Phase::Compute => {
                    // Real initialization executes far more than one
                    // instruction per page (zeroing, parsing, building):
                    // account ~1k instructions per initialized page so
                    // full-run instruction counts stay realistic.
                    self.phase = Phase::Barrier;
                    let pages: u64 = self
                        .regions
                        .iter()
                        .map(|(_, b)| b.div_ceil(1 << BASE_PAGE_SHIFT))
                        .sum();
                    return Some(Event::Compute {
                        insts: pages * 1024,
                    });
                }
                Phase::Barrier => {
                    self.phase = Phase::Run;
                    return Some(Event::StatsBarrier);
                }
                Phase::Run => {
                    if let Some(e) = self.deferred.take() {
                        return Some(e);
                    }
                    return self.inner.next_event();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gups::{Gups, GupsParams};
    use tps_core::BASE_PAGE_SIZE;

    #[test]
    fn sweep_touches_every_page_before_run() {
        let inner = Gups::new(GupsParams {
            table_bytes: 64 << 10, // 16 pages
            updates: 5,
            seed: 1,
        });
        let mut w = Initialized::new(inner);
        assert!(matches!(w.next_event(), Some(Event::Mmap { .. })));
        // 16 init writes at page stride.
        for i in 0..16u64 {
            match w.next_event() {
                Some(Event::Access {
                    offset,
                    write: true,
                    ..
                }) => {
                    assert_eq!(offset, i * BASE_PAGE_SIZE)
                }
                other => panic!("expected init write, got {other:?}"),
            }
        }
        // Then the init-work accounting, the ROI barrier, and the 5 updates.
        assert!(matches!(w.next_event(), Some(Event::Compute { insts }) if insts == 16 * 1024));
        assert!(matches!(w.next_event(), Some(Event::StatsBarrier)));
        let rest: Vec<_> = std::iter::from_fn(|| w.next_event()).collect();
        assert_eq!(rest.len(), 5);
    }

    #[test]
    fn profile_passes_through() {
        let w = Initialized::new(Gups::new(GupsParams::default()));
        assert_eq!(w.profile().name, "gups");
    }
}
