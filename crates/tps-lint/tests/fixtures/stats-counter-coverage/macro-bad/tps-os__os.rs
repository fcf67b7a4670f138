// fixture: crate=tps-os path=crates/tps-os/src/os.rs

tps_core::counter_table! {
    /// Aggregate OS counters, declared through the counter table.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct OsStats {
        /// mmap calls served.
        pub mmaps: u64,
        /// Demand faults handled — the counter nothing ever increments.
        pub faults: u64, //~ ERROR stats-counter-coverage
    }
}

impl Os {
    fn serve(&mut self, delta: &OsStats) {
        self.stats.mmaps += 1;
        // The generated field-wise sum moves no counter either.
        self.stats.accumulate(delta);
    }
}
