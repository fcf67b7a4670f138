// fixture: crate=tps-os path=crates/tps-os/src/os.rs

tps_core::counter_table! {
    /// Aggregate OS counters, declared through the counter table.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct OsStats {
        /// mmap calls served.
        pub mmaps: u64,
        /// Demand faults handled.
        pub faults: u64,
    }
}

impl Os {
    fn serve(&mut self) {
        self.stats.mmaps += 1;
        self.stats.faults += 1;
    }
}
