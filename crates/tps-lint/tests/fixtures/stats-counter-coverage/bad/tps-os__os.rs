// fixture: crate=tps-os path=crates/tps-os/src/os.rs

impl Os {
    fn serve(&mut self) {
        self.stats.mmaps += 1;
    }
}

impl OsStats {
    /// A field-wise sum moves no counter: it must not satisfy the rule
    /// for `faults`, which nothing else increments.
    fn accumulate(&mut self, delta: &OsStats) {
        self.mmaps += delta.mmaps;
        self.faults += delta.faults;
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_increments_do_not_count() {
        let mut s = OsStats::default();
        s.faults += 1;
    }
}
