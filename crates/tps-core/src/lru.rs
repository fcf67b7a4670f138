//! The one set-associative true-LRU store behind every TLB and MMU cache.
//!
//! Every translation cache in this reproduction differs only in how it
//! indexes a set and what an entry covers (a page mask, a CoLT run, an RMM
//! range, a page-walk prefix). Replacement and shootdown are the same in
//! all of them, so they live here once. A store is `sets × ways` entries;
//! one set makes it fully associative. The structures are small — at most
//! a few dozen entries per set — so a linear scan with a logical timestamp
//! models true LRU faithfully and is plenty fast.
//!
//! The replacement contract, on which the byte identity of every report
//! rests:
//!
//! * the victim is the first entry of the set with the smallest stamp;
//! * an update in place keeps the entry's position in its set;
//! * a fill into a set with room appends;
//! * removal ([`LruStore::retain_set`], [`LruStore::shoot_down`], an
//!   abandoned fill) keeps the survivors in order.
//!
//! # Example
//!
//! ```
//! use tps_core::lru::LruStore;
//! let mut c = LruStore::new(1, 2); // fully associative, two entries
//! c.fill(0, (1, "a"), |e| e.0 == 1);
//! c.fill(0, (2, "b"), |e| e.0 == 2);
//! assert_eq!(c.lookup(0, |e| e.0 == 1), Some(&(1, "a"))); // refreshes 1
//! c.fill(0, (3, "c"), |e| e.0 == 3);                      // evicts 2
//! assert!(c.lookup(0, |e| e.0 == 2).is_none());
//! assert!(c.lookup(0, |e| e.0 == 1).is_some());
//! ```

use crate::{PageOrder, VirtAddr};

/// Address-space identifier tagging every cached translation, so hardware
/// threads and processes can share one structure.
pub type Asid = u16;

/// What a shootdown needs to know about a cached entry.
pub trait CachedSpan {
    /// Address space the entry belongs to.
    fn asid(&self) -> Asid;
    /// Base-page VPNs the entry translates, as `[start, end)`.
    fn span(&self) -> (u64, u64);
}

/// A TLB shootdown: which entries every structure must drop.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Invalidation {
    /// Entries of `asid` overlapping base pages `[start, end)`.
    Range {
        /// Address space shot down.
        asid: Asid,
        /// First base-page VPN.
        start: u64,
        /// One past the last base-page VPN.
        end: u64,
    },
    /// Every entry of an address space.
    Asid(Asid),
}

impl Invalidation {
    /// Entries of `asid` overlapping the page of `order` containing `va`
    /// (`INVLPG` semantics generalized to a page of any size).
    pub fn page(asid: Asid, va: VirtAddr, order: PageOrder) -> Self {
        let start = va.align_down(order.shift()).base_page_number();
        Invalidation::Range {
            asid,
            start,
            end: start + order.base_pages(),
        }
    }

    /// True if the shootdown drops `entry`.
    fn drops(&self, entry: &impl CachedSpan) -> bool {
        match *self {
            Invalidation::Range { asid, start, end } => {
                let (e_start, e_end) = entry.span();
                entry.asid() == asid && e_start < end && start < e_end
            }
            Invalidation::Asid(asid) => entry.asid() == asid,
        }
    }
}

/// A `sets × ways` store with true LRU within each set.
///
/// The owner picks the set (its index function) and supplies the hit and
/// same-entry predicates; the store keeps the recency stamps, chooses
/// victims and performs removals under the contract in the module doc.
#[derive(Clone, Debug)]
pub struct LruStore<E> {
    ways: usize,
    /// `sets[s]` = the live entries of set `s` with their LRU stamps.
    sets: Vec<Vec<(E, u64)>>,
    clock: u64,
}

impl<E: Copy> LruStore<E> {
    /// Creates an empty store of `sets × ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "need at least one way");
        LruStore {
            ways,
            sets: vec![Vec::with_capacity(ways); sets],
            clock: 0,
        }
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> usize {
        self.sets.len()
    }

    /// Returns the first entry of `set` that `hit` accepts, refreshing its
    /// recency.
    #[inline]
    pub fn lookup(&mut self, set: usize, mut hit: impl FnMut(&E) -> bool) -> Option<&E> {
        self.clock += 1;
        let clock = self.clock;
        self.sets[set]
            .iter_mut()
            .find(|(e, _)| hit(e))
            .map(|(e, stamp)| {
                *stamp = clock;
                &*e
            })
    }

    /// Installs `entry` into `set`: over the first entry `same` matches,
    /// else appended while the set has room, else over the LRU victim.
    #[inline]
    pub fn fill(&mut self, set: usize, entry: E, same: impl FnMut(&E) -> bool) {
        self.fill_or_abandon(set, entry, same, || false);
    }

    /// [`Self::fill`] with a hook at eviction: once the victim of a full
    /// set is chosen, `abandon()` decides whether the install fails. If it
    /// does, the victim is removed, `entry` is dropped and the call returns
    /// `false`; the freed way is reused by a later fill.
    #[inline]
    pub fn fill_or_abandon(
        &mut self,
        set: usize,
        entry: E,
        mut same: impl FnMut(&E) -> bool,
        abandon: impl FnOnce() -> bool,
    ) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let slots = &mut self.sets[set];
        if let Some(slot) = slots.iter_mut().find(|(e, _)| same(e)) {
            *slot = (entry, clock);
            return true;
        }
        if slots.len() < self.ways {
            slots.push((entry, clock));
            return true;
        }
        // A full set is non-empty, so there is always a victim.
        let victim = slots
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map_or(0, |(i, _)| i);
        if abandon() {
            slots.remove(victim);
            return false;
        }
        slots[victim] = (entry, clock);
        true
    }

    /// Removes the entries of `set` that `keep` rejects.
    pub fn retain_set(&mut self, set: usize, mut keep: impl FnMut(&E) -> bool) {
        self.sets[set].retain(|(e, _)| keep(e));
    }

    /// Drops every entry.
    pub fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }
}

impl<E: Copy + CachedSpan> LruStore<E> {
    /// Drops every entry the shootdown covers.
    pub fn shoot_down(&mut self, inv: Invalidation) {
        for set in &mut self.sets {
            set.retain(|(e, _)| !inv.drops(e));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test entry: (asid, first vpn, pages, payload).
    type E = (Asid, u64, u64, u32);

    impl CachedSpan for E {
        fn asid(&self) -> Asid {
            self.0
        }
        fn span(&self) -> (u64, u64) {
            (self.1, self.1 + self.2)
        }
    }

    fn fill(s: &mut LruStore<E>, set: usize, key: u64, payload: u32) {
        s.fill(set, (0, key, 1, payload), |e| e.1 == key);
    }

    fn hit(s: &mut LruStore<E>, set: usize, key: u64) -> Option<u32> {
        s.lookup(set, |e| e.1 == key).map(|e| e.3)
    }

    /// Live keys, set by set in slot order.
    fn keys(s: &LruStore<E>) -> Vec<u64> {
        s.sets.iter().flatten().map(|(e, _)| e.1).collect()
    }

    /// The replacement contract, table-driven over (sets, ways); one set
    /// is the fully-associative case. Key `k` lives in set `k % sets`.
    #[test]
    fn replacement_contract_holds_for_every_geometry() {
        for (sets, ways) in [(1, 4), (2, 3), (4, 2), (8, 1)] {
            let mut s: LruStore<E> = LruStore::new(sets, ways);
            let key = |set: usize, i: usize| (set + i * sets) as u64;
            // Pushes append: set by set, in fill order.
            let mut expect: Vec<Vec<u64>> = (0..sets)
                .map(|set| (0..ways).map(|i| key(set, i)).collect())
                .collect();
            for (set, set_keys) in expect.iter().enumerate() {
                for &k in set_keys {
                    fill(&mut s, set, k, 1);
                }
            }
            assert_eq!(keys(&s), expect.concat(), "{sets}x{ways}: pushes append");
            for set in 0..sets {
                // An update in place keeps the slot and refreshes recency.
                fill(&mut s, set, key(set, ways - 1), 2);
                assert_eq!(keys(&s), expect.concat(), "{sets}x{ways}: update in place");
                assert_eq!(hit(&mut s, set, key(set, ways - 1)), Some(2));
                hit(&mut s, set, key(set, 0));
            }
            // The victim is the set's own LRU entry (slot 1 after the
            // refreshes above), never an older entry of another set: the
            // last set's fill leaves set 0, filled first, alone.
            let lru = 1.min(ways - 1);
            for set in (0..sets).rev() {
                let newcomer = key(set, 100);
                fill(&mut s, set, newcomer, 3);
                assert_eq!(hit(&mut s, set, expect[set][lru]), None);
                expect[set][lru] = newcomer;
                assert_eq!(keys(&s), expect.concat(), "{sets}x{ways}: LRU victim");
            }
            // An abandoned fill removes the victim and keeps the survivors
            // in order; the freed way is reused by appending.
            for &k in &expect[0][1..] {
                hit(&mut s, 0, k);
            }
            let installed = s.fill_or_abandon(0, (0, key(0, 200), 1, 0), |_| false, || true);
            assert!(!installed, "{sets}x{ways}: abandon reports the drop");
            expect[0].remove(0);
            assert_eq!(
                keys(&s),
                expect.concat(),
                "{sets}x{ways}: abandon keeps order"
            );
            fill(&mut s, 0, key(0, 201), 0);
            expect[0].push(key(0, 201));
            assert_eq!(
                keys(&s),
                expect.concat(),
                "{sets}x{ways}: freed way appends"
            );
            // Removal keeps the survivors in order.
            let dropped = expect[sets - 1][0];
            s.retain_set(sets - 1, |e| e.1 != dropped);
            expect[sets - 1].remove(0);
            assert_eq!(
                keys(&s),
                expect.concat(),
                "{sets}x{ways}: retain keeps order"
            );
            s.flush();
            assert!(keys(&s).is_empty());
        }
    }

    #[test]
    fn shoot_down_drops_overlaps_of_one_asid() {
        let mut s: LruStore<E> = LruStore::new(2, 2);
        s.fill(0, (0, 0, 16, 0), |_| false); // pages 0..16
        s.fill(1, (0, 16, 1, 0), |_| false); // page 16
        s.fill(0, (3, 4, 1, 0), |_| false); // other ASID
        s.shoot_down(Invalidation::page(
            0,
            VirtAddr::new(5 << 12),
            PageOrder::P4K,
        ));
        assert_eq!(keys(&s), vec![4, 16], "only the ASID-0 overlap goes");
        s.shoot_down(Invalidation::Asid(3));
        assert_eq!(keys(&s), vec![16]);
        let inv = Invalidation::page(0, VirtAddr::new(17 << 12), PageOrder::P4K);
        s.shoot_down(inv);
        assert_eq!(keys(&s), vec![16], "an adjacent page does not overlap");
    }

    #[test]
    #[should_panic(expected = "need at least one way")]
    fn zero_ways_rejected() {
        LruStore::<E>::new(1, 0);
    }
}
