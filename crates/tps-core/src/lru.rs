//! The one set-associative true-LRU store behind every TLB and MMU cache.
//!
//! Every translation cache in this reproduction differs only in how it
//! indexes a set and what an entry covers (a page mask, a CoLT run, an RMM
//! range, a page-walk prefix). Replacement and shootdown are the same in
//! all of them, so they live here once. A store is `sets × ways` entries;
//! one set makes it fully associative.
//!
//! Each set keeps its entries in slot order and threads them on a recency
//! list (older/newer slot links), so a hit moves one entry to the newest
//! end and the victim is the oldest end — both independent of the set's
//! size, which matters for the 1552-entry TPS STLB. Owners of small sets
//! find an entry with a linear scan ([`LruStore::lookup`],
//! [`LruStore::fill`]); an owner that keeps its own index names slot
//! positions instead ([`LruStore::touch`], [`LruStore::install`]).
//!
//! The replacement contract, on which the byte identity of every report
//! rests:
//!
//! * the victim is the least recently touched entry of the set (a lookup
//!   hit or a fill touches an entry);
//! * an update in place keeps the entry's position in its set;
//! * a fill into a set with room appends;
//! * removal ([`LruStore::retain_set`], [`LruStore::shoot_down`], an
//!   abandoned fill) moves the survivors down, keeping both their slot
//!   order and their recency order.
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

/// No slot: the end of a recency list.
const NIL: u32 = u32::MAX;

/// A live entry and its neighbours in its set's recency list.
#[derive(Copy, Clone, Debug)]
struct Slot<E> {
    entry: E,
    older: u32,
    newer: u32,
}

/// One set: its live entries in slot order, threaded on a recency list.
#[derive(Clone, Debug)]
struct Set<E> {
    slots: Vec<Slot<E>>,
    /// The least recently touched slot, the next victim.
    oldest: u32,
    newest: u32,
}

impl<E: Copy> Set<E> {
    fn new(ways: usize) -> Self {
        Set {
            slots: Vec::with_capacity(ways),
            oldest: NIL,
            newest: NIL,
        }
    }

    /// Makes `slot` the most recently touched. Already-newest is free.
    #[inline]
    fn touch(&mut self, slot: usize) {
        if self.newest != slot as u32 {
            self.unlink(slot);
            self.link_newest(slot);
        }
    }

    #[inline]
    fn unlink(&mut self, slot: usize) {
        let Slot { older, newer, .. } = self.slots[slot];
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.slots[n as usize].older = older,
        }
    }

    #[inline]
    fn link_newest(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        s.older = self.newest;
        s.newer = NIL;
        match self.newest {
            NIL => self.oldest = slot as u32,
            n => self.slots[n as usize].newer = slot as u32,
        }
        self.newest = slot as u32;
    }

    /// Appends `entry` as the newest; returns its slot.
    #[inline]
    fn push(&mut self, entry: E) -> usize {
        let slot = self.slots.len();
        self.slots.push(Slot {
            entry,
            older: NIL,
            newer: NIL,
        });
        self.link_newest(slot);
        slot
    }

    /// Points the neighbours of the entry just moved to `slot` at it.
    #[inline]
    fn relink_moved(&mut self, slot: usize) {
        let Slot { older, newer, .. } = self.slots[slot];
        match older {
            NIL => self.oldest = slot as u32,
            o => self.slots[o as usize].newer = slot as u32,
        }
        match newer {
            NIL => self.newest = slot as u32,
            n => self.slots[n as usize].older = slot as u32,
        }
    }

    /// Removes the slots `keep` rejects, moving the survivors down in slot
    /// order; their recency order is unchanged.
    fn compact_slots(&mut self, mut keep: impl FnMut(usize, &E) -> bool) {
        let len = self.slots.len();
        let mut kept = 0;
        for slot in 0..len {
            if !keep(slot, &self.slots[slot].entry) {
                self.unlink(slot);
                continue;
            }
            // Every link names its neighbour's current slot: a survivor
            // that moved has already repointed the links to it.
            if kept != slot {
                self.slots[kept] = self.slots[slot];
                self.relink_moved(kept);
            }
            kept += 1;
        }
        self.slots.truncate(kept);
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.oldest = NIL;
        self.newest = NIL;
    }
}

/// What [`LruStore::install`] did with an entry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Install<E> {
    /// It overwrote the same-entry slot the caller named.
    Updated,
    /// It was appended at this slot of a set with room.
    Appended(usize),
    /// It replaced the LRU victim, returned here, at this slot.
    Replaced(usize, E),
    /// `abandon()` held: the victim was removed (the slots after it moved
    /// down by one) and the entry was dropped.
    Abandoned,
}

/// A `sets × ways` store with true LRU within each set.
///
/// The owner picks the set (its index function) and supplies the hit and
/// same-entry predicates — or, if it indexes its own sets, the slot
/// positions ([`Self::touch`], [`Self::install`]); the store keeps each
/// set's recency list, chooses victims and performs removals under the
/// contract in the module doc.
#[derive(Clone, Debug)]
pub struct LruStore<E> {
    ways: usize,
    sets: Vec<Set<E>>,
}

impl<E: Copy> LruStore<E> {
    /// Creates an empty store of `sets × ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, `ways` is zero or `ways`
    /// does not fit a `u32` slot number.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "need at least one way");
        assert!(ways < NIL as usize, "too many ways");
        LruStore {
            ways,
            sets: vec![Set::new(ways); sets],
        }
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> usize {
        self.sets.len()
    }

    /// The live entries of `set`, in slot order.
    #[inline]
    pub fn entries(&self, set: usize) -> impl ExactSizeIterator<Item = &E> + '_ {
        self.sets[set].slots.iter().map(|s| &s.entry)
    }

    /// The entry at `slot` of `set`, without refreshing its recency.
    #[inline]
    pub fn entry(&self, set: usize, slot: usize) -> &E {
        &self.sets[set].slots[slot].entry
    }

    /// Returns the first entry of `set` that `hit` accepts, refreshing its
    /// recency.
    #[inline]
    pub fn lookup(&mut self, set: usize, mut hit: impl FnMut(&E) -> bool) -> Option<&E> {
        let s = &mut self.sets[set];
        let slot = s.slots.iter().position(|s| hit(&s.entry))?;
        s.touch(slot);
        Some(&s.slots[slot].entry)
    }

    /// Returns the entry at `slot` of `set`, refreshing its recency: a hit
    /// the owner located through its own index.
    #[inline]
    pub fn touch(&mut self, set: usize, slot: usize) -> &E {
        let s = &mut self.sets[set];
        s.touch(slot);
        &s.slots[slot].entry
    }

    /// Installs `entry` into `set`: over the first entry `same` matches,
    /// else appended while the set has room, else over the LRU victim.
    #[inline]
    pub fn fill(&mut self, set: usize, entry: E, mut same: impl FnMut(&E) -> bool) {
        let slot = self.sets[set].slots.iter().position(|s| same(&s.entry));
        self.install(set, slot, entry, || false);
    }

    /// Installs `entry` into `set`: over the entry at slot `same`, else
    /// appended while the set has room, else over the LRU victim. Once the
    /// victim of a full set is chosen, `abandon()` decides whether the
    /// install fails; if it does, the victim is removed and `entry` is
    /// dropped, and the freed way is reused by a later fill.
    #[inline]
    pub fn install(
        &mut self,
        set: usize,
        same: Option<usize>,
        entry: E,
        abandon: impl FnOnce() -> bool,
    ) -> Install<E> {
        let s = &mut self.sets[set];
        if let Some(slot) = same {
            s.slots[slot].entry = entry;
            s.touch(slot);
            return Install::Updated;
        }
        if s.slots.len() < self.ways {
            return Install::Appended(s.push(entry));
        }
        // A full set is non-empty, so there is always a victim.
        let victim = s.oldest as usize;
        if abandon() {
            s.compact_slots(|slot, _| slot != victim);
            return Install::Abandoned;
        }
        let old = std::mem::replace(&mut s.slots[victim].entry, entry);
        s.touch(victim);
        Install::Replaced(victim, old)
    }

    /// Removes the entries of `set` that `keep` rejects.
    pub fn retain_set(&mut self, set: usize, mut keep: impl FnMut(&E) -> bool) {
        self.sets[set].compact_slots(|_, e| keep(e));
    }

    /// Drops every entry.
    pub fn flush(&mut self) {
        self.sets.iter_mut().for_each(Set::clear);
    }
}

impl<E: Copy + CachedSpan> LruStore<E> {
    /// Drops every entry the shootdown covers.
    pub fn shoot_down(&mut self, inv: Invalidation) {
        for set in &mut self.sets {
            set.compact_slots(|_, e| !inv.drops(e));
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
        (0..s.sets())
            .flat_map(|set| s.entries(set))
            .map(|e| e.1)
            .collect()
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
            let outcome = s.install(0, None, (0, key(0, 200), 1, 0), || true);
            assert_eq!(
                outcome,
                Install::Abandoned,
                "{sets}x{ways}: abandon reports it"
            );
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
            // Recency survives a compaction: refresh set 0 newest-slot
            // first, drop its slot 0 so every survivor moves down, refill
            // the freed way; victims then go oldest first, the newcomer
            // last.
            for &k in expect[0].iter().rev() {
                hit(&mut s, 0, k);
            }
            let dropped = expect[0].remove(0);
            s.retain_set(0, |e| e.1 != dropped);
            fill(&mut s, 0, key(0, 300), 0);
            expect[0].push(key(0, 300));
            let mut victims: Vec<u64> = expect[0][..ways - 1].iter().rev().copied().collect();
            victims.push(key(0, 300));
            for (i, victim) in victims.into_iter().enumerate() {
                let slot = expect[0].iter().position(|&k| k == victim).unwrap();
                fill(&mut s, 0, key(0, 400 + i), 0);
                expect[0][slot] = key(0, 400 + i);
                assert_eq!(
                    keys(&s),
                    expect.concat(),
                    "{sets}x{ways}: victim {victim} after compaction"
                );
            }
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
