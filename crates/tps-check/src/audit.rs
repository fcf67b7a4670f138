//! Cross-layer invariant auditor.
//!
//! [`Auditor::audit`] walks a live [`Os`] and checks every contract that
//! spans crate boundaries:
//!
//! 1. **Buddy conservation** — the allocator's internal free lists pass
//!    [`tps_mem::BuddyAllocator::check_invariants`], `free + used = total`,
//!    and the live-allocation list accounts for every used byte.
//! 2. **Ownership bijection** — the set of live buddy allocations equals,
//!    block for block, the union of reservation segments, direct-mapped
//!    blocks, and kernel-noise blocks. No frame is owned twice, leaked, or
//!    conjured from nowhere.
//! 3. **Page-table ↔ reservation consistency** — every mapped leaf inside
//!    a VMA is backed either by the reservation covering its address
//!    (agreeing with [`tps_mem::Reservation::frame_for`]) or by a direct
//!    block of its own, or else by another process's block with every
//!    base page share-counted (a frame that `fork` shared); the per-table
//!    walk also re-verifies alias-PTE coherence via
//!    [`tps_pt::PageTable::check_invariants`], and leaves never escape
//!    their VMA.
//! 4. **Frame-share conservation** — without sharing, no two leaves map
//!    overlapping physical ranges. With it, every base page that `n`
//!    leaves map, and every share-counted one, has count `n` in
//!    [`Os::frame_shares`], and a base page that two leaves map is
//!    writable in neither.
//! 5. **Shootdown completeness** — a shadow TLB is filled from accesses
//!    and invalidated from the shootdown lists the OS emits. Every
//!    surviving entry must still translate exactly, and an entry cached
//!    writable must still be writable; a stale entry means a remapping
//!    or a permission downgrade happened without its shootdown.
//!
//! The auditor is read-only with respect to the OS and returns violations
//! as strings rather than panicking, so a campaign can collect all
//! failures from a schedule in one pass.

use std::collections::{BTreeMap, HashMap};
use tps_core::{LeafInfo, PageOrder, PhysAddr, PteFlags, VirtAddr};
use tps_os::{Os, Shootdown};
use tps_tlb::Asid;

/// One shadow-TLB translation, captured at access time.
#[derive(Copy, Clone, Debug)]
struct ShadowEntry {
    order: PageOrder,
    pa: PhysAddr,
    writable: bool,
}

/// Cross-layer invariant checker with a shadow TLB.
///
/// Feed it every access (a TLB fill) and every shootdown list the OS
/// returns (invalidations), then call [`Auditor::audit`] as often as
/// desired — typically every few operations and at schedule end.
#[derive(Debug, Default)]
pub struct Auditor {
    /// Shadow TLB: (asid, leaf base va) → cached translation.
    shadow: HashMap<(Asid, u64), ShadowEntry>,
    /// Violations observed while recording (e.g. a fault that mapped
    /// nothing), drained by the next `audit` call.
    pending: Vec<String>,
    fills: u64,
    invalidations: u64,
}

impl Auditor {
    /// A fresh auditor with an empty shadow TLB.
    pub fn new() -> Self {
        Auditor::default()
    }

    /// Number of shadow-TLB fills recorded.
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Number of shadow-TLB invalidations applied.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Current shadow-TLB population.
    pub fn shadow_len(&self) -> usize {
        self.shadow.len()
    }

    /// Records the TLB fill an access to `va` implies — after a handled
    /// fault, or a hit on a mapped page: the leaf now covering `va` is
    /// cached, with its write permission. Promotions legitimately leave
    /// older, smaller entries in place — their translations are unchanged,
    /// which is exactly what `audit` verifies.
    pub fn record_fill(&mut self, os: &Os, asid: Asid, va: VirtAddr) {
        self.fills += 1;
        match os.page_table(asid).lookup(va) {
            Some(leaf) => {
                let base = va.align_down(leaf.order.shift());
                self.shadow.insert(
                    (asid, base.value()),
                    ShadowEntry {
                        order: leaf.order,
                        pa: leaf.base,
                        writable: leaf.flags.contains(PteFlags::WRITABLE),
                    },
                );
            }
            None => self.pending.push(format!(
                "access at {:#x} (asid {asid}) left no mapping",
                va.value()
            )),
        }
    }

    /// Applies a shootdown list: every shadow entry overlapping an
    /// invalidated range is dropped, exactly as hardware TLBs would.
    pub fn record_shootdowns(&mut self, shootdowns: &[Shootdown]) {
        for sd in shootdowns {
            self.invalidations += 1;
            let lo = sd.va.value();
            let hi = lo + sd.order.bytes();
            self.shadow.retain(|&(asid, base), entry| {
                asid != sd.asid || base + entry.order.bytes() <= lo || hi <= base
            });
        }
    }

    /// Runs every cross-layer check against the OS's current state.
    ///
    /// Returns all violations found (empty means every invariant held).
    pub fn audit(&mut self, os: &Os) -> Vec<String> {
        let mut v = std::mem::take(&mut self.pending);
        self.check_buddy(os, &mut v);
        self.check_ownership(os, &mut v);
        let leaves = self.check_page_tables(os, &mut v);
        check_frame_sharing(os, &leaves, &mut v);
        self.check_shadow_tlb(os, &mut v);
        v
    }

    fn check_buddy(&self, os: &Os, v: &mut Vec<String>) {
        let buddy = os.buddy();
        if let Err(e) = buddy.check_invariants() {
            v.push(format!("buddy internal: {e}"));
        }
        if buddy.free_bytes() + buddy.used_bytes() != buddy.total_bytes() {
            v.push(format!(
                "buddy conservation: free {} + used {} != total {}",
                buddy.free_bytes(),
                buddy.used_bytes(),
                buddy.total_bytes()
            ));
        }
        let accounted: u64 = buddy
            .allocations()
            .iter()
            .map(|(_, order)| order.bytes())
            .sum();
        if accounted != buddy.used_bytes() {
            v.push(format!(
                "buddy conservation: allocations account for {} of {} used bytes",
                accounted,
                buddy.used_bytes()
            ));
        }
    }

    /// Live buddy allocations must equal reservation segments ∪ direct
    /// blocks ∪ noise blocks, block for block.
    fn check_ownership(&self, os: &Os, v: &mut Vec<String>) {
        let mut owners: BTreeMap<u64, (PageOrder, String)> = BTreeMap::new();
        let mut claim = |base: PhysAddr, order: PageOrder, who: String, v: &mut Vec<String>| {
            if let Some((_, prev)) = owners.insert(base.value(), (order, who.clone())) {
                v.push(format!(
                    "frame {:#x} owned twice: {prev} and {who}",
                    base.value()
                ));
            }
        };
        for asid in 0..os.process_count() as Asid {
            let proc = os.process(asid);
            for res in proc.reservations().iter() {
                for seg in res.segments() {
                    claim(
                        seg.base,
                        seg.order,
                        format!(
                            "reservation {:#x}+{:#x} (asid {asid})",
                            res.va_base().value(),
                            seg.offset
                        ),
                        v,
                    );
                }
            }
            for (vma_base, blocks) in proc.direct_blocks() {
                for &(pa, order) in blocks {
                    claim(
                        pa,
                        order,
                        format!("direct vma {vma_base:#x} (asid {asid})"),
                        v,
                    );
                }
            }
        }
        for &pa in os.noise_blocks() {
            claim(pa, PageOrder::P2M, "kernel noise".to_string(), v);
        }
        let allocs: BTreeMap<u64, PageOrder> = os
            .buddy()
            .allocations()
            .into_iter()
            .map(|(pa, order)| (pa.value(), order))
            .collect();
        for (&base, &(order, ref who)) in &owners {
            match allocs.get(&base) {
                Some(&a) if a == order => {}
                Some(&a) => v.push(format!(
                    "frame {base:#x}: {who} holds order {} but buddy allocated order {}",
                    order.get(),
                    a.get()
                )),
                None => v.push(format!(
                    "frame {base:#x}: {who} holds a block the buddy does not consider allocated"
                )),
            }
        }
        for (&base, &order) in &allocs {
            if !owners.contains_key(&base) {
                v.push(format!(
                    "frame {base:#x} (order {}) allocated but owned by no reservation, \
                     direct mapping, or noise block — leaked",
                    order.get()
                ));
            }
        }
    }

    /// Walks every VMA's leaves: backing, containment, alias coherence and
    /// no stray leaves. Returns every leaf found, with its process.
    fn check_page_tables(&self, os: &Os, v: &mut Vec<String>) -> Vec<(Asid, VirtAddr, LeafInfo)> {
        // Every process's blocks, and all of them, as sorted intervals for
        // leaf containment.
        let mut owned: Vec<Vec<(u64, u64)>> = Vec::new();
        for asid in 0..os.process_count() as Asid {
            let proc = os.process(asid);
            let reserved = proc
                .reservations()
                .iter()
                .flat_map(|res| res.segments().iter().map(|seg| (seg.base, seg.order)));
            let direct = proc
                .direct_blocks()
                .flat_map(|(_, blocks)| blocks.iter().copied());
            let mut blocks: Vec<(u64, u64)> = reserved
                .chain(direct)
                .map(|(pa, order)| (pa.value(), pa.value() + order.bytes()))
                .collect();
            blocks.sort_unstable();
            owned.push(blocks);
        }
        let mut everyone: Vec<(u64, u64)> = owned.concat();
        everyone.sort_unstable();
        let mut leaves = Vec::new();
        for asid in 0..os.process_count() as Asid {
            let proc = os.process(asid);
            let pt = os.page_table(asid);
            if let Err(e) = pt.check_invariants() {
                v.push(format!("page table (asid {asid}): {e}"));
            }
            let mut walked = 0u64;
            for vma in proc.address_space().iter() {
                let mut va = vma.base().value();
                while va < vma.end().value() {
                    let Some(leaf) = pt.lookup(VirtAddr::new(va)) else {
                        va += PageOrder::P4K.bytes();
                        continue;
                    };
                    let leaf_va = VirtAddr::new(va).align_down(leaf.order.shift());
                    let leaf_end = leaf_va.value() + leaf.order.bytes();
                    if leaf_va < vma.base() || leaf_end > vma.end().value() {
                        v.push(format!(
                            "leaf {:#x} (order {}, asid {asid}) escapes its vma \
                             [{:#x}, {:#x})",
                            leaf_va.value(),
                            leaf.order.get(),
                            vma.base().value(),
                            vma.end().value()
                        ));
                    }
                    walked += leaf.order.bytes();
                    check_leaf_backing(
                        os,
                        asid,
                        leaf_va,
                        &leaf,
                        &owned[asid as usize],
                        &everyone,
                        v,
                    );
                    leaves.push((asid, leaf_va, leaf));
                    va = leaf_end;
                }
            }
            if walked != pt.mapped_bytes() {
                v.push(format!(
                    "page table (asid {asid}) maps {} bytes but only {} lie in live VMAs",
                    pt.mapped_bytes(),
                    walked
                ));
            }
            for res in proc.reservations().iter() {
                if proc.address_space().find(res.va_base()).is_none() {
                    v.push(format!(
                        "reservation at {:#x} (asid {asid}) covers no live VMA",
                        res.va_base().value()
                    ));
                }
            }
        }
        leaves
    }

    /// Every surviving shadow-TLB entry must still translate exactly, and
    /// one cached writable must still be writable.
    fn check_shadow_tlb(&self, os: &Os, v: &mut Vec<String>) {
        for (&(asid, base), entry) in &self.shadow {
            let pt = os.page_table(asid);
            let last = entry.order.bytes() - PageOrder::P4K.bytes();
            for off in [0, last] {
                let va = VirtAddr::new(base + off);
                let expect = entry.pa.value() + off;
                let now = pt.lookup(va).map(|leaf| {
                    let pa = leaf.base.value() + va.page_offset(leaf.order.shift());
                    (pa, leaf.flags.contains(PteFlags::WRITABLE))
                });
                match now {
                    Some((pa, writable)) if pa == expect && (writable || !entry.writable) => {}
                    got => v.push(format!(
                        "stale TLB entry: asid {asid} va {:#x} cached -> {expect:#x} \
                         (writable: {}) but page table says {got:?} — a shootdown was missed",
                        va.value(),
                        entry.writable
                    )),
                }
            }
        }
    }
}

/// A leaf is backed by the reservation covering its address, by blocks
/// of its own process, or — a frame `fork` shared — by any process's
/// blocks with every base page share-counted. `own` holds the process's
/// blocks and `everyone` every process's, as sorted intervals; a merged
/// page may span several.
fn check_leaf_backing(
    os: &Os,
    asid: Asid,
    leaf_va: VirtAddr,
    leaf: &LeafInfo,
    own: &[(u64, u64)],
    everyone: &[(u64, u64)],
    v: &mut Vec<String>,
) {
    if let Some(res) = os.process(asid).reservations().find(leaf_va) {
        if res.frame_for(leaf_va - res.va_base()) == Some(leaf.base) {
            return;
        }
    }
    let (start, end) = (leaf.base.value(), leaf.base.value() + leaf.order.bytes());
    let covered = |blocks: &[(u64, u64)]| {
        let mut reach = start;
        for &(base, block_end) in blocks.iter().take_while(|&&(base, _)| base < end) {
            if base <= reach {
                reach = reach.max(block_end);
            }
        }
        reach >= end
    };
    if covered(own) {
        return;
    }
    let pfn = leaf.base.base_page_number();
    let counted = os.frame_shares().pages(pfn, leaf.order).count() as u64;
    if covered(everyone) && counted == leaf.order.base_pages() {
        return;
    }
    v.push(format!(
        "leaf {:#x} -> {start:#x} (order {}, asid {asid}) backed by neither its \
         reservation nor a direct block ({counted} of its base pages share-counted)",
        leaf_va.value(),
        leaf.order.get()
    ));
}

/// Frame-share conservation: without sharing, mapped physical ranges are
/// disjoint. With it, every base page mapped by `n` leaves or
/// share-counted has count `n`, and one mapped twice is writable in
/// neither.
fn check_frame_sharing(os: &Os, leaves: &[(Asid, VirtAddr, LeafInfo)], v: &mut Vec<String>) {
    let shares = os.frame_shares();
    if shares.is_empty() {
        let mut ranges: Vec<(u64, u64, Asid, VirtAddr)> = leaves
            .iter()
            .map(|&(asid, va, leaf)| {
                let start = leaf.base.value();
                (start, start + leaf.order.bytes(), asid, va)
            })
            .collect();
        ranges.sort_unstable_by_key(|r| r.0);
        for pair in ranges.windows(2) {
            let ((s0, e0, a0, va0), (s1, e1, a1, va1)) = (pair[0], pair[1]);
            if s1 < e0 {
                v.push(format!(
                    "physical overlap: leaf {va0} (asid {a0}) [{s0:#x},{e0:#x}) vs \
                     leaf {va1} (asid {a1}) [{s1:#x},{e1:#x}) with nothing share-counted"
                ));
            }
        }
        return;
    }
    // Per base page: its mappers, and whether any maps it writable.
    let mut mapped: BTreeMap<u64, (u32, bool)> = BTreeMap::new();
    for (_, _, leaf) in leaves {
        let pfn = leaf.base.base_page_number();
        for page in pfn..pfn + leaf.order.base_pages() {
            let entry = mapped.entry(page).or_insert((0, false));
            entry.0 += 1;
            entry.1 |= leaf.flags.contains(PteFlags::WRITABLE);
        }
    }
    let counts: BTreeMap<u64, u32> = shares.iter().collect();
    for (&pfn, &count) in &counts {
        let mappers = mapped.get(&pfn).map_or(0, |m| m.0);
        if mappers != count {
            v.push(format!(
                "frame-share conservation: base page {pfn:#x} has count {count} \
                 but {mappers} leaves map it"
            ));
        }
    }
    for (&pfn, &(mappers, writable)) in &mapped {
        if mappers < 2 {
            continue;
        }
        if !counts.contains_key(&pfn) {
            v.push(format!(
                "frame-share conservation: base page {pfn:#x} is mapped by {mappers} \
                 leaves but is not share-counted"
            ));
        }
        if writable {
            v.push(format!(
                "isolation: base page {pfn:#x} is mapped writable while {mappers} leaves map it"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_core::BASE_PAGE_SIZE;
    use tps_os::{PolicyConfig, PolicyKind};

    #[test]
    fn clean_os_audits_clean() {
        let mut os = Os::new(64 << 20, PolicyConfig::new(PolicyKind::Tps));
        let pid = os.spawn();
        let vma = os.mmap(pid, 1 << 20).unwrap();
        let mut auditor = Auditor::new();
        for i in 0..64 {
            let va = VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE);
            os.handle_fault(pid, va, true).unwrap();
            auditor.record_fill(&os, pid, va);
        }
        assert!(auditor.audit(&os).is_empty());
        assert_eq!(auditor.fills(), 64);
        assert!(auditor.shadow_len() > 0);
    }

    #[test]
    fn munmap_shootdowns_clear_the_shadow_tlb() {
        let mut os = Os::new(64 << 20, PolicyConfig::new(PolicyKind::Tps));
        let pid = os.spawn();
        let vma = os.mmap(pid, 256 << 10).unwrap();
        let mut auditor = Auditor::new();
        os.handle_fault(pid, vma.base(), true).unwrap();
        auditor.record_fill(&os, pid, vma.base());
        let shootdowns = os.munmap(pid, vma.base()).unwrap();
        auditor.record_shootdowns(&shootdowns);
        assert_eq!(auditor.shadow_len(), 0, "unmap invalidated everything");
        assert!(auditor.audit(&os).is_empty());
    }

    #[test]
    fn a_missed_shootdown_is_detected() {
        let mut os = Os::new(64 << 20, PolicyConfig::new(PolicyKind::Tps));
        let pid = os.spawn();
        let vma = os.mmap(pid, 256 << 10).unwrap();
        let mut auditor = Auditor::new();
        os.handle_fault(pid, vma.base(), true).unwrap();
        auditor.record_fill(&os, pid, vma.base());
        // Unmap but "forget" to deliver the shootdowns to the auditor —
        // the shadow TLB now holds a translation the page table revoked.
        let _dropped = os.munmap(pid, vma.base()).unwrap();
        let violations = auditor.audit(&os);
        assert!(
            violations.iter().any(|m| m.contains("stale TLB entry")),
            "expected a stale-entry violation, got: {violations:?}"
        );
    }

    #[test]
    fn promotion_keeps_old_entries_valid() {
        let mut os = Os::new(64 << 20, PolicyConfig::new(PolicyKind::Tps));
        let pid = os.spawn();
        let vma = os.mmap(pid, 64 << 10).unwrap(); // promotes up to order 4
        let mut auditor = Auditor::new();
        for i in 0..16 {
            let va = VirtAddr::new(vma.base().value() + i * BASE_PAGE_SIZE);
            os.handle_fault(pid, va, true).unwrap();
            auditor.record_fill(&os, pid, va);
        }
        // The final fault promoted; earlier 4 KB fills survive because
        // promotion preserves every translation (no shootdown required).
        assert!(auditor.audit(&os).is_empty());
    }
}
