//! Implementing your own workload: drive the simulator with a custom
//! access pattern by implementing the [`Workload`] trait.
//!
//! The example models a simple hash join: build a hash table from one
//! relation (sequential scan + random inserts), then probe it from a
//! second relation.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use tps::prelude::*;
use tps::wl::WorkloadProfile;
use tps_core::rng::Rng;
use tps_core::GIB;

const R_BUILD: u32 = 0; // build-side relation, scanned sequentially
const R_PROBE: u32 = 1; // probe-side relation, scanned sequentially
const R_HASH: u32 = 2; // hash table, accessed randomly

struct HashJoin {
    build_bytes: u64,
    probe_bytes: u64,
    hash_bytes: u64,
    rng: Rng,
    phase: u8,
    cursor: u64,
    pending_hash: Option<u64>,
}

impl HashJoin {
    fn new(build_mb: u64, probe_mb: u64, seed: u64) -> Self {
        HashJoin {
            build_bytes: build_mb << 20,
            probe_bytes: probe_mb << 20,
            hash_bytes: (build_mb * 2) << 20,
            rng: Rng::new(seed),
            phase: 0,
            cursor: 0,
            pending_hash: None,
        }
    }
}

impl Workload for HashJoin {
    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile {
            name: "hashjoin".into(),
            base_cpi: 0.7,
            insts_per_access: 6.0,
            l1_miss_criticality: 0.65,
            walk_savable: 0.7,
            smt_slowdown: 1.3,
        }
    }

    fn next_event(&mut self) -> Option<Event> {
        // Hash-table access follows each tuple read.
        if let Some(offset) = self.pending_hash.take() {
            return Some(Event::Access {
                region: R_HASH,
                offset,
                write: self.phase == 1, // inserts during build, reads during probe
            });
        }
        loop {
            match self.phase {
                0 => {
                    self.phase = 1;
                    self.cursor = 0;
                    return Some(Event::Mmap {
                        region: R_BUILD,
                        bytes: self.build_bytes,
                    });
                }
                1 if self.cursor == 0 => {
                    self.cursor = 1;
                    return Some(Event::Mmap {
                        region: R_PROBE,
                        bytes: self.probe_bytes,
                    });
                }
                1 if self.cursor == 1 => {
                    self.cursor = 2;
                    return Some(Event::Mmap {
                        region: R_HASH,
                        bytes: self.hash_bytes,
                    });
                }
                1 => {
                    // Build: scan tuples (128 B each), insert into the table.
                    let offset = (self.cursor - 2) * 128;
                    if offset >= self.build_bytes {
                        self.phase = 2;
                        self.cursor = 0;
                        continue;
                    }
                    self.cursor += 1;
                    self.pending_hash = Some(self.rng.below(self.hash_bytes / 16) * 16);
                    return Some(Event::Access {
                        region: R_BUILD,
                        offset,
                        write: false,
                    });
                }
                2 => {
                    // Probe: scan the probe side, look up the table.
                    let offset = self.cursor * 128;
                    if offset >= self.probe_bytes {
                        return None;
                    }
                    self.cursor += 1;
                    self.pending_hash = Some(self.rng.below(self.hash_bytes / 16) * 16);
                    return Some(Event::Access {
                        region: R_PROBE,
                        offset,
                        write: false,
                    });
                }
                _ => return None,
            }
        }
    }
}

fn main() {
    for mechanism in [Mechanism::Thp, Mechanism::Tps] {
        let config = MachineConfig::for_mechanism(mechanism).with_memory(GIB);
        let stats = MachineBuilder::new(config)
            .tenant(TenantSpec::workload(HashJoin::new(64, 128, 7)))
            .build()
            .expect("one tenant builds")
            .run()
            .into_solo();
        println!(
            "{:<4}  L1 hit rate {:>7.3}%   misses {:>8}   walk refs {:>8}   pages {:?}",
            mechanism.label(),
            100.0 * stats.mem.l1_hit_rate(),
            stats.mem.l1_misses(),
            stats.walk_refs,
            stats
                .page_census
                .iter()
                .map(|(o, n)| format!("{}x{}", n, o.label()))
                .collect::<Vec<_>>()
        );
    }
}
