//! Error type shared across the TPS workspace.

use std::error::Error;
use std::fmt;

/// Errors produced by the TPS simulation stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TpsError {
    /// A page order above the supported maximum was requested.
    InvalidPageOrder(u8),
    /// An address violated an alignment requirement.
    Misaligned {
        /// The offending raw address.
        addr: u64,
        /// The required alignment shift (log2 bytes).
        shift: u32,
    },
    /// The physical memory allocator could not satisfy a request.
    OutOfMemory {
        /// The order that was requested.
        order: u8,
    },
    /// A PTE expected to be a leaf was not one.
    NotALeaf {
        /// The page-table level at which the entry was read.
        level: u8,
    },
    /// A virtual address had no mapping and no fault handler created one.
    Unmapped {
        /// The faulting virtual address.
        vaddr: u64,
    },
    /// A write was attempted to a read-only mapping.
    ProtectionViolation {
        /// The faulting virtual address.
        vaddr: u64,
    },
    /// A region identifier was not found.
    UnknownRegion(u64),
    /// A requested virtual range overlaps an existing mapping.
    RangeOverlap {
        /// Start of the conflicting range.
        start: u64,
        /// Length of the conflicting range.
        len: u64,
    },
    /// An operation was attempted on a block the allocator does not own.
    InvalidFree {
        /// The offending physical address.
        addr: u64,
    },
    /// The range still contains copy-on-write-shared mappings, which this
    /// model cannot reclaim (fork the region's owner must exit first).
    SharedMapping {
        /// A shared virtual address in the range.
        vaddr: u64,
    },
    /// A cross-layer invariant did not hold: state shared between the buddy
    /// allocator, reservation table, page table, and TLB bookkeeping became
    /// inconsistent. Replaces the panics the fault paths used to raise, so
    /// an inconsistency is diagnosable instead of aborting the simulation.
    InvariantViolation {
        /// The layer that detected the inconsistency.
        layer: InvariantLayer,
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// An experiment specification failed validation before any cell ran
    /// (unknown benchmark, empty matrix, out-of-range parameter).
    InvalidSpec {
        /// Human-readable description of the rejected field.
        detail: String,
    },
    /// A checkpoint journal could not be written, read, or reconciled with
    /// the spec it claims to belong to (I/O failure, malformed record,
    /// version or fingerprint mismatch).
    Checkpoint {
        /// Human-readable description of what went wrong.
        detail: String,
    },
    /// A checkpoint journal was read back corrupted: a CRC mismatch,
    /// broken entry framing, or a non-monotone sequence number. Distinct
    /// from [`TpsError::Checkpoint`] so callers (and the CLI exit code)
    /// can tell "the file is damaged" from "the file does not match".
    CheckpointCorrupt {
        /// Human-readable description of the damaged record.
        detail: String,
    },
}

impl TpsError {
    /// Builds an [`TpsError::InvariantViolation`] for `layer`.
    pub fn invariant(layer: InvariantLayer, detail: impl Into<String>) -> Self {
        TpsError::InvariantViolation {
            layer,
            detail: detail.into(),
        }
    }

    /// Builds an [`TpsError::InvalidSpec`] with the given description.
    pub fn invalid_spec(detail: impl Into<String>) -> Self {
        TpsError::InvalidSpec {
            detail: detail.into(),
        }
    }

    /// Builds an [`TpsError::Checkpoint`] with the given description.
    pub fn checkpoint(detail: impl Into<String>) -> Self {
        TpsError::Checkpoint {
            detail: detail.into(),
        }
    }

    /// Builds an [`TpsError::CheckpointCorrupt`] with the given description.
    pub fn checkpoint_corrupt(detail: impl Into<String>) -> Self {
        TpsError::CheckpointCorrupt {
            detail: detail.into(),
        }
    }
}

/// Why a tenant's event could not be executed by the machine driver.
///
/// A fault is always scoped to the tenant that raised it: the machine
/// contains the tenant (kills it and reclaims its memory) and the
/// survivors run on. The cause is the stable, serializable part of a
/// [`TenantFault`]; its `label`/`from_label` pair is the JSON encoding
/// used by experiment reports and the checkpoint journal.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum TenantFaultCause {
    /// The shared physical pool could not satisfy the tenant's request.
    Oom,
    /// The event would have pushed the tenant past its memory cap.
    CapExceeded,
    /// The event named a region the tenant has not mapped.
    UnknownRegion,
    /// The event was malformed: a duplicate region id, an out-of-bounds
    /// offset, or an event for a tenant that already retired.
    BadEvent,
}

impl TenantFaultCause {
    /// The stable serialization label of this cause.
    pub fn label(&self) -> &'static str {
        match self {
            TenantFaultCause::Oom => "oom",
            TenantFaultCause::CapExceeded => "cap-exceeded",
            TenantFaultCause::UnknownRegion => "unknown-region",
            TenantFaultCause::BadEvent => "bad-event",
        }
    }

    /// Parses a label produced by [`TenantFaultCause::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        Some(match label {
            "oom" => TenantFaultCause::Oom,
            "cap-exceeded" => TenantFaultCause::CapExceeded,
            "unknown-region" => TenantFaultCause::UnknownRegion,
            "bad-event" => TenantFaultCause::BadEvent,
            _ => return None,
        })
    }
}

impl fmt::Display for TenantFaultCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A contained, tenant-scoped failure raised by the machine's event path.
///
/// Returned by the machine's `step`; under `run` it triggers the kill of
/// the faulting tenant (or, for [`TenantFaultCause::Oom`] under the
/// kill-victim policy, of the largest tenant) instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantFault {
    cause: TenantFaultCause,
    detail: String,
}

impl TenantFault {
    /// Builds a fault with the given cause and human-readable detail.
    pub fn new(cause: TenantFaultCause, detail: impl Into<String>) -> Self {
        TenantFault {
            cause,
            detail: detail.into(),
        }
    }

    /// The structured cause (what a kill policy dispatches on).
    pub fn cause(&self) -> TenantFaultCause {
        self.cause
    }
}

impl fmt::Display for TenantFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant fault ({}): {}", self.cause, self.detail)
    }
}

impl Error for TenantFault {}

/// The layer at which a cross-layer invariant violation was detected.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Hash)]
pub enum InvariantLayer {
    /// The buddy physical-memory allocator.
    Buddy,
    /// The paging reservation table.
    Reservation,
    /// The radix page table.
    PageTable,
    /// TLB-shootdown bookkeeping.
    Tlb,
    /// The OS model's own bookkeeping (VMAs, direct blocks, stats).
    Os,
}

impl fmt::Display for InvariantLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InvariantLayer::Buddy => "buddy",
            InvariantLayer::Reservation => "reservation",
            InvariantLayer::PageTable => "page-table",
            InvariantLayer::Tlb => "tlb",
            InvariantLayer::Os => "os",
        })
    }
}

impl fmt::Display for TpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TpsError::InvalidPageOrder(o) => write!(f, "page order {o} exceeds the maximum"),
            TpsError::Misaligned { addr, shift } => {
                write!(f, "address {addr:#x} is not aligned to 2^{shift} bytes")
            }
            TpsError::OutOfMemory { order } => {
                write!(f, "no free physical block of order {order} available")
            }
            TpsError::NotALeaf { level } => {
                write!(f, "entry at level {level} is not a leaf")
            }
            TpsError::Unmapped { vaddr } => {
                write!(f, "virtual address {vaddr:#x} is not mapped")
            }
            TpsError::ProtectionViolation { vaddr } => {
                write!(f, "write to read-only mapping at {vaddr:#x}")
            }
            TpsError::UnknownRegion(id) => write!(f, "unknown region id {id}"),
            TpsError::RangeOverlap { start, len } => {
                write!(f, "range {start:#x}+{len:#x} overlaps an existing mapping")
            }
            TpsError::InvalidFree { addr } => {
                write!(f, "free of unowned physical block at {addr:#x}")
            }
            TpsError::SharedMapping { vaddr } => {
                write!(f, "range holds shared (CoW) mapping at {vaddr:#x}")
            }
            TpsError::InvariantViolation { layer, detail } => {
                write!(f, "invariant violation at {layer} layer: {detail}")
            }
            TpsError::InvalidSpec { detail } => {
                write!(f, "invalid experiment spec: {detail}")
            }
            TpsError::Checkpoint { detail } => {
                write!(f, "checkpoint error: {detail}")
            }
            TpsError::CheckpointCorrupt { detail } => {
                write!(f, "checkpoint corruption detected: {detail}")
            }
        }
    }
}

impl Error for TpsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_lowercase_and_nonempty() {
        let errs: Vec<TpsError> = vec![
            TpsError::InvalidPageOrder(31),
            TpsError::Misaligned {
                addr: 0x123,
                shift: 12,
            },
            TpsError::OutOfMemory { order: 9 },
            TpsError::NotALeaf { level: 2 },
            TpsError::Unmapped { vaddr: 0x1000 },
            TpsError::ProtectionViolation { vaddr: 0x1000 },
            TpsError::UnknownRegion(7),
            TpsError::RangeOverlap {
                start: 0,
                len: 4096,
            },
            TpsError::InvalidFree { addr: 0x2000 },
            TpsError::SharedMapping { vaddr: 0x3000 },
            TpsError::invariant(InvariantLayer::Buddy, "free list lost a block"),
            TpsError::invalid_spec("unknown benchmark \"nonesuch\""),
            TpsError::checkpoint("journal header missing"),
            TpsError::checkpoint_corrupt("entry 3 failed its crc"),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase() || s.starts_with(char::is_numeric));
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn is_send_sync_error() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<TpsError>();
        assert_traits::<TenantFault>();
    }

    #[test]
    fn tenant_fault_cause_labels_round_trip() {
        for cause in [
            TenantFaultCause::Oom,
            TenantFaultCause::CapExceeded,
            TenantFaultCause::UnknownRegion,
            TenantFaultCause::BadEvent,
        ] {
            let label = cause.label();
            assert_eq!(label, label.to_lowercase(), "labels are lowercase");
            assert_eq!(TenantFaultCause::from_label(label), Some(cause));
            assert_eq!(cause.to_string(), label);
        }
        assert_eq!(TenantFaultCause::from_label("nonesuch"), None);
    }

    #[test]
    fn tenant_fault_carries_cause_and_detail() {
        let fault = TenantFault::new(TenantFaultCause::CapExceeded, "64 over a 32-byte cap");
        assert_eq!(fault.cause(), TenantFaultCause::CapExceeded);
        assert_eq!(
            fault.to_string(),
            "tenant fault (cap-exceeded): 64 over a 32-byte cap"
        );
        assert!(fault.source().is_none());
    }

    #[test]
    fn invariant_violation_carries_layer_and_detail() {
        let e = TpsError::invariant(InvariantLayer::PageTable, "leaf without reservation");
        assert_eq!(
            e.to_string(),
            "invariant violation at page-table layer: leaf without reservation"
        );
        assert!(e.source().is_none(), "leaf error: no underlying source");
        // Every layer label is lowercase and stable.
        for layer in [
            InvariantLayer::Buddy,
            InvariantLayer::Reservation,
            InvariantLayer::PageTable,
            InvariantLayer::Tlb,
            InvariantLayer::Os,
        ] {
            let s = layer.to_string();
            assert!(!s.is_empty());
            assert_eq!(s, s.to_lowercase());
        }
    }
}
