//! Append-only checkpoint journal for resumable matrix runs.
//!
//! The journal is line-oriented: a versioned header line followed by one
//! compact-JSON entry per completed cell, appended, fsynced, the moment
//! the cell finishes. A run killed mid-flight therefore leaves a valid
//! journal of everything it completed; `--resume` replays those cells
//! from the journal and only executes the rest.
//!
//! Since version 2 every entry line is self-checking:
//!
//! ```text
//! {"seq":K,"crc":C,"body":{...v1 entry shape...}}
//! ```
//!
//! `seq` is the strictly increasing append sequence number and `crc` is
//! the CRC-32 (IEEE) of `"{seq}:{body}"` with `body` in compact
//! rendering, so any single-byte damage — to the body, the sequence
//! number, or the checksum itself — is detected at load time. Resume
//! distinguishes two kinds of damage:
//!
//! * **Torn tail** — the final line has no terminating newline. That is
//!   the expected wreckage of a killed run; the fragment is discarded,
//!   the file is truncated back to its last clean byte before appending,
//!   and the victim cell simply re-runs.
//! * **Mid-file corruption** — a newline-terminated line that fails its
//!   CRC, does not parse, or breaks sequence monotonicity. That means
//!   the storage lied after an acknowledged fsync; resume refuses with
//!   [`TpsError::CheckpointCorrupt`] unless salvage mode is requested,
//!   which drops the damaged entries (re-running their cells) and
//!   reports how many were dropped.
//!
//! Entries round-trip the **full** [`MachineRunStats`] — not the
//! abridged stats block of the report — so a resumed run's aggregated
//! report, including derived metrics, per-tenant breakdowns, and the
//! rendered JSON document, is byte-identical to an uninterrupted run's.
//! Solo cells journal only the rollup (the per-tenant vector is
//! reconstructed on load), so single-process journals written before the
//! multi-tenant machine replay unchanged.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

use tps_core::{PageOrder, TenantFaultCause, TpsError};
use tps_os::OsStats;
use tps_tlb::TlbStats;
use tps_wl::WorkloadProfile;

use crate::stats::{HwFaultStats, MachineRunStats, RunStats, TenantOutcome};

use super::io::{crc32, ArtifactIo, ArtifactSink};
use super::json::Json;
use super::report::{CellFailure, FailureCause};
use super::spec::ExperimentMatrix;

/// The `"schema"` marker on a journal's header line.
pub const CHECKPOINT_SCHEMA: &str = "tps-experiment-checkpoint";

/// Version of the journal layout. Bump on any entry-shape change: resume
/// refuses other versions rather than guessing. Version 2 added per-entry
/// sequence numbers and CRC-32 checksums.
pub const CHECKPOINT_VERSION: u64 = 2;

/// One journaled outcome, keyed by the cell's stable index.
pub(crate) type ResumeMap = BTreeMap<u64, Result<MachineRunStats, CellFailure>>;

/// Everything [`load`] recovered from a journal.
#[derive(Debug)]
pub(crate) struct LoadedJournal {
    /// Completed cells, replayed instead of executed.
    pub(crate) done: ResumeMap,
    /// The sequence number the next appended entry must carry.
    pub(crate) next_seq: u64,
    /// Byte length of the clean newline-terminated prefix; appending
    /// truncates the file here first, cutting off any torn tail.
    pub(crate) clean_len: u64,
    /// Corrupt entries dropped by salvage mode (0 without salvage).
    pub(crate) dropped: u64,
}

/// Serializer/appender for the journal. Shared by the worker pool behind
/// a mutex so each entry is written — and fsynced — as one atomic line.
pub(crate) struct CheckpointWriter<'io> {
    inner: Mutex<WriterState<'io>>,
}

struct WriterState<'io> {
    sink: Box<dyn ArtifactSink + 'io>,
    next_seq: u64,
    /// Set when the previous append failed partway: the next entry is
    /// prefixed with a newline so its line framing re-synchronizes
    /// regardless of how many bytes of the failed record landed.
    dirty: bool,
}

impl<'io> CheckpointWriter<'io> {
    /// Creates a fresh journal at `path` and writes (and syncs) the
    /// header line. Refuses to clobber an existing journal that already
    /// contains entries, or that belongs to a different experiment spec,
    /// unless `force` is set.
    pub(crate) fn create(
        io: &'io dyn ArtifactIo,
        path: &Path,
        matrix: &ExperimentMatrix,
        force: bool,
    ) -> Result<Self, TpsError> {
        if !force {
            guard_clobber(path, matrix)?;
        }
        let mut sink = io
            .create(path)
            .map_err(|e| TpsError::checkpoint(format!("cannot create {}: {e}", path.display())))?;
        let header = header_json(matrix).render_compact();
        sink.write_all(header.as_bytes())
            .and_then(|()| sink.write_all(b"\n"))
            .and_then(|()| sink.sync_data())
            .map_err(|e| TpsError::checkpoint(format!("journal write failed: {e}")))?;
        Ok(CheckpointWriter {
            inner: Mutex::new(WriterState {
                sink,
                next_seq: 0,
                dirty: false,
            }),
        })
    }

    /// Reopens an existing journal for appending (resume continues
    /// journaling into the same file). `next_seq` and `truncate_to` come
    /// from [`load`]: appended entries continue the sequence, and any
    /// torn tail beyond the clean prefix is cut off first.
    pub(crate) fn append_to(
        io: &'io dyn ArtifactIo,
        path: &Path,
        next_seq: u64,
        truncate_to: Option<u64>,
    ) -> Result<Self, TpsError> {
        let sink = io.open_append(path, truncate_to).map_err(|e| {
            TpsError::checkpoint(format!("cannot append to {}: {e}", path.display()))
        })?;
        Ok(CheckpointWriter {
            inner: Mutex::new(WriterState {
                sink,
                next_seq,
                dirty: false,
            }),
        })
    }

    /// Appends one completed cell as a checksummed, sequenced entry line
    /// and fsyncs, so neither a process kill nor a host crash can lose an
    /// acknowledged cell.
    pub(crate) fn record(
        &self,
        index: u64,
        outcome: &Result<MachineRunStats, CellFailure>,
    ) -> Result<(), TpsError> {
        let mut state = self.lock();
        let seq = state.next_seq;
        // A failed append consumes its sequence number: seq gaps are
        // legal (strict monotonicity is all load checks), overlaps would
        // read as corruption.
        state.next_seq = seq + 1;
        let mut line = String::new();
        if state.dirty {
            line.push('\n');
        }
        line.push_str(&entry_line(seq, index, outcome));
        line.push('\n');
        let result = state
            .sink
            .write_all(line.as_bytes())
            .and_then(|()| state.sink.sync_data());
        state.dirty = result.is_err();
        result.map_err(|e| TpsError::checkpoint(format!("journal write failed: {e}")))
    }

    /// Final sync before the journal is dropped, so a host crash after a
    /// completed run cannot lose its tail.
    pub(crate) fn finish(&self) -> Result<(), TpsError> {
        self.lock()
            .sink
            .sync_data()
            .map_err(|e| TpsError::checkpoint(format!("journal sync failed: {e}")))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WriterState<'io>> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl std::fmt::Debug for CheckpointWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock();
        f.debug_struct("CheckpointWriter")
            .field("next_seq", &state.next_seq)
            .field("dirty", &state.dirty)
            .finish_non_exhaustive()
    }
}

/// The clobber guard of [`CheckpointWriter::create`]: refuse to truncate
/// anything but a missing, empty, or same-spec entry-free journal.
fn guard_clobber(path: &Path, matrix: &ExperimentMatrix) -> Result<(), TpsError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => {
            return Err(TpsError::checkpoint(format!(
                "cannot inspect existing {}: {e}",
                path.display()
            )))
        }
    };
    if bytes.is_empty() {
        return Ok(());
    }
    let text = String::from_utf8_lossy(&bytes);
    let mut lines = text.split('\n');
    let header = lines.next().unwrap_or("");
    let refuse = |what: &str| {
        Err(TpsError::checkpoint(format!(
            "refusing to overwrite {}: {what} (pass --force-checkpoint to discard it)",
            path.display()
        )))
    };
    let Ok(header) = Json::parse(header) else {
        return refuse("existing file is not a checkpoint journal");
    };
    if header.get("schema").and_then(Json::as_str) != Some(CHECKPOINT_SCHEMA) {
        return refuse("existing file is not a checkpoint journal");
    }
    if header.get("fingerprint").and_then(Json::as_u64) != Some(matrix.spec().fingerprint()) {
        return refuse("existing journal belongs to a different experiment spec");
    }
    let entries = lines.filter(|l| !l.is_empty()).count();
    if entries > 0 {
        return refuse(&format!(
            "existing journal already holds {entries} entr{}",
            {
                if entries == 1 {
                    "y"
                } else {
                    "ies"
                }
            }
        ));
    }
    Ok(())
}

/// Loads a journal and returns the completed cells, validating that it
/// belongs to `matrix` (schema, version, spec fingerprint, cell count)
/// and that every entry passes its CRC and sequence check.
///
/// # Errors
///
/// [`TpsError::Checkpoint`] on I/O failure, a missing or mismatched
/// header, or an unsupported version. [`TpsError::CheckpointCorrupt`]
/// when a newline-terminated entry line fails its CRC, does not parse,
/// or breaks sequence monotonicity — unless `salvage` is set, in which
/// case the damaged entries are dropped (and counted) so their cells
/// re-run. A torn **final** line without a newline is never an error:
/// that is the expected wreckage of a killed run.
pub(crate) fn load(
    path: &Path,
    matrix: &ExperimentMatrix,
    salvage: bool,
) -> Result<LoadedJournal, TpsError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| TpsError::checkpoint(format!("cannot read {}: {e}", path.display())))?;
    let mut segments = text.split_inclusive('\n');
    let header_seg = segments
        .next()
        .filter(|seg| seg.ends_with('\n'))
        .ok_or_else(|| TpsError::checkpoint("journal header missing or torn"))?;
    let header = Json::parse(header_seg.trim_end_matches('\n'))
        .map_err(|e| TpsError::checkpoint_corrupt(format!("malformed journal header: {e}")))?;
    check_header(&header, matrix)?;

    let mut loaded = LoadedJournal {
        done: ResumeMap::new(),
        next_seq: 0,
        clean_len: header_seg.len() as u64,
        dropped: 0,
    };
    for (lineno, seg) in segments.enumerate() {
        let Some(line) = seg.strip_suffix('\n') else {
            // Torn tail: the kill victim's partial entry. Stop here;
            // clean_len excludes it so append truncates it away.
            break;
        };
        if line.is_empty() {
            // Re-synchronization blank from a recovered append failure.
            loaded.clean_len += seg.len() as u64;
            continue;
        }
        let damage = match parse_entry_line(line, matrix.cells().len() as u64) {
            Ok((seq, index, outcome)) => {
                if seq >= loaded.next_seq {
                    loaded.next_seq = seq + 1;
                    loaded.done.insert(index, outcome);
                    loaded.clean_len += seg.len() as u64;
                    continue;
                }
                format!("sequence number {seq} is not increasing")
            }
            Err(e) => e,
        };
        if salvage {
            loaded.dropped += 1;
            loaded.clean_len += seg.len() as u64;
        } else {
            return Err(TpsError::checkpoint_corrupt(format!(
                "corrupt journal entry at line {}: {damage}",
                lineno + 2
            )));
        }
    }
    Ok(loaded)
}

fn header_json(matrix: &ExperimentMatrix) -> Json {
    let mut header = Json::object();
    header.set("schema", Json::Str(CHECKPOINT_SCHEMA.to_string()));
    header.set("version", Json::U64(CHECKPOINT_VERSION));
    header.set("fingerprint", Json::U64(matrix.spec().fingerprint()));
    header.set("cells", Json::U64(matrix.cells().len() as u64));
    header
}

fn check_header(header: &Json, matrix: &ExperimentMatrix) -> Result<(), TpsError> {
    let schema = header.get("schema").and_then(Json::as_str);
    if schema != Some(CHECKPOINT_SCHEMA) {
        return Err(TpsError::checkpoint(format!(
            "not a checkpoint journal (schema {schema:?})"
        )));
    }
    let version = header.get("version").and_then(Json::as_u64);
    if version != Some(CHECKPOINT_VERSION) {
        return Err(TpsError::checkpoint(format!(
            "unsupported journal version {version:?} (expected {CHECKPOINT_VERSION})"
        )));
    }
    let fingerprint = header.get("fingerprint").and_then(Json::as_u64);
    if fingerprint != Some(matrix.spec().fingerprint()) {
        return Err(TpsError::checkpoint(
            "journal was written for a different experiment spec",
        ));
    }
    let cells = header.get("cells").and_then(Json::as_u64);
    if cells != Some(matrix.cells().len() as u64) {
        return Err(TpsError::checkpoint(format!(
            "journal covers {cells:?} cells, matrix has {}",
            matrix.cells().len()
        )));
    }
    Ok(())
}

/// Renders one complete v2 entry line (without the trailing newline).
fn entry_line(seq: u64, index: u64, outcome: &Result<MachineRunStats, CellFailure>) -> String {
    let body = entry_json(index, outcome).render_compact();
    let crc = crc32(format!("{seq}:{body}").as_bytes());
    format!("{{\"seq\":{seq},\"crc\":{crc},\"body\":{body}}}")
}

/// Parses and verifies one v2 entry line: wrapper shape, CRC over the
/// re-rendered body (byte-identical by the `Json` round-trip property),
/// then the body itself. Returns `(seq, cell index, outcome)`.
fn parse_entry_line(
    line: &str,
    cell_count: u64,
) -> Result<(u64, u64, Result<MachineRunStats, CellFailure>), String> {
    let wrapper = Json::parse(line).map_err(|e| format!("malformed entry: {e}"))?;
    let seq = wrapper
        .get("seq")
        .and_then(Json::as_u64)
        .ok_or("missing seq")?;
    let crc = wrapper
        .get("crc")
        .and_then(Json::as_u64)
        .ok_or("missing crc")?;
    let body = wrapper.get("body").ok_or("missing body")?;
    let computed = u64::from(crc32(format!("{seq}:{}", body.render_compact()).as_bytes()));
    if crc != computed {
        return Err(format!("crc mismatch (stored {crc}, computed {computed})"));
    }
    let (index, outcome) = parse_entry(body, cell_count)?;
    Ok((seq, index, outcome))
}

fn entry_json(index: u64, outcome: &Result<MachineRunStats, CellFailure>) -> Json {
    let mut entry = Json::object();
    entry.set("cell", Json::U64(index));
    match outcome {
        Ok(machine) => {
            entry.set("ok", Json::Bool(true));
            entry.set("stats", stats_to_json(&machine.global));
            // Solo cells journal only the rollup; the per-tenant vector
            // is reconstructed on load. Keeps pre-tenant journals valid.
            if machine.per_tenant.len() > 1 {
                entry.set(
                    "tenants",
                    Json::Array(machine.per_tenant.iter().map(stats_to_json).collect()),
                );
            }
            // Same conditional-compat rule as the tenants array: the
            // outcomes key appears only when the machine killed someone,
            // so fault-free entries match pre-outcome journals exactly.
            if machine.outcomes.iter().any(|o| o.is_killed()) {
                entry.set(
                    "outcomes",
                    Json::Array(machine.outcomes.iter().map(outcome_json).collect()),
                );
            }
        }
        Err(failure) => {
            entry.set("ok", Json::Bool(false));
            entry.set("cause", Json::Str(failure.cause.label().to_string()));
            entry.set("attempts", Json::U64(u64::from(failure.attempts)));
            entry.set("message", Json::Str(failure.message.clone()));
        }
    }
    entry
}

fn parse_entry(
    entry: &Json,
    cell_count: u64,
) -> Result<(u64, Result<MachineRunStats, CellFailure>), String> {
    let index = entry
        .get("cell")
        .and_then(Json::as_u64)
        .ok_or("missing cell index")?;
    if index >= cell_count {
        return Err(format!("cell index {index} out of range"));
    }
    let ok = entry
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or("missing ok")?;
    let outcome = if ok {
        let global = stats_from_json(entry.get("stats").ok_or("missing stats")?)?;
        let per_tenant = match entry.get("tenants") {
            Some(Json::Array(items)) => items
                .iter()
                .map(stats_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("tenants is not an array".to_string()),
            None => vec![global.clone()],
        };
        let outcomes = match entry.get("outcomes") {
            Some(Json::Array(items)) => items
                .iter()
                .map(outcome_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("outcomes is not an array".to_string()),
            // Entries journaled before outcomes existed — or by any
            // fault-free run since — report every tenant as completed.
            None => vec![TenantOutcome::Completed; per_tenant.len()],
        };
        Ok(MachineRunStats {
            global,
            per_tenant,
            outcomes,
        })
    } else {
        let cause = entry
            .get("cause")
            .and_then(Json::as_str)
            .and_then(FailureCause::from_label)
            .ok_or("missing or unknown cause")?;
        let attempts = entry
            .get("attempts")
            .and_then(Json::as_u64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or("missing attempts")?;
        let message = entry
            .get("message")
            .and_then(Json::as_str)
            .ok_or("missing message")?
            .to_string();
        Err(CellFailure {
            cause,
            attempts,
            message,
        })
    };
    Ok((index, outcome))
}

/// Renders one tenant outcome. Shared with the report serializer so a
/// kill reads identically in the journal and the aggregated document.
pub(crate) fn outcome_json(outcome: &TenantOutcome) -> Json {
    let mut obj = Json::object();
    match outcome {
        TenantOutcome::Completed => {
            obj.set("outcome", Json::Str("completed".to_string()));
        }
        TenantOutcome::Killed { cause, at_event } => {
            obj.set("outcome", Json::Str("killed".to_string()));
            obj.set("cause", Json::Str(cause.label().to_string()));
            obj.set("at_event", Json::U64(*at_event));
        }
    }
    obj
}

fn outcome_from_json(obj: &Json) -> Result<TenantOutcome, String> {
    match obj.get("outcome").and_then(Json::as_str) {
        Some("completed") => Ok(TenantOutcome::Completed),
        Some("killed") => {
            let cause = obj
                .get("cause")
                .and_then(Json::as_str)
                .and_then(TenantFaultCause::from_label)
                .ok_or("missing or unknown kill cause")?;
            let at_event = u64_field(obj, "at_event")?;
            Ok(TenantOutcome::Killed { cause, at_event })
        }
        other => Err(format!("unknown outcome {other:?}")),
    }
}

// --- full RunStats codec ------------------------------------------------
//
// The report's stats block drops fields the figures never read; a resumed
// run must rebuild the *exact* RunStats, so the journal carries all of
// them. u64 fields round-trip trivially; f64 fields round-trip exactly
// because the writer uses Rust's shortest-round-trip formatting.

fn stats_to_json(stats: &RunStats) -> Json {
    let mut obj = Json::object();
    obj.set("name", Json::Str(stats.name.clone()));
    let p = &stats.profile;
    let mut profile = Json::object();
    profile.set("name", Json::Str(p.name.clone()));
    profile.set("base_cpi", Json::F64(p.base_cpi));
    profile.set("insts_per_access", Json::F64(p.insts_per_access));
    profile.set("l1_miss_criticality", Json::F64(p.l1_miss_criticality));
    profile.set("walk_savable", Json::F64(p.walk_savable));
    profile.set("smt_slowdown", Json::F64(p.smt_slowdown));
    obj.set("profile", profile);
    obj.set(
        "mem",
        Json::counters(&TlbStats::FIELDS, &stats.mem.values()),
    );
    obj.set("walks", Json::U64(stats.walks));
    obj.set("walk_refs", Json::U64(stats.walk_refs));
    obj.set("alias_extras", Json::U64(stats.alias_extras));
    obj.set("ad_updates", Json::U64(stats.ad_updates));
    obj.set("os", Json::counters(&OsStats::FIELDS, &stats.os.values()));
    obj.set("instructions", Json::U64(stats.instructions));
    obj.set("full_instructions", Json::U64(stats.full_instructions));
    obj.set(
        "full_mem",
        Json::counters(&TlbStats::FIELDS, &stats.full_mem.values()),
    );
    obj.set("full_walk_refs", Json::U64(stats.full_walk_refs));
    let mut census = Json::object();
    for (order, pages) in &stats.page_census {
        census.set(&format!("{}", order.get()), Json::U64(*pages));
    }
    obj.set("page_census", census);
    obj.set("resident_bytes", Json::U64(stats.resident_bytes));
    obj.set("touched_bytes", Json::U64(stats.touched_bytes));
    let (pde, pdpte, pml4e) = stats.mmu_cache_hits;
    obj.set(
        "mmu_cache_hits",
        Json::Array(vec![Json::U64(pde), Json::U64(pdpte), Json::U64(pml4e)]),
    );
    obj.set(
        "hw_faults",
        Json::counters(&HwFaultStats::FIELDS, &stats.hw_faults.values()),
    );
    obj
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing u64 field {key:?}"))
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing f64 field {key:?}"))
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn stats_from_json(obj: &Json) -> Result<RunStats, String> {
    let profile_obj = obj.get("profile").ok_or("missing profile")?;
    let profile = WorkloadProfile {
        name: str_field(profile_obj, "name")?.to_string(),
        base_cpi: f64_field(profile_obj, "base_cpi")?,
        insts_per_access: f64_field(profile_obj, "insts_per_access")?,
        l1_miss_criticality: f64_field(profile_obj, "l1_miss_criticality")?,
        walk_savable: f64_field(profile_obj, "walk_savable")?,
        smt_slowdown: f64_field(profile_obj, "smt_slowdown")?,
    };
    let mut page_census = std::collections::BTreeMap::new();
    if let Json::Object(pairs) = obj.get("page_census").ok_or("missing page_census")? {
        for (key, value) in pairs {
            let order: u8 = key.parse().map_err(|_| format!("bad order key {key:?}"))?;
            let order = PageOrder::new(order).map_err(|e| e.to_string())?;
            let pages = value.as_u64().ok_or("bad census count")?;
            page_census.insert(order, pages);
        }
    } else {
        return Err("page_census is not an object".to_string());
    }
    let hits = match obj.get("mmu_cache_hits") {
        Some(Json::Array(items)) if items.len() == 3 => {
            let mut it = items.iter().map(Json::as_u64);
            let mut next = || it.next().flatten().ok_or("bad mmu_cache_hits entry");
            (next()?, next()?, next()?)
        }
        _ => return Err("mmu_cache_hits is not a 3-array".to_string()),
    };
    Ok(RunStats {
        name: str_field(obj, "name")?.to_string(),
        profile,
        mem: TlbStats::from_values(obj.counters_at("mem", &TlbStats::FIELDS)?),
        walks: u64_field(obj, "walks")?,
        walk_refs: u64_field(obj, "walk_refs")?,
        alias_extras: u64_field(obj, "alias_extras")?,
        ad_updates: u64_field(obj, "ad_updates")?,
        os: OsStats::from_values(obj.counters_at("os", &OsStats::FIELDS)?),
        instructions: u64_field(obj, "instructions")?,
        full_instructions: u64_field(obj, "full_instructions")?,
        full_mem: TlbStats::from_values(obj.counters_at("full_mem", &TlbStats::FIELDS)?),
        full_walk_refs: u64_field(obj, "full_walk_refs")?,
        page_census,
        resident_bytes: u64_field(obj, "resident_bytes")?,
        touched_bytes: u64_field(obj, "touched_bytes")?,
        mmu_cache_hits: hits,
        hw_faults: HwFaultStats::from_values(obj.counters_at("hw_faults", &HwFaultStats::FIELDS)?),
    })
}

#[cfg(test)]
mod tests {
    use super::super::io::{FaultyIo, FaultyIoConfig, RealIo};
    use super::*;
    use crate::config::Mechanism;
    use crate::experiment::spec::ExperimentSpec;
    use proptest::prelude::*;
    use std::fs::OpenOptions;
    use tps_wl::SuiteScale;

    fn matrix() -> ExperimentMatrix {
        ExperimentSpec::new()
            .bench("gups")
            .mechanisms([Mechanism::Thp, Mechanism::Tps])
            .scale(SuiteScale::Test)
            .seed(9)
            .build()
            .unwrap()
    }

    fn sample_stats() -> RunStats {
        let m = matrix();
        let report = m.run();
        report
            .stats("gups", Mechanism::Tps)
            .expect("test-scale gups runs")
            .clone()
    }

    fn cached_stats() -> &'static RunStats {
        static STATS: std::sync::OnceLock<RunStats> = std::sync::OnceLock::new();
        STATS.get_or_init(sample_stats)
    }

    /// Wraps a rollup as the solo-machine outcome cells journal.
    fn solo(stats: RunStats) -> MachineRunStats {
        MachineRunStats {
            global: stats.clone(),
            per_tenant: vec![stats],
            outcomes: vec![TenantOutcome::Completed],
        }
    }

    #[test]
    fn stats_round_trip_exactly() {
        let stats = sample_stats();
        let json = stats_to_json(&stats).render_compact();
        let back = stats_from_json(&Json::parse(&json).unwrap()).unwrap();
        // Re-serializing the reconstruction is byte-identical, which is
        // the property resume (and the entry CRC check) rests on.
        assert_eq!(stats_to_json(&back).render_compact(), json);
        assert_eq!(back.mem, stats.mem);
        assert_eq!(back.page_census, stats.page_census);
        assert_eq!(back.hw_faults, stats.hw_faults);
        assert_eq!(
            back.profile.base_cpi.to_bits(),
            stats.profile.base_cpi.to_bits()
        );
    }

    /// Builds every counter group from distinct non-zero values, so a
    /// swapped, dropped or mis-summed counter cannot hide behind a zero.
    #[test]
    fn counter_groups_round_trip_sum_and_report_in_table_order() {
        use std::array::from_fn;
        // Descending from `top`, so `accesses >= l1_hits` as a report needs.
        fn down<const N: usize>(top: u64) -> [u64; N] {
            from_fn(|i| top - i as u64)
        }
        let distinct = |base: u64| {
            let mut s = cached_stats().clone();
            s.mem = TlbStats::from_values(down(base + 99));
            s.full_mem = TlbStats::from_values(down(base + 89));
            s.os = OsStats::from_values(down(base + 79));
            s.hw_faults = HwFaultStats::from_values(down(base + 59));
            s
        };
        let (a, b) = (distinct(100), distinct(1_000));

        let back = stats_from_json(&Json::parse(&stats_to_json(&a).render_compact()).unwrap());
        let back = back.unwrap();
        assert_eq!(back.mem, a.mem);
        assert_eq!(back.full_mem, a.full_mem);
        assert_eq!(back.os, a.os);
        assert_eq!(back.hw_faults, a.hw_faults);

        let sum =
            |x: &[u64], y: &[u64]| -> Vec<u64> { x.iter().zip(y).map(|(x, y)| x + y).collect() };
        let rolled = crate::machine::rollup(&[a.clone(), b.clone()], OsStats::default());
        assert_eq!(
            rolled.mem.values().to_vec(),
            sum(&a.mem.values(), &b.mem.values())
        );
        assert_eq!(
            rolled.full_mem.values().to_vec(),
            sum(&a.full_mem.values(), &b.full_mem.values())
        );
        assert_eq!(
            rolled.hw_faults.values().to_vec(),
            sum(&a.hw_faults.values(), &b.hw_faults.values())
        );
        let mut os = a.os;
        os.accumulate(&b.os);
        assert_eq!(os.values().to_vec(), sum(&a.os.values(), &b.os.values()));

        let hw = &a.hw_faults;
        let expected = [
            ("walk_restarts", hw.walk_restarts),
            ("alias_install_retries", hw.alias_install_retries),
            ("mmu_cache_fill_drops", hw.mmu_cache_fill_drops),
            ("tlb_fill_drops", hw.tlb_fill_drops),
            ("tlb_evict_abandons", hw.tlb_evict_abandons),
            ("stlb_probe_misses", hw.stlb_probe_misses),
        ];
        let report = super::super::report::stats_json(&a);
        let Some(Json::Object(pairs)) = report.get("hw_faults") else {
            panic!("report has no hw_faults object");
        };
        let pairs: Vec<(&str, u64)> = pairs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_u64().unwrap()))
            .collect();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn multi_tenant_entries_round_trip_per_tenant_stats() {
        let dir = std::env::temp_dir().join("tps-ckpt-test-tenants");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let m = matrix();
        let mut a = cached_stats().clone();
        a.walks += 1;
        let mut b = cached_stats().clone();
        b.os.faults += 7;
        let outcome = MachineRunStats {
            global: cached_stats().clone(),
            per_tenant: vec![a.clone(), b.clone()],
            outcomes: vec![TenantOutcome::Completed; 2],
        };
        {
            let writer = CheckpointWriter::create(&RealIo, &path, &m, false).unwrap();
            writer.record(0, &Ok(outcome.clone())).unwrap();
            writer.finish().unwrap();
        }
        let loaded = load(&path, &m, false).unwrap();
        let replayed = loaded.done[&0].as_ref().unwrap();
        assert_eq!(replayed.per_tenant.len(), 2);
        assert_eq!(replayed.per_tenant[0].walks, a.walks);
        assert_eq!(replayed.per_tenant[1].os.faults, b.os.faults);
        assert_eq!(
            stats_to_json(&replayed.global).render_compact(),
            stats_to_json(&outcome.global).render_compact()
        );
        // An entry with the tenants array stripped — a pre-tenant journal
        // line — still loads, reconstructing per_tenant from the rollup.
        let text = std::fs::read_to_string(&path).unwrap();
        let entry = text.lines().nth(1).unwrap();
        assert!(entry.contains("\"tenants\":"), "two tenants are journaled");
        assert!(
            !entry.contains("\"outcomes\":"),
            "a fault-free entry journals no outcomes key"
        );
        assert_eq!(
            replayed.outcomes,
            vec![TenantOutcome::Completed; 2],
            "missing outcomes key loads as all-completed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_outcomes_round_trip_through_the_journal() {
        let dir = std::env::temp_dir().join("tps-ckpt-test-killed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let m = matrix();
        let outcome = MachineRunStats {
            global: cached_stats().clone(),
            per_tenant: vec![cached_stats().clone(), cached_stats().clone()],
            outcomes: vec![
                TenantOutcome::Killed {
                    cause: TenantFaultCause::CapExceeded,
                    at_event: 37,
                },
                TenantOutcome::Completed,
            ],
        };
        {
            let writer = CheckpointWriter::create(&RealIo, &path, &m, false).unwrap();
            writer.record(0, &Ok(outcome.clone())).unwrap();
            writer.finish().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let entry = text.lines().nth(1).unwrap();
        assert!(entry.contains("\"outcomes\":"), "{entry}");
        assert!(entry.contains("\"cause\":\"cap-exceeded\""), "{entry}");
        let loaded = load(&path, &m, false).unwrap();
        let replayed = loaded.done[&0].as_ref().unwrap();
        assert_eq!(replayed.outcomes, outcome.outcomes);
        assert_eq!(
            replayed.outcome(0),
            TenantOutcome::Killed {
                cause: TenantFaultCause::CapExceeded,
                at_event: 37,
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_writes_and_loads() {
        let dir = std::env::temp_dir().join("tps-ckpt-test-basic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let m = matrix();
        let stats = cached_stats().clone();
        let failure = CellFailure {
            cause: FailureCause::Panic,
            attempts: 3,
            message: "worker thread panicked: cell (gups, THP): boom".to_string(),
        };
        {
            let writer = CheckpointWriter::create(&RealIo, &path, &m, false).unwrap();
            writer.record(1, &Ok(solo(stats.clone()))).unwrap();
            writer.record(0, &Err(failure.clone())).unwrap();
            writer.finish().unwrap();
        }
        let loaded = load(&path, &m, false).unwrap();
        assert_eq!(loaded.done.len(), 2);
        assert_eq!(loaded.next_seq, 2, "two entries consumed seqs 0 and 1");
        assert_eq!(loaded.dropped, 0);
        assert_eq!(
            loaded.clean_len,
            std::fs::metadata(&path).unwrap().len(),
            "a clean journal has no torn tail"
        );
        assert_eq!(loaded.done[&0].as_ref().unwrap_err(), &failure);
        let replayed = loaded.done[&1].as_ref().unwrap();
        assert_eq!(
            stats_to_json(&replayed.global).render_compact(),
            stats_to_json(&stats).render_compact()
        );
        assert_eq!(
            replayed.per_tenant.len(),
            1,
            "a solo entry loads with its rollup as the only tenant"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_append_is_fsynced_and_finish_syncs_again() {
        let dir = std::env::temp_dir().join("tps-ckpt-test-fsync");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let m = matrix();
        let io = FaultyIo::new(FaultyIoConfig::default());
        let writer = CheckpointWriter::create(&io, &path, &m, false).unwrap();
        assert_eq!(io.syncs(), 1, "header is synced");
        writer
            .record(
                0,
                &Err(CellFailure {
                    cause: FailureCause::Fault,
                    attempts: 1,
                    message: "x".to_string(),
                }),
            )
            .unwrap();
        assert_eq!(io.syncs(), 2, "each appended entry is synced");
        writer.finish().unwrap();
        assert_eq!(io.syncs(), 3, "finish syncs before close");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_line_is_discarded_and_truncated_on_append() {
        let dir = std::env::temp_dir().join("tps-ckpt-test-torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let m = matrix();
        {
            let writer = CheckpointWriter::create(&RealIo, &path, &m, false).unwrap();
            writer
                .record(
                    0,
                    &Err(CellFailure {
                        cause: FailureCause::Fault,
                        attempts: 1,
                        message: "x".to_string(),
                    }),
                )
                .unwrap();
        }
        let clean = std::fs::metadata(&path).unwrap().len();
        // Simulate a kill mid-write: append half an entry.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"seq\":1,\"crc\":123,\"body\":{\"cell\":1,\"ok\":tr")
            .unwrap();
        drop(f);
        let loaded = load(&path, &m, false).unwrap();
        assert_eq!(loaded.done.len(), 1, "torn tail dropped, intact entry kept");
        assert!(loaded.done.contains_key(&0));
        assert_eq!(loaded.next_seq, 1);
        assert_eq!(loaded.clean_len, clean, "clean prefix excludes the tail");
        // Appending truncates the wreckage before writing the next entry.
        {
            let writer = CheckpointWriter::append_to(
                &RealIo,
                &path,
                loaded.next_seq,
                Some(loaded.clean_len),
            )
            .unwrap();
            writer.record(1, &Ok(solo(cached_stats().clone()))).unwrap();
        }
        let reloaded = load(&path, &m, false).unwrap();
        assert_eq!(reloaded.done.len(), 2, "resumed journal is fully clean");
        assert_eq!(reloaded.next_seq, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn midfile_corruption_is_detected_and_salvageable() {
        let dir = std::env::temp_dir().join("tps-ckpt-test-midfile");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let m = matrix();
        {
            let writer = CheckpointWriter::create(&RealIo, &path, &m, false).unwrap();
            writer.record(0, &Ok(solo(cached_stats().clone()))).unwrap();
            writer.record(1, &Ok(solo(cached_stats().clone()))).unwrap();
        }
        // Flip one byte in the middle of the first entry's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let entry_end = header_end
            + bytes[header_end..]
                .iter()
                .position(|&b| b == b'\n')
                .unwrap();
        let victim = header_end + (entry_end - header_end) / 2;
        bytes[victim] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let err = load(&path, &m, false).unwrap_err();
        assert!(matches!(err, TpsError::CheckpointCorrupt { .. }), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");

        let salvaged = load(&path, &m, true).unwrap();
        assert_eq!(salvaged.dropped, 1, "the damaged entry is dropped");
        assert_eq!(salvaged.done.len(), 1, "the intact entry survives");
        assert!(salvaged.done.contains_key(&1));
        assert_eq!(salvaged.next_seq, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn nonmonotone_sequence_reads_as_corruption() {
        let dir = std::env::temp_dir().join("tps-ckpt-test-seq");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let m = matrix();
        let failure = Err(CellFailure {
            cause: FailureCause::Panic,
            attempts: 1,
            message: "x".to_string(),
        });
        let doc = format!(
            "{}\n{}\n{}\n",
            header_json(&m).render_compact(),
            entry_line(1, 0, &failure),
            entry_line(1, 1, &failure), // replayed sequence number
        );
        std::fs::write(&path, doc).unwrap();
        let err = load(&path, &m, false).unwrap_err();
        assert!(matches!(err, TpsError::CheckpointCorrupt { .. }), "{err}");
        assert!(err.to_string().contains("not increasing"), "{err}");
        let salvaged = load(&path, &m, true).unwrap();
        assert_eq!(salvaged.dropped, 1);
        assert_eq!(salvaged.next_seq, 2, "seq gaps stay legal after salvage");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_to_clobber_a_journal_with_entries() {
        let dir = std::env::temp_dir().join("tps-ckpt-test-clobber");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let m = matrix();
        {
            let writer = CheckpointWriter::create(&RealIo, &path, &m, false).unwrap();
            writer
                .record(
                    0,
                    &Err(CellFailure {
                        cause: FailureCause::Panic,
                        attempts: 1,
                        message: "x".to_string(),
                    }),
                )
                .unwrap();
        }
        let before = std::fs::read(&path).unwrap();
        let err = CheckpointWriter::create(&RealIo, &path, &m, false).unwrap_err();
        assert!(err.to_string().contains("--force-checkpoint"), "{err}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "refused create must not touch the journal"
        );
        // A journal of a *different* spec is refused even when empty of
        // entries; --force-checkpoint overrides both refusals.
        let other = ExperimentSpec::new()
            .bench("gups")
            .mechanisms([Mechanism::Thp, Mechanism::Tps])
            .scale(SuiteScale::Test)
            .seed(10)
            .build()
            .unwrap();
        let err = CheckpointWriter::create(&RealIo, &path, &other, false).unwrap_err();
        assert!(
            err.to_string().contains("different experiment spec"),
            "{err}"
        );
        CheckpointWriter::create(&RealIo, &path, &m, true).unwrap();
        let reloaded = load(&path, &m, false).unwrap();
        assert_eq!(reloaded.done.len(), 0, "forced create truncated");
        // Recreating over a header-only journal of the same spec is fine.
        CheckpointWriter::create(&RealIo, &path, &m, false).unwrap();
        // A random non-journal file is protected too.
        std::fs::write(&path, "important notes, definitely not a journal\n").unwrap();
        let err = CheckpointWriter::create(&RealIo, &path, &m, false).unwrap_err();
        assert!(
            err.to_string().contains("not a checkpoint journal"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_spec_is_rejected() {
        let dir = std::env::temp_dir().join("tps-ckpt-test-mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let m = matrix();
        CheckpointWriter::create(&RealIo, &path, &m, false).unwrap();
        let other = ExperimentSpec::new()
            .bench("gups")
            .mechanisms([Mechanism::Thp, Mechanism::Tps])
            .scale(SuiteScale::Test)
            .seed(10) // different seed → different fingerprint
            .build()
            .unwrap();
        let err = load(&path, &other, false).unwrap_err();
        assert!(matches!(err, TpsError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("different experiment spec"));
        // Not-a-journal files are rejected too.
        std::fs::write(&path, "{\"schema\":\"nope\"}\n").unwrap();
        assert!(load(&path, &m, false).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn single_byte_corruption_is_detected_or_irrelevant(
            seq in 0u64..10_000,
            kind in 0u64..2,
            attempts in 1u64..9,
            walks in 0u64..u64::MAX,
            message in prop::sample::select(vec![
                "plain",
                "with \"quotes\" and \\ backslash",
                "newline\nand tab\tinside",
                "unicode π ✓ ∞",
                "",
            ]),
            pos_draw in 0u64..u64::MAX,
            xor_draw in 0u64..u64::MAX,
        ) {
            let cell = seq % 2;
            let outcome = if kind == 0 {
                let mut stats = cached_stats().clone();
                stats.walks = walks; // vary one journaled field per case
                Ok(solo(stats))
            } else {
                Err(CellFailure {
                    cause: FailureCause::Panic,
                    attempts: attempts as u32,
                    message: message.to_string(),
                })
            };
            let line = entry_line(seq, cell, &outcome);
            let reference = entry_json(cell, &outcome).render_compact();
            // Sanity: the clean line parses back to the same entry.
            let (s, i, o) = parse_entry_line(&line, 2).expect("clean line parses");
            prop_assert_eq!(s, seq);
            prop_assert_eq!(i, cell);
            prop_assert_eq!(&entry_json(i, &o).render_compact(), &reference);

            let mut bytes = line.clone().into_bytes();
            let pos = (pos_draw % bytes.len() as u64) as usize;
            let xor = (xor_draw % 255 + 1) as u8; // never a no-op flip
            bytes[pos] ^= xor;
            match String::from_utf8(bytes) {
                // Invalid UTF-8 fails read_to_string at load: detected.
                Err(_) => {}
                Ok(corrupted) => {
                    // A corruption byte may be '\n', splitting the line;
                    // every resulting piece must either fail verification
                    // or decode to exactly the original entry.
                    for piece in corrupted.split('\n').filter(|p| !p.is_empty()) {
                        if let Ok((s, i, o)) = parse_entry_line(piece, 2) {
                            prop_assert_eq!(s, seq, "undetected seq change");
                            prop_assert_eq!(i, cell, "undetected cell change");
                            prop_assert_eq!(
                                &entry_json(i, &o).render_compact(),
                                &reference,
                                "undetected body change"
                            );
                        }
                    }
                }
            }
        }
    }
}
