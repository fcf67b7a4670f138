//! The TPS domain rules.
//!
//! Each rule is a token-level pass over one file ([`check_file`]) or over
//! the whole workspace ([`check_workspace`]). See `DESIGN.md` ("Static
//! analysis") for the rationale behind each rule.

mod cross_file;
pub mod determinism;
pub mod hot_path;
mod per_file;

use crate::diag::Diagnostic;
use crate::file::FileCtx;
use crate::hot_paths::HotPaths;
use crate::symbol_index::SymbolIndex;

/// `assert!` and friends are banned on the tenant event path; clippy
/// carries the `unwrap`/`expect`/`panic!` half of the contract.
pub const PANIC_FREE: &str = "panic-free-fault-path";
/// Bare page-size literals (`4096`, `0x1000`, `1 << 12`, ...) are banned
/// outside `tps-core`.
pub const NO_MAGIC_PAGE_SIZE: &str = "no-magic-page-size";
/// Every `FaultSite` variant must be consulted by an injection hook.
pub const FAULT_SITE_COVERAGE: &str = "fault-site-coverage";
/// Every `OsStats` counter must be incremented somewhere.
pub const STATS_COUNTER_COVERAGE: &str = "stats-counter-coverage";
/// Wildcard arms are banned in matches over the workspace's core enums.
pub const NO_WILDCARD_ENUM_MATCH: &str = "no-wildcard-enum-match";
/// Meta-rule: a `tps-lint::allow` directive that cannot be honored.
pub const MALFORMED_SUPPRESSION: &str = "malformed-suppression";
/// Direct `std::fs` writes are banned inside the experiment engine; all
/// artifact output must flow through `experiment::io`.
pub const RAW_ARTIFACT_IO: &str = "raw-artifact-io";
/// Observable iteration over `HashMap`/`HashSet` is banned in the
/// deterministic crates unless the sink is an order-insensitive fold.
pub const UNORDERED_ITERATION: &str = "unordered-iteration";
/// Floating-point accumulation over an unordered container is banned (the
/// result depends on iteration order).
pub const FLOAT_ACCUM_ORDER: &str = "float-accum-order";
/// Heap allocation is banned in functions hot-reachable from a declared
/// translation entry point.
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// `dyn` dispatch (params, fields, aliases) is banned in hot-reachable
/// functions.
pub const HOT_PATH_DYN_DISPATCH: &str = "hot-path-dyn-dispatch";
/// Locks and console/filesystem I/O are banned in hot-reachable functions.
pub const HOT_PATH_LOCK_IO: &str = "hot-path-lock-io";
/// `.clone()` of non-`Copy` values is banned in hot-reachable functions.
pub const HOT_PATH_CLONE: &str = "hot-path-clone";

/// Every rule name, in reporting order.
pub const RULES: [&str; 13] = [
    PANIC_FREE,
    NO_MAGIC_PAGE_SIZE,
    FAULT_SITE_COVERAGE,
    STATS_COUNTER_COVERAGE,
    NO_WILDCARD_ENUM_MATCH,
    MALFORMED_SUPPRESSION,
    RAW_ARTIFACT_IO,
    UNORDERED_ITERATION,
    FLOAT_ACCUM_ORDER,
    HOT_PATH_ALLOC,
    HOT_PATH_DYN_DISPATCH,
    HOT_PATH_LOCK_IO,
    HOT_PATH_CLONE,
];

/// Files on the tenant event path where [`PANIC_FREE`] bans `assert!` and
/// friends: a failed containment assertion would abort the very machine
/// that is supposed to outlive a misbehaving tenant. No clippy lint sees
/// assertions; each file also denies clippy's `unwrap_used`/`panic` family
/// in an inner attribute.
pub const FAULT_PATH_FILES: [&str; 1] = ["crates/tps-sim/src/machine.rs"];
/// The only crate allowed to spell out page-size constants.
pub const CORE_CRATE: &str = "tps-core";
/// Enums whose matches may not use a wildcard arm.
pub const GUARDED_ENUMS: [&str; 6] = [
    "TpsError",
    "FaultSite",
    "InvariantLayer",
    "PteFlags",
    "Mechanism",
    "SuiteScale",
];

/// Runs every per-file rule over `ctx`.
pub fn check_file(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    per_file::panic_free(ctx, out);
    per_file::magic_page_size(ctx, out);
    per_file::wildcard_enum_match(ctx, out);
    per_file::raw_artifact_io(ctx, out);
    out.extend(ctx.malformed.iter().cloned());
}

/// Runs every cross-file rule over the whole workspace, including the
/// symbol-indexed determinism and hot-path passes.
pub fn check_workspace(
    files: &[FileCtx<'_>],
    index: &SymbolIndex,
    hot: &HotPaths,
    out: &mut Vec<Diagnostic>,
) {
    cross_file::fault_site_coverage(files, out);
    cross_file::stats_counter_coverage(files, out);
    determinism::check(files, index, out);
    hot_path::check(files, index, hot, out);
}

/// A prose explanation of `rule` for `tps-lint --explain`, or `None` for
/// an unknown rule name.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        PANIC_FREE => {
            "panic-free-fault-path: `assert!`, `assert_eq!`, `assert_ne!` and their `debug_` \
             forms are banned in the tenant event path (tps-sim's machine.rs) outside test \
             code. An abort on the tenant step path would take down the machine that fault \
             containment promises will outlive a misbehaving tenant; surface a TpsError \
             instead. The rest of the panic-free contract is clippy's: tps-os, tps-mem, \
             tps-pt and machine.rs deny `unwrap_used`, `expect_used`, `panic`, \
             `unreachable`, `todo` and `unimplemented`."
        }
        NO_MAGIC_PAGE_SIZE => {
            "no-magic-page-size: bare page-size literals (4096, 0x1000, 1 << 12, ...) are \
             banned outside tps-core. Every size must come from the PageOrder/PAGE_SIZE \
             constants so a page-geometry change cannot silently miss a site."
        }
        FAULT_SITE_COVERAGE => {
            "fault-site-coverage: every FaultSite variant must be consulted by an injection \
             hook somewhere in the workspace, so the chaos campaigns cannot silently lose \
             coverage of a fault point."
        }
        STATS_COUNTER_COVERAGE => {
            "stats-counter-coverage: every OsStats counter must be incremented somewhere; a \
             counter nothing increments reports a permanently-zero metric as if it were real."
        }
        NO_WILDCARD_ENUM_MATCH => {
            "no-wildcard-enum-match: `_` arms are banned in matches over the workspace's core \
             enums (TpsError, FaultSite, Mechanism, ...), so adding a variant forces every \
             consumer to decide its behavior explicitly."
        }
        MALFORMED_SUPPRESSION => {
            "malformed-suppression: a `tps-lint::allow(<rule>, reason = \"...\")` directive \
             that names an unknown rule or omits the mandatory reason is itself a violation — \
             a suppression that cannot be honored must not look like it works."
        }
        RAW_ARTIFACT_IO => {
            "raw-artifact-io: direct std::fs writes are banned inside the experiment engine; \
             artifacts must flow through experiment::io, which provides the crash-safe \
             tmp+rename+checksum protocol the chaos campaign verifies."
        }
        UNORDERED_ITERATION => {
            "unordered-iteration: iterating a HashMap/HashSet observably (iter/keys/values/\
             into_iter/drain or `for ... in &map`) is banned in the deterministic crates \
             (tps-core/mem/os/pt/tlb/wl/sim) unless the chain provably ends in an \
             order-insensitive fold (integer sum/count/min/max/any/all, or collect into a \
             BTree container). Hash iteration order varies per process, so any escape into \
             sim state or reports breaks byte-identical output across --threads and --resume. \
             Audited order-insensitive sites may use tps-lint::allow with a reason."
        }
        FLOAT_ACCUM_ORDER => {
            "float-accum-order: f32/f64 sum/product/fold over a hash-ordered container is \
             banned — float addition is not associative, so hasher order changes the result \
             in the low bits and the report bytes with it. Iterate an ordered container or \
             accumulate integers."
        }
        HOT_PATH_ALLOC => {
            "hot-path-alloc: heap allocation (Vec/Box/String constructors, vec!/format!, \
             .to_vec()/.to_string()/.to_owned(), heap collect::<..>) is banned in functions \
             reachable from a hot-paths.toml entry point. The translation fast path runs \
             per simulated memory access; one allocation there multiplies into millions per \
             experiment cell. Preallocate in a constructor, use a fixed-size buffer, or \
             declare a cold boundary if the call edge is genuinely a slow path."
        }
        HOT_PATH_DYN_DISPATCH => {
            "hot-path-dyn-dispatch: `dyn Trait` parameters, fields and aliases are banned in \
             functions reachable from a hot-paths.toml entry point. A virtual call cannot \
             inline, so the compiler cannot hoist or vectorize across it; use a generic \
             parameter or a small enum instead. The rule also flags uses of type aliases \
             that expand to `dyn` and reads of struct fields declared with `dyn` types."
        }
        HOT_PATH_LOCK_IO => {
            "hot-path-lock-io: Mutex/RwLock/Condvar, .lock(), console macros (println!/dbg!/\
             ...), and std::fs/File access are banned in functions reachable from a \
             hot-paths.toml entry point. The experiment worker pool runs one cell per \
             thread precisely so the per-access path never synchronizes or touches the OS."
        }
        HOT_PATH_CLONE => {
            "hot-path-clone: `.clone()` is banned in functions reachable from a hot-paths.toml \
             entry point when the receiver's flow-insensitive type is a heap container or a \
             workspace struct/enum that does not derive Copy. Clones of such values allocate \
             or deep-copy per access; restructure to borrow, or derive Copy for small PODs."
        }
        _ => return None,
    })
}

/// Drops diagnostics covered by a valid same-file suppression directive.
pub fn apply_suppressions(files: &[FileCtx<'_>], diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| {
            if d.rule == MALFORMED_SUPPRESSION {
                return true; // a broken directive cannot excuse anything
            }
            !files.iter().any(|f| {
                f.rel_path == d.path
                    && f.allows
                        .iter()
                        .any(|a| a.rule == d.rule && a.target_line == d.line)
            })
        })
        .collect()
}
