//! Rules that inspect one file at a time.

use super::{
    CORE_CRATE, FAULT_PATH_FILES, GUARDED_ENUMS, NO_MAGIC_PAGE_SIZE, NO_WILDCARD_ENUM_MATCH,
    PANIC_FREE, RAW_ARTIFACT_IO,
};
use crate::diag::Diagnostic;
use crate::file::{FileCtx, Sig};
use crate::lexer::{int_value, TokenKind};

/// Page-size byte values that must come from `tps-core` constants.
// tps-lint::allow(no-magic-page-size, reason = "the lint's own definition of the banned values")
const PAGE_SIZE_VALUES: [u128; 3] = [4096, 2 << 20, 1 << 30];
/// Shift amounts in `1 << n` that spell a page size (4 KB / 2 MB / 1 GB).
const PAGE_SIZE_SHIFTS: [u128; 3] = [12, 21, 30];

/// Assertion macros banned in [`FAULT_PATH_FILES`]: a failed assertion on
/// the tenant step path aborts the machine that containment promises will
/// outlive the faulting tenant.
const ASSERT_MACROS: [&str; 6] = [
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// [`PANIC_FREE`]: no assertion macros in non-test code of the tenant
/// event-path files.
pub fn panic_free(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !FAULT_PATH_FILES.contains(&ctx.rel_path) {
        return;
    }
    for i in 0..ctx.sig.len() {
        if ctx.is_test(i) || ctx.sig[i].kind != TokenKind::Ident {
            continue;
        }
        let t = ctx.sig[i].text;
        if ASSERT_MACROS.contains(&t) && ctx.text(i + 1) == "!" {
            out.push(ctx.diag(
                i,
                PANIC_FREE,
                format!(
                    "`{t}!` on the tenant event path aborts the whole machine on a single \
                     tenant's misbehavior; surface a TenantFault / TpsError so the kill \
                     path can contain it"
                ),
            ));
        }
    }
}

/// [`NO_MAGIC_PAGE_SIZE`]: page-size byte values must be spelled via
/// `tps_core` constants everywhere outside `tps-core`, tests included.
pub fn magic_page_size(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.crate_name == CORE_CRATE {
        return;
    }
    for i in 0..ctx.sig.len() {
        if ctx.sig[i].kind != TokenKind::Int {
            continue;
        }
        let Some(v) = int_value(ctx.sig[i].text) else {
            continue;
        };
        if PAGE_SIZE_VALUES.contains(&v) {
            out.push(ctx.diag(
                i,
                NO_MAGIC_PAGE_SIZE,
                format!(
                    "bare page-size literal `{}`; use tps_core::BASE_PAGE_SIZE / PageSize / \
                     PageOrder constants so a page-size change cannot silently miss this site",
                    ctx.sig[i].text
                ),
            ));
            continue;
        }
        if v == 1 && ctx.text(i + 1) == "<<" && ctx.sig.len() > i + 2 {
            if let Some(shift) = int_value(ctx.text(i + 2)) {
                if PAGE_SIZE_SHIFTS.contains(&shift) {
                    out.push(ctx.diag(
                        i,
                        NO_MAGIC_PAGE_SIZE,
                        format!(
                            "`1 << {shift}` spells a page size; use tps_core::BASE_PAGE_SIZE / \
                             PageSize::from_order instead"
                        ),
                    ));
                }
            }
        }
    }
}

/// [`NO_WILDCARD_ENUM_MATCH`]: a `match` whose arm patterns name one of the
/// guarded enums must stay exhaustive — no bare `_` arm, so that adding a
/// variant is a compile-time event at every consumer.
pub fn wildcard_enum_match(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.sig.len() {
        if ctx.sig[i].text != "match" || ctx.sig[i].kind != TokenKind::Ident || ctx.is_test(i) {
            continue;
        }
        // The body opens at the first top-level `{` after the scrutinee:
        // Rust requires parentheses around struct literals and closures
        // there, so no bare block can come first.
        let Some(block_open) = ctx.find_top(i + 1, |t| t == "{" || t == ";") else {
            continue;
        };
        let Some(block_close) = ctx.partner(block_open) else {
            continue; // `;` first: not a match expression
        };
        let arms = parse_arms(ctx, block_open + 1, block_close);
        let guarded = arms.iter().any(|a| {
            pattern_slice(ctx, a)
                .windows(2)
                .any(|w| GUARDED_ENUMS.contains(&w[0].text) && w[1].text == "::")
        });
        if !guarded {
            continue;
        }
        for a in &arms {
            let pat = pattern_slice(ctx, a);
            if pat.len() == 1 && pat[0].text == "_" {
                out.push(
                    ctx.diag(
                        a.pat_start,
                        NO_WILDCARD_ENUM_MATCH,
                        "wildcard arm in a match over a core TPS enum; enumerate the variants so \
                     adding one forces every consumer to be revisited"
                            .to_string(),
                    ),
                );
            }
        }
    }
}

/// One parsed match arm: token index range of its pattern (inclusive start,
/// exclusive end at the `=>`), with any `if` guard excluded.
struct Arm {
    pat_start: usize,
    pat_end: usize,
}

fn pattern_slice<'c, 'a>(ctx: &'c FileCtx<'a>, a: &Arm) -> &'c [Sig<'a>] {
    &ctx.sig[a.pat_start..a.pat_end]
}

/// Splits the token range of a match body into arms.
fn parse_arms(ctx: &FileCtx<'_>, start: usize, end: usize) -> Vec<Arm> {
    let mut arms = Vec::new();
    let mut j = start;
    while j < end {
        // Skip attributes on the arm.
        while j + 1 < end && ctx.text(j) == "#" && ctx.text(j + 1) == "[" {
            match ctx.partner(j + 1) {
                Some(c) => j = c + 1,
                None => return arms,
            }
        }
        if j >= end {
            break;
        }
        // Pattern runs until `=>` at this nesting level; an `if` guard ends
        // the pattern proper.
        let Some(guard) = ctx.find_top(j, |t| t == "if" || t == "=>") else {
            break; // no arrow: not an arm (e.g. empty match)
        };
        let Some(arrow) = ctx.find_top(guard, |t| t == "=>") else {
            break;
        };
        arms.push(Arm {
            pat_start: j,
            pat_end: guard,
        });
        // Skip the body: a braced block, or tokens up to a top-level comma.
        j = if ctx.text(arrow + 1) == "{" {
            match ctx.partner(arrow + 1) {
                Some(c) if ctx.text(c + 1) == "," => c + 2,
                Some(c) => c + 1,
                None => return arms,
            }
        } else {
            ctx.find_top(arrow + 1, |t| t == ",").map_or(end, |c| c + 1)
        };
    }
    arms
}

/// The experiment-engine directory whose writes must use `experiment::io`.
const EXPERIMENT_DIR: &str = "crates/tps-sim/src/experiment/";
/// `std::fs` free functions that write or replace files.
const FS_WRITE_FNS: [&str; 2] = ["write", "rename"];

/// [`RAW_ARTIFACT_IO`]: inside `tps-sim`'s experiment engine, file output
/// must flow through the `experiment::io` sink layer (`ArtifactSink` /
/// `write_atomic`) so crash-safety and fault injection cover every byte
/// that reaches disk. Direct `File::create` / `OpenOptions` /
/// `fs::write` / `fs::rename` calls are flagged everywhere but `io.rs`
/// itself (the one place allowed to touch the real filesystem).
pub fn raw_artifact_io(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.rel_path.starts_with(EXPERIMENT_DIR) || ctx.rel_path.ends_with("/io.rs") {
        return;
    }
    for i in 0..ctx.sig.len() {
        if ctx.is_test(i) || ctx.sig[i].kind != TokenKind::Ident {
            continue;
        }
        match ctx.sig[i].text {
            "OpenOptions" => out.push(
                ctx.diag(
                    i,
                    RAW_ARTIFACT_IO,
                    "`OpenOptions` bypasses the experiment::io sink layer; open artifacts via \
                 ArtifactIo so crash injection and fsync discipline cover this write"
                        .to_string(),
                ),
            ),
            "File"
                if ctx.text(i + 1) == "::" && matches!(ctx.text(i + 2), "create" | "options") =>
            {
                out.push(ctx.diag(
                    i,
                    RAW_ARTIFACT_IO,
                    format!(
                        "`File::{}` bypasses the experiment::io sink layer; create artifacts via \
                         ArtifactIo::create / write_atomic",
                        ctx.text(i + 2)
                    ),
                ));
            }
            "fs" if ctx.text(i + 1) == "::" && FS_WRITE_FNS.contains(&ctx.text(i + 2)) => {
                out.push(ctx.diag(
                    i,
                    RAW_ARTIFACT_IO,
                    format!(
                        "`fs::{}` bypasses the experiment::io sink layer; write artifacts via \
                         write_atomic (or an ArtifactSink) so publication stays atomic and faultable",
                        ctx.text(i + 2)
                    ),
                ));
            }
            _ => {}
        }
    }
}
