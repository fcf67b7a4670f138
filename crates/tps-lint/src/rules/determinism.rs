//! Pass 2: determinism rules over the symbol index.
//!
//! The byte-identical-JSON contract (reports identical at any `--threads`,
//! `--resume` byte-identical, chaos schedules replayable) is enforced
//! dynamically by verify.sh — but a dynamic gate only proves the paths a
//! given seed exercises. These rules prove the complement statically: no
//! hash-ordered iteration can reach the deterministic crates' state or
//! report fields. Wall-clock reads and per-process entropy (environment,
//! thread identity, hasher seeds) are clippy's `disallowed-methods` and
//! `disallowed-types` lists in the workspace's `clippy.toml`.
//!
//! Every rule here runs only over [`DET_CRATES`], skips test code, and
//! honours the same inline suppressions as the per-file rules.

use crate::diag::Diagnostic;
use crate::file::FileCtx;
use crate::lexer::TokenKind;
use crate::rules::{FLOAT_ACCUM_ORDER, UNORDERED_ITERATION};
use crate::symbol_index::SymbolIndex;

/// The crates whose outputs must be bit-stable across thread counts,
/// resume boundaries and process restarts.
pub const DET_CRATES: [&str; 7] = [
    "tps-core", "tps-mem", "tps-os", "tps-pt", "tps-tlb", "tps-wl", "tps-sim",
];

/// Iterator-producing methods whose order is the container's order.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Adapters that forward the underlying order unchanged; scanning
/// continues through them to the chain's terminal.
const TRANSPARENT: [&str; 10] = [
    "map",
    "filter",
    "filter_map",
    "copied",
    "cloned",
    "by_ref",
    "inspect",
    "enumerate",
    "flatten",
    "flat_map",
];

const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];
const FLOAT_TYPES: [&str; 2] = ["f32", "f64"];

/// How a method chain rooted in a hash-ordered iterator terminates.
enum Terminal {
    /// Provably order-insensitive (integer sum, count, ...): no finding.
    OrderInsensitive,
    /// Floating-point accumulation: order-sensitive in a sneaky way.
    FloatAccum(usize),
    /// Anything else, including chains that escape analysis.
    Unknown,
}

/// Runs the determinism rules. Called from the workspace pass with the
/// pass-1 symbol index.
pub fn check(files: &[FileCtx<'_>], index: &SymbolIndex, out: &mut Vec<Diagnostic>) {
    for ctx in files {
        if DET_CRATES.contains(&ctx.crate_name) {
            unordered_iteration(ctx, index, out);
        }
    }
}

/// `unordered-iteration` and `float-accum-order`: iterating a `HashMap`/
/// `HashSet` observably (any sink that is not a proven order-insensitive
/// fold) — via `.iter()`-family methods or `for … in &map`.
fn unordered_iteration(ctx: &FileCtx<'_>, index: &SymbolIndex, out: &mut Vec<Diagnostic>) {
    let sig = &ctx.sig;
    for (i, s) in sig.iter().enumerate() {
        if ctx.is_test(i) {
            continue;
        }
        // Method-call form: `<recv>.iter()`, `self.map.values()`,
        // `make_map().keys()`, ...
        if s.kind == TokenKind::Ident
            && ITER_METHODS.contains(&s.text)
            && i >= 2
            && ctx.text(i - 1) == "."
            && ctx.text(i + 1) == "("
        {
            let Some(recv) = receiver_name(ctx, i - 2) else {
                continue;
            };
            let is_hash = match recv {
                Receiver::Ident(name) => index.ident_is_hash(ctx, name),
                Receiver::Call(name) => index.fn_returns_hash(ctx, name),
            };
            if !is_hash {
                continue;
            }
            let name = match recv {
                Receiver::Ident(n) | Receiver::Call(n) => n,
            };
            match chain_terminal(ctx, i + 1) {
                Terminal::OrderInsensitive => {}
                Terminal::FloatAccum(at) => out.push(ctx.diag(
                    at,
                    FLOAT_ACCUM_ORDER,
                    format!(
                        "floating-point accumulation over hash-ordered `{name}` depends on \
                         iteration order; iterate an ordered container (BTreeMap/BTreeSet) \
                         or accumulate in a fixed order"
                    ),
                )),
                Terminal::Unknown => out.push(ctx.diag(
                    i,
                    UNORDERED_ITERATION,
                    format!(
                        "iterating hash-ordered `{name}` via `{}` can leak hasher state into \
                         results; use BTreeMap/BTreeSet, sort first, or finish with an \
                         order-insensitive fold (integer sum/count/min/max)",
                        s.text
                    ),
                )),
            }
        }
        // Loop form: `for pat in [&][mut] path.to.map {`.
        if s.text == "for" && s.kind == TokenKind::Ident && ctx.text(i + 1) != "<" {
            if let Some(name) = for_loop_hash_expr(ctx, index, i) {
                out.push(ctx.diag(
                    i,
                    UNORDERED_ITERATION,
                    format!(
                        "`for` loop over hash-ordered `{name}` visits entries in hasher order; \
                         use BTreeMap/BTreeSet or sort the keys first"
                    ),
                ));
            }
        }
    }
}

/// The receiver of a method call whose `.` sits just after `recv_idx`.
enum Receiver<'a> {
    /// A plain identifier or field: `map.iter()`, `self.regions.iter()`.
    Ident(&'a str),
    /// A call result: `census().iter()` — the called function's name.
    Call(&'a str),
}

fn receiver_name<'a>(ctx: &'a FileCtx<'_>, recv_idx: usize) -> Option<Receiver<'a>> {
    let sig = &ctx.sig;
    let s = sig.get(recv_idx)?;
    if s.kind == TokenKind::Ident {
        return Some(Receiver::Ident(s.text));
    }
    if s.text == ")" {
        let open = ctx.partner(recv_idx)?;
        let f = sig.get(open.checked_sub(1)?)?;
        if f.kind == TokenKind::Ident {
            return Some(Receiver::Call(f.text));
        }
    }
    None
}

/// Classifies the method chain starting at the `(` of the iterator call at
/// `open_idx`: walks transparent adapters and judges the terminal.
fn chain_terminal(ctx: &FileCtx<'_>, open_idx: usize) -> Terminal {
    let Some(mut close) = ctx.partner(open_idx) else {
        return Terminal::Unknown;
    };
    loop {
        let dot = close + 1;
        if ctx.text(dot) != "." || ctx.sig.get(dot + 1).map(|s| s.kind) != Some(TokenKind::Ident) {
            return Terminal::Unknown; // chain escapes (binding, argument, `for` source, ...)
        }
        let method = ctx.text(dot + 1);
        let (turbofish, call_open) = if ctx.text(dot + 2) == "::" && ctx.text(dot + 3) == "<" {
            let Some(tf_close) = ctx.generics_end(dot + 3) else {
                return Terminal::Unknown;
            };
            (Some((dot + 4, tf_close)), tf_close + 1)
        } else {
            (None, dot + 2)
        };
        if ctx.text(call_open) != "(" {
            return Terminal::Unknown; // field access or partial path
        }
        let Some(call_close) = ctx.partner(call_open) else {
            return Terminal::Unknown;
        };
        if TRANSPARENT.contains(&method) {
            close = call_close;
            continue;
        }
        let tf_head = turbofish.map(|(s, _)| ctx.text(s));
        return match method {
            "count" | "min" | "max" | "any" | "all" => Terminal::OrderInsensitive,
            "sum" | "product" => match tf_head {
                Some(t) if INT_TYPES.contains(&t) => Terminal::OrderInsensitive,
                Some(t) if FLOAT_TYPES.contains(&t) => Terminal::FloatAccum(dot + 1),
                _ => Terminal::Unknown,
            },
            "fold" => {
                // `fold(0.0, ...)` / `fold(0f64, ...)`: float accumulator.
                if ctx.sig.get(call_open + 1).map(|s| s.kind) == Some(TokenKind::Float) {
                    Terminal::FloatAccum(dot + 1)
                } else {
                    Terminal::Unknown
                }
            }
            "collect" => match tf_head {
                Some("BTreeMap") | Some("BTreeSet") => Terminal::OrderInsensitive,
                _ => Terminal::Unknown,
            },
            _ => Terminal::Unknown,
        };
    }
}

/// When the `for` at `for_idx` loops over a plain (call-free) path whose
/// final identifier is hash-typed, returns that identifier.
fn for_loop_hash_expr(ctx: &FileCtx<'_>, index: &SymbolIndex, for_idx: usize) -> Option<String> {
    let sig = &ctx.sig;
    // Find `in` at depth 0 before the loop body opens; a `{` first means
    // `impl Trait for Type {`.
    let in_idx = ctx.find_top(for_idx + 1, |t| t == "in" || t == "{")?;
    if ctx.text(in_idx) != "in" {
        return None;
    }
    // Expression: `[&][&][mut] ident(.ident)*` up to the body `{`.
    let mut k = in_idx + 1;
    while matches!(ctx.text(k), "&" | "&&" | "mut") {
        k += 1;
    }
    loop {
        let s = sig.get(k)?;
        if s.kind != TokenKind::Ident {
            return None;
        }
        let name = s.text;
        k += 1;
        match ctx.text(k) {
            "." => k += 1,
            "{" => {
                // Plain path: judge its final identifier.
                return index.ident_is_hash(ctx, name).then(|| name.to_string());
            }
            _ => return None, // calls, ranges, indexing, ... — not a plain path
        }
    }
}
