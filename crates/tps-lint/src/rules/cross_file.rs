//! Rules that need the whole workspace in view.

use super::{CORE_CRATE, FAULT_SITE_COVERAGE, STATS_COUNTER_COVERAGE};
use crate::diag::Diagnostic;
use crate::file::{FileCtx, Sig};
use crate::lexer::TokenKind;
use std::collections::BTreeMap;

/// A declaration found by the item scanners: the defining file's path plus
/// each member as `(name, line, col)`.
type FoundItems<'a> = (&'a str, Vec<(&'a str, u32, u32)>);

/// [`FAULT_SITE_COVERAGE`]: every `FaultSite` variant declared in
/// `tps-core` must be consulted by at least one real injection hook —
/// a non-test `FaultSite::Variant` reference outside `tps-core` (which
/// defines it) and `tps-check` (which merely interprets it). A variant
/// nobody consults is a fault path the campaigns can never exercise.
pub fn fault_site_coverage(files: &[FileCtx<'_>], out: &mut Vec<Diagnostic>) {
    let Some((def_file, variants)) = find_enum_variants(files, CORE_CRATE, "FaultSite") else {
        return; // enum not in view (partial lint run): nothing to check
    };
    let mut referenced: BTreeMap<&str, bool> =
        variants.iter().map(|(name, _, _)| (*name, false)).collect();
    for f in files {
        if f.crate_name == CORE_CRATE || f.crate_name == "tps-check" {
            continue;
        }
        for i in 0..f.sig.len() {
            if f.sig[i].text == "FaultSite" && f.text(i + 1) == "::" && !f.is_test(i) {
                if let Some(hit) = referenced.get_mut(f.text(i + 2)) {
                    *hit = true;
                }
            }
        }
    }
    for (name, line, col) in &variants {
        if !referenced[name] {
            out.push(Diagnostic {
                path: def_file.to_string(),
                line: *line,
                col: *col,
                rule: FAULT_SITE_COVERAGE,
                message: format!(
                    "FaultSite::{name} is never consulted by an injection hook outside \
                     tps-check; wire it into the layer it instruments or delete it"
                ),
            });
        }
    }
}

/// [`STATS_COUNTER_COVERAGE`]: every field of `OsStats` must be incremented
/// (`.field += ...`) somewhere in non-test code, so no degradation counter
/// can silently read zero forever. A field-wise sum (`a.field += b.field`)
/// only moves counts between counter sets and does not count.
pub fn stats_counter_coverage(files: &[FileCtx<'_>], out: &mut Vec<Diagnostic>) {
    let Some((def_file, fields)) = find_struct_fields(files, "tps-os", "OsStats") else {
        return;
    };
    let mut incremented: BTreeMap<&str, bool> =
        fields.iter().map(|(name, _, _)| (*name, false)).collect();
    for f in files {
        for i in 1..f.sig.len() {
            if f.text(i - 1) == "."
                && f.sig[i].kind == TokenKind::Ident
                && f.text(i + 1) == "+="
                && !f.is_test(i)
                && !is_fieldwise_sum(f, i + 2, f.sig[i].text)
            {
                if let Some(hit) = incremented.get_mut(f.sig[i].text) {
                    *hit = true;
                }
            }
        }
    }
    for (name, line, col) in &fields {
        if !incremented[name] {
            out.push(Diagnostic {
                path: def_file.to_string(),
                line: *line,
                col: *col,
                rule: STATS_COUNTER_COVERAGE,
                message: format!(
                    "OsStats::{name} is never incremented; a counter that cannot move hides \
                     the degradation it was added to expose"
                ),
            });
        }
    }
}

/// True if the right-hand side starting at `start` is a plain field path
/// naming the same `field` and ending the statement (`x.y.field;`).
fn is_fieldwise_sum(f: &FileCtx<'_>, start: usize, field: &str) -> bool {
    let mut j = start;
    while f.sig.get(j).is_some_and(|t| t.kind == TokenKind::Ident) {
        if f.text(j + 1) != "." {
            return j > start && f.text(j) == field && f.text(j + 1) == ";";
        }
        j += 2;
    }
    false
}

/// Locates `enum <name>` in `crate_name` and collects its variants as
/// `(name, line, col)`.
fn find_enum_variants<'a>(
    files: &'a [FileCtx<'a>],
    crate_name: &str,
    enum_name: &str,
) -> Option<FoundItems<'a>> {
    for f in files {
        if f.crate_name != crate_name {
            continue;
        }
        for i in 0..f.sig.len() {
            if f.sig[i].text == "enum" && f.text(i + 1) == enum_name {
                // Generics would sit between name and `{`; these enums are plain.
                let open = i + 2;
                if f.text(open) != "{" {
                    continue;
                }
                return Some((f.rel_path, collect_variants(&f.sig, open)));
            }
        }
    }
    None
}

/// Walks the body of an enum collecting variant names, skipping attributes
/// and payloads.
fn collect_variants<'a>(sig: &[Sig<'a>], open: usize) -> Vec<(&'a str, u32, u32)> {
    let mut variants = Vec::new();
    let mut j = open + 1;
    let mut depth = 1i32;
    while j < sig.len() && depth > 0 {
        match sig[j].text {
            "{" | "(" | "[" => {
                depth += 1;
                j += 1;
            }
            "}" | ")" | "]" => {
                depth -= 1;
                j += 1;
            }
            "#" if depth == 1 => {
                // Attribute on a variant: skip the balanced `[...]`.
                j += 1;
                let mut adepth = 0i32;
                while j < sig.len() {
                    match sig[j].text {
                        "[" => adepth += 1,
                        "]" => {
                            adepth -= 1;
                            if adepth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            "," if depth == 1 => j += 1,
            _ => {
                if depth == 1 && sig[j].kind == TokenKind::Ident {
                    variants.push((sig[j].text, sig[j].line, sig[j].col));
                    // Skip a possible payload and discriminant to the comma.
                    j += 1;
                    let mut pdepth = 0i32;
                    while j < sig.len() {
                        match sig[j].text {
                            "{" | "(" | "[" => pdepth += 1,
                            "}" | ")" | "]" => {
                                if pdepth == 0 {
                                    break; // enum body closes
                                }
                                pdepth -= 1;
                            }
                            "," if pdepth == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                } else {
                    j += 1;
                }
            }
        }
    }
    variants
}

/// Locates `struct <name>` in `crate_name` and collects its named fields.
fn find_struct_fields<'a>(
    files: &'a [FileCtx<'a>],
    crate_name: &str,
    struct_name: &str,
) -> Option<FoundItems<'a>> {
    for f in files {
        if f.crate_name != crate_name {
            continue;
        }
        for i in 0..f.sig.len() {
            if f.sig[i].text == "struct" && f.text(i + 1) == struct_name && f.text(i + 2) == "{" {
                let mut fields = Vec::new();
                let mut j = i + 3;
                let mut depth = 1i32;
                while j < f.sig.len() && depth > 0 {
                    match f.sig[j].text {
                        "{" | "(" | "[" | "<" => depth += 1,
                        "}" | ")" | "]" | ">" => depth -= 1,
                        "#" if depth == 1 => {
                            // Skip field attribute.
                            while j < f.sig.len() && f.sig[j].text != "]" {
                                j += 1;
                            }
                        }
                        _ => {
                            if depth == 1
                                && f.sig[j].kind == TokenKind::Ident
                                && f.sig[j].text != "pub"
                                && f.text(j + 1) == ":"
                            {
                                fields.push((f.sig[j].text, f.sig[j].line, f.sig[j].col));
                            }
                        }
                    }
                    j += 1;
                }
                return Some((f.rel_path, fields));
            }
        }
    }
    None
}
