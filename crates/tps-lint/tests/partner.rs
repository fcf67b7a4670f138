//! The bracket partner table checked against the scan it replaced: for
//! every bracket of every workspace file and every fixture, `partner`
//! must name the bracket a plain same-kind depth count finds.

use std::fs;
use std::path::{Path, PathBuf};

use tps_lint::collect_files;
use tps_lint::file::{FileCtx, Sig, SourceFile};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/tps-lint sits two levels below the workspace root")
}

/// The reference: counts one bracket kind forward from an opener, or
/// backward from a closer, until the depth returns to zero.
fn naive_partner(sig: &[Sig<'_>], i: usize) -> Option<usize> {
    let (open, close, forward) = match sig[i].text {
        "(" => ("(", ")", true),
        "[" => ("[", "]", true),
        "{" => ("{", "}", true),
        ")" => ("(", ")", false),
        "]" => ("[", "]", false),
        "}" => ("{", "}", false),
        _ => return None,
    };
    let (inc, dec) = if forward {
        (open, close)
    } else {
        (close, open)
    };
    let order: Box<dyn Iterator<Item = usize>> = if forward {
        Box::new(i..sig.len())
    } else {
        Box::new((0..=i).rev())
    };
    let mut depth = 0i32;
    for j in order {
        if sig[j].text == inc {
            depth += 1;
        } else if sig[j].text == dec {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

fn assert_partners_match(file: &SourceFile) {
    let ctx = FileCtx::build(file);
    for (i, s) in ctx.sig.iter().enumerate() {
        assert_eq!(
            ctx.partner(i),
            naive_partner(&ctx.sig, i),
            "{}:{}:{}: partner of `{}` differs from the depth scan",
            file.rel_path,
            s.line,
            s.col,
            s.text
        );
    }
}

fn source(text: &str) -> SourceFile {
    SourceFile {
        rel_path: "crates/tps-os/src/a.rs".to_string(),
        crate_name: "tps-os".to_string(),
        text: text.to_string(),
    }
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("fixture dir readable") {
        let path = entry.expect("fixture entry").path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn partner_matches_depth_scan_on_every_workspace_file() {
    let files = collect_files(workspace_root()).expect("workspace readable");
    assert!(files.len() > 100, "collect_files found too few files");
    for f in &files {
        assert_partners_match(f);
    }
}

#[test]
fn partner_matches_depth_scan_on_every_fixture() {
    let mut paths = Vec::new();
    rs_files(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures"),
        &mut paths,
    );
    assert!(!paths.is_empty(), "no fixtures found");
    for p in paths {
        let mut f = source(&fs::read_to_string(&p).expect("fixture readable"));
        f.rel_path = p.display().to_string();
        assert_partners_match(&f);
    }
}

/// The text of the partner of the `nth` token spelled `text`.
fn partner_text<'a>(ctx: &'a FileCtx<'_>, text: &str, nth: usize) -> Option<&'a str> {
    let i = (0..ctx.sig.len())
        .filter(|&i| ctx.sig[i].text == text)
        .nth(nth)
        .expect("token present");
    ctx.partner(i).map(|p| ctx.sig[p].text)
}

#[test]
fn nesting_across_bracket_kinds_pairs_each_kind() {
    let f = source("fn f() { a([b{c}], (d[0])) }");
    let ctx = FileCtx::build(&f);
    assert_partners_match(&f);
    let brackets = ctx
        .sig
        .iter()
        .filter(|s| matches!(s.text, "(" | "[" | "{" | ")" | "]" | "}"))
        .count();
    let paired = (0..ctx.sig.len())
        .filter(|&i| ctx.partner(i).is_some())
        .count();
    assert_eq!(paired, brackets, "every bracket of balanced code pairs");
    for i in 0..ctx.sig.len() {
        if let Some(p) = ctx.partner(i) {
            assert_eq!(ctx.partner(p), Some(i), "pairing is symmetric");
        }
    }
    assert_eq!(partner_text(&ctx, "{", 1), Some("}"));
    assert_eq!(partner_text(&ctx, "[", 0), Some("]"));
}

#[test]
fn unmatched_opener_has_no_partner() {
    let f = source("fn f() { g(1 }");
    let ctx = FileCtx::build(&f);
    assert_partners_match(&f);
    assert_eq!(partner_text(&ctx, "(", 1), None);
    assert_eq!(partner_text(&ctx, "{", 0), Some("}"));
    let open_at_end = source("fn f(");
    let ctx = FileCtx::build(&open_at_end);
    assert_eq!(partner_text(&ctx, "(", 0), None);
}

#[test]
fn unmatched_closer_has_no_partner() {
    let f = source("fn f() { g) }");
    let ctx = FileCtx::build(&f);
    assert_partners_match(&f);
    assert_eq!(partner_text(&ctx, ")", 1), None);
    assert_eq!(partner_text(&ctx, "{", 0), Some("}"));
    let close_first = source("] fn f() {}");
    let ctx = FileCtx::build(&close_first);
    assert_eq!(partner_text(&ctx, "]", 0), None);
}

#[test]
fn top_level_scan_jumps_groups_and_stops_at_the_enclosing_close() {
    let f = source("fn f(a: [u8; 4]) -> u8 { g(1; 2); h }");
    let ctx = FileCtx::build(&f);
    let semi = |from| ctx.find_top(from, |t| t == ";");
    // From the parameters' first token, the only `;` on that level would
    // lie past the `)`, so the scan stops there.
    assert_eq!(semi(3), None);
    // From the body's first token, the `;` inside `g(...)` is jumped.
    let body = ctx.sig.iter().position(|s| s.text == "{").unwrap() + 1;
    let found = semi(body).expect("statement `;`");
    assert_eq!(ctx.text(found + 1), "h");
    assert_eq!(ctx.item_end(0), ctx.partner(body - 1));
}
