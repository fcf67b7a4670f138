//! UI-style fixture corpus: every rule has at least one passing (`good`)
//! and one failing (`bad`) fixture, with expected diagnostics asserted by
//! `//~ ERROR <rule>` markers on the offending lines.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use tps_lint::file::SourceFile;
use tps_lint::lint_files;

fn fixture_dir(rule: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
}

/// Parses the mandatory fixture header:
/// `// fixture: crate=<name> path=<workspace-relative path>`.
fn parse_header(text: &str, from: &Path) -> (String, String) {
    let first = text.lines().next().unwrap_or_default();
    let rest = first
        .strip_prefix("// fixture:")
        .unwrap_or_else(|| panic!("{} is missing its `// fixture:` header", from.display()));
    let mut crate_name = None;
    let mut rel_path = None;
    for part in rest.split_whitespace() {
        if let Some(v) = part.strip_prefix("crate=") {
            crate_name = Some(v.to_string());
        } else if let Some(v) = part.strip_prefix("path=") {
            rel_path = Some(v.to_string());
        }
    }
    (
        crate_name.expect("fixture header names a crate"),
        rel_path.expect("fixture header names a path"),
    )
}

/// Collects `(path, line, rule)` for every `//~ ERROR <rule>` marker.
fn expected_errors(rel_path: &str, text: &str, out: &mut BTreeSet<(String, u32, String)>) {
    for (idx, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(at) = rest.find("//~ ERROR ") {
            rest = &rest[at + "//~ ERROR ".len()..];
            let rule: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect();
            assert!(!rule.is_empty(), "empty //~ ERROR marker in {rel_path}");
            out.insert((rel_path.to_string(), idx as u32 + 1, rule));
        }
    }
}

/// Lints the given fixture files and asserts the diagnostics match the
/// `//~ ERROR` markers exactly (as a set of `(path, line, rule)`).
fn check(files: Vec<SourceFile>) {
    let mut expected = BTreeSet::new();
    for f in &files {
        expected_errors(&f.rel_path, &f.text, &mut expected);
    }
    let actual: BTreeSet<(String, u32, String)> = lint_files(&files)
        .iter()
        .map(|d| (d.path.clone(), d.line, d.rule.to_string()))
        .collect();
    assert_eq!(
        actual, expected,
        "fixture diagnostics diverge from //~ ERROR markers"
    );
}

/// Loads `<rule>/good.rs` or `<rule>/bad.rs` as a one-file workspace.
fn load_single(rule: &str, which: &str) -> Vec<SourceFile> {
    let path = fixture_dir(rule).join(format!("{which}.rs"));
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let (crate_name, rel_path) = parse_header(&text, &path);
    vec![SourceFile {
        rel_path,
        crate_name,
        text,
    }]
}

/// Loads `<rule>/good/` or `<rule>/bad/` (cross-file rules) — every `.rs`
/// file in the directory, crate taken from the `// fixture:` header.
fn load_multi(rule: &str, which: &str) -> Vec<SourceFile> {
    let dir = fixture_dir(rule).join(which);
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no fixtures in {}", dir.display());
    paths
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).expect("fixture readable");
            let (crate_name, rel_path) = parse_header(&text, &p);
            SourceFile {
                rel_path,
                crate_name,
                text,
            }
        })
        .collect()
}

fn check_single_rule(rule: &str) {
    let good = load_single(rule, "good");
    assert!(
        lint_files(&good).is_empty(),
        "{rule}/good.rs should lint clean"
    );
    let bad = load_single(rule, "bad");
    assert!(
        !lint_files(&bad).is_empty(),
        "{rule}/bad.rs should produce diagnostics"
    );
    check(bad);
}

fn check_multi_rule(rule: &str) {
    check_multi_dirs(rule, "good", "bad");
}

/// [`check_multi_rule`] over a named pair of fixture directories.
fn check_multi_dirs(rule: &str, good_dir: &str, bad_dir: &str) {
    let good = load_multi(rule, good_dir);
    assert!(
        lint_files(&good).is_empty(),
        "{rule}/{good_dir}/ should lint clean"
    );
    let bad = load_multi(rule, bad_dir);
    assert!(
        !lint_files(&bad).is_empty(),
        "{rule}/{bad_dir}/ should produce diagnostics"
    );
    check(bad);
}

#[test]
fn panic_free_fault_path_fixtures() {
    check_multi_rule("panic-free-fault-path");
}

#[test]
fn no_magic_page_size_fixtures() {
    check_single_rule("no-magic-page-size");
}

#[test]
fn addr_newtype_opacity_fixtures() {
    check_single_rule("addr-newtype-opacity");
}

#[test]
fn no_wildcard_enum_match_fixtures() {
    check_single_rule("no-wildcard-enum-match");
}

#[test]
fn pub_item_docs_fixtures() {
    check_single_rule("pub-item-docs");
}

#[test]
fn malformed_suppression_fixtures() {
    check_single_rule("malformed-suppression");
}

#[test]
fn raw_artifact_io_fixtures() {
    check_single_rule("raw-artifact-io");
}

#[test]
fn unordered_iteration_fixtures() {
    check_single_rule("unordered-iteration");
}

#[test]
fn wall_clock_in_sim_fixtures() {
    check_single_rule("wall-clock-in-sim");
}

#[test]
fn unseeded_entropy_fixtures() {
    check_single_rule("unseeded-entropy");
}

#[test]
fn float_accum_order_fixtures() {
    check_single_rule("float-accum-order");
}

#[test]
fn hot_path_alloc_fixtures() {
    check_single_rule("hot-path-alloc");
}

#[test]
fn hot_path_dyn_dispatch_fixtures() {
    check_single_rule("hot-path-dyn-dispatch");
}

#[test]
fn hot_path_lock_io_fixtures() {
    check_single_rule("hot-path-lock-io");
}

#[test]
fn hot_path_clone_fixtures() {
    check_single_rule("hot-path-clone");
}

#[test]
fn fault_site_coverage_fixtures() {
    check_multi_rule("fault-site-coverage");
}

#[test]
fn stats_counter_coverage_fixtures() {
    check_multi_rule("stats-counter-coverage");
}

#[test]
fn stats_counter_coverage_sees_counter_table_fields() {
    check_multi_dirs("stats-counter-coverage", "macro-good", "macro-bad");
}
