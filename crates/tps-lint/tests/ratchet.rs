//! The ratchet, asserted in-tree: the shipped workspace must be within the
//! committed `lint-baseline.toml`, and the panic-free, magic-page-size,
//! determinism and hot-path budgets must all be zero.

use std::fs;
use std::path::Path;

use tps_lint::baseline::Baseline;
use tps_lint::{lint_workspace, rules};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/tps-lint sits two levels below the workspace root")
}

fn committed_baseline() -> Baseline {
    let path = workspace_root().join("lint-baseline.toml");
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Baseline::parse(&text).expect("committed baseline parses")
}

#[test]
fn workspace_is_within_the_committed_baseline() {
    let report = lint_workspace(workspace_root()).expect("workspace lints");
    let (over, _within) = report.against(&committed_baseline());
    assert!(
        over.is_empty(),
        "lint gate is red — {} diagnostic(s) over the committed baseline:\n{}",
        over.len(),
        over.iter()
            .map(|d| format!("  {}:{} [{}] {}", d.path, d.line, d.rule, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn panic_free_budget_is_zero() {
    // Burned down from 15 to 0: fault-path code returns a TpsError or
    // skips, and never grandfathers a panic again.
    assert_eq!(
        committed_baseline().rule_total(rules::PANIC_FREE),
        0,
        "no panic on the fault path may be grandfathered"
    );
}

#[test]
fn no_magic_page_size_budget_is_zero() {
    let base = committed_baseline();
    assert_eq!(
        base.rule_total(rules::NO_MAGIC_PAGE_SIZE),
        0,
        "no bare page-size literal may ever be grandfathered"
    );
}

#[test]
fn determinism_rules_have_no_grandfathered_debt() {
    // The four determinism rules shipped with their findings burned down
    // (BTreeMap conversions) or suppressed with an audit reason — the
    // baseline must not quietly grow entries for them.
    let base = committed_baseline();
    for rule in [
        rules::UNORDERED_ITERATION,
        rules::WALL_CLOCK,
        rules::UNSEEDED_ENTROPY,
        rules::FLOAT_ACCUM_ORDER,
    ] {
        assert_eq!(
            base.rule_total(rule),
            0,
            "determinism rule {rule} must not carry grandfathered violations"
        );
    }
}

#[test]
fn hot_path_rules_have_no_grandfathered_debt() {
    // The four hot-path rules shipped after their burn-down (the CoLT
    // contiguity probe devirtualized, the walker's ref Vec replaced with
    // an inline buffer) — zero grandfathered entries, forever. Audited
    // sites use inline allow-with-reason, never the baseline.
    let base = committed_baseline();
    for rule in [
        rules::HOT_PATH_ALLOC,
        rules::HOT_PATH_DYN_DISPATCH,
        rules::HOT_PATH_LOCK_IO,
        rules::HOT_PATH_CLONE,
    ] {
        assert_eq!(
            base.rule_total(rule),
            0,
            "hot-path rule {rule} must not carry grandfathered violations"
        );
    }
}

#[test]
fn hot_path_contract_file_is_committed_and_populated() {
    // `lint_workspace` prefers `<root>/hot-paths.toml`; the compiled-in
    // builtin is an include_str! of the same file, so the committed copy
    // is the single source of truth and must exist and declare entries.
    let path = workspace_root().join("hot-paths.toml");
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let hot = tps_lint::hot_paths::HotPaths::parse(&text).expect("committed hot-paths.toml parses");
    assert!(
        !hot.entry_points.is_empty(),
        "hot-paths.toml declares no entry points — the reachability pass would be vacuous"
    );
    assert!(
        hot.entry_points.keys().any(|k| k == "Mmu::access"),
        "the per-access translation entry point must stay declared"
    );
}

#[test]
fn write_baseline_output_is_deterministic() {
    // `--write-baseline` must produce byte-identical output regardless of
    // the order files reach the linter, and must round-trip through parse —
    // otherwise regenerating the baseline creates spurious diffs.
    let mut files = tps_lint::collect_files(workspace_root()).expect("workspace readable");
    let forward = tps_lint::lint_files(&files).to_baseline().serialize();
    files.reverse();
    let reversed = tps_lint::lint_files(&files).to_baseline().serialize();
    assert_eq!(
        forward, reversed,
        "baseline serialization depends on file discovery order"
    );
    let reparsed = Baseline::parse(&forward).expect("serialized baseline parses");
    assert_eq!(
        reparsed.serialize(),
        forward,
        "baseline does not round-trip byte-identically"
    );
    // Sections must appear in sorted rule order, entries in sorted path
    // order — the property that makes diffs reviewable.
    let mut rules_seen = Vec::new();
    let mut paths_in_section = Vec::new();
    for line in forward.lines() {
        if let Some(rule) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            rules_seen.push(rule.to_string());
            paths_in_section.clear();
        } else if let Some((path, _)) = line.split_once('=') {
            let path = path.trim().trim_matches('"').to_string();
            assert!(
                paths_in_section.last().map(|p| p < &path).unwrap_or(true),
                "paths out of order in baseline section"
            );
            paths_in_section.push(path);
        }
    }
    let mut sorted = rules_seen.clone();
    sorted.sort();
    assert_eq!(rules_seen, sorted, "rule sections out of order in baseline");
}

#[test]
fn baseline_only_freezes_known_rules() {
    for (rule, path, count) in committed_baseline().iter() {
        assert!(
            rules::RULES.contains(&rule),
            "baseline entry [{rule}] \"{path}\" = {count} names an unknown rule"
        );
        assert!(count > 0, "zero-count entry for {path} should be dropped");
    }
}
