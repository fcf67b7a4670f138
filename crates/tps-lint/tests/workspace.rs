//! The lint gate, asserted in-tree: the shipped workspace has no
//! unsuppressed finding, the compiled-in hot-path contract declares the
//! translation entry point, and the result does not depend on the order in
//! which files reach the linter.

use std::path::Path;

use tps_lint::hot_paths::HotPaths;
use tps_lint::{collect_files, lint_files, lint_workspace};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/tps-lint sits two levels below the workspace root")
}

#[test]
fn workspace_lints_clean() {
    let diags = lint_workspace(workspace_root()).expect("workspace lints");
    assert!(
        diags.is_empty(),
        "lint gate is red — {} diagnostic(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn hot_path_contract_is_populated() {
    let hot = HotPaths::builtin();
    assert!(
        !hot.entry_points.is_empty(),
        "hot-paths.toml declares no entry points — the reachability pass would be vacuous"
    );
    assert!(
        hot.entry_points.contains_key("Mmu::access"),
        "the per-access translation entry point must stay declared"
    );
}

#[test]
fn diagnostics_do_not_depend_on_file_order() {
    let mut files = collect_files(workspace_root()).expect("workspace readable");
    // The shipped tree is clean, so plant a finding: the comparison must
    // be over a non-empty list to mean anything.
    files.push(tps_lint::file::SourceFile {
        rel_path: "crates/tps-os/src/planted.rs".into(),
        crate_name: "tps-os".into(),
        text: "fn planted() { let x = y.unwrap(); }\n".into(),
    });
    let forward = lint_files(&files);
    assert!(!forward.is_empty(), "the planted finding must be reported");
    files.reverse();
    assert_eq!(
        forward,
        lint_files(&files),
        "diagnostics depend on file discovery order"
    );
}
