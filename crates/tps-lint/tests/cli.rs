//! Pins the `tps-lint` exit-code contract on throwaway workspaces:
//!
//! | code | meaning                           |
//! |------|-----------------------------------|
//! | 0    | no unsuppressed finding, `--help` |
//! | 1    | one or more findings              |
//! | 2    | usage or I/O error                |

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A minimal workspace (a `[workspace]` manifest and one `tps-os` source
/// file holding `body`) in a fresh temp directory.
fn workspace(name: &str, body: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("tps-lint-cli-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/tps-os/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").unwrap();
    fs::write(src.join("lib.rs"), body).unwrap();
    root
}

fn lint(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tps-lint"))
        .arg("--workspace")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .unwrap()
}

#[test]
fn clean_tree_exits_zero() {
    let root = workspace(
        "clean",
        "fn f(x: Option<u8>) -> u8 {\n    x.unwrap_or(0)\n}\n",
    );
    let out = lint(&root, &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn planted_page_size_literal_exits_one_and_names_the_rule() {
    let root = workspace("literal", "fn f() -> u64 {\n    4096\n}\n");
    let out = lint(&root, &[]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/tps-os/src/lib.rs:2:") && stdout.contains("[no-magic-page-size]"),
        "{stdout}"
    );

    let json = lint(&root, &["--format", "json"]);
    assert_eq!(json.status.code(), Some(1));
    let doc = String::from_utf8_lossy(&json.stdout);
    assert!(doc.contains("\"rule\": \"no-magic-page-size\""), "{doc}");
    assert!(doc.contains("\"total\": 1"), "{doc}");
    assert!(doc.contains("\"failed\": true"), "{doc}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn retired_flags_are_unknown_arguments() {
    let root = workspace("retired", "fn f() {}\n");
    for flags in [
        &["--write-baseline"][..],
        &["--no-baseline"],
        &["--baseline", "budget.toml"],
        &["--json"],
    ] {
        let out = lint(&root, flags);
        assert_eq!(out.status.code(), Some(2), "{flags:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown argument `{}`", flags[0])),
            "{flags:?}: {stderr}"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn help_prints_the_usage_on_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_tps-lint"))
            .arg(flag)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("USAGE:") && stdout.contains("--workspace"),
            "{flag}: {stdout}"
        );
        assert!(out.stderr.is_empty(), "{flag}");
    }
}
