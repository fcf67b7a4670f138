//! `tps-lint`: workspace-specific static analysis for the TPS reproduction.
//!
//! The workspace's invariants are split between the compiler and this
//! crate. rustc and clippy carry what they can see with full type
//! information: `missing_docs` on every crate, private fields on the
//! address newtypes, clippy's `unwrap_used`/`panic` family on the fault
//! path, and the root `clippy.toml`'s wall-clock and entropy bans. This
//! crate keeps the rules that need the whole workspace or the workspace's
//! own vocabulary: a hand-rolled Rust lexer ([`lexer`]), a per-file
//! token-stream rule engine and a whole-workspace cross-file pass
//! ([`rules`]), and inline suppression with mandatory reasons. Any
//! unsuppressed diagnostic fails the gate.
//!
//! The workspace pass is two-phase: pass 1 builds a conservative symbol
//! index ([`symbol_index`] — definitions, `use` resolution, type bindings,
//! struct fields, fn returns, and a call graph), pass 2 runs the
//! determinism rule family ([`rules::determinism`]) and the hot-path
//! reachability rules ([`rules::hot_path`]) over it.
//!
//! Std-only by construction — the workspace has no registry access (the
//! same constraint that produced the proptest shim).
//!
//! Run it as a tier-1 gate (exit 0 clean, 1 on any finding, 2 on a usage
//! or I/O error):
//!
//! ```text
//! cargo run -p tps-lint -- --workspace
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod diag;
pub mod file;
pub mod hot_paths;
pub mod lexer;
pub mod rules;
pub mod symbol_index;

use diag::Diagnostic;
use file::{FileCtx, SourceFile};
use hot_paths::HotPaths;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lints a set of in-memory files: per-file rules, cross-file rules and
/// suppression filtering, against the compiled-in hot-path contract.
/// Returns every unsuppressed diagnostic, sorted by path/line/col. This is
/// the core the CLI and the fixture tests share.
pub fn lint_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let ctxs: Vec<FileCtx<'_>> = files.iter().map(FileCtx::build).collect();
    let index = symbol_index::SymbolIndex::build(&ctxs);
    let mut diags = Vec::new();
    for ctx in &ctxs {
        rules::check_file(ctx, &mut diags);
    }
    rules::check_workspace(&ctxs, &index, &HotPaths::builtin(), &mut diags);
    let mut diagnostics = rules::apply_suppressions(&ctxs, diags);
    diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    diagnostics
}

/// Walks the workspace at `root` and lints every Rust source file.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(lint_files(&collect_files(root)?))
}

/// Finds the workspace root at or above `start` (the directory whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Collects the workspace's lintable Rust files: the facade package's
/// `src`/`tests`/`examples` plus every crate's `src`/`tests`/`benches`/
/// `examples`. Skips `target/` and fixture corpora.
pub fn collect_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for sub in ["src", "tests", "examples", "benches"] {
        walk(root, &root.join(sub), "tps", &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        entries.sort();
        for crate_dir in entries {
            let crate_name = crate_dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("unknown")
                .to_string();
            for sub in ["src", "tests", "examples", "benches"] {
                walk(root, &crate_dir.join(sub), &crate_name, &mut files)?;
            }
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, crate_name: &str, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // Fixture corpora contain intentionally-bad code; `target` is
            // build output.
            if name == "fixtures" || name == "target" {
                continue;
            }
            walk(root, &path, crate_name, out)?;
        } else if name.ends_with(".rs") {
            let text = fs::read_to_string(&path)?;
            let rel_path = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile {
                rel_path,
                crate_name: crate_name.to_string(),
                text,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(crate_name: &str, text: &str) -> Vec<Diagnostic> {
        lint_files(&[SourceFile {
            rel_path: format!("crates/{crate_name}/src/f.rs"),
            crate_name: crate_name.to_string(),
            text: text.to_string(),
        }])
    }

    #[test]
    fn single_file_lint_flags_and_suppresses() {
        let bad = "fn f() -> u64 { 4096 }\n";
        let diags = lint_one("tps-os", bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, rules::NO_MAGIC_PAGE_SIZE);
        assert_eq!(diags[0].line, 1);

        let ok = "fn f() -> u64 { 4096 } \
                  // tps-lint::allow(no-magic-page-size, reason = \"test of suppression\")\n";
        assert!(lint_one("tps-os", ok).is_empty());
    }

    #[test]
    fn core_crate_may_spell_page_sizes() {
        let src = "fn f() -> u64 { 4096 }\n";
        assert!(lint_one("tps-core", src).is_empty());
    }
}
