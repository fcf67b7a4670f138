//! CLI driver for `tps-lint`.
//!
//! ```text
//! cargo run -p tps-lint -- --workspace [--format json] [--root DIR]
//! cargo run -p tps-lint -- --explain <rule>
//! ```
//!
//! Exit codes: 0 clean (or `--help`, which prints the usage on stdout),
//! 1 on any finding, 2 usage or I/O error.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use tps_lint::{diag, rules};

const USAGE: &str = "\
tps-lint: static analysis for the TPS workspace

USAGE:
    tps-lint --workspace [OPTIONS]
    tps-lint --explain <rule>

OPTIONS:
    --workspace        lint every crate in the enclosing workspace
    --format FMT       output format: text (default) or json
    --explain RULE     print what a rule enforces and why, then exit
    --root DIR         workspace root (default: nearest [workspace] upward)
    --help             this text
";

struct Options {
    help: bool,
    json: bool,
    explain: Option<String>,
    root: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        help: false,
        json: false,
        explain: None,
        root: None,
    };
    let mut workspace = false;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--format" => {
                let v = args.next().ok_or("--format needs `text` or `json`")?;
                match v.as_str() {
                    "json" => opts.json = true,
                    "text" => opts.json = false,
                    other => return Err(format!("unknown format `{other}` (text or json)")),
                }
            }
            "--explain" => {
                let v = args.next().ok_or("--explain needs a rule name")?;
                opts.explain = Some(v);
            }
            "--root" => {
                let v = args.next().ok_or("--root needs a directory")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--help" | "-h" => opts.help = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !workspace && opts.explain.is_none() && !opts.help {
        return Err("pass --workspace or --explain <rule>".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprint!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.help {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    if let Some(rule) = &opts.explain {
        return match rules::explain(rule) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "error: unknown rule `{rule}` (known rules: {})",
                    rules::RULES.join(", ")
                );
                ExitCode::from(2)
            }
        };
    }

    let root = match opts.root.clone().or_else(|| {
        env::current_dir()
            .ok()
            .and_then(|d| tps_lint::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("error: no enclosing [workspace] found; pass --root");
            return ExitCode::from(2);
        }
    };

    let diagnostics = match tps_lint::lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: failed to read workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if opts.json {
        print!("{}", diag::to_json(&diagnostics));
    } else {
        for d in &diagnostics {
            println!("{d}");
        }
        if diagnostics.is_empty() {
            eprintln!("tps-lint: clean");
        } else {
            eprintln!("tps-lint: {} violation(s)", diagnostics.len());
        }
    }

    if diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
