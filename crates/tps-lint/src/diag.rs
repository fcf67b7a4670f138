//! Diagnostics and their human-readable / JSON renderings.

use std::fmt;

/// One lint finding, anchored to a file, line and column.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (unix separators).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// The rule that fired (one of [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Escapes a string for inclusion in a JSON document.
fn json_escape(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders diagnostics as a machine-readable JSON document. `failed` is
/// true exactly when there is a diagnostic, matching the CLI's exit code.
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"diagnostics\": [\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str("    {\"path\": \"");
        json_escape(&d.path, &mut out);
        out.push_str(&format!(
            "\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": \"",
            d.line, d.col, d.rule
        ));
        json_escape(&d.message, &mut out);
        out.push_str("\"}");
        if i + 1 < diags.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "  ],\n  \"total\": {},\n  \"failed\": {}\n}}\n",
        diags.len(),
        !diags.is_empty()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_has_clickable_span() {
        let d = Diagnostic {
            path: "crates/x/src/a.rs".into(),
            line: 3,
            col: 9,
            rule: "no-magic-page-size",
            message: "bare literal".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/x/src/a.rs:3:9: [no-magic-page-size] bare literal"
        );
    }

    #[test]
    fn json_escapes_specials() {
        let d = Diagnostic {
            path: "a\"b".into(),
            line: 1,
            col: 1,
            rule: "pub-item-docs",
            message: "tab\there\nnewline".into(),
        };
        let j = to_json(&[d]);
        assert!(j.contains("a\\\"b"));
        assert!(j.contains("tab\\there\\nnewline"));
        assert!(j.contains("\"failed\": true"));
        assert!(j.contains("\"total\": 1"));
    }

    #[test]
    fn empty_json_document_is_well_formed() {
        let j = to_json(&[]);
        assert!(j.contains("\"diagnostics\": [\n  ]"));
        assert!(j.contains("\"failed\": false"));
    }
}
