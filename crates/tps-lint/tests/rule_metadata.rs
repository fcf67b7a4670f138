//! Operator-facing rule metadata, asserted for every registered rule: a
//! rule without `--explain` text is undebuggable from CI output, and a
//! rule whose diagnostics do not survive `--format json` is invisible to
//! machine consumers.

use tps_lint::diag::{to_json, Diagnostic};
use tps_lint::rules::{explain, RULES};

#[test]
fn every_rule_has_explain_text_leading_with_its_name() {
    for rule in RULES {
        let text = explain(rule)
            .unwrap_or_else(|| panic!("rule {rule} is registered but has no --explain text"));
        assert!(!text.trim().is_empty(), "rule {rule} explain text is empty");
        assert!(
            text.starts_with(&format!("{rule}:")),
            "rule {rule} explain text must lead with the rule name so \
             `--explain` output is self-identifying"
        );
    }
}

#[test]
fn unknown_rules_have_no_explain_text() {
    assert!(explain("no-such-rule").is_none());
    assert!(explain("").is_none());
}

#[test]
fn every_rule_round_trips_through_the_json_renderer() {
    let diags: Vec<Diagnostic> = RULES
        .iter()
        .map(|rule| Diagnostic {
            path: format!("crates/x/src/{rule}.rs"),
            line: 7,
            col: 3,
            rule,
            message: format!("sample {rule} finding"),
        })
        .collect();
    let j = to_json(&diags);
    for rule in RULES {
        assert!(
            j.contains(&format!("\"rule\": \"{rule}\"")),
            "rule {rule} is missing from the JSON rendering"
        );
        assert!(
            j.contains(&format!("crates/x/src/{rule}.rs")),
            "rule {rule} diagnostic path is missing from the JSON rendering"
        );
    }
    assert!(j.contains(&format!("\"total\": {}", RULES.len())));
    assert!(j.contains("\"failed\": true"));
}
