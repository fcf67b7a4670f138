//! The committed hot-path contract: `hot-paths.toml`.
//!
//! The hot-path rule family ([`crate::rules::hot_path`]) fences the
//! translation fast path by call-graph reachability. Which functions seed
//! that closure is a *policy* decision, not something the linter can
//! infer — so the entry points live in a committed file at the workspace
//! root, reviewed like code. The same file declares the cold boundaries:
//! named slow paths (fault handling, debug oracles, constructors) the
//! closure must not cross.
//!
//! The file is compiled in ([`HotPaths::builtin`]), so every run — the
//! CLI and the fixture tests alike — reads the contract of the tree it was
//! built from. The format is a hand-rolled TOML subset: `[section]`
//! headers and `"key" = "value"` lines, where the value is the human
//! reason for the entry. Unknown syntax is an error — a typo'd contract
//! must not silently unfence the hot path.

use std::collections::BTreeMap;

/// The committed workspace contract, compiled in so the fixture tests and
/// `--workspace` runs share one copy.
const BUILTIN: &str = include_str!("../../../hot-paths.toml");

/// The declared hot-path entry points and cold boundaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HotPaths {
    /// `Type::method` → reason: functions seeding the reachability
    /// closure.
    pub entry_points: BTreeMap<String, String>,
    /// Function name (bare or `Type::method`) → reason: the closure
    /// neither scans nor crosses these.
    pub cold_boundaries: BTreeMap<String, String>,
}

impl HotPaths {
    /// The committed workspace configuration (`hot-paths.toml` at the
    /// repository root, compiled in).
    pub fn builtin() -> Self {
        // Validated by a unit test; failing here means the committed file
        // was broken after the last build that embedded it.
        Self::parse(BUILTIN).expect("committed hot-paths.toml parses")
    }

    /// Parses the `hot-paths.toml` format. Unknown sections or syntax are
    /// errors.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut hot = HotPaths::default();
        let mut section: Option<String> = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim();
                if name != "entry-points" && name != "cold-boundaries" {
                    return Err(format!("line {}: unknown section [{name}]", lineno + 1));
                }
                section = Some(name.to_string());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "line {}: expected `\"name\" = \"reason\"`",
                    lineno + 1
                ));
            };
            let name = key.trim().trim_matches('"').to_string();
            let reason = value.trim().trim_matches('"').to_string();
            if name.is_empty() || reason.is_empty() {
                return Err(format!("line {}: empty name or reason", lineno + 1));
            }
            match section.as_deref() {
                Some("entry-points") => {
                    hot.entry_points.insert(name, reason);
                }
                Some("cold-boundaries") => {
                    hot.cold_boundaries.insert(name, reason);
                }
                _ => {
                    return Err(format!("line {}: entry before any section", lineno + 1));
                }
            }
        }
        Ok(hot)
    }
}

/// The bare function name of a `Type::method` entry (`Mmu::access` →
/// `access`).
pub fn name_tail(full: &str) -> &str {
    full.rsplit("::").next().unwrap_or(full)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_contract_parses_and_is_populated() {
        let hot = HotPaths::builtin();
        assert!(
            hot.entry_points.contains_key("Mmu::access"),
            "the per-access entry point is the contract's reason to exist"
        );
        assert!(hot.entry_points.len() >= 10);
        assert!(hot.cold_boundaries.contains_key("handle_fault"));
    }

    #[test]
    fn parse_round_trips_both_sections() {
        let hot = HotPaths::parse(
            "# comment\n\n[entry-points]\n\"A::b\" = \"why\"\n\
             [cold-boundaries]\n\"slow\" = \"cold\"\n",
        )
        .unwrap();
        assert_eq!(hot.entry_points.get("A::b").unwrap(), "why");
        assert_eq!(hot.cold_boundaries.get("slow").unwrap(), "cold");
    }

    #[test]
    fn rejects_garbage() {
        assert!(HotPaths::parse("what").is_err());
        assert!(
            HotPaths::parse("\"a\" = \"b\"").is_err(),
            "entry before section"
        );
        assert!(HotPaths::parse("[nope]\n").is_err(), "unknown section");
        assert!(
            HotPaths::parse("[entry-points]\n\"a\" = \"\"\n").is_err(),
            "empty reason"
        );
    }

    #[test]
    fn tails() {
        assert_eq!(name_tail("Mmu::access"), "access");
        assert_eq!(name_tail("walk"), "walk");
    }
}
