//! Per-file lint context: significant tokens, test-code spans, and
//! inline-suppression directives.

use crate::diag::Diagnostic;
use crate::lexer::{self, Token, TokenKind};
use crate::rules;

/// One file loaded for linting.
pub struct SourceFile {
    /// Workspace-relative path with unix separators.
    pub rel_path: String,
    /// The owning crate (directory name under `crates/`, or `tps` for the
    /// facade package at the workspace root).
    pub crate_name: String,
    /// Full file contents.
    pub text: String,
}

/// A significant (non-comment) token, with a back-pointer into the full
/// stream so documentation checks can look at adjacent comments.
#[derive(Copy, Clone, Debug)]
pub struct Sig<'a> {
    /// Token classification.
    pub kind: TokenKind,
    /// Token text.
    pub text: &'a str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Index into [`FileCtx::tokens`].
    pub full_idx: usize,
}

/// A parsed `// tps-lint::allow(rule, reason = "...")` directive.
#[derive(Clone, Debug)]
pub struct Allow {
    /// The suppressed rule.
    pub rule: String,
    /// The line the suppression applies to: the directive's own line when
    /// it trails code, otherwise the next line.
    pub target_line: u32,
}

/// Everything the rules need to know about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path.
    pub rel_path: &'a str,
    /// Owning crate name.
    pub crate_name: &'a str,
    /// File contents.
    pub src: &'a str,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Significant tokens only (no comments).
    pub sig: Vec<Sig<'a>>,
    /// `test_mask[i]` is true when `sig[i]` lies inside test-only code
    /// (`#[cfg(test)]` / `#[test]` items, or a tests/benches/examples file).
    pub test_mask: Vec<bool>,
    /// Valid suppression directives.
    pub allows: Vec<Allow>,
    /// Diagnostics for malformed suppression directives.
    pub malformed: Vec<Diagnostic>,
    /// `partner[i]` is the bracket paired with `sig[i]`; see
    /// [`FileCtx::partner`].
    partner: Vec<Option<usize>>,
}

impl<'a> FileCtx<'a> {
    /// Builds the context for one file: lexes it, classifies test spans and
    /// parses suppression comments.
    pub fn build(file: &'a SourceFile) -> Self {
        let src = file.text.as_str();
        let tokens = lexer::lex(src);
        let sig: Vec<Sig<'a>> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::LineComment | TokenKind::BlockComment | TokenKind::DocComment
                )
            })
            .map(|(i, t)| Sig {
                kind: t.kind,
                text: t.text(src),
                line: t.line,
                col: t.col,
                full_idx: i,
            })
            .collect();
        let (allows, malformed) = parse_allows(&file.rel_path, src, &tokens);
        let mut ctx = FileCtx {
            rel_path: &file.rel_path,
            crate_name: &file.crate_name,
            src,
            tokens,
            partner: pair_brackets(&sig),
            sig,
            test_mask: Vec::new(),
            allows,
            malformed,
        };
        ctx.test_mask = if path_is_test_only(&file.rel_path) {
            vec![true; ctx.sig.len()]
        } else {
            ctx.mask_test_items()
        };
        ctx
    }

    /// The index of the bracket paired with `sig[i]`: the closer of an
    /// opening `(`/`[`/`{`, or the opener of a closing one. `None` for
    /// every other token and for a bracket left unbalanced.
    pub fn partner(&self, i: usize) -> Option<usize> {
        self.partner.get(i).copied().flatten()
    }

    /// The first index at or after `from`, on the nesting level of `from`,
    /// whose token text satisfies `stop`. `stop` sees an opening bracket
    /// before its group is jumped over whole. `None` when the enclosing
    /// group closes first, a group on the way is unbalanced, or the file
    /// ends.
    pub fn find_top(&self, from: usize, stop: impl Fn(&str) -> bool) -> Option<usize> {
        let mut j = from;
        while let Some(s) = self.sig.get(j) {
            if stop(s.text) {
                return Some(j);
            }
            j = match s.text {
                "(" | "[" | "{" => self.partner(j)? + 1,
                ")" | "]" | "}" => return None,
                _ => j + 1,
            };
        }
        None
    }

    /// The end of the item at `start`, past any attributes there: the `}`
    /// closing its body, or the `;` ending a bodiless item.
    pub fn item_end(&self, start: usize) -> Option<usize> {
        let mut j = start;
        while self.text(j) == "#" && self.text(j + 1) == "[" {
            j = self.partner(j + 1)? + 1;
        }
        let end = self.find_top(j, |t| t == "{" || t == ";")?;
        match self.text(end) {
            "{" => self.partner(end),
            _ => Some(end),
        }
    }

    /// The index of the `>` (or fused `>>`) closing the generic list that
    /// the `<` at `open` starts.
    pub fn generics_end(&self, open: usize) -> Option<usize> {
        let mut depth = 0;
        for (j, s) in self.sig.iter().enumerate().skip(open) {
            depth += angle_step(s.text);
            if depth <= 0 && matches!(s.text, ">" | ">>") {
                return Some(j);
            }
        }
        None
    }

    /// Marks significant tokens covered by `#[cfg(test)]` / `#[test]` items.
    fn mask_test_items(&self) -> Vec<bool> {
        let sig = &self.sig;
        let mut mask = vec![false; sig.len()];
        let mut i = 0usize;
        while i < sig.len() {
            if sig[i].text == "#" && self.text(i + 1) == "[" {
                let Some(close) = self.partner(i + 1) else {
                    break;
                };
                if attr_is_test(&sig[i + 2..close]) {
                    if let Some(end) = self.item_end(close + 1) {
                        mask[i..=end].fill(true);
                        i = end + 1;
                        continue;
                    }
                }
                i = close + 1;
                continue;
            }
            i += 1;
        }
        mask
    }

    /// True when `sig[i]` is inside test-only code.
    pub fn is_test(&self, i: usize) -> bool {
        self.test_mask.get(i).copied().unwrap_or(false)
    }

    /// Convenience: the text of `sig[i]`, or `""` past the end.
    pub fn text(&self, i: usize) -> &str {
        self.sig.get(i).map(|s| s.text).unwrap_or("")
    }

    /// Emits a diagnostic anchored at `sig[i]`.
    pub fn diag(&self, i: usize, rule: &'static str, message: String) -> Diagnostic {
        let s = &self.sig[i];
        Diagnostic {
            path: self.rel_path.to_string(),
            line: s.line,
            col: s.col,
            rule,
            message,
        }
    }
}

/// Whole files under tests/, benches/ or examples/ trees are test-only.
fn path_is_test_only(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    parts[..parts.len().saturating_sub(1)]
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples"))
        || rel.ends_with("build.rs")
}

/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ...))]` — but not
/// `#[cfg(not(test))]`.
fn attr_is_test(body: &[Sig<'_>]) -> bool {
    if body.is_empty() {
        return false;
    }
    if body.len() == 1 && body[0].text == "test" {
        return true;
    }
    if body[0].text != "cfg" {
        return false;
    }
    let mentions_test = body.iter().any(|s| s.text == "test");
    let negated = body.iter().any(|s| s.text == "not");
    mentions_test && !negated
}

/// How far `text` moves the depth of a generic argument list: `<` and
/// `<<` open one and two levels, `>` and `>>` close them. Generics cannot
/// be paired like brackets, because the same tokens are also comparison
/// and shift operators; scans that step over them count instead.
pub fn angle_step(text: &str) -> i32 {
    match text {
        "<" => 1,
        "<<" => 2,
        ">" => -1,
        ">>" => -2,
        _ => 0,
    }
}

/// Pairs every `(`/`[`/`{` in `sig` with its closer in one stack pass. A
/// closer pairs with the innermost open bracket of its kind; brackets
/// still open inside that pair, a closer with no open bracket of its kind
/// and brackets left open at the end of the file stay unpaired.
fn pair_brackets(sig: &[Sig<'_>]) -> Vec<Option<usize>> {
    let mut partner = vec![None; sig.len()];
    let mut open: Vec<usize> = Vec::new();
    for (i, s) in sig.iter().enumerate() {
        let opener = match s.text {
            "(" | "[" | "{" => {
                open.push(i);
                continue;
            }
            ")" => "(",
            "]" => "[",
            "}" => "{",
            _ => continue,
        };
        if let Some(depth) = open.iter().rposition(|&o| sig[o].text == opener) {
            let o = open[depth];
            open.truncate(depth);
            partner[o] = Some(i);
            partner[i] = Some(o);
        }
    }
    partner
}

/// Parses every `tps-lint::allow` directive in the file's line comments.
fn parse_allows(rel_path: &str, src: &str, tokens: &[Token]) -> (Vec<Allow>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::LineComment && t.kind != TokenKind::BlockComment {
            continue;
        }
        let text = t.text(src);
        let Some(at) = text.find("tps-lint::allow") else {
            continue;
        };
        let mut bad = |why: &str| {
            malformed.push(Diagnostic {
                path: rel_path.to_string(),
                line: t.line,
                col: t.col,
                rule: rules::MALFORMED_SUPPRESSION,
                message: why.to_string(),
            });
        };
        let rest = &text[at + "tps-lint::allow".len()..];
        let Some(args) = rest
            .strip_prefix('(')
            .and_then(|r| r.find(')').map(|close| &r[..close]))
        else {
            bad("suppression must have the form tps-lint::allow(<rule>, reason = \"...\")");
            continue;
        };
        let Some((rule_part, reason_part)) = args.split_once(',') else {
            bad("suppression is missing the mandatory reason: tps-lint::allow(<rule>, reason = \"...\")");
            continue;
        };
        let rule = rule_part.trim();
        if !rules::RULES.contains(&rule) {
            bad(&format!(
                "unknown rule `{rule}` in suppression (known rules: {})",
                rules::RULES.join(", ")
            ));
            continue;
        }
        let reason_ok = reason_part
            .split_once('=')
            .filter(|(k, _)| k.trim() == "reason")
            .map(|(_, v)| v.trim())
            .filter(|v| v.len() >= 2 && v.starts_with('"') && v.ends_with('"') && v.len() > 2)
            .is_some();
        if !reason_ok {
            bad("suppression reason must be a non-empty string: reason = \"...\"");
            continue;
        }
        // A directive trailing code suppresses its own line; a directive on
        // a line of its own suppresses the next line.
        let trails_code = tokens[..i].iter().any(|p| {
            p.line == t.line
                && !matches!(
                    p.kind,
                    TokenKind::LineComment | TokenKind::BlockComment | TokenKind::DocComment
                )
        });
        let target_line = if trails_code { t.line } else { t.line + 1 };
        allows.push(Allow {
            rule: rule.to_string(),
            target_line,
        });
    }
    (allows, malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_of(file: &SourceFile) -> FileCtx<'_> {
        FileCtx::build(file)
    }

    fn file(path: &str, text: &str) -> SourceFile {
        SourceFile {
            rel_path: path.to_string(),
            crate_name: "tps-os".to_string(),
            text: text.to_string(),
        }
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let f = file(
            "crates/tps-os/src/a.rs",
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn also_real() {}\n",
        );
        let c = ctx_of(&f);
        let unwrap_idx = c.sig.iter().position(|s| s.text == "unwrap").unwrap();
        assert!(c.is_test(unwrap_idx));
        let real_idx = c.sig.iter().position(|s| s.text == "also_real").unwrap();
        assert!(!c.is_test(real_idx));
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let f = file(
            "crates/tps-os/src/a.rs",
            "#[cfg(not(test))]\nfn real() { x.unwrap(); }\n",
        );
        let c = ctx_of(&f);
        let unwrap_idx = c.sig.iter().position(|s| s.text == "unwrap").unwrap();
        assert!(!c.is_test(unwrap_idx));
    }

    #[test]
    fn integration_test_files_are_fully_masked() {
        let f = SourceFile {
            rel_path: "crates/tps-os/tests/it.rs".into(),
            crate_name: "tps-os".into(),
            text: "fn t() { x.unwrap(); }".into(),
        };
        let c = ctx_of(&f);
        assert!(c.test_mask.iter().all(|&m| m));
    }

    #[test]
    fn allow_parsing_and_targets() {
        let f = file(
            "crates/tps-os/src/a.rs",
            concat!(
                "let a = 4096; // tps-lint::allow(no-magic-page-size, reason = \"trailing\")\n",
                "// tps-lint::allow(no-magic-page-size, reason = \"next line\")\n",
                "let b = 1;\n",
            ),
        );
        let c = ctx_of(&f);
        assert_eq!(c.allows.len(), 2);
        assert_eq!(c.allows[0].rule, "no-magic-page-size");
        assert_eq!(c.allows[0].target_line, 1);
        assert_eq!(c.allows[1].rule, "no-magic-page-size");
        assert_eq!(c.allows[1].target_line, 3);
        assert!(c.malformed.is_empty());
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let f = file(
            "crates/tps-os/src/a.rs",
            "// tps-lint::allow(no-magic-page-size)\nlet a = 1;\n",
        );
        let c = ctx_of(&f);
        assert!(c.allows.is_empty());
        assert_eq!(c.malformed.len(), 1);
        assert!(c.malformed[0].message.contains("mandatory reason"));
    }

    #[test]
    fn allow_with_unknown_rule_is_malformed() {
        let f = file(
            "crates/tps-os/src/a.rs",
            "// tps-lint::allow(no-such-rule, reason = \"x\")\n",
        );
        let c = ctx_of(&f);
        assert!(c.allows.is_empty());
        assert_eq!(c.malformed.len(), 1);
        assert!(c.malformed[0].message.contains("unknown rule"));
    }

    #[test]
    fn allow_with_empty_reason_is_malformed() {
        let f = file(
            "crates/tps-os/src/a.rs",
            "// tps-lint::allow(unordered-iteration, reason = \"\")\n",
        );
        let c = ctx_of(&f);
        assert!(c.allows.is_empty());
        assert_eq!(c.malformed.len(), 1);
    }
}
