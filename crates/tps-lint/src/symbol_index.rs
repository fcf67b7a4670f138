//! Pass 1 of the workspace analysis: a conservative symbol index.
//!
//! The per-file rules are purely lexical: they cannot answer "is `regions`
//! a `HashMap`?" or "which functions can the translation entry point
//! reach?". This module builds the structures those questions need,
//! straight from the lexer output of every file:
//!
//! * **Item definitions** — `fn` / `struct` / `enum` / `trait` / `type` /
//!   `const` / `static` / `mod` / `impl` targets, with module paths derived
//!   from the file's location.
//! * **`use` resolution** — per-file map from imported name to full path,
//!   including `as` renames and brace groups, so `Map` introduced by
//!   `use std::collections::HashMap as Map;` is recognized as a hash map.
//! * **Type bindings** — a flow-insensitive map from identifier to the
//!   *head* of its declared type (`let m: HashMap<u32, VirtAddr>`, fn
//!   params, closure params) plus initializer inference
//!   (`= HashMap::new()`, `.collect::<HashMap<_, _>>()`).
//! * **Struct fields, fn return types and type aliases** — indexed per
//!   crate, so `proc.direct_blocks.values()` resolves through the field
//!   declaration even when the receiver is not `self`.
//! * **A conservative call/field-use graph** — per `fn`, the set of names
//!   it calls and fields it touches. The hot-path rules walk it from the
//!   declared translation entry points.
//!
//! Everything is name-based and deliberately over-approximate: when two
//! items share a name the index merges them, which can only make the rules
//! fire *more* often, never less — the right failure mode for a linter
//! guarding a byte-identical-output contract. Audited false positives are
//! silenced with the standard allow-with-reason suppression.

use crate::file::{angle_step, FileCtx};
use crate::lexer::TokenKind;
use std::collections::{BTreeMap, BTreeSet};

/// The kind of item a [`SymbolDef`] introduces.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DefKind {
    /// A function or method definition.
    Fn,
    /// A struct definition.
    Struct,
    /// An enum definition.
    Enum,
    /// A trait definition.
    Trait,
    /// A `type` alias.
    TypeAlias,
    /// A `const` item.
    Const,
    /// A `static` item.
    Static,
    /// A module (inline or out-of-line).
    Mod,
    /// An `impl` block; the name is the implemented type.
    Impl,
}

/// One indexed item definition.
#[derive(Clone, Debug)]
pub struct SymbolDef {
    /// What kind of item this is.
    pub kind: DefKind,
    /// The item's name (for `impl`, the target type).
    pub name: String,
    /// The defining crate.
    pub crate_name: String,
    /// Module path derived from the file location (e.g. `tps_os::os`).
    pub module_path: String,
    /// 1-based definition line.
    pub line: u32,
    /// 1-based definition column.
    pub col: u32,
}

/// The span of one `fn` body in a file's significant-token stream.
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Index of the `fn` keyword in [`FileCtx::sig`].
    pub start: usize,
    /// Index of the token closing the body (or ending the signature).
    pub end: usize,
}

/// Per-file symbol information.
#[derive(Clone, Debug, Default)]
pub struct FileSymbols {
    /// Module path derived from the file's location.
    pub module_path: String,
    /// Imported name → full path (`HashMap` → `std::collections::HashMap`).
    pub imports: BTreeMap<String, String>,
    /// Identifier → declared/inferred type head, flow-insensitive.
    pub bindings: BTreeMap<String, String>,
    /// Spans of every `fn` body, the call graph's unit.
    pub fn_spans: Vec<FnSpan>,
}

/// Call/field-use information for one function (merged by name).
#[derive(Clone, Debug, Default)]
pub struct FnInfo {
    /// Names this function calls (free functions, methods, macros).
    pub calls: BTreeSet<String>,
    /// Field names this function reads or writes.
    pub fields_used: BTreeSet<String>,
}

/// The whole-workspace symbol index.
#[derive(Clone, Debug, Default)]
pub struct SymbolIndex {
    /// Every indexed item definition, in file/line order.
    pub defs: Vec<SymbolDef>,
    files: BTreeMap<String, FileSymbols>,
    /// crate → field name → type head (struct fields).
    fields: BTreeMap<String, BTreeMap<String, String>>,
    /// crate → fn name → return-type head.
    fn_returns: BTreeMap<String, BTreeMap<String, String>>,
    /// crate → alias name → aliased type head.
    aliases: BTreeMap<String, BTreeMap<String, String>>,
    /// fn name → merged call/field info.
    fns: BTreeMap<String, FnInfo>,
    /// struct/enum names that `#[derive(Copy)]` (merged across crates).
    copy_types: BTreeSet<String>,
    /// `type` alias names whose right-hand side mentions `dyn`.
    dyn_aliases: BTreeSet<String>,
    /// struct field names whose declared type mentions `dyn`.
    dyn_fields: BTreeSet<String>,
}

/// Type heads that denote a hash-ordered (iteration-order-unstable)
/// container once resolved.
const HASH_CONTAINERS: [&str; 2] = ["HashMap", "HashSet"];

impl SymbolIndex {
    /// Builds the index over every file of a lint run.
    pub fn build(files: &[FileCtx<'_>]) -> Self {
        let mut index = SymbolIndex::default();
        for ctx in files {
            index.index_file(ctx);
        }
        index
    }

    /// The per-file symbols for `rel_path` (empty defaults if unknown).
    pub fn file(&self, rel_path: &str) -> Option<&FileSymbols> {
        self.files.get(rel_path)
    }

    /// Call/field-use info for the function named `name`, merged across
    /// every definition of that name.
    pub fn fn_info(&self, name: &str) -> Option<&FnInfo> {
        self.fns.get(name)
    }

    /// True when a workspace `struct`/`enum` named `name` derives `Copy`.
    pub fn is_copy_type(&self, name: &str) -> bool {
        self.copy_types.contains(name)
    }

    /// True when `name` is a `type` alias whose aliased type mentions
    /// `dyn` (e.g. `type Probe<'a> = &'a dyn Fn(..)`).
    pub fn is_dyn_alias(&self, name: &str) -> bool {
        self.dyn_aliases.contains(name)
    }

    /// True when `name` is a struct field declared with a type that
    /// mentions `dyn` (e.g. `cb: Box<dyn Fn(..)>`).
    pub fn is_dyn_field(&self, name: &str) -> bool {
        self.dyn_fields.contains(name)
    }

    /// The declared type head of the struct field `name` in `crate_name`.
    pub fn field_head(&self, crate_name: &str, name: &str) -> Option<&str> {
        self.fields
            .get(crate_name)
            .and_then(|m| m.get(name))
            .map(String::as_str)
    }

    /// Resolves a type head through the file's imports and the crate's
    /// `type` aliases to a full path (best effort, at most 4 alias hops).
    pub fn resolve_head(&self, ctx: &FileCtx<'_>, head: &str) -> String {
        let mut current = head.to_string();
        for _ in 0..4 {
            let single = !current.contains("::");
            let mut next = None;
            if single {
                if let Some(f) = self.files.get(ctx.rel_path) {
                    if let Some(full) = f.imports.get(&current) {
                        if full != &current {
                            next = Some(full.clone());
                        }
                    }
                }
                if next.is_none() {
                    if let Some(aliased) = self
                        .aliases
                        .get(ctx.crate_name)
                        .and_then(|a| a.get(&current))
                    {
                        if aliased != &current {
                            next = Some(aliased.clone());
                        }
                    }
                }
            }
            match next {
                Some(n) => current = n,
                None => break,
            }
        }
        current
    }

    /// True when `head` resolves to a hash-ordered container type.
    pub fn head_is_hash(&self, ctx: &FileCtx<'_>, head: &str) -> bool {
        let resolved = self.resolve_head(ctx, head);
        let last = resolved.rsplit("::").next().unwrap_or(&resolved);
        HASH_CONTAINERS.contains(&last)
    }

    /// True when the identifier `name`, used in `ctx`, denotes a
    /// hash-ordered container: a local/param binding in the file, or a
    /// struct field of the file's crate.
    pub fn ident_is_hash(&self, ctx: &FileCtx<'_>, name: &str) -> bool {
        if let Some(f) = self.files.get(ctx.rel_path) {
            if let Some(head) = f.bindings.get(name) {
                return self.head_is_hash(ctx, head);
            }
        }
        if let Some(head) = self.fields.get(ctx.crate_name).and_then(|m| m.get(name)) {
            return self.head_is_hash(ctx, head);
        }
        false
    }

    /// True when the function `name` (called in `ctx`'s crate) returns a
    /// hash-ordered container.
    pub fn fn_returns_hash(&self, ctx: &FileCtx<'_>, name: &str) -> bool {
        match self
            .fn_returns
            .get(ctx.crate_name)
            .and_then(|m| m.get(name))
        {
            Some(head) => self.head_is_hash(ctx, head),
            None => false,
        }
    }

    fn index_file(&mut self, ctx: &FileCtx<'_>) {
        let mut fs = FileSymbols {
            module_path: module_path_of(ctx.rel_path, ctx.crate_name),
            ..FileSymbols::default()
        };
        self.index_imports(ctx, &mut fs);
        self.index_defs(ctx, &mut fs);
        self.index_bindings(ctx, &mut fs);
        self.index_call_graph(ctx, &fs);
        self.files.insert(ctx.rel_path.to_string(), fs);
    }

    /// Parses every `use` declaration into name → full-path entries.
    fn index_imports(&mut self, ctx: &FileCtx<'_>, fs: &mut FileSymbols) {
        let sig = &ctx.sig;
        for i in 0..sig.len() {
            if sig[i].text != "use" || sig[i].kind != TokenKind::Ident {
                continue;
            }
            // Statement position: preceded by nothing, `;`, `}`, `{` or
            // `pub` — not `.use` or similar.
            if i > 0 && !matches!(ctx.text(i - 1), ";" | "}" | "{" | "pub" | ")") {
                continue;
            }
            let end = match (i..sig.len()).find(|&j| sig[j].text == ";") {
                Some(e) => e,
                None => continue,
            };
            parse_use_tree(ctx, i + 1, end, "", &mut fs.imports);
        }
    }

    /// Records item definitions, struct fields, fn return types, aliases
    /// and fn spans.
    fn index_defs(&mut self, ctx: &FileCtx<'_>, fs: &mut FileSymbols) {
        let sig = &ctx.sig;
        for i in 0..sig.len() {
            if sig[i].kind != TokenKind::Ident {
                continue;
            }
            let kind = match sig[i].text {
                "fn" => DefKind::Fn,
                "struct" => DefKind::Struct,
                "enum" => DefKind::Enum,
                "trait" => DefKind::Trait,
                "type" => DefKind::TypeAlias,
                "const" if ctx.text(i + 1) != "fn" => DefKind::Const,
                "static" => DefKind::Static,
                "mod" => DefKind::Mod,
                "impl" => DefKind::Impl,
                _ => continue,
            };
            // `->` return types spell `fn` only after the arrow's type; a
            // `fn` in type position (`fn(u32) -> u32`) has `(` right after.
            if kind == DefKind::Fn && ctx.text(i + 1) == "(" {
                continue;
            }
            let name = match kind {
                DefKind::Impl => impl_target_name(ctx, i),
                _ => {
                    let n = ctx.text(i + 1);
                    if n.is_empty() || sig[i + 1].kind != TokenKind::Ident {
                        continue;
                    }
                    n.to_string()
                }
            };
            let Some(name) = Some(name).filter(|n| !n.is_empty()) else {
                continue;
            };
            self.defs.push(SymbolDef {
                kind,
                name: name.clone(),
                crate_name: ctx.crate_name.to_string(),
                module_path: fs.module_path.clone(),
                line: sig[i].line,
                col: sig[i].col,
            });
            if matches!(kind, DefKind::Struct | DefKind::Enum) && has_copy_derive(ctx, i) {
                self.copy_types.insert(name.clone());
            }
            match kind {
                DefKind::Fn => {
                    let end = ctx.item_end(i).unwrap_or(i + 1);
                    fs.fn_spans.push(FnSpan {
                        name: name.clone(),
                        start: i,
                        end,
                    });
                    if let Some(head) = fn_return_head(ctx, i) {
                        self.fn_returns
                            .entry(ctx.crate_name.to_string())
                            .or_default()
                            .insert(name, head);
                    }
                }
                DefKind::Struct => {
                    self.index_struct_fields(ctx, i);
                }
                DefKind::TypeAlias => {
                    // `type Name<...> = ...;` — find the `=` past any
                    // generic parameters.
                    if let Some(eq) = alias_eq_idx(ctx, i + 2) {
                        if let Some((head, _)) = type_head(ctx, eq + 1) {
                            self.aliases
                                .entry(ctx.crate_name.to_string())
                                .or_default()
                                .insert(name.clone(), head);
                        }
                        if alias_rhs_has_dyn(ctx, eq + 1) {
                            self.dyn_aliases.insert(name);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Collects `field: Type` pairs from a struct body into the crate's
    /// field map.
    fn index_struct_fields(&mut self, ctx: &FileCtx<'_>, struct_idx: usize) {
        for (name_idx, ty_end) in struct_fields(ctx, struct_idx) {
            let name = ctx.sig[name_idx].text;
            if let Some((head, _)) = type_head(ctx, name_idx + 2) {
                self.fields
                    .entry(ctx.crate_name.to_string())
                    .or_default()
                    .insert(name.to_string(), head);
            }
            // A `dyn` anywhere in the declared type marks the field dynamic.
            if ctx.sig[name_idx + 2..ty_end]
                .iter()
                .any(|s| s.text == "dyn")
            {
                self.dyn_fields.insert(name.to_string());
            }
        }
    }

    /// Records `ident: Type` bindings (params, lets, closure params) and
    /// initializer-inferred types.
    fn index_bindings(&mut self, ctx: &FileCtx<'_>, fs: &mut FileSymbols) {
        let sig = &ctx.sig;
        for i in 1..sig.len() {
            if sig[i].text != ":" {
                continue;
            }
            if sig[i - 1].kind != TokenKind::Ident {
                continue;
            }
            if let Some((head, _)) = type_head(ctx, i + 1) {
                fs.bindings
                    .entry(sig[i - 1].text.to_string())
                    .or_insert(head);
            }
        }
        // Initializer inference: `name = Path::new(...)` and
        // `name = ....collect::<HashMap<...>>()`.
        for i in 1..sig.len() {
            if sig[i].text != "=" || sig[i - 1].kind != TokenKind::Ident {
                continue;
            }
            let name = sig[i - 1].text;
            if let Some((head, after)) = type_head(ctx, i + 1) {
                // `Path::ctor(` — strip the constructor segment.
                if ctx.text(after) == "(" {
                    if let Some((ty, ctor)) = head.rsplit_once("::") {
                        if matches!(ctor, "new" | "with_capacity" | "from" | "default") {
                            fs.bindings
                                .entry(name.to_string())
                                .or_insert(ty.to_string());
                            continue;
                        }
                    }
                }
            }
            // Scan the initializer, up to its `;` or the close of the
            // enclosing group, for a `collect::<Head<...>>` turbofish.
            let end = ctx
                .find_top(i + 1, |t| matches!(t, ";" | ")" | "]" | "}"))
                .unwrap_or(sig.len());
            for j in i + 1..end {
                if sig[j].text == "collect"
                    && ctx.text(j + 1) == "::"
                    && ctx.text(j + 2) == "<"
                    && sig.get(j + 3).map(|s| s.kind) == Some(TokenKind::Ident)
                {
                    fs.bindings
                        .entry(name.to_string())
                        .or_insert_with(|| ctx.text(j + 3).to_string());
                }
            }
        }
    }

    /// Builds the conservative call/field-use graph from the fn spans.
    fn index_call_graph(&mut self, ctx: &FileCtx<'_>, fs: &FileSymbols) {
        for span in &fs.fn_spans {
            let mut calls = BTreeSet::new();
            let mut fields_used = BTreeSet::new();
            for j in span.start + 2..span.end.min(ctx.sig.len()) {
                if ctx.sig[j].kind != TokenKind::Ident {
                    continue;
                }
                let t = ctx.sig[j].text;
                let next = ctx.text(j + 1);
                if next == "(" || (next == "::" && ctx.text(j + 2) == "<") {
                    // Skip nested `fn` names and macro invocations.
                    if ctx.text(j.wrapping_sub(1)) != "fn" && next != "!" {
                        calls.insert(t.to_string());
                    }
                } else if ctx.text(j.wrapping_sub(1)) == "." && next != "(" {
                    fields_used.insert(t.to_string());
                }
            }
            let info = self.fns.entry(span.name.clone()).or_default();
            info.calls.extend(calls);
            info.fields_used.extend(fields_used);
        }
    }
}

/// Derives a module path like `tps_os::os` from a workspace-relative file
/// path.
fn module_path_of(rel_path: &str, crate_name: &str) -> String {
    let crate_mod = crate_name.replace('-', "_");
    let tail = rel_path
        .rsplit_once("/src/")
        .map(|(_, t)| t)
        .unwrap_or(rel_path);
    let tail = tail.trim_end_matches(".rs");
    if tail == "lib" || tail == "main" {
        return crate_mod;
    }
    let tail = tail.trim_end_matches("/mod");
    format!("{crate_mod}::{}", tail.replace('/', "::"))
}

/// Recursively parses one `use` tree (`a::b::{C, D as E}`) rooted at
/// `prefix`, filling `out` with name → full-path entries.
fn parse_use_tree(
    ctx: &FileCtx<'_>,
    start: usize,
    end: usize,
    prefix: &str,
    out: &mut BTreeMap<String, String>,
) {
    let sig = &ctx.sig;
    let mut path: Vec<String> = if prefix.is_empty() {
        Vec::new()
    } else {
        vec![prefix.to_string()]
    };
    let mut j = start;
    while j < end {
        match sig[j].text {
            "::" | "," => j += 1,
            "{" => {
                let Some(close) = ctx.partner(j) else {
                    return;
                };
                // Split the group body on top-level commas and recurse.
                let joined = path.join("::");
                let mut seg_start = j + 1;
                while let Some(comma) = ctx.find_top(seg_start, |t| t == ",") {
                    parse_use_tree(ctx, seg_start, comma, &joined, out);
                    seg_start = comma + 1;
                }
                parse_use_tree(ctx, seg_start, close, &joined, out);
                return;
            }
            "*" => return, // glob: nothing nameable to record
            "as" => {
                let alias = ctx.text(j + 1);
                if !alias.is_empty() && !path.is_empty() {
                    out.insert(alias.to_string(), path.join("::"));
                }
                return;
            }
            _ if sig[j].kind == TokenKind::Ident => {
                path.push(sig[j].text.to_string());
                j += 1;
            }
            _ => j += 1,
        }
    }
    if let Some(last) = path.last() {
        if last != "self" {
            out.insert(last.clone(), path.join("::"));
        } else if path.len() > 1 {
            // `use a::b::{self}` names `b`.
            let name = path[path.len() - 2].clone();
            out.insert(name, path[..path.len() - 1].join("::"));
        }
    }
}

/// Reads a type path starting at `start`: skips `&`/`mut`/`dyn`/`impl` and
/// lifetimes, then collects `seg(::seg)*`. Returns the joined head and the
/// index one past it, or `None` when no path starts there.
fn type_head(ctx: &FileCtx<'_>, start: usize) -> Option<(String, usize)> {
    let sig = &ctx.sig;
    let mut j = start;
    while j < sig.len() {
        match sig[j].text {
            "&" | "&&" | "mut" | "dyn" | "impl" => j += 1,
            _ if sig[j].kind == TokenKind::Lifetime => j += 1,
            _ => break,
        }
    }
    if j >= sig.len() || sig[j].kind != TokenKind::Ident {
        return None;
    }
    let mut segs = vec![sig[j].text.to_string()];
    j += 1;
    while j + 1 < sig.len() && sig[j].text == "::" && sig[j + 1].kind == TokenKind::Ident {
        segs.push(sig[j + 1].text.to_string());
        j += 2;
    }
    Some((segs.join("::"), j))
}

/// The implemented type's name for an `impl` at `impl_idx`:
/// `impl Foo`, `impl<T> Foo<T>`, `impl Trait for Foo`.
fn impl_target_name(ctx: &FileCtx<'_>, impl_idx: usize) -> String {
    let sig = &ctx.sig;
    let mut j = impl_idx + 1;
    // Skip generic parameters.
    if ctx.text(j) == "<" {
        j = ctx.generics_end(j).map_or(sig.len(), |e| e + 1);
    }
    // `impl Trait for Type`: take the segment after `for` if present.
    let mut last_ident = String::new();
    let mut depth = 0i32;
    while j < sig.len() {
        match sig[j].text {
            "{" | "where" if depth <= 0 => break,
            "for" if depth == 0 => {
                last_ident.clear();
            }
            t if sig[j].kind == TokenKind::Ident && depth == 0 => {
                last_ident = t.to_string();
            }
            t => depth += angle_step(t),
        }
        j += 1;
    }
    last_ident
}

/// Index of the `=` of a `type Name<...> = ...;` alias, scanning from just
/// past the alias name (skips generic parameters).
fn alias_eq_idx(ctx: &FileCtx<'_>, start: usize) -> Option<usize> {
    let mut angle = 0i32;
    for (j, s) in ctx.sig.iter().enumerate().skip(start) {
        match s.text {
            "=" if angle <= 0 => return Some(j),
            ";" | "{" => return None,
            t => angle += angle_step(t),
        }
    }
    None
}

/// True when the alias right-hand side starting at `start` mentions `dyn`
/// before its terminating `;`.
fn alias_rhs_has_dyn(ctx: &FileCtx<'_>, start: usize) -> bool {
    let sig = &ctx.sig;
    for s in sig.iter().skip(start) {
        match s.text {
            ";" => return false,
            "dyn" => return true,
            _ => {}
        }
    }
    false
}

/// True when the item keyword at `kw_idx` is covered by a
/// `#[derive(..., Copy, ...)]` attribute (scans backward over visibility
/// modifiers and stacked attributes).
fn has_copy_derive(ctx: &FileCtx<'_>, kw_idx: usize) -> bool {
    let mut j = kw_idx;
    // Step back over `pub`, `pub(crate)`, `pub(super)`, `pub(in ...)`.
    loop {
        if j == 0 {
            return false;
        }
        let prev = ctx.text(j - 1);
        if prev == "pub" {
            j -= 1;
        } else if prev == ")" {
            match ctx.partner(j - 1) {
                Some(open) if open >= 1 && ctx.text(open - 1) == "pub" => j = open - 1,
                _ => return false,
            }
        } else {
            break;
        }
    }
    // Walk the stack of preceding `#[...]` groups.
    while j >= 2 && ctx.text(j - 1) == "]" {
        let Some(open) = ctx.partner(j - 1) else {
            return false;
        };
        if open == 0 || ctx.text(open - 1) != "#" {
            return false;
        }
        let mut saw_derive = false;
        let mut saw_copy = false;
        for t in open + 1..j - 1 {
            match ctx.text(t) {
                "derive" => saw_derive = true,
                "Copy" => saw_copy = true,
                _ => {}
            }
        }
        if saw_derive && saw_copy {
            return true;
        }
        j = open - 1;
    }
    false
}

/// The return-type head of the `fn` at `fn_idx`, when declared.
fn fn_return_head(ctx: &FileCtx<'_>, fn_idx: usize) -> Option<String> {
    let arrow = ctx.find_top(fn_idx + 1, |t| matches!(t, "->" | "{" | ";"))?;
    if ctx.text(arrow) != "->" {
        return None;
    }
    type_head(ctx, arrow + 1).map(|(h, _)| h)
}

/// The named fields of the struct whose keyword is at `struct_idx`, as
/// the index of each field's name and the end (exclusive) of its declared
/// type. Empty for unit and tuple structs.
pub(crate) fn struct_fields(ctx: &FileCtx<'_>, struct_idx: usize) -> Vec<(usize, usize)> {
    let sig = &ctx.sig;
    // Find the body `{` past generics and where-clauses.
    let mut angle = 0i32;
    let mut j = struct_idx + 2;
    let open = loop {
        let Some(s) = sig.get(j) else {
            return Vec::new();
        };
        match s.text {
            "{" if angle <= 0 => break j,
            ";" | "(" if angle <= 0 => return Vec::new(), // unit or tuple struct
            t => angle += angle_step(t),
        }
        j += 1;
    };
    let Some(close) = ctx.partner(open) else {
        return Vec::new();
    };
    // A field is `name: Type` up to a top-level comma; brackets are jumped
    // over and generics counted, so neither hides a comma or a colon.
    let mut fields = Vec::new();
    let mut name = None;
    let mut angle = 0i32;
    let mut k = open + 1;
    while k < close {
        match sig[k].text {
            "(" | "[" | "{" => match ctx.partner(k) {
                Some(c) => k = c,
                None => break,
            },
            ":" if angle == 0 && sig[k - 1].kind == TokenKind::Ident => name = Some(k - 1),
            "," if angle == 0 => fields.extend(name.take().map(|n| (n, k))),
            t => angle += angle_step(t),
        }
        k += 1;
    }
    fields.extend(name.map(|n| (n, close)));
    fields
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::SourceFile;

    fn build_one(crate_name: &str, rel_path: &str, text: &str) -> (SourceFile, SymbolIndex) {
        let file = SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            text: text.to_string(),
        };
        let ctx = FileCtx::build(&file);
        let index = SymbolIndex::build(std::slice::from_ref(&ctx));
        // ctx borrows file; rebuild later via helper in each test.
        drop(ctx);
        (file, index)
    }

    #[test]
    fn use_resolution_handles_groups_and_renames() {
        let (file, index) = build_one(
            "tps-sim",
            "crates/tps-sim/src/a.rs",
            "use std::collections::{HashMap, BTreeMap as Ordered};\n\
             use std::collections::HashSet as Set;\n",
        );
        let ctx = FileCtx::build(&file);
        let fs = index.file("crates/tps-sim/src/a.rs").unwrap();
        assert_eq!(
            fs.imports.get("HashMap").unwrap(),
            "std::collections::HashMap"
        );
        assert_eq!(
            fs.imports.get("Ordered").unwrap(),
            "std::collections::BTreeMap"
        );
        assert_eq!(fs.imports.get("Set").unwrap(), "std::collections::HashSet");
        assert!(index.head_is_hash(&ctx, "Set"));
        assert!(!index.head_is_hash(&ctx, "Ordered"));
    }

    #[test]
    fn bindings_from_annotations_and_initializers() {
        let (file, index) = build_one(
            "tps-sim",
            "crates/tps-sim/src/b.rs",
            "use std::collections::HashMap;\n\
             fn f(regions: &HashMap<u32, u64>, sizes: &Vec<u64>) {\n\
                 let local = HashMap::new();\n\
                 let picked: Vec<u32> = regions.keys().copied().collect();\n\
                 let gathered = sizes.iter().map(|s| (*s, 0u32)).collect::<HashMap<_, _>>();\n\
                 let _ = (local, picked, gathered);\n\
             }\n",
        );
        let ctx = FileCtx::build(&file);
        assert!(index.ident_is_hash(&ctx, "regions"));
        assert!(index.ident_is_hash(&ctx, "local"));
        assert!(index.ident_is_hash(&ctx, "gathered"));
        assert!(!index.ident_is_hash(&ctx, "sizes"));
        assert!(!index.ident_is_hash(&ctx, "picked"));
    }

    #[test]
    fn struct_fields_resolve_across_the_crate() {
        let def = SourceFile {
            rel_path: "crates/tps-sim/src/types.rs".to_string(),
            crate_name: "tps-sim".to_string(),
            text: "use std::collections::HashMap;\n\
                   pub struct Machine { pub regions: HashMap<u32, u64>, pub count: u64 }\n"
                .to_string(),
        };
        let user = SourceFile {
            rel_path: "crates/tps-sim/src/use.rs".to_string(),
            crate_name: "tps-sim".to_string(),
            text: "fn g(m: &super::Machine) { let _ = &m; }\n".to_string(),
        };
        let ctxs = [FileCtx::build(&def), FileCtx::build(&user)];
        let index = SymbolIndex::build(&ctxs);
        assert!(index.ident_is_hash(&ctxs[1], "regions"));
        assert!(!index.ident_is_hash(&ctxs[1], "count"));
    }

    #[test]
    fn type_alias_resolves_to_hash() {
        let (file, index) = build_one(
            "tps-sim",
            "crates/tps-sim/src/c.rs",
            "use std::collections::HashMap;\n\
             type Regions = HashMap<u32, u64>;\n\
             fn f(r: &Regions) { let _ = r; }\n",
        );
        let ctx = FileCtx::build(&file);
        assert!(index.ident_is_hash(&ctx, "r"));
    }

    #[test]
    fn fn_return_types_are_indexed() {
        let (file, index) = build_one(
            "tps-sim",
            "crates/tps-sim/src/d.rs",
            "use std::collections::{BTreeMap, HashMap};\n\
             fn census() -> BTreeMap<u8, u64> { BTreeMap::new() }\n\
             fn raw() -> HashMap<u8, u64> { HashMap::new() }\n",
        );
        let ctx = FileCtx::build(&file);
        assert!(!index.fn_returns_hash(&ctx, "census"));
        assert!(index.fn_returns_hash(&ctx, "raw"));
    }

    #[test]
    fn module_paths_follow_the_file_location() {
        let (_file, index) = build_one(
            "tps-os",
            "crates/tps-os/src/os.rs",
            "fn outer() { let x = 1; }\nfn later() {}\n",
        );
        assert_eq!(
            index.file("crates/tps-os/src/os.rs").unwrap().module_path,
            "tps_os::os"
        );
        assert_eq!(
            module_path_of("crates/tps-os/src/lib.rs", "tps-os"),
            "tps_os"
        );
        assert_eq!(
            module_path_of("crates/tps-sim/src/experiment/mod.rs", "tps-sim"),
            "tps_sim::experiment"
        );
    }

    #[test]
    fn copy_derives_and_dyn_types_are_indexed() {
        let (file, index) = build_one(
            "tps-sim",
            "crates/tps-sim/src/g.rs",
            "#[derive(Clone, Copy, Debug)]\n\
             pub struct Small { x: u32 }\n\
             #[derive(Clone)]\n\
             pub struct Big { data: Vec<u8>, cb: Box<dyn Fn(u32) -> u32> }\n\
             pub type Probe<'a> = &'a dyn Fn(u64) -> bool;\n\
             pub type Plain = u64;\n",
        );
        drop(file);
        assert!(index.is_copy_type("Small"));
        assert!(!index.is_copy_type("Big"));
        assert!(index.is_dyn_alias("Probe"));
        assert!(!index.is_dyn_alias("Plain"));
        assert!(index.is_dyn_field("cb"));
        assert!(!index.is_dyn_field("data"));
        assert_eq!(index.field_head("tps-sim", "data"), Some("Vec"));
    }

    #[test]
    fn defs_cover_items_and_impl_targets() {
        let (file, index) = build_one(
            "tps-sim",
            "crates/tps-sim/src/f.rs",
            "pub struct S { x: u32 }\n\
             impl S { fn m(&self) {} }\n\
             impl std::fmt::Display for S {\n\
                 fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n\
             }\n\
             enum E { A }\n",
        );
        drop(file);
        let kinds: Vec<(DefKind, &str)> = index
            .defs
            .iter()
            .map(|d| (d.kind, d.name.as_str()))
            .collect();
        assert!(kinds.contains(&(DefKind::Struct, "S")));
        assert!(kinds.contains(&(DefKind::Fn, "m")));
        assert!(kinds.contains(&(DefKind::Impl, "S")));
        assert!(kinds.contains(&(DefKind::Enum, "E")));
        assert_eq!(
            index
                .defs
                .iter()
                .filter(|d| d.name == "S" && d.kind == DefKind::Impl)
                .count(),
            2,
            "both impl blocks target S"
        );
    }
}
