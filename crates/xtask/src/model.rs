//! Per-file item model: the layer between the token stream and the
//! cross-file L1 lock rule.
//!
//! The lexer gives a flat token stream; L1 needs just enough *structure*
//! to reason across files — which function a token belongs to, which
//! names are lock slots, and which functions a body calls.
//! [`FileModel::build`] recovers that structure with a brace-matching
//! scan (no `syn`, the environment is offline).  It is an approximation
//! by design: item boundaries and call references are recovered reliably
//! for the idiomatic-Rust shapes this workspace uses, and L1 degrades
//! towards silence (not towards false findings) when a shape is not
//! recognised.
//!
//! Lock slots need no annotation: any field, static or local whose type
//! or initialiser names `Mutex`/`RwLock` is modelled as a lock.

use std::collections::BTreeSet;

use crate::lexer::{ident_at, lex, matching_close, plain_ident, punct_at, TokKind, Token};
use crate::rules::test_mask;

/// One function item (free function or method).
#[derive(Debug)]
pub struct FnItem {
    /// Bare function name (`on_start`, `commit_batch`, …).
    pub name: String,
    /// Token range of the body: indices of the opening and closing braces
    /// (inclusive).  `None` for bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// `true` when the function sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Call references inside the body, in source order.
    pub calls: Vec<CallSite>,
}

/// One call reference (`name(…)`, `recv.name(…)` or `Qual::name(…)`).
#[derive(Debug)]
pub struct CallSite {
    /// The called name.
    pub name: String,
    /// Token index of the name identifier.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
}

/// The item model of one source file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    pub tokens: Vec<Token>,
    /// Per-token `#[cfg(test)]` mask (same policy as the lexical rules).
    pub mask: Vec<bool>,
    pub fns: Vec<FnItem>,
    /// Names of lock slots declared in this file (fields, statics and
    /// `let`-bound `Mutex::new`/`RwLock::new` locals).
    pub locks: BTreeSet<String>,
}

impl FileModel {
    /// Builds the model of `src` as if it lived at `path`.
    pub fn build(path: &str, src: &str) -> FileModel {
        let tokens = lex(src).tokens;
        let mask = test_mask(&tokens);
        let mut fns = collect_fns(&tokens, &mask);
        let mut locks = collect_lock_fields(&tokens);
        locks.extend(collect_static_locks(&tokens));
        for f in &mut fns {
            if let Some((open, close)) = f.body {
                locks.extend(collect_local_locks(&tokens, open, close));
                f.calls = collect_calls(&tokens, open, close);
            }
        }
        FileModel {
            path: path.to_string(),
            tokens,
            mask,
            fns,
            locks,
        }
    }

    /// Short stem of the file name (`tcp` for `crates/net/src/tcp.rs`),
    /// used to qualify lock identities.
    pub fn stem(&self) -> &str {
        self.path
            .rsplit('/')
            .next()
            .unwrap_or(&self.path)
            .trim_end_matches(".rs")
    }
}

/// `true` when token `i` can open a top-level item (a `struct`):
/// the previous token ends an item or attribute, or opens a module block.
fn item_position(tokens: &[Token], i: usize) -> bool {
    match i.checked_sub(1).and_then(|p| tokens.get(p)) {
        None => true,
        Some(prev) => match prev.kind {
            // A `)` can close a restricted visibility (`pub(crate)`,
            // `pub(super)`, …): walk back over the group and require the
            // `pub` in front of it, so `pub(crate) struct` declares items
            // but `fn f() -> T` positions never do.
            TokKind::Punct if prev.text == ")" => {
                let mut depth = 0i32;
                let mut p = i - 1;
                loop {
                    match tokens.get(p) {
                        Some(t) if t.kind == TokKind::Punct && t.text == ")" => depth += 1,
                        Some(t) if t.kind == TokKind::Punct && t.text == "(" => {
                            depth -= 1;
                            if depth == 0 {
                                return p > 0 && ident_at(tokens, p - 1, "pub");
                            }
                        }
                        _ => {}
                    }
                    if p == 0 {
                        return false;
                    }
                    p -= 1;
                }
            }
            TokKind::Punct => matches!(prev.text.as_str(), "}" | ";" | "]" | "{"),
            TokKind::Ident => matches!(prev.text.as_str(), "pub" | "unsafe"),
            _ => false,
        },
    }
}

fn collect_fns(tokens: &[Token], mask: &[bool]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if ident_at(tokens, i, "fn") && plain_ident(tokens, i + 1).is_some() {
            let name = tokens[i + 1].text.clone();
            // The body opens at the first `{` after the signature; a `;`
            // first means a bodiless trait-method declaration.
            let mut j = i + 2;
            let mut body = None;
            while j < tokens.len() {
                if punct_at(tokens, j, ";") {
                    break;
                }
                if punct_at(tokens, j, "{") {
                    body = Some((j, matching_close(tokens, j)));
                    break;
                }
                j += 1;
            }
            fns.push(FnItem {
                name,
                body,
                in_test: mask.get(i).copied().unwrap_or(false),
                calls: Vec::new(),
            });
            // Continue *inside* the body too: nested test helpers and
            // closures still declare `fn` items worth modelling.
            i += 2;
        } else {
            i += 1;
        }
    }
    fns
}

/// Names of the lock-typed fields of every `struct Name { … }` (the
/// file's field lock vocabulary).
fn collect_lock_fields(tokens: &[Token]) -> BTreeSet<String> {
    let mut locks = BTreeSet::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(ident_at(tokens, i, "struct")
            && plain_ident(tokens, i + 1).is_some()
            && item_position(tokens, i))
        {
            i += 1;
            continue;
        }
        // Find the field braces (skipping generics); `(` or `;` means a
        // tuple or unit struct — no named fields to model.
        let mut j = i + 2;
        let mut angle = 0i32;
        let open = loop {
            match tokens.get(j) {
                None => break None,
                Some(t) if t.kind == TokKind::Punct => match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "{" if angle <= 0 => break Some(j),
                    "(" | ";" if angle <= 0 => break None,
                    _ => {}
                },
                _ => {}
            }
            j += 1;
        };
        let Some(open) = open else {
            i += 2;
            continue;
        };
        let close = matching_close(tokens, open);
        let mut k = open + 1;
        while k < close {
            // Skip attributes and visibility before the field name.
            if punct_at(tokens, k, "#") {
                k = if punct_at(tokens, k + 1, "[") {
                    matching_close(tokens, k + 1) + 1
                } else {
                    k + 2
                };
                continue;
            }
            if ident_at(tokens, k, "pub") {
                k += 1;
                if punct_at(tokens, k, "(") {
                    k = matching_close(tokens, k) + 1;
                }
                continue;
            }
            if plain_ident(tokens, k).is_some()
                && punct_at(tokens, k + 1, ":")
                && !punct_at(tokens, k + 2, ":")
            {
                let name = tokens[k].text.clone();
                // Scan the type up to the field-separating comma.
                let mut depth = 0i32;
                let mut t = k + 2;
                let mut is_lock = false;
                while t < close {
                    let tok = &tokens[t];
                    if tok.kind == TokKind::Punct {
                        match tok.text.as_str() {
                            "<" | "(" | "[" => depth += 1,
                            ">" | ")" | "]" => depth -= 1,
                            "," if depth <= 0 => break,
                            _ => {}
                        }
                    } else if tok.kind == TokKind::Ident
                        && matches!(tok.text.as_str(), "Mutex" | "RwLock")
                    {
                        is_lock = true;
                    }
                    t += 1;
                }
                if is_lock {
                    locks.insert(name);
                }
                k = t + 1;
            } else {
                k += 1;
            }
        }
        i = close + 1;
    }
    locks
}

/// Names of `static`/`const` items with a lock type.
fn collect_static_locks(tokens: &[Token]) -> BTreeSet<String> {
    let mut locks = BTreeSet::new();
    for i in 0..tokens.len() {
        if !(ident_at(tokens, i, "static") || ident_at(tokens, i, "const")) {
            continue;
        }
        let mut j = i + 1;
        if ident_at(tokens, j, "mut") {
            j += 1;
        }
        if !(plain_ident(tokens, j).is_some() && punct_at(tokens, j + 1, ":")) {
            continue;
        }
        let name = &tokens[j].text;
        let mut t = j + 2;
        while t < tokens.len() && !punct_at(tokens, t, "=") && !punct_at(tokens, t, ";") {
            if tokens[t].kind == TokKind::Ident
                && matches!(tokens[t].text.as_str(), "Mutex" | "RwLock")
            {
                locks.insert(name.clone());
                break;
            }
            t += 1;
        }
    }
    locks
}

/// Names of `let`-bound locals initialised with `Mutex::new`/`RwLock::new`
/// inside the body range.
fn collect_local_locks(tokens: &[Token], open: usize, close: usize) -> BTreeSet<String> {
    let mut locks = BTreeSet::new();
    for i in open..close {
        if !(matches!(tokens[i].text.as_str(), "Mutex" | "RwLock")
            && tokens[i].kind == TokKind::Ident
            && punct_at(tokens, i + 1, "::")
            && ident_at(tokens, i + 2, "new"))
        {
            continue;
        }
        // Walk back to the start of the statement looking for `let <name>`.
        let mut j = i;
        while j > open {
            let t = &tokens[j - 1];
            if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
                break;
            }
            j -= 1;
        }
        if ident_at(tokens, j, "let") {
            let mut n = j + 1;
            if ident_at(tokens, n, "mut") {
                n += 1;
            }
            if plain_ident(tokens, n).is_some() {
                locks.insert(tokens[n].text.clone());
            }
        }
    }
    locks
}

/// Identifiers that open expressions or enum variants, not calls.
const NON_CALL_IDENTS: [&str; 18] = [
    "if", "match", "while", "for", "return", "break", "loop", "move", "as", "in", "let", "mut",
    "ref", "else", "Some", "Ok", "Err", "None",
];

fn collect_calls(tokens: &[Token], open: usize, close: usize) -> Vec<CallSite> {
    let mut calls = Vec::new();
    for i in open..=close.min(tokens.len().saturating_sub(1)) {
        if tokens[i].kind != TokKind::Ident {
            continue;
        }
        let name = tokens[i].text.as_str();
        if NON_CALL_IDENTS.contains(&name) {
            continue;
        }
        // `name(` directly, or `name::<T>(` via turbofish.
        let after = if punct_at(tokens, i + 1, "(") {
            Some(i + 1)
        } else if punct_at(tokens, i + 1, "::") && punct_at(tokens, i + 2, "<") {
            let mut depth = 0i32;
            let mut j = i + 2;
            loop {
                match tokens.get(j) {
                    None => break None,
                    Some(t) if t.kind == TokKind::Punct => match t.text.as_str() {
                        "<" => {
                            depth += 1;
                            j += 1;
                        }
                        ">" => {
                            depth -= 1;
                            j += 1;
                            if depth == 0 {
                                break punct_at(tokens, j, "(").then_some(j);
                            }
                        }
                        ";" | "{" => break None,
                        _ => j += 1,
                    },
                    _ => j += 1,
                }
            }
        } else {
            None
        };
        if after.is_none() {
            continue;
        }
        // `fn name(` is the declaration itself, not a call.
        if i > 0 && ident_at(tokens, i - 1, "fn") {
            continue;
        }
        calls.push(CallSite {
            name: name.to_string(),
            tok: i,
            line: tokens[i].line,
        });
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::build("crates/demo/src/lib.rs", src)
    }

    #[test]
    fn fns_and_their_calls_are_recovered() {
        let m = model(
            "pub struct S { x: u32 }\n\
             impl S {\n    fn one(&self) { self.two(); }\n    fn two(&self) {}\n}\n\
             impl Clone for S { fn clone(&self) -> S { S { x: 0 } } }\n\
             fn free() {}\n",
        );
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["one", "two", "clone", "free"]);
        let one = &m.fns[0];
        assert!(one.calls.iter().any(|c| c.name == "two"));
    }

    #[test]
    fn lock_fields_statics_and_locals_are_collected() {
        let m = model(
            "use std::sync::{Mutex, RwLock};\n\
             static TABLE: Mutex<u32> = Mutex::new(0);\n\
             struct S { inner: Mutex<Vec<u8>>, map: RwLock<u32>, plain: u32 }\n\
             fn local() { let guard_src = Mutex::new(1u32); let _ = guard_src.lock(); }\n",
        );
        assert!(m.locks.contains("TABLE"));
        assert!(m.locks.contains("inner"));
        assert!(m.locks.contains("map"));
        assert!(m.locks.contains("guard_src"));
        assert!(!m.locks.contains("plain"));
    }

    #[test]
    fn calls_include_turbofish_and_qualified_paths() {
        let m = model(
            "fn f(s: &S) {\n    s.load_value::<u64>(&key());\n    Helper::build(1);\n    not_a_macro!(x);\n}\n",
        );
        let names: Vec<&str> = m.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["load_value", "key", "build"]);
    }

    #[test]
    fn trait_fn_declarations_have_no_body() {
        let m = model("trait T { fn must(&self); fn given(&self) { self.must(); } }\n");
        assert_eq!(m.fns[0].name, "must");
        assert!(m.fns[0].body.is_none());
        assert!(m.fns[1].body.is_some());
    }
}
