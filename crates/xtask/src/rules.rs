//! Rule **B1**, matched per file on the token stream: no direct
//! durability call (`sync_data`, `sync_all`, `fsync`, `File::create`) in
//! crate sources outside `crates/storage`.  Durability barriers are the
//! paper's cost unit, so every barrier goes through
//! `StableStorage`/`WriteBatch`, where it is counted; no test can count
//! an fsync paid anywhere else.

use crate::lexer::{ident_at, lex, punct_at, TokKind, Token};

/// One B1 violation.
#[derive(Clone, Debug)]
pub struct Violation {
    pub path: String,
    pub line: u32,
    pub message: String,
}

/// `true` for paths the sweep never reads (mirrored by the walker, and
/// applied again here so `lint_source` callers get the same policy).
pub fn is_excluded(rel_path: &str) -> bool {
    let p = rel_path.trim_start_matches("./");
    p.starts_with("target/")
        || p.starts_with("shims/")
        || p.starts_with(".git/")
        || p.starts_with("crates/xtask/tests/fixtures/")
}

/// The owning crate when `rel_path` is crate source (`root` for the
/// workspace-root package's `src/`); `None` for tests, examples,
/// fixtures and shims.
pub(crate) fn src_crate(rel_path: &str) -> Option<String> {
    let p = rel_path.trim_start_matches("./");
    if is_excluded(p) {
        return None;
    }
    if let Some(rest) = p.strip_prefix("crates/") {
        let (krate, tail) = rest.split_once('/')?;
        return tail.starts_with("src/").then(|| krate.to_string());
    }
    p.starts_with("src/").then(|| "root".to_string())
}

// ---------------------------------------------------------------------------
// Test-region masking
// ---------------------------------------------------------------------------

/// Marks every token inside a `#[cfg(test)]` item (almost always a
/// `mod tests { … }` block).  Test code legitimately syncs files; the
/// rule does not apply there, and `cargo xtask loc` does not count it.
pub(crate) fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(after_attr) = match_cfg_test_attr(tokens, i) {
            let start = i;
            let mut j = after_attr;
            // Skip any further attributes between #[cfg(test)] and the item.
            while tokens.get(j).map(|t| t.text.as_str()) == Some("#") {
                j = skip_attr(tokens, j);
            }
            // Consume the item: to its `;`, or through its `{ … }` block.
            let mut depth = 0usize;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "{" => depth += 1,
                    // A `}` at depth 0 closes the enclosing scope: the item
                    // (a last field, say) ended before it.
                    "}" if depth == 0 => break,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            for m in mask.iter_mut().take(j).skip(start) {
                *m = true;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    mask
}

/// If tokens at `i` start a `#[cfg(… test …)]` attribute, returns the index
/// just past its closing `]`.
fn match_cfg_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens.get(i)?.text != "#" || tokens.get(i + 1)?.text != "[" {
        return None;
    }
    if tokens.get(i + 2)?.text != "cfg" {
        return None;
    }
    let end = skip_attr(tokens, i);
    let has_test = tokens[i..end]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "test");
    has_test.then_some(end)
}

/// Skips one `#[ … ]` or `#![ … ]` attribute starting at the `#`; returns
/// the index just past the closing `]`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if tokens.get(j).map(|t| t.text.as_str()) == Some("!") {
        j += 1;
    }
    if tokens.get(j).map(|t| t.text.as_str()) != Some("[") {
        return i + 1;
    }
    let mut depth = 0usize;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Lints one file's source as if it lived at `rel_path` (workspace-relative,
/// forward slashes).  Pure: the fixture tests drive it directly.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Violation> {
    if src_crate(rel_path).is_none_or(|krate| krate == "storage") {
        return Vec::new();
    }
    let tokens = lex(src);
    let mask = test_mask(&tokens);
    let mut violations = Vec::new();
    let mut flag = |line: u32, message: String| {
        violations.push(Violation {
            path: rel_path.to_string(),
            line,
            message,
        });
    };
    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if matches!(t.text.as_str(), "sync_data" | "sync_all" | "fsync") {
            flag(
                t.line,
                format!(
                    "direct {} outside crates/storage bypasses the StableStorage barrier \
                     accounting (one barrier per run_step)",
                    t.text
                ),
            );
        }
        if t.text == "File" && punct_at(&tokens, i + 1, "::") && ident_at(&tokens, i + 2, "create")
        {
            flag(
                t.line,
                "File::create outside crates/storage: durable state goes through \
                 StableStorage/WriteBatch"
                    .to_string(),
            );
        }
    }
    violations
}
