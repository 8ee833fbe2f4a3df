//! The lexical rules: project-specific rules over the token stream of one
//! file, for defects no test observes.
//!
//! Every rule is **crate-scoped**: the workspace policy below maps each
//! crate to the invariants it must uphold.
//!
//! Violations are suppressible only by a same-line comment
//! `// xlint:allow(<rule>) — <reason>`; every suppression is inventoried
//! in the lint report so exceptions stay visible.

use crate::lexer::{ident_at, lex, punct_at, TokKind, Token};

/// The lexical rules, in reporting order:
///
/// * **B1** — no direct durability call (`sync_data`, `sync_all`,
///   `fsync`, `File::create`) outside `crates/storage`: every barrier
///   goes through `StableStorage`/`WriteBatch`, where it is counted;
/// * **Z1** — no `.to_vec()`/`Vec::from(` in `net`, `storage` and `core`:
///   payload `Bytes` views stay refcounted end to end;
/// * **P1** — no `unwrap`/`expect`/`panic!` family in `net::tcp` and
///   `net::poll` connection handling: a torn peer must map to counted
///   fair-lossy loss, never to a dead thread.
pub const RULES: [&str; 3] = ["B1", "Z1", "P1"];

/// Crates on the zero-copy payload path.
const ZERO_COPY_CRATES: [&str; 3] = ["net", "storage", "core"];

/// One rule violation.
#[derive(Clone, Debug)]
pub struct Violation {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
}

/// One `xlint:allow` suppression found in the tree.
#[derive(Clone, Debug)]
pub struct Suppression {
    pub rule: String,
    pub path: String,
    pub line: u32,
    pub reason: String,
    pub used: bool,
}

/// The outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    pub violations: Vec<Violation>,
    pub suppressions: Vec<Suppression>,
}

/// How a file participates in the lint, derived from its workspace path.
#[derive(Clone, Debug, PartialEq, Eq)]
enum FileScope {
    /// Library/binary source of the named crate: full policy applies.
    Src { krate: String },
    /// Tests, benches, examples: no rule, but allows are inventoried.
    TestLike,
    /// Shims, fixtures, build products: not linted at all.
    Excluded,
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

fn classify(rel_path: &str) -> FileScope {
    let p = rel_path.trim_start_matches("./");
    if is_excluded(p) {
        return FileScope::Excluded;
    }
    if let Some(rest) = p.strip_prefix("crates/") {
        let mut parts = rest.splitn(2, '/');
        let krate = parts.next().unwrap_or("");
        let tail = parts.next().unwrap_or("");
        if tail.starts_with("src/") {
            return FileScope::Src {
                krate: krate.to_string(),
            };
        }
        return FileScope::TestLike;
    }
    if p.starts_with("src/") {
        // The workspace-root facade package.
        return FileScope::Src {
            krate: "root".to_string(),
        };
    }
    // Root tests/, examples/, benches/ and any stray top-level .rs file.
    FileScope::TestLike
}

/// The owning crate when `rel_path` is crate source (the population L1
/// models); `None` for tests, fixtures and shims.
pub(crate) fn src_crate(rel_path: &str) -> Option<String> {
    match classify(rel_path) {
        FileScope::Src { krate } => Some(krate),
        _ => None,
    }
}

fn rule_applies(rule: &str, scope: &FileScope, rel_path: &str) -> bool {
    let FileScope::Src { krate } = scope else {
        return false;
    };
    match rule {
        "B1" => krate != "storage",
        "Z1" => ZERO_COPY_CRATES.contains(&krate.as_str()),
        "P1" => krate == "net" && (rel_path.ends_with("/tcp.rs") || rel_path.ends_with("/poll.rs")),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

struct ParsedAllow {
    rule: String,
    reason: String,
    line: u32,
}

/// Extracts every `xlint:allow(<rule>) — <reason>` from the file's line
/// comments.  A reason may be separated by an em dash, hyphen or colon.
/// Only comments that *begin* with the marker count — suppressions are
/// trailing comments on the offending line, so prose and doc comments
/// (whose text starts with `/` or `!`) that merely mention the syntax are
/// never parsed as suppressions.
fn parse_allows(comments: &[(u32, String)]) -> Vec<ParsedAllow> {
    let mut allows = Vec::new();
    for (line, text) in comments {
        if !text.trim_start().starts_with("xlint:allow(") {
            continue;
        }
        let mut rest = text.as_str();
        while let Some(at) = rest.find("xlint:allow(") {
            let after = &rest[at + "xlint:allow(".len()..];
            let Some(close) = after.find(')') else {
                allows.push(ParsedAllow {
                    rule: String::new(),
                    reason: String::new(),
                    line: *line,
                });
                break;
            };
            let rule = after[..close].trim().to_string();
            let tail = &after[close + 1..];
            // The reason for *this* allow ends where the next allow begins.
            let end = tail.find("xlint:allow(").unwrap_or(tail.len());
            let reason = tail[..end]
                .trim_start_matches(|c: char| {
                    c.is_whitespace() || c == '—' || c == '–' || c == '-' || c == ':'
                })
                .trim()
                .to_string();
            allows.push(ParsedAllow {
                rule,
                reason,
                line: *line,
            });
            rest = &after[close + 1 + end..];
        }
    }
    allows
}

// ---------------------------------------------------------------------------
// Test-region masking
// ---------------------------------------------------------------------------

/// Marks every token inside a `#[cfg(test)]` item (almost always a
/// `mod tests { … }` block).  Test code legitimately unwraps, syncs files
/// and copies buffers; no rule applies there.
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
                    "}" => {
                        depth = depth.saturating_sub(1);
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
// Pattern matching
// ---------------------------------------------------------------------------

struct Finding {
    rule: &'static str,
    line: u32,
    message: String,
}

/// `.name(` — a method call on some receiver.
fn method_call_at(tokens: &[Token], i: usize, name: &str) -> bool {
    punct_at(tokens, i, ".") && ident_at(tokens, i + 1, name) && punct_at(tokens, i + 2, "(")
}

fn scan_rules(tokens: &[Token], mask: &[bool], active: &[&'static str]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let on = |rule: &str| active.contains(&rule);

    for (i, t) in tokens.iter().enumerate() {
        if mask[i] || (t.kind != TokKind::Ident && t.kind != TokKind::Punct) {
            continue;
        }
        let line = t.line;

        // --- B1: durability barriers outside crates/storage.
        if on("B1") && t.kind == TokKind::Ident {
            if matches!(t.text.as_str(), "sync_data" | "sync_all" | "fsync") {
                findings.push(Finding {
                    rule: "B1",
                    line,
                    message: format!(
                        "direct {} outside crates/storage bypasses the StableStorage barrier \
                         accounting (one barrier per run_step)",
                        t.text
                    ),
                });
            }
            if t.text == "File"
                && punct_at(tokens, i + 1, "::")
                && ident_at(tokens, i + 2, "create")
            {
                findings.push(Finding {
                    rule: "B1",
                    line,
                    message: "File::create outside crates/storage: durable state goes through \
                              StableStorage/WriteBatch"
                        .to_string(),
                });
            }
        }

        // --- Z1: zero-copy payload path.
        if on("Z1") {
            if method_call_at(tokens, i, "to_vec") {
                findings.push(Finding {
                    rule: "Z1",
                    line,
                    message: ".to_vec() copies the payload; Bytes views are refcounted — \
                              slice/clone the view instead (or justify with xlint:allow)"
                        .to_string(),
                });
            }
            if ident_at(tokens, i, "Vec")
                && punct_at(tokens, i + 1, "::")
                && ident_at(tokens, i + 2, "from")
                && punct_at(tokens, i + 3, "(")
            {
                findings.push(Finding {
                    rule: "Z1",
                    line,
                    message: "Vec::from copies the payload; keep the Bytes view".to_string(),
                });
            }
        }

        // --- P1: no panics in connection handling.
        if on("P1") {
            if method_call_at(tokens, i, "unwrap") || method_call_at(tokens, i, "expect") {
                findings.push(Finding {
                    rule: "P1",
                    line,
                    message: format!(
                        ".{}() in connection handling: a torn peer must become a counted \
                         fair-lossy drop, never a crash",
                        tokens[i + 1].text
                    ),
                });
            }
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && punct_at(tokens, i + 1, "!")
            {
                findings.push(Finding {
                    rule: "P1",
                    line,
                    message: format!(
                        "{}! in connection handling: map the failure to TcpMetrics \
                         drop/torn counters instead",
                        t.text
                    ),
                });
            }
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Lints one file's source as if it lived at `rel_path` (workspace-relative,
/// forward slashes).  Pure: the fixture tests drive it directly.
pub fn lint_source(rel_path: &str, src: &str) -> FileOutcome {
    let scope = classify(rel_path);
    if scope == FileScope::Excluded {
        return FileOutcome::default();
    }
    let active: Vec<&'static str> = RULES
        .into_iter()
        .filter(|rule| rule_applies(rule, &scope, rel_path))
        .collect();

    let lexed = lex(src);
    let mask = test_mask(&lexed.tokens);
    let findings = scan_rules(&lexed.tokens, &mask, &active);
    let allows = parse_allows(&lexed.comments);

    let mut outcome = FileOutcome::default();
    let mut used = vec![false; allows.len()];

    for finding in findings {
        let suppressed = allows.iter().enumerate().find(|(_, a)| {
            a.line == finding.line && a.rule == finding.rule && !a.reason.is_empty()
        });
        if let Some((idx, _)) = suppressed {
            used[idx] = true;
        } else {
            outcome.violations.push(Violation {
                rule: finding.rule,
                path: rel_path.to_string(),
                line: finding.line,
                message: finding.message,
            });
        }
    }

    // Every allow is inventoried, whatever it names: one that names no
    // rule, gives no reason or (for L1, which the workspace pass applies)
    // matches no finding stays unused, and unused allows are violations.
    for (allow, used) in allows.into_iter().zip(used) {
        outcome.suppressions.push(Suppression {
            rule: allow.rule,
            path: rel_path.to_string(),
            line: allow.line,
            reason: allow.reason,
            used,
        });
    }
    outcome
}
