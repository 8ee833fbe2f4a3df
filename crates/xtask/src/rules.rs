//! The rule engine: project-specific determinism & durability rules over
//! the token stream of one file.
//!
//! Every rule is **crate-scoped**: the workspace policy table below maps
//! each crate to the invariants it must uphold.  The deterministic crates
//! (`core`, `consensus`, `fd`, `sim`, `replication`) carry the paper's
//! reproducibility obligations — the seeded sim-vs-socket lock-step
//! equivalence suite is only sound if no wall clock, ambient entropy or
//! unordered-map iteration leaks into them.  The storage barrier rules
//! protect the log-before-send discipline of `StagedStorage::run_step`,
//! and the zero-copy rule guards the PR 4 payload-copy win.
//!
//! Violations are suppressible only by a same-line comment
//! `// xlint:allow(<rule>) — <reason>`; every suppression is inventoried
//! in the lint report so exceptions stay visible.

use crate::lexer::{lex, TokKind, Token};

/// Rules in their reporting order.
pub const RULES: [(&str, &str); 7] = [
    (
        "D1",
        "no wall-clock or ambient entropy (Instant, SystemTime, thread_rng, from_entropy, \
         rand::random) in deterministic crates — take time and randomness from the runtime",
    ),
    (
        "D2",
        "no HashMap/HashSet in deterministic crates — unordered iteration breaks seeded \
         reproducibility; use BTreeMap/BTreeSet or a justified allow",
    ),
    (
        "B1",
        "no direct durability calls (sync_data, sync_all, fsync, File::create) outside \
         crates/storage — all barriers go through StableStorage/WriteBatch",
    ),
    (
        "B2",
        "no raw channel sends and no direct commit_batch in protocol crates — one barrier \
         per handler step, messages released only after the commit (run_step)",
    ),
    (
        "Z1",
        "no .to_vec()/Vec::from on payload paths in net/storage/core — zero-copy \
         regression guard (Bytes views stay refcounted end to end)",
    ),
    (
        "P1",
        "no unwrap/expect/panic!/unreachable!/todo! in net::tcp / net::poll connection \
         handling — a torn peer must map to counted fair-lossy loss, never a crash",
    ),
    (
        "S1",
        "every #[allow(...)] needs a trailing `// lint: <reason>`, and every xlint:allow \
         suppression needs a rule id and a reason",
    ),
];

/// Rule ids owned by `cargo xtask analyze` (the semantic pass).  They
/// share the `xlint:allow` suppression syntax and the S1 hygiene checks
/// with the lexical rules above, but each tool inventories only its own
/// family so an allow is "unused" only to the tool that could use it.
pub(crate) const ANALYZE_RULE_IDS: [&str; 3] = ["L1", "K1", "V1"];

/// `true` when `name` is a rule id either tool can suppress.
pub(crate) fn known_rule(name: &str) -> bool {
    RULES.iter().any(|(rule, _)| *rule == name) || ANALYZE_RULE_IDS.contains(&name)
}

/// Crates whose protocol/simulator state must evolve deterministically.
const DETERMINISTIC_CRATES: [&str; 5] = ["core", "consensus", "fd", "sim", "replication"];

/// Crates holding protocol handlers that run under the `run_step` barrier.
pub(crate) const PROTOCOL_CRATES: [&str; 4] = ["core", "consensus", "fd", "replication"];

/// Crates on the zero-copy payload path.
const ZERO_COPY_CRATES: [&str; 3] = ["net", "storage", "core"];

/// Receiver identifiers through which sends are *allowed* in protocol
/// crates: the actor-context idiom, whose buffered sends `run_step`
/// releases only after the step's single storage commit.
const CONTEXT_RECEIVERS: [&str; 3] = ["ctx", "context", "step"];

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
    /// Tests, benches, examples: only the suppression hygiene rule.
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

/// The owning crate when `rel_path` is crate source (the population the
/// semantic analyzer models); `None` for tests, fixtures and shims.
pub(crate) fn src_crate(rel_path: &str) -> Option<String> {
    match classify(rel_path) {
        FileScope::Src { krate } => Some(krate),
        _ => None,
    }
}

fn rule_applies(rule: &str, scope: &FileScope, rel_path: &str) -> bool {
    let krate = match scope {
        FileScope::Excluded => return false,
        FileScope::TestLike => return rule == "S1",
        FileScope::Src { krate } => krate.as_str(),
    };
    match rule {
        "D1" => DETERMINISTIC_CRATES.contains(&krate),
        // xtask opts into D2 as well: the linter's own reports must be
        // deterministically ordered.
        "D2" => DETERMINISTIC_CRATES.contains(&krate) || krate == "xtask",
        "B1" => krate != "storage",
        "B2" => PROTOCOL_CRATES.contains(&krate),
        "Z1" => ZERO_COPY_CRATES.contains(&krate),
        "P1" => krate == "net" && (rel_path.ends_with("/tcp.rs") || rel_path.ends_with("/poll.rs")),
        "S1" => true,
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

pub(crate) struct ParsedAllow {
    pub(crate) rule: String,
    pub(crate) reason: String,
    pub(crate) line: u32,
}

/// Extracts every `xlint:allow(<rule>) — <reason>` from the file's line
/// comments.  A reason may be separated by an em dash, hyphen or colon.
/// Only comments that *begin* with the marker count — suppressions are
/// trailing comments on the offending line, so prose and doc comments
/// (whose text starts with `/` or `!`) that merely mention the syntax are
/// never parsed as suppressions.
pub(crate) fn parse_allows(comments: &[(u32, String)]) -> Vec<ParsedAllow> {
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
/// `mod tests { … }` block).  Test code legitimately unwraps, measures wall
/// time and copies buffers; only suppression hygiene (S1) applies there.
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

fn ident_at(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

fn punct_at(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

/// `.name(` — a method call on some receiver.
fn method_call_at(tokens: &[Token], i: usize, name: &str) -> bool {
    punct_at(tokens, i, ".") && ident_at(tokens, i + 1, name) && punct_at(tokens, i + 2, "(")
}

fn scan_rules(
    tokens: &[Token],
    mask: &[bool],
    active: &[&'static str],
    comments: &[(u32, String)],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let on = |rule: &str| active.contains(&rule);

    for i in 0..tokens.len() {
        let in_test = mask[i];
        let t = &tokens[i];
        let line = t.line;

        // --- S1: #[allow(...)] needs a same-line `// lint: <reason>`.  This
        // is the one rule that also covers test code: allows hide warnings
        // wherever they appear.
        if on("S1")
            && t.text == "#"
            && {
                let mut j = i + 1;
                if punct_at(tokens, j, "!") {
                    j += 1;
                }
                punct_at(tokens, j, "[") && ident_at(tokens, j + 1, "allow")
            }
            && !has_lint_reason(comments, line)
        {
            findings.push(Finding {
                rule: "S1",
                line,
                message: "#[allow(...)] without a trailing `// lint: <reason>` justification"
                    .to_string(),
            });
        }

        if in_test || (t.kind != TokKind::Ident && t.kind != TokKind::Punct) {
            continue;
        }

        // --- D1: wall clock / ambient entropy.
        if on("D1") && t.kind == TokKind::Ident {
            let bad = match t.text.as_str() {
                "Instant" | "SystemTime" => Some(format!(
                    "std::time::{} reads the wall clock; deterministic crates take time from \
                     the runtime (ctx.now() / SimTime)",
                    t.text
                )),
                "thread_rng" | "from_entropy" => Some(format!(
                    "{} draws ambient entropy; deterministic crates take randomness from the \
                     runtime (ctx.random_u64() / seeded StdRng)",
                    t.text
                )),
                _ => None,
            };
            if let Some(message) = bad {
                findings.push(Finding {
                    rule: "D1",
                    line,
                    message,
                });
            }
            if t.text == "rand"
                && punct_at(tokens, i + 1, "::")
                && ident_at(tokens, i + 2, "random")
            {
                findings.push(Finding {
                    rule: "D1",
                    line,
                    message: "rand::random draws ambient entropy; use the runtime's seeded rng"
                        .to_string(),
                });
            }
        }

        // --- D2: unordered collections.
        if on("D2")
            && t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
        {
            findings.push(Finding {
                rule: "D2",
                line,
                message: format!(
                    "{} iterates in arbitrary order and breaks seeded reproducibility; use \
                     BTreeMap/BTreeSet (or justify with xlint:allow)",
                    t.text
                ),
            });
        }

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
            if t.text == "File" && punct_at(tokens, i + 1, "::") && ident_at(tokens, i + 2, "create")
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

        // --- B2: log-before-send.
        if on("B2") {
            if method_call_at(tokens, i, "commit_batch") {
                findings.push(Finding {
                    rule: "B2",
                    line,
                    message: "direct commit_batch in a protocol crate: the single per-step \
                              barrier belongs to run_step/StepContext::finish"
                        .to_string(),
                });
            }
            if (method_call_at(tokens, i, "send") || method_call_at(tokens, i, "multisend"))
                && !receiver_is_context(tokens, i)
            {
                findings.push(Finding {
                    rule: "B2",
                    line,
                    message: "raw send in a protocol crate bypasses run_step's \
                              commit-before-send ordering; send through the ActorContext"
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

/// For `.send(` at token index `i` (the `.`), `true` when the receiver is
/// one of the blessed ActorContext identifiers.
fn receiver_is_context(tokens: &[Token], i: usize) -> bool {
    i > 0
        && tokens[i - 1].kind == TokKind::Ident
        && CONTEXT_RECEIVERS.contains(&tokens[i - 1].text.as_str())
}

/// `true` when a comment on `line` carries a standalone `lint:` marker
/// (an `xlint:` prefix does not count).
fn has_lint_reason(comments: &[(u32, String)], line: u32) -> bool {
    comments.iter().any(|(l, text)| {
        *l == line
            && text.match_indices("lint:").any(|(at, _)| {
                let reason = text[at + "lint:".len()..].trim();
                let standalone = at == 0
                    || !text[..at]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric());
                standalone && !reason.is_empty()
            })
    })
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
        .iter()
        .map(|(rule, _)| *rule)
        .filter(|rule| rule_applies(rule, &scope, rel_path))
        .collect();
    if active.is_empty() {
        return FileOutcome::default();
    }

    let lexed = lex(src);
    let mask = test_mask(&lexed.tokens);
    let findings = scan_rules(&lexed.tokens, &mask, &active, &lexed.comments);
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

    // Suppression hygiene: unknown rule ids and missing reasons are S1
    // violations — a suppression that cannot suppress anything is a typo
    // waiting to hide a real finding.
    for allow in &allows {
        if !known_rule(&allow.rule) {
            outcome.violations.push(Violation {
                rule: "S1",
                path: rel_path.to_string(),
                line: allow.line,
                message: format!(
                    "xlint:allow({}) names no known rule (known: D1 D2 B1 B2 Z1 P1 S1 \
                     L1 K1 V1)",
                    allow.rule
                ),
            });
        } else if allow.reason.is_empty() {
            outcome.violations.push(Violation {
                rule: "S1",
                path: rel_path.to_string(),
                line: allow.line,
                message: format!(
                    "xlint:allow({}) without a reason — write `// xlint:allow({}) — <why>`",
                    allow.rule, allow.rule
                ),
            });
        }
    }

    // Inventory only the lexical family: allows for the analyze rules
    // (L1/K1/V1) are inventoried by `cargo xtask analyze`, and counting
    // them here would make --deny-unused-allows flag every one as unused.
    for (idx, allow) in allows.into_iter().enumerate() {
        if !RULES.iter().any(|(rule, _)| *rule == allow.rule) {
            continue;
        }
        outcome.suppressions.push(Suppression {
            rule: allow.rule,
            path: rel_path.to_string(),
            line: allow.line,
            reason: allow.reason,
            used: used[idx],
        });
    }
    outcome
}
