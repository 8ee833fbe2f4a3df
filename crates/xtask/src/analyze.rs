//! `cargo xtask analyze` — the semantic rule families over the item model
//! and workspace graph:
//!
//! * **L1 lock-order analysis** — builds the acquisition graph over every
//!   modelled `Mutex`/`RwLock` (fields, statics, locals): a cycle is a
//!   potential deadlock, re-acquiring a held lock is a certain one, and a
//!   lock held across blocking I/O (`sync_data`, `write_all_vectored`,
//!   `connect`, …) serialises every other user of that lock behind the
//!   device — each is a finding at the offending acquisition or call.
//! * **K1 storage-key lifecycle audit** — collects every `StorageKey`
//!   constructor in `crates/storage/src/keys.rs` plus every
//!   `keys::<ctor>(…)` use site workspace-wide and checks the lifecycle:
//!   a key never used is an orphan; a key persisted but never read on a
//!   recovery path (`on_start`/`recover*`/`*replay*`) is state lost to
//!   the next crash (the PR 7 forget-floor class); a key read but never
//!   written can only yield `None`; two constructors whose patterns
//!   unify, or one key used as both slot and log, collide in the store;
//!   and the markdown key table at the top of `keys.rs` must list exactly
//!   the constructors the module defines.
//! * **V1 volatile-twin checker** — a protocol-crate field annotated
//!   `// xanalyze:twin(<ctor>)` must persist its storage twin in the same
//!   step as every mutation: the mutating function, one of its callees or
//!   one of its callers must write `keys::<ctor>(…)`, unless the function
//!   is itself on a recovery path (restoring *from* storage).
//!
//! Findings flow through the same `xlint:allow(<RULE>) — <reason>`
//! suppression machinery as the lexical linter; each tool inventories only
//! its own rule family.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{FnNode, Workspace};
use crate::lexer::{TokKind, Token};
use crate::model::{matching_brace, FileModel};
use crate::rules::{
    known_rule, parse_allows, Suppression, Violation, ANALYZE_RULE_IDS, PROTOCOL_CRATES,
};

/// The analyze-family rule catalogue, in reporting order.
pub const ANALYZE_RULES: [(&str, &str); 4] = [
    (
        "L1",
        "lock-order analysis: cycles in the Mutex/RwLock acquisition graph are potential \
         deadlocks, a lock re-acquired while held is a certain one, and no lock may be held \
         across blocking I/O (sync_data, write_all_vectored, connect, …)",
    ),
    (
        "K1",
        "storage-key lifecycle: every constructor in crates/storage/src/keys.rs must be used, \
         persisted state must be read back on a recovery path (on_start/recover*/replay), \
         reads need a matching write, key patterns must not unify or mix slot and log use, \
         and the module's key table must match the code",
    ),
    (
        "V1",
        "volatile-twin: a protocol-crate field annotated xanalyze:twin(<ctor>) must persist \
         its storage twin in the same step as every mutation (the mutating fn, a callee or a \
         caller writes keys::<ctor>), unless the mutation is itself a recovery restore",
    ),
    (
        "S1",
        "suppression hygiene: xlint:allow needs a known rule id and a reason; with \
         --deny-unused-allows an allow whose rule never fires on its line is itself a finding",
    ),
];

/// One analyze finding, pre-suppression.
struct Finding {
    rule: &'static str,
    file: usize,
    line: u32,
    message: String,
}

/// Runs every analyze rule over the modelled workspace and applies the
/// suppression machinery.  Returns the surviving violations plus the
/// analyze-family suppression inventory.
pub fn analyze(ws: &Workspace) -> (Vec<Violation>, Vec<Suppression>) {
    let uses = collect_key_uses(ws);
    let mut findings = Vec::new();
    findings.extend(lock_rules(ws));
    findings.extend(key_rules(ws, &uses));
    findings.extend(twin_rules(ws, &uses));
    // Dedup (loops can re-report one site) and order by source position.
    let mut seen = BTreeSet::new();
    findings.retain(|f| seen.insert((f.file, f.line, f.rule, f.message.clone())));
    findings.sort_by(|a, b| {
        (&ws.files[a.file].path, a.line, a.rule)
            .cmp(&(&ws.files[b.file].path, b.line, b.rule))
    });
    apply_suppressions(ws, findings)
}

fn apply_suppressions(ws: &Workspace, findings: Vec<Finding>) -> (Vec<Violation>, Vec<Suppression>) {
    let allows: Vec<Vec<crate::rules::ParsedAllow>> = ws
        .files
        .iter()
        .map(|f| parse_allows(&f.comments))
        .collect();
    let mut used: Vec<Vec<bool>> = allows.iter().map(|a| vec![false; a.len()]).collect();
    let mut violations = Vec::new();

    for finding in findings {
        // Semantic findings anchor at expression sites where a trailing
        // comment is often unreadable, so unlike the lexical linter an
        // allow may also sit on its own line immediately above.
        let hit = allows[finding.file].iter().position(|a| {
            (a.line == finding.line || a.line + 1 == finding.line)
                && a.rule == finding.rule
                && !a.reason.is_empty()
        });
        match hit {
            Some(idx) => used[finding.file][idx] = true,
            None => violations.push(Violation {
                rule: finding.rule,
                path: ws.files[finding.file].path.clone(),
                line: finding.line,
                message: finding.message,
            }),
        }
    }

    // Hygiene for the analyze family (the lexical linter covers its own):
    // unknown rule ids anywhere, and missing reasons on analyze allows.
    let mut suppressions = Vec::new();
    for (fi, file_allows) in allows.into_iter().enumerate() {
        let path = &ws.files[fi].path;
        for (idx, allow) in file_allows.into_iter().enumerate() {
            if !known_rule(&allow.rule) {
                violations.push(Violation {
                    rule: "S1",
                    path: path.clone(),
                    line: allow.line,
                    message: format!(
                        "xlint:allow({}) names no known rule (known: D1 D2 B1 B2 Z1 P1 S1 \
                         L1 K1 V1)",
                        allow.rule
                    ),
                });
                continue;
            }
            if !ANALYZE_RULE_IDS.contains(&allow.rule.as_str()) {
                continue;
            }
            if allow.reason.is_empty() {
                violations.push(Violation {
                    rule: "S1",
                    path: path.clone(),
                    line: allow.line,
                    message: format!(
                        "xlint:allow({}) without a reason — write `// xlint:allow({}) — <why>`",
                        allow.rule, allow.rule
                    ),
                });
            }
            suppressions.push(Suppression {
                rule: allow.rule,
                path: path.clone(),
                line: allow.line,
                reason: allow.reason,
                used: used[fi][idx],
            });
        }
    }
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    (violations, suppressions)
}

// ---------------------------------------------------------------------------
// Shared token helpers
// ---------------------------------------------------------------------------

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

fn plain_ident(tokens: &[Token], i: usize) -> Option<&Token> {
    tokens.get(i).filter(|t| t.kind == TokKind::Ident)
}

/// Index of the `)` matching the `(` at `open`; saturates at EOF.
fn matching_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// First token index of the statement containing `i` (the token after the
/// previous `;`, `{` or `}`), bounded below by `floor`.
fn statement_start(tokens: &[Token], i: usize, floor: usize) -> usize {
    let mut s = i;
    while s > floor {
        let prev = &tokens[s - 1];
        if prev.kind == TokKind::Punct && matches!(prev.text.as_str(), ";" | "{" | "}") {
            break;
        }
        s -= 1;
    }
    s
}

/// End of the statement continuing after token `from`: the next `;` at
/// bracket depth zero, or the `}` that closes the surrounding block.
fn statement_end(tokens: &[Token], from: usize, close: usize) -> usize {
    let mut depth = 0i32;
    for (t, tok) in tokens
        .iter()
        .enumerate()
        .take(close + 1)
        .skip(from + 1)
    {
        if tok.kind != TokKind::Punct {
            continue;
        }
        match tok.text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth < 0 {
                    return t;
                }
            }
            ";" if depth <= 0 => return t,
            _ => {}
        }
    }
    close
}

// ---------------------------------------------------------------------------
// L1 — lock-order analysis
// ---------------------------------------------------------------------------

/// Direct calls that park the thread on a device or peer.  Transitive
/// blocking through helpers is propagated over the call graph.
const BLOCKING_CALLS: [&str; 17] = [
    "sync_data",
    "sync_all",
    "fsync",
    "write_all_vectored",
    "write_vectored",
    "write_all",
    "connect",
    "accept",
    "read_exact",
    "read_to_end",
    "recv",
    "recv_timeout",
    "sleep",
    "join",
    "wait",
    "park",
    "epoll_wait",
];

/// Guard adapters that keep the acquisition expression going
/// (`.lock().unwrap_or_else(PoisonError::into_inner)` and friends).
const GUARD_ADAPTERS: [&str; 3] = ["unwrap", "expect", "unwrap_or_else"];

/// One tracked lock-hold region inside a function body.
struct Hold {
    lock: String,
    line: u32,
    /// Token index of the acquiring `lock`/`read`/`write` ident.
    start: usize,
    /// Last token index at which the guard is still alive.
    release: usize,
}

/// Per-function facts feeding the cross-function propagation.
#[derive(Default)]
struct FnFacts {
    /// Locks acquired anywhere in the body.
    acquires: BTreeSet<String>,
    /// First direct blocking call in the body, if any: `(name, line)`.
    blocking: Option<(String, u32)>,
}

fn lock_rules(ws: &Workspace) -> Vec<Finding> {
    // Pass 1: per-function holds and facts.
    let mut holds: BTreeMap<FnNode, Vec<Hold>> = BTreeMap::new();
    let mut facts: BTreeMap<FnNode, FnFacts> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (ni, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let Some(body) = f.body else { continue };
            let fn_holds = compute_holds(file, body);
            let mut fact = FnFacts {
                acquires: fn_holds.iter().map(|h| h.lock.clone()).collect(),
                blocking: None,
            };
            for t in body.0..=body.1.min(file.tokens.len().saturating_sub(1)) {
                if file.mask.get(t).copied().unwrap_or(false) {
                    continue;
                }
                if is_blocking_call(&file.tokens, t) {
                    fact.blocking = Some((file.tokens[t].text.clone(), file.tokens[t].line));
                    break;
                }
            }
            holds.insert((fi, ni), fn_holds);
            facts.insert((fi, ni), fact);
        }
    }

    // Transitive facts over the call graph, memoized per node.
    let mut trans_memo: BTreeMap<FnNode, (BTreeSet<String>, Option<String>)> = BTreeMap::new();
    let mut trans = |node: FnNode, ws: &Workspace| -> (BTreeSet<String>, Option<String>) {
        if let Some(hit) = trans_memo.get(&node) {
            return hit.clone();
        }
        let mut acquires = BTreeSet::new();
        let mut blocking = None;
        for n in ws.callee_closure(node) {
            if let Some(fact) = facts.get(&n) {
                acquires.extend(fact.acquires.iter().cloned());
                if blocking.is_none() {
                    if let Some((what, _)) = &fact.blocking {
                        blocking = Some(format!("{} in {}", what, ws.describe(n)));
                    }
                }
            }
        }
        trans_memo.insert(node, (acquires.clone(), blocking.clone()));
        (acquires, blocking)
    };

    // Pass 2: findings at each hold, plus the global acquisition graph.
    let mut findings = Vec::new();
    let mut edges: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();
    for (&(fi, ni), fn_holds) in &holds {
        let file = &ws.files[fi];
        let f = &file.fns[ni];
        for hold in fn_holds {
            // Nested direct acquisitions while held.
            for other in fn_holds {
                if other.start > hold.start && other.start <= hold.release {
                    if other.lock == hold.lock {
                        findings.push(Finding {
                            rule: "L1",
                            file: fi,
                            line: other.line,
                            message: format!(
                                "lock `{}` (held since line {}) is acquired again here — \
                                 Mutex/RwLock are not reentrant, this self-deadlocks",
                                hold.lock, hold.line
                            ),
                        });
                    } else {
                        edges
                            .entry((hold.lock.clone(), other.lock.clone()))
                            .or_insert((fi, other.line));
                    }
                }
            }
            // Blocking while held: report the first offending site per
            // hold (one finding per design decision, not per call site).
            let mut block_events: Vec<(usize, Finding)> = Vec::new();
            for t in hold.start + 1..=hold.release.min(file.tokens.len().saturating_sub(1)) {
                if is_blocking_call(&file.tokens, t) {
                    block_events.push((
                        t,
                        Finding {
                            rule: "L1",
                            file: fi,
                            line: file.tokens[t].line,
                            message: format!(
                                "lock `{}` (acquired line {}) is held across blocking `{}` — \
                                 every other user of the lock now waits on the device",
                                hold.lock, hold.line, file.tokens[t].text
                            ),
                        },
                    ));
                }
            }
            // Calls while held: propagate acquisitions and blocking.
            for call in &f.calls {
                if call.tok <= hold.start || call.tok > hold.release {
                    continue;
                }
                for target in ws.resolve(fi, call) {
                    let (acquires, blocking) = trans(target, ws);
                    for other in &acquires {
                        if *other == hold.lock {
                            findings.push(Finding {
                                rule: "L1",
                                file: fi,
                                line: call.line,
                                message: format!(
                                    "lock `{}` (held since line {}) is re-acquired inside \
                                     `{}` called here — self-deadlock",
                                    hold.lock, hold.line, call.name
                                ),
                            });
                        } else {
                            edges
                                .entry((hold.lock.clone(), other.clone()))
                                .or_insert((fi, call.line));
                        }
                    }
                    if let Some(what) = &blocking {
                        block_events.push((
                            call.tok,
                            Finding {
                                rule: "L1",
                                file: fi,
                                line: call.line,
                                message: format!(
                                    "lock `{}` (acquired line {}) is held across `{}`, which \
                                     reaches blocking {}",
                                    hold.lock, hold.line, call.name, what
                                ),
                            },
                        ));
                    }
                }
            }
            if let Some((_, finding)) = block_events.into_iter().min_by_key(|(t, _)| *t) {
                findings.push(finding);
            }
        }
    }

    findings.extend(report_cycles(ws, &edges));
    findings
}

/// `.name(` or `Path::name(` where `name` parks the thread.  `join` only
/// counts in its zero-argument thread form — `Path::join(component)`
/// takes an argument and is pure.
fn is_blocking_call(tokens: &[Token], t: usize) -> bool {
    tokens[t].kind == TokKind::Ident
        && BLOCKING_CALLS.contains(&tokens[t].text.as_str())
        && punct_at(tokens, t + 1, "(")
        && (tokens[t].text != "join" || punct_at(tokens, t + 2, ")"))
        && t > 0
        && tokens[t - 1].kind == TokKind::Punct
        && matches!(tokens[t - 1].text.as_str(), "." | "::")
}

/// Finds every lock acquisition in the body and how long its guard lives.
fn compute_holds(file: &FileModel, body: (usize, usize)) -> Vec<Hold> {
    let (open, close) = body;
    let tokens = &file.tokens;
    let close = close.min(tokens.len().saturating_sub(1));
    // Innermost enclosing `{` for every body token, for guard scopes.
    let mut enclose = vec![open; close + 1 - open];
    let mut stack = vec![open];
    for t in open..=close {
        if punct_at(tokens, t, "{") {
            stack.push(t);
        }
        enclose[t - open] = *stack.last().unwrap_or(&open);
        if punct_at(tokens, t, "}") {
            stack.pop();
            if stack.is_empty() {
                stack.push(open);
            }
        }
    }

    let mut holds = Vec::new();
    for i in open..close {
        if !(tokens[i].kind == TokKind::Ident
            && matches!(tokens[i].text.as_str(), "lock" | "read" | "write")
            && punct_at(tokens, i + 1, "(")
            && punct_at(tokens, i + 2, ")")
            && punct_at(tokens, i.wrapping_sub(1), "."))
        {
            continue;
        }
        if file.mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let Some(recv) = i.checked_sub(2).and_then(|r| plain_ident(tokens, r)) else {
            continue;
        };
        if !file.locks.contains(&recv.text) {
            continue;
        }
        // Ride out guard adapters: `.lock().unwrap_or_else(…)` etc.
        let mut chain_end = matching_paren(tokens, i + 1);
        loop {
            if punct_at(tokens, chain_end + 1, ".")
                && plain_ident(tokens, chain_end + 2)
                    .is_some_and(|t| GUARD_ADAPTERS.contains(&t.text.as_str()))
                && punct_at(tokens, chain_end + 3, "(")
            {
                chain_end = matching_paren(tokens, chain_end + 3);
            } else {
                break;
            }
        }
        let stmt = statement_start(tokens, i, open);
        // A `let` binds the guard only when the lock chain IS the whole
        // initializer (`let g = self.x.lock();`); when the lock expression
        // is nested deeper (`let v = mem::take(&mut *self.x.lock());`)
        // the guard is a temporary that dies with the statement.
        let binds_whole_initializer = punct_at(tokens, chain_end + 1, ";");
        let release = if ident_at(tokens, stmt, "let") && binds_whole_initializer {
            let mut n = stmt + 1;
            if ident_at(tokens, n, "mut") {
                n += 1;
            }
            match plain_ident(tokens, n) {
                // `let _ = …` drops the guard at the end of the statement.
                Some(binding) if binding.text != "_" => {
                    let name = binding.text.clone();
                    let scope_close = matching_brace(tokens, enclose[stmt - open]).min(close);
                    let mut release = scope_close;
                    for t in chain_end + 1..scope_close {
                        if ident_at(tokens, t, "drop")
                            && punct_at(tokens, t + 1, "(")
                            && ident_at(tokens, t + 2, &name)
                            && punct_at(tokens, t + 3, ")")
                        {
                            release = t + 3;
                            break;
                        }
                    }
                    release
                }
                _ => statement_end(tokens, chain_end, close),
            }
        } else {
            // A temporary guard lives to the end of its statement.
            statement_end(tokens, chain_end, close)
        };
        holds.push(Hold {
            lock: format!("{}::{}", file.stem(), recv.text),
            line: tokens[i].line,
            start: i,
            release,
        });
    }
    holds
}

/// Detects cycles in the acquisition graph and reports each once, at its
/// lexicographically first edge site.
fn report_cycles(
    ws: &Workspace,
    edges: &BTreeMap<(String, String), (usize, u32)>,
) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
    }
    let mut findings = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((a, b), &(file, line)) in edges {
        // A cycle through this edge exists iff `b` reaches `a`.
        let Some(path) = bfs_path(&adj, b.as_str(), a.as_str()) else {
            continue;
        };
        // Cycle nodes in order: a → b → … → a (`path` runs from b's
        // successors through a, so drop its final `a` and keep the rest).
        let mut cycle: Vec<String> = Vec::with_capacity(path.len() + 1);
        cycle.push(a.clone());
        cycle.push(b.clone());
        cycle.extend(
            path.iter()
                .take(path.len().saturating_sub(1))
                .map(|s| s.to_string()),
        );
        // Canonical rotation so each cycle is reported exactly once.
        let min_at = cycle
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.as_str())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut canonical = cycle.clone();
        canonical.rotate_left(min_at);
        if !reported.insert(canonical) {
            continue;
        }
        let mut route = cycle.join(" → ");
        route.push_str(" → ");
        route.push_str(&cycle[0]);
        let mut sites = Vec::new();
        for w in 0..cycle.len() {
            let from = &cycle[w];
            let to = &cycle[(w + 1) % cycle.len()];
            if let Some((sf, sl)) = edges.get(&(from.clone(), to.clone())) {
                sites.push(format!("{}→{} at {}:{}", from, to, ws.files[*sf].path, sl));
            }
        }
        findings.push(Finding {
            rule: "L1",
            file,
            line,
            message: format!(
                "lock-order cycle (potential deadlock): {} ({})",
                route,
                sites.join(", ")
            ),
        });
    }
    findings
}

/// Shortest path `from → to` (inclusive of both ends, excluding `from`
/// itself in the returned list); deterministic over the BTree ordering.
fn bfs_path<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    let mut seen: BTreeSet<&str> = BTreeSet::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(&p) = parent.get(cur) {
                path.push(p);
                cur = p;
            }
            path.pop(); // drop `from`
            path.reverse();
            return Some(path);
        }
        for next in adj.get(n).into_iter().flatten() {
            if seen.insert(next) {
                parent.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// K1 — storage-key lifecycle
// ---------------------------------------------------------------------------

/// One segment of a key pattern; `Wild` covers `{k}` format holes and
/// `<k>` doc-table placeholders.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Seg {
    Lit(String),
    Wild,
}

fn parse_segments(pattern: &str) -> Vec<Seg> {
    pattern
        .split('/')
        .map(|s| {
            if s.contains('{') || s.starts_with('<') {
                Seg::Wild
            } else {
                Seg::Lit(s.to_string())
            }
        })
        .collect()
}

fn render_segments(segs: &[Seg]) -> String {
    segs.iter()
        .map(|s| match s {
            Seg::Lit(text) => text.as_str(),
            Seg::Wild => "<k>",
        })
        .collect::<Vec<_>>()
        .join("/")
}

/// `true` when two whole keys can name the same record: equal length and
/// every position unifies.  A wildcard stands for a formatted round
/// number, so it unifies with another wildcard or an all-digit literal.
fn unifies(a: &[Seg], b: &[Seg]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Seg::Lit(l), Seg::Lit(r)) => l == r,
            (Seg::Wild, Seg::Wild) => true,
            (Seg::Wild, Seg::Lit(l)) | (Seg::Lit(l), Seg::Wild) => {
                !l.is_empty() && l.bytes().all(|c| c.is_ascii_digit())
            }
        })
}

/// One key constructor defined in `keys.rs`.
struct KeyCtor {
    name: String,
    line: u32,
    segs: Vec<Seg>,
}

/// How one use site touches a key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpClass {
    SlotWrite,
    SlotRead,
    LogWrite,
    LogRead,
    Remove,
    /// Passed somewhere the classifier cannot see through (e.g. a
    /// logger's constructor): exempts the key from lifecycle claims.
    Opaque,
}

fn classify_op(name: &str) -> Option<OpClass> {
    match name {
        "store" | "store_payload" | "store_value" => Some(OpClass::SlotWrite),
        "load" | "load_value" => Some(OpClass::SlotRead),
        "append" | "append_payload" | "append_value" => Some(OpClass::LogWrite),
        "load_log" | "load_log_values" => Some(OpClass::LogRead),
        "remove" => Some(OpClass::Remove),
        _ => None,
    }
}

/// One `keys::<ctor>(…)` use site.
struct KeyUse {
    ctor: String,
    class: OpClass,
    file: usize,
    line: u32,
    node: Option<FnNode>,
}

/// The keys module, if the workspace has one.
fn keys_file(ws: &Workspace) -> Option<usize> {
    ws.files
        .iter()
        .position(|f| f.krate == "storage" && f.path.ends_with("src/keys.rs"))
}

/// Every constructor in the keys module: a non-test fn whose body builds
/// a `StorageKey::new(<literal or format literal>)`.
fn collect_ctors(ws: &Workspace) -> Vec<KeyCtor> {
    let Some(kf) = keys_file(ws) else {
        return Vec::new();
    };
    let file = &ws.files[kf];
    let mut ctors = Vec::new();
    for f in &file.fns {
        if f.in_test {
            continue;
        }
        let Some((open, close)) = f.body else { continue };
        for i in open..close.min(file.tokens.len().saturating_sub(1)) {
            if !(ident_at(&file.tokens, i, "StorageKey")
                && punct_at(&file.tokens, i + 1, "::")
                && ident_at(&file.tokens, i + 2, "new")
                && punct_at(&file.tokens, i + 3, "("))
            {
                continue;
            }
            let end = matching_paren(&file.tokens, i + 3);
            if let Some(lit) = file.tokens[i + 4..end.max(i + 4)]
                .iter()
                .find(|t| t.kind == TokKind::Literal)
            {
                ctors.push(KeyCtor {
                    name: f.name.clone(),
                    line: f.line,
                    segs: parse_segments(&lit.text),
                });
            }
            break;
        }
    }
    ctors
}

/// Every production `keys::<name>(…)` site workspace-wide, classified by
/// the storage verb the key flows into within the same statement.
fn collect_key_uses(ws: &Workspace) -> Vec<KeyUse> {
    let mut uses = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for i in 0..file.tokens.len() {
            if !(ident_at(&file.tokens, i, "keys")
                && punct_at(&file.tokens, i + 1, "::")
                && plain_ident(&file.tokens, i + 2).is_some()
                && punct_at(&file.tokens, i + 3, "("))
            {
                continue;
            }
            if file.mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            let ctor = file.tokens[i + 2].text.clone();
            let stmt = statement_start(&file.tokens, i, 0);
            let mut class = OpClass::Opaque;
            for t in (stmt..i).rev() {
                let tok = &file.tokens[t];
                if tok.kind != TokKind::Ident {
                    continue;
                }
                let call_shaped = punct_at(&file.tokens, t + 1, "(")
                    || (punct_at(&file.tokens, t + 1, "::") && punct_at(&file.tokens, t + 2, "<"));
                if !call_shaped {
                    continue;
                }
                if let Some(found) = classify_op(&tok.text) {
                    class = found;
                    break;
                }
            }
            uses.push(KeyUse {
                ctor,
                class,
                file: fi,
                line: file.tokens[i].line,
                node: file.enclosing_fn(i).map(|ni| (fi, ni)),
            });
        }
    }
    uses
}

fn key_rules(ws: &Workspace, uses: &[KeyUse]) -> Vec<Finding> {
    let Some(kf) = keys_file(ws) else {
        return Vec::new();
    };
    let ctors = collect_ctors(ws);
    let mut findings = Vec::new();

    // Doc-table drift, both directions.
    let table = parse_key_table(&ws.files[kf].comments);
    for (line, raw, segs) in &table {
        if !ctors.iter().any(|c| c.segs == *segs) {
            findings.push(Finding {
                rule: "K1",
                file: kf,
                line: *line,
                message: format!(
                    "the key table lists `{}` but keys.rs defines no constructor for it — \
                     remove the stale row or add the constructor",
                    raw
                ),
            });
        }
    }
    for ctor in &ctors {
        if !table.iter().any(|(_, _, segs)| *segs == ctor.segs) {
            findings.push(Finding {
                rule: "K1",
                file: kf,
                line: ctor.line,
                message: format!(
                    "constructor `{}` builds `{}` but the key table at the top of keys.rs \
                     does not list it",
                    ctor.name,
                    render_segments(&ctor.segs)
                ),
            });
        }
    }

    // Pattern collisions: two constructors that can name the same record.
    for (i, a) in ctors.iter().enumerate() {
        for b in ctors.iter().skip(i + 1) {
            if unifies(&a.segs, &b.segs) {
                findings.push(Finding {
                    rule: "K1",
                    file: kf,
                    line: a.line.max(b.line),
                    message: format!(
                        "key patterns `{}` ({}) and `{}` ({}) can name the same record — \
                         records will silently overwrite each other",
                        render_segments(&a.segs),
                        a.name,
                        render_segments(&b.segs),
                        b.name
                    ),
                });
            }
        }
    }

    // Lifecycle per constructor.
    let recovery = ws.recovery_reachable();
    for ctor in &ctors {
        let key_uses: Vec<&KeyUse> = uses.iter().filter(|u| u.ctor == ctor.name).collect();
        if key_uses.is_empty() {
            findings.push(Finding {
                rule: "K1",
                file: kf,
                line: ctor.line,
                message: format!(
                    "key `{}` (keys::{}) is constructed but never used anywhere in the \
                     workspace — dead storage vocabulary",
                    render_segments(&ctor.segs),
                    ctor.name
                ),
            });
            continue;
        }
        if key_uses.iter().any(|u| u.class == OpClass::Opaque) {
            // The key escapes into code the classifier cannot follow; no
            // lifecycle claim is sound.
            continue;
        }
        let writes: Vec<&&KeyUse> = key_uses
            .iter()
            .filter(|u| matches!(u.class, OpClass::SlotWrite | OpClass::LogWrite))
            .collect();
        let reads: Vec<&&KeyUse> = key_uses
            .iter()
            .filter(|u| matches!(u.class, OpClass::SlotRead | OpClass::LogRead))
            .collect();
        if !writes.is_empty() {
            let restored = reads
                .iter()
                .any(|u| u.node.is_some_and(|n| recovery.contains(&n)));
            if !restored {
                let w = writes[0];
                findings.push(Finding {
                    rule: "K1",
                    file: w.file,
                    line: w.line,
                    message: format!(
                        "keys::{} is persisted here but no recovery path \
                         (on_start/recover*/replay) ever reads it back — this durable state \
                         is lost to the next crash{}",
                        ctor.name,
                        if reads.is_empty() {
                            ""
                        } else {
                            " (its only reads are outside recovery)"
                        }
                    ),
                });
            }
        } else if !reads.is_empty() {
            let r = reads[0];
            findings.push(Finding {
                rule: "K1",
                file: r.file,
                line: r.line,
                message: format!(
                    "keys::{} is read here but never persisted anywhere — the read can only \
                     ever observe an absent record",
                    ctor.name
                ),
            });
        }
        let slotty = key_uses
            .iter()
            .any(|u| matches!(u.class, OpClass::SlotWrite | OpClass::SlotRead));
        let loggy: Option<&&KeyUse> = key_uses
            .iter()
            .find(|u| matches!(u.class, OpClass::LogWrite | OpClass::LogRead));
        if let (true, Some(l)) = (slotty, loggy) {
            findings.push(Finding {
                rule: "K1",
                file: l.file,
                line: l.line,
                message: format!(
                    "keys::{} is used both as a slot (store/load) and as a log \
                     (append/load_log) — the two namespaces collide on one key",
                    ctor.name
                ),
            });
        }
    }
    findings
}

/// Rows of the markdown key table in the module doc comment: lines shaped
/// `//! | `<key>` | … |`.  Returns `(line, raw key, parsed segments)`.
fn parse_key_table(comments: &[(u32, String)]) -> Vec<(u32, String, Vec<Seg>)> {
    let mut rows = Vec::new();
    for (line, text) in comments {
        let t = text.trim_start_matches('!').trim();
        if !t.starts_with('|') {
            continue;
        }
        let Some(open) = t.find('`') else { continue };
        let rest = &t[open + 1..];
        let Some(close) = rest.find('`') else { continue };
        let raw = &rest[..close];
        if !raw.contains('/') {
            continue;
        }
        rows.push((*line, raw.to_string(), parse_segments(raw)));
    }
    rows
}

// ---------------------------------------------------------------------------
// V1 — volatile-twin checker
// ---------------------------------------------------------------------------

/// Methods that mutate a field in place.
const MUTATING_METHODS: [&str; 13] = [
    "insert", "remove", "push", "pop", "clear", "retain", "extend", "append", "drain", "take",
    "replace", "push_back", "pop_front",
];

fn twin_rules(ws: &Workspace, uses: &[KeyUse]) -> Vec<Finding> {
    let ctors = collect_ctors(ws);
    let have_keys_file = keys_file(ws).is_some();

    // Which functions write (or remove) / read which key, from the
    // classified use sites.
    let mut writers: BTreeMap<&str, BTreeSet<FnNode>> = BTreeMap::new();
    let mut readers: BTreeMap<&str, BTreeSet<FnNode>> = BTreeMap::new();
    for u in uses {
        let Some(node) = u.node else { continue };
        match u.class {
            OpClass::SlotWrite | OpClass::LogWrite | OpClass::Remove => {
                writers.entry(u.ctor.as_str()).or_default().insert(node);
            }
            OpClass::SlotRead | OpClass::LogRead => {
                readers.entry(u.ctor.as_str()).or_default().insert(node);
            }
            OpClass::Opaque => {}
        }
    }

    let mut findings = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !PROTOCOL_CRATES.contains(&file.krate.as_str()) {
            continue;
        }
        for field in &file.fields {
            let Some(twin) = &field.twin else { continue };
            if have_keys_file && !ctors.iter().any(|c| &c.name == twin) {
                findings.push(Finding {
                    rule: "V1",
                    file: fi,
                    line: field.line,
                    message: format!(
                        "xanalyze:twin({}) names no key constructor in \
                         crates/storage/src/keys.rs",
                        twin
                    ),
                });
                continue;
            }
            let twin_writers = writers.get(twin.as_str());
            let twin_readers = readers.get(twin.as_str());
            for (ni, f) in file.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let Some(body) = f.body else { continue };
                let node = (fi, ni);
                for line in find_mutations(file, body, &field.name) {
                    // A restore: a recovery root by name, or a function
                    // that itself reads the twin back from storage.
                    // (Deliberately NOT graph reachability from recovery
                    // roots — the sparse graph over-approximates it, and
                    // an over-wide exemption would hide exactly the
                    // forgotten-write bugs this rule exists to catch.)
                    let restoring = crate::graph::is_recovery_name(&f.name)
                        || twin_readers.is_some_and(|r| r.contains(&node));
                    if restoring {
                        continue;
                    }
                    let on_write_path = twin_writers.is_some_and(|w| {
                        w.contains(&node)
                            || ws.callee_closure(node).iter().any(|n| w.contains(n))
                            || ws.caller_closure(node).iter().any(|n| w.contains(n))
                    });
                    if !on_write_path {
                        findings.push(Finding {
                            rule: "V1",
                            file: fi,
                            line,
                            message: format!(
                                "volatile field `{}.{}` is mutated here but nothing on this \
                                 step's path (this fn, its callees or its callers) writes its \
                                 storage twin keys::{} — the field silently diverges from \
                                 durable state after a crash",
                                field.struct_name, field.name, twin
                            ),
                        });
                    }
                }
            }
        }
    }
    findings
}

/// Source lines inside `body` where `<recv>.<field>` is assigned,
/// compound-assigned or mutated through a mutating method.
fn find_mutations(file: &FileModel, body: (usize, usize), field: &str) -> Vec<u32> {
    let tokens = &file.tokens;
    let (open, close) = body;
    let mut lines = Vec::new();
    for i in open..=close.min(tokens.len().saturating_sub(1)) {
        if !(ident_at(tokens, i, field)
            && punct_at(tokens, i.wrapping_sub(1), ".")
            && i >= 2
            && plain_ident(tokens, i - 2).is_some())
        {
            continue;
        }
        if file.mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        let assigned = punct_at(tokens, i + 1, "=") && !punct_at(tokens, i + 2, "=");
        let compound = tokens.get(i + 1).is_some_and(|t| {
            t.kind == TokKind::Punct
                && matches!(t.text.as_str(), "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^")
        }) && punct_at(tokens, i + 2, "=")
            && !punct_at(tokens, i + 3, "=");
        let mutated_via_method = punct_at(tokens, i + 1, ".")
            && plain_ident(tokens, i + 2)
                .is_some_and(|t| MUTATING_METHODS.contains(&t.text.as_str()))
            && punct_at(tokens, i + 3, "(");
        if assigned || compound || mutated_via_method {
            lines.push(tokens[i].line);
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_parse_and_unify() {
        let promised = parse_segments("consensus/{k}/promised");
        let table = parse_segments("consensus/<k>/promised");
        let floor = parse_segments("consensus/floor");
        let literal_round = parse_segments("consensus/7/promised");
        assert_eq!(promised, table);
        assert!(unifies(&promised, &table));
        assert!(unifies(&promised, &literal_round));
        assert!(!unifies(&promised, &floor));
        assert!(!unifies(
            &parse_segments("abcast/agreed"),
            &parse_segments("abcast/agreed/delta")
        ));
        assert_eq!(render_segments(&promised), "consensus/<k>/promised");
    }

    #[test]
    fn key_table_rows_parse_from_doc_comments() {
        let comments = vec![
            (9, "! | Key | Kind | Written by |".to_string()),
            (10, "! |-----|------|-----------|".to_string()),
            (11, "! | `abcast/agreed` | slot | checkpoint |".to_string()),
            (12, "! | `consensus/<k>/promised` | slot | acceptor |".to_string()),
            (20, " not a table row".to_string()),
        ];
        let rows = parse_key_table(&comments);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1, "abcast/agreed");
        assert_eq!(rows[1].2, parse_segments("consensus/{k}/promised"));
    }

    #[test]
    fn op_classification_covers_the_storage_vocabulary() {
        assert_eq!(classify_op("store_value"), Some(OpClass::SlotWrite));
        assert_eq!(classify_op("load"), Some(OpClass::SlotRead));
        assert_eq!(classify_op("append_payload"), Some(OpClass::LogWrite));
        assert_eq!(classify_op("load_log_values"), Some(OpClass::LogRead));
        assert_eq!(classify_op("remove"), Some(OpClass::Remove));
        assert_eq!(classify_op("new"), None);
    }
}
