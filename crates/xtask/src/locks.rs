//! L1: no `Mutex`/`RwLock` guard is held across blocking I/O.
//!
//! A guard held across `sync_data`, `write_all`, `connect`, `recv`, … —
//! directly or through any function the call graph reaches — serialises
//! every other user of that lock behind the device or the peer.  The WAL's
//! writers, its compactor and the poller share locks, so one such hold
//! stalls the whole write path for the duration of an fsync or a rewrite.
//! Each blocking call under a hold is its own finding.
//!
//! The holds come from the per-file item model ([`crate::model`]) and the
//! transitive reach from the workspace call graph ([`crate::graph`]).

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{FnNode, Workspace};
use crate::lexer::{ident_at, matching_close, plain_ident, punct_at, TokKind, Token};
use crate::model::FileModel;

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

/// One L1 finding: index of the file in the workspace, line, message.
pub struct LockFinding {
    pub file: usize,
    pub line: u32,
    pub message: String,
}

/// One tracked lock-hold region inside a function body.
struct Hold {
    lock: String,
    line: u32,
    /// Token index of the acquiring `lock`/`read`/`write` ident.
    start: usize,
    /// Last token index at which the guard is still alive.
    release: usize,
}

/// Every blocking call made under a held lock in the modelled workspace,
/// one finding per line, in file order.
pub fn held_across_blocking(ws: &Workspace) -> Vec<LockFinding> {
    // The first direct blocking call in each production body.
    let mut blocking: BTreeMap<FnNode, String> = BTreeMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (ni, f) in file.fns.iter().enumerate() {
            let Some((open, close)) = f.body.filter(|_| !f.in_test) else {
                continue;
            };
            let first = (open..=close.min(file.tokens.len().saturating_sub(1)))
                .find(|&t| !file.mask[t] && is_blocking_call(&file.tokens, t));
            if let Some(t) = first {
                blocking.insert((fi, ni), file.tokens[t].text.clone());
            }
        }
    }
    // The first blocking call reachable from `node` (its own first),
    // described.
    let mut reach_memo: BTreeMap<FnNode, Option<String>> = BTreeMap::new();
    let mut reaches = |node: FnNode| -> Option<String> {
        reach_memo
            .entry(node)
            .or_insert_with(|| {
                let own = std::iter::once(node);
                own.chain(ws.callee_closure(node)).find_map(|n| {
                    blocking
                        .get(&n)
                        .map(|what| format!("{what} in {}", ws.describe(n)))
                })
            })
            .clone()
    };

    // Every blocking site under every hold, so an allow covers exactly the
    // call it sits on and a new blocking call under an allowed hold is
    // still a finding.
    let mut findings: Vec<LockFinding> = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for f in &file.fns {
            let Some(body) = f.body.filter(|_| !f.in_test) else {
                continue;
            };
            for hold in compute_holds(file, body) {
                let held = hold.start + 1..=hold.release.min(file.tokens.len() - 1);
                for t in held.clone().filter(|&t| is_blocking_call(&file.tokens, t)) {
                    findings.push(LockFinding {
                        file: fi,
                        line: file.tokens[t].line,
                        message: format!(
                            "lock `{}` (acquired line {}) is held across blocking `{}` — every \
                             other user of the lock now waits on the device",
                            hold.lock, hold.line, file.tokens[t].text
                        ),
                    });
                }
                for call in f.calls.iter().filter(|call| held.contains(&call.tok)) {
                    if let Some(what) = ws.resolve(fi, call).into_iter().find_map(&mut reaches) {
                        findings.push(LockFinding {
                            file: fi,
                            line: call.line,
                            message: format!(
                                "lock `{}` (acquired line {}) is held across `{}`, which \
                                 reaches blocking {}",
                                hold.lock, hold.line, call.name, what
                            ),
                        });
                    }
                }
            }
        }
    }
    // One finding per line: nested holds and a direct call that is also a
    // resolved call site would otherwise repeat it.
    let mut seen = BTreeSet::new();
    findings.retain(|f| seen.insert((f.file, f.line)));
    findings
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
    for (t, tok) in tokens.iter().enumerate().take(close + 1).skip(from + 1) {
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
        if file.mask[i] {
            continue;
        }
        let Some(recv) = i.checked_sub(2).and_then(|r| plain_ident(tokens, r)) else {
            continue;
        };
        if !file.locks.contains(&recv.text) {
            continue;
        }
        // Ride out guard adapters: `.lock().unwrap_or_else(…)` etc.
        let mut chain_end = matching_close(tokens, i + 1);
        loop {
            if punct_at(tokens, chain_end + 1, ".")
                && plain_ident(tokens, chain_end + 2)
                    .is_some_and(|t| GUARD_ADAPTERS.contains(&t.text.as_str()))
                && punct_at(tokens, chain_end + 3, "(")
            {
                chain_end = matching_close(tokens, chain_end + 3);
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
                    let scope_close = matching_close(tokens, enclose[stmt - open]).min(close);
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
