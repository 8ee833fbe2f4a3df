//! `xtask`: workspace developer tooling — the linter behind
//! `cargo xtask lint` and the line counter behind `cargo xtask loc`.
//!
//! The linter is a dependency-free static-analysis pass over every
//! workspace `.rs` file (shims and lint fixtures excluded).  It tokenizes
//! each file with a small hand-rolled lexer and enforces the rules that
//! no test replaces (README "Static analysis" records the mutation audit
//! behind that list):
//!
//! * the lexical rules in [`rules::RULES`], matched per file on the
//!   token stream;
//! * **L1** ([`locks`]) — no lock held across blocking I/O, found over a
//!   per-file item model ([`model`]) and a cross-file call graph
//!   ([`graph`]).
//!
//! Deliberate exceptions carry a `// xlint:allow(<rule>) — <reason>` on
//! the offending line (for L1 also on the line directly above).  Every
//! allow must suppress a finding: one whose rule never fires on its line,
//! that names no rule, or that gives no reason is itself a violation.

pub mod graph;
pub mod lexer;
pub mod locks;
pub mod model;
pub mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{lint_source, FileOutcome, Suppression, Violation};

/// The whole-workspace lint result.
#[derive(Debug, Default)]
pub struct LintReport {
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
    pub suppressions: Vec<Suppression>,
}

impl LintReport {
    /// `true` when the tree is clean (suppressed findings do not count).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable summary: one line per violation, then the
    /// suppression inventory.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{} [{}] {}\n",
                v.path, v.line, v.rule, v.message
            ));
        }
        out.push_str(&format!(
            "xlint: {} file(s) scanned, {} violation(s), {} suppression(s)\n",
            self.files_scanned,
            self.violations.len(),
            self.suppressions.len(),
        ));
        for s in &self.suppressions {
            out.push_str(&format!(
                "  allow {} at {}:{} — {}\n",
                s.rule, s.path, s.line, s.reason
            ));
        }
        out
    }
}

/// Lints every workspace `.rs` file under `root` and aggregates the
/// outcome.  Files are visited in sorted path order, so reports are
/// deterministic.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut report = LintReport::default();
    let mut models = Vec::new();
    for rel in files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if rules::is_excluded(&rel_str) {
            continue;
        }
        let src = fs::read_to_string(root.join(&rel))?;
        report.files_scanned += 1;
        let outcome = lint_source(&rel_str, &src);
        report.violations.extend(outcome.violations);
        report.suppressions.extend(outcome.suppressions);
        // L1 models crate sources only: tests are not lock surface.
        if rules::src_crate(&rel_str).is_some() {
            models.push(model::FileModel::build(&rel_str, &src));
        }
    }

    let ws = graph::Workspace::build(models);
    for finding in locks::held_across_blocking(&ws) {
        let path = &ws.files[finding.file].path;
        // L1 findings anchor at expression sites where a trailing comment
        // is often unreadable, so the allow may also sit on its own line
        // immediately above.
        let allow = report.suppressions.iter_mut().find(|s| {
            s.rule == "L1"
                && !s.reason.is_empty()
                && s.path == *path
                && (s.line == finding.line || s.line + 1 == finding.line)
        });
        match allow {
            Some(allow) => allow.used = true,
            None => report.violations.push(Violation {
                rule: "L1",
                path: path.clone(),
                line: finding.line,
                message: finding.message,
            }),
        }
    }

    // A stale allow is a hole a future regression walks through silently.
    for s in report.suppressions.iter().filter(|s| !s.used) {
        report.violations.push(Violation {
            rule: "S1",
            path: s.path.clone(),
            line: s.line,
            message: format!(
                "xlint:allow({}) suppresses nothing on this line — a known rule id, a reason \
                 and a finding of that rule are all required; remove or fix the allow",
                s.rule
            ),
        });
    }
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

/// Counts the tracked size: non-test, non-comment, non-blank Rust lines
/// in `crates/`, `src/` and `examples/`, keyed by crate (`root` for
/// `src/`, `examples` for `examples/`).  `tests/` directories and
/// `#[cfg(test)]` items are test code and not counted.  The repository
/// benchmark's `benchmark/src` is counted the same way under
/// [`BENCHMARK_ROW`], which is not part of the tracked total.
pub fn count_loc(root: &Path) -> io::Result<BTreeMap<String, usize>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    let mut counts = BTreeMap::new();
    for rel in files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let parts: Vec<&str> = rel_str.split('/').collect();
        let owner = match parts.as_slice() {
            ["examples", ..] => "examples".to_string(),
            ["benchmark", "src", ..] => BENCHMARK_ROW.to_string(),
            _ => match rules::src_crate(&rel_str) {
                Some(krate) => krate,
                None => continue,
            },
        };
        let src = fs::read_to_string(root.join(&rel))?;
        *counts.entry(owner).or_insert(0) += loc_of_source(&src);
    }
    Ok(counts)
}

/// The [`count_loc`] row of `benchmark/src`, reported beside the tracked
/// total rather than in it.
pub const BENCHMARK_ROW: &str = "benchmark";

/// Lines of `src` on which a token outside `#[cfg(test)]` items starts or
/// which a multi-line literal outside them spans.
pub fn loc_of_source(src: &str) -> usize {
    let tokens = lexer::lex(src).tokens;
    let mask = rules::test_mask(&tokens);
    let mut lines = BTreeSet::new();
    for (token, in_test) in tokens.iter().zip(mask) {
        if !in_test {
            let spanned = token.text.matches('\n').count() as u32;
            lines.extend(token.line..=token.line + spanned);
        }
    }
    lines.len()
}

/// Recursively collects `.rs` files, storing paths relative to `root`.
/// Directories the lint never reads are pruned here (and re-checked in
/// [`rules::is_excluded`], so direct `lint_source` callers agree).
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "shims" | "node_modules") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// the workspace; falls back to `start` when none is found.
pub fn find_workspace_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}
