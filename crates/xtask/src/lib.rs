//! `xtask`: workspace developer tooling — the linter behind
//! `cargo xtask lint` and the line counter behind `cargo xtask loc`.
//!
//! The linter is a dependency-free pass over every workspace `.rs` file
//! (shims and lint fixtures excluded).  It tokenizes each file with a
//! small hand-rolled lexer, so strings and comments never match, and
//! enforces the one rule no test can replace, **B1** ([`rules`]): no
//! direct fsync or `File::create` outside `crates/storage`.  README
//! "Static analysis" records the mutation audit behind that choice.  The
//! rule has no exceptions and no allow syntax.

pub mod lexer;
pub mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{lint_source, Violation};

/// The whole-workspace lint result.
#[derive(Debug, Default)]
pub struct LintReport {
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
}

impl LintReport {
    /// `true` when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable summary: one line per violation, then a total.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!("{}:{} [B1] {}\n", v.path, v.line, v.message));
        }
        out.push_str(&format!(
            "xlint: {} file(s) scanned, {} violation(s)\n",
            self.files_scanned,
            self.violations.len(),
        ));
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
    for rel in files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if rules::is_excluded(&rel_str) {
            continue;
        }
        let src = fs::read_to_string(root.join(&rel))?;
        report.files_scanned += 1;
        report.violations.extend(lint_source(&rel_str, &src));
    }
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
    let tokens = lexer::lex(src);
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
