//! `xtask`: workspace developer tooling — the determinism & durability
//! linter behind `cargo xtask lint`, the semantic analyzer behind
//! `cargo xtask analyze`, and the line counter behind `cargo xtask loc`.
//!
//! The linter is a dependency-free static-analysis pass over every
//! workspace `.rs` file (shims and lint fixtures excluded).  It tokenizes
//! each file with a small hand-rolled lexer and enforces the
//! project-specific rules catalogued in [`rules::RULES`]:
//!
//! * **D1/D2** — determinism: no wall clock, ambient entropy or unordered
//!   maps in the crates the seeded simulation / lock-step equivalence
//!   tests depend on;
//! * **B1/B2** — the paper's log-before-send barrier discipline: all
//!   durability flows through `crates/storage`, and protocol handlers pay
//!   exactly one barrier per step via `run_step`;
//! * **Z1** — zero-copy payload regression guard;
//! * **P1** — `net::tcp` connection handling maps faults to counted
//!   fair-lossy loss instead of panicking;
//! * **S1** — suppression hygiene.
//!
//! Deliberate exceptions carry a same-line
//! `// xlint:allow(<rule>) — <reason>`; the report inventories every one.
//!
//! On top of the same lexer, `cargo xtask analyze` builds a per-file item
//! model ([`model`]) and a cross-file call graph ([`graph`]) and runs the
//! semantic rule families catalogued in [`analyze::ANALYZE_RULES`]:
//! **L1** lock-order/deadlock analysis, **K1** storage-key lifecycle
//! audit, **V1** volatile-twin persistence checking.

pub mod analyze;
pub mod graph;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use analyze::ANALYZE_RULES;
pub use report::LintReport;
pub use rules::{lint_source, FileOutcome, Suppression, Violation};

/// Lints every workspace `.rs` file under `root` and aggregates the
/// outcome.  Files are visited in sorted path order, so reports are
/// deterministic.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut lint = LintReport::default();
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if rules::is_excluded(&rel_str) {
            continue;
        }
        lint.files_scanned += 1;
        let outcome = lint_source(&rel_str, &src);
        lint.violations.extend(outcome.violations);
        lint.suppressions.extend(outcome.suppressions);
    }
    Ok(lint)
}

/// Runs the semantic analyzer over every workspace crate-source file
/// under `root`.  Only `src/` files are modelled (tests and fixtures are
/// neither lock nor recovery surface); `files_scanned` counts the
/// modelled population.
pub fn analyze_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut models = Vec::new();
    for rel in files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        if rules::is_excluded(&rel_str) {
            continue;
        }
        let Some(krate) = rules::src_crate(&rel_str) else {
            continue;
        };
        let src = fs::read_to_string(root.join(&rel))?;
        models.push(model::FileModel::build(&rel_str, &krate, &src));
    }
    let ws = graph::Workspace::build(models);
    let (violations, suppressions) = analyze::analyze(&ws);
    Ok(LintReport {
        files_scanned: ws.files.len(),
        violations,
        suppressions,
        rules: &analyze::ANALYZE_RULES,
    })
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
