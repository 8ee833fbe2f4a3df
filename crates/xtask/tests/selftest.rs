//! The linter must accept its own source: `crates/xtask/src` is linted
//! with the same workspace policy it enforces on everyone else (S1
//! everywhere, plus D2/B1 — the linter opts into determinism and
//! barrier discipline for its own code).  The semantic analyzer holds
//! itself to the same standard, and the line counter is pinned on a
//! fixture.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn the_linter_accepts_its_own_source() {
    let report = xtask::lint_workspace(&workspace_root()).expect("workspace scan");
    let own: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.path.starts_with("crates/xtask/"))
        .collect();
    assert!(own.is_empty(), "the linter flags its own source: {own:#?}");
}

#[test]
fn the_analyzer_accepts_its_own_source() {
    let report = xtask::analyze_workspace(&workspace_root()).expect("workspace scan");
    assert!(report.files_scanned > 0, "the analyzer modelled no files");
    let own: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.path.starts_with("crates/xtask/"))
        .collect();
    assert!(own.is_empty(), "the analyzer flags its own source: {own:#?}");
}

#[test]
fn loc_counts_code_lines_outside_comments_and_test_modules() {
    let src = include_str!("fixtures/loc_mixed.rs");
    let marked = src.lines().filter(|l| l.ends_with("// +")).count();
    assert_eq!(marked, 6);
    assert_eq!(xtask::loc_of_source(src), marked);
}

#[test]
fn loc_reports_the_benchmark_row() {
    let counts = xtask::count_loc(&workspace_root()).expect("workspace scan");
    assert!(
        counts.get(xtask::BENCHMARK_ROW).is_some_and(|&lines| lines > 0),
        "benchmark/src must be counted: {counts:?}"
    );
}

#[test]
fn the_sweep_actually_scans_the_linter() {
    // Guard against the exclusion list silently eating crates/xtask/src:
    // the fixture exclusion must not be wider than intended.
    let outcome = xtask::lint_source(
        "crates/xtask/src/selfcheck_probe.rs",
        "use std::collections::HashMap;\n",
    );
    assert!(
        outcome.violations.iter().any(|v| v.rule == "D2"),
        "crates/xtask/src must be in D2 scope for the self-test to mean anything"
    );
}
