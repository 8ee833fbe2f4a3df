//! The sweep must reach the linter's own source (`tests/lint_clean.rs`
//! then holds `crates/xtask/src` to the same policy as everyone else),
//! and the line counter is pinned on a fixture and on the benchmark row.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn loc_counts_code_lines_outside_comments_and_test_modules() {
    let src = include_str!("fixtures/loc_mixed.rs");
    let marked = src.lines().filter(|l| l.ends_with("// +")).count();
    assert_eq!(marked, 9);
    assert_eq!(xtask::loc_of_source(src), marked);
}

#[test]
fn loc_reports_the_benchmark_row() {
    let counts = xtask::count_loc(&workspace_root()).expect("workspace scan");
    assert!(
        counts
            .get(xtask::BENCHMARK_ROW)
            .is_some_and(|&lines| lines > 0),
        "benchmark/src must be counted: {counts:?}"
    );
}

#[test]
fn the_sweep_actually_scans_the_linter() {
    // Guard against the exclusion list silently eating crates/xtask/src:
    // the fixture exclusion must not be wider than intended.
    let violations = xtask::lint_source(
        "crates/xtask/src/selfcheck_probe.rs",
        "fn f(file: &std::fs::File) { let _ = file.sync_all(); }\n",
    );
    assert!(
        !violations.is_empty(),
        "crates/xtask/src must be in B1 scope for the sweep to mean anything"
    );
}
