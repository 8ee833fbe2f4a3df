//! Tier-1 gate: the workspace must be clean under `cargo xtask lint`.
//!
//! This is the same scan CI runs, executed as a plain test so rule B1 —
//! no fsync or `File::create` outside `crates/storage`, the one defect no
//! other test can observe — is enforced by `cargo test` alone, no extra
//! command to forget.

use std::path::Path;

#[test]
fn the_workspace_is_xlint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = xtask::lint_workspace(root).expect("workspace scan");
    assert!(
        report.is_clean(),
        "cargo xtask lint found violations:\n{}",
        report.render_text()
    );
    // The gate only means something if the sweep actually covered the tree.
    assert!(
        report.files_scanned > 50,
        "suspiciously small sweep: {} files scanned",
        report.files_scanned
    );
}
