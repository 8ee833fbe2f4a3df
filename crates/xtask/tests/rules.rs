//! Fixture-based tests: every rule has at least one known-bad snippet it
//! fires on and a known-good twin it accepts, plus suppression-syntax and
//! scoping tests.  Lexical-rule fixtures live under `tests/fixtures/` and
//! L1's fixtures are mini-workspaces under `tests/fixtures/l1/` (all
//! excluded from the workspace sweep — they are deliberately full of
//! violations).

use std::path::Path;

use xtask::lint_source;

fn rules_fired(rel_path: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint_source(rel_path, src)
        .violations
        .iter()
        .map(|v| v.rule)
        .collect();
    rules.dedup();
    rules
}

fn assert_clean(rel_path: &str, src: &str) {
    let outcome = lint_source(rel_path, src);
    assert!(
        outcome.violations.is_empty(),
        "expected clean but got: {:#?}",
        outcome.violations
    );
}

// --- B1 -------------------------------------------------------------------

#[test]
fn b1_fires_on_direct_durability_outside_storage() {
    let outcome = lint_source(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/b1_bad.rs"),
    );
    let b1 = outcome.violations.iter().filter(|v| v.rule == "B1").count();
    // File::create, sync_data, sync_all.
    assert!(
        b1 >= 3,
        "expected ≥3 B1 findings, got {:#?}",
        outcome.violations
    );
}

#[test]
fn b1_is_allowed_inside_the_storage_crate() {
    assert_clean(
        "crates/storage/src/fixture.rs",
        include_str!("fixtures/b1_bad.rs"),
    );
}

#[test]
fn b1_accepts_writes_through_the_batch() {
    assert_clean(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/b1_good.rs"),
    );
}

// --- Z1 -------------------------------------------------------------------

#[test]
fn z1_fires_on_payload_copies() {
    let outcome = lint_source(
        "crates/net/src/fixture.rs",
        include_str!("fixtures/z1_bad.rs"),
    );
    let z1 = outcome.violations.iter().filter(|v| v.rule == "Z1").count();
    assert_eq!(z1, 2, "got {:#?}", outcome.violations);
}

#[test]
fn z1_accepts_refcounted_views_and_other_crates() {
    assert_clean(
        "crates/net/src/fixture.rs",
        include_str!("fixtures/z1_good.rs"),
    );
    // The replication services are off the payload hot path.
    assert_clean(
        "crates/replication/src/fixture.rs",
        include_str!("fixtures/z1_bad.rs"),
    );
}

// --- P1 -------------------------------------------------------------------

#[test]
fn p1_fires_on_panics_in_tcp_connection_handling() {
    let outcome = lint_source("crates/net/src/tcp.rs", include_str!("fixtures/p1_bad.rs"));
    let p1 = outcome.violations.iter().filter(|v| v.rule == "P1").count();
    // unwrap, expect, panic!, unreachable!.
    assert_eq!(p1, 4, "got {:#?}", outcome.violations);
}

#[test]
fn p1_accepts_counted_fault_mapping_and_is_file_scoped() {
    assert_clean("crates/net/src/tcp.rs", include_str!("fixtures/p1_good.rs"));
    // Other net modules (and the rest of the tree) may unwrap.
    assert_clean(
        "crates/net/src/frame.rs",
        include_str!("fixtures/p1_bad.rs"),
    );
}

#[test]
fn p1_also_covers_the_poll_module() {
    // The readiness layer under the transport is connection handling too:
    // a bad fd or a failed syscall must surface as io::Error, not a panic.
    let outcome = lint_source("crates/net/src/poll.rs", include_str!("fixtures/p1_bad.rs"));
    let p1 = outcome.violations.iter().filter(|v| v.rule == "P1").count();
    assert_eq!(p1, 4, "got {:#?}", outcome.violations);
}

// --- Suppressions ---------------------------------------------------------

const COPY: &str = "fn f(p: &[u8]) -> Vec<u8> { p.to_vec() }";

#[test]
fn a_justified_suppression_silences_the_rule_and_is_inventoried() {
    let src = format!("{COPY} // xlint:allow(Z1) — key bytes, not payload\n");
    let outcome = lint_source("crates/core/src/fixture.rs", &src);
    assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
    assert_eq!(outcome.suppressions.len(), 1);
    let s = &outcome.suppressions[0];
    assert_eq!(s.rule, "Z1");
    assert_eq!(s.line, 1);
    assert!(s.used);
    assert_eq!(s.reason, "key bytes, not payload");
}

#[test]
fn a_suppression_without_a_reason_does_not_suppress() {
    let outcome = lint_source(
        "crates/core/src/fixture.rs",
        &format!("{COPY} // xlint:allow(Z1)\n"),
    );
    assert!(outcome.violations.iter().any(|v| v.rule == "Z1"));
    assert!(
        !outcome.suppressions[0].used,
        "so the workspace sweep reports it unused"
    );
}

#[test]
fn a_suppression_for_the_wrong_rule_does_not_suppress() {
    let src = format!("{COPY} // xlint:allow(B1) — wrong rule\n");
    let outcome = lint_source("crates/core/src/fixture.rs", &src);
    assert!(outcome.violations.iter().any(|v| v.rule == "Z1"));
    assert!(!outcome.suppressions[0].used);
}

#[test]
fn an_unknown_rule_id_suppresses_nothing() {
    let outcome = lint_source(
        "crates/core/src/fixture.rs",
        "fn f() {} // xlint:allow(Q9) — typo\n",
    );
    assert_eq!(outcome.suppressions.len(), 1);
    assert!(
        !outcome.suppressions[0].used,
        "so the workspace sweep reports it unused"
    );
}

#[test]
fn the_workspace_sweep_reports_every_allow_that_suppresses_nothing() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/stale_allow");
    let report = xtask::lint_workspace(&root).expect("fixture scan");
    let found: Vec<(&str, u32, &str)> = report
        .violations
        .iter()
        .map(|v| (v.path.as_str(), v.line, v.rule))
        .collect();
    assert_eq!(
        found,
        [
            ("crates/core/src/lib.rs", 4, "S1"),
            ("crates/core/src/lib.rs", 5, "S1"),
            ("crates/core/src/lib.rs", 6, "S1"),
            ("crates/core/src/lib.rs", 6, "Z1"),
            ("tests/t.rs", 3, "S1"),
        ]
    );
}

// --- Test-region masking --------------------------------------------------

#[test]
fn cfg_test_modules_are_exempt() {
    let src = r#"
fn prod() {}

#[cfg(test)]
mod tests {
    #[test]
    fn measures() {
        let f = std::fs::File::create("x").unwrap();
        f.sync_all().unwrap();
        let v = payload.to_vec();
    }
}
"#;
    assert_clean("crates/core/src/fixture.rs", src);
    // …but code after the test module is linted again.
    let after = format!("{src}\n{COPY}\n");
    let fired = rules_fired("crates/core/src/fixture.rs", &after);
    assert_eq!(fired, vec!["Z1"]);
}

// --- L1 fixtures -----------------------------------------------------------

/// L1's findings over one of the mini-workspaces under `tests/fixtures/l1/`
/// (the lexical rules run there too and are not what these tests pin).
fn l1_fixture(name: &str) -> xtask::LintReport {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/l1")
        .join(name);
    let mut report = xtask::lint_workspace(&root).expect("fixture scan");
    report.violations.retain(|v| v.rule == "L1");
    report
}

#[test]
fn l1_fires_on_locks_held_across_blocking_io() {
    let report = l1_fixture("held_across_io");
    let messages: Vec<&str> = report
        .violations
        .iter()
        .map(|v| v.message.as_str())
        .collect();
    assert_eq!(messages.len(), 3, "{messages:#?}");
    assert!(
        messages
            .iter()
            .any(|m| m.contains("held across blocking `sync_data`")),
        "the barrier under the guard must be flagged: {messages:#?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("held across `barrier`, which reaches blocking sync_all")),
        "a barrier reached through a helper must be flagged at the call: {messages:#?}"
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("held across blocking `epoll_wait`")),
        "the write-queue mutex held across the poller's park must be flagged: {messages:#?}"
    );
}

#[test]
fn l1_accepts_a_guard_dropped_before_blocking() {
    let report = l1_fixture("held_across_io_good");
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
}

#[test]
fn l1_sees_locks_declared_in_mod_rs_from_sibling_submodules() {
    let report = l1_fixture("segmented_wal");
    // Fields of a `pub(crate)` struct are lock vocabulary.
    assert!(
        report
            .violations
            .iter()
            .any(|v| { v.path.ends_with("wal/mod.rs") && v.message.contains("sync_data") }),
        "the barrier under the pub(crate) struct's lock must be flagged: {:#?}",
        report.violations
    );
    // The submodule acquires a lock declared in `mod.rs`: the hold is only
    // modelled because the directory module shares its vocabulary.
    assert!(
        report
            .violations
            .iter()
            .any(|v| { v.path.ends_with("wal/compactor.rs") && v.message.contains("wait") }),
        "the condvar park under the cross-file flags lock must be flagged: {:#?}",
        report.violations
    );
}

#[test]
fn a_submodule_suppression_binds_to_the_cross_file_finding() {
    let report = l1_fixture("segmented_wal_good");
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    let allow = report
        .suppressions
        .iter()
        .find(|s| s.path.ends_with("wal/compactor.rs"))
        .expect("the submodule allow must be inventoried");
    assert!(
        allow.used,
        "the allow must bind to the cross-file L1 finding, not rot as stale: {allow:#?}"
    );
}

// --- Scoping --------------------------------------------------------------

#[test]
fn shims_and_fixtures_are_out_of_scope() {
    let bad = include_str!("fixtures/b1_bad.rs");
    assert_clean("shims/rand/src/lib.rs", bad);
    assert_clean("crates/xtask/tests/fixtures/b1_bad.rs", bad);
    // No rule applies to test-like files.
    assert_clean("tests/fixture.rs", bad);
    assert_clean("examples/fixture.rs", bad);
    assert_clean("crates/core/tests/fixture.rs", bad);
}
