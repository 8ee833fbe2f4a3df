//! Fixture-based tests: every rule has at least one known-bad snippet it
//! fires on and a known-good twin it accepts, plus suppression-syntax and
//! scoping tests.  Lexical-rule fixtures live under `tests/fixtures/` and
//! semantic-rule fixtures are mini-workspaces under
//! `tests/fixtures/analyze/` (all excluded from the workspace sweep —
//! they are deliberately full of violations).

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

// --- D1 -------------------------------------------------------------------

#[test]
fn d1_fires_on_wall_clock_and_entropy_in_deterministic_crates() {
    let bad = include_str!("fixtures/d1_bad.rs");
    let outcome = lint_source("crates/consensus/src/fixture.rs", bad);
    let d1: Vec<u32> = outcome
        .violations
        .iter()
        .filter(|v| v.rule == "D1")
        .map(|v| v.line)
        .collect();
    // use-line Instant + SystemTime, Instant::now, SystemTime::now,
    // thread_rng, rand::random.
    assert!(d1.len() >= 6, "expected ≥6 D1 findings, got {d1:?}");
    assert!(outcome.violations.iter().all(|v| v.rule == "D1"));
}

#[test]
fn d1_accepts_runtime_time_and_ignores_strings_and_comments() {
    assert_clean(
        "crates/consensus/src/fixture.rs",
        include_str!("fixtures/d1_good.rs"),
    );
}

#[test]
fn d1_does_not_apply_outside_deterministic_crates() {
    // The TCP transport legitimately reads the wall clock.
    assert_clean("crates/net/src/fixture.rs", include_str!("fixtures/d1_bad.rs"));
}

// --- D2 -------------------------------------------------------------------

#[test]
fn d2_fires_on_unordered_collections() {
    let fired = rules_fired(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/d2_bad.rs"),
    );
    assert_eq!(fired, vec!["D2"]);
}

#[test]
fn d2_accepts_btree_collections() {
    assert_clean(
        "crates/sim/src/fixture.rs",
        include_str!("fixtures/d2_good.rs"),
    );
}

// --- B1 -------------------------------------------------------------------

#[test]
fn b1_fires_on_direct_durability_outside_storage() {
    let outcome = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/b1_bad.rs"));
    let b1 = outcome.violations.iter().filter(|v| v.rule == "B1").count();
    // File::create, sync_data, sync_all.
    assert!(b1 >= 3, "expected ≥3 B1 findings, got {:#?}", outcome.violations);
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

// --- B2 -------------------------------------------------------------------

#[test]
fn b2_fires_on_raw_sends_and_direct_commit() {
    let outcome = lint_source("crates/core/src/fixture.rs", include_str!("fixtures/b2_bad.rs"));
    let b2 = outcome.violations.iter().filter(|v| v.rule == "B2").count();
    // commit_batch + loopback.send + tx.send.
    assert_eq!(b2, 3, "got {:#?}", outcome.violations);
}

#[test]
fn b2_accepts_context_sends_under_run_step() {
    assert_clean(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/b2_good.rs"),
    );
}

// --- Z1 -------------------------------------------------------------------

#[test]
fn z1_fires_on_payload_copies() {
    let outcome = lint_source("crates/net/src/fixture.rs", include_str!("fixtures/z1_bad.rs"));
    let z1 = outcome.violations.iter().filter(|v| v.rule == "Z1").count();
    assert_eq!(z1, 2, "got {:#?}", outcome.violations);
}

#[test]
fn z1_accepts_refcounted_views_and_other_crates() {
    assert_clean("crates/net/src/fixture.rs", include_str!("fixtures/z1_good.rs"));
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
    assert_clean("crates/net/src/frame.rs", include_str!("fixtures/p1_bad.rs"));
}

#[test]
fn p1_also_covers_the_poll_module() {
    // The readiness layer under the transport is connection handling too:
    // a bad fd or a failed syscall must surface as io::Error, not a panic.
    let outcome = lint_source("crates/net/src/poll.rs", include_str!("fixtures/p1_bad.rs"));
    let p1 = outcome.violations.iter().filter(|v| v.rule == "P1").count();
    assert_eq!(p1, 4, "got {:#?}", outcome.violations);
}

// --- S1 -------------------------------------------------------------------

#[test]
fn s1_fires_on_unjustified_allow_attributes() {
    let outcome = lint_source("crates/fd/src/fixture.rs", include_str!("fixtures/s1_bad.rs"));
    let s1 = outcome.violations.iter().filter(|v| v.rule == "S1").count();
    assert_eq!(s1, 2, "got {:#?}", outcome.violations);
}

#[test]
fn s1_accepts_justified_allows_everywhere_including_tests() {
    assert_clean("crates/fd/src/fixture.rs", include_str!("fixtures/s1_good.rs"));
    let fired = rules_fired("tests/fixture.rs", include_str!("fixtures/s1_bad.rs"));
    assert_eq!(fired, vec!["S1"], "S1 also covers test-like files");
}

// --- Suppressions ---------------------------------------------------------

#[test]
fn a_justified_suppression_silences_the_rule_and_is_inventoried() {
    let src = "use std::collections::HashMap; \
               // xlint:allow(D2) — never iterated, keyed lookups only\n";
    let outcome = lint_source("crates/core/src/fixture.rs", src);
    assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
    assert_eq!(outcome.suppressions.len(), 1);
    let s = &outcome.suppressions[0];
    assert_eq!(s.rule, "D2");
    assert_eq!(s.line, 1);
    assert!(s.used);
    assert_eq!(s.reason, "never iterated, keyed lookups only");
}

#[test]
fn a_justified_d1_suppression_is_accepted_and_inventoried() {
    // The sim crate's fuzz campaign driver reads the wall clock for its
    // operator-facing seeds/sec rate — the canonical justified D1 allow.
    // The suppression must silence D1 without tripping S1, and must show
    // up (used) in the inventory so reviewers can audit it.
    let src = include_str!("fixtures/d1_allowed.rs");
    let outcome = lint_source("crates/sim/src/fixture.rs", src);
    assert!(outcome.violations.is_empty(), "{:#?}", outcome.violations);
    assert_eq!(outcome.suppressions.len(), 1);
    let s = &outcome.suppressions[0];
    assert_eq!(s.rule, "D1");
    assert!(s.used, "the allow must actually cover the Instant::now call");
    assert!(
        s.reason.contains("no simulated state"),
        "the justification must say why determinism is unaffected"
    );
}

#[test]
fn a_suppression_without_a_reason_does_not_suppress() {
    let src = "use std::collections::HashMap; // xlint:allow(D2)\n";
    let fired = rules_fired("crates/core/src/fixture.rs", src);
    assert!(fired.contains(&"D2"), "unjustified allow must not silence the rule");
    assert!(fired.contains(&"S1"), "and the empty reason is itself flagged");
}

#[test]
fn a_suppression_for_the_wrong_rule_does_not_suppress() {
    let src = "use std::collections::HashMap; // xlint:allow(D1) — wrong rule\n";
    let outcome = lint_source("crates/core/src/fixture.rs", src);
    assert!(outcome.violations.iter().any(|v| v.rule == "D2"));
    assert!(!outcome.suppressions[0].used);
}

#[test]
fn an_unknown_rule_id_is_a_hygiene_violation() {
    let src = "fn f() {} // xlint:allow(Q9) — typo\n";
    let fired = rules_fired("crates/core/src/fixture.rs", src);
    assert_eq!(fired, vec!["S1"]);
}

// --- Test-region masking --------------------------------------------------

#[test]
fn cfg_test_modules_are_exempt_from_everything_but_s1() {
    let src = r#"
fn prod() {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::time::Instant;

    #[test]
    fn measures() {
        let t = Instant::now();
        let m: HashMap<u8, u8> = HashMap::new();
        let v = payload.to_vec();
        v.first().unwrap();
        let _ = (t, m);
    }
}
"#;
    assert_clean("crates/core/src/fixture.rs", src);
    // …but code after the test module is linted again.
    let after = format!("{src}\nuse std::collections::HashMap;\n");
    let fired = rules_fired("crates/core/src/fixture.rs", &after);
    assert_eq!(fired, vec!["D2"]);
}

// --- Analyze fixtures (L1/K1/V1) ------------------------------------------

/// Runs the semantic analyzer over one of the mini-workspaces under
/// `tests/fixtures/analyze/`.
fn analyze_fixture(name: &str) -> xtask::LintReport {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/analyze")
        .join(name);
    xtask::analyze_workspace(&root).expect("fixture scan")
}

#[test]
fn l1_fires_on_lock_order_cycles_and_blocking_io_under_a_lock() {
    let report = analyze_fixture("lock_cycle");
    assert!(report.violations.iter().all(|v| v.rule == "L1"), "{:#?}", report.violations);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("lock-order cycle")),
        "the ab/ba inversion must be reported as a cycle: {:#?}",
        report.violations
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("held across blocking `sync_data`")),
        "the barrier under the guard must be flagged: {:#?}",
        report.violations
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("held across blocking `epoll_wait`")),
        "the write-queue mutex held across the poller's park must be flagged: {:#?}",
        report.violations
    );
}

#[test]
fn l1_accepts_consistent_order_and_drop_before_blocking() {
    let report = analyze_fixture("lock_order_good");
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
}

#[test]
fn l1_sees_locks_declared_in_mod_rs_from_sibling_submodules() {
    let report = analyze_fixture("segmented_wal");
    assert!(report.violations.iter().all(|v| v.rule == "L1"), "{:#?}", report.violations);
    // Fields of a `pub(crate)` struct are lock vocabulary.
    assert!(
        report.violations.iter().any(|v| {
            v.path.ends_with("wal/mod.rs") && v.message.contains("sync_data")
        }),
        "the barrier under the pub(crate) struct's lock must be flagged: {:#?}",
        report.violations
    );
    // The submodule acquires a lock declared in `mod.rs`: the hold is only
    // modelled because the directory module shares its vocabulary.
    assert!(
        report.violations.iter().any(|v| {
            v.path.ends_with("wal/compactor.rs") && v.message.contains("wait")
        }),
        "the condvar park under the cross-file flags lock must be flagged: {:#?}",
        report.violations
    );
}

#[test]
fn a_submodule_suppression_binds_to_the_cross_file_finding() {
    let report = analyze_fixture("segmented_wal_good");
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

#[test]
fn the_forget_floor_bug_trips_both_k1_and_v1() {
    let report = analyze_fixture("key_lifecycle");
    // The PR 7 bug: recovery reads the floor, nothing persists it.
    assert!(
        report.violations.iter().any(|v| {
            v.rule == "K1" && v.path.ends_with("multi.rs") && v.message.contains("never persisted")
        }),
        "the unwritten floor must be reported at its recovery read: {:#?}",
        report.violations
    );
    // The same bug seen from the field side: the volatile floor is raised
    // with no durable write on its step.
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "V1" && v.message.contains("silently diverges")),
        "the write-free floor raise must be reported: {:#?}",
        report.violations
    );
    // The inverse K1 half: the journal is written but never replayed on
    // recovery.
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "K1" && v.message.contains("no recovery path")),
        "the unreplayed journal must be reported at its write: {:#?}",
        report.violations
    );
}

#[test]
fn k1_accepts_persist_plus_recovery_read() {
    let report = analyze_fixture("key_lifecycle_good");
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
}

#[test]
fn v1_fires_on_unpersisted_mutations_and_unknown_twins() {
    let report = analyze_fixture("volatile_twin");
    assert!(report.violations.iter().all(|v| v.rule == "V1"), "{:#?}", report.violations);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("silently diverges")),
        "the write-free mutation must be flagged: {:#?}",
        report.violations
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("names no key constructor")),
        "the dangling twin annotation must be flagged: {:#?}",
        report.violations
    );
}

#[test]
fn v1_accepts_a_twin_write_in_the_callee_closure() {
    let report = analyze_fixture("volatile_twin_good");
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
}

// --- Scoping --------------------------------------------------------------

#[test]
fn shims_and_fixtures_are_out_of_scope() {
    let bad = include_str!("fixtures/d1_bad.rs");
    assert_clean("shims/rand/src/lib.rs", bad);
    assert_clean("crates/xtask/tests/fixtures/d1_bad.rs", bad);
    // Test-like files only answer to S1.
    assert_clean("tests/fixture.rs", bad);
    assert_clean("examples/fixture.rs", bad);
    assert_clean("crates/core/tests/fixture.rs", bad);
}
