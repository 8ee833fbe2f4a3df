//! Fixture-based tests for rule B1: a known-bad snippet it fires on, a
//! known-good twin it accepts, and its scoping.  The fixtures live under
//! `tests/fixtures/`, which the workspace sweep excludes.

use xtask::lint_source;

fn b1_lines(rel_path: &str, src: &str) -> Vec<u32> {
    lint_source(rel_path, src).iter().map(|v| v.line).collect()
}

#[test]
fn b1_fires_on_direct_durability_outside_storage() {
    // File::create, sync_data, sync_all.
    assert_eq!(
        b1_lines(
            "crates/core/src/fixture.rs",
            include_str!("fixtures/b1_bad.rs")
        ),
        [6, 8, 9]
    );
}

#[test]
fn b1_is_allowed_inside_the_storage_crate() {
    let bad = include_str!("fixtures/b1_bad.rs");
    assert!(lint_source("crates/storage/src/fixture.rs", bad).is_empty());
}

#[test]
fn b1_accepts_writes_through_the_batch() {
    let good = include_str!("fixtures/b1_good.rs");
    assert!(lint_source("crates/core/src/fixture.rs", good).is_empty());
}

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
    }
}
"#;
    assert!(lint_source("crates/core/src/fixture.rs", src).is_empty());
    // …but code after the test module is linted again.
    let after = format!("{src}fn f(file: &std::fs::File) {{ let _ = file.sync_data(); }}\n");
    assert_eq!(b1_lines("crates/core/src/fixture.rs", &after), [12]);
}

#[test]
fn shims_fixtures_and_test_like_files_are_out_of_scope() {
    let bad = include_str!("fixtures/b1_bad.rs");
    for path in [
        "shims/rand/src/lib.rs",
        "crates/xtask/tests/fixtures/b1_bad.rs",
        "tests/fixture.rs",
        "examples/fixture.rs",
        "crates/core/tests/fixture.rs",
    ] {
        assert!(lint_source(path, bad).is_empty(), "{path}");
    }
}
