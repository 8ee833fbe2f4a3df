//! `cargo xtask` — workspace developer tasks.
//!
//! ```text
//! cargo xtask lint
//! cargo xtask loc
//! ```
//!
//! `lint` runs the linter (rule B1: no fsync or `File::create` outside
//! `crates/storage`) over the workspace, prints every violation, and
//! exits non-zero if there is one.  Neither command takes a flag.
//!
//! `loc` prints the tracked size: non-test, non-comment, non-blank Rust
//! lines per crate and in total, over `crates/`, `src/` and `examples/`,
//! then the repository benchmark's `benchmark/src`, counted the same way
//! but kept out of the total.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let (command, extra) = match args.as_slice() {
        [command, extra @ ..] => (command.as_str(), extra),
        [] => {
            eprintln!("usage: cargo xtask <lint|loc>");
            return ExitCode::FAILURE;
        }
    };
    if let Some(arg) = extra.first() {
        eprintln!("xtask {command} takes no arguments, got `{arg}`");
        return ExitCode::FAILURE;
    }
    let cwd = env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = xtask::find_workspace_root(&cwd);
    match command {
        "lint" => lint(&root),
        "loc" => loc(&root),
        other => {
            eprintln!("unknown xtask command `{other}` (available: lint, loc)");
            ExitCode::FAILURE
        }
    }
}

fn lint(root: &std::path::Path) -> ExitCode {
    let report = match xtask::lint_workspace(root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("xtask lint: failed to scan {}: {err}", root.display());
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render_text());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn loc(root: &std::path::Path) -> ExitCode {
    let mut counts = match xtask::count_loc(root) {
        Ok(counts) => counts,
        Err(err) => {
            eprintln!("xtask loc: failed to scan {}: {err}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let benchmark = counts.remove(xtask::BENCHMARK_ROW).unwrap_or(0);
    for (owner, lines) in &counts {
        println!("{owner:<12} {lines:>6}");
    }
    println!("{:<12} {:>6}", "total", counts.values().sum::<usize>());
    println!("{:<12} {benchmark:>6}", xtask::BENCHMARK_ROW);
    ExitCode::SUCCESS
}
