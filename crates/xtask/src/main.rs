//! `cargo xtask` — workspace developer tasks.
//!
//! ```text
//! cargo xtask lint    [--report <path>] [--root <dir>] [--deny-unused-allows]
//! cargo xtask analyze [--report <path>] [--root <dir>] [--deny-unused-allows]
//! cargo xtask loc
//! ```
//!
//! `lint` runs the determinism & durability linter (lexical rules D1–S1)
//! and `analyze` the semantic analyzer (lock-order L1, key lifecycle K1,
//! volatile-twin V1) over the workspace; both exit non-zero on any
//! unsuppressed violation.  `--report` additionally writes the
//! machine-readable JSON finding/suppression inventory (uploaded as a CI
//! artifact), and `--deny-unused-allows` treats a suppression whose rule
//! never fires on its line as a violation in its own right.
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
    let Some(command) = args.first() else {
        eprintln!(
            "usage: cargo xtask <lint|analyze> [--report <path>] [--root <dir>] \
             [--deny-unused-allows] | cargo xtask loc"
        );
        return ExitCode::FAILURE;
    };
    match command.as_str() {
        "lint" => run(Tool::Lint, &args[1..]),
        "analyze" => run(Tool::Analyze, &args[1..]),
        "loc" => loc(&args[1..]),
        other => {
            eprintln!("unknown xtask command `{other}` (available: lint, analyze, loc)");
            ExitCode::FAILURE
        }
    }
}

#[derive(Clone, Copy)]
enum Tool {
    Lint,
    Analyze,
}

impl Tool {
    fn name(self) -> &'static str {
        match self {
            Tool::Lint => "lint",
            Tool::Analyze => "analyze",
        }
    }
}

fn loc(args: &[String]) -> ExitCode {
    if let Some(arg) = args.first() {
        eprintln!("xtask loc takes no arguments, got `{arg}`");
        return ExitCode::FAILURE;
    }
    let cwd = env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = xtask::find_workspace_root(&cwd);
    let mut counts = match xtask::count_loc(&root) {
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

fn run(tool: Tool, args: &[String]) -> ExitCode {
    let mut report_path: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut deny_unused = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report" => match it.next() {
                Some(path) => report_path = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--report requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--root" => match it.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--root requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--deny-unused-allows" => deny_unused = true,
            other => {
                eprintln!("unknown {} flag `{other}`", tool.name());
                return ExitCode::FAILURE;
            }
        }
    }

    let cwd = env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = root.unwrap_or_else(|| xtask::find_workspace_root(&cwd));
    let outcome = match tool {
        Tool::Lint => xtask::lint_workspace(&root),
        Tool::Analyze => xtask::analyze_workspace(&root),
    };
    let mut report = match outcome {
        Ok(report) => report,
        Err(err) => {
            eprintln!(
                "xtask {}: failed to scan {}: {err}",
                tool.name(),
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    if deny_unused {
        report.deny_unused_allows();
    }

    print!("{}", report.render_text());
    if let Some(path) = report_path {
        if let Err(err) = std::fs::write(&path, report.render_json()) {
            eprintln!(
                "xtask {}: failed to write report {}: {err}",
                tool.name(),
                path.display()
            );
            return ExitCode::FAILURE;
        }
        println!("report written to {}", path.display());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
