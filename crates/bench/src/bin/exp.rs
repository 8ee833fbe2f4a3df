//! `exp` — runs the experiments listed in
//! `abcast_bench::experiments::EXPERIMENTS`.
//!
//! ```text
//! exp <e01|e02|e03|e08|e11|e12|e15|e16|all> [--quick] [--out PATH]
//! ```
//!
//! Prints each table as plain text and markdown.  An experiment with a
//! JSON baseline also writes it, to `PATH` or to its default
//! `BENCH_*.json` name in the current directory; `all` prints every table
//! and writes no baseline.  `--quick` trims the sweeps (CI runs it).  An
//! unknown id or flag, `--out` without a value, or `--out` for `all` or an
//! experiment without a baseline exits 2 with the usage line.

use std::process::ExitCode;

use abcast_bench::experiments::{Experiment, Runner, EXPERIMENTS};
use abcast_bench::Table;

/// A parsed command line.
struct Invocation {
    /// The experiment to run; `None` runs them all.
    only: Option<&'static Experiment>,
    quick: bool,
    out: Option<String>,
}

fn usage() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    format!("usage: exp <{}|all> [--quick] [--out PATH]", ids.join("|"))
}

fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut id: Option<&str> = None;
    let mut quick = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(path) if !path.starts_with("--") => out = Some(path.clone()),
                _ => return Err("--out needs a path".to_string()),
            },
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name if id.is_none() => id = Some(name),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let only = match id {
        None => return Err("no experiment named".to_string()),
        Some("all") => None,
        Some(name) => Some(
            EXPERIMENTS
                .iter()
                .find(|e| e.id == name)
                .ok_or_else(|| format!("unknown experiment `{name}`"))?,
        ),
    };
    let writes_json = matches!(
        only,
        Some(Experiment {
            runner: Runner::Baseline { .. },
            ..
        })
    );
    if out.is_some() && !writes_json {
        return Err(format!(
            "--out: `{}` writes no JSON baseline",
            id.unwrap_or("all")
        ));
    }
    Ok(Invocation { only, quick, out })
}

fn print(table: &Table) {
    table.print();
    println!("{}", table.to_markdown());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match parse(&args) {
        Ok(invocation) => invocation,
        Err(message) => {
            eprintln!("exp: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let experiments = match invocation.only {
        Some(experiment) => std::slice::from_ref(experiment),
        None => &EXPERIMENTS[..],
    };
    for experiment in experiments {
        match &experiment.runner {
            Runner::Table(run) => print(&run(invocation.quick)),
            Runner::Baseline { file, run } => {
                let (table, json) = run(invocation.quick);
                print(&table);
                if invocation.only.is_none() {
                    continue;
                }
                let path = invocation.out.as_deref().unwrap_or(file);
                if let Err(err) = std::fs::write(path, json) {
                    eprintln!("exp: cannot write {path}: {err}");
                    return ExitCode::FAILURE;
                }
                println!("baseline written to {path}");
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(args: &[&str]) -> Result<Invocation, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn accepts_every_listed_id_and_all_with_quick() {
        for experiment in &EXPERIMENTS {
            let parsed = parse_args(&[experiment.id, "--quick"]).expect("listed id parses");
            assert_eq!(parsed.only.map(|e| e.id), Some(experiment.id));
            assert!(parsed.quick);
        }
        let all = parse_args(&["--quick", "all"]).expect("all parses");
        assert!(all.only.is_none() && all.quick);
    }

    #[test]
    fn out_is_taken_only_by_experiments_with_a_baseline() {
        let parsed = parse_args(&["e11", "--out", "x.json"]).expect("e11 writes JSON");
        assert_eq!(parsed.out.as_deref(), Some("x.json"));
        assert!(parse_args(&["e01", "--out", "x.json"]).is_err());
        assert!(parse_args(&["all", "--out", "x.json"]).is_err());
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            &[][..],
            &["e04"],
            &["e11", "--fast"],
            &["e11", "--out"],
            &["e11", "--out", "--quick"],
            &["e11", "e12"],
        ] {
            assert!(parse_args(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
