//! The experiment suite: one [`EXPERIMENTS`] entry per experiment, which
//! the `exp` binary dispatches on.  See the crate documentation for the
//! mapping from claims to experiments.

pub mod e01_log_ops;
pub mod e02_recovery;
pub mod e03_state_transfer;
pub mod e08_log_growth;
pub mod e11_storage;
pub mod e12_pipeline;
pub mod e15_cluster;
pub mod e16_wal;

use crate::report::Table;

/// How an experiment runs; `quick` trims its parameter sweep.
pub enum Runner {
    /// Produces a report table only.
    Table(fn(bool) -> Table),
    /// Produces a report table and a JSON baseline, written by default to
    /// `file` (a `BENCH_*.json` committed at the repository root).
    Baseline {
        /// Default file name of the baseline.
        file: &'static str,
        /// Runs the experiment, returning its table and baseline JSON.
        run: fn(bool) -> (Table, String),
    },
}

/// One experiment of the suite.
pub struct Experiment {
    /// Command-line id, e.g. `e11`.
    pub id: &'static str,
    /// How to run it.
    pub runner: Runner,
}

/// Every experiment, in report order.
pub static EXPERIMENTS: [Experiment; 8] = [
    Experiment {
        id: "e01",
        runner: Runner::Table(e01_log_ops::run),
    },
    Experiment {
        id: "e02",
        runner: Runner::Table(e02_recovery::run),
    },
    Experiment {
        id: "e03",
        runner: Runner::Table(e03_state_transfer::run),
    },
    Experiment {
        id: "e08",
        runner: Runner::Table(e08_log_growth::run),
    },
    Experiment {
        id: "e11",
        runner: Runner::Baseline {
            file: "BENCH_storage.json",
            run: |quick| {
                let rows = e11_storage::run_rows(quick);
                (e11_storage::table_from_rows(&rows), e11_storage::to_json(&rows, quick))
            },
        },
    },
    Experiment {
        id: "e12",
        runner: Runner::Baseline {
            file: "BENCH_pipeline.json",
            run: |quick| {
                let rows = e12_pipeline::run_rows(quick);
                (e12_pipeline::table_from_rows(&rows), e12_pipeline::to_json(&rows, quick))
            },
        },
    },
    Experiment {
        id: "e15",
        runner: Runner::Baseline {
            file: "BENCH_cluster.json",
            run: |quick| {
                let rows = e15_cluster::run_rows(quick);
                (e15_cluster::table_from_rows(&rows), e15_cluster::to_json(&rows, quick))
            },
        },
    },
    Experiment {
        id: "e16",
        runner: Runner::Baseline {
            file: "BENCH_wal.json",
            run: |quick| {
                let rows = e16_wal::run_rows(quick);
                (e16_wal::table_from_rows(&rows), e16_wal::to_json(&rows, quick))
            },
        },
    },
];
