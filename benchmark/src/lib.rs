//! The repository's benchmark: the atomic broadcast stack driven over real
//! TCP sockets and an fsyncing write-ahead log, by an open- or closed-loop
//! load generator, on seven named workloads, with per-layer metrics taken
//! from outside the program.
//!
//! `README.md` next to this package says what each workload and metric is
//! for and how to read the output; `BENCHMARK.json` at the repository root
//! tells the driver how to run it.  Only public functions of the
//! repository's crates are used, and no file outside this package changes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod cli;
pub mod deploy;
pub mod gen;
pub mod json;
pub mod layers;
pub mod measure;
pub mod procfs;
pub mod repeat;
pub mod report;
pub mod simrun;
pub mod spec;
pub mod stats;
pub mod trace;
