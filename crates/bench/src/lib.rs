//! Experiment harness: the measured experiments the README cites.
//!
//! The paper (ICDCS 2000) has no quantitative evaluation section — its five
//! figures are interfaces and pseudocode — so the reproduction turns its
//! logging/recovery trade-off claims into simulated experiments, and adds
//! count experiments for the storage, pipelining and transport layers:
//!
//! | Id | Claim | Module |
//! |----|-------|--------|
//! | E1 | §4.3 minimal logging | [`experiments::e01_log_ops`] |
//! | E2 | §5.1 checkpoints shorten recovery | [`experiments::e02_recovery`] |
//! | E3 | §5.3 state transfer for lagging processes | [`experiments::e03_state_transfer`] |
//! | E8 | §5.2 application checkpoints bound log growth | [`experiments::e08_log_growth`] |
//! | E11 | group-commit WAL: write ops per barrier | [`experiments::e11_storage`] |
//! | E12 | pipelined rounds vs depth W | [`experiments::e12_pipeline`] |
//! | E15 | socket cluster over a 2–5 ms link vs N and W | [`experiments::e15_cluster`] |
//! | E16 | segmented WAL rotation + compaction | [`experiments::e16_wal`] |
//!
//! Every experiment produces a [`Table`]; the `exp` binary runs one (or
//! `all`) through [`experiments::EXPERIMENTS`] and writes the `BENCH_*.json`
//! baseline of those that have one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod workload;

pub use report::Table;
