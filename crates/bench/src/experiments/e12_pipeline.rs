//! E12 — Pipelined consensus rounds: delivered throughput and rounds in
//! flight as a function of the pipeline depth `W`.
//!
//! With PR 2's group-commit WAL the stable-storage barriers no longer
//! dominate; the critical path is the strictly sequential round loop — a
//! process sits idle between "round `k` decided" and "round `k + 1`
//! proposed" for a full consensus latency.  Pipelining opens instances
//! `k .. k + W` concurrently (decided batches still apply strictly in
//! round order), so under link latency the rounds overlap and delivered
//! messages per second scale until the window or the workload saturates.
//!
//! The experiment drives the same bounded-batch load (`max_batch = 4`, so
//! batching cannot absorb the backlog that pipelining is meant to drain)
//! over a latency-dominated link for `W ∈ {1, 2, 4, 8}`, for both logging
//! variants, and reports throughput, latency, the observed peak of
//! rounds-in-flight and the fsync cost (which must not change with `W`).
//! `exp e12` emits `BENCH_pipeline.json` so the repository carries the
//! pipelining perf baseline.

use std::fmt::Write as _;

use abcast_core::{Cluster, ClusterConfig};
use abcast_net::LinkConfig;
use abcast_types::{BatchingPolicy, ProcessId, ProtocolConfig, SimDuration};

use crate::report::{fmt_f64, Table};
use crate::workload::drive_load;

/// Processes in every measured cluster.
const PROCESSES: usize = 3;
/// Messages proposed to one consensus instance — kept small so the round
/// rate, not the batch size, carries the load.
const MAX_BATCH: usize = 4;

/// One measured variant × pipeline-depth combination.
#[derive(Clone, Debug)]
pub struct PipelineRow {
    /// Protocol variant label (`basic` or `alternative`).
    pub variant: &'static str,
    /// Pipeline depth `W`.
    pub depth: u64,
    /// Messages delivered at every process.
    pub messages: usize,
    /// Delivered messages per virtual second.
    pub throughput_msgs_per_sec: f64,
    /// Mean A-broadcast → A-deliver latency at the sender (ms).
    pub mean_latency_ms: f64,
    /// Ordering rounds completed at process 0.
    pub rounds: u64,
    /// Peak rounds simultaneously in flight, max over all processes.
    pub max_rounds_in_flight: u64,
    /// Durability barriers per delivered message per process.  Pipelining
    /// reorders deciding, not logging, so this stays in the same regime
    /// across depths — it creeps up slightly at large `W` only because
    /// deeper windows run more (hence emptier) rounds for the same load.
    pub syncs_per_msg_per_proc: f64,
}

/// The depth sweep: `{1, 4}` in quick mode, `{1, 2, 4, 8}` in full mode.
pub fn depths(quick: bool) -> &'static [u64] {
    if quick {
        &[1, 4]
    } else {
        &[1, 2, 4, 8]
    }
}

/// A link whose latency dominates the round trip: the regime in which the
/// sequential round loop leaves the process idle between rounds.
fn latency_link() -> LinkConfig {
    LinkConfig::lan().with_delay(SimDuration::from_millis(2), SimDuration::from_millis(5))
}

fn protocol_for(variant: &str, depth: u64) -> ProtocolConfig {
    let base = match variant {
        "basic" => ProtocolConfig::basic(),
        _ => ProtocolConfig::alternative(),
    };
    base.with_batching(BatchingPolicy::EarlyReturn { max_batch: MAX_BATCH })
        .with_pipeline_depth(depth)
}

/// Runs the measurement matrix and returns one row per combination.
pub fn run_rows(quick: bool) -> Vec<PipelineRow> {
    let messages = if quick { 24 } else { 96 };
    let mut rows = Vec::new();
    for variant in ["basic", "alternative"] {
        for &depth in depths(quick) {
            let config = ClusterConfig::basic(PROCESSES)
                .with_seed(1201)
                .with_link(latency_link())
                .with_protocol(protocol_for(variant, depth));
            let mut cluster = Cluster::new(config);
            let result = drive_load(
                &mut cluster,
                messages,
                32,
                SimDuration::from_micros(500),
                SimDuration::from_secs(60),
            );
            assert!(result.all_delivered, "E12 load must complete (W = {depth})");
            let max_in_flight = cluster
                .processes()
                .iter()
                .filter_map(|p| cluster.sim().actor(p))
                .map(|a| a.metrics().max_rounds_in_flight)
                .max()
                .unwrap_or(0);
            let rounds = cluster
                .sim()
                .actor(ProcessId::new(0))
                .map(|a| a.metrics().rounds_completed)
                .unwrap_or(0);
            rows.push(PipelineRow {
                variant,
                depth,
                messages,
                throughput_msgs_per_sec: result.throughput_msgs_per_sec,
                mean_latency_ms: result.mean_latency_ms,
                rounds,
                max_rounds_in_flight: max_in_flight,
                syncs_per_msg_per_proc: result.storage.sync_ops as f64
                    / (messages as f64 * PROCESSES as f64),
            });
        }
    }
    rows
}

/// Renders measured rows as the E12 report table.
pub fn table_from_rows(rows: &[PipelineRow]) -> Table {
    let mut table = Table::new(
        "E12",
        "pipelined consensus: throughput and rounds in flight vs depth W",
        &[
            "variant",
            "W",
            "messages",
            "delivered msgs/s",
            "mean latency (ms)",
            "rounds",
            "max rounds in flight",
            "fsyncs / msg / process",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.variant.to_string(),
            row.depth.to_string(),
            row.messages.to_string(),
            fmt_f64(row.throughput_msgs_per_sec),
            fmt_f64(row.mean_latency_ms),
            row.rounds.to_string(),
            row.max_rounds_in_flight.to_string(),
            fmt_f64(row.syncs_per_msg_per_proc),
        ]);
    }
    table.note(format!(
        "load is bounded-batch (max_batch = {MAX_BATCH}) over a 2-5 ms link, so the \
         sequential round loop, not batching, is the bottleneck being attacked"
    ));
    table.note(
        "W = 1 is the paper's sequential protocol; decided batches always apply in \
         round order, so every depth delivers the same sequence",
    );
    table
}

/// `throughput(W = at) / throughput(W = 1)` for one variant.
pub fn speedup(rows: &[PipelineRow], variant: &str, at: u64) -> Option<f64> {
    let throughput = |depth: u64| {
        rows.iter()
            .find(|r| r.variant == variant && r.depth == depth)
            .map(|r| r.throughput_msgs_per_sec)
    };
    match (throughput(1), throughput(at)) {
        (Some(base), Some(deep)) if base > 0.0 => Some(deep / base),
        _ => None,
    }
}

/// Serializes the rows as the `BENCH_pipeline.json` baseline.
pub fn to_json(rows: &[PipelineRow], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"E12\",");
    let _ = writeln!(
        out,
        "  \"title\": \"delivered msgs/sec and rounds in flight vs pipeline depth W\","
    );
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"processes\": {PROCESSES},");
    let _ = writeln!(out, "  \"max_batch\": {MAX_BATCH},");
    for variant in ["basic", "alternative"] {
        let _ = writeln!(
            out,
            "  \"{variant}_speedup_w4_over_w1\": {},",
            fmt_f64(speedup(rows, variant, 4).unwrap_or(0.0))
        );
    }
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"variant\": \"{}\", \"pipeline_depth\": {}, \"messages\": {}, \
             \"throughput_msgs_per_sec\": {}, \"mean_latency_ms\": {}, \"rounds\": {}, \
             \"max_rounds_in_flight\": {}, \"syncs_per_msg_per_proc\": {}}}",
            row.variant,
            row.depth,
            row.messages,
            fmt_f64(row.throughput_msgs_per_sec),
            fmt_f64(row.mean_latency_ms),
            row.rounds,
            row.max_rounds_in_flight,
            fmt_f64(row.syncs_per_msg_per_proc),
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelining_speeds_up_delivery_at_least_1_5x_at_depth_4() {
        let rows = run_rows(true);
        assert_eq!(rows.len(), 4);
        for variant in ["basic", "alternative"] {
            let speedup = speedup(&rows, variant, 4)
                .expect("both depths measured for every variant");
            assert!(
                speedup >= 1.5,
                "acceptance criterion: W = 4 must deliver ≥1.5x msgs/sec over W = 1 \
                 for the {variant} variant (measured {speedup:.2}x, rows: {rows:?})"
            );
        }
        // The pipeline actually filled, and the sequential run never ran
        // ahead of itself.
        for row in &rows {
            if row.depth == 1 {
                assert_eq!(row.max_rounds_in_flight, 1, "{row:?}");
            } else {
                assert!(row.max_rounds_in_flight > 1, "{row:?}");
            }
        }
        // The table and the JSON baseline render and carry every row.
        let table = table_from_rows(&rows);
        assert_eq!(table.rows.len(), 4);
        let json = to_json(&rows, true);
        assert!(json.contains("\"experiment\": \"E12\""));
        assert_eq!(json.matches("\"pipeline_depth\"").count(), 4);
    }
}
