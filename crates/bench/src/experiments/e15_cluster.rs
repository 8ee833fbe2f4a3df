//! E15 — Pipeline depth on real sockets: delivered throughput, delivery
//! latency and durability cost vs N and W over a 2–5 ms delayed link.
//!
//! `tests/protocol_costs.rs` pins the pipelining speedup in virtual time
//! under the simulator's 2–5 ms link.  This experiment brings that link to
//! loopback TCP via [`LinkPolicy::delayed`] (frames held on the poller's
//! timer wheel) and measures the same bounded-batch workload
//! (`max_batch = 4`) for
//! `N ∈ {3, 5, 7, 9}` and `W ∈ {1, 4}`: delivered msgs/s, observed p50/p99
//! A-broadcast → A-deliver latency and durability barriers per delivered
//! message (summed `sync_ops` across every store).  The link delay, not
//! the CPU path, dominates each round here, which is the regime where the
//! `W = 1 → 4` ratio shows on a real wire.  `exp e15` emits
//! `BENCH_cluster.json`.

use std::fmt::Write as _;
use std::time::Duration;

use abcast_core::{ClusterConfig, TcpCluster};
use abcast_net::tcp::{LinkPolicy, TcpConfig};
use abcast_storage::StorageRegistry;
use abcast_types::{BatchingPolicy, ProtocolConfig};

use crate::report::{fmt_f64, Table};
use crate::workload::drive_socket_load;

/// Messages proposed to one consensus instance (as in the simulated
/// pipelining test).
const MAX_BATCH: usize = 4;
/// Seed for every measured deployment.
const SEED: u64 = 1501;

/// One measured `(N, W)` cell.
#[derive(Clone, Debug)]
pub struct ClusterRow {
    /// Cluster size N.
    pub processes: usize,
    /// Pipeline depth W.
    pub depth: u64,
    /// Messages delivered at every process.
    pub messages: usize,
    /// Delivered messages per wall-clock second.
    pub throughput_msgs_per_sec: f64,
    /// Mean observed A-broadcast → A-deliver latency at process 0 (ms).
    pub mean_latency_ms: f64,
    /// Median observed latency (ms).
    pub p50_latency_ms: f64,
    /// 99th-percentile observed latency (ms).
    pub p99_latency_ms: f64,
    /// Durability barriers across all N stores over the whole run.
    pub fsyncs: u64,
    /// Durability barriers per delivered message (`fsyncs / messages`).
    pub fsyncs_per_msg: f64,
    /// Frames lost to the fair-lossy stream (0 on a healthy run).
    pub frames_dropped: u64,
    /// Partial frames discarded at teardown (0 on a healthy run).
    pub torn_frames: u64,
}

/// The pipeline depths swept (both modes — W is the money column).
const DEPTHS: [u64; 2] = [1, 4];

/// The simulator's 2–5 ms link band, applied per hop on real sockets.
fn delayed_link() -> LinkPolicy {
    LinkPolicy::delayed(Duration::from_millis(2), Duration::from_millis(5))
}

fn protocol_for(depth: u64) -> ProtocolConfig {
    ProtocolConfig::basic()
        .with_batching(BatchingPolicy::EarlyReturn { max_batch: MAX_BATCH })
        .with_pipeline_depth(depth)
}

/// Runs one `(N, W)` cell and returns its row.
fn run_cell(n: usize, depth: u64, messages: usize) -> ClusterRow {
    let config = ClusterConfig::basic(n)
        .with_seed(SEED)
        .with_protocol(protocol_for(depth));
    let storage = StorageRegistry::in_memory(n);
    let tcp = TcpConfig::default()
        .with_seed(SEED)
        .with_link(delayed_link());
    let mut cluster = TcpCluster::with_registry_and_tcp(config, storage, tcp)
        .expect("loopback listeners must bind");
    let result = drive_socket_load(
        &mut cluster,
        messages,
        32,
        Duration::from_micros(500),
        Duration::from_secs(120),
    );
    assert!(
        result.all_delivered,
        "E15 load must complete (N = {n}, W = {depth})"
    );
    assert_eq!(
        cluster.decode_failures(),
        0,
        "healthy streams never produce undecodable frames"
    );
    let fsyncs: u64 = cluster
        .storage()
        .iter()
        .map(|(_, store)| store.metrics().snapshot().sync_ops)
        .sum();
    let tcp_snapshot = cluster.runtime().tcp_metrics().snapshot();
    cluster.shutdown();
    ClusterRow {
        processes: n,
        depth,
        messages,
        throughput_msgs_per_sec: result.throughput_msgs_per_sec,
        mean_latency_ms: result.mean_latency_ms,
        p50_latency_ms: result.p50_latency_ms,
        p99_latency_ms: result.p99_latency_ms,
        fsyncs,
        fsyncs_per_msg: fsyncs as f64 / messages as f64,
        frames_dropped: tcp_snapshot.frames_dropped,
        torn_frames: tcp_snapshot.torn_frames,
    }
}

/// Runs the full measurement matrix and returns one row per cell:
/// `N ∈ {3, 5}` in quick mode, `N ∈ {3, 5, 7, 9}` in full mode.
pub fn run_rows(quick: bool) -> Vec<ClusterRow> {
    let (sizes, messages): (&[usize], usize) = if quick {
        (&[3, 5], 24)
    } else {
        (&[3, 5, 7, 9], 96)
    };
    let mut rows = Vec::new();
    for &n in sizes {
        for depth in DEPTHS {
            rows.push(run_cell(n, depth, messages));
        }
    }
    rows
}

/// Renders measured rows as the E15 report table.
pub fn table_from_rows(rows: &[ClusterRow]) -> Table {
    let mut table = Table::new(
        "E15",
        "pipeline depth on real sockets over a 2-5 ms delayed link: throughput, latency and fsyncs vs N and W",
        &[
            "N",
            "W",
            "messages",
            "msgs/s",
            "p50 (ms)",
            "p99 (ms)",
            "fsyncs/msg",
            "frames dropped",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.processes.to_string(),
            row.depth.to_string(),
            row.messages.to_string(),
            fmt_f64(row.throughput_msgs_per_sec),
            fmt_f64(row.p50_latency_ms),
            fmt_f64(row.p99_latency_ms),
            fmt_f64(row.fsyncs_per_msg),
            row.frames_dropped.to_string(),
        ]);
    }
    table.note(
        "every hop is delayed 2-5 ms via LinkPolicy (the simulated pipelining test's link), so \
         these rows are the socket twin of the simulated W-scaling test",
    );
    table
}

/// Serializes the rows as the `BENCH_cluster.json` baseline.
pub fn to_json(rows: &[ClusterRow], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"E15\",");
    let _ = writeln!(
        out,
        "  \"title\": \"pipeline depth on real sockets over a 2-5 ms delayed link: delivered msgs/sec, p50/p99 latency and fsyncs/msg vs N and W\","
    );
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"link\": \"delayed_2_5ms\",");
    let _ = writeln!(out, "  \"max_batch\": {MAX_BATCH},");
    let _ = writeln!(out, "  \"seed\": {SEED},");
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"processes\": {}, \"pipeline_depth\": {}, \
             \"messages\": {}, \"throughput_msgs_per_sec\": {}, \
             \"mean_latency_ms\": {}, \"p50_latency_ms\": {}, \"p99_latency_ms\": {}, \
             \"fsyncs\": {}, \"fsyncs_per_msg\": {}, \
             \"frames_dropped\": {}, \"torn_frames\": {}}}",
            row.processes,
            row.depth,
            row.messages,
            fmt_f64(row.throughput_msgs_per_sec),
            fmt_f64(row.mean_latency_ms),
            fmt_f64(row.p50_latency_ms),
            fmt_f64(row.p99_latency_ms),
            row.fsyncs,
            fmt_f64(row.fsyncs_per_msg),
            row.frames_dropped,
            row.torn_frames,
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
    fn a_delayed_cell_shows_the_link_in_its_latency() {
        let row = run_cell(3, 4, 12);
        // One delivery crosses at least one 2-5 ms hop (proposal or ack),
        // so the median cannot sit at loopback's tens of microseconds.
        assert!(
            row.p50_latency_ms >= 1.0,
            "a 2-5 ms link must show up in delivery latency: {row:?}"
        );
        assert!(row.fsyncs > 0, "consensus must pay durability barriers: {row:?}");
        let table = table_from_rows(std::slice::from_ref(&row));
        assert_eq!(table.rows.len(), 1);
        let json = to_json(std::slice::from_ref(&row), true);
        assert!(json.contains("\"experiment\": \"E15\""));
    }
}
