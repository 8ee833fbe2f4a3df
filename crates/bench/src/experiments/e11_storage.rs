//! E11 — Group-commit WAL: stable-storage write operations per barrier.
//!
//! The paper's cost model says stable-storage barriers dominate.  This
//! experiment runs a broadcast load on the simulator over *real* (on-disk)
//! WAL files, for both protocol variants, and measures
//!
//! * **write ops per barrier** — the quantity group commit attacks: every
//!   store or append of a protocol step lands in one record group, and one
//!   fsync covers a window of group commits.  A backend that syncs every
//!   write pays exactly one barrier per write op, so this ratio is also how
//!   many times fewer fsyncs the WAL pays than such a backend;
//! * **recovery reopen time** — wall-clock time to reopen every process's
//!   WAL (replaying its journal) and rebuild the whole cluster from it, plus
//!   the rounds the protocol replays.
//!
//! `exp e11` asserts at least 3 write ops per barrier for both variants and
//! emits `BENCH_storage.json` so the repository carries a perf trajectory.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use abcast_core::{Cluster, ClusterConfig};
use abcast_storage::StorageRegistry;
use abcast_types::{ProcessId, ProtocolConfig, SimDuration};

use crate::report::{fmt_f64, Table};
use crate::workload::drive_load;

/// Processes in every measured cluster.
const PROCESSES: usize = 3;
/// Group-commit window of the WAL.
const WAL_GROUP_WINDOW: usize = 8;
/// Floor `run_rows` asserts on write ops per barrier, for every variant.
const MIN_WRITES_PER_BARRIER: f64 = 3.0;

/// One measured protocol variant.
#[derive(Clone, Debug)]
pub struct StorageRow {
    /// Protocol variant label (`basic` or `alternative`).
    pub variant: &'static str,
    /// Messages delivered at every process.
    pub messages: usize,
    /// Stable-storage write operations across the cluster during the load.
    pub write_ops: u64,
    /// Durability barriers (fsyncs) across the cluster during the load.
    pub sync_ops: u64,
    /// Barriers per delivered message per process.
    pub syncs_per_msg_per_proc: f64,
    /// Bytes written across the cluster during the load.
    pub bytes_written: u64,
    /// Wall-clock time to reopen all storages and reboot the cluster.
    pub recovery_reopen_micros: u128,
    /// Rounds replayed by process 0 during that recovery.
    pub replayed_rounds: u64,
}

impl StorageRow {
    /// Write operations per durability barrier — the headline metric.
    pub fn writes_per_barrier(&self) -> f64 {
        self.write_ops as f64 / self.sync_ops.max(1) as f64
    }
}

fn temp_base(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "abcast-e11-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn open_registry(base: &Path) -> StorageRegistry {
    StorageRegistry::wal_in(base, PROCESSES, WAL_GROUP_WINDOW).expect("wal registry opens")
}

/// Measures both protocol variants and asserts that each pays at least
/// `MIN_WRITES_PER_BARRIER` write ops per barrier.
pub fn run_rows(quick: bool) -> Vec<StorageRow> {
    let messages = if quick { 24 } else { 120 };
    let rows = vec![
        measure("basic", &ProtocolConfig::basic(), messages),
        measure("alternative", &ProtocolConfig::alternative(), messages),
    ];
    for row in &rows {
        let ratio = row.writes_per_barrier();
        assert!(
            ratio >= MIN_WRITES_PER_BARRIER,
            "group commit must cover ≥{MIN_WRITES_PER_BARRIER} write ops per barrier \
             (measured {ratio:.2} for {}, rows: {rows:?})",
            row.variant
        );
    }
    rows
}

/// Runs one protocol variant over a fresh WAL registry and measures it.
fn measure(variant: &'static str, protocol: &ProtocolConfig, messages: usize) -> StorageRow {
    let base = temp_base(variant);
    let _ = fs::remove_dir_all(&base);

    let config = ClusterConfig::basic(PROCESSES)
        .with_seed(1101)
        .with_protocol(protocol.clone());
    let mut cluster = Cluster::with_registry(config.clone(), open_registry(&base));
    let result = drive_load(
        &mut cluster,
        messages,
        32,
        SimDuration::from_millis(5),
        SimDuration::from_secs(60),
    );
    assert!(result.all_delivered, "E11 load must complete");
    drop(cluster);

    // Whole-deployment recovery: reopen every WAL (replaying its journal)
    // and reboot the cluster, which runs every process's recovery
    // procedure.
    let started = Instant::now();
    let recovered = Cluster::with_registry(config, open_registry(&base));
    let recovery_reopen_micros = started.elapsed().as_micros();
    let replayed_rounds = recovered
        .sim()
        .actor(ProcessId::new(0))
        .expect("process 0 rebooted")
        .metrics()
        .replayed_rounds_on_recovery;
    drop(recovered);
    let _ = fs::remove_dir_all(&base);

    StorageRow {
        variant,
        messages,
        write_ops: result.storage.write_ops(),
        sync_ops: result.storage.sync_ops,
        syncs_per_msg_per_proc: result.storage.sync_ops as f64
            / (messages as f64 * PROCESSES as f64),
        bytes_written: result.storage.bytes_written,
        recovery_reopen_micros,
        replayed_rounds,
    }
}

/// Renders measured rows as the E11 report table.
pub fn table_from_rows(rows: &[StorageRow]) -> Table {
    let mut table = Table::new(
        "E11",
        "group-commit WAL: write ops per barrier",
        &[
            "variant",
            "messages",
            "write ops",
            "fsyncs",
            "write ops / fsync",
            "fsyncs / msg / process",
            "bytes written",
            "recovery reopen (µs)",
            "replayed rounds",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.variant.to_string(),
            row.messages.to_string(),
            row.write_ops.to_string(),
            row.sync_ops.to_string(),
            fmt_f64(row.writes_per_barrier()),
            fmt_f64(row.syncs_per_msg_per_proc),
            row.bytes_written.to_string(),
            row.recovery_reopen_micros.to_string(),
            row.replayed_rounds.to_string(),
        ]);
    }
    table.note(format!(
        "one CRC-framed record group per protocol step, fsync amortized over \
         {WAL_GROUP_WINDOW} commits; a backend that syncs every write pays one fsync per \
         write op, so write ops / fsync is the factor the WAL saves over it"
    ));
    table.note(
        "unsynced WAL records still survive process crashes (the paper's failure model): \
         they are in the journal file, only an OS/machine failure can lose the last window",
    );
    table.note(
        "checkpoints are O(delta): the periodic (k, Agreed) write appends only the \
         messages delivered since the previous checkpoint",
    );
    table
}

/// Serializes the rows as the `BENCH_storage.json` baseline.
pub fn to_json(rows: &[StorageRow], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"E11\",");
    let _ = writeln!(
        out,
        "  \"title\": \"WAL write ops per barrier and recovery reopen time\","
    );
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"processes\": {PROCESSES},");
    let _ = writeln!(out, "  \"wal_group_window\": {WAL_GROUP_WINDOW},");
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"variant\": \"{}\", \"messages\": {}, \"write_ops\": {}, \
             \"sync_ops\": {}, \"write_ops_per_barrier\": {}, \"syncs_per_msg_per_proc\": {}, \
             \"bytes_written\": {}, \"recovery_reopen_micros\": {}, \"replayed_rounds\": {}}}",
            row.variant,
            row.messages,
            row.write_ops,
            row.sync_ops,
            fmt_f64(row.writes_per_barrier()),
            fmt_f64(row.syncs_per_msg_per_proc),
            row.bytes_written,
            row.recovery_reopen_micros,
            row.replayed_rounds,
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
    fn wal_group_commit_covers_at_least_3_write_ops_per_barrier() {
        // `run_rows` asserts the floor for both variants.
        let rows = run_rows(true);
        assert_eq!(rows.len(), 2);
        let table = table_from_rows(&rows);
        assert_eq!(table.rows.len(), 2);
        let json = to_json(&rows, true);
        assert!(json.contains("\"experiment\": \"E11\""));
        assert_eq!(json.matches("\"variant\"").count(), 2);
    }
}
