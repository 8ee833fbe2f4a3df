//! E11 — Storage backends: group-commit WAL vs per-operation file storage.
//!
//! The paper's cost model says stable-storage barriers dominate.  This
//! experiment runs the same broadcast load over two *real* (on-disk)
//! storage backends and measures
//!
//! * **fsyncs per delivered message per process** — the quantity group
//!   commit attacks: the seed-style file backend pays one barrier per log
//!   operation, the WAL funnels each protocol step's writes into one
//!   record group and amortizes the fsync over a window of commits;
//! * **recovery reopen time** — wall-clock time to reopen every process's
//!   storage (for the WAL: replay the journal) and rebuild the whole
//!   cluster from it, plus the rounds the protocol replays.
//!
//! `exp e11` additionally emits `BENCH_storage.json` so the repository
//! carries a perf trajectory for future changes.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use abcast_core::{Cluster, ClusterConfig};
use abcast_storage::{FileStorage, SharedStorage, StorageRegistry};
use abcast_types::{ProcessId, ProtocolConfig, SimDuration};

use crate::report::{fmt_f64, Table};
use crate::workload::drive_load;

/// Processes in every measured cluster.
const PROCESSES: usize = 3;
/// Group-commit window used for the WAL rows.
const WAL_GROUP_WINDOW: usize = 8;

/// One measured backend × protocol-variant combination.
#[derive(Clone, Debug)]
pub struct StorageRow {
    /// Backend label (`file` or `wal`).
    pub backend: &'static str,
    /// Protocol variant label (`basic` or `alternative`).
    pub variant: &'static str,
    /// Messages delivered at every process.
    pub messages: usize,
    /// Stable-storage write operations across the cluster during the load.
    pub write_ops: u64,
    /// Durability barriers (fsyncs) across the cluster during the load.
    pub sync_ops: u64,
    /// Barriers per delivered message per process — the headline metric.
    pub syncs_per_msg_per_proc: f64,
    /// Bytes written across the cluster during the load.
    pub bytes_written: u64,
    /// Wall-clock time to reopen all storages and reboot the cluster.
    pub recovery_reopen_micros: u128,
    /// Rounds replayed by process 0 during that recovery.
    pub replayed_rounds: u64,
}

enum Backend {
    File,
    /// The file backend with batch-commit sync coalescing disabled: every
    /// operation of a step's batch pays its own barrier (the seed
    /// behaviour).  Measured so the coalescing win is visible in the same
    /// table.
    FilePerOp,
    Wal,
}

impl Backend {
    fn label(&self) -> &'static str {
        match self {
            Backend::File => "file",
            Backend::FilePerOp => "file-perop",
            Backend::Wal => "wal",
        }
    }

    fn open(&self, base: &PathBuf) -> StorageRegistry {
        match self {
            Backend::File => {
                StorageRegistry::file_in(base, PROCESSES).expect("file registry opens")
            }
            Backend::FilePerOp => {
                let stores = (0..PROCESSES)
                    .map(|i| {
                        FileStorage::open(base.join(format!("p{i}")))
                            .map(|s| std::sync::Arc::new(s.with_per_op_batches()) as SharedStorage)
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .expect("file registry opens");
                StorageRegistry::new(stores)
            }
            Backend::Wal => StorageRegistry::wal_in(base, PROCESSES, WAL_GROUP_WINDOW)
                .expect("wal registry opens"),
        }
    }
}

fn temp_base(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "abcast-e11-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Runs the measurement matrix and returns one row per combination.
///
/// Besides the historical `file`/`wal` × `basic`/`alternative` cluster
/// grid (sequential rounds, tracked since PR 2), the matrix holds two
/// `release-w8` rows: a storage-level microbench (no cluster) that commits
/// the write shape of a log-burst step directly against the batch-aware
/// file backend and against its per-op twin — see
/// [`measure_release_batches`].
pub fn run_rows(quick: bool) -> Vec<StorageRow> {
    let messages = if quick { 24 } else { 120 };
    let variants: [(&'static str, ProtocolConfig); 2] = [
        ("basic", ProtocolConfig::basic()),
        ("alternative", ProtocolConfig::alternative()),
    ];
    let mut rows = Vec::new();
    for backend in [Backend::FilePerOp, Backend::File] {
        rows.push(measure_release_batches(&backend, messages));
    }
    for backend in [Backend::File, Backend::Wal] {
        for (variant, protocol) in &variants {
            rows.push(measure(&backend, variant, protocol, messages));
        }
    }
    rows
}

/// Rounds released by one microbench step.
const RELEASE_DEPTH: usize = 8;

/// Measures the write shape of a *log-burst step* directly against one
/// storage (no cluster): each step commits, as ONE batch, a run of
/// per-round appends — one `(k, Agreed)` delta record and one `Unordered`
/// increment per released round, `W = 8` rounds — closed by a single slot
/// store.  The per-op backend pays a barrier for every append; the
/// batch-aware backend syncs each dirty *file* once when the run ends
/// (flushing before the store, so prefix durability is preserved), which
/// is the coalescing this PR adds.
fn measure_release_batches(backend: &Backend, messages: usize) -> StorageRow {
    use abcast_storage::{keys, StorageKey, WriteBatch};
    let base = temp_base(&format!("{}-release", backend.label()));
    let _ = fs::remove_dir_all(&base);
    let registry = backend.open(&base);
    let storage = registry
        .storage_for(ProcessId::new(0))
        .expect("registry covers process 0");
    let steps = messages / RELEASE_DEPTH;
    let payload = vec![0xCD_u8; 32];
    for step in 0..steps {
        let mut batch = WriteBatch::new();
        for _ in 0..RELEASE_DEPTH {
            batch.append(&keys::agreed_delta(), &payload);
            batch.append(&keys::unordered_incremental(), &payload);
        }
        batch.store(
            &StorageKey::new(format!("abcast/proposed/{step}")),
            &payload,
        );
        storage
            .commit_batch(batch)
            .expect("release batch commits");
    }
    let snapshot = storage.metrics().snapshot();
    let row = StorageRow {
        backend: backend.label(),
        variant: "release-w8",
        messages,
        write_ops: snapshot.store_ops + snapshot.append_ops,
        sync_ops: snapshot.sync_ops,
        syncs_per_msg_per_proc: snapshot.sync_ops as f64 / messages as f64,
        bytes_written: snapshot.bytes_written,
        recovery_reopen_micros: 0,
        replayed_rounds: 0,
    };
    drop(storage);
    let _ = fs::remove_dir_all(&base);
    row
}

/// Runs one backend × protocol combination and measures it.
fn measure(
    backend: &Backend,
    variant: &'static str,
    protocol: &ProtocolConfig,
    messages: usize,
) -> StorageRow {
    let base = temp_base(&format!("{}-{variant}", backend.label()));
    let _ = fs::remove_dir_all(&base);

    let config = ClusterConfig::basic(PROCESSES)
        .with_seed(1101)
        .with_protocol(protocol.clone());
    let mut cluster = Cluster::with_registry(config.clone(), backend.open(&base));
    let result = drive_load(
        &mut cluster,
        messages,
        32,
        SimDuration::from_millis(5),
        SimDuration::from_secs(60),
    );
    assert!(result.all_delivered, "E11 load must complete");
    drop(cluster);

    // Whole-deployment recovery: reopen every storage (the WAL
    // replays its journal here) and reboot the cluster, which runs
    // every process's recovery procedure.
    let started = Instant::now();
    let recovered = Cluster::with_registry(config, backend.open(&base));
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
        backend: backend.label(),
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
        "storage backends: group-commit WAL vs per-op file syncs",
        &[
            "backend",
            "variant",
            "messages",
            "write ops",
            "fsyncs",
            "fsyncs / msg / process",
            "bytes written",
            "recovery reopen (µs)",
            "replayed rounds",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.backend.to_string(),
            row.variant.to_string(),
            row.messages.to_string(),
            row.write_ops.to_string(),
            row.sync_ops.to_string(),
            fmt_f64(row.syncs_per_msg_per_proc),
            row.bytes_written.to_string(),
            row.recovery_reopen_micros.to_string(),
            row.replayed_rounds.to_string(),
        ]);
    }
    table.note(format!(
        "file = one sync_data per store/append (plus tmp+rename per slot), the seed behaviour; \
         wal = one CRC-framed record group per protocol step, fsync amortized over {WAL_GROUP_WINDOW} commits"
    ));
    table.note(
        "unsynced WAL records still survive process crashes (the paper's failure model): \
         they are in the journal file, only an OS/machine failure can lose the last window",
    );
    table.note(
        "checkpoints are O(delta) on both backends: the periodic (k, Agreed) write appends \
         only the messages delivered since the previous checkpoint",
    );
    table.note(format!(
        "release-w8 commits a log-burst step (a run of {RELEASE_DEPTH} delta + {RELEASE_DEPTH} \
         unordered appends, then one slot store) as one batch; file-perop pays a barrier per \
         append, file (batch-aware) syncs each dirty file once per run, flushed before the \
         store so prefix durability is preserved"
    ));
    table
}

/// Serializes the rows as the `BENCH_storage.json` baseline.
pub fn to_json(rows: &[StorageRow], quick: bool) -> String {
    let ratio = syncs_ratio(rows, "alternative");
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"E11\",");
    let _ = writeln!(
        out,
        "  \"title\": \"fsyncs per delivered message and recovery reopen time, file vs WAL\","
    );
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"processes\": {PROCESSES},");
    let _ = writeln!(out, "  \"wal_group_window\": {WAL_GROUP_WINDOW},");
    let _ = writeln!(
        out,
        "  \"alternative_fsync_ratio_file_over_wal\": {},",
        fmt_f64(ratio.unwrap_or(0.0))
    );
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"backend\": \"{}\", \"variant\": \"{}\", \"messages\": {}, \
             \"write_ops\": {}, \"sync_ops\": {}, \"syncs_per_msg_per_proc\": {}, \
             \"bytes_written\": {}, \"recovery_reopen_micros\": {}, \"replayed_rounds\": {}}}",
            row.backend,
            row.variant,
            row.messages,
            row.write_ops,
            row.sync_ops,
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

/// `file syncs-per-message / wal syncs-per-message` for one variant.
pub fn syncs_ratio(rows: &[StorageRow], variant: &str) -> Option<f64> {
    let per_msg = |backend: &str| {
        rows.iter()
            .find(|r| r.backend == backend && r.variant == variant)
            .map(|r| r.syncs_per_msg_per_proc)
    };
    match (per_msg("file"), per_msg("wal")) {
        (Some(file), Some(wal)) if wal > 0.0 => Some(file / wal),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_group_commit_cuts_fsyncs_at_least_3x_for_the_alternative_variant() {
        let rows = run_rows(true);
        assert_eq!(rows.len(), 6);
        let ratio = syncs_ratio(&rows, "alternative")
            .expect("both backends measured for the alternative variant");
        assert!(
            ratio >= 3.0,
            "acceptance criterion: fsyncs/msg must drop ≥3x on the WAL backend \
             (measured {ratio:.2}x, rows: {rows:?})"
        );
        // The table and the JSON baseline render without panicking and
        // carry every row.
        let table = table_from_rows(&rows);
        assert_eq!(table.rows.len(), 6);
        let json = to_json(&rows, true);
        assert!(json.contains("\"experiment\": \"E11\""));
        assert_eq!(json.matches("\"backend\"").count(), 6);
    }

    #[test]
    fn batch_aware_file_backend_coalesces_release_step_fsyncs_at_least_2x() {
        let rows = run_rows(true);
        let per_msg = |backend: &str| {
            rows.iter()
                .find(|r| r.backend == backend && r.variant == "release-w8")
                .map(|r| r.syncs_per_msg_per_proc)
                .expect("release-w8 measured for both file backends")
        };
        let ratio = per_msg("file-perop") / per_msg("file");
        assert!(
            ratio >= 2.0,
            "coalescing must cut the release-step fsyncs at least 2x \
             (measured {ratio:.2}x, rows: {rows:?})"
        );
    }
}
