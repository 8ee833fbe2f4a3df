//! E16 — Segmented WAL: rotation + background compaction under load.
//!
//! The segmented rework of the WAL backend (active segment rotated at a
//! size threshold, sealed segments folded into a compacted base that a
//! background worker writes from the in-memory view) makes three promises
//! this experiment measures:
//!
//! * **flat fsyncs per message** — rotation adds one durability barrier
//!   per *segment* (plus at most one seal per compaction pass), not per
//!   commit, so the group-commit amortization is preserved as the message
//!   count sweeps 10³ → 10⁶;
//! * **bounded recovery reopen** — with checkpoints bounding the live
//!   state, compaction bounds the on-disk journal, so reopen (replay)
//!   time stops growing with history instead of scaling with every
//!   message ever committed;
//! * **no write-path rewrites** — forced background compaction adds a
//!   constant number of barriers per rotation or compaction pass over a
//!   run with compaction disabled: the write path only ever pays the O(1)
//!   seal.  The p99 group-commit latency is reported alongside.
//!
//! The workload is storage-level (no cluster): each message commits one
//! protocol-step-shaped `WriteBatch` (an agreed delta append, an
//! unordered-increment append, a round-slot store), and every
//! `CHECKPOINT_EVERY` messages a checkpoint batch overwrites the
//! snapshot slot, truncates both logs and calls `note_checkpoint` — the
//! hook the protocol's checkpoint task uses to nudge compaction.
//!
//! `exp e16` emits `BENCH_wal.json` so the repository carries the perf
//! trajectory.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use abcast_storage::{keys, StableStorage, StorageKey, WalStorage, WriteBatch};
use abcast_types::Round;

use crate::report::{fmt_f64, Table};

/// Group-commit window (matches the protocol's default).
const GROUP_WINDOW: usize = 8;
/// Messages per emulated checkpoint; bounds the live state, which is what
/// lets compaction bound the disk.
const CHECKPOINT_EVERY: usize = 64;
/// Segment size of the compacting runs — small enough that every sweep
/// point rotates and compacts many times.
const SEGMENT_BYTES: u64 = 16 * 1024;

/// One measured run: a message count × compaction mode.
#[derive(Clone, Debug)]
pub struct WalRow {
    /// `segmented` (rotation + background compaction forced) or
    /// `monolithic` (single journal, compaction disabled — the baseline).
    pub mode: &'static str,
    /// Messages committed.
    pub messages: usize,
    /// Durability barriers across the run.
    pub sync_ops: u64,
    /// Barriers per message — must stay flat across the sweep.
    pub syncs_per_msg: f64,
    /// Segment seals during the run.
    pub rotations: u64,
    /// Background compaction passes during the run.
    pub compactions: u64,
    /// Journal bytes on disk after the run (base + sealed + active).
    pub disk_bytes: u64,
    /// Median group-commit latency (µs).
    pub p50_commit_micros: u64,
    /// p99 group-commit latency (µs) — the stall detector.
    pub p99_commit_micros: u64,
    /// Wall-clock time to reopen (replay) the journal after the run.
    pub reopen_micros: u128,
}

fn temp_base(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "abcast-e16-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() * pct / 100).min(sorted.len() - 1);
    sorted[idx]
}

/// Runs one sweep point: `messages` protocol-step-shaped commits against a
/// WAL configured for `mode`, measuring barriers, latency percentiles and
/// the reopen cost afterwards.
fn measure(mode: &'static str, messages: usize) -> WalRow {
    let base = temp_base(&format!("{mode}-{messages}"));
    let _ = fs::remove_dir_all(&base);
    fs::create_dir_all(&base).expect("bench dir creates");
    let path = base.join("journal.wal");

    let storage = match mode {
        "segmented" => WalStorage::open(&path)
            .expect("wal opens")
            .with_group_window(GROUP_WINDOW)
            .with_segment_bytes(SEGMENT_BYTES)
            .with_compact_threshold(1), // clamped to the floor: compact eagerly
        _ => WalStorage::open(&path)
            .expect("wal opens")
            .with_group_window(GROUP_WINDOW)
            .with_segment_bytes(u64::MAX)
            .with_compact_threshold(u64::MAX),
    };

    let round_slot = StorageKey::new("abcast/k");
    let payload = vec![0xE1_u8; 32];
    let mut latencies = Vec::with_capacity(messages);
    for i in 0..messages {
        let mut batch = WriteBatch::new();
        batch.append(&keys::agreed_delta(), &payload);
        batch.append(&keys::unordered_incremental(), &payload);
        batch.store(&round_slot, &(i as u64).to_le_bytes());
        let started = Instant::now();
        storage.commit_batch(batch).expect("step batch commits");
        latencies.push(started.elapsed().as_micros() as u64);

        if (i + 1) % CHECKPOINT_EVERY == 0 {
            // The checkpoint task: the (k, Agreed) snapshot replaces the
            // delta log, the unordered log restarts, and the storage
            // learns the persisted round (the compaction nudge).
            let mut ckpt = WriteBatch::new();
            ckpt.store(&keys::agreed_checkpoint(), &payload);
            ckpt.remove(&keys::agreed_delta());
            ckpt.remove(&keys::unordered_incremental());
            storage.commit_batch(ckpt).expect("checkpoint commits");
            storage.note_checkpoint(Round::new(((i + 1) / CHECKPOINT_EVERY) as u64));
        }
    }
    storage.quiesce().expect("background compaction settles");

    let snapshot = storage.metrics().snapshot();
    let rotations = storage.rotations();
    let compactions = storage.compactions();
    let disk_bytes = storage.footprint_bytes();
    drop(storage);

    let started = Instant::now();
    let reopened = WalStorage::open(&path).expect("journal replays");
    let reopen_micros = started.elapsed().as_micros();
    assert_eq!(
        reopened
            .load(&round_slot)
            .expect("round slot loads")
            .expect("round slot exists")
            .as_ref(),
        ((messages - 1) as u64).to_le_bytes(),
        "replay must surface the last committed round"
    );
    drop(reopened);
    let _ = fs::remove_dir_all(&base);

    latencies.sort_unstable();
    WalRow {
        mode,
        messages,
        sync_ops: snapshot.sync_ops,
        syncs_per_msg: snapshot.sync_ops as f64 / messages as f64,
        rotations,
        compactions,
        disk_bytes,
        p50_commit_micros: percentile(&latencies, 50),
        p99_commit_micros: percentile(&latencies, 99),
        reopen_micros,
    }
}

/// Runs the sweep and returns one row per mode × message count.
pub fn run_rows(quick: bool) -> Vec<WalRow> {
    let sweep: &[usize] = if quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let mut rows = Vec::new();
    for &messages in sweep {
        rows.push(measure("segmented", messages));
        rows.push(measure("monolithic", messages));
    }
    rows
}

/// Renders measured rows as the E16 report table.
pub fn table_from_rows(rows: &[WalRow]) -> Table {
    let mut table = Table::new(
        "E16",
        "segmented WAL: rotation + background compaction under a message-count sweep",
        &[
            "mode",
            "messages",
            "fsyncs",
            "fsyncs / msg",
            "rotations",
            "compactions",
            "disk bytes",
            "p50 commit (µs)",
            "p99 commit (µs)",
            "reopen (µs)",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.mode.to_string(),
            row.messages.to_string(),
            row.sync_ops.to_string(),
            fmt_f64(row.syncs_per_msg),
            row.rotations.to_string(),
            row.compactions.to_string(),
            row.disk_bytes.to_string(),
            row.p50_commit_micros.to_string(),
            row.p99_commit_micros.to_string(),
            row.reopen_micros.to_string(),
        ]);
    }
    table.note(format!(
        "segmented = {SEGMENT_BYTES}-byte segments, minimum compaction threshold (compaction \
         forced); monolithic = one journal, compaction disabled (the pre-segmentation shape)"
    ));
    table.note(format!(
        "each message commits one protocol-step batch under a {GROUP_WINDOW}-commit group \
         window; every {CHECKPOINT_EVERY} messages a checkpoint batch truncates the logs and \
         note_checkpoint() nudges the compactor"
    ));
    table.note(
        "the three gated claims: fsyncs/msg flat across the sweep, segmented reopen bounded \
         (compaction bounds the disk), segmented fsyncs over monolithic bounded by a constant \
         per rotation + compaction (the write path never pays a rewrite, only the O(1) seal)",
    );
    table
}

/// Serializes the rows as the `BENCH_wal.json` baseline.
pub fn to_json(rows: &[WalRow], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"experiment\": \"E16\",");
    let _ = writeln!(
        out,
        "  \"title\": \"segmented WAL fsyncs/msg, commit latency and reopen time across a \
         message-count sweep\","
    );
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"group_window\": {GROUP_WINDOW},");
    let _ = writeln!(out, "  \"segment_bytes\": {SEGMENT_BYTES},");
    let _ = writeln!(out, "  \"checkpoint_every\": {CHECKPOINT_EVERY},");
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"mode\": \"{}\", \"messages\": {}, \"sync_ops\": {}, \
             \"syncs_per_msg\": {}, \"rotations\": {}, \"compactions\": {}, \
             \"disk_bytes\": {}, \"p50_commit_micros\": {}, \"p99_commit_micros\": {}, \
             \"reopen_micros\": {}}}",
            row.mode,
            row.messages,
            row.sync_ops,
            fmt_f64(row.syncs_per_msg),
            row.rotations,
            row.compactions,
            row.disk_bytes,
            row.p50_commit_micros,
            row.p99_commit_micros,
            row.reopen_micros,
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// The quick sweep, measured once and shared by every test.
    fn quick_rows() -> &'static [WalRow] {
        static ROWS: OnceLock<Vec<WalRow>> = OnceLock::new();
        ROWS.get_or_init(|| run_rows(true))
    }

    fn rows_of<'a>(rows: &'a [WalRow], mode: &str) -> Vec<&'a WalRow> {
        rows.iter().filter(|r| r.mode == mode).collect()
    }

    #[test]
    fn fsyncs_per_message_stay_flat_and_compaction_bounds_the_disk() {
        let rows = quick_rows();
        assert_eq!(rows.len(), 4);

        for mode in ["segmented", "monolithic"] {
            let of_mode = rows_of(rows, mode);
            let per_msg: Vec<f64> = of_mode.iter().map(|r| r.syncs_per_msg).collect();
            let (min, max) = per_msg
                .iter()
                .fold((f64::MAX, 0.0_f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            assert!(
                max <= min * 1.5,
                "{mode}: fsyncs/msg must stay flat across the sweep: {per_msg:?}"
            );
        }

        let segmented = rows_of(rows, "segmented");
        for row in &segmented {
            assert!(row.rotations > 0, "segmented rows must rotate: {row:?}");
            assert!(row.compactions > 0, "segmented rows must compact: {row:?}");
        }
        // Checkpoints bound the live state, compaction bounds the disk:
        // 10x the messages must not mean 10x the journal.
        let small = segmented[0].disk_bytes.max(1);
        let large = segmented[segmented.len() - 1].disk_bytes;
        assert!(
            large <= small * 4,
            "compaction must bound the journal: {small} -> {large} bytes"
        );
    }

    #[test]
    fn forced_compaction_adds_a_constant_number_of_barriers_per_seal() {
        // A rotation (a seal) pays at most two barriers — the pulled-forward
        // fsync and the directory barrier — and a compaction pass three:
        // the base's fsync, the rename's and the reap's directory barriers.
        // The committed baseline shows about 2 per event; a write path that
        // rewrote the journal or synced per record would blow through 3.
        let rows = quick_rows();
        let mono = rows_of(rows, "monolithic");
        for seg in rows_of(rows, "segmented") {
            let base = mono
                .iter()
                .find(|m| m.messages == seg.messages)
                .expect("every sweep point runs both modes");
            let extra = seg.sync_ops.saturating_sub(base.sync_ops);
            let events = seg.rotations + seg.compactions;
            assert!(
                extra <= 3 * events,
                "{} extra barriers for {events} rotations + compactions at {} messages: \
                 {seg:?} vs {base:?}",
                extra,
                seg.messages
            );
        }
    }
}
