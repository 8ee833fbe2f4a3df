//! Workspace integration tests for the write-batching durability
//! subsystem: the protocol stack running over the group-committed WAL
//! backend, crash edges included, must preserve the four broadcast
//! properties and the O(delta) checkpoint behaviour end to end,
//! application checkpoints must bound the stable-storage footprint
//! (Section 5.2), and the segmented WAL must keep barriers per message
//! flat and the journal bounded as history grows.

mod support;

use crash_recovery_abcast::core::{Cluster, ClusterConfig};
use crash_recovery_abcast::storage::{keys, StableStorage, StorageKey};
use crash_recovery_abcast::{
    ProcessId, ProtocolConfig, Round, SimDuration, StorageRegistry, WalStorage, WriteBatch,
};
use support::bounded;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn temp_base(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "abcast-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The alternative protocol over the WAL backend, with crashes and
/// recoveries mid-load: every delivered message is delivered everywhere in
/// the same order (Validity, Integrity, Total Order, Termination).
#[test]
fn wal_backend_preserves_broadcast_properties_across_crashes() {
    let base = temp_base("properties");
    let registry = StorageRegistry::wal_in(&base, 3, 8).expect("wal registry opens");
    let mut cluster = Cluster::with_registry(
        ClusterConfig::alternative(3).with_seed(71),
        registry,
    );

    let mut ids = Vec::new();
    for i in 0..8 {
        ids.extend(cluster.broadcast(p(i % 3), vec![i as u8; 16]));
        cluster.run_for(SimDuration::from_millis(8));
    }
    // Crash p2, keep the load going, recover it.
    cluster.sim_mut().crash_now(p(2));
    for i in 8..16 {
        ids.extend(cluster.broadcast(p(i % 2), vec![i as u8; 16]));
        cluster.run_for(SimDuration::from_millis(8));
    }
    cluster.sim_mut().recover_now(p(2));

    let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
    assert!(
        cluster.run_until_delivered(&everyone, &ids, cluster.now() + SimDuration::from_secs(120)),
        "every process must deliver every message over the WAL backend"
    );
    cluster.assert_properties();

    let reference = cluster.delivered(p(0));
    for q in [p(1), p(2)] {
        assert_eq!(cluster.delivered(q), reference, "sequences differ at {q}");
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A whole-deployment restart over the same WAL files: every journal is
/// replayed (torn-tail-tolerant open) and the recovered cluster still
/// agrees on the full sequence, then keeps ordering new messages.
#[test]
fn whole_deployment_restart_replays_wal_journals() {
    let base = temp_base("restart");
    let config = ClusterConfig::alternative(3).with_seed(72);
    let mut ids = Vec::new();
    {
        let registry = StorageRegistry::wal_in(&base, 3, 4).expect("wal registry opens");
        let mut cluster = Cluster::with_registry(config.clone(), registry);
        for i in 0..10 {
            ids.extend(cluster.broadcast(p(i % 3), vec![i as u8; 8]));
            cluster.run_for(SimDuration::from_millis(8));
        }
        let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
        assert!(cluster.run_until_delivered(
            &everyone,
            &ids,
            cluster.now() + SimDuration::from_secs(60)
        ));
        // Let the checkpoint task persist (k, Agreed) snapshots/deltas.
        cluster.run_for(SimDuration::from_millis(500));
    } // crash of the whole deployment: every handle dropped

    let registry = StorageRegistry::wal_in(&base, 3, 4).expect("journals replay on reopen");
    let mut cluster = Cluster::with_registry(config, registry);
    for (i, q) in [p(0), p(1), p(2)].iter().enumerate() {
        let delivered = cluster.delivered(*q);
        assert!(
            !delivered.is_empty(),
            "process {i} must recover its delivery sequence from the journal"
        );
    }

    // The recovered deployment keeps working, and after the new message
    // settles every process agrees on one sequence covering both eras.
    // (The fresh harness cannot run the Validity check against the first
    // deployment's broadcasts — it never saw them — so agreement is
    // checked pairwise.)
    let more = cluster.broadcast(p(0), b"after-restart".to_vec()).unwrap();
    let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
    let mut all_ids = ids.clone();
    all_ids.push(more);
    assert!(cluster.run_until_delivered(
        &everyone,
        &all_ids,
        cluster.now() + SimDuration::from_secs(120)
    ));
    let reference = cluster.delivered(p(0));
    assert!(reference.iter().any(|m| m.id() == more));
    for q in [p(1), p(2)] {
        assert_eq!(cluster.delivered(q), reference, "sequences differ at {q}");
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Corrupting the tail of one process's journal (a torn group-commit
/// write) must only cost that process its un-checkpointed suffix — it
/// recovers to a consistent prefix and catches back up via the protocol.
#[test]
fn torn_journal_tail_recovers_to_a_prefix_and_catches_up() {
    let base = temp_base("torn");
    let config = ClusterConfig::alternative(3).with_seed(73);
    let mut ids = Vec::new();
    {
        let registry = StorageRegistry::wal_in(&base, 3, 4).expect("wal registry opens");
        let mut cluster = Cluster::with_registry(config.clone(), registry);
        for i in 0..8 {
            ids.extend(cluster.broadcast(p(i % 3), vec![i as u8; 8]));
            cluster.run_for(SimDuration::from_millis(8));
        }
        let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
        assert!(cluster.run_until_delivered(
            &everyone,
            &ids,
            cluster.now() + SimDuration::from_secs(60)
        ));
        cluster.run_for(SimDuration::from_millis(300));
    }

    // Tear p2's journal: chop bytes off the end, mid-record.
    let victim = base.join("p2.wal");
    let data = std::fs::read(&victim).expect("journal exists");
    assert!(data.len() > 20);
    std::fs::write(&victim, &data[..data.len() - 7]).unwrap();
    // The reopen repairs the journal to the intact prefix.
    let repaired = WalStorage::open(&victim).expect("torn journal must open");
    assert!(repaired.footprint_bytes() < data.len() as u64);
    drop(repaired);

    let registry = StorageRegistry::wal_in(&base, 3, 4).expect("registry reopens");
    let mut cluster = Cluster::with_registry(config, registry);
    let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
    assert!(
        cluster.run_until_delivered(&everyone, &ids, cluster.now() + SimDuration::from_secs(120)),
        "the torn process must recover a prefix and relearn the rest"
    );
    let reference = cluster.delivered(p(0));
    for q in [p(1), p(2)] {
        assert_eq!(cluster.delivered(q), reference, "sequences differ at {q}");
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Crash edge of the compaction ↔ group-commit-window interaction: a
/// background compaction triggered while the window still holds an
/// unsynced backlog must leave that pending tail replayable, and writes
/// landing *after* the compaction must survive a process crash too.  A
/// pass seals the active tail (fsyncing the backlog) before it snapshots
/// the view, and commits after the snapshot land on a fresh active
/// segment, so no ordering of crash and compaction can cost committed
/// records.
#[test]
fn compaction_mid_group_window_keeps_the_pending_tail() {
    bounded(|| {
        let base = temp_base("compact-window");
        std::fs::create_dir_all(&base).unwrap();
        let path = base.join("journal.wal");
        let slot = StorageKey::new("slot");
        let log = StorageKey::new("log");
        {
            // Window far larger than the commit count: no per-commit fsync
            // ever runs, the whole run rides the group-commit backlog — except
            // for segment seals, which are their own durability barrier.
            let s = WalStorage::open(&path)
                .unwrap()
                .with_group_window(10_000)
                .with_segment_bytes(256)
                .with_compact_threshold(512);
            s.append(&log, b"before-compaction").unwrap();
            // Overwrite one slot until the journal is mostly garbage: segments
            // rotate and the threshold nudge from inside `commit_barrier`
            // schedules background compactions while `unsynced_commits` may
            // still be non-zero.
            for i in 0..200u32 {
                s.store(&slot, &i.to_le_bytes()).unwrap();
            }
            s.quiesce().unwrap();
            assert!(s.compactions() > 0, "compaction must trigger mid-window");
            // More commits *after* the compaction, again left unsynced.
            s.append(&log, b"after-compaction").unwrap();
        } // process crash: the handle is dropped without an explicit flush

        let s = WalStorage::open(&path).expect("compacted journal must replay");
        assert_eq!(
            s.load(&slot).unwrap().unwrap(),
            199u32.to_le_bytes(),
            "the slot state from the unsynced window survives the compaction"
        );
        assert_eq!(
            s.load_log(&log).unwrap(),
            vec![b"before-compaction".to_vec(), b"after-compaction".to_vec()],
            "pending log records on both sides of the compaction survive"
        );
        drop(s);
        let _ = std::fs::remove_dir_all(&base);
    });
}

/// An *explicit* `compact()` call (not the threshold path) in the middle of
/// an open group-commit window behaves the same: it seals the active
/// segment (making the backlog durable), writes the in-memory view as the
/// base, and the un-fsynced tail written afterwards still replays.
#[test]
fn explicit_compact_with_unsynced_backlog_loses_nothing() {
    bounded(|| {
        let base = temp_base("explicit-compact");
        std::fs::create_dir_all(&base).unwrap();
        let path = base.join("journal.wal");
        let log = StorageKey::new("log");
        {
            let s = WalStorage::open(&path).unwrap().with_group_window(10_000);
            for i in 0..20u8 {
                s.append(&log, &[i]).unwrap();
            }
            assert_eq!(s.metrics().snapshot().sync_ops, 0, "backlog is open");
            s.compact().unwrap();
            s.append(&log, &[99]).unwrap();
        }
        let s = WalStorage::open(&path).unwrap();
        let entries = s.load_log(&log).unwrap();
        assert_eq!(entries.len(), 21);
        assert_eq!(entries[20], vec![99]);
        drop(s);
        let _ = std::fs::remove_dir_all(&base);
    });
}

/// Crash between sealing the active segment and creating its replacement:
/// recovery must treat the missing active file as an empty tail and serve
/// the full sealed history, then accept new writes.
#[test]
fn crash_between_seal_and_new_active_creation_recovers() {
    let base = temp_base("seal-crash");
    std::fs::create_dir_all(&base).unwrap();
    let path = base.join("journal.wal");
    let log = StorageKey::new("log");
    {
        let s = WalStorage::open(&path)
            .unwrap()
            .with_segment_bytes(256)
            .with_compact_threshold(u64::MAX);
        for i in 0..30u8 {
            s.append(&log, &[i; 32]).unwrap();
        }
        assert!(s.rotations() > 0, "workload must rotate segments");
    }
    // Simulate the crash window: the rename sealed the old active, the
    // fresh active was never created (or the creation never reached disk).
    std::fs::remove_file(&path).expect("active segment exists");

    let s = WalStorage::open(&path).expect("sealed-only layout must open");
    let entries = s.load_log(&log).unwrap();
    assert!(
        !entries.is_empty(),
        "sealed segments must replay without an active file"
    );
    for (i, e) in entries.iter().enumerate() {
        assert_eq!(e, &vec![i as u8; 32], "sealed record {i} intact");
    }
    s.append(&log, b"post-crash").unwrap();
    s.flush().unwrap();
    drop(s);
    let s = WalStorage::open(&path).unwrap();
    assert_eq!(s.load_log(&log).unwrap().last().unwrap(), b"post-crash");
    drop(s);
    let _ = std::fs::remove_dir_all(&base);
}

/// A torn tail in the *active* segment while sealed segments exist: the
/// truncation repair applies to the active tail only, every sealed record
/// stays intact, and the repaired journal keeps working.
#[test]
fn torn_active_tail_with_sealed_segments_keeps_sealed_history() {
    let base = temp_base("torn-active");
    std::fs::create_dir_all(&base).unwrap();
    let path = base.join("journal.wal");
    let log = StorageKey::new("log");
    {
        let s = WalStorage::open(&path)
            .unwrap()
            .with_segment_bytes(256)
            .with_compact_threshold(u64::MAX);
        // 60-byte records, 256-byte segments: every 5th commit seals, so
        // 32 records leave 6 sealed segments and 2 records in the active.
        for i in 0..32u8 {
            s.append(&log, &[i; 32]).unwrap();
        }
        assert!(s.rotations() >= 2, "need several sealed segments");
        assert!(s.layout().active_bytes > 0, "need a non-empty active tail");
        s.flush().unwrap();
    }
    // Tear the active tail mid-record: the last record loses its framing.
    let data = std::fs::read(&path).unwrap();
    assert!(data.len() > 10);
    std::fs::write(&path, &data[..data.len() - 5]).unwrap();

    let s = WalStorage::open(&path).expect("torn active tail must open");
    let entries = s.load_log(&log).unwrap();
    assert_eq!(
        entries.len(),
        31,
        "repair must cost exactly the torn record, nothing sealed"
    );
    for (i, e) in entries.iter().enumerate() {
        assert_eq!(e, &vec![i as u8; 32], "record {i} intact after repair");
    }
    s.append(&log, b"after-repair").unwrap();
    s.flush().unwrap();
    drop(s);
    let s = WalStorage::open(&path).unwrap();
    assert_eq!(s.load_log(&log).unwrap().last().unwrap(), b"after-repair");
    drop(s);
    let _ = std::fs::remove_dir_all(&base);
}

/// Crash mid-compaction with the new base half-written to the temporary:
/// the stale `*.wal.compact` file must be reaped on reopen (never read,
/// never clobber-raced by the next pass) and the pre-crash state replays
/// from the old base + segments untouched.
#[test]
fn crash_mid_compaction_reaps_the_half_written_temporary() {
    bounded(|| {
        let base = temp_base("half-compact");
        std::fs::create_dir_all(&base).unwrap();
        let path = base.join("journal.wal");
        let log = StorageKey::new("log");
        {
            let s = WalStorage::open(&path)
                .unwrap()
                .with_segment_bytes(256)
                .with_compact_threshold(u64::MAX);
            for i in 0..20u8 {
                s.append(&log, &[i; 32]).unwrap();
            }
            s.flush().unwrap();
        }
        // Simulate the crash: a compaction pass died after writing part of the
        // rewritten base to the temporary — including a torn final record.
        let tmp = std::path::PathBuf::from(format!("{}.compact", path.display()));
        let mut garbage = std::fs::read(&path).unwrap();
        garbage.truncate(garbage.len() / 2);
        std::fs::write(&tmp, &garbage).unwrap();

        let s = WalStorage::open(&path).expect("stale temp must not block reopen");
        assert!(!tmp.exists(), "stale compaction temporary must be reaped");
        let entries = s.load_log(&log).unwrap();
        assert_eq!(entries.len(), 20, "pre-crash records replay in full");
        // The next compaction must start from a clean temp slot.
        s.compact().unwrap();
        assert!(!tmp.exists(), "temp is consumed by the rename");
        assert_eq!(s.load_log(&log).unwrap().len(), 20);
        drop(s);
        let _ = std::fs::remove_dir_all(&base);
    });
}

/// Compaction's delete-after-checkpoint racing a crash + recovery reopen:
/// the new base was renamed into place but the process died before the
/// covered segment files were unlinked.  Recovery must detect them via the
/// base's covered-sequence header and reap them instead of replaying their
/// records a second time.
#[test]
fn covered_segments_left_by_a_crash_are_reaped_not_replayed() {
    bounded(|| {
        let base = temp_base("covered-race");
        std::fs::create_dir_all(&base).unwrap();
        let path = base.join("journal.wal");
        let log = StorageKey::new("log");
        let survivors: Vec<std::path::PathBuf>;
        {
            let s = WalStorage::open(&path)
                .unwrap()
                .with_segment_bytes(256)
                .with_compact_threshold(u64::MAX);
            for i in 0..20u8 {
                s.append(&log, &[i; 32]).unwrap();
            }
            assert!(s.rotations() > 0);
            // Stash copies of the sealed segments, run the compaction that
            // deletes them, then resurrect the copies — exactly the on-disk
            // state a crash in the delete window leaves behind.
            let dir = path.parent().unwrap();
            let mut stash = Vec::new();
            for entry in std::fs::read_dir(dir).unwrap() {
                let p = entry.unwrap().path();
                if p.file_name().unwrap().to_string_lossy().contains(".wal.seg-") {
                    let copy = std::path::PathBuf::from(format!("{}.stash", p.display()));
                    std::fs::copy(&p, &copy).unwrap();
                    stash.push((copy, p));
                }
            }
            assert!(!stash.is_empty(), "need sealed segments to stash");
            s.compact().unwrap();
            survivors = stash
                .into_iter()
                .map(|(copy, orig)| {
                    std::fs::rename(&copy, &orig).unwrap();
                    orig
                })
                .collect();
        }

        let s = WalStorage::open(&path).expect("reopen with resurrected segments");
        for p in &survivors {
            assert!(!p.exists(), "covered segment {} must be reaped", p.display());
        }
        let entries = s.load_log(&log).unwrap();
        assert_eq!(
            entries.len(),
            20,
            "covered segments must not replay their records twice"
        );
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e, &vec![i as u8; 32], "record {i} appears exactly once");
        }
        drop(s);
        let _ = std::fs::remove_dir_all(&base);
    });
}

/// Compaction writes the base from the in-memory view and never reads a
/// sealed segment back.  Overwriting a sealed segment's bytes after the
/// seal must not fail the pass: the segment is covered, reaped, and the
/// journal reopens to the committed state.
#[test]
fn compaction_does_not_read_sealed_segments_back() {
    bounded(|| {
        let base = temp_base("no-disk-reads");
        std::fs::create_dir_all(&base).unwrap();
        let path = base.join("journal.wal");
        let log = StorageKey::new("log");
        let seg1 = std::path::PathBuf::from(format!("{}.seg-{:08}", path.display(), 1));
        {
            let s = WalStorage::open(&path)
                .unwrap()
                .with_segment_bytes(256)
                .with_compact_threshold(u64::MAX);
            s.append(&log, &[7u8; 300]).unwrap(); // seals as seg-1
            s.append(&log, b"active").unwrap();
            assert_eq!(s.layout().sealed_segments, 1);
            let len = std::fs::metadata(&seg1).unwrap().len() as usize;
            std::fs::write(&seg1, vec![0xA5; len]).unwrap();
            s.compact().expect("the pass must not read the sealed segment");
            assert!(!seg1.exists(), "the covered segment is reaped");
            assert_eq!(s.layout().sealed_segments, 0);
        }
        let s = WalStorage::open(&path).expect("the compacted journal reopens");
        assert_eq!(
            s.load_log(&log).unwrap(),
            vec![vec![7u8; 300], b"active".to_vec()]
        );
        drop(s);
        let _ = std::fs::remove_dir_all(&base);
    });
}

/// One log spread over all three layers — entries in the base, in sealed
/// segments and in the active tail — replays in order with no entry
/// duplicated, and a `Remove` in the active segment lands on top of a slot
/// and a log that live in the base.
#[test]
fn a_log_spanning_base_sealed_and_active_replays_once_and_removes_land() {
    bounded(|| {
        let base = temp_base("span-layers");
        std::fs::create_dir_all(&base).unwrap();
        let path = base.join("journal.wal");
        let log = StorageKey::new("log");
        let doomed = StorageKey::new("doomed");
        let entries: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 40]).collect();
        {
            let s = WalStorage::open(&path)
                .unwrap()
                .with_segment_bytes(256)
                .with_compact_threshold(u64::MAX);
            s.store(&doomed, b"slot").unwrap();
            s.append(&doomed, b"entry").unwrap();
            for entry in &entries[..4] {
                s.append(&log, entry).unwrap();
            }
            s.compact().unwrap();
            for entry in &entries[4..] {
                s.append(&log, entry).unwrap();
            }
            s.remove(&doomed).unwrap();
            let layout = s.layout();
            assert!(layout.base_bytes > 0, "part of the log lives in the base");
            assert!(layout.sealed_segments > 0, "part lives in sealed segments");
            assert!(layout.active_bytes > 0, "the remove sits in the active tail");
        }
        let s = WalStorage::open(&path).unwrap();
        assert_eq!(s.load_log(&log).unwrap(), entries);
        assert_eq!(s.load(&doomed).unwrap(), None);
        assert!(s.load_log(&doomed).unwrap().is_empty());
        // Folding the lot into a fresh base keeps the same view.
        s.compact().unwrap();
        drop(s);
        let s = WalStorage::open(&path).unwrap();
        assert_eq!(s.load_log(&log).unwrap(), entries);
        assert_eq!(s.keys().unwrap(), vec![log]);
        drop(s);
        let _ = std::fs::remove_dir_all(&base);
    });
}

/// End to end, the periodic checkpoint write grows with the *delta* (new
/// messages since the last checkpoint), not with the length of the
/// history — the acceptance assertion of the delta-checkpoint rework.
#[test]
fn checkpoint_writes_stay_o_delta_as_history_grows() {
    let protocol = ProtocolConfig::alternative()
        .with_application_checkpoints(false) // keep the full history explicit
        .with_checkpoint_snapshot_every(1_000) // periodic writes are deltas
        .with_checkpoint_period(SimDuration::from_millis(100));
    let mut cluster = Cluster::new(
        ClusterConfig::alternative(3)
            .with_seed(74)
            .with_protocol(protocol),
    );

    // Warm up: first checkpoints (the initial full snapshots) done.
    let mut ids = Vec::new();
    for i in 0..6 {
        ids.extend(cluster.broadcast(p(i % 3), vec![i as u8; 24]));
        cluster.run_for(SimDuration::from_millis(40));
    }
    cluster.run_for(SimDuration::from_millis(400));

    // Measure checkpoint-era bytes early...
    let measure_era = |cluster: &mut Cluster, ids: &mut Vec<_>, seed: u8| {
        let before = cluster.storage_totals();
        for i in 0..6u8 {
            ids.extend(cluster.broadcast(p((i % 3) as u32), vec![seed + i; 24]));
            cluster.run_for(SimDuration::from_millis(40));
        }
        cluster.run_for(SimDuration::from_millis(400));
        cluster.storage_totals().since(&before).bytes_written
    };
    let early = measure_era(&mut cluster, &mut ids, 50);
    // ...grow the history substantially...
    for round in 0..4 {
        for i in 0..6u8 {
            ids.extend(cluster.broadcast(p((i % 3) as u32), vec![100 + round * 6 + i; 24]));
            cluster.run_for(SimDuration::from_millis(40));
        }
    }
    cluster.run_for(SimDuration::from_millis(400));
    // ...and measure again with ~5x the history behind us.
    let late = measure_era(&mut cluster, &mut ids, 200);

    assert!(
        (late as f64) < (early as f64) * 2.0,
        "checkpoint-era bytes must not grow with history: early {early}, late {late}"
    );

    let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
    assert!(cluster.run_until_delivered(
        &everyone,
        &ids,
        cluster.now() + SimDuration::from_secs(120)
    ));
    cluster.assert_properties();
}

/// Section 5.2: "the size of the logs grows indefinitely" unless "a
/// checkpoint of the application state can substitute the associated prefix
/// of the delivered message log".  80 and then 600 messages of 48 bytes,
/// round-robin 4 ms apart, `(k, Agreed)` checkpoints every 100 ms: without
/// application checkpoints the cluster's footprint grows with the history;
/// with them it stays bounded by the working set.
#[test]
fn application_checkpoints_bound_the_storage_footprint() {
    /// Final and peak (sampled every eighth message) cluster-wide storage
    /// footprint in bytes, and the application checkpoints p0 took.
    #[derive(Debug, PartialEq, Eq)]
    struct Footprint {
        final_bytes: u64,
        max_bytes: u64,
        app_checkpoints: u64,
    }
    let run = |application_checkpoints: bool, messages: usize| {
        let protocol = ProtocolConfig::alternative()
            .with_application_checkpoints(application_checkpoints)
            .with_checkpoint_period(SimDuration::from_millis(100));
        let mut cluster =
            Cluster::new(ClusterConfig::basic(3).with_seed(808).with_protocol(protocol));
        let mut max_bytes = 0;
        let mut ids = Vec::new();
        for i in 0..messages {
            ids.extend(cluster.broadcast(p(i as u32 % 3), vec![i as u8; 48]));
            cluster.run_for(SimDuration::from_millis(4));
            if i % (messages / 8) == 0 {
                max_bytes = max_bytes.max(cluster.sim().storage().total_footprint_bytes());
            }
        }
        let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
        assert!(cluster.run_until_delivered(&everyone, &ids, cluster.now() + SimDuration::from_secs(60)));
        // Let a last checkpoint pass truncate what it can.
        cluster.run_for(SimDuration::from_millis(400));
        cluster.assert_properties();
        let final_bytes = cluster.sim().storage().total_footprint_bytes();
        Footprint {
            final_bytes,
            max_bytes: max_bytes.max(final_bytes),
            app_checkpoints: cluster.sim().actor(p(0)).unwrap().metrics().app_checkpoints_taken,
        }
    };
    let [(short_without, short_with), (long_without, long_with)] =
        [80, 600].map(|messages| (run(false, messages), run(true, messages)));
    assert!(
        long_without.final_bytes >= 7 * short_without.final_bytes,
        "without application checkpoints 7.5x the history must keep about 7.5x the bytes: \
         {short_without:?} then {long_without:?}"
    );
    assert!(
        long_with.max_bytes <= short_with.max_bytes,
        "with application checkpoints the footprint must not grow with the history: \
         {short_with:?} then {long_with:?}"
    );
    // Recorded when the test was set.
    let pinned = |final_bytes, max_bytes, app_checkpoints| Footprint {
        final_bytes,
        max_bytes,
        app_checkpoints,
    };
    assert_eq!(short_without, pinned(82_400, 82_400, 0), "80 messages, no app checkpoints");
    assert_eq!(short_with, pinned(14_252, 36_540, 4), "80 messages, app checkpoints");
    assert_eq!(long_without, pinned(614_808, 614_808, 0), "600 messages, no app checkpoints");
    assert_eq!(long_with, pinned(9_240, 25_384, 25), "600 messages, app checkpoints");
}

/// Counts of one storage-level commit loop (see [`wal_commit_loop`]).
#[derive(Debug)]
struct WalRun {
    sync_ops: u64,
    rotations: u64,
    compactions: u64,
    disk_bytes: u64,
}

/// Commits `messages` protocol-step-shaped batches (an agreed-delta append,
/// an unordered append, a round-slot store) to one WAL with a group window
/// of 8.  Every 64 messages a checkpoint batch overwrites the snapshot slot,
/// truncates both logs and calls `note_checkpoint`, as the protocol's
/// checkpoint task does.  `segmented` uses 16 KiB segments and the lowest
/// compaction threshold; otherwise the journal never rotates or compacts.
/// Reopens the journal afterwards and checks it surfaces the last round.
fn wal_commit_loop(segmented: bool, messages: usize) -> WalRun {
    const CHECKPOINT_EVERY: usize = 64;
    let base = temp_base(&format!("commit-loop-{segmented}-{messages}"));
    std::fs::create_dir_all(&base).unwrap();
    let path = base.join("journal.wal");
    let (segment_bytes, compact_threshold) =
        if segmented { (16 * 1024, 1) } else { (u64::MAX, u64::MAX) };
    let storage = WalStorage::open(&path)
        .unwrap()
        .with_group_window(8)
        .with_segment_bytes(segment_bytes)
        .with_compact_threshold(compact_threshold);

    let round_slot = StorageKey::new("abcast/k");
    let payload = [0xE1_u8; 32];
    for i in 0..messages {
        let mut step = WriteBatch::new();
        step.append(&keys::agreed_delta(), &payload);
        step.append(&keys::unordered_incremental(), &payload);
        step.store(&round_slot, &(i as u64).to_le_bytes());
        storage.commit_batch(step).unwrap();
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            let mut checkpoint = WriteBatch::new();
            checkpoint.store(&keys::agreed_checkpoint(), &payload);
            checkpoint.remove(&keys::agreed_delta());
            checkpoint.remove(&keys::unordered_incremental());
            storage.commit_batch(checkpoint).unwrap();
            storage.note_checkpoint(Round::new(((i + 1) / CHECKPOINT_EVERY) as u64));
        }
    }
    storage.quiesce().unwrap();
    let run = WalRun {
        sync_ops: storage.metrics().snapshot().sync_ops,
        rotations: storage.rotations(),
        compactions: storage.compactions(),
        disk_bytes: storage.footprint_bytes(),
    };
    drop(storage);

    let reopened = WalStorage::open(&path).expect("journal replays");
    assert_eq!(
        reopened.load(&round_slot).unwrap().unwrap(),
        ((messages - 1) as u64).to_le_bytes(),
        "reopen must surface the last committed round"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&base);
    run
}

/// Segmentation at 10³ and 10⁴ messages against a journal that never
/// rotates or compacts: rotation and compaction add a constant number of
/// barriers per event, never a rewrite on the write path, and compaction
/// keeps the footprint at the live state instead of the history.
#[test]
fn segmented_wal_keeps_fsyncs_per_message_flat_and_the_footprint_bounded() {
    bounded(|| {
        const SIZES: [usize; 2] = [1_000, 10_000];
        let segmented = SIZES.map(|n| wal_commit_loop(true, n));
        let monolithic = SIZES.map(|n| wal_commit_loop(false, n));

        for (mode, runs) in [("segmented", &segmented), ("monolithic", &monolithic)] {
            let [small, large] = [0, 1].map(|i| runs[i].sync_ops as f64 / SIZES[i] as f64);
            assert!(
                small.max(large) <= small.min(large) * 1.5,
                "{mode}: fsyncs/msg must stay flat across sizes: {small} vs {large}"
            );
        }
        for (seg, mono) in segmented.iter().zip(&monolithic) {
            assert!(
                seg.rotations > 0 && seg.compactions > 0,
                "segmented must rotate and compact: {seg:?}"
            );
            // A seal pays at most two barriers (the pulled-forward fsync and the
            // directory barrier) and a compaction pass three (the base's fsync,
            // the rename's and the reap's directory barriers).
            let extra = seg.sync_ops.saturating_sub(mono.sync_ops);
            assert!(
                extra <= 3 * (seg.rotations + seg.compactions),
                "{extra} extra barriers: {seg:?} vs {mono:?}"
            );
        }
        assert!(
            segmented[1].disk_bytes <= 4 * segmented[0].disk_bytes,
            "10x the messages must not mean 10x the journal: {segmented:?}"
        );
        assert!(
            segmented[1].disk_bytes * 10 <= monolithic[1].disk_bytes,
            "compaction must reclaim the history: {:?} vs {:?}",
            segmented[1],
            monolithic[1]
        );
    });
}
