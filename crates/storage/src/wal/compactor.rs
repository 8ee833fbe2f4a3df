//! The background compaction worker.
//!
//! Compaction folds the immutable prefix of the journal — the compacted
//! base plus every sealed segment — into a fresh base holding live records
//! only, then deletes the segments the new base covers.  The live records
//! come from the in-memory materialized view, not from disk:
//!
//! * under the storage lock the worker seals the active segment if it
//!   holds records (the write path's O(1) seal: one fsync, one rename, one
//!   directory barrier; an empty active segment is left alone, and a pass
//!   with nothing sealed since the last one is a no-op).  At that instant
//!   the view is exactly base + every sealed segment, so the worker
//!   snapshots it — refcount clones of the committed payloads, no I/O —
//!   and releases the lock;
//! * the base is then written **lock-free** to a temporary
//!   (`p.wal.compact`) and fsynced; the rename onto `p.wal.base` is the
//!   commit point, and the directory sync after it makes the swap
//!   durable.  Group commits keep landing on the fresh active segment
//!   throughout;
//! * the storage lock is retaken, briefly, to publish the new accounting
//!   (base size, surviving segments, covered sequence);
//! * covered segment files are deleted last.  A crash between the rename
//!   and the deletes leaves segment files whose sequence number is at or
//!   below the base's `covered_seq` header — recovery detects and reaps
//!   them instead of replaying their records twice.
//!
//! Sealed segments are never read again after sealing: a corrupt sealed
//! segment is detected when the journal is opened, not by compaction.
//!
//! The worker thread is spawned lazily on the first compaction request
//! (journals that never rotate never pay for it) and joined when the
//! storage is dropped.  It is woken by a condition variable, never by a
//! timer — the storage stays free of wall-clock reads, so deterministic
//! test schedules are preserved.

use std::fs::{self, File};
use std::sync::Arc;

use abcast_types::{AbcastError, Result};

use super::segment;
use super::WalShared;

/// Compactor coordination flags, guarded by [`WalShared::comp`] and
/// signalled through [`WalShared::comp_cv`].
#[derive(Debug, Default)]
pub(crate) struct CompactorFlags {
    /// A compaction has been requested and not yet picked up.
    pub pending: bool,
    /// A compaction pass is currently running.
    pub running: bool,
    /// The storage is shutting down; the worker must exit.
    pub shutdown: bool,
    /// A worker thread exists (spawned lazily on first request).
    pub worker_alive: bool,
    /// The first error a background pass hit, surfaced to the next
    /// explicit `compact()`/`quiesce()` call.
    pub last_error: Option<String>,
}

/// Requests a background compaction, spawning the worker on first use.
/// Cheap and non-blocking: callers may hold the storage lock.
pub(crate) fn request(shared: &Arc<WalShared>) {
    // Flag the request under the lock; spawn outside it.  The new worker's
    // first act is locking these same flags, so spawning under the hold
    // would stall it on arrival.
    let spawn_worker = {
        let mut flags = shared.comp.lock();
        if flags.shutdown {
            return;
        }
        flags.pending = true;
        let spawn = !flags.worker_alive;
        // Claimed here so concurrent requesters spawn at most one worker.
        flags.worker_alive = true;
        shared.comp_cv.notify_all();
        spawn
    };
    if !spawn_worker {
        return;
    }
    let worker_shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("wal-compactor".into())
        .spawn(move || worker_loop(worker_shared));
    match handle {
        Ok(handle) => {
            *shared.worker.lock() = Some(handle);
        }
        Err(e) => {
            let mut flags = shared.comp.lock();
            flags.worker_alive = false;
            flags.pending = false;
            flags.last_error = Some(format!("spawning WAL compactor failed: {e}"));
        }
    }
}

/// Waits until no compaction is pending or running, then surfaces any
/// background error exactly once.
pub(crate) fn quiesce(shared: &WalShared) -> Result<()> {
    let mut flags = shared.comp.lock();
    while (flags.pending || flags.running) && !flags.shutdown {
        // Condvar wait atomically releases the flags lock while parked; this is the idle path, not a held-lock stall
        flags = shared.comp_cv.wait(flags);
    }
    match flags.last_error.take() {
        Some(e) => Err(AbcastError::storage(format!("WAL compaction failed: {e}"))),
        None => Ok(()),
    }
}

/// Marks the storage as shutting down and wakes the worker so it exits.
/// The caller joins the worker handle afterwards (outside any lock).
pub(crate) fn begin_shutdown(shared: &WalShared) {
    let mut flags = shared.comp.lock();
    flags.shutdown = true;
    shared.comp_cv.notify_all();
}

/// The worker body: sleep until a request (or shutdown), run one pass,
/// repeat.  Requests arriving during a pass coalesce into one more pass.
fn worker_loop(shared: Arc<WalShared>) {
    let mut flags = shared.comp.lock();
    loop {
        while !flags.pending && !flags.shutdown {
            // Condvar wait atomically releases the flags lock while parked; this is the idle path, not a held-lock stall
            flags = shared.comp_cv.wait(flags);
        }
        if flags.shutdown {
            flags.worker_alive = false;
            shared.comp_cv.notify_all();
            return;
        }
        flags.pending = false;
        flags.running = true;
        drop(flags);

        let result = compact_pass(&shared);

        flags = shared.comp.lock();
        flags.running = false;
        if let Err(e) = result {
            if flags.last_error.is_none() {
                flags.last_error = Some(e.to_string());
            }
        }
        shared.comp_cv.notify_all();
    }
}

/// One compaction pass: seal the active segment, write the live view as
/// a fresh base, swap it in, reap the covered segment files.
///
/// Holds the storage lock for the seal and the snapshot (one fsync at
/// most) and again, briefly, to publish; the rewrite runs without it.
fn compact_pass(shared: &WalShared) -> Result<()> {
    let (sealed, live_ops) = {
        let mut inner = shared.inner.lock();
        if inner.sealed.is_empty() {
            // Nothing sealed since the last pass (requests raised while it
            // ran saw its inputs still listed).  Sealing a fresh segment
            // here would chain passes back to back under load.
            return Ok(());
        }
        if inner.active_bytes > 0 {
            // Sealing is the write path's O(1) rotation: one fsync + one dir barrier under the lock, never a rewrite; the snapshot after it clones refcounts only
            super::seal_active(shared, &mut inner)?;
        }
        (inner.sealed.clone(), inner.state.to_live_ops())
    };
    let covered_new = sealed.last().expect("checked non-empty").seq;

    // Rewrite: meta header (covering everything merged) plus live records,
    // to a temporary, fsynced before the rename makes it the base.
    let base = segment::base_path(&shared.path);
    let tmp = segment::temp_path(&shared.path);
    let mut file = File::create(&tmp)?;
    let mut base_bytes = segment::write_base_meta(&mut file, covered_new)?;
    base_bytes += segment::write_group_to(&mut file, &live_ops)?;
    #[cfg(test)]
    shared.rewrite_pause.park();
    file.sync_data()?;
    shared.metrics.record_sync();
    // The rename is the commit point: before it the old base + segments
    // are the durable prefix, after it the new base is.  The directory
    // sync makes the swap crash-safe.
    fs::rename(&tmp, &base)?;
    segment::sync_parent_dir(&base)?;
    shared.metrics.record_sync();

    // Publish the new accounting.  Segments sealed *during* the pass stay
    // in the list (their seq exceeds `covered_new`) and are merged by a
    // later pass.
    {
        let mut inner = shared.inner.lock();
        inner.sealed.retain(|s| s.seq > covered_new);
        inner.sealed_bytes = inner.sealed.iter().map(|s| s.bytes).sum();
        inner.base_bytes = base_bytes;
        inner.covered_seq = covered_new;
        inner.compactions += 1;
    }

    // Reap the merged segment files.  Crash window here is safe: recovery
    // deletes any segment at or below the base's covered_seq header.
    for seg in &sealed {
        match fs::remove_file(&seg.path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    segment::sync_parent_dir(&shared.path)?;
    shared.metrics.record_sync();
    Ok(())
}
