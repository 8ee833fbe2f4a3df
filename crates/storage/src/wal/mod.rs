//! Group-committed, segmented write-ahead-log stable storage.
//!
//! A naive on-disk store pays one durability barrier per `log` operation
//! (and a temp-file + rename per slot overwrite).  This backend instead
//! funnels *every* mutation — slot overwrites, log appends, removals —
//! through an append-only journal per process, organized as **rotated
//! segments**:
//!
//! * each mutation is one **CRC-framed record** (`len ‖ crc32 ‖ payload`);
//! * a committed [`WriteBatch`] becomes one contiguous group of records
//!   followed by a single barrier — a consensus step that logs three
//!   values costs one fsync, not three;
//! * consecutive commits are **group-committed**: the records are written
//!   to the active segment immediately (so they survive a *process* crash,
//!   which is the paper's failure model — stable storage is the file
//!   system, and the page cache outlives the process), while the fsync
//!   that also protects against whole-machine failure is amortized over a
//!   configurable window of commits;
//! * when the active segment reaches its size threshold it is **sealed**:
//!   fsynced, renamed to `p.wal.seg-<seq>` and replaced by a fresh active
//!   segment under one directory barrier — an O(1) rotation, the only
//!   maintenance the write path ever pays;
//! * a **background compaction worker** (the private `compactor` module)
//!   writes the in-memory view as the compacted base `p.wal.base` (live records only,
//!   same framing) and deletes the segments the base covers — record
//!   garbage from overwritten slots and checkpoint-truncated logs is
//!   reclaimed without ever blocking a group commit, which is what keeps
//!   both journal size and recovery replay bounded at long horizons
//!   (the paper's "stable storage writes dominate" cost model, §4–5);
//! * replay on open walks base → sealed segments → active tail, in order.
//!   Only the active segment is **torn-tail tolerant** (a truncated or
//!   CRC-corrupt record ends the replay at the last intact prefix and the
//!   segment is truncated there); sealed segments were fsynced before the
//!   rename that sealed them, so damage there is corruption and fails the
//!   open.
//!
//! The in-memory materialized view (slots + logs) makes reads free of I/O;
//! the journal exists purely to survive crashes.  The protocol's
//! checkpoint hook ([`StableStorage::note_checkpoint`]) nudges the
//! compactor right after a `(k, Agreed)` checkpoint lands — the moment
//! most sealed-segment records become garbage.

mod compactor;
mod segment;

use std::fs::{self, File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use abcast_types::copymeter;
use abcast_types::{Result, Round};

use crate::api::{StableStorage, StorageKey};
use crate::batch::{BatchOp, WriteBatch};
use crate::metrics::StorageMetrics;

use compactor::CompactorFlags;
use segment::MaterializedState;

/// Default number of commits that share one fsync.
const DEFAULT_GROUP_WINDOW: usize = 8;

/// Default journal size above which compaction is considered.
const DEFAULT_COMPACT_THRESHOLD: u64 = 256 * 1024;

/// Default active-segment size at which it is sealed and rotated.
const DEFAULT_SEGMENT_BYTES: u64 = 64 * 1024;

/// Floor for the compaction threshold.  A pathological configuration
/// (`with_compact_threshold(0)`) would otherwise schedule a compaction on
/// nearly every commit window once half the journal is garbage — each pass
/// costs three barriers and a base rewrite, so the floor keeps the
/// worst-case frequency at one pass per few kilobytes of journal growth.
const COMPACT_THRESHOLD_FLOOR: u64 = 4096;

/// Floor for the rotation threshold (one segment per record is never
/// useful; directory churn would dominate).
const SEGMENT_BYTES_FLOOR: u64 = 256;

/// Sealed segments are merged once this many accumulate even if the
/// size/garbage heuristic is quiet — recovery replay cost is bounded by
/// base + this many segments + the active tail.
const MAX_SEALED_SEGMENTS: usize = 16;

/// One sealed (immutable, fully durable) segment awaiting compaction.
#[derive(Debug, Clone)]
struct SealedSeg {
    /// Rotation sequence number; the base's `covered_seq` header is
    /// compared against it.
    seq: u64,
    path: PathBuf,
    bytes: u64,
}

/// The materialized state plus the open active-segment handle and the
/// segment accounting.
#[derive(Debug)]
pub(crate) struct WalInner {
    active: File,
    state: MaterializedState,
    /// Bytes in the active segment.
    active_bytes: u64,
    /// Commits written since the last fsync (group-commit backlog).
    unsynced_commits: usize,
    /// Sealed segments not yet merged into the base, oldest first.
    sealed: Vec<SealedSeg>,
    /// Total bytes across `sealed`.
    sealed_bytes: u64,
    /// Bytes in the compacted base (0 = no base).
    base_bytes: u64,
    /// Highest sealed-segment seq merged into the base.
    covered_seq: u64,
    /// Seq the active segment will take when sealed.
    next_seq: u64,
    /// Rotations (seals) performed since open.
    rotations: u64,
    /// Compactions completed since open.
    compactions: u64,
}

impl WalInner {
    fn disk_bytes(&self) -> u64 {
        self.base_bytes + self.sealed_bytes + self.active_bytes
    }
}

/// State shared between the storage handle and the compaction worker.
#[derive(Debug)]
pub(crate) struct WalShared {
    pub(crate) path: PathBuf,
    pub(crate) metrics: StorageMetrics,
    group_window: AtomicUsize,
    compact_threshold: AtomicU64,
    segment_bytes: AtomicU64,
    /// Latest round a persisted `(k, Agreed)` checkpoint covers, as hinted
    /// through [`StableStorage::note_checkpoint`] (u64::MAX = never).
    checkpoint_round: AtomicU64,
    pub(crate) inner: Mutex<WalInner>,
    pub(crate) comp: Mutex<CompactorFlags>,
    pub(crate) comp_cv: Condvar,
    pub(crate) worker: Mutex<Option<JoinHandle<()>>>,
    /// Parks the compactor mid-rewrite when a test arms it.
    #[cfg(test)]
    pub(crate) rewrite_pause: tests::PausePoint,
}

/// A point-in-time view of the segmented journal layout, for tests and
/// benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalLayout {
    /// Bytes in the compacted base (0 = no base yet).
    pub base_bytes: u64,
    /// Sealed segments awaiting compaction.
    pub sealed_segments: usize,
    /// Total bytes across the sealed segments.
    pub sealed_bytes: u64,
    /// Bytes in the active segment.
    pub active_bytes: u64,
    /// Highest sealed-segment seq covered by the base.
    pub covered_seq: u64,
    /// Rotations (seals) since open.
    pub rotations: u64,
    /// Compactions completed since open.
    pub compactions: u64,
    /// Latest checkpoint round hinted via `note_checkpoint`, if any.
    pub checkpoint_round: Option<u64>,
}

/// Stable storage backed by a group-committed, CRC-framed, segmented
/// append-only journal with background compaction.
#[derive(Debug)]
pub struct WalStorage {
    shared: Arc<WalShared>,
}

impl WalStorage {
    /// Opens (creating if necessary) the journal rooted at `path` and
    /// replays it: compacted base, then sealed segments in sequence order,
    /// then the active tail.
    ///
    /// Recovery also repairs every crash edge the segmented layout has:
    /// a stale compaction temporary is reaped, segment files already
    /// covered by the base's meta header are deleted instead of being
    /// replayed twice, a missing active segment (crash between seal and
    /// new-active creation) is recreated empty, and a torn record in the
    /// active tail truncates it to the intact prefix.  Damage to a sealed
    /// segment or the base is corruption and fails the open.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }

        // Crash leftovers first: a compaction temporary only exists
        // between a pass's rewrite and its commit rename.  Left in place
        // it would sit there forever — and the next pass's `File::create`
        // would clobber it mid-crash-window.  Reap it before anything
        // else looks at the directory.
        let temp = segment::temp_path(&path);
        let mut dirty_dir = match fs::remove_file(&temp) {
            Ok(()) => true,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
            Err(e) => return Err(e.into()),
        };

        let mut state = MaterializedState::default();
        let base = segment::base_path(&path);
        let (covered_seq, base_bytes) = if base.exists() {
            segment::replay_base(&base, &mut state)?
        } else {
            (0, 0)
        };

        let mut sealed = Vec::new();
        let mut sealed_bytes = 0u64;
        let mut max_seq = covered_seq;
        for (seq, seg_path) in segment::list_sealed(&path)? {
            if seq <= covered_seq {
                // Already merged into the base; the crash landed between
                // the base rename and the segment reap.  Replaying it
                // would double-apply its append records — delete instead.
                fs::remove_file(&seg_path)?;
                dirty_dir = true;
                continue;
            }
            let bytes = segment::replay_sealed(&seg_path, &mut state)?;
            max_seq = max_seq.max(seq);
            sealed.push(SealedSeg {
                seq,
                path: seg_path,
                bytes,
            });
            sealed_bytes += bytes;
        }

        let created = !path.exists();
        let outcome = segment::replay_active(&path, &mut state)?;

        // Zero-copy replay slices every record out of the per-segment read
        // buffers — exactly right while the journal is mostly live (which
        // compaction maintains; a freshly compacted base IS the live
        // state).  But when dead records dominate (a crash landed before a
        // pending compaction), keeping views would pin whole segment
        // allocations for as long as any record survives: re-materialize
        // the live records then, so replay memory is O(live), not
        // O(journal).  The predicate mirrors the compaction trigger.
        let replayed = base_bytes + sealed_bytes + outcome.intact_len;
        if replayed > 2 * state.live_bytes {
            for value in state.slots.values_mut() {
                copymeter::record_copy(value.len());
                *value = Bytes::copy_from_slice(value);
            }
            for entries in state.logs.values_mut() {
                for value in entries.iter_mut() {
                    copymeter::record_copy(value.len());
                    *value = Bytes::copy_from_slice(value);
                }
            }
        }

        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        if outcome.intact_len < outcome.file_len {
            // Drop the torn/corrupt suffix so future appends extend a
            // well-formed active segment.
            file.set_len(outcome.intact_len)?;
            file.sync_data()?;
        }
        if created || dirty_dir {
            // Directory entries (fresh active segment, reaped leftovers)
            // must be durable before any commit relies on them.
            segment::sync_parent_dir(&path)?;
        }

        Ok(WalStorage {
            shared: Arc::new(WalShared {
                path,
                metrics: StorageMetrics::new(),
                group_window: AtomicUsize::new(DEFAULT_GROUP_WINDOW),
                compact_threshold: AtomicU64::new(DEFAULT_COMPACT_THRESHOLD),
                segment_bytes: AtomicU64::new(DEFAULT_SEGMENT_BYTES),
                checkpoint_round: AtomicU64::new(u64::MAX),
                inner: Mutex::new(WalInner {
                    active: file,
                    state,
                    active_bytes: outcome.intact_len,
                    unsynced_commits: 0,
                    sealed,
                    sealed_bytes,
                    base_bytes,
                    covered_seq,
                    next_seq: max_seq + 1,
                    rotations: 0,
                    compactions: 0,
                }),
                comp: Mutex::new(CompactorFlags::default()),
                comp_cv: Condvar::new(),
                worker: Mutex::new(None),
                #[cfg(test)]
                rewrite_pause: tests::PausePoint::default(),
            }),
        })
    }

    /// Sets the group-commit window: how many commits may share one fsync.
    ///
    /// `1` fsyncs every commit (maximum durability); larger windows
    /// amortize the barrier over consecutive commits.  Data is written to
    /// the journal immediately either way, so a *process* crash (the
    /// paper's model) loses nothing — only an OS or machine failure can
    /// lose the last `window − 1` commits.
    pub fn with_group_window(self, window: usize) -> Self {
        self.shared
            .group_window
            .store(window.max(1), Ordering::Relaxed);
        self
    }

    /// Sets the journal size above which compaction is considered.
    ///
    /// Clamped below to a few kilobytes: a zero/tiny threshold would
    /// otherwise degenerate into a compaction pass per commit window.
    pub fn with_compact_threshold(self, bytes: u64) -> Self {
        self.shared
            .compact_threshold
            .store(bytes.max(COMPACT_THRESHOLD_FLOOR), Ordering::Relaxed);
        self
    }

    /// Sets the active-segment size at which it is sealed and rotated.
    pub fn with_segment_bytes(self, bytes: u64) -> Self {
        self.shared
            .segment_bytes
            .store(bytes.max(SEGMENT_BYTES_FLOOR), Ordering::Relaxed);
        self
    }

    /// The active-segment file backing this storage (sealed segments and
    /// the compacted base live next to it).
    pub fn path(&self) -> &Path {
        &self.shared.path
    }

    /// Total journal length in bytes: base + sealed segments + active.
    pub fn wal_size_bytes(&self) -> u64 {
        self.shared.inner.lock().disk_bytes()
    }

    /// Number of compactions completed since open.
    pub fn compactions(&self) -> u64 {
        self.shared.inner.lock().compactions
    }

    /// Number of segment rotations (seals) since open.
    pub fn rotations(&self) -> u64 {
        self.shared.inner.lock().rotations
    }

    /// A point-in-time view of the segment layout.
    pub fn layout(&self) -> WalLayout {
        let inner = self.shared.inner.lock();
        let round = self.shared.checkpoint_round.load(Ordering::Relaxed);
        WalLayout {
            base_bytes: inner.base_bytes,
            sealed_segments: inner.sealed.len(),
            sealed_bytes: inner.sealed_bytes,
            active_bytes: inner.active_bytes,
            covered_seq: inner.covered_seq,
            rotations: inner.rotations,
            compactions: inner.compactions,
            checkpoint_round: (round != u64::MAX).then_some(round),
        }
    }

    /// Forces the group-commit backlog to stable storage now.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.shared.inner.lock();
        if inner.unsynced_commits > 0 {
            // The group-commit design point: one barrier under the lock settles every commit in the backlog
            inner.active.sync_data()?;
            inner.unsynced_commits = 0;
            self.shared.metrics.record_sync();
        }
        Ok(())
    }

    /// Waits until no background compaction is pending or running, and
    /// surfaces any error a background pass hit.  Tests and benchmarks use
    /// this to observe a settled layout; the protocol never needs to.
    pub fn quiesce(&self) -> Result<()> {
        compactor::quiesce(&self.shared)
    }

    /// Compacts the whole journal down to its live state, synchronously:
    /// seals the active segment (if it holds anything) and waits for the
    /// background worker to write the whole view into the base.
    pub fn compact(&self) -> Result<()> {
        {
            let mut inner = self.shared.inner.lock();
            if inner.active_bytes > 0 {
                // Sealing is the write path's O(1) rotation: one fsync + one dir barrier under the lock, never a rewrite
                seal_active(&self.shared, &mut inner)?;
            }
        }
        compactor::request(&self.shared);
        compactor::quiesce(&self.shared)
    }

    /// Schedules a background compaction if the journal is oversized and
    /// mostly garbage, or too many sealed segments have piled up.  O(1)
    /// and non-blocking; called with the storage lock held.
    fn maybe_request_compact(&self, inner: &WalInner) {
        if self.compact_wanted(inner) {
            compactor::request(&self.shared);
        }
    }

    /// The compaction trigger: the journal is oversized and mostly garbage,
    /// or too many sealed segments have piled up.
    fn compact_wanted(&self, inner: &WalInner) -> bool {
        if inner.sealed.is_empty() {
            return false;
        }
        let threshold = self
            .shared
            .compact_threshold
            .load(Ordering::Relaxed)
            .max(COMPACT_THRESHOLD_FLOOR);
        let disk = inner.disk_bytes();
        (disk > threshold && disk > 2 * inner.state.live_bytes)
            || inner.sealed.len() >= MAX_SEALED_SEGMENTS
    }

    /// Writes `ops` as one contiguous record group and updates the
    /// materialized view.  Does *not* issue the barrier.
    ///
    /// The group is encoded chunked: metadata runs in small contiguous
    /// segments, payload bytes as shared refcounted segments fed to a
    /// vectored write — a committed value is never copied between the
    /// protocol state and the syscall.
    fn write_group(&self, inner: &mut WalInner, ops: Vec<BatchOp>) -> Result<()> {
        inner.active_bytes += segment::write_group_to(&mut inner.active, &ops)?;
        for op in ops {
            match &op {
                BatchOp::Store { value, .. } => self.shared.metrics.record_store(value.len()),
                BatchOp::Append { value, .. } => self.shared.metrics.record_append(value.len()),
                BatchOp::Remove { .. } => self.shared.metrics.record_remove(),
            }
            inner.state.apply(op);
        }
        Ok(())
    }

    /// One commit finished: rotate the active segment if it reached its
    /// size threshold (the rotation's barrier settles the backlog too),
    /// else fsync if the group window is full; then consider scheduling a
    /// background compaction.
    fn commit_barrier(&self, inner: &mut WalInner) -> Result<()> {
        inner.unsynced_commits += 1;
        let segment_bytes = self
            .shared
            .segment_bytes
            .load(Ordering::Relaxed)
            .max(SEGMENT_BYTES_FLOOR);
        if inner.active_bytes >= segment_bytes {
            seal_active(&self.shared, inner)?;
        } else if inner.unsynced_commits >= self.shared.group_window.load(Ordering::Relaxed) {
            inner.active.sync_data()?;
            inner.unsynced_commits = 0;
            self.shared.metrics.record_sync();
        }
        self.maybe_request_compact(inner);
        Ok(())
    }
}

/// Seals the active segment: makes it durable, renames it to its sealed
/// name and opens a fresh active segment.  O(1) in the journal size — no
/// record is ever rewritten here.  Called with the storage lock held: by
/// the write path at the size threshold, by [`WalStorage::compact`], and by
/// the compactor at the start of a pass.
fn seal_active(shared: &WalShared, inner: &mut WalInner) -> Result<()> {
    if inner.unsynced_commits > 0 {
        inner.active.sync_data()?;
        inner.unsynced_commits = 0;
        shared.metrics.record_sync();
    }
    let seq = inner.next_seq;
    let sealed_path = segment::sealed_path(&shared.path, seq);
    fs::rename(&shared.path, &sealed_path)?;
    let file = OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(&shared.path)?;
    // One directory barrier covers both the rename and the fresh active
    // segment's entry.
    segment::sync_parent_dir(&shared.path)?;
    shared.metrics.record_sync();
    let bytes = inner.active_bytes;
    inner.sealed.push(SealedSeg {
        seq,
        path: sealed_path,
        bytes,
    });
    inner.sealed_bytes += bytes;
    inner.next_seq = seq + 1;
    inner.active = file;
    inner.active_bytes = 0;
    inner.rotations += 1;
    Ok(())
}

impl Drop for WalStorage {
    fn drop(&mut self) {
        compactor::begin_shutdown(&self.shared);
        let worker = self.shared.worker.lock().take();
        if let Some(handle) = worker {
            // An in-flight pass finishes (bounded work) and the worker
            // exits; after this join no background thread can touch the
            // journal files, so a reopen of the same path is race-free.
            let _ = handle.join();
        }
    }
}

impl StableStorage for WalStorage {
    fn store(&self, key: &StorageKey, value: &[u8]) -> Result<()> {
        let mut inner = self.shared.inner.lock();
        // Journal writes are serialized by the inner lock; that serialization is what makes group commit and record order sound
        self.write_group(
            &mut inner,
            vec![BatchOp::Store {
                key: key.clone(),
                value: Bytes::copy_from_slice(value),
            }],
        )?;
        self.commit_barrier(&mut inner) // The group-commit barrier for the write just journaled under this lock: one fsync per group window, never per caller
    }

    fn load(&self, key: &StorageKey) -> Result<Option<Bytes>> {
        let inner = self.shared.inner.lock();
        // A refcounted view of the materialized record, not a copy.
        let value = inner.state.slots.get(key).cloned();
        self.shared
            .metrics
            .record_load(value.as_ref().map(Bytes::len).unwrap_or(0));
        Ok(value)
    }

    fn append(&self, key: &StorageKey, value: &[u8]) -> Result<()> {
        let mut inner = self.shared.inner.lock();
        // Same single-writer journal discipline as `store`
        self.write_group(
            &mut inner,
            vec![BatchOp::Append {
                key: key.clone(),
                value: Bytes::copy_from_slice(value),
            }],
        )?;
        self.commit_barrier(&mut inner) // The group-commit barrier for the write just journaled under this lock: one fsync per group window, never per caller
    }

    fn load_log(&self, key: &StorageKey) -> Result<Vec<Bytes>> {
        let inner = self.shared.inner.lock();
        let entries: Vec<Bytes> = inner.state.logs.get(key).cloned().unwrap_or_default();
        self.shared
            .metrics
            .record_load(entries.iter().map(Bytes::len).sum());
        Ok(entries)
    }

    fn remove(&self, key: &StorageKey) -> Result<()> {
        let mut inner = self.shared.inner.lock();
        // Same single-writer journal discipline as `store`
        self.write_group(&mut inner, vec![BatchOp::Remove { key: key.clone() }])?;
        self.commit_barrier(&mut inner) // The group-commit barrier for the write just journaled under this lock: one fsync per group window, never per caller
    }

    fn commit_batch(&self, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut inner = self.shared.inner.lock();
        // A batch must hit the journal as one contiguous record run; releasing between ops would interleave writers
        self.write_group(&mut inner, batch.into_ops())?;
        self.shared.metrics.record_batch_commit();
        self.commit_barrier(&mut inner) // The group-commit barrier for the write just journaled under this lock: one fsync per group window, never per caller
    }

    fn keys(&self) -> Result<Vec<StorageKey>> {
        let inner = self.shared.inner.lock();
        let mut keys: Vec<StorageKey> = inner
            .state
            .slots
            .keys()
            .chain(inner.state.logs.keys())
            .cloned()
            .collect();
        keys.sort();
        keys.dedup();
        Ok(keys)
    }

    fn note_checkpoint(&self, round: Round) {
        // The checkpoint just turned every pre-checkpoint consensus record
        // and delta into garbage — the single best moment to fold sealed
        // segments into the base.  Record the round for introspection and
        // nudge the worker if the usual trigger agrees.
        self.shared
            .checkpoint_round
            .store(round.value(), Ordering::Relaxed);
        // Evaluate the trigger under the lock, but request outside it:
        // waking the worker has no business extending the write-path hold.
        let wanted = {
            let inner = self.shared.inner.lock();
            self.compact_wanted(&inner)
        };
        if wanted {
            compactor::request(&self.shared);
        }
    }

    fn metrics(&self) -> &StorageMetrics {
        &self.shared.metrics
    }

    fn footprint_bytes(&self) -> u64 {
        self.shared.inner.lock().disk_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::segment::FRAME_HEADER;
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// A one-shot park point for the compactor.  Once armed, the next pass
    /// that reaches it waits there until the test releases it.
    #[derive(Debug, Default)]
    pub(crate) struct PausePoint {
        state: std::sync::Mutex<Pause>,
        cv: std::sync::Condvar,
    }

    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    enum Pause {
        #[default]
        Idle,
        Armed,
        Parked,
    }

    impl PausePoint {
        /// Called by the compactor: parks until released if armed.
        pub(crate) fn park(&self) {
            let mut state = self.state.lock().unwrap();
            if *state != Pause::Armed {
                return;
            }
            *state = Pause::Parked;
            self.cv.notify_all();
            while *state == Pause::Parked {
                state = self.cv.wait(state).unwrap();
            }
        }

        fn arm(&self) {
            *self.state.lock().unwrap() = Pause::Armed;
        }

        /// `true` once a pass is parked here, `false` after `bound`.
        fn wait_parked(&self, bound: Duration) -> bool {
            let state = self.state.lock().unwrap();
            let (state, _) = self
                .cv
                .wait_timeout_while(state, bound, |s| *s != Pause::Parked)
                .unwrap();
            *state == Pause::Parked
        }

        fn release(&self) {
            *self.state.lock().unwrap() = Pause::Idle;
            self.cv.notify_all();
        }
    }

    /// How long a test body may run before it counts as stalled.
    const STALL_BOUND: Duration = Duration::from_secs(20);

    /// Runs `body` on its own thread and returns its result, or panics,
    /// naming the last step the body announced, if it has not finished
    /// within [`STALL_BOUND`].  A lock inversion or a re-acquire in the WAL
    /// then fails the test instead of hanging it; the stalled thread is
    /// left behind.
    fn bounded<T: Send + 'static>(
        body: impl FnOnce(&dyn Fn(&'static str)) -> T + Send + 'static,
    ) -> T {
        let step = Arc::new(std::sync::Mutex::new("start"));
        let reached = Arc::clone(&step);
        let (done_tx, done_rx) = mpsc::channel();
        let runner = thread::Builder::new()
            .name(thread::current().name().unwrap_or("bounded").to_string())
            .spawn(move || {
                let _ = done_tx.send(body(&|name| *reached.lock().unwrap() = name));
            })
            .unwrap();
        match done_rx.recv_timeout(STALL_BOUND) {
            Ok(value) => {
                runner.join().unwrap();
                value
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!(
                "stalled for {STALL_BOUND:?} at step `{}`: a WAL lock is never released",
                step.lock().unwrap()
            ),
            // The body panicked: re-raise its panic here.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().unwrap_err())
            }
        }
    }

    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "abcast-wal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("journal.wal")
    }

    fn key(name: &str) -> StorageKey {
        StorageKey::new(name)
    }

    fn cleanup(path: &Path) {
        if let Some(dir) = path.parent() {
            let _ = fs::remove_dir_all(dir);
        }
    }

    /// Parses one segment file into `(offset, len)` frames for corruption
    /// tests.
    fn frames(path: &Path) -> Vec<(usize, usize)> {
        let data = fs::read(path).unwrap();
        let mut out = Vec::new();
        let mut offset = 0;
        while offset + FRAME_HEADER <= data.len() {
            let len = u32::from_le_bytes(data[offset..offset + 4].try_into().unwrap()) as usize;
            out.push((offset, FRAME_HEADER + len));
            offset += FRAME_HEADER + len;
        }
        out
    }

    #[test]
    fn store_append_remove_round_trip_across_reopen() {
        let path = temp_wal("roundtrip");
        {
            let s = WalStorage::open(&path).unwrap();
            s.store(&key("abcast/agreed"), b"checkpoint").unwrap();
            s.append(&key("log"), b"a").unwrap();
            s.append(&key("log"), b"bb").unwrap();
            s.store(&key("gone"), b"x").unwrap();
            s.remove(&key("gone")).unwrap();
        }
        let s = WalStorage::open(&path).unwrap();
        assert_eq!(
            s.load(&key("abcast/agreed")).unwrap().unwrap(),
            b"checkpoint"
        );
        assert_eq!(
            s.load_log(&key("log")).unwrap(),
            vec![b"a".to_vec(), b"bb".to_vec()]
        );
        assert_eq!(s.load(&key("gone")).unwrap(), None);
        assert_eq!(s.keys().unwrap(), vec![key("abcast/agreed"), key("log")]);
        cleanup(&path);
    }

    #[test]
    fn a_batch_commits_under_one_barrier() {
        let path = temp_wal("batch");
        let s = WalStorage::open(&path).unwrap().with_group_window(1);
        let mut batch = WriteBatch::new();
        batch.store(&key("slot"), b"v");
        batch.append(&key("log"), b"r1");
        batch.append(&key("log"), b"r2");
        s.commit_batch(batch).unwrap();
        let snap = s.metrics().snapshot();
        assert_eq!(snap.store_ops, 1);
        assert_eq!(snap.append_ops, 2);
        assert_eq!(snap.sync_ops, 1, "three records, one fsync");
        assert_eq!(snap.batch_commits, 1);
        cleanup(&path);
    }

    #[test]
    fn group_window_amortizes_fsyncs_over_commits() {
        let path = temp_wal("window");
        let s = WalStorage::open(&path).unwrap().with_group_window(4);
        for i in 0..7u8 {
            s.append(&key("log"), &[i]).unwrap();
        }
        // 7 commits, window 4: one fsync after the 4th, backlog of 3.
        assert_eq!(s.metrics().snapshot().sync_ops, 1);
        s.flush().unwrap();
        assert_eq!(s.metrics().snapshot().sync_ops, 2);
        s.flush().unwrap(); // nothing pending: no extra barrier
        assert_eq!(s.metrics().snapshot().sync_ops, 2);
        cleanup(&path);
    }

    #[test]
    fn torn_final_record_is_dropped_on_replay() {
        let path = temp_wal("torn");
        {
            let s = WalStorage::open(&path).unwrap().with_group_window(1);
            s.append(&key("log"), b"first").unwrap();
            s.append(&key("log"), b"second").unwrap();
        }
        // Simulate a crash mid-write: a frame header promising more bytes
        // than were ever written.
        let mut data = fs::read(&path).unwrap();
        let good_len = data.len();
        data.extend_from_slice(&100u32.to_le_bytes());
        data.extend_from_slice(&0u32.to_le_bytes());
        data.extend_from_slice(b"only a few bytes");
        fs::write(&path, &data).unwrap();

        let s = WalStorage::open(&path).unwrap();
        assert_eq!(
            s.load_log(&key("log")).unwrap(),
            vec![b"first".to_vec(), b"second".to_vec()],
            "the intact prefix survives"
        );
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            good_len as u64,
            "the torn tail is truncated away"
        );
        // The journal keeps working after the repair.
        s.append(&key("log"), b"third").unwrap();
        drop(s);
        let s = WalStorage::open(&path).unwrap();
        assert_eq!(s.load_log(&key("log")).unwrap().len(), 3);
        cleanup(&path);
    }

    #[test]
    fn crc_corrupt_middle_record_keeps_the_prefix_only() {
        let path = temp_wal("crc");
        {
            let s = WalStorage::open(&path).unwrap().with_group_window(1);
            s.append(&key("log"), b"first").unwrap();
            s.append(&key("log"), b"second").unwrap();
            s.append(&key("log"), b"third").unwrap();
        }
        let layout = frames(&path);
        assert_eq!(layout.len(), 3);
        // Flip one payload byte of the middle record.
        let mut data = fs::read(&path).unwrap();
        let (offset, _) = layout[1];
        data[offset + FRAME_HEADER + 2] ^= 0xFF;
        fs::write(&path, &data).unwrap();

        let s = WalStorage::open(&path).unwrap();
        assert_eq!(
            s.load_log(&key("log")).unwrap(),
            vec![b"first".to_vec()],
            "replay stops at the corrupt record: prefix-consistent state"
        );
        assert_eq!(fs::metadata(&path).unwrap().len(), layout[1].0 as u64);
        cleanup(&path);
    }

    #[test]
    fn rotation_seals_at_threshold_and_replays_across_segments() {
        let path = temp_wal("rotate");
        let entries: Vec<Vec<u8>> = (0..30u8).map(|i| vec![i; 64]).collect();
        {
            let s = WalStorage::open(&path)
                .unwrap()
                .with_group_window(1)
                .with_segment_bytes(256)
                .with_compact_threshold(u64::MAX);
            for entry in &entries {
                s.append(&key("log"), entry).unwrap();
            }
            let layout = s.layout();
            assert!(layout.rotations > 0, "the size threshold must rotate");
            assert!(
                layout.sealed_segments > 0,
                "sealed segments await compaction"
            );
            assert!(
                layout.active_bytes < 256 + 128,
                "the active segment stays near the threshold"
            );
            assert!(
                !segment::list_sealed(&path).unwrap().is_empty(),
                "sealed segment files exist on disk"
            );
        }
        // Replay must walk every sealed segment plus the active tail, in
        // order.
        let s = WalStorage::open(&path).unwrap();
        assert_eq!(s.load_log(&key("log")).unwrap(), entries);
        cleanup(&path);
    }

    #[test]
    fn background_compaction_merges_sealed_segments_and_reaps_them() {
        bounded(|step| {
            let path = temp_wal("compact");
            let s = WalStorage::open(&path)
                .unwrap()
                .with_group_window(1)
                .with_segment_bytes(256)
                .with_compact_threshold(512);
            // Overwrite one slot until the journal is mostly garbage.
            step("overwrite the slot");
            for i in 0..200u32 {
                s.store(&key("slot"), &i.to_le_bytes()).unwrap();
            }
            step("append");
            s.append(&key("log"), b"keep").unwrap();
            step("quiesce");
            s.quiesce().unwrap();
            let before = s.wal_size_bytes();
            assert!(s.compactions() > 0, "threshold compaction must trigger");
            let layout = s.layout();
            assert!(layout.base_bytes > 0, "a compacted base must exist");
            assert!(layout.covered_seq > 0);
            assert_eq!(
                segment::list_sealed(&path).unwrap().len(),
                layout.sealed_segments,
                "covered segment files are reaped from disk"
            );
            // A final explicit compaction folds everything that is left.
            step("explicit compact");
            s.compact().unwrap();
            assert!(s.wal_size_bytes() <= before);
            assert!(
                s.wal_size_bytes() < 512,
                "live state is tiny after compaction, journal was {}",
                s.wal_size_bytes()
            );
            step("drop");
            drop(s);

            // Recovery after compaction: base + tail replay cleanly.
            step("reopen");
            let s = WalStorage::open(&path).unwrap();
            assert_eq!(
                s.load(&key("slot")).unwrap().unwrap(),
                199u32.to_le_bytes()
            );
            assert_eq!(s.load_log(&key("log")).unwrap(), vec![b"keep".to_vec()]);
            cleanup(&path);
        });
    }

    #[test]
    fn explicit_compact_rewrites_live_state() {
        bounded(|step| {
            let path = temp_wal("explicit-compact");
            let s = WalStorage::open(&path).unwrap().with_group_window(1);
            step("store");
            for i in 0..50u32 {
                s.store(&key("slot"), &i.to_le_bytes()).unwrap();
            }
            let before = s.wal_size_bytes();
            step("compact");
            s.compact().unwrap();
            assert!(s.wal_size_bytes() < before);
            assert_eq!(s.load(&key("slot")).unwrap().unwrap(), 49u32.to_le_bytes());
            assert_eq!(s.layout().active_bytes, 0, "everything lives in the base");
            step("drop");
            drop(s);
            cleanup(&path);
        });
    }

    #[test]
    fn pathological_zero_threshold_compacts_rarely() {
        // `with_compact_threshold(0)` used to degenerate into a compaction
        // per commit window once half the journal was garbage.  The floor
        // clamp bounds the pass frequency by journal growth instead.
        bounded(|step| {
            let path = temp_wal("zero-threshold");
            let s = WalStorage::open(&path)
                .unwrap()
                .with_group_window(1)
                .with_segment_bytes(256)
                .with_compact_threshold(0);
            step("overwrite the slot");
            for i in 0..200u32 {
                s.store(&key("slot"), &i.to_le_bytes()).unwrap();
            }
            step("quiesce");
            s.quiesce().unwrap();
            assert!(
                s.rotations() >= 10,
                "the tiny segment size must rotate often ({} rotations)",
                s.rotations()
            );
            assert!(
                s.compactions() <= 8,
                "the threshold floor must keep compactions rare, got {}",
                s.compactions()
            );
            assert_eq!(s.load(&key("slot")).unwrap().unwrap(), 199u32.to_le_bytes());
            step("drop");
            drop(s);
            cleanup(&path);
        });
    }

    #[test]
    fn stale_compaction_temp_is_reaped_on_open() {
        let path = temp_wal("stale-temp");
        {
            let s = WalStorage::open(&path).unwrap().with_group_window(1);
            s.store(&key("slot"), b"value").unwrap();
        }
        // A crash between a compaction's tmp rewrite and its rename leaves
        // the temporary behind.
        let temp = segment::temp_path(&path);
        fs::write(&temp, b"half-written compaction output").unwrap();
        let s = WalStorage::open(&path).unwrap();
        assert!(!temp.exists(), "the stale temporary must be reaped");
        assert_eq!(s.load(&key("slot")).unwrap().unwrap(), b"value");
        cleanup(&path);
    }

    #[test]
    fn torn_sealed_segment_fails_open_as_corruption() {
        let path = temp_wal("torn-sealed");
        {
            let s = WalStorage::open(&path)
                .unwrap()
                .with_group_window(1)
                .with_segment_bytes(256)
                .with_compact_threshold(u64::MAX);
            s.append(&key("log"), &[7u8; 300]).unwrap(); // rotates immediately
            assert_eq!(s.layout().sealed_segments, 1);
        }
        let seg = segment::sealed_path(&path, 1);
        let data = fs::read(&seg).unwrap();
        fs::write(&seg, &data[..data.len() - 5]).unwrap();
        let err = WalStorage::open(&path).expect_err("torn sealed segment is corruption");
        assert!(
            err.to_string().contains("corruption"),
            "unexpected error: {err}"
        );
        cleanup(&path);
    }

    #[test]
    fn covered_segment_surviving_a_crash_is_not_replayed_twice() {
        bounded(|step| {
            // Crash window: compaction renamed the new base (covering seg-1)
            // but died before deleting the segment file.  Recovery must reap
            // the segment, not replay it — replaying would double-apply its
            // append records.
            let path = temp_wal("covered-seg");
            let backup = path.with_file_name("seg1.backup");
            {
                let s = WalStorage::open(&path)
                    .unwrap()
                    .with_group_window(1)
                    .with_segment_bytes(256)
                    .with_compact_threshold(u64::MAX);
                step("append");
                s.append(&key("log"), &[7u8; 300]).unwrap(); // seals as seg-1
                assert_eq!(s.layout().sealed_segments, 1);
                fs::copy(segment::sealed_path(&path, 1), &backup).unwrap();
                step("compact");
                s.compact().unwrap();
                assert_eq!(s.layout().covered_seq, 1);
                assert!(!segment::sealed_path(&path, 1).exists());
                step("drop");
            }
            step("reopen");
            // Resurrect the covered segment file, as the crash would have.
            fs::copy(&backup, segment::sealed_path(&path, 1)).unwrap();
            let s = WalStorage::open(&path).unwrap();
            assert_eq!(
                s.load_log(&key("log")).unwrap().len(),
                1,
                "the covered segment must not be replayed on top of the base"
            );
            assert!(
                !segment::sealed_path(&path, 1).exists(),
                "recovery reaps covered segments"
            );
            cleanup(&path);
        });
    }

    #[test]
    fn missing_active_segment_after_seal_recovers_from_sealed_state() {
        // Crash window: the seal renamed the active segment but died
        // before the fresh active file was created.
        let path = temp_wal("seal-gap");
        {
            let s = WalStorage::open(&path)
                .unwrap()
                .with_group_window(1)
                .with_segment_bytes(256)
                .with_compact_threshold(u64::MAX);
            s.append(&key("log"), &[3u8; 300]).unwrap(); // seals as seg-1
            assert_eq!(s.layout().sealed_segments, 1);
            assert_eq!(s.layout().active_bytes, 0);
        }
        fs::remove_file(&path).unwrap(); // the fresh active never hit disk
        let s = WalStorage::open(&path).unwrap();
        assert_eq!(s.load_log(&key("log")).unwrap(), vec![vec![3u8; 300]]);
        s.append(&key("log"), b"after-recovery").unwrap();
        drop(s);
        let s = WalStorage::open(&path).unwrap();
        assert_eq!(s.load_log(&key("log")).unwrap().len(), 2);
        cleanup(&path);
    }

    #[test]
    fn note_checkpoint_records_the_round_for_introspection() {
        let path = temp_wal("checkpoint-hook");
        let s = WalStorage::open(&path).unwrap();
        assert_eq!(s.layout().checkpoint_round, None);
        s.store(&key("slot"), b"v").unwrap();
        s.note_checkpoint(Round::new(7));
        assert_eq!(s.layout().checkpoint_round, Some(7));
        cleanup(&path);
    }

    #[test]
    fn replayed_records_are_zero_copy_views_of_the_journal_read() {
        let path = temp_wal("zero-copy-replay");
        {
            let s = WalStorage::open(&path).unwrap().with_group_window(1);
            s.append(&key("log"), b"first-record").unwrap();
            s.append(&key("log"), b"second-record").unwrap();
            s.store(&key("slot"), b"slot-value").unwrap();
        }
        let s = WalStorage::open(&path).unwrap();
        let entries = s.load_log(&key("log")).unwrap();
        let slot = s.load(&key("slot")).unwrap().unwrap();
        assert_eq!(entries.len(), 2);
        assert!(
            entries[0].shares_allocation_with(&entries[1])
                && entries[0].shares_allocation_with(&slot),
            "replayed records must be slices of the single segment read buffer"
        );
        cleanup(&path);
    }

    #[test]
    fn replaying_a_mostly_dead_journal_does_not_pin_the_read_buffer() {
        // A journal bloated with overwritten records (crash before a
        // pending compaction) must not stay resident just because a few
        // live views point into it: replay detaches the live records when
        // dead bytes dominate, so memory is O(live), not O(journal).
        let path = temp_wal("no-pin");
        {
            let s = WalStorage::open(&path)
                .unwrap()
                .with_group_window(1)
                .with_compact_threshold(u64::MAX); // never compact
            s.store(&key("stable"), b"survivor-one").unwrap();
            s.append(&key("log"), b"survivor-two").unwrap();
            for i in 0..100u32 {
                s.store(&key("churn"), &[i as u8; 64]).unwrap();
            }
        }
        let s = WalStorage::open(&path).unwrap();
        let slot = s.load(&key("stable")).unwrap().unwrap();
        let log = s.load_log(&key("log")).unwrap();
        assert_eq!(slot, b"survivor-one");
        assert_eq!(log[0], b"survivor-two");
        assert!(
            !slot.shares_allocation_with(&log[0]),
            "live records of a mostly-dead journal must be detached from the read buffer"
        );
        cleanup(&path);
    }

    #[test]
    fn committed_payloads_are_not_copied_into_the_journal_write() {
        use abcast_types::copymeter;
        let path = temp_wal("zero-copy-write");
        let s = WalStorage::open(&path).unwrap().with_group_window(1);
        let mut batch = WriteBatch::new();
        batch.store_payload(&key("slot"), Bytes::from(vec![1u8; 256]));
        batch.append_payload(&key("log"), Bytes::from(vec![2u8; 256]));
        let before = copymeter::snapshot();
        s.commit_batch(batch).unwrap();
        let delta = copymeter::snapshot().since(&before);
        assert_eq!(
            delta.payload_copies, 0,
            "the vectored group write must not flatten payloads"
        );
        // The journal round-trips regardless.
        drop(s);
        let s = WalStorage::open(&path).unwrap();
        assert_eq!(s.load(&key("slot")).unwrap().unwrap(), vec![1u8; 256]);
        cleanup(&path);
    }

    #[test]
    fn unsynced_group_commits_survive_a_process_crash_reopen() {
        let path = temp_wal("unsynced");
        {
            // Window larger than the number of commits: no fsync ever runs.
            let s = WalStorage::open(&path).unwrap().with_group_window(1000);
            s.append(&key("log"), b"written-not-synced").unwrap();
            assert_eq!(s.metrics().snapshot().sync_ops, 0);
        }
        // A process crash drops the handle; the journal (page cache /
        // file system) still has the record.
        let s = WalStorage::open(&path).unwrap();
        assert_eq!(
            s.load_log(&key("log")).unwrap(),
            vec![b"written-not-synced".to_vec()]
        );
        cleanup(&path);
    }

    #[test]
    fn a_pass_over_an_empty_active_segment_seals_nothing() {
        bounded(|step| {
            let path = temp_wal("empty-seal");
            let s = WalStorage::open(&path)
                .unwrap()
                .with_group_window(1)
                .with_segment_bytes(256)
                .with_compact_threshold(u64::MAX);
            step("append");
            s.append(&key("log"), &[7u8; 300]).unwrap(); // rotates immediately
            assert_eq!(s.layout().active_bytes, 0);
            assert_eq!(s.rotations(), 1);
            step("first compact");
            s.compact().unwrap();
            assert_eq!(s.rotations(), 1, "an empty active segment is not sealed");
            assert_eq!(s.compactions(), 1);
            // Nothing sealed and nothing active: the pass is a no-op.
            step("second compact");
            s.compact().unwrap();
            assert_eq!(s.rotations(), 1);
            assert_eq!(s.compactions(), 1);
            step("drop");
            drop(s);
            cleanup(&path);
        });
    }

    #[test]
    fn a_store_does_not_wait_on_the_compaction_rewrite() {
        // The compactor parks between creating its temporary and the
        // rename, and a store from another thread must still return.  A
        // storage lock (`inner` or `comp`) held anywhere across the
        // rewrite would make every writer wait on the compactor's I/O.
        const BOUND: Duration = Duration::from_secs(10);
        bounded(|step| {
            let path = temp_wal("store-vs-rewrite");
            let s = Arc::new(
                WalStorage::open(&path)
                    .unwrap()
                    .with_group_window(1)
                    .with_segment_bytes(256)
                    .with_compact_threshold(u64::MAX),
            );
            // Fifteen sealed segments: each 300-byte store rotates.
            step("fill");
            for i in 0..15u8 {
                s.store(&key("slot"), &[i; 300]).unwrap();
            }
            assert_eq!(s.compactions(), 0);
            step("park the compactor");
            s.shared.rewrite_pause.arm();
            compactor::request(&s.shared);
            let parked = s.shared.rewrite_pause.wait_parked(BOUND);
            // From here every store also requests a compaction, so it takes
            // `comp` as well as `inner`.
            s.shared.compact_threshold.store(0, Ordering::Relaxed);
            step("store during the rewrite");
            let stored = parked && {
                let (done_tx, done_rx) = mpsc::channel();
                let writer = Arc::clone(&s);
                let writer = thread::spawn(move || {
                    writer.store(&key("slot"), &[99; 300]).unwrap();
                    let _ = done_tx.send(());
                });
                // A writer that is still blocked is left behind.
                let stored = done_rx.recv_timeout(BOUND).is_ok();
                if stored {
                    writer.join().unwrap();
                }
                stored
            };
            // Release before asserting, so that a failure does not leave
            // the compactor parked for `WalStorage::drop` to join.
            s.shared.rewrite_pause.release();
            assert!(parked, "the compactor never reached the rewrite");
            assert!(
                stored,
                "a store did not return within {BOUND:?} while the compaction rewrite was \
                 parked: a storage lock is held across it"
            );
            step("quiesce");
            s.quiesce().unwrap();
            assert!(s.compactions() >= 1);
            assert_eq!(s.load(&key("slot")).unwrap().unwrap(), [99; 300]);
            step("drop");
            drop(s);
            cleanup(&path);
        });
    }

    #[test]
    fn crash_after_the_compactor_seal_before_the_base_rename_reopens_committed_state() {
        bounded(|step| {
            let path = temp_wal("seal-then-crash");
            let entries: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i; 40]).collect();
            {
                let s = WalStorage::open(&path)
                    .unwrap()
                    .with_group_window(4)
                    .with_segment_bytes(256)
                    .with_compact_threshold(u64::MAX);
                step("first compact");
                s.store(&key("slot"), b"first").unwrap();
                s.compact().unwrap(); // an old base exists
                step("append");
                for entry in &entries {
                    s.append(&key("log"), entry).unwrap();
                }
                s.store(&key("slot"), b"second").unwrap();
                assert!(s.layout().active_bytes > 0, "need records to seal");
                // The first step of a pass, then the process dies while the
                // new base is half written to the temporary.
                step("seal");
                seal_active(&s.shared, &mut s.shared.inner.lock()).unwrap();
                assert_eq!(s.layout().active_bytes, 0);
                fs::write(segment::temp_path(&path), b"half a base").unwrap();
                step("drop");
            }
            step("reopen");
            let s = WalStorage::open(&path).unwrap();
            assert!(!segment::temp_path(&path).exists(), "the temporary is reaped");
            assert_eq!(s.load(&key("slot")).unwrap().unwrap(), b"second");
            assert_eq!(s.load_log(&key("log")).unwrap(), entries);
            cleanup(&path);
        });
    }

    proptest! {
        #[test]
        fn prop_wal_matches_a_map_model_across_reopen_with_rotation(
            ops in proptest::collection::vec(
                (0usize..3, 0usize..4, proptest::collection::vec(any::<u8>(), 0..12)), 1..40)) {
            let path = temp_wal("prop");
            let names = ["a", "b", "c", "d"];
            let mut slots: BTreeMap<String, Vec<u8>> = BTreeMap::new();
            let mut logs: BTreeMap<String, Vec<Vec<u8>>> = BTreeMap::new();
            {
                // Floor-sized segments: rotation happens every few records,
                // so the model check covers multi-segment replay too.
                let s = WalStorage::open(&path).unwrap()
                    .with_group_window(3)
                    .with_segment_bytes(1);
                for (kind, which, value) in ops {
                    let name = names[which];
                    match kind {
                        0 => {
                            s.store(&key(name), &value).unwrap();
                            slots.insert(name.to_string(), value);
                        }
                        1 => {
                            s.append(&key(name), &value).unwrap();
                            logs.entry(name.to_string()).or_default().push(value);
                        }
                        _ => {
                            s.remove(&key(name)).unwrap();
                            slots.remove(name);
                            logs.remove(name);
                        }
                    }
                }
            }
            let s = WalStorage::open(&path).unwrap();
            for name in names {
                prop_assert_eq!(
                    s.load(&key(name)).unwrap(),
                    slots.get(name).cloned().map(Bytes::from));
                prop_assert_eq!(
                    s.load_log(&key(name)).unwrap(),
                    logs.get(name).cloned().unwrap_or_default());
            }
            cleanup(&path);
        }

        #[test]
        fn prop_compaction_from_the_view_reopens_to_the_pre_close_view(
            ops in proptest::collection::vec(
                (0usize..8, 0usize..3, proptest::collection::vec(any::<u8>(), 0..64)), 1..120)) {
            let path = temp_wal("prop-compact");
            fn view(s: &WalStorage) -> Vec<(Option<Bytes>, Vec<Bytes>)> {
                ["a", "b", "c"]
                    .iter()
                    .map(|name| (s.load(&key(name)).unwrap(), s.load_log(&key(name)).unwrap()))
                    .collect()
            }
            let (before_close, slots, logs) = bounded({
                let path = path.clone();
                move |step| {
                    let names = ["a", "b", "c"];
                    let mut slots: BTreeMap<String, Vec<u8>> = BTreeMap::new();
                    let mut logs: BTreeMap<String, Vec<Vec<u8>>> = BTreeMap::new();
                    // Minimum segment size and compaction threshold: seals
                    // every few records and background passes race the
                    // commits, with explicit passes interleaved on top.
                    let s = WalStorage::open(&path).unwrap()
                        .with_group_window(3)
                        .with_segment_bytes(256)
                        .with_compact_threshold(0);
                    step("apply the ops");
                    for (kind, which, value) in ops {
                        let name = names[which];
                        match kind {
                            0 | 1 => {
                                s.store(&key(name), &value).unwrap();
                                slots.insert(name.to_string(), value);
                            }
                            2..=4 => {
                                s.append(&key(name), &value).unwrap();
                                logs.entry(name.to_string()).or_default().push(value);
                            }
                            5 | 6 => {
                                s.remove(&key(name)).unwrap();
                                slots.remove(name);
                                logs.remove(name);
                            }
                            _ => s.compact().unwrap(),
                        }
                    }
                    step("quiesce");
                    s.quiesce().unwrap();
                    let before_close = view(&s);
                    step("drop");
                    drop(s);
                    (before_close, slots, logs)
                }
            });
            for (name, (slot, log)) in ["a", "b", "c"].iter().zip(&before_close) {
                prop_assert_eq!(slot.clone(), slots.get(*name).cloned().map(Bytes::from));
                prop_assert_eq!(log.clone(), logs.get(*name).cloned().unwrap_or_default());
            }
            let s = WalStorage::open(&path).unwrap();
            prop_assert_eq!(view(&s), before_close);
            cleanup(&path);
        }
    }
}
