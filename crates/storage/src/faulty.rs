//! Fault-injecting stable-storage wrapper for the deterministic fuzzer.
//!
//! [`FaultyStorage`] wraps any [`StableStorage`] and injects disk faults at
//! *seeded points*: every write operation (each staged op of a batch counts
//! individually) and every read call advances a deterministic op counter,
//! and when the counter crosses a point of its [`FaultSchedule`] the operation
//! fails the way a real disk does:
//!
//! * **disk-full** — the write is rejected before anything reaches the
//!   medium; a batch applies none of its operations;
//! * **short-write** — a batch applies a *prefix* of its operations and
//!   then fails (legal because [`crate::WriteBatch`] stages operations in
//!   an order that is safe to replay partially); a single-op write behaves
//!   like a torn record that replay discards, i.e. nothing is applied;
//! * **fsync-failure** — every operation reaches the medium but the
//!   durability barrier reports an error, so the caller must not act on
//!   the write being stable;
//! * **read-error** — `load` / `load_log` / `keys` fail, exercising the
//!   recovery read paths.
//!
//! The schedule is fixed at construction (derived from a fuzzer seed), so
//! a failing run replays exactly from its seed.  [`FaultyStorage::disarm`]
//! turns injection off for the heal/convergence phase of a fuzz scenario;
//! the per-kind counters report which fault families actually fired.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bytes::Bytes;

use abcast_types::{AbcastError, Result};

use crate::api::{SharedStorage, StableStorage, StorageKey};
use crate::batch::{BatchOp, WriteBatch};
use crate::metrics::StorageMetrics;

/// The kind of disk fault injected at a write fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WriteFaultKind {
    /// Reject the write outright; nothing is applied.
    DiskFull,
    /// Apply a prefix of the batch, then fail.
    ShortWrite,
    /// Apply everything, then fail the durability barrier.
    FsyncFailure,
}

/// Schedule of fault points, addressed by op counter values.
///
/// Write ops and read ops advance independent counters: fault points are
/// `(counter value, kind)` pairs, matched when an operation's counter range
/// covers the scheduled value.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    write_faults: BTreeMap<u64, WriteFaultKind>,
    read_faults: BTreeMap<u64, ()>,
}

impl FaultSchedule {
    /// An empty schedule (no faults fire until points are added).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Schedules a write fault at write-op index `at_op`.
    pub fn write_fault(mut self, at_op: u64, kind: WriteFaultKind) -> Self {
        self.write_faults.insert(at_op, kind);
        self
    }

    /// Schedules a read fault at read-op index `at_op`.
    pub fn read_fault(mut self, at_op: u64) -> Self {
        self.read_faults.insert(at_op, ());
        self
    }

    /// Number of scheduled fault points (write + read).
    pub fn len(&self) -> usize {
        self.write_faults.len() + self.read_faults.len()
    }

    /// `true` if no fault point is scheduled.
    pub fn is_empty(&self) -> bool {
        self.write_faults.is_empty() && self.read_faults.is_empty()
    }
}

/// Counts of injected faults, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Writes rejected with nothing applied.
    pub disk_full: u64,
    /// Batches that applied only a prefix.
    pub short_write: u64,
    /// Writes applied whose barrier then failed.
    pub fsync_failure: u64,
    /// Failed `load` / `load_log` / `keys` calls.
    pub read_error: u64,
}

impl InjectedFaults {
    /// Total number of injected faults.
    pub fn total(&self) -> u64 {
        self.disk_full + self.short_write + self.fsync_failure + self.read_error
    }
}

/// A [`StableStorage`] wrapper that injects deterministic disk faults.
pub struct FaultyStorage {
    inner: SharedStorage,
    schedule: FaultSchedule,
    armed: AtomicBool,
    write_ops: AtomicU64,
    read_ops: AtomicU64,
    disk_full: AtomicU64,
    short_write: AtomicU64,
    fsync_failure: AtomicU64,
    read_error: AtomicU64,
}

impl FaultyStorage {
    /// Wraps `inner` with the given fault schedule, armed.
    pub fn new(inner: SharedStorage, schedule: FaultSchedule) -> Self {
        FaultyStorage {
            inner,
            schedule,
            armed: AtomicBool::new(true),
            write_ops: AtomicU64::new(0),
            read_ops: AtomicU64::new(0),
            disk_full: AtomicU64::new(0),
            short_write: AtomicU64::new(0),
            fsync_failure: AtomicU64::new(0),
            read_error: AtomicU64::new(0),
        }
    }

    /// The wrapped storage.
    pub fn inner(&self) -> &SharedStorage {
        &self.inner
    }

    /// Stops injecting faults (op counters keep advancing).  Used for the
    /// heal phase of a fuzz scenario: the disk works again, the protocol
    /// must converge.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Counts of faults injected so far, by kind.
    pub fn injected(&self) -> InjectedFaults {
        InjectedFaults {
            disk_full: self.disk_full.load(Ordering::Acquire),
            short_write: self.short_write.load(Ordering::Acquire),
            fsync_failure: self.fsync_failure.load(Ordering::Acquire),
            read_error: self.read_error.load(Ordering::Acquire),
        }
    }

    /// Advances the write counter by `n` ops and returns the fault
    /// scheduled inside that range, if armed and one exists.
    fn check_write(&self, n: u64) -> Option<(u64, WriteFaultKind)> {
        let start = self.write_ops.fetch_add(n, Ordering::AcqRel);
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        self.schedule
            .write_faults
            .range(start..start + n)
            .next()
            .map(|(at, kind)| (*at, *kind))
    }

    /// Advances the read counter and reports whether this read must fail.
    fn check_read(&self, what: &str) -> Result<()> {
        let at = self.read_ops.fetch_add(1, Ordering::AcqRel);
        if self.armed.load(Ordering::Acquire) && self.schedule.read_faults.contains_key(&at) {
            self.read_error.fetch_add(1, Ordering::AcqRel);
            return Err(AbcastError::storage(format!(
                "injected read error at read op {at} ({what})"
            )));
        }
        Ok(())
    }

    /// Applies a single-op write with fault injection.
    fn faulted_write(
        &self,
        what: &str,
        apply: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        match self.check_write(1) {
            None => apply(),
            Some((at, WriteFaultKind::DiskFull)) => {
                self.disk_full.fetch_add(1, Ordering::AcqRel);
                Err(AbcastError::storage(format!(
                    "injected disk-full at write op {at} ({what})"
                )))
            }
            Some((at, WriteFaultKind::ShortWrite)) => {
                // A torn single record is discarded by replay: nothing lands.
                self.short_write.fetch_add(1, Ordering::AcqRel);
                Err(AbcastError::storage(format!(
                    "injected short write at write op {at} ({what})"
                )))
            }
            Some((at, WriteFaultKind::FsyncFailure)) => {
                apply()?;
                self.fsync_failure.fetch_add(1, Ordering::AcqRel);
                Err(AbcastError::storage(format!(
                    "injected fsync failure at write op {at} ({what})"
                )))
            }
        }
    }
}

impl StableStorage for FaultyStorage {
    fn store(&self, key: &StorageKey, value: &[u8]) -> Result<()> {
        self.faulted_write("store", || self.inner.store(key, value))
    }

    fn load(&self, key: &StorageKey) -> Result<Option<Bytes>> {
        self.check_read("load")?;
        self.inner.load(key)
    }

    fn append(&self, key: &StorageKey, value: &[u8]) -> Result<()> {
        self.faulted_write("append", || self.inner.append(key, value))
    }

    fn load_log(&self, key: &StorageKey) -> Result<Vec<Bytes>> {
        self.check_read("load_log")?;
        self.inner.load_log(key)
    }

    fn remove(&self, key: &StorageKey) -> Result<()> {
        self.faulted_write("remove", || self.inner.remove(key))
    }

    fn commit_batch(&self, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let n = batch.len() as u64;
        match self.check_write(n) {
            None => self.inner.commit_batch(batch),
            Some((at, WriteFaultKind::DiskFull)) => {
                self.disk_full.fetch_add(1, Ordering::AcqRel);
                Err(AbcastError::storage(format!(
                    "injected disk-full at write op {at} (batch of {n})"
                )))
            }
            Some((at, WriteFaultKind::ShortWrite)) => {
                // Apply a prefix of the staged ops, then fail: the batch
                // contract guarantees any prefix is safe to replay.
                let prefix = batch.len() / 2;
                for op in batch.into_ops().into_iter().take(prefix) {
                    let applied = match &op {
                        BatchOp::Store { key, value } => self.inner.store(key, value),
                        BatchOp::Append { key, value } => self.inner.append(key, value),
                        BatchOp::Remove { key } => self.inner.remove(key),
                    };
                    if applied.is_err() {
                        break;
                    }
                }
                self.short_write.fetch_add(1, Ordering::AcqRel);
                Err(AbcastError::storage(format!(
                    "injected short write at write op {at} ({prefix}/{n} ops applied)"
                )))
            }
            Some((at, WriteFaultKind::FsyncFailure)) => {
                self.inner.commit_batch(batch)?;
                self.fsync_failure.fetch_add(1, Ordering::AcqRel);
                Err(AbcastError::storage(format!(
                    "injected fsync failure at write op {at} (batch of {n})"
                )))
            }
        }
    }

    fn keys(&self) -> Result<Vec<StorageKey>> {
        self.check_read("keys")?;
        self.inner.keys()
    }

    fn note_checkpoint(&self, round: abcast_types::Round) {
        // Advisory and infallible by contract: no fault point applies.
        self.inner.note_checkpoint(round);
    }

    fn metrics(&self) -> &StorageMetrics {
        self.inner.metrics()
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryStorage;
    use std::sync::Arc;

    fn wrapped(schedule: FaultSchedule) -> FaultyStorage {
        FaultyStorage::new(Arc::new(InMemoryStorage::new()), schedule)
    }

    #[test]
    fn disk_full_applies_nothing() {
        let s = wrapped(FaultSchedule::new().write_fault(0, WriteFaultKind::DiskFull));
        assert!(s.store(&StorageKey::new("a"), b"x").is_err());
        assert_eq!(s.load(&StorageKey::new("a")).unwrap(), None);
        assert_eq!(s.injected().disk_full, 1);
        // The point is consumed positionally: the next write succeeds.
        s.store(&StorageKey::new("a"), b"y").unwrap();
        assert_eq!(s.load(&StorageKey::new("a")).unwrap().unwrap(), b"y");
    }

    #[test]
    fn fsync_failure_applies_the_write_but_reports_an_error() {
        let s = wrapped(FaultSchedule::new().write_fault(0, WriteFaultKind::FsyncFailure));
        assert!(s.store(&StorageKey::new("a"), b"x").is_err());
        assert_eq!(s.load(&StorageKey::new("a")).unwrap().unwrap(), b"x");
        assert_eq!(s.injected().fsync_failure, 1);
    }

    #[test]
    fn short_write_applies_a_replayable_prefix_of_a_batch() {
        let s = wrapped(FaultSchedule::new().write_fault(2, WriteFaultKind::ShortWrite));
        let mut batch = WriteBatch::new();
        batch.store(&StorageKey::new("a"), b"1");
        batch.store(&StorageKey::new("b"), b"2");
        batch.store(&StorageKey::new("c"), b"3");
        batch.store(&StorageKey::new("d"), b"4");
        assert!(s.commit_batch(batch).is_err());
        // len/2 = 2 ops applied, the rest lost.
        assert_eq!(s.load(&StorageKey::new("a")).unwrap().unwrap(), b"1");
        assert_eq!(s.load(&StorageKey::new("b")).unwrap().unwrap(), b"2");
        assert_eq!(s.load(&StorageKey::new("c")).unwrap(), None);
        assert_eq!(s.load(&StorageKey::new("d")).unwrap(), None);
        assert_eq!(s.injected().short_write, 1);
    }

    #[test]
    fn batch_ops_advance_the_write_counter_individually() {
        // Fault point at op 5: first batch covers ops 0..3, second 3..6.
        let s = wrapped(FaultSchedule::new().write_fault(5, WriteFaultKind::DiskFull));
        let mut b1 = WriteBatch::new();
        for k in ["a", "b", "c"] {
            b1.store(&StorageKey::new(k), b"v");
        }
        s.commit_batch(b1).unwrap();
        let mut b2 = WriteBatch::new();
        for k in ["d", "e", "f"] {
            b2.store(&StorageKey::new(k), b"v");
        }
        assert!(s.commit_batch(b2).is_err());
        assert_eq!(s.load(&StorageKey::new("d")).unwrap(), None);
    }

    #[test]
    fn read_faults_fire_then_pass_through() {
        let s = wrapped(FaultSchedule::new().read_fault(1));
        s.store(&StorageKey::new("a"), b"x").unwrap();
        assert!(s.load(&StorageKey::new("a")).is_ok()); // read op 0
        assert!(s.load(&StorageKey::new("a")).is_err()); // read op 1 fires
        assert!(s.load(&StorageKey::new("a")).is_ok()); // read op 2
        assert_eq!(s.injected().read_error, 1);
    }

    #[test]
    fn disarm_suppresses_scheduled_faults() {
        let s = wrapped(
            FaultSchedule::new()
                .write_fault(0, WriteFaultKind::DiskFull)
                .read_fault(0),
        );
        s.disarm();
        s.store(&StorageKey::new("a"), b"x").unwrap();
        assert_eq!(s.load(&StorageKey::new("a")).unwrap().unwrap(), b"x");
        assert_eq!(s.injected().total(), 0);
    }
}
