//! Counting stable-storage operations.
//!
//! The central quantitative claim of the paper (Section 4.3) is about the
//! *number of log operations*: the basic protocol performs no log operation
//! beyond the one the underlying Consensus already requires, and the
//! alternative protocol of Section 5 trades a few more for faster recovery
//! and better throughput.  [`StorageMetrics`] counts every operation and
//! every byte so that the experiment harness can verify those claims.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Thread-safe counters shared by a storage implementation and the
/// experiment harness.
///
/// Cloning a `StorageMetrics` yields a handle onto the *same* counters.
#[derive(Clone, Debug, Default)]
pub struct StorageMetrics {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    store_ops: AtomicU64,
    append_ops: AtomicU64,
    load_ops: AtomicU64,
    remove_ops: AtomicU64,
    sync_ops: AtomicU64,
    batch_commits: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

/// A point-in-time copy of the counters, suitable for reporting and
/// differencing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageSnapshot {
    /// Number of slot overwrites (`store`).
    pub store_ops: u64,
    /// Number of log appends (`append`).
    pub append_ops: u64,
    /// Number of reads (`load` + `load_log`).
    pub load_ops: u64,
    /// Number of removals.
    pub remove_ops: u64,
    /// Number of durability barriers (fsync or its in-memory analogue).
    /// A standalone `store`/`append` counts one barrier; a committed
    /// [`crate::WriteBatch`] counts one barrier for all its operations — the
    /// quantity group commit attacks, pinned by `tests/protocol_costs.rs`.
    pub sync_ops: u64,
    /// Number of [`crate::WriteBatch`] commits.
    pub batch_commits: u64,
    /// Total bytes written by `store` and `append`.
    pub bytes_written: u64,
    /// Total bytes returned by `load` and `load_log`.
    pub bytes_read: u64,
}

impl StorageSnapshot {
    /// Total number of *write* log operations — the quantity the paper's
    /// minimality argument (Section 4.3) is about.
    pub fn write_ops(&self) -> u64 {
        self.store_ops + self.append_ops
    }

    /// Counter-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &StorageSnapshot) -> StorageSnapshot {
        StorageSnapshot {
            store_ops: self.store_ops.saturating_sub(earlier.store_ops),
            append_ops: self.append_ops.saturating_sub(earlier.append_ops),
            load_ops: self.load_ops.saturating_sub(earlier.load_ops),
            remove_ops: self.remove_ops.saturating_sub(earlier.remove_ops),
            sync_ops: self.sync_ops.saturating_sub(earlier.sync_ops),
            batch_commits: self.batch_commits.saturating_sub(earlier.batch_commits),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
        }
    }

    /// Counter-wise sum of two snapshots (used to aggregate over processes).
    pub fn plus(&self, other: &StorageSnapshot) -> StorageSnapshot {
        StorageSnapshot {
            store_ops: self.store_ops + other.store_ops,
            append_ops: self.append_ops + other.append_ops,
            load_ops: self.load_ops + other.load_ops,
            remove_ops: self.remove_ops + other.remove_ops,
            sync_ops: self.sync_ops + other.sync_ops,
            batch_commits: self.batch_commits + other.batch_commits,
            bytes_written: self.bytes_written + other.bytes_written,
            bytes_read: self.bytes_read + other.bytes_read,
        }
    }
}

impl StorageMetrics {
    /// Creates a fresh set of counters, all zero.
    pub fn new() -> Self {
        StorageMetrics::default()
    }

    /// Records one `store` of `bytes` bytes.
    pub fn record_store(&self, bytes: usize) {
        self.inner.store_ops.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one `append` of `bytes` bytes.
    pub fn record_append(&self, bytes: usize) {
        self.inner.append_ops.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one read returning `bytes` bytes.
    pub fn record_load(&self, bytes: usize) {
        self.inner.load_ops.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_read
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one removal.
    pub fn record_remove(&self) {
        self.inner.remove_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one durability barrier.
    pub fn record_sync(&self) {
        self.inner.sync_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one batch commit.
    pub fn record_batch_commit(&self) {
        self.inner.batch_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the counters.
    pub fn snapshot(&self) -> StorageSnapshot {
        StorageSnapshot {
            store_ops: self.inner.store_ops.load(Ordering::Relaxed),
            append_ops: self.inner.append_ops.load(Ordering::Relaxed),
            load_ops: self.inner.load_ops.load(Ordering::Relaxed),
            remove_ops: self.inner.remove_ops.load(Ordering::Relaxed),
            sync_ops: self.inner.sync_ops.load(Ordering::Relaxed),
            batch_commits: self.inner.batch_commits.load(Ordering::Relaxed),
            bytes_written: self.inner.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.inner.bytes_read.load(Ordering::Relaxed),
        }
    }

    /// Total number of write operations so far.
    pub fn write_ops(&self) -> u64 {
        self.snapshot().write_ops()
    }

    /// Total number of bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.inner.bytes_written.load(Ordering::Relaxed)
    }

    /// Total number of durability barriers so far.
    pub fn sync_ops(&self) -> u64 {
        self.inner.sync_ops.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let m = StorageMetrics::new();
        assert_eq!(m.snapshot(), StorageSnapshot::default());
        assert_eq!(m.write_ops(), 0);
        assert_eq!(m.bytes_written(), 0);
    }

    #[test]
    fn operations_are_counted() {
        let m = StorageMetrics::new();
        m.record_store(10);
        m.record_append(5);
        m.record_append(5);
        m.record_load(20);
        m.record_remove();
        m.record_sync();
        m.record_batch_commit();
        let s = m.snapshot();
        assert_eq!(s.store_ops, 1);
        assert_eq!(s.append_ops, 2);
        assert_eq!(s.load_ops, 1);
        assert_eq!(s.remove_ops, 1);
        assert_eq!(s.sync_ops, 1);
        assert_eq!(s.batch_commits, 1);
        assert_eq!(s.bytes_written, 20);
        assert_eq!(s.bytes_read, 20);
        assert_eq!(s.write_ops(), 3);
        assert_eq!(m.sync_ops(), 1);
    }

    #[test]
    fn clones_share_counters() {
        let m = StorageMetrics::new();
        let m2 = m.clone();
        m.record_store(1);
        m2.record_append(2);
        assert_eq!(m.write_ops(), 2);
        assert_eq!(m2.write_ops(), 2);
    }

    #[test]
    fn snapshot_difference_and_sum() {
        let m = StorageMetrics::new();
        m.record_store(10);
        let before = m.snapshot();
        m.record_store(10);
        m.record_append(3);
        let after = m.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.store_ops, 1);
        assert_eq!(delta.append_ops, 1);
        assert_eq!(delta.bytes_written, 13);

        let sum = before.plus(&delta);
        assert_eq!(sum, after);
    }

    #[test]
    fn since_saturates_when_reversed() {
        let m = StorageMetrics::new();
        let before = m.snapshot();
        m.record_store(4);
        let after = m.snapshot();
        let reversed = before.since(&after);
        assert_eq!(reversed, StorageSnapshot::default());
    }
}
