//! Transactional write batches: many `log` operations, one durability
//! barrier.
//!
//! The paper's cost model counts *log operations* because each one pays a
//! stable-storage barrier.  In practice a single protocol step often writes
//! several records (an acceptor persists its promise *and* its accepted
//! value; `A-broadcast` logs the `Unordered` set and then the consensus
//! proposal).  [`WriteBatch`] lets callers stage those records and commit
//! them together; every [`StableStorage`] backend accepts a batch through
//! [`StableStorage::commit_batch`], and backends with a physical log (the
//! WAL of [`crate::wal`]) turn the whole batch into **one** fsync.
//!
//! [`StagedStorage`] is the adapter that makes the batching transparent to
//! protocol code: it implements [`StableStorage`] by buffering every write
//! into a pending batch (reads see the staged state), and the owner commits
//! the accumulated batch at the end of the step.

use bytes::Bytes;
use parking_lot::Mutex;

use abcast_types::codec::{to_payload, Encode};
use abcast_types::Result;

use crate::api::{SharedStorage, StableStorage, StorageKey};
use crate::metrics::StorageMetrics;

/// One staged stable-storage mutation.
///
/// Values are refcounted [`Bytes`]: staging a payload that already lives in
/// a `Bytes` buffer (a decoded wire frame, an encoded record) moves a view,
/// not the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchOp {
    /// Overwrite the slot `key` with `value`.
    Store {
        /// Slot to overwrite.
        key: StorageKey,
        /// New value of the slot.
        value: Bytes,
    },
    /// Append `value` to the log `key`.
    Append {
        /// Log to extend.
        key: StorageKey,
        /// Record to append.
        value: Bytes,
    },
    /// Remove the slot or log `key`.
    Remove {
        /// Key to remove.
        key: StorageKey,
    },
}

impl BatchOp {
    /// The key this operation touches.
    pub fn key(&self) -> &StorageKey {
        match self {
            BatchOp::Store { key, .. } | BatchOp::Append { key, .. } | BatchOp::Remove { key } => {
                key
            }
        }
    }

    /// Number of payload bytes this operation writes.
    pub fn payload_len(&self) -> usize {
        match self {
            BatchOp::Store { value, .. } | BatchOp::Append { value, .. } => value.len(),
            BatchOp::Remove { .. } => 0,
        }
    }
}

/// A staged transaction of `store`/`append`/`remove` operations that is
/// committed with a single durability barrier.
///
/// Operations are applied in staging order.  A batch is *not* crash-atomic
/// on disk: the WAL writes the batch as one contiguous group of
/// individually CRC-framed records and replays only the intact *prefix*
/// of a group torn by a crash.  Callers therefore stage operations in an
/// order that is safe to replay partially — which the protocol layers here
/// always do (their writes are idempotent, and removals that depend on a
/// preceding store are staged after it).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WriteBatch {
    ops: Vec<BatchOp>,
}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Stages an overwrite of the slot `key` (the bytes are copied into a
    /// fresh buffer; use [`WriteBatch::store_payload`] for a zero-copy
    /// staging of an existing `Bytes`).
    pub fn store(&mut self, key: &StorageKey, value: &[u8]) {
        self.store_payload(key, Bytes::copy_from_slice(value));
    }

    /// Stages an overwrite of the slot `key` with an existing refcounted
    /// buffer — no copy.
    pub fn store_payload(&mut self, key: &StorageKey, value: Bytes) {
        self.ops.push(BatchOp::Store {
            key: key.clone(),
            value,
        });
    }

    /// Stages an append to the log `key` (copies; see
    /// [`WriteBatch::append_payload`]).
    pub fn append(&mut self, key: &StorageKey, value: &[u8]) {
        self.append_payload(key, Bytes::copy_from_slice(value));
    }

    /// Stages an append to the log `key` of an existing refcounted buffer
    /// — no copy.
    pub fn append_payload(&mut self, key: &StorageKey, value: Bytes) {
        self.ops.push(BatchOp::Append {
            key: key.clone(),
            value,
        });
    }

    /// Stages a removal of the slot or log `key`.
    pub fn remove(&mut self, key: &StorageKey) {
        self.ops.push(BatchOp::Remove { key: key.clone() });
    }

    /// Stages a codec-encoded overwrite of the slot `key`.  The encoding
    /// is moved into the batch, not copied.
    pub fn store_value<T: Encode + ?Sized>(&mut self, key: &StorageKey, value: &T) {
        self.ops.push(BatchOp::Store {
            key: key.clone(),
            value: to_payload(value),
        });
    }

    /// Stages a codec-encoded append to the log `key`.  The encoding is
    /// moved into the batch, not copied.
    pub fn append_value<T: Encode + ?Sized>(&mut self, key: &StorageKey, value: &T) {
        self.ops.push(BatchOp::Append {
            key: key.clone(),
            value: to_payload(value),
        });
    }

    /// Appends every operation of `other` to this batch.
    pub fn merge(&mut self, other: WriteBatch) {
        self.ops.extend(other.ops);
    }

    /// The staged operations, in staging order.
    pub fn ops(&self) -> &[BatchOp] {
        &self.ops
    }

    /// Consumes the batch, yielding its operations.
    pub fn into_ops(self) -> Vec<BatchOp> {
        self.ops
    }

    /// Number of staged operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when no operation is staged.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total payload bytes staged across all operations.
    pub fn payload_bytes(&self) -> usize {
        self.ops.iter().map(BatchOp::payload_len).sum()
    }
}

/// A [`StableStorage`] view that *stages* every write into a pending
/// [`WriteBatch`] instead of performing it.
///
/// Reads see the staged state (read-through), so protocol code behaves
/// identically whether it runs against the raw storage or a staged view.
/// The owner drains the pending batch with [`StagedStorage::take_pending`]
/// and commits it against the underlying storage — one barrier for the
/// whole step.  Committing a batch *into* a `StagedStorage` merges it into
/// the pending batch, so nested batching scopes compose.
pub struct StagedStorage {
    inner: SharedStorage,
    metrics: StorageMetrics,
    pending: Mutex<WriteBatch>,
}

impl StagedStorage {
    /// Creates a staging view over `inner`.
    pub fn new(inner: SharedStorage) -> Self {
        let metrics = inner.metrics().clone();
        StagedStorage {
            inner,
            metrics,
            pending: Mutex::new(WriteBatch::new()),
        }
    }

    /// Drains the staged operations accumulated so far.
    pub fn take_pending(&self) -> WriteBatch {
        std::mem::take(&mut *self.pending.lock())
    }

    /// The storage this view stages onto.
    pub fn inner(&self) -> &SharedStorage {
        &self.inner
    }
}

impl std::fmt::Debug for StagedStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StagedStorage")
            .field("pending_ops", &self.pending.lock().len())
            .finish()
    }
}

impl StableStorage for StagedStorage {
    fn store(&self, key: &StorageKey, value: &[u8]) -> Result<()> {
        self.pending.lock().store(key, value);
        Ok(())
    }

    fn load(&self, key: &StorageKey) -> Result<Option<Bytes>> {
        // The most recent staged mutation of the slot wins.
        let pending = self.pending.lock();
        for op in pending.ops().iter().rev() {
            match op {
                BatchOp::Store { key: k, value } if k == key => return Ok(Some(value.clone())),
                BatchOp::Remove { key: k } if k == key => return Ok(None),
                _ => {}
            }
        }
        drop(pending);
        self.inner.load(key)
    }

    fn append(&self, key: &StorageKey, value: &[u8]) -> Result<()> {
        self.pending.lock().append(key, value);
        Ok(())
    }

    fn load_log(&self, key: &StorageKey) -> Result<Vec<Bytes>> {
        // Replay staged removals and appends on top of the durable log.
        let pending = self.pending.lock();
        let mut removed = false;
        let mut appended: Vec<Bytes> = Vec::new();
        for op in pending.ops() {
            match op {
                BatchOp::Append { key: k, value } if k == key => appended.push(value.clone()),
                BatchOp::Remove { key: k } if k == key => {
                    removed = true;
                    appended.clear();
                }
                _ => {}
            }
        }
        drop(pending);
        let mut entries = if removed {
            Vec::new()
        } else {
            self.inner.load_log(key)?
        };
        entries.extend(appended);
        Ok(entries)
    }

    fn remove(&self, key: &StorageKey) -> Result<()> {
        self.pending.lock().remove(key);
        Ok(())
    }

    fn keys(&self) -> Result<Vec<StorageKey>> {
        let mut keys = self.inner.keys()?;
        let pending = self.pending.lock();
        for op in pending.ops() {
            match op {
                BatchOp::Store { key, .. } | BatchOp::Append { key, .. } => {
                    keys.push(key.clone());
                }
                BatchOp::Remove { key } => keys.retain(|k| k != key),
            }
        }
        drop(pending);
        keys.sort();
        keys.dedup();
        Ok(keys)
    }

    fn commit_batch(&self, batch: WriteBatch) -> Result<()> {
        // Nested scopes coalesce: the inner "commit" just joins this step's
        // pending batch and shares its eventual barrier.
        self.pending.lock().merge(batch);
        Ok(())
    }

    fn note_checkpoint(&self, round: abcast_types::Round) {
        // Advisory, not a staged mutation: forward straight to the backing
        // storage.  The compaction it may schedule reads only durable
        // files, so ordering against this step's pending batch is moot.
        self.inner.note_checkpoint(round);
    }

    fn metrics(&self) -> &StorageMetrics {
        &self.metrics
    }

    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes() + self.pending.lock().payload_bytes() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryStorage;
    use std::sync::Arc;

    fn key(name: &str) -> StorageKey {
        StorageKey::new(name)
    }

    #[test]
    fn batch_stages_operations_in_order() {
        let mut batch = WriteBatch::new();
        assert!(batch.is_empty());
        batch.store(&key("a"), b"1");
        batch.append(&key("b"), b"22");
        batch.remove(&key("c"));
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.payload_bytes(), 3);
        assert_eq!(batch.ops()[0].key(), &key("a"));
        assert_eq!(batch.ops()[1].payload_len(), 2);
        assert_eq!(batch.ops()[2].payload_len(), 0);
    }

    #[test]
    fn committing_a_batch_applies_everything_with_one_barrier() {
        let storage = InMemoryStorage::new();
        storage.append(&key("log"), b"old").unwrap();
        let before = storage.metrics().snapshot();

        let mut batch = WriteBatch::new();
        batch.store(&key("slot"), b"v");
        batch.append(&key("log"), b"new");
        batch.store_value(&key("typed"), &7u64);
        storage.commit_batch(batch).unwrap();

        let delta = storage.metrics().snapshot().since(&before);
        assert_eq!(delta.store_ops, 2);
        assert_eq!(delta.append_ops, 1);
        assert_eq!(delta.sync_ops, 1, "one barrier for the whole batch");
        assert_eq!(delta.batch_commits, 1);
        assert_eq!(storage.load(&key("slot")).unwrap().unwrap(), b"v");
        assert_eq!(
            storage.load_log(&key("log")).unwrap(),
            vec![b"old".to_vec(), b"new".to_vec()]
        );
    }

    #[test]
    fn empty_batch_commits_without_a_barrier() {
        let storage = InMemoryStorage::new();
        storage.commit_batch(WriteBatch::new()).unwrap();
        assert_eq!(storage.metrics().snapshot().sync_ops, 0);
    }

    #[test]
    fn staged_storage_reads_through_pending_writes() {
        let inner: SharedStorage = Arc::new(InMemoryStorage::new());
        inner.store(&key("slot"), b"durable").unwrap();
        inner.append(&key("log"), b"first").unwrap();

        let staged = StagedStorage::new(inner.clone());
        assert_eq!(staged.load(&key("slot")).unwrap().unwrap(), b"durable");
        staged.store(&key("slot"), b"staged").unwrap();
        assert_eq!(staged.load(&key("slot")).unwrap().unwrap(), b"staged");
        staged.append(&key("log"), b"second").unwrap();
        assert_eq!(
            staged.load_log(&key("log")).unwrap(),
            vec![b"first".to_vec(), b"second".to_vec()]
        );
        staged.remove(&key("slot")).unwrap();
        assert_eq!(staged.load(&key("slot")).unwrap(), None);

        // Nothing reached the durable storage yet.
        assert_eq!(inner.load(&key("slot")).unwrap().unwrap(), b"durable");
        assert_eq!(inner.load_log(&key("log")).unwrap().len(), 1);

        // Committing the pending batch applies it all at once.
        inner.commit_batch(staged.take_pending()).unwrap();
        assert_eq!(inner.load(&key("slot")).unwrap(), None);
        assert_eq!(inner.load_log(&key("log")).unwrap().len(), 2);
        assert_eq!(inner.metrics().snapshot().sync_ops, 3, "two standalone + one batch");
    }

    #[test]
    fn staged_storage_keys_reflect_pending_state() {
        let inner: SharedStorage = Arc::new(InMemoryStorage::new());
        inner.store(&key("keep"), b"x").unwrap();
        inner.store(&key("gone"), b"y").unwrap();
        let staged = StagedStorage::new(inner);
        staged.remove(&key("gone")).unwrap();
        staged.append(&key("fresh"), b"z").unwrap();
        assert_eq!(staged.keys().unwrap(), vec![key("fresh"), key("keep")]);
    }

    #[test]
    fn staged_remove_then_append_resets_the_log() {
        let inner: SharedStorage = Arc::new(InMemoryStorage::new());
        inner.append(&key("log"), b"durable").unwrap();
        let staged = StagedStorage::new(inner);
        staged.remove(&key("log")).unwrap();
        staged.append(&key("log"), b"fresh").unwrap();
        assert_eq!(staged.load_log(&key("log")).unwrap(), vec![b"fresh".to_vec()]);
    }

    #[test]
    fn nested_commit_merges_into_pending() {
        let inner: SharedStorage = Arc::new(InMemoryStorage::new());
        let staged = StagedStorage::new(inner.clone());
        let mut batch = WriteBatch::new();
        batch.store(&key("k"), b"v");
        staged.commit_batch(batch).unwrap();
        // The nested commit is invisible to the durable storage...
        assert_eq!(inner.load(&key("k")).unwrap(), None);
        // ...but visible through the staged view, and carried by the
        // pending batch.
        assert_eq!(staged.load(&key("k")).unwrap().unwrap(), b"v");
        assert_eq!(staged.take_pending().len(), 1);
    }
}
