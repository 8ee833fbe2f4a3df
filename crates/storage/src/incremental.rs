//! Incremental logging of growing collections (Section 5.5).
//!
//! "When logging a queue or a set (such as the `Unordered` set) only its new
//! part (with respect to the previous logging) has to be logged.  This means
//! that a log operation can be saved each time the current value of a
//! variable that has to be logged does not differ from its previously logged
//! value."
//!
//! [`IncrementalSetLogger`] implements exactly that optimisation for a set
//! of [`Encode`]-able elements: each `persist` call writes only the elements
//! added since the previous call (and nothing at all when the set did not
//! change), while [`FullSetLogger`] rewrites the whole set every time.  Both
//! expose the same interface so experiment E5 can swap them and compare
//! bytes written.

use std::collections::BTreeSet;

use abcast_types::codec::{Decode, Encode};
use abcast_types::Result;

use crate::api::{StableStorage, StorageKey};
use crate::typed::TypedStorageExt;

/// Strategy for persisting a monotonically observed set of elements.
pub trait SetLogger<T> {
    /// Persists the current contents of `set`, or the part of it that needs
    /// persisting.  Returns the number of elements actually written (0 when
    /// the write was skipped entirely).
    fn persist(&mut self, storage: &dyn StableStorage, set: &BTreeSet<T>) -> Result<usize>;

    /// Reconstructs the most recently persisted set from stable storage.
    fn recover(&self, storage: &dyn StableStorage) -> Result<BTreeSet<T>>;

    /// Forgets any volatile bookkeeping, as a crash would.  The next
    /// `persist` must still produce a log from which `recover` returns a
    /// superset of what was persisted before the crash.
    fn forget(&mut self);
}

/// Logs the full value of the set on every call (the unoptimised behaviour).
#[derive(Debug, Clone)]
pub struct FullSetLogger {
    key: StorageKey,
}

impl FullSetLogger {
    /// Creates a full-value logger writing to slot `key`.
    pub fn new(key: StorageKey) -> Self {
        FullSetLogger { key }
    }
}

impl<T: Encode + Decode + Ord + Clone> SetLogger<T> for FullSetLogger {
    fn persist(&mut self, storage: &dyn StableStorage, set: &BTreeSet<T>) -> Result<usize> {
        storage.store_value(&self.key, set)?;
        Ok(set.len())
    }

    fn recover(&self, storage: &dyn StableStorage) -> Result<BTreeSet<T>> {
        Ok(storage.load_value(&self.key)?.unwrap_or_default())
    }

    fn forget(&mut self) {}
}

/// Logs only the elements added since the previous `persist` call.
///
/// Elements are only ever *added* between persists by the protocol (removal
/// happens implicitly when the set is re-created after delivery), so the
/// union of all appended increments is always a superset of the last
/// persisted value — which is exactly the guarantee `A-broadcast` needs
/// (a message may be delivered twice to the `Unordered` set but never lost;
/// duplicates are eliminated by identity, Section 4.1).
#[derive(Debug, Clone)]
pub struct IncrementalSetLogger<T> {
    key: StorageKey,
    last_persisted: BTreeSet<T>,
}

impl<T: Ord + Clone> IncrementalSetLogger<T> {
    /// Creates an incremental logger appending to log `key`.
    pub fn new(key: StorageKey) -> Self {
        IncrementalSetLogger {
            key,
            last_persisted: BTreeSet::new(),
        }
    }

    /// Number of elements known to already be on stable storage.
    pub fn persisted_len(&self) -> usize {
        self.last_persisted.len()
    }
}

impl<T: Encode + Decode + Ord + Clone> SetLogger<T> for IncrementalSetLogger<T> {
    fn persist(&mut self, storage: &dyn StableStorage, set: &BTreeSet<T>) -> Result<usize> {
        let new_elements: Vec<T> = set
            .iter()
            .filter(|e| !self.last_persisted.contains(*e))
            .cloned()
            .collect();
        if new_elements.is_empty() {
            // Nothing changed since the previous log operation: the write is
            // saved entirely (Section 5.5).
            return Ok(0);
        }
        storage.append_value(&self.key, &new_elements)?;
        for e in &new_elements {
            self.last_persisted.insert(e.clone());
        }
        Ok(new_elements.len())
    }

    fn recover(&self, storage: &dyn StableStorage) -> Result<BTreeSet<T>> {
        let increments: Vec<Vec<T>> = storage.load_log_values(&self.key)?;
        Ok(increments.into_iter().flatten().collect())
    }

    fn forget(&mut self) {
        self.last_persisted.clear();
    }
}

/// Bookkeeping for a *snapshot + delta* persistence scheme: a full value is
/// written rarely, and between snapshots only the changes are appended.
///
/// This generalises the [`IncrementalSetLogger`] idea to values that are
/// not sets (the `(k, Agreed)` checkpoint of Section 5.1): the caller
/// tracks "units persisted so far" (for the `Agreed` queue: messages ever
/// delivered) and asks the policy whether the next persist must be a full
/// snapshot or may be a delta record.  Snapshots are forced
/// ([`SnapshotDeltaPolicy::needs_snapshot`])
///
/// * the very first time (there is nothing to delta against),
/// * when the caller invalidated the delta chain (e.g. after adopting a
///   state transfer wholesale),
/// * every `snapshot_every` delta records, bounding replay length, and
/// * whenever the caller reports that it cannot produce the delta.
///
/// Otherwise the sizes decide ([`SnapshotDeltaPolicy::chain_outweighs`]):
/// once the delta chain holds at least as many bytes as a snapshot would,
/// the snapshot is written instead of a further delta — it stores no more
/// than the chain it truncates and replays as one record.  So a chain is
/// only extended while it is smaller than one snapshot.
#[derive(Clone, Debug)]
pub struct SnapshotDeltaPolicy {
    snapshot_every: u64,
    persisted_units: u64,
    deltas_since_snapshot: u64,
    delta_bytes_since_snapshot: u64,
    snapshot_needed: bool,
}

impl SnapshotDeltaPolicy {
    /// Creates a policy that takes a full snapshot at least every
    /// `snapshot_every` delta records (at least 1).
    pub fn new(snapshot_every: u64) -> Self {
        SnapshotDeltaPolicy {
            snapshot_every: snapshot_every.max(1),
            persisted_units: 0,
            deltas_since_snapshot: 0,
            delta_bytes_since_snapshot: 0,
            snapshot_needed: true,
        }
    }

    /// Units (e.g. delivered messages) covered by persisted state.
    pub fn persisted_units(&self) -> u64 {
        self.persisted_units
    }

    /// Number of delta records appended since the last snapshot.
    pub fn deltas_since_snapshot(&self) -> u64 {
        self.deltas_since_snapshot
    }

    /// Encoded bytes of the delta records appended since the last snapshot.
    pub fn delta_bytes_since_snapshot(&self) -> u64 {
        self.delta_bytes_since_snapshot
    }

    /// Marks the delta chain as invalid: the next persist must snapshot.
    pub fn invalidate(&mut self) {
        self.snapshot_needed = true;
    }

    /// `true` if the next persist of a value now covering `units` must be
    /// a full snapshot rather than a delta record, whatever their sizes.
    pub fn needs_snapshot(&self, units: u64) -> bool {
        self.snapshot_needed
            || units < self.persisted_units
            || self.deltas_since_snapshot >= self.snapshot_every
    }

    /// `true` once the delta chain holds at least `snapshot_bytes`: a
    /// snapshot of that size then costs no more than the chain it replaces
    /// — the byte rule that lets a chain grow only while it is smaller
    /// than one snapshot.
    pub fn chain_outweighs(&self, snapshot_bytes: usize) -> bool {
        snapshot_bytes as u64 <= self.delta_bytes_since_snapshot
    }

    /// Records that a full snapshot covering `units` was written: the delta
    /// log restarts empty.
    pub fn note_snapshot(&mut self, units: u64) {
        self.persisted_units = units;
        self.deltas_since_snapshot = 0;
        self.delta_bytes_since_snapshot = 0;
        self.snapshot_needed = false;
    }

    /// Records that a delta record of `bytes` raising coverage to `units`
    /// was appended.
    pub fn note_delta(&mut self, units: u64, bytes: usize) {
        self.persisted_units = units;
        self.deltas_since_snapshot += 1;
        self.delta_bytes_since_snapshot += bytes as u64;
    }

    /// Restores the bookkeeping after a recovery that replayed
    /// `replayed_deltas` delta records totalling `replayed_bytes` on top of
    /// a snapshot, ending at `units` covered.
    pub fn note_recovered(&mut self, units: u64, replayed_deltas: u64, replayed_bytes: u64) {
        self.persisted_units = units;
        self.deltas_since_snapshot = replayed_deltas;
        self.delta_bytes_since_snapshot = replayed_bytes;
        self.snapshot_needed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryStorage;
    use proptest::prelude::*;

    fn set(items: &[u64]) -> BTreeSet<u64> {
        items.iter().copied().collect()
    }

    #[test]
    fn full_logger_rewrites_everything() {
        let storage = InMemoryStorage::new();
        let mut logger = FullSetLogger::new(StorageKey::new("s"));
        assert_eq!(logger.persist(&storage, &set(&[1, 2])).unwrap(), 2);
        assert_eq!(logger.persist(&storage, &set(&[1, 2, 3])).unwrap(), 3);
        assert_eq!(
            SetLogger::<u64>::recover(&logger, &storage).unwrap(),
            set(&[1, 2, 3])
        );
        assert_eq!(storage.metrics().snapshot().store_ops, 2);
    }

    #[test]
    fn incremental_logger_writes_only_new_elements() {
        let storage = InMemoryStorage::new();
        let mut logger = IncrementalSetLogger::<u64>::new(StorageKey::new("s"));
        assert_eq!(logger.persist(&storage, &set(&[1, 2])).unwrap(), 2);
        assert_eq!(logger.persist(&storage, &set(&[1, 2, 3])).unwrap(), 1);
        assert_eq!(logger.persist(&storage, &set(&[1, 2, 3])).unwrap(), 0);
        assert_eq!(logger.recover(&storage).unwrap(), set(&[1, 2, 3]));
        // Two appends, the third persist was skipped.
        assert_eq!(storage.metrics().snapshot().append_ops, 2);
    }

    #[test]
    fn incremental_logger_writes_fewer_bytes_than_full() {
        let full_storage = InMemoryStorage::new();
        let incr_storage = InMemoryStorage::new();
        let mut full = FullSetLogger::new(StorageKey::new("s"));
        let mut incr = IncrementalSetLogger::<u64>::new(StorageKey::new("s"));
        let mut current = BTreeSet::new();
        for i in 0u64..50 {
            current.insert(i);
            full.persist(&full_storage, &current).unwrap();
            incr.persist(&incr_storage, &current).unwrap();
        }
        assert_eq!(
            SetLogger::<u64>::recover(&full, &full_storage).unwrap(),
            incr.recover(&incr_storage).unwrap()
        );
        assert!(
            incr_storage.metrics().bytes_written() < full_storage.metrics().bytes_written(),
            "incremental ({}) should write fewer bytes than full ({})",
            incr_storage.metrics().bytes_written(),
            full_storage.metrics().bytes_written()
        );
    }

    #[test]
    fn incremental_recovery_after_forget_is_a_superset() {
        let storage = InMemoryStorage::new();
        let mut logger = IncrementalSetLogger::<u64>::new(StorageKey::new("s"));
        logger.persist(&storage, &set(&[1, 2, 3])).unwrap();

        // Crash: volatile bookkeeping lost.
        logger.forget();
        assert_eq!(logger.persisted_len(), 0);

        // After recovery the process persists again, possibly re-writing
        // elements it no longer knows are logged — correct, just not
        // minimal.
        logger.persist(&storage, &set(&[2, 3, 4])).unwrap();
        let recovered = logger.recover(&storage).unwrap();
        assert!(recovered.is_superset(&set(&[1, 2, 3, 4])));
    }

    #[test]
    fn empty_set_never_writes() {
        let storage = InMemoryStorage::new();
        let mut logger = IncrementalSetLogger::<u64>::new(StorageKey::new("s"));
        assert_eq!(logger.persist(&storage, &BTreeSet::new()).unwrap(), 0);
        assert_eq!(storage.metrics().write_ops(), 0);
        assert!(logger.recover(&storage).unwrap().is_empty());
    }

    #[test]
    fn snapshot_delta_policy_caps_the_chain_by_count() {
        let mut policy = SnapshotDeltaPolicy::new(3);
        // First persist is always a snapshot.
        assert!(policy.needs_snapshot(5));
        policy.note_snapshot(5);
        assert_eq!(policy.persisted_units(), 5);

        // Then deltas, until the chain reaches the snapshot interval.
        for units in [7, 9, 11] {
            assert!(!policy.needs_snapshot(units));
            policy.note_delta(units, 10);
        }
        assert_eq!(policy.deltas_since_snapshot(), 3);
        assert!(policy.needs_snapshot(12), "interval reached");
        policy.note_snapshot(12);
        assert_eq!(policy.delta_bytes_since_snapshot(), 0);
        assert!(!policy.needs_snapshot(13));
    }

    #[test]
    fn snapshot_delta_policy_snapshots_once_the_chain_reaches_the_value() {
        let mut policy = SnapshotDeltaPolicy::new(100);
        policy.note_snapshot(1);
        // A 50-byte value: 20-byte deltas extend the chain while it is
        // smaller than the value…
        assert!(!policy.chain_outweighs(50));
        policy.note_delta(2, 20);
        assert!(!policy.chain_outweighs(50));
        policy.note_delta(3, 20);
        assert!(!policy.chain_outweighs(50));
        policy.note_delta(4, 20);
        assert_eq!(policy.delta_bytes_since_snapshot(), 60);
        // …and once it holds a snapshot's worth (equal sizes included),
        // the snapshot replaces it.
        assert!(policy.chain_outweighs(50));
        assert!(policy.chain_outweighs(60));
        assert!(!policy.chain_outweighs(61));
        // The byte rule never forces anything by itself.
        assert!(!policy.needs_snapshot(5));
        policy.note_snapshot(5);
        assert!(!policy.chain_outweighs(1), "a fresh chain holds nothing");
    }

    #[test]
    fn snapshot_delta_policy_invalidation_and_recovery() {
        let mut policy = SnapshotDeltaPolicy::new(3);
        policy.note_snapshot(13);
        // Invalidating (state transfer adoption) forces a snapshot, and so
        // does coverage moving backwards (history replaced).
        policy.invalidate();
        assert!(policy.needs_snapshot(14));
        policy.note_snapshot(14);
        assert!(!policy.needs_snapshot(15));
        assert!(policy.needs_snapshot(2), "units < persisted ⇒ snapshot");

        // Recovery restores the counters, bytes included.
        policy.note_recovered(20, 2, 70);
        assert_eq!(policy.persisted_units(), 20);
        assert_eq!(policy.deltas_since_snapshot(), 2);
        assert_eq!(policy.delta_bytes_since_snapshot(), 70);
        assert!(!policy.needs_snapshot(21));
        assert!(!policy.chain_outweighs(71));
        assert!(policy.chain_outweighs(70), "the 70 replayed bytes count toward the rule");
    }

    proptest! {
        #[test]
        fn prop_incremental_and_full_recover_the_same_set(
            additions in proptest::collection::vec(
                proptest::collection::vec(0u64..1000, 0..10), 1..20)) {
            let full_storage = InMemoryStorage::new();
            let incr_storage = InMemoryStorage::new();
            let mut full = FullSetLogger::new(StorageKey::new("s"));
            let mut incr = IncrementalSetLogger::<u64>::new(StorageKey::new("s"));
            let mut current: BTreeSet<u64> = BTreeSet::new();
            for batch in additions {
                current.extend(batch);
                full.persist(&full_storage, &current).unwrap();
                incr.persist(&incr_storage, &current).unwrap();
            }
            prop_assert_eq!(
                SetLogger::<u64>::recover(&full, &full_storage).unwrap(),
                current.clone()
            );
            prop_assert_eq!(incr.recover(&incr_storage).unwrap(), current);
            // Incremental never writes more bytes than full rewriting.
            prop_assert!(incr_storage.metrics().bytes_written()
                <= full_storage.metrics().bytes_written() + 8 * 20);
        }

        #[test]
        fn prop_recovery_after_random_crashes_is_superset(
            steps in proptest::collection::vec(
                (proptest::collection::vec(0u64..100, 0..5), any::<bool>()), 1..20)) {
            let storage = InMemoryStorage::new();
            let mut logger = IncrementalSetLogger::<u64>::new(StorageKey::new("s"));
            let mut current: BTreeSet<u64> = BTreeSet::new();
            let mut persisted_high_water: BTreeSet<u64> = BTreeSet::new();
            for (batch, crash) in steps {
                current.extend(batch);
                logger.persist(&storage, &current).unwrap();
                persisted_high_water = current.clone();
                if crash {
                    logger.forget();
                }
            }
            let recovered = logger.recover(&storage).unwrap();
            prop_assert!(recovered.is_superset(&persisted_high_water));
        }
    }
}
