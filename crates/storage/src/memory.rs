//! In-memory stable storage.
//!
//! In the discrete-event simulator the "disk" of a process is just a map
//! kept by the runtime; the crucial property is that it is owned by the
//! *deployment*, not by the process actor, so crashing an actor (dropping
//! all of its volatile state) leaves the map untouched — exactly the
//! semantics of Section 2.1.  The implementation is also used by unit tests
//! and benchmarks because it is fast and needs no filesystem.  Loads hand
//! out refcounted views of the stored records, never copies.

use std::collections::BTreeMap;

use bytes::Bytes;
use parking_lot::Mutex;

use abcast_types::Result;

use crate::api::{StableStorage, StorageKey};
use crate::batch::{BatchOp, WriteBatch};
use crate::metrics::StorageMetrics;

#[derive(Debug, Default)]
struct Records {
    slots: BTreeMap<StorageKey, Bytes>,
    logs: BTreeMap<StorageKey, Vec<Bytes>>,
}

/// Crash-surviving, lock-protected, in-memory stable storage.
#[derive(Debug, Default)]
pub struct InMemoryStorage {
    records: Mutex<Records>,
    metrics: StorageMetrics,
}

impl InMemoryStorage {
    /// Creates an empty storage.
    pub fn new() -> Self {
        InMemoryStorage::default()
    }
}

impl StableStorage for InMemoryStorage {
    fn store(&self, key: &StorageKey, value: &[u8]) -> Result<()> {
        let mut records = self.records.lock();
        records
            .slots
            .insert(key.clone(), Bytes::copy_from_slice(value));
        self.metrics.record_store(value.len());
        self.metrics.record_sync();
        Ok(())
    }

    fn load(&self, key: &StorageKey) -> Result<Option<Bytes>> {
        let records = self.records.lock();
        // A load is a refcounted view of the stored record, not a copy.
        let value = records.slots.get(key).cloned();
        self.metrics
            .record_load(value.as_ref().map(Bytes::len).unwrap_or(0));
        Ok(value)
    }

    fn append(&self, key: &StorageKey, value: &[u8]) -> Result<()> {
        let mut records = self.records.lock();
        records
            .logs
            .entry(key.clone())
            .or_default()
            .push(Bytes::copy_from_slice(value));
        self.metrics.record_append(value.len());
        self.metrics.record_sync();
        Ok(())
    }

    fn load_log(&self, key: &StorageKey) -> Result<Vec<Bytes>> {
        let records = self.records.lock();
        let entries: Vec<Bytes> = records.logs.get(key).cloned().unwrap_or_default();
        self.metrics
            .record_load(entries.iter().map(Bytes::len).sum());
        Ok(entries)
    }

    fn remove(&self, key: &StorageKey) -> Result<()> {
        let mut records = self.records.lock();
        records.slots.remove(key);
        records.logs.remove(key);
        self.metrics.record_remove();
        Ok(())
    }

    fn commit_batch(&self, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        // All operations land under one lock acquisition and one simulated
        // durability barrier — the in-memory analogue of group commit.
        let mut records = self.records.lock();
        for op in batch.into_ops() {
            match op {
                BatchOp::Store { key, value } => {
                    self.metrics.record_store(value.len());
                    records.slots.insert(key, value);
                }
                BatchOp::Append { key, value } => {
                    self.metrics.record_append(value.len());
                    records.logs.entry(key).or_default().push(value);
                }
                BatchOp::Remove { key } => {
                    records.slots.remove(&key);
                    records.logs.remove(&key);
                    self.metrics.record_remove();
                }
            }
        }
        self.metrics.record_batch_commit();
        self.metrics.record_sync();
        Ok(())
    }

    fn keys(&self) -> Result<Vec<StorageKey>> {
        let records = self.records.lock();
        let mut keys: Vec<StorageKey> = records
            .slots
            .keys()
            .chain(records.logs.keys())
            .cloned()
            .collect();
        keys.sort();
        keys.dedup();
        Ok(keys)
    }

    fn metrics(&self) -> &StorageMetrics {
        &self.metrics
    }

    fn footprint_bytes(&self) -> u64 {
        let records = self.records.lock();
        let slot_bytes: usize = records.slots.values().map(Bytes::len).sum();
        let log_bytes: usize = records
            .logs
            .values()
            .flat_map(|entries| entries.iter().map(Bytes::len))
            .sum();
        (slot_bytes + log_bytes) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(name: &str) -> StorageKey {
        StorageKey::new(name)
    }

    #[test]
    fn store_then_load_round_trips() {
        let s = InMemoryStorage::new();
        assert_eq!(s.load(&key("a")).unwrap(), None);
        s.store(&key("a"), b"value").unwrap();
        assert_eq!(s.load(&key("a")).unwrap().unwrap(), b"value");
    }

    #[test]
    fn store_overwrites_slot() {
        let s = InMemoryStorage::new();
        s.store(&key("a"), b"v1").unwrap();
        s.store(&key("a"), b"v2").unwrap();
        assert_eq!(s.load(&key("a")).unwrap().unwrap(), b"v2");
    }

    #[test]
    fn append_accumulates_in_order() {
        let s = InMemoryStorage::new();
        assert!(s.load_log(&key("log")).unwrap().is_empty());
        s.append(&key("log"), b"one").unwrap();
        s.append(&key("log"), b"two").unwrap();
        s.append(&key("log"), b"three").unwrap();
        let entries = s.load_log(&key("log")).unwrap();
        assert_eq!(entries, vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]);
    }

    #[test]
    fn remove_deletes_slots_and_logs() {
        let s = InMemoryStorage::new();
        s.store(&key("slot"), b"x").unwrap();
        s.append(&key("log"), b"y").unwrap();
        s.remove(&key("slot")).unwrap();
        s.remove(&key("log")).unwrap();
        assert_eq!(s.load(&key("slot")).unwrap(), None);
        assert!(s.load_log(&key("log")).unwrap().is_empty());
        assert!(s.keys().unwrap().is_empty());
    }

    #[test]
    fn keys_lists_everything_once() {
        let s = InMemoryStorage::new();
        s.store(&key("b"), b"").unwrap();
        s.store(&key("a"), b"").unwrap();
        s.append(&key("c"), b"").unwrap();
        let keys = s.keys().unwrap();
        assert_eq!(keys, vec![key("a"), key("b"), key("c")]);
    }

    #[test]
    fn metrics_track_operations_and_bytes() {
        let s = InMemoryStorage::new();
        s.store(&key("a"), &[0u8; 8]).unwrap();
        s.append(&key("l"), &[0u8; 4]).unwrap();
        s.load(&key("a")).unwrap();
        s.load_log(&key("l")).unwrap();
        let snap = s.metrics().snapshot();
        assert_eq!(snap.store_ops, 1);
        assert_eq!(snap.append_ops, 1);
        assert_eq!(snap.load_ops, 2);
        assert_eq!(snap.bytes_written, 12);
        assert_eq!(snap.bytes_read, 12);
    }

    #[test]
    fn footprint_reflects_current_contents() {
        let s = InMemoryStorage::new();
        s.store(&key("a"), &[0u8; 10]).unwrap();
        s.append(&key("l"), &[0u8; 3]).unwrap();
        s.append(&key("l"), &[0u8; 3]).unwrap();
        assert_eq!(s.footprint_bytes(), 16);
        s.store(&key("a"), &[0u8; 2]).unwrap(); // overwrite shrinks slot
        assert_eq!(s.footprint_bytes(), 8);
        s.remove(&key("l")).unwrap();
        assert_eq!(s.footprint_bytes(), 2);
    }

    proptest! {
        #[test]
        fn prop_slots_behave_like_a_map(
            ops in proptest::collection::vec((0usize..4, ".{0,6}",
                    proptest::collection::vec(any::<u8>(), 0..16)), 1..40)) {
            let s = InMemoryStorage::new();
            let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
            for (kind, name, value) in ops {
                let k = key(&name);
                match kind {
                    0 | 1 => {
                        s.store(&k, &value).unwrap();
                        model.insert(name.clone(), value.clone());
                    }
                    2 => {
                        s.remove(&k).unwrap();
                        model.remove(&name);
                    }
                    _ => {
                        let got = s.load(&k).unwrap();
                        prop_assert_eq!(got, model.get(&name).cloned().map(Bytes::from));
                    }
                }
            }
            for (name, value) in &model {
                prop_assert_eq!(s.load(&key(name)).unwrap().unwrap(), value.clone());
            }
        }

        #[test]
        fn prop_logs_preserve_append_order(
            entries in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..8), 0..32)) {
            let s = InMemoryStorage::new();
            for e in &entries {
                s.append(&key("log"), e).unwrap();
            }
            prop_assert_eq!(s.load_log(&key("log")).unwrap(), entries);
        }
    }
}
