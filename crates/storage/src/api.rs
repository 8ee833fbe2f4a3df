//! The stable-storage abstraction (`log` / `retrieve` of Section 2.1).
//!
//! A process "is equipped with two local memories: a volatile memory and a
//! stable storage.  The primitives `log` and `retrieve` allow an up process
//! to access its stable storage.  When it crashes, a process definitely
//! loses the content of its volatile memory; the content of a stable
//! storage is not affected by crashes."
//!
//! [`StableStorage`] is that interface.  Two kinds of records are supported:
//!
//! * **slots** ([`StableStorage::store`] / [`StableStorage::load`]) — a named
//!   cell that is overwritten in place (e.g. the latest `(k, Agreed)`
//!   checkpoint);
//! * **logs** ([`StableStorage::append`] / [`StableStorage::load_log`]) — a
//!   named append-only sequence of records (e.g. incremental updates of the
//!   `Unordered` set, Section 5.5).
//!
//! Every implementation counts operations and bytes in a [`StorageMetrics`]
//! so that the trade-off tests and the benchmark `storage.*` rows can
//! measure the logging cost of each protocol variant precisely.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

use abcast_types::{AbcastError, ProcessId, Result, Round};

use crate::batch::{BatchOp, WriteBatch};
use crate::metrics::StorageMetrics;

/// Name of a stable-storage record.
///
/// Keys are plain strings structured by convention as `namespace/detail`
/// (see [`crate::keys`] for the well-known keys used by the protocol
/// stack).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StorageKey(String);

impl StorageKey {
    /// Creates a key from its string form.
    pub fn new(name: impl Into<String>) -> Self {
        StorageKey(name.into())
    }

    /// The string form of the key.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// `true` if the key starts with `prefix`.
    pub fn has_prefix(&self, prefix: &str) -> bool {
        self.0.starts_with(prefix)
    }
}

impl fmt::Debug for StorageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl fmt::Display for StorageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for StorageKey {
    fn from(value: &str) -> Self {
        StorageKey::new(value)
    }
}

impl From<String> for StorageKey {
    fn from(value: String) -> Self {
        StorageKey::new(value)
    }
}

/// Stable storage of one process: survives crashes, lost never.
///
/// Implementations must be usable from a single process at a time but are
/// `Send + Sync` so that a runtime can keep them alive across the crash and
/// recovery of the actor that owns them.
pub trait StableStorage: Send + Sync {
    /// Atomically overwrites the slot `key` with `value`.
    fn store(&self, key: &StorageKey, value: &[u8]) -> Result<()>;

    /// Reads the slot `key`, or `None` if it was never stored.
    ///
    /// The returned buffer is a refcounted view: the memory and WAL
    /// backends hand out a cheap clone of their in-memory image, never a
    /// re-materialized copy of the record.
    fn load(&self, key: &StorageKey) -> Result<Option<Bytes>>;

    /// Appends one record to the log `key`.
    fn append(&self, key: &StorageKey, value: &[u8]) -> Result<()>;

    /// Reads every record ever appended to the log `key`, in append order.
    /// Like [`StableStorage::load`], records are zero-copy views of the
    /// backend's buffer.
    fn load_log(&self, key: &StorageKey) -> Result<Vec<Bytes>>;

    /// Removes the slot or log `key` (used by log truncation, Section 5.2).
    fn remove(&self, key: &StorageKey) -> Result<()>;

    /// Applies every staged operation of `batch`, in staging order, paying
    /// as few durability barriers as the backend allows.
    ///
    /// The default implementation simply replays the operations one by one
    /// (each with its own barrier) — correct for every backend, and exactly
    /// the pre-group-commit behaviour.  Backends with a physical journal
    /// (the WAL) and the in-memory backend override it to commit the whole
    /// batch under a single barrier.
    fn commit_batch(&self, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        for op in batch.into_ops() {
            match op {
                BatchOp::Store { key, value } => self.store(&key, &value)?,
                BatchOp::Append { key, value } => self.append(&key, &value)?,
                BatchOp::Remove { key } => self.remove(&key)?,
            }
        }
        self.metrics().record_batch_commit();
        Ok(())
    }

    /// Lists every key currently present (slots and logs).
    fn keys(&self) -> Result<Vec<StorageKey>>;

    /// Hints that a `(k, Agreed)` checkpoint covering every round up to
    /// `round` has been persisted (Figure 4 line *b*), and that the
    /// records it supersedes — old consensus instances, delta logs — have
    /// been removed.
    ///
    /// Purely advisory: backends that maintain physical log structure (the
    /// segmented WAL) use it to schedule garbage reclamation at the moment
    /// most of their sealed records become dead, everything else ignores
    /// it.  Must never block and must not affect the logical contents.
    fn note_checkpoint(&self, round: Round) {
        let _ = round;
    }

    /// The metrics collector of this storage.
    fn metrics(&self) -> &StorageMetrics;

    /// Total number of bytes currently occupied by all records.
    ///
    /// Read by the footprint test of §5.2 (log growth with and without app
    /// checkpoints).
    fn footprint_bytes(&self) -> u64;
}

/// Shared handle to one process's stable storage.
pub type SharedStorage = Arc<dyn StableStorage>;

/// Maps every process of a deployment to its stable storage.
///
/// The registry itself lives in the runtime ("the hardware"): actors obtain
/// their handle at start/recovery time, and the handle keeps pointing at the
/// same data across crashes.
#[derive(Clone)]
pub struct StorageRegistry {
    stores: Arc<Vec<SharedStorage>>,
}

impl StorageRegistry {
    /// Builds a registry from one storage per process, indexed by process
    /// id.
    pub fn new(stores: Vec<SharedStorage>) -> Self {
        StorageRegistry {
            stores: Arc::new(stores),
        }
    }

    /// Builds a registry of `n` independent in-memory stores.
    pub fn in_memory(n: usize) -> Self {
        let stores = (0..n)
            .map(|_| Arc::new(crate::memory::InMemoryStorage::new()) as SharedStorage)
            .collect();
        StorageRegistry::new(stores)
    }

    /// Builds a registry of `n` WAL-backed stores, one log per process
    /// under `base`, all using the given group-commit window.
    pub fn wal_in(base: impl AsRef<std::path::Path>, n: usize, group_window: usize) -> Result<Self> {
        let base = base.as_ref();
        std::fs::create_dir_all(base)?;
        let stores = (0..n)
            .map(|i| {
                crate::wal::WalStorage::open(base.join(format!("p{i}.wal")))
                    .map(|s| Arc::new(s.with_group_window(group_window)) as SharedStorage)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(StorageRegistry::new(stores))
    }

    /// Builds a registry of `n` WAL-backed stores like
    /// [`StorageRegistry::wal_in`], additionally pinning the segment
    /// rotation size and compaction threshold — the fuzz harness uses tiny
    /// segments so torn-tail and restart fault families land on segment
    /// boundaries, not only inside one journal file.
    pub fn wal_in_segmented(
        base: impl AsRef<std::path::Path>,
        n: usize,
        group_window: usize,
        segment_bytes: u64,
        compact_threshold: u64,
    ) -> Result<Self> {
        let base = base.as_ref();
        std::fs::create_dir_all(base)?;
        let stores = (0..n)
            .map(|i| {
                crate::wal::WalStorage::open(base.join(format!("p{i}.wal"))).map(|s| {
                    Arc::new(
                        s.with_group_window(group_window)
                            .with_segment_bytes(segment_bytes)
                            .with_compact_threshold(compact_threshold),
                    ) as SharedStorage
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(StorageRegistry::new(stores))
    }

    /// Number of processes covered by the registry.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// `true` if the registry covers no process.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// The storage of process `p`.
    pub fn storage_for(&self, p: ProcessId) -> Result<SharedStorage> {
        self.stores
            .get(p.index())
            .cloned()
            .ok_or(AbcastError::UnknownProcess(p))
    }

    /// Iterates over `(process, storage)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, SharedStorage)> + '_ {
        self.stores
            .iter()
            .enumerate()
            .map(|(i, s)| (ProcessId::new(i as u32), s.clone()))
    }

    /// Sum of the storage footprints of every process.
    pub fn total_footprint_bytes(&self) -> u64 {
        self.stores.iter().map(|s| s.footprint_bytes()).sum()
    }
}

impl fmt::Debug for StorageRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StorageRegistry")
            .field("processes", &self.stores.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryStorage;

    #[test]
    fn storage_key_construction_and_prefix() {
        let k = StorageKey::new("abcast/proposed/4");
        assert_eq!(k.as_str(), "abcast/proposed/4");
        assert!(k.has_prefix("abcast/proposed"));
        assert!(!k.has_prefix("consensus"));
        assert_eq!(StorageKey::from("x"), StorageKey::new("x"));
        assert_eq!(StorageKey::from("y".to_string()), StorageKey::new("y"));
        assert_eq!(format!("{k}"), "abcast/proposed/4");
    }

    #[test]
    fn registry_resolves_processes() {
        let reg = StorageRegistry::in_memory(3);
        assert_eq!(reg.len(), 3);
        assert!(!reg.is_empty());
        assert!(reg.storage_for(ProcessId::new(0)).is_ok());
        assert!(reg.storage_for(ProcessId::new(2)).is_ok());
        assert!(matches!(
            reg.storage_for(ProcessId::new(3)),
            Err(AbcastError::UnknownProcess(_))
        ));
    }

    #[test]
    fn registry_storages_are_independent() {
        let reg = StorageRegistry::in_memory(2);
        let s0 = reg.storage_for(ProcessId::new(0)).unwrap();
        let s1 = reg.storage_for(ProcessId::new(1)).unwrap();
        s0.store(&StorageKey::new("x"), b"zero").unwrap();
        assert_eq!(s0.load(&StorageKey::new("x")).unwrap().unwrap(), b"zero");
        assert_eq!(s1.load(&StorageKey::new("x")).unwrap(), None);
    }

    #[test]
    fn registry_handles_point_at_same_data() {
        let reg = StorageRegistry::in_memory(1);
        let a = reg.storage_for(ProcessId::new(0)).unwrap();
        let b = reg.storage_for(ProcessId::new(0)).unwrap();
        a.store(&StorageKey::new("shared"), b"v").unwrap();
        assert_eq!(
            b.load(&StorageKey::new("shared")).unwrap().unwrap(),
            b"v"
        );
    }

    #[test]
    fn total_footprint_sums_processes() {
        let reg = StorageRegistry::new(vec![
            Arc::new(InMemoryStorage::new()) as SharedStorage,
            Arc::new(InMemoryStorage::new()) as SharedStorage,
        ]);
        let s0 = reg.storage_for(ProcessId::new(0)).unwrap();
        let s1 = reg.storage_for(ProcessId::new(1)).unwrap();
        s0.store(&StorageKey::new("a"), &[0u8; 10]).unwrap();
        s1.append(&StorageKey::new("b"), &[0u8; 5]).unwrap();
        s1.append(&StorageKey::new("b"), &[0u8; 5]).unwrap();
        assert_eq!(reg.total_footprint_bytes(), 20);
    }
}
