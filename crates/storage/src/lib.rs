//! Stable-storage substrate for the crash-recovery atomic broadcast stack.
//!
//! Section 2.1 of the paper equips every process with a *stable storage*
//! accessed through `log` and `retrieve` primitives: it survives crashes,
//! unlike volatile memory.  This crate provides that substrate:
//!
//! * [`StableStorage`] — the `log`/`retrieve` interface, with named slots
//!   (overwritten in place) and append-only logs;
//! * [`WriteBatch`] / [`StableStorage::commit_batch`] — stage several
//!   operations, pay one durability barrier;
//! * [`StagedStorage`] — a view that transparently batches a whole
//!   protocol step's writes;
//! * [`InMemoryStorage`] — crash-surviving in-memory backend used by the
//!   deterministic simulator, tests and benchmarks;
//! * [`WalStorage`] — group-committed, CRC-framed, *segmented* write-ahead
//!   log backend: the active segment takes group commits and is rotated at
//!   a size threshold, a background worker compacts sealed segments into a
//!   base, and replay is torn-tail tolerant on the active tail only;
//! * [`FaultyStorage`] — fault-injecting wrapper (disk-full, short-write,
//!   fsync-failure, read errors at seeded points) for the fuzzer;
//! * [`StorageRegistry`] — one storage per process of a deployment;
//! * [`TypedStorageExt`] — typed reads/writes through the binary codec;
//! * [`keys`] — the documented key layout used by the protocol stack;
//! * [`StorageMetrics`] — per-operation, per-byte and per-barrier
//!   accounting, which the paper-claim tests and the benchmark's
//!   `storage.*` rows read;
//! * [`IncrementalSetLogger`] / [`SnapshotDeltaPolicy`] — the incremental
//!   logging of Section 5.5 for the `Unordered` set and the `(k, Agreed)`
//!   checkpoint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod batch;
pub mod faulty;
pub mod incremental;
pub mod keys;
pub mod memory;
pub mod metrics;
pub mod typed;
pub mod wal;

pub use api::{SharedStorage, StableStorage, StorageKey, StorageRegistry};
pub use batch::{BatchOp, StagedStorage, WriteBatch};
pub use faulty::{FaultSchedule, FaultyStorage, InjectedFaults, WriteFaultKind};
pub use incremental::{IncrementalSetLogger, SnapshotDeltaPolicy};
pub use memory::InMemoryStorage;
pub use metrics::{StorageMetrics, StorageSnapshot};
pub use typed::TypedStorageExt;
pub use wal::{WalLayout, WalStorage};
