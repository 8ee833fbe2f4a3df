//! Atomic Broadcast in asynchronous crash-recovery distributed systems.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Rodrigues & Raynal, ICDCS 2000*): a transformation of any Consensus
//! protocol for the crash-recovery model into an Atomic Broadcast protocol
//! for the same model.
//!
//! * [`AtomicBroadcast`] — the protocol state machine: the basic variant of
//!   Section 4 (minimal logging, replay-based recovery) and the alternative
//!   variant of Section 5 (checkpointing, state transfer, batching,
//!   incremental logging, application checkpoints), selected through
//!   [`abcast_types::ProtocolConfig`];
//! * [`UnorderedSet`] / [`AgreedQueue`] — the two interface variables of
//!   Figure 1, including application-level checkpoints;
//! * [`AbcastMsg`] — gossip, state-transfer and wrapped consensus traffic;
//! * [`properties`] — checkers for Validity, Integrity, Total Order and
//!   Termination (Section 2.2);
//! * [`Cluster`] — a simulation harness used by tests, the benchmark, and
//!   the worked examples;
//! * [`TcpCluster`] — the same harness surface over a real TCP socket
//!   transport on loopback ([`abcast_net::tcp`]), used by the socket
//!   transport tests and the stream-fault suites.
//!
//! # Quick start
//!
//! ```
//! use abcast_core::{Cluster, ClusterConfig};
//! use abcast_types::{ProcessId, SimTime};
//!
//! let mut cluster = Cluster::new(ClusterConfig::basic(3));
//! let id = cluster.broadcast(ProcessId::new(0), b"update".to_vec()).unwrap();
//! assert!(cluster.run_until_all_delivered(SimTime::from_micros(5_000_000)));
//! for p in cluster.processes().iter() {
//!     assert!(cluster.sim().actor(p).unwrap().is_delivered(id));
//! }
//! cluster.assert_properties();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod harness;
pub mod message;
pub mod properties;
pub mod protocol;
pub mod queues;
pub mod socket;

pub use fuzz::{run_seed, run_seed_detailed, FuzzRun};
pub use harness::{Cluster, ClusterConfig, FramedAbcast};
pub use socket::TcpCluster;
pub use message::AbcastMsg;
pub use properties::{
    check_all, check_integrity, check_termination, check_total_order,
    check_total_order_compacted, check_validity, Violation,
};
pub use protocol::{
    AtomicBroadcast, CheckpointProvider, DeliveryEvent, NullCheckpointProvider, ProtocolMetrics,
    CHECKPOINT_TIMER, GOSSIP_TIMER,
};
pub use queues::{AgreedQueue, AppCheckpoint, Batch, DecisionBuffer, UnorderedSet};

// Re-export the configuration types callers need to build a protocol
// instance without importing the whole types crate.
pub use abcast_consensus::ConsensusConfig;
pub use abcast_types::{BatchingPolicy, LoggingPolicy, ProtocolConfig, RecoveryPolicy};
