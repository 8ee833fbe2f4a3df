//! Facade crate: the whole crash-recovery atomic broadcast stack behind one
//! dependency.
//!
//! This is a reproduction of *Rodrigues & Raynal, "Atomic Broadcast in
//! Asynchronous Crash-Recovery Distributed Systems"* (ICDCS 2000).  The
//! individual layers live in their own crates and are re-exported here:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`types`] | `abcast-types` | identities, rounds, configuration, codec |
//! | [`storage`] | `abcast-storage` | stable storage (`log`/`retrieve`) |
//! | [`net`] | `abcast-net` | fair-lossy transport, actor runtimes |
//! | [`sim`] | `abcast-sim` | deterministic discrete-event simulator |
//! | [`fd`] | `abcast-fd` | crash-recovery failure detectors |
//! | [`consensus`] | `abcast-consensus` | the Consensus black box |
//! | [`core`] | `abcast-core` | **the paper's protocol** |
//! | [`replication`] | `abcast-replication` | replicated services (Section 6) |
//!
//! The most commonly used items are re-exported at the top level.
//!
//! ```
//! use crash_recovery_abcast::{Cluster, ClusterConfig, ProcessId, SimTime};
//!
//! let mut cluster = Cluster::new(ClusterConfig::alternative(3));
//! cluster.broadcast(ProcessId::new(0), b"update".to_vec());
//! assert!(cluster.run_until_all_delivered(SimTime::from_micros(5_000_000)));
//! cluster.assert_properties();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use abcast_consensus as consensus;
pub use abcast_core as core;
pub use abcast_fd as fd;
pub use abcast_net as net;
pub use abcast_replication as replication;
pub use abcast_sim as sim;
pub use abcast_storage as storage;
pub use abcast_types as types;

pub use abcast_core::{
    AtomicBroadcast, Cluster, ClusterConfig, ConsensusConfig, DeliveryEvent, FramedAbcast,
    ProtocolConfig, TcpCluster,
};
pub use abcast_net::{
    Actor, ActorContext, FramedActor, LinkConfig, TcpConfig, TcpRuntime, TimerId,
};
pub use abcast_replication::{Bank, CertifyingDatabase, KvCommand, KvStore, Replica, Transaction};
pub use abcast_sim::{FaultPlan, SimConfig, Simulation};
pub use abcast_storage::{InMemoryStorage, StorageRegistry, WalStorage, WriteBatch};
pub use abcast_types::{
    AppMessage, MsgId, Payload, ProcessId, ProcessSet, Round, SimDuration, SimTime,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_are_usable() {
        let set = crate::ProcessSet::new(3);
        assert_eq!(set.majority(), 2);
        let config = crate::ClusterConfig::basic(3);
        assert_eq!(config.processes, 3);
    }
}
