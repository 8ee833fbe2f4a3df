//! Socket-backed harness: whole atomic broadcast deployments over real TCP.
//!
//! [`crate::harness::Cluster`] runs the framed protocol under the
//! deterministic simulator; [`TcpCluster`] deploys the *identical actors*
//! (built by the same [`ClusterConfig::framed_factory`]) on
//! [`abcast_net::tcp::TcpRuntime`]: one worker thread per process, real
//! `std::net` TCP connections over loopback between them, length-prefixed
//! frames reassembled zero-copy at the receiver.  The harness mirrors
//! `Cluster`'s surface — broadcast, run-until-delivered, delivery/agreed
//! inspection, checkpoint ticks — so scenario tests and experiments can be
//! re-run over real sockets, and equivalence tests can require the two
//! transports to produce bit-for-bit identical histories.
//!
//! Differences forced by reality:
//!
//! * time is wall-clock, so "run for" becomes "wait until … or timeout";
//! * the [`abcast_net::LinkConfig`] of the configuration is *not* applied —
//!   loss, duplication and delay now come from the actual network stack
//!   (plus [`TcpCluster::sever_link`]-style fault injection);
//! * inspection returns clones, not references, because the actors live on
//!   their worker threads.

use std::collections::BTreeSet;
use std::io;
use std::time::{Duration, Instant};

use abcast_net::tcp::{TcpConfig, TcpRuntime};
use abcast_storage::{SharedStorage, StorageRegistry};
use abcast_types::{AppMessage, MsgId, ProcessId, ProcessSet};

use crate::harness::{ClusterConfig, FramedAbcast};
use crate::queues::AgreedQueue;

/// A live deployment of [`crate::protocol::AtomicBroadcast`] processes
/// speaking byte frames over real TCP sockets on loopback.
pub struct TcpCluster {
    runtime: TcpRuntime<FramedAbcast>,
    broadcast_ids: BTreeSet<MsgId>,
}

impl TcpCluster {
    /// Builds and starts the cluster over fresh in-memory stable storage.
    pub fn new(config: ClusterConfig) -> io::Result<Self> {
        let storage = StorageRegistry::in_memory(config.processes);
        TcpCluster::with_registry(config, storage)
    }

    /// Builds and starts the cluster over an existing storage registry
    /// (WAL-backed storages, or storages carried over from a previous
    /// deployment).
    pub fn with_registry(config: ClusterConfig, storage: StorageRegistry) -> io::Result<Self> {
        let tcp = TcpConfig::default().with_seed(config.seed);
        TcpCluster::with_registry_and_tcp(config, storage, tcp)
    }

    /// Builds and starts the cluster with explicit socket-transport
    /// settings (frame bound, write-queue bound, link policy, backoff-reset
    /// grace).
    pub fn with_registry_and_tcp(
        config: ClusterConfig,
        storage: StorageRegistry,
        tcp: TcpConfig,
    ) -> io::Result<Self> {
        let factory = config.framed_factory();
        let runtime = TcpRuntime::start(config.processes, storage, tcp, factory)?;
        Ok(TcpCluster {
            runtime,
            broadcast_ids: BTreeSet::new(),
        })
    }

    /// The underlying socket runtime (fault injection, socket metrics,
    /// crash/recover controls).
    pub fn runtime(&self) -> &TcpRuntime<FramedAbcast> {
        &self.runtime
    }

    /// The set of processes.
    pub fn processes(&self) -> ProcessSet {
        self.runtime.processes().clone()
    }

    /// The storage registry backing this deployment.
    pub fn storage(&self) -> &StorageRegistry {
        self.runtime.storage()
    }

    /// Stable storage of one process.
    pub fn storage_for(&self, p: ProcessId) -> SharedStorage {
        self.runtime
            .storage()
            .storage_for(p)
            .expect("registry covers every process")
    }

    /// A-broadcasts `payload` at process `p`.  Returns the assigned
    /// identity, or `None` if `p` is currently down.
    ///
    /// The invocation runs on `p`'s worker thread with a live context, so
    /// the gossip/proposal traffic it triggers leaves over the sockets
    /// before this method returns the identity.
    pub fn broadcast(&mut self, p: ProcessId, payload: impl Into<Vec<u8>>) -> Option<MsgId> {
        let payload = payload.into();
        let id = self.runtime.invoke(p, move |actor, ctx| {
            actor.with_inner_ctx(ctx, |inner, ctx| inner.a_broadcast(payload, ctx))
        })?;
        self.broadcast_ids.insert(id);
        Some(id)
    }

    /// Fires the checkpoint task of process `p` right now, exactly as if
    /// its [`crate::protocol::CHECKPOINT_TIMER`] had expired — the
    /// socket-side twin of [`crate::harness::Cluster::checkpoint_tick`].
    /// Returns `false` while `p` is down.
    pub fn checkpoint_tick(&self, p: ProcessId) -> bool {
        self.runtime
            .invoke(p, |actor, ctx| {
                use abcast_net::Actor as _;
                actor.on_timer(crate::protocol::CHECKPOINT_TIMER, ctx);
            })
            .is_some()
    }

    /// Blocks until every process in `who` is up and has delivered every
    /// identity in `ids`, or until `timeout` elapses.  Returns `true` on
    /// success.
    ///
    /// Each process is waited for with [`TcpRuntime::wait_for`], which
    /// parks on the runtime's [`abcast_net::Activity`] signal between
    /// probes instead of sleep-polling.
    pub fn run_until_delivered(
        &self,
        who: &[ProcessId],
        ids: &[MsgId],
        timeout: Duration,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        who.iter().all(|&p| {
            let ids = ids.to_vec(); // A handful of Copy ids moved into the probe, not payload bytes
            let left = deadline.saturating_duration_since(Instant::now());
            self.runtime
                .wait_for(p, left, move |a| ids.iter().all(|id| a.is_delivered(*id)).then_some(()))
                .is_some()
        })
    }

    /// Blocks until every process has delivered all identities ever
    /// broadcast through this harness, or until `timeout` elapses.
    pub fn run_until_all_delivered(&self, timeout: Duration) -> bool {
        let everyone: Vec<ProcessId> = self.runtime.processes().iter().collect();
        let ids: Vec<MsgId> = self.broadcast_ids.iter().copied().collect();
        self.run_until_delivered(&everyone, &ids, timeout)
    }

    /// Identities ever broadcast through this harness.
    pub fn broadcast_ids(&self) -> &BTreeSet<MsgId> {
        &self.broadcast_ids
    }

    /// A clone of the delivery sequence state of `p` (`None` while down).
    pub fn agreed(&self, p: ProcessId) -> Option<AgreedQueue> {
        self.runtime.inspect(p, |a| a.inner().agreed().clone())
    }

    /// The explicitly delivered messages of `p` (empty while down).
    pub fn delivered(&self, p: ProcessId) -> Vec<AppMessage> {
        self.runtime
            .inspect(p, |a| a.delivered_messages().to_vec()) // Inspection hands out owned copies; payload Bytes inside stay refcounted
            .unwrap_or_default()
    }

    /// Every identity `p` has A-delivered, in delivery order — the full
    /// history, regardless of later app-checkpoint compaction (`None`
    /// while down).
    pub fn delivery_log_ids(&self, p: ProcessId) -> Option<Vec<MsgId>> {
        self.runtime
            .inspect(p, |a| a.delivery_log().iter().map(|(_, id)| *id).collect())
    }

    /// Total wire frames received that failed to decode, across all
    /// currently-up processes.  Zero in any healthy run.
    pub fn decode_failures(&self) -> u64 {
        self.runtime
            .processes()
            .iter()
            .filter_map(|p| self.runtime.inspect(p, FramedAbcast::decode_failures))
            .sum()
    }

    /// Hard-kills every live connection between `a` and `b` (fault
    /// injection); the dialers reconnect with exponential backoff.
    pub fn sever_link(&self, a: ProcessId, b: ProcessId) -> usize {
        self.runtime.sever_link(a, b)
    }

    /// Hard-kills every live connection touching `p`.
    pub fn sever_process(&self, p: ProcessId) -> usize {
        self.runtime.sever_process(p)
    }

    /// Crashes process `p` (volatile state lost; connections stay up).
    pub fn crash(&self, p: ProcessId) {
        self.runtime.crash(p);
    }

    /// Recovers process `p` from its stable storage.
    pub fn recover(&self, p: ProcessId) {
        self.runtime.recover(p);
    }

    /// Shuts the deployment down and joins every thread.
    pub fn shutdown(self) {
        self.runtime.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast_types::SimDuration;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    /// Keep the free-running timers out of the way for determinism-minded
    /// tests: checkpoints only happen through explicit ticks.
    fn quiet_checkpoints(config: ClusterConfig) -> ClusterConfig {
        let protocol = config.protocol.clone().with_checkpoint_period(SimDuration::from_secs(3600));
        config.with_protocol(protocol)
    }

    #[test]
    fn three_process_socket_cluster_delivers_a_message_everywhere() {
        let mut cluster =
            TcpCluster::new(ClusterConfig::basic(3).with_seed(11)).expect("loopback cluster");
        let id = cluster.broadcast(p(0), b"over real sockets".to_vec()).unwrap();
        assert!(
            cluster.run_until_all_delivered(Duration::from_secs(30)),
            "message {id} was not delivered everywhere in time"
        );
        for q in [p(0), p(1), p(2)] {
            let delivered = cluster.delivered(q);
            assert_eq!(delivered.len(), 1, "{q} delivered {delivered:?}");
            assert_eq!(delivered[0].id(), id);
            assert_eq!(delivered[0].payload().as_ref(), b"over real sockets");
        }
        assert_eq!(cluster.decode_failures(), 0);
        let tcp = cluster.runtime().tcp_metrics().snapshot();
        assert!(tcp.frames_received > 0, "traffic went over the sockets: {tcp:?}");
        cluster.shutdown();
    }

    #[test]
    fn socket_cluster_orders_concurrent_broadcasts_identically() {
        let mut cluster = TcpCluster::new(quiet_checkpoints(
            ClusterConfig::alternative(3).with_seed(12),
        ))
        .expect("loopback cluster");
        let mut ids = Vec::new();
        for i in 0..9u8 {
            ids.extend(cluster.broadcast(p(u32::from(i) % 3), vec![i; 8]));
        }
        assert_eq!(ids.len(), 9);
        assert!(cluster.run_until_all_delivered(Duration::from_secs(60)));
        let reference: Vec<MsgId> =
            cluster.delivered(p(0)).iter().map(AppMessage::id).collect();
        assert_eq!(reference.len(), 9);
        for q in [p(1), p(2)] {
            let order: Vec<MsgId> = cluster.delivered(q).iter().map(AppMessage::id).collect();
            assert_eq!(order, reference, "sequences differ at {q}");
        }
        assert_eq!(cluster.decode_failures(), 0);
        cluster.shutdown();
    }
}
