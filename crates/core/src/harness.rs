//! Simulation harness for whole atomic broadcast deployments.
//!
//! Tests, the benchmark and the examples all need exactly the same thing: a
//! cluster of `n` processes running [`AtomicBroadcast`] under the
//! deterministic simulator, with helpers to broadcast messages, inject
//! faults, run until delivery and check the Section 2.2 properties.
//! [`Cluster`] packages exactly that.

use std::collections::BTreeSet;

use abcast_consensus::ConsensusConfig;
use abcast_net::{Actor, FramedActor, LinkConfig};
use abcast_sim::{FaultPlan, SimConfig, SimStats, Simulation};
use abcast_storage::{StorageRegistry, StorageSnapshot};
use abcast_types::{
    AppMessage, MsgId, ProcessId, ProcessSet, ProtocolConfig, SimDuration, SimTime,
};

use crate::properties::{check_all, check_termination, Violation};
use crate::protocol::AtomicBroadcast;
use crate::queues::AgreedQueue;

/// Configuration of a simulated cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of processes.
    pub processes: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Link behaviour.
    pub link: LinkConfig,
    /// Atomic broadcast configuration (basic or alternative protocol).
    pub protocol: ProtocolConfig,
    /// Consensus configuration (retransmission tick and failure detector).
    pub consensus: ConsensusConfig,
}

impl ClusterConfig {
    /// A cluster of `n` processes running the basic protocol over a
    /// LAN-like lossy link.
    pub fn basic(n: usize) -> Self {
        ClusterConfig {
            processes: n,
            seed: 0,
            link: LinkConfig::lan(),
            protocol: ProtocolConfig::basic(),
            consensus: ConsensusConfig::crash_recovery(),
        }
    }

    /// A cluster of `n` processes running the alternative protocol
    /// (Section 5) over a LAN-like lossy link.
    pub fn alternative(n: usize) -> Self {
        ClusterConfig {
            protocol: ProtocolConfig::alternative(),
            ..ClusterConfig::basic(n)
        }
    }

    /// Returns this configuration with another seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns this configuration with another link model.
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Returns this configuration with another protocol configuration.
    pub fn with_protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.protocol = protocol;
        self
    }

    /// Returns this configuration with another consensus configuration.
    pub fn with_consensus(mut self, consensus: ConsensusConfig) -> Self {
        self.consensus = consensus;
        self
    }

    /// The framed-actor factory every deployment of this configuration
    /// uses — the simulated [`Cluster`], and the socket-backed
    /// [`crate::socket::TcpCluster`] which runs the *same* actors over
    /// real TCP connections.
    pub fn framed_factory(
        &self,
    ) -> impl Fn(ProcessId, abcast_storage::SharedStorage) -> FramedAbcast + Send + Sync + Clone + 'static
    {
        let protocol = self.protocol.clone();
        let consensus = self.consensus.clone();
        move |_p, _storage| {
            FramedActor::new(AtomicBroadcast::new(protocol.clone(), consensus.clone()))
        }
    }
}

/// The actor type a [`Cluster`] deploys: the protocol behind a byte wire.
///
/// Every message between cluster processes is encoded into a length-exact
/// [`bytes::Bytes`] frame at the sender and decoded zero-copy at the
/// receiver (payloads of the decoded message are refcounted views of the
/// frame).  [`FramedActor`] derefs to [`AtomicBroadcast`], so inspection
/// code reads through it transparently.
pub type FramedAbcast = FramedActor<AtomicBroadcast>;

/// A simulated deployment of [`AtomicBroadcast`] processes speaking byte
/// frames.
pub struct Cluster {
    sim: Simulation<FramedAbcast>,
    broadcast_ids: BTreeSet<MsgId>,
}

impl Cluster {
    /// Builds and starts the cluster over fresh in-memory stable storage.
    pub fn new(config: ClusterConfig) -> Self {
        let storage = StorageRegistry::in_memory(config.processes);
        Cluster::with_registry(config, storage)
    }

    /// Builds and starts the cluster over an existing storage registry —
    /// e.g. WAL-backed storages, or storages carried over from a previous
    /// deployment to exercise whole-cluster recovery.
    pub fn with_registry(config: ClusterConfig, storage: StorageRegistry) -> Self {
        let factory = config.framed_factory();
        let sim = Simulation::with_storage(
            SimConfig {
                processes: config.processes,
                seed: config.seed,
                link: config.link.clone(),
            },
            storage,
            factory,
        );
        Cluster {
            sim,
            broadcast_ids: BTreeSet::new(),
        }
    }

    /// The underlying simulation (for fault injection, link manipulation,
    /// storage inspection and custom predicates).
    pub fn sim(&self) -> &Simulation<FramedAbcast> {
        &self.sim
    }

    /// Mutable access to the underlying simulation.
    pub fn sim_mut(&mut self) -> &mut Simulation<FramedAbcast> {
        &mut self.sim
    }

    /// Total wire frames received that failed to decode, across all
    /// currently-up processes.  Zero in any healthy run.
    pub fn decode_failures(&self) -> u64 {
        self.sim
            .processes()
            .iter()
            .filter_map(|p| self.sim.actor(p))
            .map(FramedAbcast::decode_failures)
            .sum()
    }

    /// The set of processes.
    pub fn processes(&self) -> ProcessSet {
        self.sim.processes().clone()
    }

    /// A-broadcasts `payload` at process `p` right now.  Returns the
    /// assigned identity, or `None` if `p` is currently down.
    pub fn broadcast(&mut self, p: ProcessId, payload: impl Into<Vec<u8>>) -> Option<MsgId> {
        let payload = payload.into();
        let id = self.sim.with_actor_mut(p, |actor, ctx| {
            actor.with_inner_ctx(ctx, |inner, ctx| inner.a_broadcast(payload, ctx))
        })?;
        self.broadcast_ids.insert(id);
        Some(id)
    }

    /// Broadcasts `count` messages of `payload_size` bytes, round-robin
    /// over the processes that are currently up, spaced `gap` apart in
    /// virtual time.  Returns the identities actually broadcast.
    pub fn broadcast_spread(
        &mut self,
        count: usize,
        payload_size: usize,
        gap: SimDuration,
    ) -> Vec<MsgId> {
        let processes: Vec<ProcessId> = self.sim.processes().iter().collect();
        let mut ids = Vec::new();
        for i in 0..count {
            let p = processes[i % processes.len()];
            if !self.sim.is_up(p) {
                // Skip processes that are down at submission time; the
                // message is considered never broadcast (Section 4.2).
                self.sim.run_for(gap);
                continue;
            }
            let payload = vec![(i % 251) as u8; payload_size];
            if let Some(id) = self.broadcast(p, payload) {
                ids.push(id);
            }
            if !gap.is_zero() {
                self.sim.run_for(gap);
            }
        }
        ids
    }

    /// Applies a fault plan to the cluster.
    pub fn apply_faults(&mut self, plan: &FaultPlan) {
        plan.apply(&mut self.sim);
    }

    /// Fires the checkpoint task of process `p` right now, exactly as if
    /// its [`crate::protocol::CHECKPOINT_TIMER`] had expired.
    ///
    /// Equivalence tests across runtimes (simulated vs. socket-backed)
    /// drive checkpoints through this instead of the free-running periodic
    /// timer, so the grouping of deliveries into `(k, Agreed)` delta
    /// records is a deterministic function of the workload rather than of
    /// scheduling.  Returns `false` while `p` is down.
    pub fn checkpoint_tick(&mut self, p: ProcessId) -> bool {
        self.sim
            .with_actor_mut(p, |actor, ctx| {
                actor.on_timer(crate::protocol::CHECKPOINT_TIMER, ctx);
            })
            .is_some()
    }

    /// Runs for `duration` of virtual time.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.sim.run_for(duration);
    }

    /// Runs until every process in `who` is up and has delivered every
    /// identity in `ids`, or until `deadline`.  Returns `true` on success.
    pub fn run_until_delivered(
        &mut self,
        who: &[ProcessId],
        ids: &[MsgId],
        deadline: SimTime,
    ) -> bool {
        let who = who.to_vec(); // A few Copy process ids owned by the predicate, not payload bytes
        let ids = ids.to_vec(); // A few Copy message ids owned by the predicate, not payload bytes
        self.sim.run_until(deadline, |sim| {
            who.iter().all(|p| {
                sim.actor(*p)
                    .map(|a| ids.iter().all(|id| a.is_delivered(*id)))
                    .unwrap_or(false)
            })
        })
    }

    /// Convenience: runs until every *currently configured* process has
    /// delivered all identities ever broadcast through this harness.
    pub fn run_until_all_delivered(&mut self, deadline: SimTime) -> bool {
        let everyone: Vec<ProcessId> = self.sim.processes().iter().collect();
        let ids: Vec<MsgId> = self.broadcast_ids.iter().copied().collect();
        self.run_until_delivered(&everyone, &ids, deadline)
    }

    /// The delivery sequence of process `p` (`None` while it is down).
    pub fn agreed(&self, p: ProcessId) -> Option<&AgreedQueue> {
        self.sim.actor(p).map(|a| a.inner().agreed())
    }

    /// The explicitly delivered messages of `p`.
    pub fn delivered(&self, p: ProcessId) -> Vec<AppMessage> {
        self.sim
            .actor(p)
            .map(|a| a.delivered_messages().to_vec()) // Inspection hands out owned copies; payload Bytes inside stay refcounted
            .unwrap_or_default()
    }

    /// Identities ever broadcast through this harness.
    pub fn broadcast_ids(&self) -> &BTreeSet<MsgId> {
        &self.broadcast_ids
    }

    /// Identities delivered by at least one currently-up process.
    pub fn delivered_by_any(&self) -> BTreeSet<MsgId> {
        let mut out = BTreeSet::new();
        for p in self.sim.processes().iter() {
            if let Some(actor) = self.sim.actor(p) {
                for id in &self.broadcast_ids {
                    if actor.is_delivered(*id) {
                        out.insert(*id);
                    }
                }
            }
        }
        out
    }

    /// Checks Validity, Integrity, Total Order and Termination over the
    /// current state, treating `good` as the good processes and requiring
    /// them to have delivered `must_deliver`.
    pub fn check_properties(
        &self,
        good: &[ProcessId],
        must_deliver: &BTreeSet<MsgId>,
    ) -> Vec<Violation> {
        self.check_properties_against(good, &self.broadcast_ids, must_deliver)
    }

    /// [`Cluster::check_properties`] with an explicit set of broadcast
    /// identities, for a harness rebuilt over storage that an earlier
    /// deployment wrote (it saw none of those broadcasts itself).
    ///
    /// Safety is checked over every process that is up.  Termination is
    /// checked per good process against its own queue, and a good process
    /// that is down is itself a Termination violation: it delivers nothing.
    pub(crate) fn check_properties_against(
        &self,
        good: &[ProcessId],
        broadcast: &BTreeSet<MsgId>,
        must_deliver: &BTreeSet<MsgId>,
    ) -> Vec<Violation> {
        let queues: Vec<&AgreedQueue> = self
            .sim
            .processes()
            .iter()
            .filter_map(|p| self.agreed(p))
            .collect();
        let mut violations = check_all(&queues, &[], broadcast, must_deliver);
        for &p in good {
            let verdict = match self.agreed(p) {
                Some(queue) => check_termination(&[(p.index(), queue)], must_deliver),
                None => Err(Violation {
                    property: "Termination",
                    detail: format!("good process {} is down", p.index()),
                }),
            };
            violations.extend(verdict.err());
        }
        violations
    }

    /// Asserts that all four properties hold; panics with the violations
    /// otherwise.  `good` defaults to every currently-up process and
    /// `must_deliver` to everything delivered by anyone.
    pub fn assert_properties(&self) {
        let good: Vec<ProcessId> = self
            .sim
            .processes()
            .iter()
            .filter(|p| self.sim.is_up(*p))
            .collect();
        let must = self.delivered_by_any();
        let violations = self.check_properties(&good, &must);
        assert!(violations.is_empty(), "property violations: {violations:#?}");
    }

    /// Total stable-storage write operations and bytes across the cluster.
    pub fn storage_totals(&self) -> StorageSnapshot {
        self.sim
            .processes()
            .iter()
            .map(|p| self.sim.storage_for(p).metrics().snapshot())
            .fold(StorageSnapshot::default(), |acc, s| acc.plus(&s))
    }

    /// Stable-storage counters of one process.
    pub fn storage_of(&self, p: ProcessId) -> StorageSnapshot {
        self.sim.storage_for(p).metrics().snapshot()
    }

    /// Simulation statistics (events, crashes, recoveries).
    pub fn stats(&self) -> SimStats {
        self.sim.stats()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast_types::SimDuration;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn three_process_cluster_delivers_a_message_everywhere_in_order() {
        let mut cluster = Cluster::new(ClusterConfig::basic(3).with_seed(1));
        let id = cluster.broadcast(p(0), b"hello".to_vec()).unwrap();
        let ok = cluster.run_until_all_delivered(SimTime::from_micros(5_000_000));
        assert!(ok, "message {id} was not delivered everywhere in time");
        for q in [p(0), p(1), p(2)] {
            let delivered = cluster.delivered(q);
            assert_eq!(delivered.len(), 1);
            assert_eq!(delivered[0].id(), id);
            assert_eq!(delivered[0].payload().as_ref(), b"hello");
        }
        cluster.assert_properties();
    }

    #[test]
    fn broadcasts_from_every_process_are_totally_ordered() {
        let mut cluster = Cluster::new(ClusterConfig::basic(3).with_seed(2));
        let ids = cluster.broadcast_spread(12, 16, SimDuration::from_millis(3));
        assert_eq!(ids.len(), 12);
        let ok = cluster.run_until_all_delivered(SimTime::from_micros(20_000_000));
        assert!(ok, "not all messages delivered in time");
        let reference = cluster.delivered(p(0));
        assert_eq!(reference.len(), 12);
        for q in [p(1), p(2)] {
            assert_eq!(cluster.delivered(q), reference, "sequences differ at {q}");
        }
        cluster.assert_properties();
        // Rounds were actually used to order (at least one, at most one per
        // message).
        let rounds = cluster.sim().actor(p(0)).unwrap().metrics().rounds_completed;
        assert!((1..=12 + 2).contains(&rounds), "rounds = {rounds}");
    }

    #[test]
    fn alternative_protocol_also_orders_and_checkpoints() {
        let mut cluster = Cluster::new(ClusterConfig::alternative(3).with_seed(3));
        cluster.broadcast_spread(10, 8, SimDuration::from_millis(5));
        let ok = cluster.run_until_all_delivered(SimTime::from_micros(20_000_000));
        assert!(ok);
        // Let the checkpoint task run.
        cluster.run_for(SimDuration::from_millis(500));
        cluster.assert_properties();
        let metrics = cluster.sim().actor(p(1)).unwrap().metrics().clone();
        assert!(metrics.agreed_checkpoints_logged > 0);
        assert!(metrics.app_checkpoints_taken > 0);
    }

    #[test]
    fn pipelined_cluster_delivers_the_sequential_sequence() {
        // Simulation equivalence: the same single-sender workload, ordered
        // once with the sequential round loop (W = 1) and once with four
        // rounds in flight (W = 4), must produce the *identical* delivery
        // sequence — pipelining reorders the deciding, never the applying.
        use abcast_types::BatchingPolicy;
        let run = |depth: u64| {
            let protocol = ProtocolConfig::basic()
                .with_batching(BatchingPolicy::EarlyReturn { max_batch: 2 })
                .with_pipeline_depth(depth);
            let mut cluster = Cluster::new(
                ClusterConfig::basic(3)
                    .with_seed(41)
                    .with_link(abcast_net::LinkConfig::reliable())
                    .with_protocol(protocol),
            );
            let mut ids = Vec::new();
            for i in 0..10u8 {
                ids.extend(cluster.broadcast(p(0), vec![i; 4]));
                cluster.run_for(SimDuration::from_millis(2));
            }
            assert!(
                cluster.run_until_all_delivered(cluster.now() + SimDuration::from_secs(30)),
                "W = {depth} run must complete"
            );
            cluster.assert_properties();
            let in_flight_peak = cluster
                .sim()
                .actor(p(0))
                .unwrap()
                .metrics()
                .max_rounds_in_flight;
            (cluster.delivered(p(0)), in_flight_peak)
        };
        let (sequential, seq_peak) = run(1);
        let (pipelined, pipe_peak) = run(4);
        assert_eq!(sequential.len(), 10);
        assert_eq!(
            sequential, pipelined,
            "W = 4 must apply the same sequence as W = 1"
        );
        assert_eq!(seq_peak, 1, "the sequential run never runs ahead");
        assert!(
            pipe_peak >= 2,
            "the pipelined run must actually overlap rounds (peak {pipe_peak})"
        );
    }

    #[test]
    fn framed_wire_reproduces_the_typed_run_bit_for_bit() {
        // The same workload, same seed, same lossy link — once with actors
        // exchanging typed `AbcastMsg` values directly (the pre-frame
        // transport) and once through the byte-framed cluster.  Delivery
        // order, checkpoints and the persisted `(k, Agreed)` delta records
        // must be byte-for-byte identical: the frame codec and the
        // zero-copy payload path may not change one observable bit.
        use abcast_storage::keys;
        use abcast_types::SimDuration;
        let protocol = ProtocolConfig::alternative().with_delta(3);
        let consensus = ConsensusConfig::crash_recovery();

        let typed_storage = StorageRegistry::in_memory(3);
        let mut typed = abcast_sim::Simulation::with_storage(
            abcast_sim::SimConfig {
                processes: 3,
                seed: 77,
                link: LinkConfig::lan(),
            },
            typed_storage.clone(),
            {
                let (protocol, consensus) = (protocol.clone(), consensus.clone());
                move |_p, _s| AtomicBroadcast::new(protocol.clone(), consensus.clone())
            },
        );

        let framed_storage = StorageRegistry::in_memory(3);
        let mut framed = Cluster::with_registry(
            ClusterConfig {
                processes: 3,
                seed: 77,
                link: LinkConfig::lan(),
                protocol,
                consensus,
            },
            framed_storage.clone(),
        );

        for i in 0..10u8 {
            let sender = p(u32::from(i) % 3);
            typed.with_actor_mut(sender, |a, ctx| a.a_broadcast(vec![i; 8], ctx));
            framed.broadcast(sender, vec![i; 8]);
            typed.run_for(SimDuration::from_millis(7));
            framed.run_for(SimDuration::from_millis(7));
        }
        typed.run_for(SimDuration::from_secs(3));
        framed.run_for(SimDuration::from_secs(3));

        for q in [p(0), p(1), p(2)] {
            assert_eq!(
                typed.actor(q).unwrap().agreed(),
                framed.agreed(q).unwrap(),
                "delivery sequence of {q} differs between typed and framed runs"
            );
            let t = typed_storage.storage_for(q).unwrap();
            let f = framed_storage.storage_for(q).unwrap();
            assert_eq!(
                t.load(&keys::agreed_checkpoint()).unwrap(),
                f.load(&keys::agreed_checkpoint()).unwrap(),
                "persisted (k, Agreed) checkpoint of {q} differs"
            );
            assert_eq!(
                t.load_log(&keys::agreed_delta()).unwrap(),
                f.load_log(&keys::agreed_delta()).unwrap(),
                "persisted delta records of {q} differ"
            );
        }
        assert_eq!(framed.decode_failures(), 0);
        framed.assert_properties();
    }

    #[test]
    fn check_properties_checks_each_good_process_against_its_own_queue() {
        // p2 is cut off, so only p0 and p1 deliver; then p1 crashes.  With
        // p1 down, p2's queue is the second up queue, not the third: each
        // good process must be judged by its own queue, found by id.
        let mut cluster = Cluster::new(ClusterConfig::basic(3).with_seed(1));
        for q in [p(0), p(1)] {
            cluster.sim_mut().link_mut().cut_both(p(2), q);
        }
        let id = cluster.broadcast(p(0), b"cut".to_vec()).unwrap();
        let deadline = cluster.now() + SimDuration::from_secs(5);
        assert!(cluster.run_until_delivered(&[p(0), p(1)], &[id], deadline));
        cluster.sim_mut().crash_now(p(1));
        let must = BTreeSet::from([id]);

        let violations = cluster.check_properties(&[p(0), p(2)], &must);
        assert_eq!(violations.len(), 1, "{violations:#?}");
        assert_eq!(violations[0].property, "Termination");
        assert!(violations[0].detail.starts_with("good process 2 "), "{violations:#?}");

        let violations = cluster.check_properties(&[p(0), p(1)], &must);
        assert_eq!(violations.len(), 1, "{violations:#?}");
        assert_eq!(violations[0].detail, "good process 1 is down");
    }

    #[test]
    fn identical_seeds_yield_identical_histories() {
        let run = |seed| {
            let mut cluster = Cluster::new(ClusterConfig::basic(3).with_seed(seed));
            cluster.broadcast_spread(6, 4, SimDuration::from_millis(2));
            cluster.run_for(SimDuration::from_secs(3));
            (
                cluster.delivered(p(0)),
                cluster.delivered(p(1)),
                cluster.stats(),
            )
        };
        assert_eq!(run(9), run(9));
    }
}
