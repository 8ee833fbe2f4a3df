//! The consensus *module* used by the atomic broadcast layer: a numbered
//! family of consensus instances behind the paper's `propose`/`decided`
//! interface (Section 3.2).
//!
//! [`MultiConsensus`] owns one [`ConsensusInstance`] per round, an embedded
//! heartbeat failure detector that provides the Ω leader used to drive
//! ballots, and a single periodic driver timer.  The atomic broadcast actor
//! embeds it and forwards messages and timers to it; everything the paper
//! requires of the black box holds:
//!
//! * `propose(k, v)` is idempotent and logs the proposal as its first
//!   operation;
//! * `decided(k)` returns the same value every time it terminates
//!   (property P5), at every process (Uniform Agreement);
//! * after a crash, [`MultiConsensus::on_start`] rebuilds every instance
//!   from "the log of proposed and agreed values (which is kept internally
//!   by Consensus)" — exactly what the paper's recovery procedure parses.

use std::collections::BTreeMap;

use abcast_fd::{FdConfig, HeartbeatFd, FD_TIMER_SPAN};
use abcast_net::{ActorContext, MappedContext, TimerId};
use abcast_storage::{keys, SharedStorage, TypedStorageExt};
use abcast_types::{ProcessId, Result, Round};

use crate::config::ConsensusConfig;
use crate::instance::{ConsensusInstance, ConsensusValue};
use crate::message::ConsensusMsg;

/// Driver timer of the consensus module, in its own timer namespace (the
/// failure detector occupies `[0, FD_TIMER_SPAN)`).
pub const CONSENSUS_TICK: TimerId = TimerId::new(FD_TIMER_SPAN);

/// Number of timer identities the consensus module uses (failure detector
/// included); parents embedding it reserve this span.
pub const CONSENSUS_TIMER_SPAN: u64 = FD_TIMER_SPAN + 1;

/// A decision freshly learned by the local process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionEvent<V> {
    /// The instance that decided.
    pub instance: Round,
    /// The decided value.
    pub value: V,
}

/// Numbered consensus instances plus the failure detector driving them.
#[derive(Debug)]
pub struct MultiConsensus<V> {
    config: ConsensusConfig,
    fd: HeartbeatFd,
    instances: BTreeMap<Round, ConsensusInstance<V>>,
    /// Watermark below which decided instances have been forgotten
    /// ([`MultiConsensus::forget_decided_below`]).  A late retransmission
    /// for such an instance must be *dropped*, not allowed to lazily
    /// recreate a fresh instance: the recreated instance would know
    /// neither the proposal nor the decision, so it would accumulate
    /// forever (unbounded memory) and its `Query`/ballot traffic would
    /// re-run consensus for a round whose outcome is already fixed.
    forget_floor: Round,
}

impl<V: ConsensusValue> MultiConsensus<V> {
    /// Creates a consensus module with the given configuration.
    pub fn new(config: ConsensusConfig) -> Self {
        let fd_config: FdConfig = config.fd;
        MultiConsensus {
            config,
            fd: HeartbeatFd::new(fd_config),
            instances: BTreeMap::new(),
            forget_floor: Round::ZERO,
        }
    }

    /// Starts the module, or restarts it after a recovery: reloads every
    /// instance found on stable storage, starts the failure detector and
    /// arms the driver timer.
    ///
    /// A storage *read* error during recovery is returned instead of being
    /// treated as "nothing stored": acting without the logged promises and
    /// accepted values would let this acceptor contradict its pre-crash
    /// self and break agreement.  The caller must fail-stop the process
    /// (crash-the-process semantics) and retry recovery later.  A failed
    /// read of the detector's epoch fails the start the same way.
    pub fn on_start(&mut self, ctx: &mut dyn ActorContext<ConsensusMsg<V>>) -> Result<()> {
        for key in ctx.storage().keys()? {
            if let Some(instance) = keys::parse_consensus_instance(&key) {
                if let std::collections::btree_map::Entry::Vacant(e) = self.instances.entry(instance) {
                    e.insert(ConsensusInstance::recover(instance, ctx.storage())?);
                }
            }
        }
        // Restore the forget watermark.  The caller re-derives a floor from
        // its recovered round, but that round comes from the last *logged*
        // checkpoint and lags the pre-crash one — a re-derived floor can
        // regress below rounds whose acceptor records were already
        // discarded, letting a lagging peer re-run consensus for a settled
        // round against this now-amnesiac acceptor.  Once records are gone,
        // participation must stay closed.
        if let Some(floor) = ctx.storage().load_value::<Round>(&keys::consensus_floor())? {
            if floor > self.forget_floor {
                self.forget_floor = floor;
                self.instances.retain(|k, _| *k >= floor);
            }
        }
        {
            let mut fd_ctx = MappedContext::new(ctx, ConsensusMsg::Fd, 0);
            self.fd.on_start(&mut fd_ctx)?;
        }
        ctx.set_timer(CONSENSUS_TICK, self.config.retransmit_period);
        Ok(())
    }

    /// The paper's `propose(k, proposed)`: proposes `value` to instance
    /// `k`.  Idempotent — re-proposing after a crash keeps the logged
    /// value.
    pub fn propose(
        &mut self,
        k: Round,
        value: V,
        ctx: &mut dyn ActorContext<ConsensusMsg<V>>,
    ) {
        // A round below the forget watermark is settled globally and its
        // records are discarded: this process can neither host a faithful
        // acceptor for it nor safely coordinate a new ballot (a fresh
        // instance would start from ballot zero and could re-decide the
        // round differently).  Proposing down there can only happen when
        // the caller's delivery state lags its own discard point — the
        // outcome is obtained through state transfer, never by re-running
        // consensus, so the proposal is dropped like the late traffic in
        // `on_message`.
        if k < self.forget_floor && !self.instances.contains_key(&k) {
            return;
        }
        let me = ctx.me();
        let is_leader = self.leader(me) == me;
        let instance = self
            .instances
            .entry(k)
            .or_insert_with(|| ConsensusInstance::new(k));
        let mut inst_ctx = MappedContext::new(
            ctx,
            move |msg| ConsensusMsg::Instance { instance: k, msg },
            CONSENSUS_TIMER_SPAN,
        );
        instance.propose(value, &mut inst_ctx);
        // If this process currently holds the leadership, start the ballot
        // right away instead of waiting for the next driver tick — the tick
        // remains as the retransmission fallback.  This keeps decision
        // latency at a few network round-trips rather than a timer period.
        if is_leader && !instance.is_decided() {
            instance.tick(true, &mut inst_ctx);
        }
    }

    /// The Ω leader as `me` currently sees it: the process whose ballots
    /// decide, and so the one whose `Unordered` set a new message should
    /// reach first.
    #[inline]
    pub fn leader(&self, me: ProcessId) -> ProcessId {
        self.fd.leader(me)
    }

    /// The paper's `decided(k)`: the decision of instance `k`, if known
    /// locally.
    pub fn decision(&self, k: Round) -> Option<&V> {
        self.instances.get(&k).and_then(|i| i.decision())
    }

    /// The value this process proposed to instance `k`, if any (`Proposed_p[k]`
    /// read back through the consensus interface, as the paper's recovery
    /// procedure does).
    pub fn proposal(&self, k: Round) -> Option<&V> {
        self.instances.get(&k).and_then(|i| i.proposal())
    }

    /// `true` if this process has proposed to instance `k`.
    pub fn has_proposed(&self, k: Round) -> bool {
        self.proposal(k).is_some()
    }

    /// Every decision known locally, in instance order.
    pub fn decisions(&self) -> impl Iterator<Item = (Round, &V)> + '_ {
        self.instances
            .iter()
            .filter_map(|(k, i)| i.decision().map(|v| (*k, v)))
    }

    /// Number of instances currently tracked (decided and undecided).
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Drops the bookkeeping of every *decided* instance strictly below
    /// `before`, keeping only its decision out of reach of the protocol.
    ///
    /// The atomic broadcast layer calls this after an application-level
    /// checkpoint (Section 5.2) made the old instances unnecessary; the
    /// corresponding stable-storage records can also be discarded
    /// (Figure 4, line *c*), which the caller does through its storage
    /// handle.
    /// The floor raise is logged through `storage` (the caller's staged
    /// step view, so it commits atomically with the record discard): a
    /// floor that regressed after a crash would re-open rounds whose
    /// acceptor records are gone, breaking Uniform Agreement.
    pub fn forget_decided_below(&mut self, before: Round, storage: &SharedStorage) {
        self.instances
            .retain(|k, i| *k >= before || !i.is_decided());
        if before > self.forget_floor {
            self.forget_floor = before;
            let _ = storage.store_value(&keys::consensus_floor(), &before);
        }
    }

    /// The watermark below which decided instances have been forgotten.
    pub fn forget_floor(&self) -> Round {
        self.forget_floor
    }

    /// Drops every *undecided* instance strictly below `before`.
    ///
    /// Used after a state transfer jumped the caller past its own
    /// in-flight proposals: the transferred state proves every round below
    /// `before` is decided globally, so the local instances that never
    /// learned their outcome can only linger as zombies — querying forever
    /// for decisions their peers have forgotten and inflating the
    /// in-flight accounting.  Decided instances are kept: they still
    /// answer peers catching up by replay.
    pub fn abandon_undecided_below(&mut self, before: Round) {
        self.instances
            .retain(|k, i| *k >= before || i.is_decided());
    }

    /// Number of instances that are open but not yet decided — the rounds
    /// currently "in flight" under pipelining.
    pub fn undecided_in_flight(&self) -> usize {
        self.instances
            .values()
            .filter(|i| i.has_proposal() && !i.is_decided())
            .count()
    }

    /// Handles one incoming consensus-module message.  Returns every
    /// decision newly learned while processing it.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: ConsensusMsg<V>,
        ctx: &mut dyn ActorContext<ConsensusMsg<V>>,
    ) -> Vec<DecisionEvent<V>> {
        match msg {
            ConsensusMsg::Fd(fd_msg) => {
                let mut fd_ctx = MappedContext::new(ctx, ConsensusMsg::Fd, 0);
                self.fd.on_message(from, fd_msg, &mut fd_ctx);
                Vec::new()
            }
            ConsensusMsg::Instance { instance: k, msg } => {
                // Late (retransmitted or long-delayed) traffic for an
                // instance below the forget watermark is dropped: the
                // decision was delivered and discarded long ago, and a
                // peer still asking for it catches up through the state
                // transfer of Section 5.3, not by re-running consensus.
                // Instances that are still tracked (undecided survivors of
                // the cleanup) keep receiving their messages.
                if k < self.forget_floor && !self.instances.contains_key(&k) {
                    return Vec::new();
                }
                let instance = self
                    .instances
                    .entry(k)
                    .or_insert_with(|| ConsensusInstance::new(k));
                let mut inst_ctx = MappedContext::new(
                    ctx,
                    move |msg| ConsensusMsg::Instance { instance: k, msg },
                    CONSENSUS_TIMER_SPAN,
                );
                match instance.on_message(from, msg, &mut inst_ctx) {
                    Some(value) => vec![DecisionEvent { instance: k, value }],
                    None => Vec::new(),
                }
            }
        }
    }

    /// Handles a timer belonging to the consensus module's namespace.
    /// Returns `(handled, newly decided)`.
    pub fn on_timer(
        &mut self,
        timer: TimerId,
        ctx: &mut dyn ActorContext<ConsensusMsg<V>>,
    ) -> (bool, Vec<DecisionEvent<V>>) {
        if timer.raw() < FD_TIMER_SPAN {
            let mut fd_ctx = MappedContext::new(ctx, ConsensusMsg::Fd, 0);
            let handled = self.fd.on_timer(timer, &mut fd_ctx);
            return (handled, Vec::new());
        }
        if timer != CONSENSUS_TICK {
            return (false, Vec::new());
        }
        let me = ctx.me();
        let is_leader = self.leader(me) == me;
        let mut decided = Vec::new();
        for (k, instance) in self.instances.iter_mut() {
            if instance.is_decided() {
                continue;
            }
            let k = *k;
            let mut inst_ctx = MappedContext::new(
                ctx,
                move |msg| ConsensusMsg::Instance { instance: k, msg },
                CONSENSUS_TIMER_SPAN,
            );
            if let Some(value) = instance.tick(is_leader, &mut inst_ctx) {
                decided.push(DecisionEvent { instance: k, value });
            }
        }
        ctx.set_timer(CONSENSUS_TICK, self.config.retransmit_period);
        (true, decided)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::InstanceMsg;
    use abcast_net::{Actor, ActorContext};
    use abcast_sim::{FaultPlan, SimConfig, Simulation};
    use abcast_storage::SharedStorage;
    use abcast_types::{ProcessId, SimDuration, SimTime};

    /// Test actor: proposes `base + k` to instances `0..instances_to_run`
    /// as soon as it starts, and records decisions.
    struct ConsensusActor {
        multi: MultiConsensus<u64>,
        base: u64,
        instances_to_run: u64,
        decided: BTreeMap<Round, u64>,
    }

    impl ConsensusActor {
        fn new(me: ProcessId, instances_to_run: u64, config: ConsensusConfig) -> Self {
            ConsensusActor {
                multi: MultiConsensus::new(config),
                base: (me.as_u32() as u64 + 1) * 1000,
                instances_to_run,
                decided: BTreeMap::new(),
            }
        }

        fn absorb(&mut self, events: Vec<DecisionEvent<u64>>) {
            for e in events {
                self.decided.insert(e.instance, e.value);
            }
        }
    }

    impl Actor for ConsensusActor {
        type Msg = ConsensusMsg<u64>;

        fn on_start(&mut self, ctx: &mut dyn ActorContext<Self::Msg>) {
            self.multi.on_start(ctx).expect("recovery reads failed");
            for k in 0..self.instances_to_run {
                let round = Round::new(k);
                self.multi.propose(round, self.base + k, ctx);
            }
            // Decisions already on stable storage are immediately available.
            let known: Vec<(Round, u64)> =
                self.multi.decisions().map(|(k, v)| (k, *v)).collect();
            for (k, v) in known {
                self.decided.insert(k, v);
            }
        }

        fn on_message(&mut self, from: ProcessId, msg: Self::Msg, ctx: &mut dyn ActorContext<Self::Msg>) {
            let events = self.multi.on_message(from, msg, ctx);
            self.absorb(events);
        }

        fn on_timer(&mut self, timer: abcast_net::TimerId, ctx: &mut dyn ActorContext<Self::Msg>) {
            let (_, events) = self.multi.on_timer(timer, ctx);
            self.absorb(events);
        }
    }

    fn run_sim(
        n: usize,
        instances: u64,
        seed: u64,
        plan: FaultPlan,
        horizon: SimDuration,
    ) -> Simulation<ConsensusActor> {
        let mut sim = Simulation::new(SimConfig::lan(n).with_seed(seed), move |p, _s: SharedStorage| {
            ConsensusActor::new(p, instances, ConsensusConfig::default())
        });
        plan.apply(&mut sim);
        let deadline = SimTime::ZERO + horizon;
        sim.run_until(deadline, |sim| {
            // Every process must be up again *and* have decided everything;
            // treating down processes as satisfied would stop the run
            // before they recover.
            sim.processes().iter().all(|p| {
                sim.actor(p)
                    .map(|a| a.decided.len() as u64 >= instances)
                    .unwrap_or(false)
            })
        });
        sim
    }

    fn assert_agreement(sim: &Simulation<ConsensusActor>, instances: u64) {
        let mut agreed: BTreeMap<Round, u64> = BTreeMap::new();
        for p in sim.processes().iter() {
            let Some(actor) = sim.actor(p) else { continue };
            for k in 0..instances {
                let round = Round::new(k);
                if let Some(v) = actor.decided.get(&round) {
                    let entry = agreed.entry(round).or_insert(*v);
                    assert_eq!(entry, v, "{p} decided differently in instance {round}");
                    // Validity: the decided value was proposed by someone.
                    assert_eq!(*v % 1000, k, "decision {v} was never proposed");
                    let proposer = *v / 1000 - 1;
                    assert!((proposer as usize) < sim.processes().len());
                }
            }
        }
    }

    #[test]
    fn all_processes_decide_the_same_proposed_values() {
        let instances = 3;
        let sim = run_sim(3, instances, 1, FaultPlan::none(), SimDuration::from_secs(5));
        for p in sim.processes().iter() {
            assert_eq!(
                sim.actor(p).unwrap().decided.len() as u64,
                instances,
                "{p} did not decide every instance"
            );
        }
        assert_agreement(&sim, instances);
    }

    #[test]
    fn decisions_survive_a_minority_of_crashes() {
        let instances = 2;
        let plan = FaultPlan::none()
            .crash_for(ProcessId::new(2), SimTime::from_micros(2_000), SimDuration::from_millis(400))
            .crash_for(ProcessId::new(4), SimTime::from_micros(5_000), SimDuration::from_millis(300));
        let sim = run_sim(5, instances, 3, plan, SimDuration::from_secs(10));
        for p in sim.processes().iter() {
            assert_eq!(
                sim.actor(p).unwrap().decided.len() as u64,
                instances,
                "{p} did not decide every instance despite being good"
            );
        }
        assert_agreement(&sim, instances);
    }

    #[test]
    fn leader_crash_does_not_block_termination() {
        let instances = 2;
        // p0 is the initial leader; crash it for a long stretch.
        let plan = FaultPlan::none().crash_for(
            ProcessId::new(0),
            SimTime::from_micros(2_000),
            SimDuration::from_secs(2),
        );
        let sim = run_sim(3, instances, 5, plan, SimDuration::from_secs(15));
        for p in sim.processes().iter() {
            assert_eq!(
                sim.actor(p).unwrap().decided.len() as u64,
                instances,
                "{p} missing decisions after leader crash"
            );
        }
        assert_agreement(&sim, instances);
    }

    #[test]
    fn recovered_process_relearns_decisions_from_stable_storage_and_peers() {
        let instances = 2;
        let plan = FaultPlan::none().crash_for(
            ProcessId::new(1),
            SimTime::from_micros(1_000),
            SimDuration::from_millis(800),
        );
        let sim = run_sim(3, instances, 7, plan, SimDuration::from_secs(10));
        let recovered = sim.actor(ProcessId::new(1)).unwrap();
        assert_eq!(recovered.decided.len() as u64, instances);
        assert_agreement(&sim, instances);
        assert_eq!(sim.process_stats(ProcessId::new(1)).recoveries, 1);
    }

    #[test]
    fn proposals_are_idempotent_across_recovery() {
        // A process crashes right after proposing; after recovery it
        // re-proposes a *different* value, but the logged value must win
        // (property P4).
        let mut sim = Simulation::new(SimConfig::lan(3).with_seed(9), |p, _s: SharedStorage| {
            ConsensusActor::new(p, 1, ConsensusConfig::default())
        });
        // Let everyone propose and decide.
        sim.run_until(SimTime::from_micros(5_000_000), |sim| {
            sim.processes()
                .iter()
                .all(|p| sim.actor(p).map(|a| !a.decided.is_empty()).unwrap_or(false))
        });
        let decided_value = *sim
            .actor(ProcessId::new(0))
            .unwrap()
            .decided
            .get(&Round::new(0))
            .unwrap();

        // Crash and recover p0; on recovery it proposes the same instance
        // again (its constructor does), which must not change anything.
        sim.crash_now(ProcessId::new(0));
        sim.recover_now(ProcessId::new(0));
        sim.run_for(SimDuration::from_millis(500));
        let after = *sim
            .actor(ProcessId::new(0))
            .unwrap()
            .decided
            .get(&Round::new(0))
            .unwrap();
        assert_eq!(after, decided_value, "decision changed across recovery");
    }

    #[test]
    fn forget_decided_below_drops_old_instances() {
        let mut multi: MultiConsensus<u64> = MultiConsensus::new(ConsensusConfig::default());
        let mut ctx = abcast_net::testkit::ScriptedContext::new(ProcessId::new(0), 3);
        multi.on_start(&mut ctx).unwrap();
        for k in 0..5u64 {
            multi.propose(Round::new(k), k, &mut ctx);
            // Simulate a decision arriving.
            multi.on_message(
                ProcessId::new(1),
                ConsensusMsg::instance(Round::new(k), InstanceMsg::Decided { value: k }),
                &mut ctx,
            );
        }
        assert_eq!(multi.instance_count(), 5);
        for k in 0..5u64 {
            assert_eq!(multi.decision(Round::new(k)), Some(&k));
            assert!(multi.has_proposed(Round::new(k)));
        }
        assert!(!multi.has_proposed(Round::new(5)));
        multi.forget_decided_below(Round::new(3), &ctx.storage_handle());
        assert_eq!(multi.instance_count(), 2);
        assert_eq!(multi.decision(Round::new(4)), Some(&4));
        assert!(multi.has_proposed(Round::new(4)));
        assert_eq!(multi.decision(Round::new(1)), None);
        assert!(!multi.has_proposed(Round::new(1)));
        assert_eq!(multi.forget_floor(), Round::new(3));
    }

    /// Regression test: a late retransmitted message for a round below the
    /// forget watermark used to lazily recreate a *fresh* instance — which
    /// knew neither proposal nor decision, was never cleaned up again
    /// (`forget_decided_below` only drops *decided* instances), and whose
    /// `Query` multisends re-ran consensus for a settled round.  Under a
    /// delayed, duplicating link every forgotten round could resurrect this
    /// way, growing memory without bound.
    #[test]
    fn late_message_for_a_forgotten_round_is_dropped() {
        let mut multi: MultiConsensus<u64> = MultiConsensus::new(ConsensusConfig::default());
        let mut ctx = abcast_net::testkit::ScriptedContext::new(ProcessId::new(0), 3);
        multi.on_start(&mut ctx).unwrap();
        for k in 0..5u64 {
            multi.propose(Round::new(k), k, &mut ctx);
            multi.on_message(
                ProcessId::new(1),
                ConsensusMsg::instance(Round::new(k), InstanceMsg::Decided { value: k }),
                &mut ctx,
            );
        }
        multi.forget_decided_below(Round::new(4), &ctx.storage_handle());
        assert_eq!(multi.instance_count(), 1);

        // Delayed duplicates of the whole conversation of round 1 arrive
        // after the forget: none of them may recreate the instance.
        ctx.clear_effects();
        for msg in [
            ConsensusMsg::instance(Round::new(1), InstanceMsg::Decided { value: 1 }),
            ConsensusMsg::instance(Round::new(1), InstanceMsg::Query),
            ConsensusMsg::instance(
                Round::new(1),
                InstanceMsg::Prepare { ballot: abcast_types::Ballot::new(7, ProcessId::new(1)) },
            ),
        ] {
            let events = multi.on_message(ProcessId::new(1), msg, &mut ctx);
            assert!(events.is_empty(), "a forgotten round must not re-decide");
        }
        assert_eq!(multi.instance_count(), 1, "no instance resurrected");
        assert_eq!(multi.decision(Round::new(1)), None);
        assert!(
            ctx.sent.is_empty() && ctx.multisent.is_empty(),
            "dropped traffic must not trigger replies for a settled round"
        );

        // A round at/above the watermark still accepts messages normally.
        let events = multi.on_message(
            ProcessId::new(1),
            ConsensusMsg::instance(Round::new(9), InstanceMsg::Decided { value: 9 }),
            &mut ctx,
        );
        assert_eq!(events.len(), 1);
        assert_eq!(multi.decision(Round::new(9)), Some(&9));
    }

    /// Fuzz regression (sim_fuzz seed 88 family): the forget watermark
    /// used to be volatile, so a recovered process re-derived it from its
    /// recovered round — which comes from the last *logged* checkpoint and
    /// lags the pre-crash discard point.  The regressed floor re-opened
    /// rounds whose acceptor records were already gone, letting a lagging
    /// peer re-run consensus for a settled round against an amnesiac
    /// acceptor and decide a second value.  The floor is logged when it
    /// rises and restored by `on_start`; it must never regress.
    #[test]
    fn forget_floor_survives_recovery() {
        let mut ctx = abcast_net::testkit::ScriptedContext::new(ProcessId::new(0), 3);
        let mut multi: MultiConsensus<u64> = MultiConsensus::new(ConsensusConfig::default());
        multi.on_start(&mut ctx).unwrap();
        for k in 0..5u64 {
            multi.propose(Round::new(k), k, &mut ctx);
            multi.on_message(
                ProcessId::new(1),
                ConsensusMsg::instance(Round::new(k), InstanceMsg::Decided { value: k }),
                &mut ctx,
            );
        }
        multi.forget_decided_below(Round::new(4), &ctx.storage_handle());
        assert_eq!(multi.forget_floor(), Round::new(4));

        // Crash: all volatile state gone; rebuild from the same storage.
        let mut recovered: MultiConsensus<u64> = MultiConsensus::new(ConsensusConfig::default());
        recovered.on_start(&mut ctx).unwrap();
        assert_eq!(
            recovered.forget_floor(),
            Round::new(4),
            "forget watermark regressed across recovery"
        );

        // Late traffic below the restored floor stays dropped.
        ctx.clear_effects();
        let events = recovered.on_message(
            ProcessId::new(1),
            ConsensusMsg::instance(
                Round::new(1),
                InstanceMsg::Prepare { ballot: abcast_types::Ballot::new(9, ProcessId::new(1)) },
            ),
            &mut ctx,
        );
        assert!(events.is_empty());
        assert!(
            ctx.sent.is_empty() && ctx.multisent.is_empty(),
            "recovered acceptor must not participate in a discarded round"
        );
    }

    /// Fuzz regression (sim_fuzz seed 88 family): a process whose delivery
    /// state lags its own discard point used to be able to *propose* to a
    /// round below the forget watermark — the lazily recreated instance
    /// started from ballot zero and could coordinate a second decision for
    /// a settled round.  Proposals below the floor are dropped like the
    /// late traffic in `on_message`; the outcome of such a round is
    /// obtained through state transfer, never by re-running consensus.
    #[test]
    fn propose_below_the_forget_floor_is_refused() {
        let mut multi: MultiConsensus<u64> = MultiConsensus::new(ConsensusConfig::default());
        let mut ctx = abcast_net::testkit::ScriptedContext::new(ProcessId::new(0), 3);
        multi.on_start(&mut ctx).unwrap();
        for k in 0..3u64 {
            multi.propose(Round::new(k), k, &mut ctx);
            multi.on_message(
                ProcessId::new(1),
                ConsensusMsg::instance(Round::new(k), InstanceMsg::Decided { value: k }),
                &mut ctx,
            );
        }
        multi.forget_decided_below(Round::new(3), &ctx.storage_handle());
        assert_eq!(multi.instance_count(), 0);

        ctx.clear_effects();
        multi.propose(Round::new(1), 999, &mut ctx);
        assert_eq!(multi.instance_count(), 0, "no instance recreated below the floor");
        assert!(!multi.has_proposed(Round::new(1)));
        assert!(
            ctx.sent.is_empty() && ctx.multisent.is_empty(),
            "a refused proposal must not start ballot traffic"
        );

        // At or above the floor, proposing works normally.
        multi.propose(Round::new(3), 3, &mut ctx);
        assert!(multi.has_proposed(Round::new(3)));
    }

    /// `leader` is the embedded detector's Ω output: the lowest process
    /// `me` trusts, `me` included.
    #[test]
    fn leader_is_the_lowest_trusted_process() {
        let mut multi: MultiConsensus<u64> = MultiConsensus::new(ConsensusConfig::default());
        let (p0, p1, p2) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
        let mut ctx = abcast_net::testkit::ScriptedContext::new(p2, 3);
        multi.on_start(&mut ctx).unwrap();
        assert_eq!(multi.leader(p2), p0, "everyone is trusted at the start");
        let heartbeat = || ConsensusMsg::Fd(abcast_fd::FdMessage::Heartbeat { epoch: 1 });
        // p0 falls silent past its timeout; p1 keeps heartbeating.
        ctx.advance(SimDuration::from_millis(100));
        multi.on_message(p1, heartbeat(), &mut ctx);
        multi.on_timer(abcast_fd::FD_TICK, &mut ctx);
        assert_eq!(multi.leader(p2), p1);
        // Both fall silent: the only trusted process left is p2 itself.
        ctx.advance(SimDuration::from_millis(100));
        multi.on_timer(abcast_fd::FD_TICK, &mut ctx);
        assert_eq!(multi.leader(p2), p2);
        // A heartbeat from p0 proves its suspicion premature.
        multi.on_message(p0, heartbeat(), &mut ctx);
        assert_eq!(multi.leader(p2), p0);
    }

    /// An *undecided* instance below the watermark survives
    /// `forget_decided_below` and must keep receiving its messages — only
    /// untracked forgotten rounds are dropped.
    #[test]
    fn undecided_instance_below_the_floor_keeps_working() {
        let mut multi: MultiConsensus<u64> = MultiConsensus::new(ConsensusConfig::default());
        let mut ctx = abcast_net::testkit::ScriptedContext::new(ProcessId::new(0), 3);
        multi.on_start(&mut ctx).unwrap();
        multi.propose(Round::new(1), 1, &mut ctx); // never decides before the forget
        for k in [0u64, 2] {
            multi.propose(Round::new(k), k, &mut ctx);
            multi.on_message(
                ProcessId::new(1),
                ConsensusMsg::instance(Round::new(k), InstanceMsg::Decided { value: k }),
                &mut ctx,
            );
        }
        multi.forget_decided_below(Round::new(3), &ctx.storage_handle());
        assert_eq!(multi.undecided_in_flight(), 1);
        let events = multi.on_message(
            ProcessId::new(1),
            ConsensusMsg::instance(Round::new(1), InstanceMsg::Decided { value: 1 }),
            &mut ctx,
        );
        assert_eq!(events.len(), 1, "the tracked undecided round still decides");
        assert_eq!(multi.decision(Round::new(1)), Some(&1));
        assert_eq!(multi.undecided_in_flight(), 0);
    }
}
