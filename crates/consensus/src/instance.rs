//! A single consensus instance for the crash-recovery model.
//!
//! Each broadcast round `k` of the atomic broadcast protocol runs one
//! instance of Uniform Consensus (Section 3.4: Termination for good
//! processes, Uniform Validity, Uniform Agreement).  The implementation is
//! a ballot-based single-decree protocol (the Synod protocol) hardened for
//! crash-recovery:
//!
//! * the *proposal*, the acceptor's *promise*, its *accepted value* and the
//!   learned *decision* are written to stable storage before they take
//!   effect, so a crash can never un-promise or un-accept anything
//!   (Uniform Agreement survives crashes);
//! * `propose` is idempotent: re-proposing after a recovery keeps the value
//!   that was logged first (property P4 of the paper);
//! * ballots embed their coordinator, coordinators are chosen by the Ω
//!   output of the failure detector, and every message is retransmitted
//!   periodically, so the instance terminates once a majority of processes
//!   stay up long enough and the detector stabilises;
//! * undecided participants periodically `Query` their peers, and anyone
//!   who knows the decision re-announces it, so decisions propagate to
//!   recovering processes over the fair-lossy links.

use std::collections::{BTreeMap, BTreeSet};

use abcast_net::ActorContext;
use abcast_storage::{keys, SharedStorage, TypedStorageExt, WriteBatch};
use abcast_types::codec::{Decode, Encode};
use abcast_types::{Ballot, ProcessId, Result, Round};

use crate::message::InstanceMsg;

/// Marker trait for values a consensus instance can agree on.
///
/// Blanket-implemented for every type with the required bounds, so callers
/// never implement it manually.
pub trait ConsensusValue:
    Clone + Eq + std::fmt::Debug + Encode + Decode + Send + 'static
{
}

impl<T> ConsensusValue for T where
    T: Clone + Eq + std::fmt::Debug + Encode + Decode + Send + 'static
{
}

/// Leader-side phase of the instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Not currently driving a ballot.
    Idle,
    /// Waiting for a majority of promises for `current_ballot`.
    Preparing,
    /// Waiting for a majority of accepts for `current_ballot`.
    Accepting,
}

/// One crash-recovery consensus instance.
#[derive(Debug)]
pub struct ConsensusInstance<V> {
    instance: Round,

    // --- state mirrored on stable storage ---
    proposal: Option<V>,
    promised: Option<Ballot>,
    accepted: Option<(Ballot, V)>,
    decision: Option<V>,

    // --- volatile leader-side state ---
    phase: Phase,
    current_ballot: Option<Ballot>,
    promises: BTreeMap<ProcessId, Option<(Ballot, V)>>,
    accepts: BTreeSet<ProcessId>,
    chosen: Option<V>,
    highest_ballot_number: u64,
}

impl<V: ConsensusValue> ConsensusInstance<V> {
    /// Creates a fresh instance with no persistent state yet.
    pub fn new(instance: Round) -> Self {
        ConsensusInstance {
            instance,
            proposal: None,
            promised: None,
            accepted: None,
            decision: None,
            phase: Phase::Idle,
            current_ballot: None,
            promises: BTreeMap::new(),
            accepts: BTreeSet::new(),
            chosen: None,
            highest_ballot_number: 0,
        }
    }

    /// Rebuilds an instance from stable storage after a crash.
    pub fn recover(instance: Round, storage: &SharedStorage) -> Result<Self> {
        let mut me = ConsensusInstance::new(instance);
        me.proposal = storage.load_value(&keys::consensus_proposal(instance))?;
        me.promised = storage.load_value(&keys::consensus_promised(instance))?;
        me.accepted = storage.load_value(&keys::consensus_accepted(instance))?;
        me.decision = storage.load_value(&keys::consensus_decided(instance))?;
        me.highest_ballot_number = me.promised.map(|b| b.number).unwrap_or(0);
        Ok(me)
    }

    /// The instance number.
    pub fn instance(&self) -> Round {
        self.instance
    }

    /// The value this process proposed, if it has proposed.
    pub fn proposal(&self) -> Option<&V> {
        self.proposal.as_ref()
    }

    /// `true` if this process has proposed a value to this instance.
    pub fn has_proposal(&self) -> bool {
        self.proposal.is_some()
    }

    /// The decided value, if this process has learned it.
    pub fn decision(&self) -> Option<&V> {
        self.decision.as_ref()
    }

    /// `true` once the decision is known locally.
    pub fn is_decided(&self) -> bool {
        self.decision.is_some()
    }

    /// Proposes `value`.  The first proposal is logged to stable storage
    /// *before* any message is sent (the log operation the paper counts);
    /// proposing again — e.g. after a recovery — keeps the logged value and
    /// ignores the new one, making the primitive idempotent (property P4).
    pub fn propose(&mut self, value: V, ctx: &mut dyn ActorContext<InstanceMsg<V>>) {
        if self.proposal.is_none() {
            let _ = ctx
                .storage()
                .store_value(&keys::consensus_proposal(self.instance), &value);
            self.proposal = Some(value);
        }
        // Eagerly ask whether the instance is already decided: a recovering
        // process re-proposing to an old instance learns the outcome in one
        // round trip instead of waiting for its Query tick.
        if self.decision.is_none() {
            ctx.multisend(InstanceMsg::Query);
        }
    }

    /// Handles one message of this instance.  Returns the decided value if
    /// this message is what decided (or taught us) it.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: InstanceMsg<V>,
        ctx: &mut dyn ActorContext<InstanceMsg<V>>,
    ) -> Option<V> {
        match msg {
            InstanceMsg::Prepare { ballot } => {
                self.observe_ballot(ballot);
                if self.promised.is_none_or(|p| ballot >= p) {
                    self.promised = Some(ballot);
                    self.persist_acceptor(ctx);
                    ctx.send(
                        from,
                        InstanceMsg::Promise {
                            ballot,
                            accepted: self.accepted.clone(),
                        },
                    );
                } else if let Some(promised) = self.promised {
                    ctx.send(from, InstanceMsg::Nack { ballot, promised });
                }
                self.answer_if_decided(from, ctx);
                None
            }
            InstanceMsg::AcceptRequest { ballot, value } => {
                self.observe_ballot(ballot);
                if self.promised.is_none_or(|p| ballot >= p) {
                    self.promised = Some(ballot);
                    self.accepted = Some((ballot, value));
                    self.persist_acceptor(ctx);
                    ctx.send(from, InstanceMsg::Accepted { ballot });
                } else if let Some(promised) = self.promised {
                    ctx.send(from, InstanceMsg::Nack { ballot, promised });
                }
                self.answer_if_decided(from, ctx);
                None
            }
            InstanceMsg::Promise { ballot, accepted } => {
                if self.phase == Phase::Preparing && self.current_ballot == Some(ballot) {
                    self.promises.insert(from, accepted);
                    if self.promises.len() >= ctx.processes().majority() {
                        let inherited = self
                            .promises
                            .values()
                            .flatten()
                            .max_by_key(|(b, _)| *b)
                            .map(|(_, v)| v.clone());
                        let value = inherited.or_else(|| self.proposal.clone());
                        if let Some(value) = value {
                            self.chosen = Some(value.clone());
                            self.phase = Phase::Accepting;
                            self.accepts.clear();
                            ctx.multisend(InstanceMsg::AcceptRequest { ballot, value });
                        }
                    }
                }
                None
            }
            InstanceMsg::Accepted { ballot } => {
                if self.phase == Phase::Accepting && self.current_ballot == Some(ballot) {
                    self.accepts.insert(from);
                    if self.accepts.len() >= ctx.processes().majority() {
                        let value = self.chosen.clone().expect("accepting implies a chosen value");
                        return self.learn(value, ctx);
                    }
                }
                None
            }
            InstanceMsg::Nack { ballot, promised } => {
                self.observe_ballot(promised);
                if self.current_ballot == Some(ballot) && self.phase != Phase::Idle {
                    // Our ballot lost; back off and let the next tick start
                    // a higher one.
                    self.phase = Phase::Idle;
                    self.current_ballot = None;
                    self.promises.clear();
                    self.accepts.clear();
                }
                None
            }
            InstanceMsg::Decided { value } => self.learn(value, ctx),
            InstanceMsg::Query => {
                self.answer_if_decided(from, ctx);
                None
            }
        }
    }

    /// Periodic driver: retransmits, starts or restarts ballots when this
    /// process is the leader, and queries for missing decisions.  Returns a
    /// newly learned decision, if any (never produced here, but kept
    /// symmetric with [`ConsensusInstance::on_message`] for the caller).
    pub fn tick(
        &mut self,
        is_leader: bool,
        ctx: &mut dyn ActorContext<InstanceMsg<V>>,
    ) -> Option<V> {
        if self.decision.is_some() {
            return None;
        }
        if !self.has_proposal() {
            return None;
        }
        if is_leader {
            match self.phase {
                Phase::Idle => {
                    let ballot = Ballot::new(self.highest_ballot_number, ProcessId::new(0))
                        .next_for(ctx.me(), ctx.processes().len());
                    self.observe_ballot(ballot);
                    // Promise the ballot to ourselves synchronously — logged
                    // *before* the Prepare leaves — instead of waiting for
                    // the multisend's lossy self-delivery.  The persisted
                    // promise doubles as the coordinator's issued-ballot
                    // watermark: without it, a coordinator that crashes
                    // between issuing `Prepare` and receiving its own copy
                    // recovers with a stale `highest_ballot_number`, reissues
                    // the *same* ballot number around a possibly different
                    // value, and stale value-less `Accepted` acks from the
                    // previous incarnation then count toward the new value's
                    // majority — two decisions for one instance.
                    self.promised = Some(ballot);
                    self.persist_acceptor(ctx);
                    self.current_ballot = Some(ballot);
                    self.phase = Phase::Preparing;
                    self.promises.clear();
                    self.accepts.clear();
                    self.promises.insert(ctx.me(), self.accepted.clone());
                    ctx.multisend(InstanceMsg::Prepare { ballot });
                }
                Phase::Preparing => {
                    if let Some(ballot) = self.current_ballot {
                        ctx.multisend(InstanceMsg::Prepare { ballot });
                    }
                }
                Phase::Accepting => {
                    if let (Some(ballot), Some(value)) = (self.current_ballot, self.chosen.clone())
                    {
                        ctx.multisend(InstanceMsg::AcceptRequest { ballot, value });
                    }
                }
            }
        } else {
            // Not the leader: stop driving (a new leader will), but keep
            // asking whether a decision exists so we eventually learn it
            // over the fair-lossy links.
            ctx.multisend(InstanceMsg::Query);
        }
        None
    }

    // ------------------------------------------------------------------

    fn observe_ballot(&mut self, ballot: Ballot) {
        if ballot.number > self.highest_ballot_number {
            self.highest_ballot_number = ballot.number;
        }
    }

    fn persist_acceptor(&self, ctx: &mut dyn ActorContext<InstanceMsg<V>>) {
        // The promise and the accepted value take effect together, so they
        // are committed under a single durability barrier instead of two.
        let mut batch = WriteBatch::new();
        if let Some(promised) = self.promised {
            batch.store_value(&keys::consensus_promised(self.instance), &promised);
        }
        if let Some(accepted) = &self.accepted {
            batch.store_value(&keys::consensus_accepted(self.instance), accepted);
        }
        if !batch.is_empty() {
            let _ = ctx.storage().commit_batch(batch);
        }
    }

    fn answer_if_decided(&self, to: ProcessId, ctx: &mut dyn ActorContext<InstanceMsg<V>>) {
        if let Some(value) = &self.decision {
            ctx.send(to, InstanceMsg::Decided { value: value.clone() });
        }
    }

    fn learn(&mut self, value: V, ctx: &mut dyn ActorContext<InstanceMsg<V>>) -> Option<V> {
        if let Some(existing) = &self.decision {
            debug_assert_eq!(
                existing, &value,
                "uniform agreement violated: two different decisions for {:?}",
                self.instance
            );
            return None;
        }
        let _ = ctx
            .storage()
            .store_value(&keys::consensus_decided(self.instance), &value);
        self.decision = Some(value.clone());
        self.phase = Phase::Idle;
        // Announce the decision once; peers that miss it will Query.
        ctx.multisend(InstanceMsg::Decided { value: value.clone() });
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast_net::testkit::ScriptedContext;
    use abcast_types::SimDuration;

    type Ctx = ScriptedContext<InstanceMsg<u64>>;

    fn ctx_for(me: u32, n: usize) -> Ctx {
        ScriptedContext::new(ProcessId::new(me), n)
    }

    fn k() -> Round {
        Round::new(0)
    }

    fn b(n: u64, coord: u32) -> Ballot {
        Ballot::new(n, ProcessId::new(coord))
    }

    #[test]
    fn propose_logs_once_and_is_idempotent() {
        let mut ctx = ctx_for(0, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k());
        inst.propose(42, &mut ctx);
        inst.propose(99, &mut ctx); // ignored: already proposed
        assert_eq!(inst.proposal(), Some(&42));

        // The proposal reached stable storage exactly once.
        let stored: Option<u64> = ctx
            .storage()
            .load_value(&keys::consensus_proposal(k()))
            .unwrap();
        assert_eq!(stored, Some(42));
        assert_eq!(ctx.storage().metrics().snapshot().store_ops, 1);
    }

    #[test]
    fn recovery_restores_proposal_promise_accept_and_decision() {
        let mut ctx = ctx_for(0, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k());
        inst.propose(7, &mut ctx);
        inst.on_message(ProcessId::new(1), InstanceMsg::Prepare { ballot: b(1, 1) }, &mut ctx);
        inst.on_message(
            ProcessId::new(1),
            InstanceMsg::AcceptRequest { ballot: b(1, 1), value: 7 },
            &mut ctx,
        );
        inst.on_message(ProcessId::new(1), InstanceMsg::Decided { value: 7 }, &mut ctx);

        let recovered: ConsensusInstance<u64> =
            ConsensusInstance::recover(k(), &ctx.storage_handle()).unwrap();
        assert_eq!(recovered.proposal(), Some(&7));
        assert_eq!(recovered.decision(), Some(&7));
        assert!(recovered.is_decided());
    }

    #[test]
    fn acceptor_promises_and_reports_previous_accept() {
        let mut ctx = ctx_for(2, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k());

        // First ballot: promise with no prior accept.
        inst.on_message(ProcessId::new(0), InstanceMsg::Prepare { ballot: b(3, 0) }, &mut ctx);
        assert!(matches!(
            ctx.sent.last(),
            Some((p, InstanceMsg::Promise { ballot, accepted: None })) if *p == ProcessId::new(0) && *ballot == b(3, 0)
        ));

        // Accept a value under that ballot.
        inst.on_message(
            ProcessId::new(0),
            InstanceMsg::AcceptRequest { ballot: b(3, 0), value: 11 },
            &mut ctx,
        );

        // A later ballot's prepare gets the accepted value echoed back.
        inst.on_message(ProcessId::new(1), InstanceMsg::Prepare { ballot: b(4, 1) }, &mut ctx);
        assert!(matches!(
            ctx.sent.last(),
            Some((p, InstanceMsg::Promise { ballot, accepted: Some((ab, 11)) }))
                if *p == ProcessId::new(1) && *ballot == b(4, 1) && *ab == b(3, 0)
        ));
    }

    #[test]
    fn accepting_persists_promise_and_value_under_one_barrier() {
        let mut ctx = ctx_for(2, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k());
        let before = ctx.storage().metrics().snapshot();
        inst.on_message(
            ProcessId::new(0),
            InstanceMsg::AcceptRequest { ballot: b(1, 0), value: 11 },
            &mut ctx,
        );
        let delta = ctx.storage().metrics().snapshot().since(&before);
        assert_eq!(delta.store_ops, 2, "promise and accepted value are both logged");
        assert_eq!(delta.sync_ops, 1, "but they share one durability barrier");
    }

    #[test]
    fn acceptor_rejects_stale_ballots_with_nack() {
        let mut ctx = ctx_for(2, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k());
        inst.on_message(ProcessId::new(1), InstanceMsg::Prepare { ballot: b(5, 1) }, &mut ctx);
        ctx.clear_effects();

        inst.on_message(ProcessId::new(0), InstanceMsg::Prepare { ballot: b(2, 0) }, &mut ctx);
        assert!(matches!(
            ctx.sent.last(),
            Some((_, InstanceMsg::Nack { ballot, promised })) if *ballot == b(2, 0) && *promised == b(5, 1)
        ));

        ctx.clear_effects();
        inst.on_message(
            ProcessId::new(0),
            InstanceMsg::AcceptRequest { ballot: b(2, 0), value: 9 },
            &mut ctx,
        );
        assert!(matches!(
            ctx.sent.last(),
            Some((_, InstanceMsg::Nack { .. }))
        ));
    }

    #[test]
    fn leader_runs_both_phases_and_decides_with_a_majority() {
        let n = 3;
        let me = ProcessId::new(0);
        let mut ctx = ctx_for(0, n);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k());
        inst.propose(5, &mut ctx);
        ctx.clear_effects();

        // Tick as leader: starts Prepare with a ballot coordinated by p0.
        inst.tick(true, &mut ctx);
        let ballot = match ctx.multisent.last() {
            Some(InstanceMsg::Prepare { ballot }) => *ballot,
            other => panic!("expected prepare, got {other:?}"),
        };
        assert_eq!(ballot.coordinator, me);

        // Majority of promises (self + p1) moves to the accept phase.
        inst.on_message(me, InstanceMsg::Promise { ballot, accepted: None }, &mut ctx);
        inst.on_message(
            ProcessId::new(1),
            InstanceMsg::Promise { ballot, accepted: None },
            &mut ctx,
        );
        assert!(matches!(
            ctx.multisent.last(),
            Some(InstanceMsg::AcceptRequest { value: 5, .. })
        ));

        // Majority of accepts decides and announces.
        let decided_by_first = inst.on_message(me, InstanceMsg::Accepted { ballot }, &mut ctx);
        assert_eq!(decided_by_first, None);
        let decided =
            inst.on_message(ProcessId::new(1), InstanceMsg::Accepted { ballot }, &mut ctx);
        assert_eq!(decided, Some(5));
        assert_eq!(inst.decision(), Some(&5));
        assert!(matches!(
            ctx.multisent.last(),
            Some(InstanceMsg::Decided { value: 5 })
        ));
    }

    #[test]
    fn leader_adopts_the_highest_previously_accepted_value() {
        let n = 5;
        let mut ctx = ctx_for(0, n);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k());
        inst.propose(100, &mut ctx);
        inst.tick(true, &mut ctx);
        let ballot = match ctx.multisent.last() {
            Some(InstanceMsg::Prepare { ballot }) => *ballot,
            other => panic!("expected prepare, got {other:?}"),
        };
        ctx.clear_effects();

        // Promises report two different previously accepted values; the one
        // with the highest ballot must win (here: 55 at ballot 4).
        inst.on_message(
            ProcessId::new(1),
            InstanceMsg::Promise { ballot, accepted: Some((b(2, 2), 33)) },
            &mut ctx,
        );
        inst.on_message(
            ProcessId::new(2),
            InstanceMsg::Promise { ballot, accepted: Some((b(4, 4), 55)) },
            &mut ctx,
        );
        inst.on_message(ProcessId::new(3), InstanceMsg::Promise { ballot, accepted: None }, &mut ctx);
        assert!(matches!(
            ctx.multisent.last(),
            Some(InstanceMsg::AcceptRequest { value: 55, .. })
        ));
    }

    #[test]
    fn nack_makes_the_leader_retry_with_a_higher_ballot() {
        let mut ctx = ctx_for(0, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k());
        inst.propose(1, &mut ctx);
        inst.tick(true, &mut ctx);
        let first_ballot = match ctx.multisent.last() {
            Some(InstanceMsg::Prepare { ballot }) => *ballot,
            other => panic!("expected prepare, got {other:?}"),
        };
        inst.on_message(
            ProcessId::new(1),
            InstanceMsg::Nack { ballot: first_ballot, promised: b(10, 1) },
            &mut ctx,
        );
        ctx.clear_effects();
        inst.tick(true, &mut ctx);
        let second_ballot = match ctx.multisent.last() {
            Some(InstanceMsg::Prepare { ballot }) => *ballot,
            other => panic!("expected prepare, got {other:?}"),
        };
        assert!(second_ballot.number > 10);
        assert_eq!(second_ballot.coordinator, ProcessId::new(0));
    }

    #[test]
    fn decision_is_answered_to_queries_and_never_changes() {
        let mut ctx = ctx_for(1, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k());
        let learned =
            inst.on_message(ProcessId::new(0), InstanceMsg::Decided { value: 8 }, &mut ctx);
        assert_eq!(learned, Some(8));
        // Learning the same decision again returns None (not "newly decided").
        let again =
            inst.on_message(ProcessId::new(2), InstanceMsg::Decided { value: 8 }, &mut ctx);
        assert_eq!(again, None);

        ctx.clear_effects();
        inst.on_message(ProcessId::new(2), InstanceMsg::Query, &mut ctx);
        assert!(matches!(
            ctx.sent.last(),
            Some((p, InstanceMsg::Decided { value: 8 })) if *p == ProcessId::new(2)
        ));
    }

    #[test]
    fn non_leader_queries_instead_of_driving() {
        let mut ctx = ctx_for(2, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k());
        inst.propose(4, &mut ctx);
        ctx.clear_effects();
        inst.tick(false, &mut ctx);
        assert!(matches!(ctx.multisent.last(), Some(InstanceMsg::Query)));
        // A decided instance stays quiet on ticks.
        inst.on_message(ProcessId::new(0), InstanceMsg::Decided { value: 4 }, &mut ctx);
        ctx.clear_effects();
        inst.tick(false, &mut ctx);
        inst.tick(true, &mut ctx);
        assert!(ctx.multisent.is_empty() && ctx.sent.is_empty());
    }

    #[test]
    fn issued_ballot_survives_recovery_and_is_never_reissued() {
        // Fuzz regression (sim_fuzz seed 88 family): a coordinator that
        // crashed between multisending `Prepare` and receiving its own
        // (fair-lossy) copy used to recover with a stale ballot watermark
        // and reissue the *same* ballot number, letting stale `Accepted`
        // acks from its previous incarnation count toward a different
        // value's majority.  The synchronous self-promise at issuance is
        // the durable watermark; recovery must start strictly above it.
        let mut ctx = ctx_for(0, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k());
        inst.propose(1, &mut ctx);
        inst.tick(true, &mut ctx);
        let first = match ctx.multisent.last() {
            Some(InstanceMsg::Prepare { ballot }) => *ballot,
            other => panic!("expected prepare, got {other:?}"),
        };

        // Crash now: no copy of the Prepare was ever delivered back, so
        // the persisted self-promise is the only trace of the ballot.
        let mut recovered: ConsensusInstance<u64> =
            ConsensusInstance::recover(k(), &ctx.storage_handle()).unwrap();
        assert_eq!(recovered.proposal(), Some(&1));
        ctx.clear_effects();
        recovered.tick(true, &mut ctx);
        let second = match ctx.multisent.last() {
            Some(InstanceMsg::Prepare { ballot }) => *ballot,
            other => panic!("expected prepare, got {other:?}"),
        };
        assert!(
            second.number > first.number,
            "recovered coordinator reissued ballot {first:?} (got {second:?})"
        );
    }

    #[test]
    fn ticks_retransmit_the_current_phase() {
        let mut ctx = ctx_for(0, 3);
        let mut inst: ConsensusInstance<u64> = ConsensusInstance::new(k());
        inst.propose(2, &mut ctx);
        inst.tick(true, &mut ctx);
        ctx.advance(SimDuration::from_millis(40));
        ctx.clear_effects();
        // Still preparing: the prepare is re-multisent.
        inst.tick(true, &mut ctx);
        assert!(matches!(ctx.multisent.last(), Some(InstanceMsg::Prepare { .. })));
    }
}
