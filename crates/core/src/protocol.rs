//! The atomic broadcast protocol for asynchronous crash-recovery systems.
//!
//! [`AtomicBroadcast`] implements both variants described in the paper with
//! one state machine, selected by [`ProtocolConfig`]:
//!
//! * the **basic protocol** of Section 4 (Figure 2): rounds of consensus
//!   over the `Unordered` set, a periodic gossip task, and *no* stable-log
//!   operation beyond the proposal that the consensus substrate itself
//!   logs; recovery replays the consensus log;
//! * the **alternative protocol** of Section 5 (Figures 3–4): periodic
//!   `(k, Agreed)` checkpoints for faster recovery, state-transfer messages
//!   for processes more than Δ rounds behind, logging of the `Unordered`
//!   set so `A-broadcast` can return early and batch, incremental logging,
//!   and application-level checkpoints that bound log growth.
//!
//! The paper's concurrent tasks map onto the event-driven actor as follows:
//!
//! | Paper | Here |
//! |-------|------|
//! | `upon A-broadcast(m)` | [`AtomicBroadcast::a_broadcast`] / `on_client_request` |
//! | sequencer task | the internal `try_advance` step, re-run after every event |
//! | gossip task | the [`GOSSIP_TIMER`] handler |
//! | checkpoint task (Fig. 4) | the [`CHECKPOINT_TIMER`] handler |
//! | `upon receive gossip/state` | [`Actor::on_message`] |
//! | `upon initialization or recovery` | [`Actor::on_start`] |
//! | `A-deliver-sequence()` | [`AtomicBroadcast::agreed`] / [`AtomicBroadcast::delivered_messages`] |

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use abcast_consensus::{ConsensusConfig, MultiConsensus, CONSENSUS_TIMER_SPAN};
use abcast_net::{run_step_checked, Actor, ActorContext, MappedContext, TimerId};
use abcast_storage::{
    keys, IncrementalSetLogger, SnapshotDeltaPolicy, TypedStorageExt, WriteBatch,
};
use abcast_types::codec::{from_payload, to_payload, Encode};
use abcast_types::{
    AppMessage, MsgId, Payload, ProcessId, ProtocolConfig, Result, Round, SimTime,
};

use crate::message::AbcastMsg;
use crate::queues::{AgreedQueue, AppCheckpoint, Batch, DecisionBuffer, UnorderedSet};

/// Timer of the gossip task.
pub const GOSSIP_TIMER: TimerId = TimerId::new(0);
/// Timer of the checkpoint task (alternative protocol only).
pub const CHECKPOINT_TIMER: TimerId = TimerId::new(1);
/// Base of the timer namespace delegated to the consensus substrate.
const CONSENSUS_TIMER_BASE: u64 = 16;

/// Something the protocol hands to the local application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeliveryEvent {
    /// A message was A-delivered; apply it to the application state.
    Deliver(AppMessage),
    /// A state transfer replaced the local history: reset the application
    /// to this checkpoint before applying subsequent deliveries.
    InstallCheckpoint(AppCheckpoint),
}

/// The `A-checkpoint()` upcall of Section 5.2 (Figure 5).
///
/// When the protocol compacts the delivered prefix it asks the application
/// for a serialized state that logically contains the `covered` messages
/// (cumulatively: every message passed to this provider so far).  The
/// default [`NullCheckpointProvider`] returns an empty state, which still
/// bounds the queue and the logs — it just carries no application data in
/// state transfers.
pub trait CheckpointProvider: Send {
    /// Folds `covered` into the application checkpoint state and returns
    /// the new serialized state.
    fn checkpoint(&mut self, covered: &[AppMessage]) -> Payload;

    /// Re-seeds the provider from an existing checkpoint.
    ///
    /// Called on recovery (when a persisted `(k, Agreed)` record already
    /// carries an application checkpoint) and when a state transfer
    /// replaces the local history; subsequent [`CheckpointProvider::checkpoint`]
    /// calls must build on top of this state.  The default implementation
    /// ignores it, which is correct for providers that carry no state.
    fn restore(&mut self, checkpoint: &AppCheckpoint) {
        let _ = checkpoint;
    }
}

/// A checkpoint provider carrying no application state.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCheckpointProvider;

impl CheckpointProvider for NullCheckpointProvider {
    fn checkpoint(&mut self, _covered: &[AppMessage]) -> Payload {
        Payload::new()
    }
}

/// Counters exposed by each protocol instance; the experiment harness reads
/// them after a run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolMetrics {
    /// Messages A-broadcast by this process.
    pub broadcasts: u64,
    /// Messages A-delivered by this process (including via replay, but not
    /// counting messages adopted through a state transfer, whether a full
    /// snapshot or a suffix).
    pub delivered_total: u64,
    /// Ordering rounds this process has completed.
    pub rounds_completed: u64,
    /// Rounds re-applied from the consensus log during the last recovery
    /// (the replay cost that Section 5.1's checkpoints shorten).
    pub replayed_rounds_on_recovery: u64,
    /// Rounds skipped thanks to state transfers (Section 5.3).
    pub skipped_rounds: u64,
    /// State-transfer messages sent to lagging peers (full or suffix).
    pub state_transfers_sent: u64,
    /// State-transfer messages applied locally (full or suffix).
    pub state_transfers_applied: u64,
    /// Suffix state transfers sent — the O(gap) fast path of the full
    /// snapshots counted in `state_transfers_sent`.
    pub suffix_transfers_sent: u64,
    /// Suffix state transfers applied locally.
    pub suffix_transfers_applied: u64,
    /// Application-level checkpoints taken (Section 5.2).
    pub app_checkpoints_taken: u64,
    /// `(k, Agreed)` checkpoint writes (snapshots plus delta records).
    pub agreed_checkpoints_logged: u64,
    /// Full `(k, Agreed)` snapshots written (each truncates the delta log).
    pub agreed_snapshots_logged: u64,
    /// Incremental `(k, new messages)` delta records appended — the
    /// O(delta) writes that replace the seed's clone-and-rewrite
    /// checkpoint.
    pub agreed_delta_records_logged: u64,
    /// Peak number of ordering rounds simultaneously in flight (consensus
    /// instances open but uncommitted, plus decisions parked in the reorder
    /// buffer).  Stays at 1 when `pipeline_depth` is 1 and decisions
    /// arrive in round order; a peer's announcement for round `k + 1`
    /// overtaking the one for `k` parks in the buffer and counts, even in
    /// a sequential run.  Experiment E12 reads it to confirm the pipeline
    /// actually filled.
    pub max_rounds_in_flight: u64,
    /// Stable-storage failures observed (failed step commits and failed
    /// recovery reads).  Each one fail-stops the process — it goes silent
    /// until it is crashed and recovered — so any non-zero count outside a
    /// fault-injection run is a bug.
    pub storage_failures: u64,
}

/// The atomic broadcast protocol state machine of one process.
pub struct AtomicBroadcast {
    config: ProtocolConfig,
    consensus: MultiConsensus<Batch>,

    // --- the paper's per-process variables (Figure 2 / Figure 3) ---
    kp: Round,
    unordered: UnorderedSet,
    agreed: AgreedQueue,
    gossip_k: Round,
    /// Decisions learned for rounds above `kp`, waiting for the lower
    /// rounds to commit.  With pipelining (`pipeline_depth > 1`) instances
    /// `kp .. kp + W` decide in arbitrary order; this buffer is what keeps
    /// *application* of the decided batches strictly sequential, so the
    /// delivery sequence is identical to a `W = 1` run.
    decisions: DecisionBuffer,

    // --- message identity management ---
    next_seq: u64,
    epoch_established: bool,

    // --- logging machinery ---
    unordered_logger: IncrementalSetLogger<AppMessage>,
    /// Snapshot-vs-delta schedule for the `(k, Agreed)` checkpoint.
    agreed_policy: SnapshotDeltaPolicy,
    /// Round covered by the last persisted checkpoint record (so pure
    /// round advances are persisted even when no message was delivered).
    persisted_round: Round,
    /// `total_delivered` after committing each recent round, kept for the
    /// last Δ + slack rounds.  Lets the gossip handler compute exactly
    /// which suffix of `Agreed` a lagging peer is missing; volatile — after
    /// a crash the full-snapshot fallback covers until it refills.
    round_watermarks: BTreeMap<u64, u64>,
    /// Smallest delivery count for which "the last `total − count` explicit
    /// messages" is exactly the delivery-order suffix.  Compaction usually
    /// covers a delivery-order *prefix* of the explicit queue; when it
    /// instead punches a hole (covers a gap-closing message delivered
    /// *after* a still-explicit out-of-order one), positions below the
    /// current total stop mapping onto the explicit tail, so suffix
    /// replies below this floor must fall back to the full snapshot.
    suffix_floor: u64,

    // --- application interface ---
    checkpoint_provider: Box<dyn CheckpointProvider>,
    pending_deliveries: Vec<DeliveryEvent>,
    delivery_log: Vec<(SimTime, MsgId)>,

    /// Fail-stop latch: set when stable storage misbehaves (a step commit
    /// or a recovery read fails).  A halted process handles no further
    /// events and sends nothing — exactly a crash from the protocol's
    /// point of view, except the simulator keeps running.  Cleared only by
    /// rebuilding the actor (crash + recovery).
    halted: bool,
    /// Human-readable cause of the halt, for fuzzer diagnostics.
    halt_cause: Option<String>,

    metrics: ProtocolMetrics,
}

impl AtomicBroadcast {
    /// Creates a protocol instance with the given protocol and consensus
    /// configurations and no application checkpoint state.
    pub fn new(config: ProtocolConfig, consensus: ConsensusConfig) -> Self {
        AtomicBroadcast::with_checkpoint_provider(config, consensus, NullCheckpointProvider)
    }

    /// Creates the basic protocol of Section 4 over a crash-recovery
    /// consensus.
    pub fn basic() -> Self {
        AtomicBroadcast::new(ProtocolConfig::basic(), ConsensusConfig::crash_recovery())
    }

    /// Creates the alternative protocol of Section 5 over a crash-recovery
    /// consensus.
    pub fn alternative() -> Self {
        AtomicBroadcast::new(
            ProtocolConfig::alternative(),
            ConsensusConfig::crash_recovery(),
        )
    }

    /// Creates a protocol instance with an application-supplied
    /// `A-checkpoint` upcall (Section 5.2, Figure 5).
    pub fn with_checkpoint_provider(
        config: ProtocolConfig,
        consensus: ConsensusConfig,
        provider: impl CheckpointProvider + 'static,
    ) -> Self {
        let agreed_policy = SnapshotDeltaPolicy::new(config.checkpoint_snapshot_every);
        AtomicBroadcast {
            config,
            consensus: MultiConsensus::new(consensus),
            kp: Round::ZERO,
            unordered: UnorderedSet::new(),
            agreed: AgreedQueue::new(),
            gossip_k: Round::ZERO,
            decisions: DecisionBuffer::new(),
            next_seq: 0,
            epoch_established: false,
            unordered_logger: IncrementalSetLogger::new(keys::unordered_incremental()),
            agreed_policy,
            persisted_round: Round::ZERO,
            round_watermarks: BTreeMap::new(),
            suffix_floor: 0,
            checkpoint_provider: Box::new(provider),
            pending_deliveries: Vec::new(),
            delivery_log: Vec::new(),
            halted: false,
            halt_cause: None,
            metrics: ProtocolMetrics::default(),
        }
    }

    /// `true` if this process fail-stopped on a storage failure and is
    /// waiting to be crashed and recovered.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The storage failure that halted this process, if any.
    pub fn halt_cause(&self) -> Option<&str> {
        self.halt_cause.as_deref()
    }

    /// Fail-stops the process: records the failure and goes silent until
    /// crash + recovery.  The paper's model has no "limping" processes —
    /// a process whose stable storage misbehaves must act crashed, because
    /// continuing without the write (or without the logged state a read
    /// would have returned) can contradict what it already told its peers.
    fn halt_on_storage_failure(&mut self, what: &str, e: &abcast_types::AbcastError) {
        self.metrics.storage_failures += 1;
        if !self.halted {
            self.halted = true;
            self.halt_cause = Some(format!("{what}: {e}"));
        }
    }

    /// Applies a step's commit outcome: a failed commit halts the process.
    fn note_commit(&mut self, commit: Result<()>) {
        if let Err(e) = commit {
            self.halt_on_storage_failure("step commit", &e);
        }
    }

    // ------------------------------------------------------------------
    // Public (application-facing) interface
    // ------------------------------------------------------------------

    /// `A-broadcast(m)`: submits `payload` for totally ordered delivery and
    /// returns the identity assigned to it.
    ///
    /// Under [`abcast_types::BatchingPolicy::WaitForAgreed`] (the basic
    /// protocol) the invocation is logically complete only once the message
    /// appears in the `Agreed` queue; under
    /// [`abcast_types::BatchingPolicy::EarlyReturn`] the `Unordered` set is
    /// logged before this method returns, which is what allows the early
    /// completion (Section 5.4).
    pub fn a_broadcast(
        &mut self,
        payload: impl Into<Payload>,
        ctx: &mut dyn ActorContext<AbcastMsg>,
    ) -> MsgId {
        let payload = payload.into();
        let (id, commit) = run_step_checked(ctx, |ctx| self.broadcast_step(payload, ctx));
        self.note_commit(commit);
        id
    }

    /// The body of `A-broadcast`, run under a one-barrier batching scope:
    /// the `Unordered` log entry and the consensus proposal it may trigger
    /// share a single durability barrier.
    fn broadcast_step(&mut self, payload: Payload, ctx: &mut dyn ActorContext<AbcastMsg>) -> MsgId {
        let id = self.assign_id(ctx);
        if self.halted {
            // Fail-stopped (possibly by the epoch read just above): the
            // submission is dropped, exactly as if the process had crashed
            // before accepting it.
            return id;
        }
        let message = AppMessage::new(id, payload);
        self.metrics.broadcasts += 1;
        if !self.agreed.contains(id) {
            self.unordered.insert(message);
        }
        if self.config.logging.logs_unordered() {
            self.persist_unordered(ctx);
        }
        self.try_advance(ctx);
        id
    }

    /// `A-deliver-sequence()`: the delivery sequence of this process.
    pub fn agreed(&self) -> &AgreedQueue {
        &self.agreed
    }

    /// The explicitly delivered messages (the part of the sequence after
    /// the application checkpoint), in delivery order.
    pub fn delivered_messages(&self) -> &[AppMessage] {
        self.agreed.messages()
    }

    /// The paper's `A-delivered(m, Δ_p)` predicate.
    pub fn is_delivered(&self, id: MsgId) -> bool {
        self.agreed.contains(id)
    }

    /// Drains the delivery events produced since the last call.  Embedding
    /// applications (replicated state machines) consume these to apply
    /// updates in delivery order.
    pub fn take_deliveries(&mut self) -> Vec<DeliveryEvent> {
        std::mem::take(&mut self.pending_deliveries)
    }

    /// The current round counter `k_p`.
    pub fn round(&self) -> Round {
        self.kp
    }

    /// Number of messages waiting to be ordered.
    pub fn unordered_len(&self) -> usize {
        self.unordered.len()
    }

    /// Number of ordering rounds currently in flight: consensus instances
    /// proposed but undecided, plus decisions parked in the reorder buffer
    /// waiting for a lower round.  At most `pipeline_depth` under normal
    /// operation.
    pub fn rounds_in_flight(&self) -> usize {
        self.consensus.undecided_in_flight() + self.decisions.len()
    }

    /// Number of consensus instances currently tracked by the substrate
    /// (decided and undecided).  Exposed so tests can assert that late
    /// traffic for forgotten rounds does not resurrect instances.
    pub fn consensus_instance_count(&self) -> usize {
        self.consensus.instance_count()
    }

    /// `true` if this process has proposed a value to consensus instance
    /// `k` — `Proposed_p[k] ≠ ⊥` read back through the consensus
    /// interface.
    pub fn has_proposed(&self, k: Round) -> bool {
        self.consensus.has_proposed(k)
    }

    /// Protocol counters.
    pub fn metrics(&self) -> &ProtocolMetrics {
        &self.metrics
    }

    /// Virtual times at which each message was locally A-delivered, in
    /// delivery order.  Used by the latency experiments.
    pub fn delivery_log(&self) -> &[(SimTime, MsgId)] {
        &self.delivery_log
    }

    /// The protocol configuration in force.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Identity management
    // ------------------------------------------------------------------

    fn assign_id(&mut self, ctx: &mut dyn ActorContext<AbcastMsg>) -> MsgId {
        if !self.epoch_established {
            self.establish_sequence_origin(ctx);
        }
        let id = MsgId::new(ctx.me(), self.next_seq);
        self.next_seq += 1;
        id
    }

    /// Establishes a local sequence-number origin that can never collide
    /// with identities assigned before a crash.
    ///
    /// * When the `Unordered` set is logged (alternative protocol), every
    ///   identity ever assigned is recoverable, so numbering simply resumes
    ///   after the highest recovered value.
    /// * Otherwise (basic protocol) a small persistent *broadcast epoch* is
    ///   bumped lazily on the first `A-broadcast` after each (re)start and
    ///   used as the high bits of the sequence number.  This is one slot
    ///   write per recovery-that-broadcasts, not a per-message log
    ///   operation.
    fn establish_sequence_origin(&mut self, ctx: &mut dyn ActorContext<AbcastMsg>) {
        if self.config.logging.logs_unordered() {
            let me = ctx.me();
            let recovered_max = self
                .unordered
                .iter()
                .chain(self.agreed.messages().iter())
                .filter(|m| m.sender() == me)
                .map(|m| m.seq() + 1)
                .max()
                .unwrap_or(0)
                .max(
                    self.agreed
                        .checkpoint()
                        .vc
                        .get(me)
                        .map(|s| s + 1)
                        .unwrap_or(0),
                );
            self.next_seq = self.next_seq.max(recovered_max);
        } else {
            let epoch: u64 = match ctx.storage().load_value(&keys::broadcast_epoch()) {
                Ok(stored) => stored.unwrap_or(0) + 1,
                Err(e) => {
                    // Guessing an epoch after a failed read risks reusing
                    // identities assigned before a crash (an integrity
                    // violation); fail-stop and retry after recovery.
                    self.halt_on_storage_failure("broadcast-epoch read", &e);
                    return;
                }
            };
            // Staged write: its durability is settled by the step commit.
            let _ = ctx.storage().store_value(&keys::broadcast_epoch(), &epoch);
            self.next_seq = self.next_seq.max(epoch << 32);
        }
        self.epoch_established = true;
    }

    // ------------------------------------------------------------------
    // Logging helpers
    // ------------------------------------------------------------------

    fn persist_unordered(&mut self, ctx: &mut dyn ActorContext<AbcastMsg>) {
        let set: std::collections::BTreeSet<AppMessage> = self.unordered.iter().cloned().collect();
        let _ = self.unordered_logger.persist(ctx.storage().as_ref(), &set);
    }

    /// Persists the `(k, Agreed)` checkpoint *incrementally* (Section 5.1
    /// via the Section 5.5 optimisation): normally one delta record holding
    /// only the messages delivered since the previous checkpoint; a full
    /// snapshot (which truncates the delta log) when the
    /// [`SnapshotDeltaPolicy`] schedules one, when the delta chain already
    /// holds a snapshot's bytes, or when the delta cannot be expressed.
    /// With application checkpoints the snapshot is about one delta long,
    /// so the chain stays a record or two long; without them the snapshot
    /// is the whole history and the count cap decides.  When nothing
    /// changed, nothing is written at all.
    ///
    /// Invariant relied upon for the delta path: every message not yet
    /// covered by a persisted record sits at the *tail* of the explicit
    /// queue.  The checkpoint task maintains it by persisting *before*
    /// compacting, and state-transfer adoption invalidates the chain.
    fn persist_agreed(&mut self, ctx: &mut dyn ActorContext<AbcastMsg>) {
        if self.agreed.is_empty() && self.kp == Round::ZERO {
            // Nothing has ever been delivered and no round completed: the
            // checkpoint task fired before the protocol did any work.
            // There is nothing to persist (and the policy's mandatory
            // first snapshot would otherwise write an empty record).
            return;
        }
        let total = self.agreed.total_delivered();
        let explicit = self.agreed.messages();
        let new_messages = total.saturating_sub(self.agreed_policy.persisted_units()) as usize;
        let forced = self.agreed_policy.needs_snapshot(total) || new_messages > explicit.len();
        if !forced && new_messages == 0 && self.kp == self.persisted_round {
            // Unchanged since the previous checkpoint: the write is saved
            // entirely (Section 5.5).
            return;
        }
        let snapshot = (self.kp, &self.agreed);
        if forced || self.agreed_policy.chain_outweighs(snapshot.encoded_len()) {
            let mut batch = WriteBatch::new();
            batch.store_value(&keys::agreed_checkpoint(), &snapshot);
            batch.remove(&keys::agreed_delta());
            let _ = ctx.storage().commit_batch(batch); // xlint:allow(B2) — staged view: this merges into the enclosing scope's batch, whose StepContext::finish pays the one barrier (per step in the simulator, per worker group on sockets)
            self.agreed_policy.note_snapshot(total);
            self.metrics.agreed_snapshots_logged += 1;
        } else {
            let record = to_payload(&(self.kp, &explicit[explicit.len() - new_messages..]));
            let _ = ctx.storage().append(&keys::agreed_delta(), &record);
            self.agreed_policy.note_delta(total, record.len());
            self.metrics.agreed_delta_records_logged += 1;
        }
        self.persisted_round = self.kp;
        self.metrics.agreed_checkpoints_logged += 1;
    }

    // ------------------------------------------------------------------
    // The sequencer (Figure 2) as an idempotent advance function
    // ------------------------------------------------------------------

    fn try_advance(&mut self, ctx: &mut dyn ActorContext<AbcastMsg>) {
        loop {
            // `wait until decided(k_p, result)` — out-of-order decisions
            // wait in the reorder buffer until their round is the next to
            // commit; the substrate query covers decisions known outside
            // the event path (recovered from the local log, or learned
            // before the buffer existed).
            let decided = self
                .decisions
                .take(self.kp)
                .or_else(|| self.consensus.decision(self.kp).cloned());
            if let Some(result) = decided {
                self.commit_round(&result, ctx);
                continue;
            }
            // `if Proposed_p[k_p] = ⊥ then wait until
            //      Unordered_p ≠ ∅  ∨  gossip-k_p > k_p;
            //  Proposed_p[k_p] ← Unordered_p; log; propose`
            // — generalised over the pipeline window `k_p .. k_p + W`.
            self.open_pipeline(ctx);
            break;
        }
    }

    /// Opens consensus instances for the pipeline window `k_p .. k_p + W`
    /// (Figure 2's sequencer when `W = 1`): each un-proposed round in the
    /// window is proposed the pending messages not already carried by a
    /// round below it, so rounds gossip and run their ballots concurrently
    /// without proposing the same message twice.
    ///
    /// The exclusion is optimistic for undecided rounds — if another
    /// process's proposal wins instance `k`, our messages stay in
    /// `Unordered` and re-enter the window once `k` commits, exactly as in
    /// the sequential protocol.  An empty round is only opened when a peer
    /// is already past it (`gossip_k`), again as in the sequential run.
    fn open_pipeline(&mut self, ctx: &mut dyn ActorContext<AbcastMsg>) {
        let depth = self.config.pipeline_depth.max(1);
        // Fast paths for the steady state — `try_advance` runs after every
        // event, and most events leave nothing to open: either there is
        // nothing to order and no peer is ahead (every proposal in the
        // walk below would come out empty), or every round of the window
        // already carries a batch.  Skip the exclusion-set work then.
        let idle = self.unordered.is_empty() && self.gossip_k <= self.kp;
        let window_full = !idle
            && (0..depth).all(|offset| {
                let k = Round::new(self.kp.value() + offset);
                self.consensus.decision(k).is_some() || self.consensus.has_proposed(k)
            });
        if idle || window_full {
            self.note_rounds_in_flight();
            return;
        }
        let max_batch = self.config.batching.max_batch();
        let mut in_flight: BTreeSet<MsgId> = BTreeSet::new();
        for offset in 0..depth {
            let k = Round::new(self.kp.value() + offset);
            // A round already carries a batch when it has decided (possibly
            // on a peer's proposal we learned about before committing the
            // rounds below) or when this process has proposed to it:
            // exclude what it will (or may) deliver from the deeper rounds
            // and do not propose into it again.
            let fixed = self
                .consensus
                .decision(k)
                .or_else(|| self.consensus.proposal(k));
            if let Some(batch) = fixed {
                in_flight.extend(batch.iter().map(AppMessage::id));
                continue;
            }
            let proposal: Batch = self
                .unordered
                .iter()
                .filter(|m| !in_flight.contains(&m.id()))
                .take(max_batch)
                .cloned()
                .collect();
            if proposal.is_empty() && self.gossip_k <= k {
                // Nothing left to order at this depth and no peer is ahead
                // of it: do not open an empty round.
                break;
            }
            in_flight.extend(proposal.iter().map(AppMessage::id));
            let mut consensus_ctx =
                MappedContext::new(ctx, AbcastMsg::Consensus, CONSENSUS_TIMER_BASE);
            self.consensus.propose(k, proposal, &mut consensus_ctx);
        }
        self.note_rounds_in_flight();
    }

    fn note_rounds_in_flight(&mut self) {
        let open = self.rounds_in_flight() as u64;
        if open > self.metrics.max_rounds_in_flight {
            self.metrics.max_rounds_in_flight = open;
        }
    }

    /// Parks freshly learned decisions in the reorder buffer.  Rounds the
    /// process has already committed (possible after a state-transfer jump
    /// re-learns an old instance) are dropped on the floor — their batches
    /// are in `Agreed` already.
    fn buffer_decisions(&mut self, events: Vec<abcast_consensus::DecisionEvent<Batch>>) {
        for event in events {
            if event.instance >= self.kp {
                self.decisions.insert(event.instance, event.value);
            }
        }
    }

    fn commit_round(&mut self, result: &Batch, ctx: &mut dyn ActorContext<AbcastMsg>) {
        let newly = self.agreed.append_batch(result);
        let now = ctx.now();
        for m in &newly {
            self.delivery_log.push((now, m.id()));
            self.pending_deliveries.push(DeliveryEvent::Deliver(m.clone()));
        }
        self.metrics.delivered_total += newly.len() as u64;
        self.metrics.rounds_completed += 1;
        self.kp = self.kp.next();
        self.note_watermark();
        self.unordered.subtract_agreed(&self.agreed);
    }

    /// Slack beyond Δ for which per-round delivery watermarks are kept —
    /// matches the consensus-record retention window, so any peer that
    /// would catch up by replay rather than state transfer never needs a
    /// watermark.
    const WATERMARK_SLACK: u64 = 4;

    /// Records how many messages a process at the *current* round has
    /// delivered, and prunes watermarks that no state transfer can use
    /// any more.  Only maintained when state transfer is enabled.
    fn note_watermark(&mut self) {
        let Some(delta) = self.config.recovery.delta() else {
            return;
        };
        self.round_watermarks
            .insert(self.kp.value(), self.agreed.total_delivered());
        let cutoff = self
            .kp
            .value()
            .saturating_sub(delta + Self::WATERMARK_SLACK);
        if cutoff > 0 {
            self.round_watermarks = self.round_watermarks.split_off(&cutoff);
        }
    }

    // ------------------------------------------------------------------
    // Recovery (Figure 2 `replay`, Figure 3 `retrieve`)
    // ------------------------------------------------------------------

    /// Retrieves the persisted protocol state.  A storage *read* error is
    /// returned, not treated as "nothing stored": recovering with amnesia
    /// (an empty `Agreed` prefix, a forgotten `Unordered` set) would let
    /// this process re-deliver or re-order messages it already settled —
    /// the caller fail-stops instead.
    fn recover_state(&mut self, ctx: &mut dyn ActorContext<AbcastMsg>) -> Result<()> {
        // Alternative protocol: retrieve (k_p, Agreed_p) and Unordered_p.
        // The persisted image is the last full snapshot plus the delta
        // records appended since; replay applies the deltas in order
        // (append is idempotent, so a delta that raced a snapshot is
        // harmless).
        if self.config.logging.logs_agreed() {
            let mut recovered_any = false;
            if let Some((kp, agreed)) = ctx
                .storage()
                .load_value::<(Round, AgreedQueue)>(&keys::agreed_checkpoint())?
            {
                self.kp = kp;
                self.agreed = agreed;
                recovered_any = true;
            }
            let deltas = ctx.storage().load_log(&keys::agreed_delta())?;
            let mut replayed_bytes = 0u64;
            for record in &deltas {
                let (round, msgs): (Round, Vec<AppMessage>) = from_payload(record)?;
                self.agreed.append_in_order(&msgs);
                if round > self.kp {
                    self.kp = round;
                }
                replayed_bytes += record.len() as u64;
                recovered_any = true;
            }
            if recovered_any {
                // The local application must be rebuilt from the recovered
                // sequence: its checkpoint first, then the explicit suffix.
                self.checkpoint_provider.restore(self.agreed.checkpoint());
                self.pending_deliveries.push(DeliveryEvent::InstallCheckpoint(
                    self.agreed.checkpoint().clone(),
                ));
                for m in self.agreed.messages() {
                    self.pending_deliveries
                        .push(DeliveryEvent::Deliver(m.clone()));
                }
                self.agreed_policy.note_recovered(
                    self.agreed.total_delivered(),
                    deltas.len() as u64,
                    replayed_bytes,
                );
                self.persisted_round = self.kp;
                // The recovered queue may carry pre-crash compaction holes
                // this process no longer knows about: only counts at or
                // beyond the recovered total are provably suffix-safe.
                self.suffix_floor = self.agreed.total_delivered();
            }
        }
        if self.config.logging.logs_unordered() {
            let recovered = self.unordered_logger.recover(ctx.storage().as_ref())?;
            self.unordered.insert_all(recovered);
        }

        // `replay()`: re-apply the decisions of every round proposed to (or
        // already decided) since the retrieved checkpoint.  Proposals are
        // re-issued implicitly: they are already logged inside the consensus
        // substrate and `propose` is idempotent, so it suffices to wait for
        // the decisions, which the consensus layer re-learns by querying.
        let mut replayed = 0;
        loop {
            if let Some(result) = self.consensus.decision(self.kp).cloned() {
                let newly = self.agreed.append_batch(&result);
                for m in &newly {
                    self.pending_deliveries.push(DeliveryEvent::Deliver(m.clone()));
                    self.delivery_log.push((ctx.now(), m.id()));
                }
                self.metrics.delivered_total += newly.len() as u64;
                self.metrics.rounds_completed += 1;
                self.kp = self.kp.next();
                self.note_watermark();
                replayed += 1;
                continue;
            }
            break;
        }
        self.metrics.replayed_rounds_on_recovery = replayed;
        self.note_watermark();
        self.unordered.subtract_agreed(&self.agreed);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Gossip, state transfer, checkpointing
    // ------------------------------------------------------------------

    fn on_gossip(
        &mut self,
        from: ProcessId,
        round: Round,
        unordered: Vec<AppMessage>,
        ctx: &mut dyn ActorContext<AbcastMsg>,
    ) {
        // Unordered_p ← (Unordered_p ∪ U_q) ⊖ Agreed_p
        for m in unordered {
            if !self.agreed.contains(m.id()) {
                self.unordered.insert(m);
            }
        }
        if round > self.kp {
            // q is ahead of us.
            if round > self.gossip_k {
                self.gossip_k = round;
            }
        } else if let Some(delta) = self.config.recovery.delta() {
            // Alternative protocol, Figure 3 line (d): if we are ahead of q
            // by more than Δ, ship it our state — only the suffix it is
            // missing when we still know its delivery count, the whole
            // queue otherwise.
            if self.kp.value() > round.value() + delta {
                if let Some(prev) = self.kp.prev() {
                    let reply = self.state_reply_for(round, prev);
                    ctx.send(from, reply);
                    self.metrics.state_transfers_sent += 1;
                }
            }
        }
        self.try_advance(ctx);
    }

    /// Builds the state-transfer reply for a peer gossiping `peer_round`:
    /// the missing suffix of `Agreed` when the watermark of that round is
    /// still known *and* the corresponding messages are still explicit in
    /// the queue; the full snapshot as the fallback (watermarks are
    /// volatile and the prefix may have been compacted into the
    /// application checkpoint).
    fn state_reply_for(&mut self, peer_round: Round, prev: Round) -> AbcastMsg {
        let total = self.agreed.total_delivered();
        let explicit = self.agreed.messages();
        let explicit_start = total - explicit.len() as u64;
        let peer_count = if peer_round.value() == 0 {
            // Every process starts with an empty queue at round 0.
            Some(0)
        } else {
            self.round_watermarks.get(&peer_round.value()).copied()
        };
        match peer_count {
            Some(count)
                if count >= explicit_start && count >= self.suffix_floor && count <= total => {
                let suffix = explicit[(count - explicit_start) as usize..].to_vec(); // xlint:allow(Z1) — suffix transfer owns its slice; each AppMessage clones a refcounted Bytes handle
                self.metrics.suffix_transfers_sent += 1;
                AbcastMsg::StateSuffix {
                    round: prev,
                    from_count: count,
                    messages: suffix,
                }
            }
            _ => AbcastMsg::State {
                round: prev,
                agreed: self.agreed.clone(),
            },
        }
    }

    fn on_state(
        &mut self,
        round: Round,
        agreed: AgreedQueue,
        ctx: &mut dyn ActorContext<AbcastMsg>,
    ) {
        let Some(delta) = self.config.recovery.delta() else {
            return; // basic protocol: state messages are not part of it
        };
        // Figure 3 line (e): apply the snapshot only if we are far behind;
        // otherwise just note the de-synchronisation.
        if self.kp.value() + delta <= round.value() {
            self.agreed.adopt(agreed.clone());
            // The adopted queue's compaction history is unknown: serve
            // suffixes only for counts at or beyond its total.  Its
            // history is also unrelated to the local delta chain: the next
            // checkpoint must be a full snapshot.
            self.suffix_floor = self.agreed.total_delivered();
            self.agreed_policy.invalidate();
            // The application must restart from the embedded checkpoint and
            // re-apply the explicit suffix; future application checkpoints
            // build on the adopted state.
            self.checkpoint_provider.restore(agreed.checkpoint());
            self.pending_deliveries
                .push(DeliveryEvent::InstallCheckpoint(agreed.checkpoint().clone()));
            for m in agreed.messages() {
                self.pending_deliveries
                    .push(DeliveryEvent::Deliver(m.clone()));
            }
            self.complete_state_transfer(round, ctx);
        } else if round > self.gossip_k {
            self.gossip_k = round;
        }
        self.try_advance(ctx);
    }

    /// Shared epilogue of both state-transfer paths, run after the local
    /// queue was updated: jump past the transferred rounds, refresh the
    /// watermark and the pending set, count the transfer and persist the
    /// new state.
    fn complete_state_transfer(&mut self, round: Round, ctx: &mut dyn ActorContext<AbcastMsg>) {
        let skipped = round.next().value() - self.kp.value();
        self.kp = round.next();
        // Buffered decisions for jumped-over rounds are covered by the
        // transferred state; applying them now would be out of order.  The
        // same goes for our own still-undecided instances down there: the
        // transfer proves those rounds decided globally, and with peers
        // dropping traffic below their forget watermark the instances
        // would otherwise query forever without an answer.
        self.decisions.drop_below(self.kp);
        self.consensus.abandon_undecided_below(self.kp);
        self.note_watermark();
        self.unordered.subtract_agreed(&self.agreed);
        self.metrics.state_transfers_applied += 1;
        self.metrics.skipped_rounds += skipped;
        if self.config.logging.logs_agreed() {
            self.persist_agreed(ctx);
        }
        // Move the forget watermark (and the record cleanup) up right away
        // instead of waiting for the next checkpoint tick.  The watermark
        // lands at `kp − retention`, not at `kp`: jumped rounds inside the
        // retention window can still be lazily recreated by late traffic,
        // but that residue is bounded by the window and reclaimed once the
        // cutoff passes it (`abandon_undecided_below` in the discard).
        self.discard_old_consensus_records(ctx);
    }

    /// Applies a suffix state transfer: the missing part of the canonical
    /// delivery sequence, appended in order on top of the local prefix.
    ///
    /// The suffix only applies when the local queue holds *exactly* the
    /// prefix the sender assumed (`from_count` delivered messages) — the
    /// delivery sequence up to a round is deterministic, so equal counts
    /// mean equal prefixes.  Anything else falls back to noting the
    /// de-synchronisation, which keeps gossip retrying until a matching
    /// suffix or a full snapshot arrives.
    fn on_state_suffix(
        &mut self,
        round: Round,
        from_count: u64,
        messages: Vec<AppMessage>,
        ctx: &mut dyn ActorContext<AbcastMsg>,
    ) {
        let Some(delta) = self.config.recovery.delta() else {
            return; // basic protocol: state messages are not part of it
        };
        if self.kp.value() + delta <= round.value()
            && self.agreed.total_delivered() == from_count
        {
            // Like a full snapshot, the installed messages count as
            // adopted, not as local deliveries (`delivered_total` stays
            // untouched); unlike a snapshot, they extend the local prefix
            // in place, so plain Deliver events suffice and the appended
            // tail persists as one delta record in the shared epilogue.
            let newly = self.agreed.append_in_order(&messages);
            for m in &newly {
                self.pending_deliveries.push(DeliveryEvent::Deliver(m.clone()));
            }
            self.metrics.suffix_transfers_applied += 1;
            self.complete_state_transfer(round, ctx);
        } else if round > self.gossip_k {
            self.gossip_k = round;
        }
        self.try_advance(ctx);
    }

    fn run_checkpoint_task(&mut self, ctx: &mut dyn ActorContext<AbcastMsg>) {
        // Persist *before* compacting: this keeps the delta invariant (all
        // unpersisted messages are the tail of the explicit queue), so the
        // periodic checkpoint writes O(messages since last checkpoint)
        // instead of cloning and rewriting the whole agreed sequence.  The
        // compaction that follows is volatile-state-only bookkeeping; its
        // effect reaches stable storage with the next full snapshot.
        if self.config.logging.logs_agreed() {
            self.persist_agreed(ctx);
        }
        if self.config.application_checkpoints {
            // Figure 4 line (b): Agreed ← (A-checkpoint(Agreed), VC(Agreed)).
            let pre_compact: Vec<MsgId> =
                self.agreed.messages().iter().map(AppMessage::id).collect();
            let covered = self.agreed.compact(Payload::new());
            if !covered.is_empty() {
                // If compaction covered anything other than the
                // delivery-order prefix of the explicit queue, positions no
                // longer map onto the explicit tail: raise the suffix
                // floor so state replies below it use the full snapshot.
                let covered_a_prefix = covered
                    .iter()
                    .map(AppMessage::id)
                    .eq(pre_compact.iter().copied().take(covered.len()));
                if !covered_a_prefix {
                    self.suffix_floor = self.agreed.total_delivered();
                }
                let state = self.checkpoint_provider.checkpoint(&covered);
                self.agreed.set_checkpoint_state(state);
                self.metrics.app_checkpoints_taken += 1;
            }
            // Figure 4 line (c): Proposed_p[i], i < k_p can be discarded
            // from the log, and so can the per-instance consensus records.
            self.discard_old_consensus_records(ctx);
            // The logged Unordered set can likewise be truncated to the
            // messages that are still pending: everything delivered is now
            // covered by the (k, Agreed) record or the application
            // checkpoint.
            if self.config.logging.logs_unordered() {
                let _ = ctx.storage().remove(&keys::unordered_incremental());
                self.unordered_logger.forget();
                self.persist_unordered(ctx);
            }
        }
        // Advisory GC hint for the storage backend: everything at or below
        // `persisted_round` is now covered by the durable `(k, Agreed)`
        // image, so log records from earlier rounds are dead weight.  The
        // segmented WAL uses this to schedule background compaction; other
        // backends ignore it.
        ctx.storage().note_checkpoint(self.persisted_round);
    }

    fn discard_old_consensus_records(&mut self, ctx: &mut dyn ActorContext<AbcastMsg>) {
        // Old instances may only be discarded if a lagging peer has another
        // way to obtain their outcome — the state transfer of Section 5.3.
        // Without state transfer every instance must stay answerable, so
        // nothing is discarded.
        let Some(delta) = self.config.recovery.delta() else {
            return;
        };
        // Keep a window of recent instances around even though we have
        // delivered them: peers that are at most Δ rounds behind catch up by
        // re-running those instances (the paper's replay path) rather than
        // through a state transfer, so their decisions must stay answerable.
        // Anything older is only reachable through a state transfer, which
        // the gossip handler provides.
        let retention = delta + 4;
        // Write-ahead bound: a round's consensus records may only be
        // discarded once the `(k, Agreed)` image covering it is durable
        // (Figure 4 line *c* runs *after* line *b*'s checkpoint).  `kp`
        // alone is not enough — recovery rebuilds rounds beyond the logged
        // checkpoint by replaying `decided` records, so until the next
        // agreed checkpoint those records ARE the durable copy of the
        // delivery sequence; discarding them and crashing would roll the
        // recovered sequence back behind rounds the process already settled
        // (and re-running consensus for such a round can split the cluster).
        let cutoff = Round::new(
            self.kp
                .value()
                .saturating_sub(retention)
                .min(self.persisted_round.value()),
        );
        self.consensus.forget_decided_below(cutoff, ctx.storage());
        // Below the cutoff, *undecided* instances can only be zombies —
        // rounds below `kp` are committed, hence decided globally; a
        // proposal-less instance there was resurrected by late traffic
        // that slipped in above the previous watermark (the drop guard
        // exempts tracked instances, and `forget_decided_below` retains
        // undecided ones, so nothing else ever reclaims them).
        self.consensus.abandon_undecided_below(cutoff);
        match ctx.storage().keys() {
            Ok(stored) => {
                for key in stored {
                    if let Some(instance) = keys::parse_consensus_instance(&key) {
                        if instance < cutoff {
                            // Staged removal; durability settled by the
                            // step commit.
                            let _ = ctx.storage().remove(&key);
                        }
                    }
                }
            }
            // A failed key scan means the disk is unreliable: skipping the
            // GC would be safe, but a half-trusted storage is not — apply
            // the same fail-stop discipline as every other read error.
            Err(e) => self.halt_on_storage_failure("consensus GC key scan", &e),
        }
    }
}

impl AtomicBroadcast {
    /// `on_start` body; runs under a batching scope (see [`Actor::on_start`]).
    fn start_step(&mut self, ctx: &mut dyn ActorContext<AbcastMsg>) {
        // Volatile bookkeeping of the incremental logger is lost on crash.
        self.unordered_logger.forget();

        let consensus_recovery = {
            let mut consensus_ctx =
                MappedContext::new(ctx, AbcastMsg::Consensus, CONSENSUS_TIMER_BASE);
            self.consensus.on_start(&mut consensus_ctx)
        };
        if let Err(e) = consensus_recovery {
            self.halt_on_storage_failure("consensus recovery", &e);
            return;
        }

        if let Err(e) = self.recover_state(ctx) {
            self.halt_on_storage_failure("state recovery", &e);
            return;
        }
        // The forget watermark is volatile: without re-deriving it from the
        // recovered round, stale traffic arriving before the first
        // checkpoint tick could resurrect long-forgotten instances (the
        // window the watermark exists to close).  The discard is also
        // idempotent over the storage records, so replaying it is free.
        self.discard_old_consensus_records(ctx);
        // Consensus recovery rebuilds every instance that still has
        // records — including proposals a pre-crash state transfer jumped
        // over (abandonment is in-memory; the records go with the next
        // checkpoint's discard).  Every round below the recovered `kp` is
        // committed, hence decided globally: rebuilt *undecided* instances
        // down there are zombies and are abandoned again.
        self.consensus.abandon_undecided_below(self.kp);
        ctx.set_timer(GOSSIP_TIMER, self.config.timers.gossip_period);
        if self.config.logging.logs_agreed() || self.config.application_checkpoints {
            ctx.set_timer(CHECKPOINT_TIMER, self.config.timers.checkpoint_period);
        }
        self.try_advance(ctx);
    }

    /// `on_message` body; runs under a batching scope.
    fn message_step(
        &mut self,
        from: ProcessId,
        msg: AbcastMsg,
        ctx: &mut dyn ActorContext<AbcastMsg>,
    ) {
        match msg {
            AbcastMsg::Gossip { round, unordered } => self.on_gossip(from, round, unordered, ctx),
            AbcastMsg::State { round, agreed } => self.on_state(round, agreed, ctx),
            AbcastMsg::StateSuffix {
                round,
                from_count,
                messages,
            } => self.on_state_suffix(round, from_count, messages, ctx),
            AbcastMsg::Consensus(inner) => {
                let events = {
                    let mut consensus_ctx =
                        MappedContext::new(ctx, AbcastMsg::Consensus, CONSENSUS_TIMER_BASE);
                    self.consensus.on_message(from, inner, &mut consensus_ctx)
                };
                // Decisions are not committed here: they park in the
                // reorder buffer and `try_advance` applies them strictly
                // in round order.
                self.buffer_decisions(events);
                self.try_advance(ctx);
            }
        }
    }

    /// `on_timer` body; runs under a batching scope.
    fn timer_step(&mut self, timer: TimerId, ctx: &mut dyn ActorContext<AbcastMsg>) {
        if timer == GOSSIP_TIMER {
            // Task gossip: repeat forever multisend gossip(k_p, Unordered_p).
            ctx.multisend(AbcastMsg::Gossip {
                round: self.kp,
                unordered: self.unordered.to_batch(),
            });
            ctx.set_timer(GOSSIP_TIMER, self.config.timers.gossip_period);
            return;
        }
        if timer == CHECKPOINT_TIMER {
            self.run_checkpoint_task(ctx);
            ctx.set_timer(CHECKPOINT_TIMER, self.config.timers.checkpoint_period);
            return;
        }
        if timer.raw() >= CONSENSUS_TIMER_BASE
            && timer.raw() < CONSENSUS_TIMER_BASE + CONSENSUS_TIMER_SPAN
        {
            let inner = TimerId::new(timer.raw() - CONSENSUS_TIMER_BASE);
            let (_, events) = {
                let mut consensus_ctx =
                    MappedContext::new(ctx, AbcastMsg::Consensus, CONSENSUS_TIMER_BASE);
                self.consensus.on_timer(inner, &mut consensus_ctx)
            };
            self.buffer_decisions(events);
            self.try_advance(ctx);
        }
    }
}

/// Every handler runs under [`run_step_checked`]: all stable-storage writes
/// of one event-handling step are committed with a single durability
/// barrier, and outgoing messages are released only after that commit —
/// one fsync per step instead of one per logged variable, with the
/// write-ahead ordering the protocol's recovery argument depends on.  (A
/// runtime may nest many steps in one enclosing scope — the socket worker
/// does, per drained group — and then that scope pays the barrier.)  A
/// failed commit suppresses the step's messages and fail-stops the process
/// (see [`AtomicBroadcast::is_halted`]); a halted process ignores every
/// subsequent event until it is crashed and recovered.
impl Actor for AtomicBroadcast {
    type Msg = AbcastMsg;

    fn on_start(&mut self, ctx: &mut dyn ActorContext<AbcastMsg>) {
        let ((), commit) = run_step_checked(ctx, |ctx| self.start_step(ctx));
        self.note_commit(commit);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: AbcastMsg,
        ctx: &mut dyn ActorContext<AbcastMsg>,
    ) {
        if self.halted {
            return;
        }
        let ((), commit) = run_step_checked(ctx, |ctx| self.message_step(from, msg, ctx));
        self.note_commit(commit);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn ActorContext<AbcastMsg>) {
        if self.halted {
            return;
        }
        let ((), commit) = run_step_checked(ctx, |ctx| self.timer_step(timer, ctx));
        self.note_commit(commit);
    }

    fn on_client_request(&mut self, payload: Bytes, ctx: &mut dyn ActorContext<AbcastMsg>) {
        if self.halted {
            return;
        }
        self.a_broadcast(payload, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast_consensus::{ConsensusMsg, InstanceMsg};
    use abcast_net::testkit::ScriptedContext;
    use abcast_types::{BatchingPolicy, SimDuration};

    type Ctx = ScriptedContext<AbcastMsg>;

    fn ctx_for(me: u32, n: usize) -> Ctx {
        ScriptedContext::new(ProcessId::new(me), n)
    }

    fn basic_actor() -> AtomicBroadcast {
        AtomicBroadcast::basic()
    }

    /// Basic protocol with one message per round (`max_batch = 1`) and the
    /// given pipeline depth, so each broadcast opens its own instance.
    fn pipelined_actor(depth: u64) -> AtomicBroadcast {
        AtomicBroadcast::new(
            ProtocolConfig::basic()
                .with_batching(BatchingPolicy::EarlyReturn { max_batch: 1 })
                .with_pipeline_depth(depth),
            abcast_consensus::ConsensusConfig::crash_recovery(),
        )
    }

    fn alternative_actor() -> AtomicBroadcast {
        AtomicBroadcast::new(
            ProtocolConfig::alternative().with_delta(3),
            abcast_consensus::ConsensusConfig::crash_recovery(),
        )
    }

    fn decided(round: u64, batch: Batch) -> AbcastMsg {
        AbcastMsg::Consensus(ConsensusMsg::instance(
            Round::new(round),
            InstanceMsg::Decided { value: batch },
        ))
    }

    #[test]
    fn on_start_arms_the_gossip_task() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = basic_actor();
        actor.on_start(&mut ctx);
        assert!(
            ctx.timer_deadline(GOSSIP_TIMER).is_some(),
            "gossip task must be armed"
        );
        // The basic protocol has no checkpoint task.
        assert!(ctx.timer_deadline(CHECKPOINT_TIMER).is_none());
        assert_eq!(actor.round(), Round::ZERO);
    }

    #[test]
    fn alternative_protocol_arms_the_checkpoint_task_too() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor();
        actor.on_start(&mut ctx);
        assert!(ctx.timer_deadline(CHECKPOINT_TIMER).is_some());
    }

    #[test]
    fn gossip_timer_multisends_round_and_unordered_set() {
        let mut ctx = ctx_for(1, 3);
        let mut actor = basic_actor();
        actor.on_start(&mut ctx);
        let id = actor.a_broadcast(b"hello".to_vec(), &mut ctx);
        ctx.clear_effects();
        actor.on_timer(GOSSIP_TIMER, &mut ctx);
        let gossip = ctx
            .multisent
            .iter()
            .find(|m| m.is_gossip())
            .expect("gossip must be multisent");
        match gossip {
            AbcastMsg::Gossip { round, unordered } => {
                assert_eq!(*round, Round::ZERO);
                assert_eq!(unordered.len(), 1);
                assert_eq!(unordered[0].id(), id);
            }
            _ => unreachable!(),
        }
        // The task re-arms itself ("repeat forever").
        assert!(ctx.timer_deadline(GOSSIP_TIMER).is_some());
    }

    #[test]
    fn a_broadcast_in_basic_mode_logs_nothing_at_the_broadcast_layer() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = basic_actor();
        actor.on_start(&mut ctx);
        let before = ctx.storage().metrics().snapshot();
        actor.a_broadcast(b"m".to_vec(), &mut ctx);
        let delta = ctx.storage().metrics().snapshot().since(&before);
        // One write for the broadcast-epoch slot (identity management),
        // one for the consensus proposal, and one for the coordinator's
        // self-promise at ballot issuance (the durable issued-ballot
        // watermark); nothing else.
        assert!(
            delta.write_ops() <= 3,
            "basic A-broadcast wrote {} times",
            delta.write_ops()
        );
        assert_eq!(actor.unordered_len(), 1);
        assert_eq!(actor.metrics().broadcasts, 1);
    }

    #[test]
    fn a_broadcast_in_alternative_mode_persists_the_unordered_set() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor();
        actor.on_start(&mut ctx);
        // Round 0 never decides here, so the set only grows.  Each
        // A-broadcast must append one record holding just its own message;
        // rewriting the whole set would put every earlier message in it.
        let mut ids = Vec::new();
        for i in 0..5u8 {
            ids.push(actor.a_broadcast(vec![i], &mut ctx));
            let logged: Vec<Vec<AppMessage>> = ctx
                .storage()
                .load_log_values(&keys::unordered_incremental())
                .unwrap();
            assert_eq!(logged.len(), ids.len(), "one record per A-broadcast");
            let newest: Vec<MsgId> = logged[ids.len() - 1].iter().map(AppMessage::id).collect();
            assert_eq!(newest, ids[ids.len() - 1..], "the record holds only the new message");
        }
        assert_eq!(actor.round(), Round::ZERO, "round 0 is still in flight");
        assert_eq!(actor.unordered_len(), ids.len());
    }

    #[test]
    fn message_identities_are_unique_across_a_crash_without_unordered_logging() {
        // Basic protocol: identity safety comes from the persistent
        // broadcast epoch.
        let mut ctx = ctx_for(0, 3);
        let mut actor = basic_actor();
        actor.on_start(&mut ctx);
        let first = actor.a_broadcast(b"1".to_vec(), &mut ctx);

        // Crash: fresh actor over the same storage.
        let mut recovered = basic_actor();
        let mut ctx2: Ctx = ScriptedContext::new(ProcessId::new(0), 3)
            .with_storage(ctx.storage_handle());
        recovered.on_start(&mut ctx2);
        let second = recovered.a_broadcast(b"2".to_vec(), &mut ctx2);
        assert_ne!(first, second, "identities must never repeat");
        assert!(second.seq > first.seq);
    }

    #[test]
    fn a_decision_for_the_current_round_commits_and_advances() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = basic_actor();
        actor.on_start(&mut ctx);
        let m = AppMessage::from_parts(ProcessId::new(2), 0, b"x".to_vec());
        actor.on_message(ProcessId::new(2), decided(0, vec![m.clone()]), &mut ctx);
        assert_eq!(actor.round(), Round::new(1));
        assert!(actor.is_delivered(m.id()));
        assert_eq!(actor.delivered_messages().len(), 1);
        let events = actor.take_deliveries();
        assert_eq!(events.len(), 1);
        assert!(matches!(&events[0], DeliveryEvent::Deliver(d) if d.id() == m.id()));
        // Draining twice yields nothing new.
        assert!(actor.take_deliveries().is_empty());
    }

    #[test]
    fn out_of_order_decisions_are_committed_strictly_in_round_order() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = basic_actor();
        actor.on_start(&mut ctx);
        let m0 = AppMessage::from_parts(ProcessId::new(1), 0, b"a".to_vec());
        let m1 = AppMessage::from_parts(ProcessId::new(1), 1, b"b".to_vec());
        // Round 1 decides before round 0 is known locally.
        actor.on_message(ProcessId::new(1), decided(1, vec![m1.clone()]), &mut ctx);
        assert_eq!(actor.round(), Round::ZERO, "must wait for round 0");
        assert!(!actor.is_delivered(m1.id()));
        actor.on_message(ProcessId::new(1), decided(0, vec![m0.clone()]), &mut ctx);
        assert_eq!(actor.round(), Round::new(2));
        let order: Vec<MsgId> = actor.delivered_messages().iter().map(AppMessage::id).collect();
        assert_eq!(order, vec![m0.id(), m1.id()]);
    }

    #[test]
    fn pipelined_sequencer_opens_at_most_w_rounds_concurrently() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = pipelined_actor(3);
        actor.on_start(&mut ctx);
        for i in 0..5u8 {
            actor.a_broadcast(vec![i], &mut ctx);
        }
        // Five messages pending at one per round: exactly W = 3 instances
        // are open, the rest wait for the window to move.
        for k in 0..3u64 {
            assert!(actor.has_proposed(Round::new(k)), "round {k} must be open");
        }
        assert!(!actor.has_proposed(Round::new(3)), "window is bounded by W");
        assert_eq!(actor.rounds_in_flight(), 3);
        assert_eq!(actor.metrics().max_rounds_in_flight, 3);
        assert_eq!(actor.round(), Round::ZERO, "nothing committed yet");
    }

    #[test]
    fn depth_one_keeps_the_sequential_one_round_window() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = pipelined_actor(1);
        actor.on_start(&mut ctx);
        for i in 0..3u8 {
            actor.a_broadcast(vec![i], &mut ctx);
        }
        assert!(actor.has_proposed(Round::ZERO));
        assert!(!actor.has_proposed(Round::new(1)), "W = 1 never runs ahead");
        assert_eq!(actor.rounds_in_flight(), 1);
        assert_eq!(actor.metrics().max_rounds_in_flight, 1);
    }

    #[test]
    fn pipelined_decisions_commit_strictly_in_round_order() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = pipelined_actor(4);
        actor.on_start(&mut ctx);
        let m0 = AppMessage::from_parts(ProcessId::new(1), 0, b"a".to_vec());
        let m1 = AppMessage::from_parts(ProcessId::new(1), 1, b"b".to_vec());
        let m2 = AppMessage::from_parts(ProcessId::new(1), 2, b"c".to_vec());
        // Rounds 2 and 1 decide before round 0: both park in the reorder
        // buffer, nothing is applied.
        actor.on_message(ProcessId::new(1), decided(2, vec![m2.clone()]), &mut ctx);
        actor.on_message(ProcessId::new(1), decided(1, vec![m1.clone()]), &mut ctx);
        assert_eq!(actor.round(), Round::ZERO);
        assert!(actor.delivered_messages().is_empty());
        assert_eq!(actor.rounds_in_flight(), 2, "two decisions parked");
        // Round 0 decides: all three batches apply, strictly by round.
        actor.on_message(ProcessId::new(1), decided(0, vec![m0.clone()]), &mut ctx);
        assert_eq!(actor.round(), Round::new(3));
        let order: Vec<MsgId> = actor.delivered_messages().iter().map(AppMessage::id).collect();
        assert_eq!(order, vec![m0.id(), m1.id(), m2.id()]);
    }

    #[test]
    fn pipelined_rounds_do_not_propose_the_same_message_twice() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = pipelined_actor(3);
        actor.on_start(&mut ctx);
        let a = actor.a_broadcast(b"a".to_vec(), &mut ctx);
        let b = actor.a_broadcast(b"b".to_vec(), &mut ctx);
        // Rounds 0 and 1 are open, each carrying one distinct message: the
        // deeper round must exclude what round 0 already carries.
        assert!(actor.has_proposed(Round::ZERO) && actor.has_proposed(Round::new(1)));
        assert!(!actor.has_proposed(Round::new(2)), "nothing left to order");
        // Committing both rounds delivers each message exactly once
        // (Integrity), in round order.
        actor.on_message(
            ProcessId::new(1),
            decided(0, vec![AppMessage::new(a, Payload::from_static(b"a"))]),
            &mut ctx,
        );
        actor.on_message(
            ProcessId::new(1),
            decided(1, vec![AppMessage::new(b, Payload::from_static(b"b"))]),
            &mut ctx,
        );
        let order: Vec<MsgId> = actor.delivered_messages().iter().map(AppMessage::id).collect();
        assert_eq!(order, vec![a, b]);
        assert_eq!(actor.metrics().delivered_total, 2);
    }

    #[test]
    fn a_learned_decision_blocks_proposing_into_that_round() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = pipelined_actor(3);
        actor.on_start(&mut ctx);
        // Round 1 decides on a peer's batch before this process proposed
        // anything at all (it learned the decision through gossip while
        // round 0 is still open).
        let peer = AppMessage::from_parts(ProcessId::new(1), 0, b"peer".to_vec());
        actor.on_message(ProcessId::new(1), decided(1, vec![peer]), &mut ctx);
        // Local messages now open the window around the decided round,
        // which must not receive a (pointless, logged) proposal.
        actor.a_broadcast(b"a".to_vec(), &mut ctx);
        actor.a_broadcast(b"b".to_vec(), &mut ctx);
        assert!(actor.has_proposed(Round::ZERO));
        assert!(
            !actor.has_proposed(Round::new(1)),
            "a decided round must not be proposed into"
        );
        let stored: Option<Batch> = ctx
            .storage()
            .load_value(&keys::consensus_proposal(Round::new(1)))
            .unwrap();
        assert!(stored.is_none(), "no proposal record logged for the decided round");
        assert!(actor.has_proposed(Round::new(2)), "the window still fills past it");
    }

    #[test]
    fn state_transfer_abandons_jumped_in_flight_rounds() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = AtomicBroadcast::new(
            ProtocolConfig::alternative()
                .with_delta(3)
                .with_batching(BatchingPolicy::EarlyReturn { max_batch: 1 })
                .with_pipeline_depth(4),
            abcast_consensus::ConsensusConfig::crash_recovery(),
        );
        actor.on_start(&mut ctx);
        for i in 0..3u8 {
            actor.a_broadcast(vec![i], &mut ctx);
        }
        assert_eq!(actor.rounds_in_flight(), 3);
        // A peer far ahead ships its state: the transferred queue already
        // contains our messages (ordered by someone else), and the jump
        // passes our in-flight proposals.  Those instances can never
        // decide locally any more (peers forgot the rounds), so they must
        // be abandoned, not left querying forever.
        let mut remote = AgreedQueue::new();
        let msgs: Vec<AppMessage> = (0..3u64)
            .map(|i| AppMessage::from_parts(ProcessId::new(0), i, vec![i as u8]))
            .collect();
        remote.append_batch(&msgs);
        actor.on_message(
            ProcessId::new(1),
            AbcastMsg::State { round: Round::new(9), agreed: remote },
            &mut ctx,
        );
        assert_eq!(actor.round(), Round::new(10));
        assert_eq!(
            actor.rounds_in_flight(),
            0,
            "no zombie instances for the jumped-over rounds"
        );

        // Abandonment is in-memory and the jumped proposals' records are
        // still on storage (the next checkpoint would discard them): a
        // crash right here must not resurrect the zombies on recovery.
        let mut recovered = AtomicBroadcast::new(
            ProtocolConfig::alternative()
                .with_delta(3)
                .with_batching(BatchingPolicy::EarlyReturn { max_batch: 1 })
                .with_pipeline_depth(4),
            abcast_consensus::ConsensusConfig::crash_recovery(),
        );
        let mut ctx2: Ctx =
            ScriptedContext::new(ProcessId::new(0), 3).with_storage(ctx.storage_handle());
        recovered.on_start(&mut ctx2);
        assert_eq!(recovered.round(), Round::new(10));
        assert_eq!(
            recovered.rounds_in_flight(),
            0,
            "recovery must not rebuild the jumped-over undecided instances"
        );
    }

    #[test]
    fn recovery_reestablishes_the_forget_watermark() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor(); // delta = 3, retention = 7
        actor.on_start(&mut ctx);
        for k in 0..12u64 {
            let m = AppMessage::from_parts(ProcessId::new(1), k, vec![k as u8]);
            actor.on_message(ProcessId::new(1), decided(k, vec![m]), &mut ctx);
        }
        // Checkpoint: persists (12, Agreed) and forgets rounds below 5.
        actor.on_timer(CHECKPOINT_TIMER, &mut ctx);

        // Crash and recover over the same storage.
        let mut recovered = alternative_actor();
        let mut ctx2: Ctx =
            ScriptedContext::new(ProcessId::new(0), 3).with_storage(ctx.storage_handle());
        recovered.on_start(&mut ctx2);
        assert_eq!(recovered.round(), Round::new(12));
        let before = recovered.consensus_instance_count();
        // Stale duplicate for a long-forgotten round, arriving before any
        // checkpoint tick has run on the recovered process: the watermark
        // must already be re-derived from the recovered round (it is
        // volatile, and pre-fix this window resurrected instances).
        let stale = AppMessage::from_parts(ProcessId::new(2), 7, b"stale".to_vec());
        recovered.on_message(ProcessId::new(1), decided(1, vec![stale.clone()]), &mut ctx2);
        assert_eq!(
            recovered.consensus_instance_count(),
            before,
            "stale traffic must not resurrect a forgotten instance after recovery"
        );
        assert!(!recovered.is_delivered(stale.id()));
    }

    /// Fuzz regression (sim_fuzz seed 88): the consensus-record GC used to
    /// take its cutoff from `kp` alone.  Recovery extends `kp` past the
    /// logged agreed image by replaying durable `decided` records — until
    /// the next agreed checkpoint those records ARE the durable copy of
    /// the delivery sequence, and the boot-step GC deleted the very
    /// records it had just replayed.  A second crash then rolled the
    /// recovered sequence back behind rounds the process had already
    /// settled, and re-proposing to such a round could split the cluster
    /// (two decisions for one instance).  The cutoff is now bounded by
    /// `persisted_round`: records survive until the `(k, Agreed)` image
    /// covering them is durable (Figure 4 line *c* after line *b*).
    #[test]
    fn gc_retains_decided_records_until_the_agreed_image_covers_them() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor(); // delta = 3, retention = 7
        actor.on_start(&mut ctx);
        // Deliver 20 rounds without ever running the checkpoint task: the
        // decided records are the only durable copy of the sequence.
        for k in 0..20u64 {
            let m = AppMessage::from_parts(ProcessId::new(1), k, vec![k as u8]);
            actor.on_message(ProcessId::new(1), decided(k, vec![m]), &mut ctx);
        }
        assert_eq!(actor.round(), Round::new(20));

        // First crash/recovery: the replay loop rebuilds kp = 20 from the
        // decided records, and the boot-step GC must keep all of them —
        // the agreed image on disk covers nothing yet.
        let mut recovered = alternative_actor();
        let mut ctx2: Ctx =
            ScriptedContext::new(ProcessId::new(0), 3).with_storage(ctx.storage_handle());
        recovered.on_start(&mut ctx2);
        assert_eq!(recovered.round(), Round::new(20));
        let stored = ctx2.storage().keys().unwrap();
        assert!(
            stored.contains(&keys::consensus_decided(Round::ZERO)),
            "boot-step GC discarded a decided record not yet covered by an agreed image"
        );

        // Second crash/recovery over the same storage: pre-fix, the first
        // boot's GC had deleted the records below `kp - retention` and the
        // recovered sequence regressed to the logged image (round 0 here).
        let mut recovered2 = alternative_actor();
        let mut ctx3: Ctx =
            ScriptedContext::new(ProcessId::new(0), 3).with_storage(ctx2.storage_handle());
        recovered2.on_start(&mut ctx3);
        assert_eq!(
            recovered2.round(),
            Round::new(20),
            "recovered round regressed: GC outran the agreed checkpoint"
        );

        // Once the checkpoint task persists the (20, Agreed) image the GC
        // may discard old records as usual — and recovery still lands on
        // round 20, now from the image instead of the replay.
        recovered2.on_timer(CHECKPOINT_TIMER, &mut ctx3);
        let stored = ctx3.storage().keys().unwrap();
        assert!(
            !stored.contains(&keys::consensus_decided(Round::ZERO)),
            "post-checkpoint GC should discard records the agreed image covers"
        );
        let mut recovered3 = alternative_actor();
        let mut ctx4: Ctx =
            ScriptedContext::new(ProcessId::new(0), 3).with_storage(ctx3.storage_handle());
        recovered3.on_start(&mut ctx4);
        assert_eq!(recovered3.round(), Round::new(20));
    }

    #[test]
    fn committing_multiple_pipelined_rounds_pays_one_barrier() {
        // With W > 1 a single incoming message can release several parked
        // rounds at once, and the freed window slots open new rounds; the
        // whole step (the decision record, the commits and one proposal per
        // newly opened round) must still run under one durability barrier.
        let mut ctx = ctx_for(0, 3);
        let mut actor = AtomicBroadcast::new(
            ProtocolConfig::alternative()
                .with_batching(BatchingPolicy::EarlyReturn { max_batch: 1 })
                .with_pipeline_depth(4),
            abcast_consensus::ConsensusConfig::crash_recovery(),
        );
        actor.on_start(&mut ctx);
        // Our own four messages fill the window: one proposal per round 0..4.
        for i in 0..4u8 {
            actor.a_broadcast(vec![i], &mut ctx);
        }
        let m0 = AppMessage::from_parts(ProcessId::new(1), 0, b"a".to_vec());
        let m1 = AppMessage::from_parts(ProcessId::new(1), 1, b"b".to_vec());
        let m2 = AppMessage::from_parts(ProcessId::new(1), 2, b"c".to_vec());
        actor.on_message(ProcessId::new(1), decided(1, vec![m1]), &mut ctx);
        actor.on_message(ProcessId::new(1), decided(2, vec![m2]), &mut ctx);
        assert_eq!(actor.round(), Round::ZERO);

        let before = ctx.storage().metrics().snapshot();
        actor.on_message(ProcessId::new(1), decided(0, vec![m0]), &mut ctx);
        let delta = ctx.storage().metrics().snapshot().since(&before);
        assert_eq!(actor.round(), Round::new(3), "three rounds committed");
        assert!(
            (4..7).all(|k| actor.has_proposed(Round::new(k))),
            "the three freed slots re-propose the messages the peer's rounds displaced"
        );
        assert!(
            delta.write_ops() >= 3,
            "the step writes per committed round (wrote {} times)",
            delta.write_ops()
        );
        assert_eq!(
            delta.sync_ops, 1,
            "all concurrently-released rounds share the step's one barrier"
        );
    }

    #[test]
    fn recovery_replays_every_in_flight_pipelined_round() {
        let config = || {
            ProtocolConfig::basic()
                .with_batching(BatchingPolicy::EarlyReturn { max_batch: 1 })
                .with_pipeline_depth(4)
        };
        let mut ctx = ctx_for(0, 3);
        let mut actor = AtomicBroadcast::new(
            config(),
            abcast_consensus::ConsensusConfig::crash_recovery(),
        );
        actor.on_start(&mut ctx);
        for i in 0..3u8 {
            actor.a_broadcast(vec![i], &mut ctx);
        }
        let m1 = AppMessage::from_parts(ProcessId::new(1), 1, b"r1".to_vec());
        let m2 = AppMessage::from_parts(ProcessId::new(1), 2, b"r2".to_vec());
        // Rounds 1 and 2 decide (and are logged by the consensus layer);
        // round 0 is still open, so nothing has committed.
        actor.on_message(ProcessId::new(1), decided(1, vec![m1.clone()]), &mut ctx);
        actor.on_message(ProcessId::new(1), decided(2, vec![m2.clone()]), &mut ctx);
        assert_eq!(actor.round(), Round::ZERO);

        // Crash with three rounds in flight; recover over the same storage.
        let mut recovered = AtomicBroadcast::new(
            config(),
            abcast_consensus::ConsensusConfig::crash_recovery(),
        );
        let mut ctx2: Ctx =
            ScriptedContext::new(ProcessId::new(0), 3).with_storage(ctx.storage_handle());
        recovered.on_start(&mut ctx2);
        // Every in-flight round was rebuilt from its per-instance records —
        // not just the lowest one.
        for k in 0..3u64 {
            assert!(
                recovered.has_proposed(Round::new(k)),
                "in-flight round {k} must be replayed after recovery"
            );
        }
        // Once round 0 decides, the relearned decisions of rounds 1 and 2
        // apply right behind it, in round order.
        let m0 = AppMessage::from_parts(ProcessId::new(1), 0, b"r0".to_vec());
        recovered.on_message(ProcessId::new(1), decided(0, vec![m0.clone()]), &mut ctx2);
        assert_eq!(recovered.round(), Round::new(3));
        let order: Vec<MsgId> =
            recovered.delivered_messages().iter().map(AppMessage::id).collect();
        assert_eq!(order, vec![m0.id(), m1.id(), m2.id()]);

        // A never-crashed sequential (W = 1) process fed the same decisions
        // produces the identical delivery sequence.
        let mut seq_ctx = ctx_for(0, 3);
        let mut sequential = basic_actor();
        sequential.on_start(&mut seq_ctx);
        sequential.on_message(ProcessId::new(1), decided(1, vec![m1]), &mut seq_ctx);
        sequential.on_message(ProcessId::new(1), decided(2, vec![m2]), &mut seq_ctx);
        sequential.on_message(ProcessId::new(1), decided(0, vec![m0]), &mut seq_ctx);
        assert_eq!(sequential.delivered_messages(), recovered.delivered_messages());
    }

    #[test]
    fn gossip_from_an_ahead_peer_raises_gossip_k_and_triggers_an_empty_proposal() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = basic_actor();
        actor.on_start(&mut ctx);
        ctx.clear_effects();
        actor.on_message(
            ProcessId::new(2),
            AbcastMsg::Gossip {
                round: Round::new(5),
                unordered: vec![],
            },
            &mut ctx,
        );
        // The sequencer proposes (an empty batch) for its current round so
        // it can learn the outcomes it missed.
        let proposed_or_queried = ctx
            .multisent
            .iter()
            .any(|m| matches!(m, AbcastMsg::Consensus(_)));
        assert!(proposed_or_queried, "must start catching up");
    }

    #[test]
    fn gossip_carries_messages_into_the_unordered_set_idempotently() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = basic_actor();
        actor.on_start(&mut ctx);
        let m = AppMessage::from_parts(ProcessId::new(2), 0, b"g".to_vec());
        let gossip = AbcastMsg::Gossip {
            round: Round::ZERO,
            unordered: vec![m.clone()],
        };
        actor.on_message(ProcessId::new(2), gossip.clone(), &mut ctx);
        actor.on_message(ProcessId::new(2), gossip, &mut ctx);
        assert_eq!(actor.unordered_len(), 1, "duplicates are eliminated");
    }

    #[test]
    fn far_behind_peer_receives_a_state_message() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor(); // delta = 3
        actor.on_start(&mut ctx);
        // Locally complete 5 rounds.
        for k in 0..5u64 {
            let m = AppMessage::from_parts(ProcessId::new(1), k, vec![k as u8]);
            actor.on_message(ProcessId::new(1), decided(k, vec![m]), &mut ctx);
        }
        assert_eq!(actor.round(), Round::new(5));
        ctx.clear_effects();
        // A peer gossips that it is still at round 0: 5 > 0 + 3 → state.
        actor.on_message(
            ProcessId::new(2),
            AbcastMsg::Gossip {
                round: Round::ZERO,
                unordered: vec![],
            },
            &mut ctx,
        );
        let state = ctx
            .sent
            .iter()
            .find(|(to, m)| *to == ProcessId::new(2) && m.is_state_transfer());
        assert!(state.is_some(), "a state message must be sent to the laggard");
        assert_eq!(actor.metrics().state_transfers_sent, 1);
        // The watermark for round 0 is trivially known (empty queue), so
        // the reply is the O(gap) suffix, not the full snapshot.
        assert!(matches!(
            state,
            Some((_, AbcastMsg::StateSuffix { from_count: 0, messages, .. })) if messages.len() == 5
        ));
        assert_eq!(actor.metrics().suffix_transfers_sent, 1);
    }

    #[test]
    fn slightly_behind_peer_does_not_receive_a_state_message() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor(); // delta = 3
        actor.on_start(&mut ctx);
        for k in 0..2u64 {
            let m = AppMessage::from_parts(ProcessId::new(1), k, vec![k as u8]);
            actor.on_message(ProcessId::new(1), decided(k, vec![m]), &mut ctx);
        }
        ctx.clear_effects();
        actor.on_message(
            ProcessId::new(2),
            AbcastMsg::Gossip {
                round: Round::ZERO,
                unordered: vec![],
            },
            &mut ctx,
        );
        assert!(ctx.sent.iter().all(|(_, m)| !m.is_state_transfer()));
        assert_eq!(actor.metrics().state_transfers_sent, 0);
    }

    #[test]
    fn applying_a_state_message_skips_rounds_and_installs_the_checkpoint() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor(); // delta = 3
        actor.on_start(&mut ctx);
        actor.take_deliveries();

        // Build the remote Agreed queue: 4 delivered messages, compacted.
        let mut remote = AgreedQueue::new();
        let msgs: Vec<AppMessage> = (0..4u64)
            .map(|i| AppMessage::from_parts(ProcessId::new(1), i, vec![i as u8]))
            .collect();
        remote.append_batch(&msgs);
        remote.compact(abcast_types::Payload::from_static(b"remote-state"));

        actor.on_message(
            ProcessId::new(1),
            AbcastMsg::State {
                round: Round::new(9),
                agreed: remote,
            },
            &mut ctx,
        );
        assert_eq!(actor.round(), Round::new(10), "rounds 0..=9 are skipped");
        assert_eq!(actor.metrics().state_transfers_applied, 1);
        assert_eq!(actor.metrics().skipped_rounds, 10);
        for m in &msgs {
            assert!(actor.is_delivered(m.id()));
        }
        let events = actor.take_deliveries();
        assert!(matches!(events.first(), Some(DeliveryEvent::InstallCheckpoint(cp)) if cp.state.as_ref() == b"remote-state"));
    }

    #[test]
    fn applying_a_suffix_state_message_extends_the_prefix_in_order() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor(); // delta = 3
        actor.on_start(&mut ctx);
        actor.take_deliveries();

        // A suffix whose canonical delivery order differs from identity
        // order: re-sorting it would break Total Order.
        let suffix = vec![
            AppMessage::from_parts(ProcessId::new(2), 7, b"a".to_vec()),
            AppMessage::from_parts(ProcessId::new(1), 0, b"b".to_vec()),
        ];
        actor.on_message(
            ProcessId::new(1),
            AbcastMsg::StateSuffix {
                round: Round::new(9),
                from_count: 0,
                messages: suffix.clone(),
            },
            &mut ctx,
        );
        assert_eq!(actor.round(), Round::new(10));
        assert_eq!(actor.metrics().state_transfers_applied, 1);
        assert_eq!(actor.metrics().suffix_transfers_applied, 1);
        let order: Vec<MsgId> = actor.delivered_messages().iter().map(AppMessage::id).collect();
        assert_eq!(order, vec![suffix[0].id(), suffix[1].id()], "sender order kept");
    }

    #[test]
    fn a_suffix_for_a_different_prefix_is_not_applied() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor(); // delta = 3
        actor.on_start(&mut ctx);
        // Locally deliver one message: total_delivered = 1.
        let m = AppMessage::from_parts(ProcessId::new(1), 0, b"x".to_vec());
        actor.on_message(ProcessId::new(1), decided(0, vec![m]), &mut ctx);

        // A suffix computed for an empty prefix must be rejected...
        actor.on_message(
            ProcessId::new(1),
            AbcastMsg::StateSuffix {
                round: Round::new(9),
                from_count: 0,
                messages: vec![AppMessage::from_parts(ProcessId::new(2), 0, b"y".to_vec())],
            },
            &mut ctx,
        );
        assert_eq!(actor.metrics().state_transfers_applied, 0);
        assert_eq!(actor.round(), Round::new(1), "rounds are not skipped");
        // ...but the de-synchronisation is noted, so the sequencer keeps
        // catching up (and future gossip will fetch a matching transfer).
        assert_eq!(actor.delivered_messages().len(), 1);
    }

    #[test]
    fn suffix_reply_carries_only_the_missing_messages() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor(); // delta = 3
        actor.on_start(&mut ctx);
        for k in 0..6u64 {
            let m = AppMessage::from_parts(ProcessId::new(1), k, vec![k as u8]);
            actor.on_message(ProcessId::new(1), decided(k, vec![m]), &mut ctx);
        }
        ctx.clear_effects();
        // A peer stuck at round 2 has delivered exactly 2 messages.
        actor.on_message(
            ProcessId::new(2),
            AbcastMsg::Gossip {
                round: Round::new(2),
                unordered: vec![],
            },
            &mut ctx,
        );
        let reply = ctx
            .sent
            .iter()
            .find(|(to, m)| *to == ProcessId::new(2) && m.is_state_transfer())
            .map(|(_, m)| m.clone())
            .expect("laggard must get a state transfer");
        match reply {
            AbcastMsg::StateSuffix {
                round,
                from_count,
                messages,
            } => {
                assert_eq!(round, Round::new(5));
                assert_eq!(from_count, 2);
                assert_eq!(messages.len(), 4, "only rounds 2..=5 are shipped");
            }
            other => panic!("expected a suffix transfer, got {other:?}"),
        }
    }

    #[test]
    fn suffix_is_not_served_across_a_compaction_hole() {
        // A compaction that covers a gap-closing message delivered *after*
        // a still-explicit out-of-order one breaks the position↔suffix
        // mapping; the reply must fall back to the full snapshot, or the
        // laggard would silently lose the compacted message.
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor(); // delta = 3, app checkpoints on
        actor.on_start(&mut ctx);

        // Round 0 delivers (p2, seq 1) — out of order, not compactable.
        let out_of_order = AppMessage::from_parts(ProcessId::new(2), 1, b"x".to_vec());
        actor.on_message(ProcessId::new(1), decided(0, vec![out_of_order.clone()]), &mut ctx);
        // Round 1 delivers (p1, seq 0) — gap-free, compactable.
        let compactable = AppMessage::from_parts(ProcessId::new(1), 0, b"y".to_vec());
        actor.on_message(ProcessId::new(1), decided(1, vec![compactable.clone()]), &mut ctx);
        // The checkpoint task compacts the later-delivered message while
        // the earlier one stays explicit: a hole.
        actor.on_timer(CHECKPOINT_TIMER, &mut ctx);
        assert!(actor.agreed().contains(compactable.id()));
        assert_eq!(actor.delivered_messages()[0].id(), out_of_order.id());

        // Race ahead so a peer at round 1 is more than Δ behind.
        for k in 2..7u64 {
            let m = AppMessage::from_parts(ProcessId::new(1), k - 1, vec![k as u8]);
            actor.on_message(ProcessId::new(1), decided(k, vec![m]), &mut ctx);
        }
        ctx.clear_effects();
        actor.on_message(
            ProcessId::new(2),
            AbcastMsg::Gossip {
                round: Round::new(1),
                unordered: vec![],
            },
            &mut ctx,
        );
        let reply = ctx
            .sent
            .iter()
            .find(|(to, m)| *to == ProcessId::new(2) && m.is_state_transfer())
            .map(|(_, m)| m.clone())
            .expect("laggard must get a state transfer");
        assert!(
            reply.is_state(),
            "a suffix across the compaction hole would drop {:?}; got {reply:?}",
            compactable.id()
        );
    }

    #[test]
    fn state_messages_are_ignored_by_the_basic_protocol() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = basic_actor();
        actor.on_start(&mut ctx);
        let mut remote = AgreedQueue::new();
        remote.append_batch(&[AppMessage::from_parts(ProcessId::new(1), 0, b"x".to_vec())]);
        actor.on_message(
            ProcessId::new(1),
            AbcastMsg::State {
                round: Round::new(9),
                agreed: remote,
            },
            &mut ctx,
        );
        assert_eq!(actor.round(), Round::ZERO);
        assert_eq!(actor.metrics().state_transfers_applied, 0);
    }

    /// Regression test: sampling checkpoint metrics before the first
    /// delivery used to be hazardous — the checkpoint task wrote a useless
    /// empty `(0, ∅)` snapshot, and byte-per-checkpoint summaries unwrapped
    /// the first/last sample of an empty series.  A checkpoint tick on a
    /// virgin process must be a no-op and the sampled series must stay
    /// empty-safe.
    #[test]
    fn checkpoint_task_before_any_delivery_is_a_no_op() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor();
        actor.on_start(&mut ctx);
        // Several checkpoint periods elapse before any message exists.
        for _ in 0..3 {
            actor.on_timer(CHECKPOINT_TIMER, &mut ctx);
        }
        assert_eq!(actor.metrics().agreed_checkpoints_logged, 0);
        assert_eq!(actor.metrics().agreed_snapshots_logged, 0);
        assert_eq!(actor.metrics().agreed_delta_records_logged, 0);
        let record: Option<(Round, AgreedQueue)> =
            ctx.storage().load_value(&keys::agreed_checkpoint()).unwrap();
        assert!(record.is_none(), "no empty checkpoint record is written");

        // The first *real* checkpoint after a delivery still snapshots.
        let m = AppMessage::from_parts(ProcessId::new(1), 0, b"x".to_vec());
        actor.on_message(ProcessId::new(1), decided(0, vec![m]), &mut ctx);
        actor.on_timer(CHECKPOINT_TIMER, &mut ctx);
        assert_eq!(actor.metrics().agreed_snapshots_logged, 1);
    }

    #[test]
    fn checkpoint_task_persists_round_and_agreed_queue() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor();
        actor.on_start(&mut ctx);
        let m = AppMessage::from_parts(ProcessId::new(1), 0, b"x".to_vec());
        actor.on_message(ProcessId::new(1), decided(0, vec![m.clone()]), &mut ctx);
        actor.on_timer(CHECKPOINT_TIMER, &mut ctx);

        let record: Option<(Round, AgreedQueue)> = ctx
            .storage()
            .load_value(&keys::agreed_checkpoint())
            .unwrap();
        let (round, agreed) = record.expect("checkpoint must be persisted");
        assert_eq!(round, Round::new(1));
        assert!(agreed.contains(m.id()));
        assert!(actor.metrics().agreed_checkpoints_logged >= 1);
        // The task re-arms itself.
        assert!(ctx.timer_deadline(CHECKPOINT_TIMER).is_some());
    }

    #[test]
    fn recovery_restores_round_agreed_and_application_state_from_the_checkpoint() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor();
        actor.on_start(&mut ctx);
        for k in 0..3u64 {
            let m = AppMessage::from_parts(ProcessId::new(1), k, vec![k as u8]);
            actor.on_message(ProcessId::new(1), decided(k, vec![m]), &mut ctx);
        }
        actor.on_timer(CHECKPOINT_TIMER, &mut ctx);
        assert_eq!(actor.round(), Round::new(3));

        // Crash: a fresh actor over the same storage.
        let mut recovered = alternative_actor();
        let mut ctx2: Ctx = ScriptedContext::new(ProcessId::new(0), 3)
            .with_storage(ctx.storage_handle());
        recovered.on_start(&mut ctx2);
        assert_eq!(recovered.round(), Round::new(3), "round restored from checkpoint");
        assert_eq!(recovered.agreed().total_delivered(), 3);
        let events = recovered.take_deliveries();
        assert!(
            events.iter().any(|e| matches!(e, DeliveryEvent::InstallCheckpoint(_)))
                || events.iter().any(|e| matches!(e, DeliveryEvent::Deliver(_))),
            "the application is rebuilt from the recovered sequence"
        );
    }

    #[test]
    fn checkpoints_write_deltas_not_the_whole_history() {
        // Disable application checkpoints so the explicit queue keeps the
        // whole history — the worst case for the seed's clone-and-rewrite
        // checkpoint — and use a large snapshot interval so every periodic
        // checkpoint is a delta record.
        let mut ctx = ctx_for(0, 3);
        let mut actor = AtomicBroadcast::new(
            ProtocolConfig::alternative()
                .with_delta(3)
                .with_application_checkpoints(false)
                .with_checkpoint_snapshot_every(100),
            abcast_consensus::ConsensusConfig::crash_recovery(),
        );
        actor.on_start(&mut ctx);

        let mut next_round = 0u64;
        let mut deliver_burst = |actor: &mut AtomicBroadcast, ctx: &mut Ctx, count: u64| {
            for _ in 0..count {
                let m = AppMessage::from_parts(
                    ProcessId::new(1),
                    next_round,
                    vec![0u8; 32],
                );
                actor.on_message(ProcessId::new(1), decided(next_round, vec![m]), ctx);
                next_round += 1;
            }
        };

        // First checkpoint: the mandatory full snapshot.
        deliver_burst(&mut actor, &mut ctx, 5);
        actor.on_timer(CHECKPOINT_TIMER, &mut ctx);
        assert_eq!(actor.metrics().agreed_snapshots_logged, 1);

        // Each further checkpoint covers 5 new messages while the history
        // keeps growing.  O(delta) means the bytes per checkpoint stay
        // flat; O(history) (the seed behaviour) would grow ~6x here.
        let mut checkpoint_bytes = Vec::new();
        for _ in 0..6 {
            deliver_burst(&mut actor, &mut ctx, 5);
            let before = ctx.storage().metrics().snapshot();
            actor.on_timer(CHECKPOINT_TIMER, &mut ctx);
            checkpoint_bytes.push(ctx.storage().metrics().snapshot().since(&before).bytes_written);
        }
        assert_eq!(actor.metrics().agreed_delta_records_logged, 6);
        // Guarded sampling: an empty series must fail the assertion, not
        // panic the harness (metrics can legitimately be sampled before
        // the first checkpoint).
        let (Some(&first), Some(&last)) = (checkpoint_bytes.first(), checkpoint_bytes.last())
        else {
            panic!("no checkpoint samples were collected");
        };
        let (first, last) = (first as f64, last as f64);
        assert!(
            last <= first * 1.5,
            "checkpoint bytes must be O(delta), not O(history): first {first}, last {last} \
             (all: {checkpoint_bytes:?})"
        );

        // And a delta checkpoint is far smaller than the full queue image.
        let full_size = actor.agreed().size_bytes() as f64;
        assert!(
            last < full_size / 3.0,
            "a delta record ({last} B) must be much smaller than the full queue ({full_size} B)"
        );
    }

    #[test]
    fn recovery_replays_snapshot_plus_delta_records_in_order() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = AtomicBroadcast::new(
            ProtocolConfig::alternative()
                .with_delta(3)
                .with_application_checkpoints(false)
                .with_checkpoint_snapshot_every(100),
            abcast_consensus::ConsensusConfig::crash_recovery(),
        );
        actor.on_start(&mut ctx);

        // Deliveries whose canonical order differs from identity order.
        let m0 = AppMessage::from_parts(ProcessId::new(2), 9, b"early".to_vec());
        let m1 = AppMessage::from_parts(ProcessId::new(1), 0, b"late".to_vec());
        actor.on_message(ProcessId::new(1), decided(0, vec![m0.clone()]), &mut ctx);
        actor.on_timer(CHECKPOINT_TIMER, &mut ctx); // snapshot
        actor.on_message(ProcessId::new(1), decided(1, vec![m1.clone()]), &mut ctx);
        actor.on_timer(CHECKPOINT_TIMER, &mut ctx); // delta record
        assert_eq!(actor.metrics().agreed_snapshots_logged, 1);
        assert_eq!(actor.metrics().agreed_delta_records_logged, 1);

        // Crash and recover over the same storage.
        let mut recovered = AtomicBroadcast::new(
            ProtocolConfig::alternative()
                .with_delta(3)
                .with_application_checkpoints(false)
                .with_checkpoint_snapshot_every(100),
            abcast_consensus::ConsensusConfig::crash_recovery(),
        );
        let mut ctx2: Ctx =
            ScriptedContext::new(ProcessId::new(0), 3).with_storage(ctx.storage_handle());
        recovered.on_start(&mut ctx2);
        assert_eq!(recovered.round(), Round::new(2));
        let order: Vec<MsgId> =
            recovered.delivered_messages().iter().map(AppMessage::id).collect();
        assert_eq!(order, vec![m0.id(), m1.id()], "delta replay keeps delivery order");
    }

    #[test]
    fn the_delta_chain_only_grows_while_smaller_than_a_snapshot() {
        // The alternative protocol compacts `Agreed` at every checkpoint,
        // so the snapshot is about one delta long: the byte rule may extend
        // the delta log only while it holds less than one snapshot's bytes
        // — across recoveries too — and the log must still replay exactly.
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor();
        actor.on_start(&mut ctx);
        let chain_bytes = |ctx: &Ctx| -> usize {
            let log = ctx.storage().load_log(&keys::agreed_delta()).unwrap();
            log.iter().map(|record| record.len()).sum()
        };
        let mut sequence: Vec<MsgId> = Vec::new();
        let mut next_seq = [0u64; 3];
        for checkpoint in 0..60u64 {
            if checkpoint == 25 || checkpoint == 40 {
                // Crash and recover: the chain's byte count must survive.
                actor = alternative_actor();
                actor.on_start(&mut ctx);
            }
            for _ in 0..checkpoint % 4 + 1 {
                let k = sequence.len() as u64;
                let sender = (k % 3) as usize;
                let m = AppMessage::from_parts(
                    ProcessId::new(sender as u32),
                    next_seq[sender],
                    vec![k as u8; 16 + (k % 7) as usize],
                );
                next_seq[sender] += 1;
                sequence.push(m.id());
                actor.on_message(ProcessId::new(1), decided(k, vec![m]), &mut ctx);
            }
            let snapshot_len = (actor.round(), actor.agreed()).encoded_len();
            let before = chain_bytes(&ctx);
            actor.on_timer(CHECKPOINT_TIMER, &mut ctx);
            let after = chain_bytes(&ctx);
            assert!(
                after == 0 || before < snapshot_len,
                "checkpoint {checkpoint}: extended a {before}-byte delta log that already \
                 held the {snapshot_len}-byte snapshot's worth (now {after} bytes)"
            );
        }
        let metrics = actor.metrics();
        assert!(metrics.agreed_delta_records_logged >= 5, "{metrics:?}");
        assert!(metrics.agreed_snapshots_logged >= 5, "{metrics:?}");

        let mut recovered = alternative_actor();
        let mut ctx2: Ctx =
            ScriptedContext::new(ProcessId::new(0), 3).with_storage(ctx.storage_handle());
        recovered.on_start(&mut ctx2);
        assert_eq!(recovered.round(), Round::new(sequence.len() as u64));
        let agreed = recovered.agreed();
        assert_eq!(agreed.total_delivered(), sequence.len() as u64);
        let explicit: Vec<MsgId> = agreed.messages().iter().map(AppMessage::id).collect();
        let (compacted, tail) = sequence.split_at(sequence.len() - explicit.len());
        assert_eq!(explicit, tail, "the replayed explicit part is the sequence's tail");
        assert!(
            compacted.iter().all(|id| agreed.checkpoint().vc.contains(*id)),
            "and the checkpoint covers exactly the rest"
        );
    }

    #[test]
    fn an_alternative_broadcast_step_pays_one_durability_barrier() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = alternative_actor();
        actor.on_start(&mut ctx);
        let before = ctx.storage().metrics().snapshot();
        actor.a_broadcast(b"m".to_vec(), &mut ctx);
        let delta = ctx.storage().metrics().snapshot().since(&before);
        assert!(
            delta.write_ops() >= 2,
            "the step logs the Unordered set and the consensus proposal"
        );
        assert_eq!(
            delta.sync_ops, 1,
            "but the whole step commits under one durability barrier"
        );
    }

    #[test]
    fn client_requests_are_a_broadcasts() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = basic_actor();
        actor.on_start(&mut ctx);
        actor.on_client_request(bytes::Bytes::from_static(b"payload"), &mut ctx);
        assert_eq!(actor.metrics().broadcasts, 1);
        assert_eq!(actor.unordered_len(), 1);
    }

    #[test]
    fn consensus_timers_are_routed_to_the_consensus_substrate() {
        let mut ctx = ctx_for(0, 3);
        let mut actor = basic_actor();
        actor.on_start(&mut ctx);
        // The consensus substrate armed its own timers through the mapped
        // context; firing the mapped FD tick must not panic and must re-arm.
        let fd_tick = TimerId::new(CONSENSUS_TIMER_BASE);
        let deadline_before = ctx.timer_deadline(fd_tick);
        assert!(deadline_before.is_some(), "FD tick armed under the consensus base");
        ctx.advance(SimDuration::from_millis(50));
        actor.on_timer(fd_tick, &mut ctx);
        assert!(ctx.timer_deadline(fd_tick).is_some(), "FD tick re-armed");
    }
}
