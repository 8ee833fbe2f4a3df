//! The two interface variables of the protocol (Figure 1): the `Unordered`
//! set and the `Agreed` queue.
//!
//! "Messages requested to be atomically broadcast are added to the
//! `Unordered` set.  Ordered messages are inserted in the `Agreed` queue,
//! according to their relative order. […] Operations on the `Unordered` and
//! `Agreed` variables must be idempotent."
//!
//! [`AgreedQueue`] additionally supports the application-level checkpoints
//! of Section 5.2: the delivered prefix can be *compacted* into an
//! [`AppCheckpoint`] — an opaque application state plus a checkpoint vector
//! clock recording which messages it logically contains — which bounds the
//! size of both the queue and its stable-storage image.
//!
//! One refinement over the paper's presentation: the checkpoint vector
//! clock only ever covers, per sender, a *gap-free* prefix of that sender's
//! sequence numbers.  Messages delivered out of sequence order stay explicit
//! in the queue until the gap closes.  This keeps the "is `m` logically
//! contained in the checkpoint?" test exact even though the ordering
//! protocol does not guarantee per-sender FIFO delivery, at the cost of
//! occasionally compacting a little less.

use std::collections::BTreeMap;

use abcast_types::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use abcast_types::{AppMessage, MsgId, Payload, Round, VectorClock};

/// A batch of application messages: the value type agreed on by one
/// consensus instance (the paper's `Proposed_p[k]` / `result`).
pub type Batch = Vec<AppMessage>;

/// The set of messages requested for broadcast but not yet ordered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnorderedSet {
    messages: BTreeMap<MsgId, AppMessage>,
}

impl UnorderedSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        UnorderedSet::default()
    }

    /// Adds `m` unless it is already present (idempotent).
    /// Returns `true` if the message was new.
    pub fn insert(&mut self, m: AppMessage) -> bool {
        self.messages.insert(m.id(), m).is_none()
    }

    /// Adds every message of `batch` (idempotently).
    pub fn insert_all(&mut self, batch: impl IntoIterator<Item = AppMessage>) {
        for m in batch {
            self.insert(m);
        }
    }

    /// Removes every message already present in `agreed`
    /// (`Unordered ← Unordered ⊖ Agreed`).
    pub fn subtract_agreed(&mut self, agreed: &AgreedQueue) {
        self.messages.retain(|id, _| !agreed.contains(*id));
    }

    /// `true` if the message with identity `id` is in the set.
    pub fn contains(&self, id: MsgId) -> bool {
        self.messages.contains_key(&id)
    }

    /// Number of messages waiting to be ordered.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// `true` when no message is waiting.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// The messages in identity order.
    pub fn iter(&self) -> impl Iterator<Item = &AppMessage> + '_ {
        self.messages.values()
    }

    /// The whole set as a batch (identity order).
    pub fn to_batch(&self) -> Batch {
        self.messages.values().cloned().collect()
    }

    /// The first `max` messages (identity order) as a batch — the value
    /// proposed to one consensus instance under a batching limit
    /// (Section 5.4).
    pub fn batch_up_to(&self, max: usize) -> Batch {
        self.messages.values().take(max).cloned().collect()
    }
}

impl Encode for UnorderedSet {
    fn encode(&self, enc: &mut Encoder) {
        self.to_batch().encode(enc);
    }
}

impl Decode for UnorderedSet {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let batch = Batch::decode(dec)?;
        let mut set = UnorderedSet::new();
        set.insert_all(batch);
        Ok(set)
    }
}

/// An application-level checkpoint (Section 5.2): the opaque state returned
/// by the `A-checkpoint` upcall plus the vector clock of the messages it
/// logically contains.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AppCheckpoint {
    /// Serialized application state.
    pub state: Payload,
    /// Which messages the state logically contains.
    pub vc: VectorClock,
}

impl AppCheckpoint {
    /// The initial checkpoint `(A-checkpoint(⊥), VC(⊥))`: empty state, no
    /// message covered.
    pub fn initial() -> Self {
        AppCheckpoint::default()
    }
}

impl Encode for AppCheckpoint {
    fn encode(&self, enc: &mut Encoder) {
        self.state.encode(enc);
        self.vc.encode(enc);
    }
}

impl Decode for AppCheckpoint {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(AppCheckpoint {
            state: Payload::decode(dec)?,
            vc: VectorClock::decode(dec)?,
        })
    }
}

/// The delivery sequence of one process: an optional application checkpoint
/// followed by the explicitly delivered messages, in delivery order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AgreedQueue {
    checkpoint: AppCheckpoint,
    messages: Vec<AppMessage>,
    total_delivered: u64,
}

impl AgreedQueue {
    /// Creates an empty delivery sequence.
    pub fn new() -> Self {
        AgreedQueue::default()
    }

    /// The paper's `A-delivered(m, Δ_p)` predicate: `true` if message `id`
    /// belongs to the delivery sequence, either explicitly or logically
    /// through the checkpoint.
    pub fn contains(&self, id: MsgId) -> bool {
        self.checkpoint.vc.contains(id) || self.messages.iter().any(|m| m.id() == id)
    }

    /// Appends the messages of `result` that are not already in the
    /// sequence, following the predetermined deterministic rule: messages
    /// are considered in identity order (`Agreed ← Agreed ⊕ result`).
    /// Returns the newly delivered messages, in the order they were
    /// appended.
    pub fn append_batch(&mut self, result: &[AppMessage]) -> Vec<AppMessage> {
        let mut sorted: Vec<&AppMessage> = result.iter().collect();
        sorted.sort_by_key(|m| m.id());
        sorted.dedup_by_key(|m| m.id());
        let mut delivered = Vec::new();
        for m in sorted {
            if !self.contains(m.id()) {
                self.messages.push(m.clone());
                self.total_delivered += 1;
                delivered.push(m.clone());
            }
        }
        delivered
    }

    /// Appends `msgs` preserving *their given order*, skipping messages
    /// already in the sequence.  Returns the newly appended messages.
    ///
    /// [`AgreedQueue::append_batch`] orders a consensus batch by the
    /// deterministic identity rule; this method instead trusts the caller's
    /// order.  It is used where that order *is* the canonical delivery
    /// order already: replaying `(k, Agreed)` delta records on recovery,
    /// and installing the suffix of a peer's delivery sequence during a
    /// state transfer (Section 5.3) — both may span several rounds, so
    /// re-sorting by identity would destroy Total Order.
    pub fn append_in_order(&mut self, msgs: &[AppMessage]) -> Vec<AppMessage> {
        let mut delivered = Vec::new();
        for m in msgs {
            if !self.contains(m.id()) {
                self.messages.push(m.clone());
                self.total_delivered += 1;
                delivered.push(m.clone());
            }
        }
        delivered
    }

    /// The explicitly stored suffix of the sequence (everything after the
    /// checkpoint), in delivery order.
    pub fn messages(&self) -> &[AppMessage] {
        &self.messages
    }

    /// The application checkpoint heading the sequence.
    pub fn checkpoint(&self) -> &AppCheckpoint {
        &self.checkpoint
    }

    /// Total number of messages ever delivered into this sequence,
    /// including those compacted into the checkpoint.
    pub fn total_delivered(&self) -> u64 {
        self.total_delivered
    }

    /// Number of messages currently stored explicitly (not compacted).
    pub fn explicit_len(&self) -> usize {
        self.messages.len()
    }

    /// `true` when nothing has ever been delivered.
    pub fn is_empty(&self) -> bool {
        self.total_delivered == 0
    }

    /// Compacts the delivered prefix into an application checkpoint.
    ///
    /// `state` must be the application state that logically contains every
    /// message reported by the returned list (the `A-checkpoint` upcall
    /// result).  Only gap-free per-sender prefixes are folded into the
    /// checkpoint vector clock (see the module documentation); the
    /// remaining messages stay explicit.  Returns the messages that were
    /// compacted, in their original delivery order.
    pub fn compact(&mut self, state: Payload) -> Vec<AppMessage> {
        // Highest gap-free sequence number per sender, continuing from the
        // existing checkpoint coverage.
        let mut highest: BTreeMap<_, u64> = BTreeMap::new();
        let mut covered: Vec<AppMessage> = Vec::new();
        let mut remaining: Vec<AppMessage> = Vec::new();

        // Consider messages in identity order per sender to extend prefixes.
        let mut by_sender: BTreeMap<_, Vec<&AppMessage>> = BTreeMap::new();
        for m in &self.messages {
            by_sender.entry(m.sender()).or_default().push(m);
        }
        let mut coverable: std::collections::BTreeSet<MsgId> = std::collections::BTreeSet::new();
        for (sender, mut msgs) in by_sender {
            msgs.sort_by_key(|m| m.seq());
            let mut next = self
                .checkpoint
                .vc
                .get(sender)
                .map(|covered| covered + 1)
                .unwrap_or(0);
            for m in msgs {
                if m.seq() == next {
                    coverable.insert(m.id());
                    highest.insert(sender, m.seq());
                    next += 1;
                } else if m.seq() < next {
                    // Already covered by the checkpoint; cannot happen for
                    // explicit messages, but harmless.
                    coverable.insert(m.id());
                } else {
                    break;
                }
            }
        }

        if coverable.is_empty() {
            // Nothing new can be folded in: leave the existing checkpoint
            // (including its application state) untouched.
            return covered;
        }

        for m in std::mem::take(&mut self.messages) {
            if coverable.contains(&m.id()) {
                covered.push(m);
            } else {
                remaining.push(m);
            }
        }
        self.messages = remaining;

        let mut vc = self.checkpoint.vc.clone();
        for (sender, seq) in highest {
            vc.observe(MsgId::new(sender, seq));
        }
        self.checkpoint = AppCheckpoint { state, vc };
        covered
    }

    /// Replaces the opaque application state of the checkpoint without
    /// touching its coverage.
    ///
    /// [`AgreedQueue::compact`] must decide *which* messages are covered
    /// before the application can produce the state that contains them, so
    /// the protocol compacts first (with a placeholder) and installs the
    /// `A-checkpoint` result afterwards.
    pub fn set_checkpoint_state(&mut self, state: Payload) {
        self.checkpoint.state = state;
    }

    /// Replaces this sequence wholesale with one received in a `state`
    /// message (Section 5.3).  Used by a process that fell behind by more
    /// than Δ rounds.
    pub fn adopt(&mut self, other: AgreedQueue) {
        *self = other;
    }

    /// Approximate size of the sequence in bytes, as it would be logged or
    /// shipped in a state-transfer message.
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

/// Reorder buffer between the consensus substrate and the delivery path.
///
/// With pipelining (`ProtocolConfig::pipeline_depth > 1`) consensus
/// instances for rounds `k .. k + W` run concurrently and may decide in any
/// order, but the protocol must *apply* decided batches strictly by round
/// (Total Order depends on every process folding the same batches into
/// `Agreed` in the same round order).  Decisions arriving early are parked
/// here until every lower round has been committed.
///
/// The buffer is volatile: after a crash the consensus substrate re-learns
/// in-flight decisions from its per-instance log and the recovery replay
/// re-fills whatever is needed, so nothing here is persisted.
#[derive(Clone, Debug, Default)]
pub struct DecisionBuffer {
    decisions: BTreeMap<Round, Batch>,
}

impl DecisionBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        DecisionBuffer::default()
    }

    /// Parks the decided `batch` of `round`.  Idempotent: consensus never
    /// decides two different values for one instance, so a re-learned
    /// decision simply overwrites the identical one.
    pub fn insert(&mut self, round: Round, batch: Batch) {
        self.decisions.insert(round, batch);
    }

    /// Removes and returns the decision of `round`, if buffered.
    pub fn take(&mut self, round: Round) -> Option<Batch> {
        self.decisions.remove(&round)
    }

    /// Drops every buffered decision strictly below `round` — used after a
    /// state transfer jumped the round counter past them.
    pub fn drop_below(&mut self, round: Round) {
        self.decisions = self.decisions.split_off(&round);
    }

    /// Number of decisions currently parked out of order.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// `true` when no decision is parked.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }
}

impl Encode for AgreedQueue {
    fn encode(&self, enc: &mut Encoder) {
        self.checkpoint.encode(enc);
        self.messages.encode(enc);
        enc.put_u64(self.total_delivered);
    }
}

impl Decode for AgreedQueue {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(AgreedQueue {
            checkpoint: AppCheckpoint::decode(dec)?,
            messages: Vec::<AppMessage>::decode(dec)?,
            total_delivered: dec.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast_types::codec::{from_bytes, to_bytes};
    use abcast_types::ProcessId;
    use proptest::prelude::*;

    fn msg(sender: u32, seq: u64) -> AppMessage {
        AppMessage::from_parts(
            ProcessId::new(sender),
            seq,
            format!("payload-{sender}-{seq}").into_bytes(),
        )
    }

    #[test]
    fn unordered_insert_is_idempotent() {
        let mut u = UnorderedSet::new();
        assert!(u.insert(msg(0, 0)));
        assert!(!u.insert(msg(0, 0)));
        assert_eq!(u.len(), 1);
        assert!(u.contains(msg(0, 0).id()));
        assert!(!u.is_empty());
    }

    #[test]
    fn unordered_subtracts_agreed_messages() {
        let mut u = UnorderedSet::new();
        u.insert_all([msg(0, 0), msg(0, 1), msg(1, 0)]);
        let mut agreed = AgreedQueue::new();
        agreed.append_batch(&[msg(0, 0), msg(1, 0)]);
        u.subtract_agreed(&agreed);
        assert_eq!(u.len(), 1);
        assert!(u.contains(msg(0, 1).id()));
    }

    #[test]
    fn unordered_batching_respects_the_limit_and_identity_order() {
        let mut u = UnorderedSet::new();
        u.insert_all([msg(1, 5), msg(0, 2), msg(0, 1), msg(2, 0)]);
        let all = u.to_batch();
        assert_eq!(
            all.iter().map(AppMessage::id).collect::<Vec<_>>(),
            vec![msg(0, 1).id(), msg(0, 2).id(), msg(1, 5).id(), msg(2, 0).id()]
        );
        let limited = u.batch_up_to(2);
        assert_eq!(limited.len(), 2);
        assert_eq!(limited[0].id(), msg(0, 1).id());
        assert_eq!(limited[1].id(), msg(0, 2).id());
    }

    #[test]
    fn unordered_codec_round_trip() {
        let mut u = UnorderedSet::new();
        u.insert_all([msg(0, 0), msg(3, 7)]);
        let back: UnorderedSet = from_bytes(&to_bytes(&u)).unwrap();
        assert_eq!(back, u);
    }

    #[test]
    fn agreed_appends_in_deterministic_order_without_duplicates() {
        let mut a = AgreedQueue::new();
        let delivered = a.append_batch(&[msg(1, 0), msg(0, 0), msg(1, 0)]);
        assert_eq!(
            delivered.iter().map(AppMessage::id).collect::<Vec<_>>(),
            vec![msg(0, 0).id(), msg(1, 0).id()]
        );
        // Re-appending the same batch delivers nothing (idempotence).
        assert!(a.append_batch(&[msg(0, 0), msg(1, 0)]).is_empty());
        assert_eq!(a.total_delivered(), 2);
        assert_eq!(a.explicit_len(), 2);
        assert!(a.contains(msg(0, 0).id()));
        assert!(!a.contains(msg(2, 0).id()));
    }

    #[test]
    fn two_processes_appending_the_same_batches_agree_exactly() {
        let batches = vec![
            vec![msg(0, 0), msg(1, 0)],
            vec![msg(1, 1), msg(0, 1), msg(1, 0)],
            vec![msg(2, 0)],
        ];
        let mut a = AgreedQueue::new();
        let mut b = AgreedQueue::new();
        for batch in &batches {
            a.append_batch(batch);
            b.append_batch(batch);
        }
        assert_eq!(a, b);
        assert_eq!(a.messages(), b.messages());
    }

    #[test]
    fn compaction_moves_gap_free_prefixes_into_the_checkpoint() {
        let mut a = AgreedQueue::new();
        // p0: 0,1 delivered; p1: 0 and 2 delivered (gap at 1).
        a.append_batch(&[msg(0, 0), msg(0, 1), msg(1, 0), msg(1, 2)]);
        let covered = a.compact(Payload::from_static(b"app-state"));
        let covered_ids: Vec<MsgId> = covered.iter().map(AppMessage::id).collect();
        assert!(covered_ids.contains(&msg(0, 0).id()));
        assert!(covered_ids.contains(&msg(0, 1).id()));
        assert!(covered_ids.contains(&msg(1, 0).id()));
        // The out-of-order message stays explicit.
        assert!(!covered_ids.contains(&msg(1, 2).id()));
        assert_eq!(a.explicit_len(), 1);
        assert_eq!(a.checkpoint().state.as_ref(), b"app-state");

        // Containment is still exact.
        assert!(a.contains(msg(0, 0).id()));
        assert!(a.contains(msg(1, 0).id()));
        assert!(a.contains(msg(1, 2).id()));
        assert!(!a.contains(msg(1, 1).id()));
        assert_eq!(a.total_delivered(), 4);
    }

    #[test]
    fn compaction_then_gap_closing_extends_coverage_later() {
        let mut a = AgreedQueue::new();
        a.append_batch(&[msg(0, 0), msg(0, 2)]);
        a.compact(Payload::from_static(b"s1"));
        assert_eq!(a.explicit_len(), 1); // m(0,2) kept explicit

        // The gap closes: m(0,1) is delivered later.
        a.append_batch(&[msg(0, 1)]);
        assert_eq!(a.explicit_len(), 2);
        let covered = a.compact(Payload::from_static(b"s2"));
        assert_eq!(covered.len(), 2);
        assert_eq!(a.explicit_len(), 0);
        assert!(a.contains(msg(0, 2).id()));
        assert_eq!(a.checkpoint().vc.get(ProcessId::new(0)), Some(2));
    }

    #[test]
    fn messages_covered_by_checkpoint_are_not_redelivered() {
        let mut a = AgreedQueue::new();
        a.append_batch(&[msg(0, 0), msg(0, 1)]);
        a.compact(Payload::from_static(b"state"));
        // A late duplicate of an already-compacted message must not be
        // delivered again (Integrity).
        let delivered = a.append_batch(&[msg(0, 0), msg(0, 2)]);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].id(), msg(0, 2).id());
        assert_eq!(a.total_delivered(), 3);
    }

    #[test]
    fn append_in_order_preserves_the_given_order_and_skips_duplicates() {
        // Build the canonical sequence: rounds delivered (1,5) then (0,0)
        // then (1,6) — an order append_batch's identity sort would destroy.
        let mut canonical = AgreedQueue::new();
        canonical.append_batch(&[msg(1, 5)]);
        canonical.append_batch(&[msg(0, 0)]);
        canonical.append_batch(&[msg(1, 6)]);
        let sequence: Vec<AppMessage> = canonical.messages().to_vec();

        // A peer holding a prefix receives the multi-round suffix.
        let mut lagging = AgreedQueue::new();
        lagging.append_batch(&[msg(1, 5)]);
        let newly = lagging.append_in_order(&sequence[1..]);
        assert_eq!(newly.len(), 2);
        assert_eq!(lagging.messages(), canonical.messages());
        assert_eq!(lagging.total_delivered(), 3);

        // Replaying the same suffix is a no-op (idempotence).
        assert!(lagging.append_in_order(&sequence[1..]).is_empty());
        assert_eq!(lagging.total_delivered(), 3);
    }

    #[test]
    fn adopt_replaces_the_sequence() {
        let mut ours = AgreedQueue::new();
        ours.append_batch(&[msg(0, 0)]);
        let mut theirs = AgreedQueue::new();
        theirs.append_batch(&[msg(0, 0), msg(0, 1), msg(1, 0)]);
        theirs.compact(Payload::from_static(b"remote-state"));
        ours.adopt(theirs.clone());
        assert_eq!(ours, theirs);
        assert_eq!(ours.total_delivered(), 3);
    }

    #[test]
    fn agreed_codec_round_trip_with_checkpoint() {
        let mut a = AgreedQueue::new();
        a.append_batch(&[msg(0, 0), msg(1, 0), msg(1, 1)]);
        a.compact(Payload::from_static(b"state"));
        a.append_batch(&[msg(2, 0)]);
        let back: AgreedQueue = from_bytes(&to_bytes(&a)).unwrap();
        assert_eq!(back, a);
        assert!(a.size_bytes() > 0);
    }

    #[test]
    fn initial_checkpoint_is_empty() {
        let cp = AppCheckpoint::initial();
        assert!(cp.state.is_empty());
        assert!(cp.vc.is_empty());
        let q = AgreedQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.total_delivered(), 0);
    }

    #[test]
    fn decision_buffer_releases_rounds_strictly_in_order() {
        let mut buf = DecisionBuffer::new();
        assert!(buf.is_empty());
        buf.insert(Round::new(2), vec![msg(0, 2)]);
        buf.insert(Round::new(1), vec![msg(0, 1)]);
        assert_eq!(buf.len(), 2);
        // Round 0 has not decided: nothing to take.
        assert_eq!(buf.take(Round::new(0)), None);
        // Rounds come out by number, independent of insertion order.
        assert_eq!(buf.take(Round::new(1)), Some(vec![msg(0, 1)]));
        assert_eq!(buf.take(Round::new(2)), Some(vec![msg(0, 2)]));
        assert!(buf.take(Round::new(2)).is_none(), "taking twice yields nothing");
        assert!(buf.is_empty());
    }

    #[test]
    fn decision_buffer_drop_below_discards_stale_rounds() {
        let mut buf = DecisionBuffer::new();
        for k in 0..5u64 {
            buf.insert(Round::new(k), vec![msg(0, k)]);
        }
        buf.drop_below(Round::new(3));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.take(Round::new(2)), None, "jumped rounds are gone");
        assert!(buf.take(Round::new(3)).is_some());
        assert!(buf.take(Round::new(4)).is_some());
    }

    proptest! {
        #[test]
        fn prop_append_is_idempotent_and_order_insensitive_across_replicas(
            batches in proptest::collection::vec(
                proptest::collection::vec((0u32..3, 0u64..20), 0..6), 1..8)) {
            // Two replicas applying the same sequence of batches (with
            // internal duplicates) end with identical queues.
            let to_batch = |spec: &Vec<(u32, u64)>| -> Batch {
                spec.iter().map(|(s, q)| msg(*s, *q)).collect()
            };
            let mut a = AgreedQueue::new();
            let mut b = AgreedQueue::new();
            for spec in &batches {
                let batch = to_batch(spec);
                a.append_batch(&batch);
                b.append_batch(&batch);
                // Replaying a batch twice changes nothing.
                b.append_batch(&batch);
            }
            prop_assert_eq!(&a, &b);
            // No duplicates anywhere (Integrity).
            let mut seen = std::collections::BTreeSet::new();
            for m in a.messages() {
                prop_assert!(seen.insert(m.id()), "duplicate {:?}", m.id());
            }
        }

        #[test]
        fn prop_compaction_preserves_containment_and_count(
            ids in proptest::collection::btree_set((0u32..3, 0u64..15), 1..30),
            compact_at in 0usize..30) {
            let all: Vec<AppMessage> = ids.iter().map(|(s, q)| msg(*s, *q)).collect();
            let mut q = AgreedQueue::new();
            let cut = compact_at.min(all.len());
            q.append_batch(&all[..cut]);
            q.compact(Payload::from_static(b"s"));
            q.append_batch(&all[cut..]);
            prop_assert_eq!(q.total_delivered(), all.len() as u64);
            for m in &all {
                prop_assert!(q.contains(m.id()), "lost {:?}", m.id());
            }
            // Codec round-trip preserves everything.
            let back: AgreedQueue = from_bytes(&to_bytes(&q)).unwrap();
            prop_assert_eq!(back, q);
        }
    }
}
