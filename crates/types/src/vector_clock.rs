//! Checkpoint vector clocks (Section 5.2 of the paper).
//!
//! When the `Agreed` queue is replaced by an application-level checkpoint,
//! the protocol must still be able to tell which messages are "logically
//! contained" in the checkpoint.  The paper attaches a *checkpoint vector
//! clock* `VC(Δp)` to each checkpoint: for every process it records the
//! sequence number of the last message from that process that is covered by
//! the checkpoint.  A message `m` is contained in the checkpoint iff
//! `m.seq <= vc[m.sender]`.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use crate::id::ProcessId;
use crate::message::MsgId;

/// Records, per sender, the highest message sequence number covered by an
/// application checkpoint.
///
/// The clock starts empty (`VC(⊥)` in the paper): no message is covered.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VectorClock {
    entries: BTreeMap<ProcessId, u64>,
}

impl VectorClock {
    /// The empty clock: covers no message.
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// Returns the highest covered sequence number for `sender`, or `None`
    /// if no message from `sender` is covered.
    pub fn get(&self, sender: ProcessId) -> Option<u64> {
        self.entries.get(&sender).copied()
    }

    /// Records that every message from `id.sender` with sequence number
    /// `<= id.seq` is covered.
    ///
    /// Observing an older message than one already covered is a no-op, so
    /// the operation is idempotent and monotone.
    pub fn observe(&mut self, id: MsgId) {
        let entry = self.entries.entry(id.sender).or_insert(id.seq);
        if *entry < id.seq {
            *entry = id.seq;
        }
    }

    /// Returns `true` if message `id` is logically contained in the
    /// checkpoint this clock describes.
    pub fn contains(&self, id: MsgId) -> bool {
        self.get(id.sender).is_some_and(|covered| id.seq <= covered)
    }

    /// Merges another clock into this one, taking the per-sender maximum.
    pub fn merge(&mut self, other: &VectorClock) {
        for (&sender, &seq) in &other.entries {
            let entry = self.entries.entry(sender).or_insert(seq);
            if *entry < seq {
                *entry = seq;
            }
        }
    }

    /// `true` if this clock covers at least every message covered by
    /// `other`.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        other
            .entries
            .iter()
            .all(|(sender, &seq)| self.get(*sender).is_some_and(|mine| mine >= seq))
    }

    /// Number of senders with at least one covered message.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no message is covered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(sender, highest covered sequence number)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, u64)> + '_ {
        self.entries.iter().map(|(&p, &s)| (p, s))
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (p, s)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}:{s}")?;
        }
        write!(f, "]")
    }
}

impl Encode for VectorClock {
    fn encode(&self, enc: &mut Encoder) {
        self.entries.encode(enc);
    }
}

impl Decode for VectorClock {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(VectorClock {
            entries: BTreeMap::<ProcessId, u64>::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};
    use proptest::prelude::*;

    fn id(sender: u32, seq: u64) -> MsgId {
        MsgId::new(ProcessId::new(sender), seq)
    }

    #[test]
    fn empty_clock_covers_nothing() {
        let vc = VectorClock::new();
        assert!(vc.is_empty());
        assert_eq!(vc.len(), 0);
        assert!(!vc.contains(id(0, 0)));
    }

    #[test]
    fn observe_covers_prefix_of_sender() {
        let mut vc = VectorClock::new();
        vc.observe(id(1, 3));
        assert!(vc.contains(id(1, 0)));
        assert!(vc.contains(id(1, 3)));
        assert!(!vc.contains(id(1, 4)));
        assert!(!vc.contains(id(2, 0)));
    }

    #[test]
    fn observe_is_monotone_and_idempotent() {
        let mut vc = VectorClock::new();
        vc.observe(id(0, 5));
        vc.observe(id(0, 2)); // older: no effect
        assert_eq!(vc.get(ProcessId::new(0)), Some(5));
        vc.observe(id(0, 5)); // same: no effect
        assert_eq!(vc.get(ProcessId::new(0)), Some(5));
        vc.observe(id(0, 9));
        assert_eq!(vc.get(ProcessId::new(0)), Some(9));
    }

    #[test]
    fn merge_takes_pointwise_maximum() {
        let mut a = VectorClock::new();
        a.observe(id(0, 4));
        a.observe(id(1, 1));
        let mut b = VectorClock::new();
        b.observe(id(0, 2));
        b.observe(id(2, 7));
        a.merge(&b);
        assert_eq!(a.get(ProcessId::new(0)), Some(4));
        assert_eq!(a.get(ProcessId::new(1)), Some(1));
        assert_eq!(a.get(ProcessId::new(2)), Some(7));
    }

    #[test]
    fn dominates_relation() {
        let mut a = VectorClock::new();
        a.observe(id(0, 4));
        a.observe(id(1, 2));
        let mut b = VectorClock::new();
        b.observe(id(0, 3));
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(a.dominates(&VectorClock::new()));
        assert!(a.dominates(&a.clone()));
    }

    #[test]
    fn display_lists_entries() {
        let mut vc = VectorClock::new();
        vc.observe(id(0, 1));
        vc.observe(id(2, 3));
        assert_eq!(format!("{vc}"), "[p0:1, p2:3]");
    }

    #[test]
    fn codec_round_trip() {
        let mut vc = VectorClock::new();
        vc.observe(id(0, 10));
        vc.observe(id(3, 7));
        assert_eq!(from_bytes::<VectorClock>(&to_bytes(&vc)).unwrap(), vc);
    }

    proptest! {
        #[test]
        fn prop_merge_dominates_both(
            xs in proptest::collection::vec((0u32..6, 0u64..100), 0..20),
            ys in proptest::collection::vec((0u32..6, 0u64..100), 0..20)) {
            let mut a = VectorClock::new();
            for (s, q) in &xs { a.observe(id(*s, *q)); }
            let mut b = VectorClock::new();
            for (s, q) in &ys { b.observe(id(*s, *q)); }
            let mut merged = a.clone();
            merged.merge(&b);
            prop_assert!(merged.dominates(&a));
            prop_assert!(merged.dominates(&b));
        }

        #[test]
        fn prop_contains_iff_observed_at_least(
            observations in proptest::collection::vec((0u32..4, 0u64..50), 1..20),
            query in (0u32..4, 0u64..50)) {
            let mut vc = VectorClock::new();
            for (s, q) in &observations { vc.observe(id(*s, *q)); }
            let max_for_sender = observations.iter()
                .filter(|(s, _)| *s == query.0)
                .map(|(_, q)| *q)
                .max();
            let expected = max_for_sender.is_some_and(|m| query.1 <= m);
            prop_assert_eq!(vc.contains(id(query.0, query.1)), expected);
        }

        #[test]
        fn prop_codec_round_trip(xs in proptest::collection::vec((0u32..8, any::<u64>()), 0..16)) {
            let mut vc = VectorClock::new();
            for (s, q) in &xs { vc.observe(id(*s, *q)); }
            prop_assert_eq!(from_bytes::<VectorClock>(&to_bytes(&vc)).unwrap(), vc);
        }
    }
}
