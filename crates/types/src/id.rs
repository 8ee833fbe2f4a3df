//! Process identities and finite process sets.
//!
//! The paper considers a finite, statically known set of processes
//! `Π = {p, …, q}` (Section 2.1).  A [`ProcessId`] is a small dense index
//! into that set, which makes it cheap to use as an array index in vector
//! clocks, quorum bitmaps and per-process bookkeeping.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::codec::{Decode, DecodeError, Decoder, Encode, Encoder};

/// Identity of a process in the system.
///
/// Process identities are dense indices `0..n` where `n` is the size of the
/// system; they are assigned by the deployment (simulation scenario or
/// thread runtime) and never change across crashes and recoveries — a
/// recovering process keeps its identity, which is what allows it to
/// retrieve its own stable storage.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process identity from its dense index.
    pub const fn new(index: u32) -> Self {
        ProcessId(index)
    }

    /// Returns the dense index of this process.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value of this identity.
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(value: u32) -> Self {
        ProcessId(value)
    }
}

impl Encode for ProcessId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.0);
    }
}

impl Decode for ProcessId {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ProcessId(dec.take_u32()?))
    }
}

/// The finite set of processes `Π` that make up the system.
///
/// A `ProcessSet` is created once per deployment and shared (by value — it is
/// tiny) with every layer.  It answers membership questions, enumerates
/// peers and knows the majority threshold used by the consensus substrate.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessSet {
    n: u32,
}

impl ProcessSet {
    /// Creates the process set `{p0, …, p(n-1)}`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`; a system needs at least one process.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a system must contain at least one process");
        ProcessSet { n: n as u32 }
    }

    /// Number of processes in the system.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// `true` when the system contains exactly one process (never empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` if `p` belongs to this set.
    pub fn contains(&self, p: ProcessId) -> bool {
        p.as_u32() < self.n
    }

    /// Iterates over every process identity in the set, in index order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.n).map(ProcessId::new)
    }

    /// Size of a simple majority quorum (`⌊n/2⌋ + 1`).
    ///
    /// The crash-recovery consensus substrate assumes that a majority of
    /// processes are *good* (eventually remain permanently up, Section 3.3).
    pub fn majority(&self) -> usize {
        (self.n as usize / 2) + 1
    }
}

impl Encode for ProcessSet {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.n);
    }
}

impl Decode for ProcessSet {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = dec.take_u32()?;
        if n == 0 {
            return Err(DecodeError::invalid("ProcessSet of size 0"));
        }
        Ok(ProcessSet { n })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_accessors_round_trip() {
        let p = ProcessId::new(7);
        assert_eq!(p.index(), 7);
        assert_eq!(p.as_u32(), 7);
        assert_eq!(ProcessId::from(7u32), p);
        assert_eq!(format!("{p}"), "p7");
        assert_eq!(format!("{p:?}"), "p7");
    }

    #[test]
    fn process_ids_are_ordered_by_index() {
        assert!(ProcessId::new(1) < ProcessId::new(2));
        assert_eq!(ProcessId::new(3), ProcessId::new(3));
    }

    #[test]
    fn process_set_enumerates_all_members() {
        let set = ProcessSet::new(4);
        let members: Vec<_> = set.iter().collect();
        assert_eq!(
            members,
            vec![
                ProcessId::new(0),
                ProcessId::new(1),
                ProcessId::new(2),
                ProcessId::new(3)
            ]
        );
        assert_eq!(set.len(), 4);
        assert!(!set.is_empty());
    }

    #[test]
    fn process_set_membership() {
        let set = ProcessSet::new(3);
        assert!(set.contains(ProcessId::new(0)));
        assert!(set.contains(ProcessId::new(2)));
        assert!(!set.contains(ProcessId::new(3)));
    }

    #[test]
    fn majority_thresholds() {
        assert_eq!(ProcessSet::new(1).majority(), 1);
        assert_eq!(ProcessSet::new(2).majority(), 2);
        assert_eq!(ProcessSet::new(3).majority(), 2);
        assert_eq!(ProcessSet::new(4).majority(), 3);
        assert_eq!(ProcessSet::new(5).majority(), 3);
        assert_eq!(ProcessSet::new(7).majority(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_process_set_rejected() {
        let _ = ProcessSet::new(0);
    }
}
