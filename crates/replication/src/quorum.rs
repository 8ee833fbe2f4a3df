//! Quorum-based (weighted-voting) replica management bridged with atomic
//! broadcast (Section 6.3).
//!
//! The companion technical report the paper cites (reference 18, Rodrigues & Raynal TR-99-1) extends the atomic
//! broadcast primitive to support quorum-based replica management: updates
//! are totally ordered by the broadcast (so every replica applies the same
//! versions in the same order), while reads only need to contact a *read
//! quorum* of replicas and take the highest version — staleness is bounded
//! by the quorum intersection property `r + w > total weight`.
//!
//! This module provides the quorum machinery: weighted configurations,
//! intersection validation, and the read/write reply-combination logic used
//! by the `replicated_kv` example and its integration test.  The versions
//! themselves are installed through the replicated state machine layer, so
//! writes inherit the fault tolerance of the crash-recovery broadcast.

use std::collections::BTreeMap;

use abcast_types::ProcessId;

/// A weighted-voting configuration (Gifford-style).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuorumConfig {
    weights: Vec<u64>,
    read_quorum: u64,
    write_quorum: u64,
}

/// Errors produced when building an invalid quorum configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuorumConfigError {
    /// The configuration has no replica with positive weight.
    NoVotes,
    /// `read + write` does not exceed the total weight, so a read quorum
    /// and a write quorum could miss each other.
    ReadWriteDoNotIntersect {
        /// Configured read quorum.
        read: u64,
        /// Configured write quorum.
        write: u64,
        /// Total weight of all replicas.
        total: u64,
    },
    /// Two write quorums could miss each other (`2·write ≤ total`), which
    /// would allow conflicting writes to both succeed.
    WritesDoNotIntersect {
        /// Configured write quorum.
        write: u64,
        /// Total weight of all replicas.
        total: u64,
    },
}

impl std::fmt::Display for QuorumConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuorumConfigError::NoVotes => write!(f, "no replica carries any vote"),
            QuorumConfigError::ReadWriteDoNotIntersect { read, write, total } => write!(
                f,
                "read quorum {read} + write quorum {write} must exceed total weight {total}"
            ),
            QuorumConfigError::WritesDoNotIntersect { write, total } => write!(
                f,
                "write quorum {write} must exceed half of the total weight {total}"
            ),
        }
    }
}

impl std::error::Error for QuorumConfigError {}

impl QuorumConfig {
    /// Builds a configuration from per-replica weights and the two quorum
    /// thresholds, validating the intersection properties.
    pub fn new(weights: Vec<u64>, read_quorum: u64, write_quorum: u64) -> Result<Self, QuorumConfigError> {
        let total: u64 = weights.iter().sum();
        if total == 0 {
            return Err(QuorumConfigError::NoVotes);
        }
        if read_quorum + write_quorum <= total {
            return Err(QuorumConfigError::ReadWriteDoNotIntersect {
                read: read_quorum,
                write: write_quorum,
                total,
            });
        }
        if write_quorum * 2 <= total {
            return Err(QuorumConfigError::WritesDoNotIntersect {
                write: write_quorum,
                total,
            });
        }
        Ok(QuorumConfig {
            weights,
            read_quorum,
            write_quorum,
        })
    }

    /// A uniform configuration: `n` replicas with weight 1, majority read
    /// and write quorums.
    pub fn uniform_majority(n: usize) -> Self {
        let majority = (n as u64 / 2) + 1;
        QuorumConfig::new(vec![1; n], majority, majority)
            .expect("majority quorums always intersect")
    }

    /// A read-one/write-all configuration over `n` unit-weight replicas.
    pub fn read_one_write_all(n: usize) -> Self {
        QuorumConfig::new(vec![1; n], 1, n as u64).expect("ROWA always intersects")
    }

    /// Weight of replica `p` (0 for unknown replicas).
    pub fn weight(&self, p: ProcessId) -> u64 {
        self.weights.get(p.index()).copied().unwrap_or(0)
    }

    /// Total weight of all replicas.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// The read quorum threshold.
    pub fn read_quorum(&self) -> u64 {
        self.read_quorum
    }

    /// The write quorum threshold.
    pub fn write_quorum(&self) -> u64 {
        self.write_quorum
    }

    /// `true` if the replicas in `replying` carry at least `threshold`
    /// votes.
    fn meets(&self, replying: &[ProcessId], threshold: u64) -> bool {
        let mut seen = std::collections::BTreeSet::new();
        let weight: u64 = replying
            .iter()
            .filter(|p| seen.insert(**p))
            .map(|p| self.weight(*p))
            .sum();
        weight >= threshold
    }

    /// `true` if `replying` forms a read quorum.
    pub fn is_read_quorum(&self, replying: &[ProcessId]) -> bool {
        self.meets(replying, self.read_quorum)
    }

    /// `true` if `replying` forms a write quorum.
    pub fn is_write_quorum(&self, replying: &[ProcessId]) -> bool {
        self.meets(replying, self.write_quorum)
    }
}

/// A versioned reply returned by one replica to a quorum read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadReply<T> {
    /// The replying replica.
    pub replica: ProcessId,
    /// The version it holds (e.g. the number of delivered updates for the
    /// key).
    pub version: u64,
    /// The value it holds.
    pub value: T,
}

/// Outcome of combining read replies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuorumReadOutcome<T> {
    /// A read quorum replied; the value with the highest version wins.
    Value {
        /// The highest version among the replies.
        version: u64,
        /// The corresponding value.
        value: T,
    },
    /// The replies do not form a read quorum.
    InsufficientQuorum {
        /// Total weight of the replicas that replied.
        weight: u64,
        /// Required read quorum.
        needed: u64,
    },
}

/// Combines read replies according to the weighted-voting rule: if the
/// repliers form a read quorum, the reply with the highest version (ties
/// broken by replica identity, for determinism) is returned.
pub fn combine_read_replies<T: Clone>(
    config: &QuorumConfig,
    replies: &[ReadReply<T>],
) -> QuorumReadOutcome<T> {
    let repliers: Vec<ProcessId> = replies.iter().map(|r| r.replica).collect();
    if !config.is_read_quorum(&repliers) {
        let mut seen = std::collections::BTreeSet::new();
        let weight = repliers
            .iter()
            .filter(|p| seen.insert(**p))
            .map(|p| config.weight(*p))
            .sum();
        return QuorumReadOutcome::InsufficientQuorum {
            weight,
            needed: config.read_quorum(),
        };
    }
    let best = replies
        .iter()
        .max_by_key(|r| (r.version, std::cmp::Reverse(r.replica)))
        .expect("read quorum implies at least one reply");
    QuorumReadOutcome::Value {
        version: best.version,
        value: best.value.clone(),
    }
}

/// Per-replica freshness bookkeeping used by the quorum experiment: maps
/// each replica to the number of updates it has delivered, from which the
/// harness derives the version each one would report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FreshnessTable {
    delivered: BTreeMap<ProcessId, u64>,
}

impl FreshnessTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FreshnessTable::default()
    }

    /// Records that `replica` has delivered `count` updates in total.
    pub fn record(&mut self, replica: ProcessId, count: u64) {
        self.delivered.insert(replica, count);
    }

    /// The recorded version of `replica` (0 if never recorded).
    pub fn version_of(&self, replica: ProcessId) -> u64 {
        self.delivered.get(&replica).copied().unwrap_or(0)
    }

    /// The most advanced version across all replicas.
    pub fn max_version(&self) -> u64 {
        self.delivered.values().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert_eq!(
            QuorumConfig::new(vec![], 1, 1).unwrap_err(),
            QuorumConfigError::NoVotes
        );
        assert!(matches!(
            QuorumConfig::new(vec![1, 1, 1], 1, 2).unwrap_err(),
            QuorumConfigError::ReadWriteDoNotIntersect { .. }
        ));
        assert!(matches!(
            QuorumConfig::new(vec![1, 1, 1, 1], 4, 2).unwrap_err(),
            QuorumConfigError::WritesDoNotIntersect { .. }
        ));
        // Error messages are informative.
        let err = QuorumConfig::new(vec![1, 1, 1], 1, 2).unwrap_err();
        assert!(err.to_string().contains("must exceed total weight"));
    }

    #[test]
    fn uniform_and_rowa_presets() {
        let majority = QuorumConfig::uniform_majority(5);
        assert_eq!(majority.read_quorum(), 3);
        assert_eq!(majority.write_quorum(), 3);
        assert_eq!(majority.total_weight(), 5);

        let rowa = QuorumConfig::read_one_write_all(4);
        assert_eq!(rowa.read_quorum(), 1);
        assert_eq!(rowa.write_quorum(), 4);
    }

    #[test]
    fn quorum_membership_respects_weights_and_duplicates() {
        let config = QuorumConfig::new(vec![3, 1, 1], 3, 3).unwrap();
        assert!(config.is_read_quorum(&[p(0)]));
        assert!(!config.is_read_quorum(&[p(1), p(2)]));
        assert!(config.is_write_quorum(&[p(0)]));
        // Duplicate replies only count once.
        assert!(!config.is_read_quorum(&[p(1), p(1), p(1)]));
        assert_eq!(config.weight(p(9)), 0);
    }

    #[test]
    fn combine_read_replies_picks_the_freshest_value() {
        let config = QuorumConfig::uniform_majority(3);
        let replies = vec![
            ReadReply { replica: p(0), version: 4, value: "old" },
            ReadReply { replica: p(2), version: 7, value: "new" },
        ];
        assert_eq!(
            combine_read_replies(&config, &replies),
            QuorumReadOutcome::Value { version: 7, value: "new" }
        );

        let insufficient = vec![ReadReply { replica: p(1), version: 9, value: "x" }];
        assert_eq!(
            combine_read_replies(&config, &insufficient),
            QuorumReadOutcome::InsufficientQuorum { weight: 1, needed: 2 }
        );
    }

    #[test]
    fn freshness_table_tracks_versions() {
        let mut table = FreshnessTable::new();
        assert_eq!(table.max_version(), 0);
        table.record(p(0), 5);
        table.record(p(1), 9);
        table.record(p(0), 7);
        assert_eq!(table.version_of(p(0)), 7);
        assert_eq!(table.version_of(p(2)), 0);
        assert_eq!(table.max_version(), 9);
    }

    proptest! {
        #[test]
        fn prop_read_and_write_quorums_always_intersect(
            weights in proptest::collection::vec(1u64..5, 1..6),
            read_extra in 0u64..5, write_extra in 0u64..5,
            read_set in proptest::collection::btree_set(0u32..6, 0..6),
            write_set in proptest::collection::btree_set(0u32..6, 0..6)) {
            let total: u64 = weights.iter().sum();
            let write_quorum = (total / 2 + 1 + write_extra).min(total);
            let read_quorum = ((total - write_quorum) + 1 + read_extra).min(total);
            let Ok(config) = QuorumConfig::new(weights.clone(), read_quorum, write_quorum) else {
                // Capping may have broken intersection; skip those cases.
                return Ok(());
            };
            let reads: Vec<ProcessId> = read_set.iter().map(|i| p(*i)).collect();
            let writes: Vec<ProcessId> = write_set.iter().map(|i| p(*i)).collect();
            if config.is_read_quorum(&reads) && config.is_write_quorum(&writes) {
                // Quorum intersection: some replica is in both sets.
                let overlap = reads.iter().any(|r| writes.contains(r));
                prop_assert!(overlap, "read and write quorums must intersect");
            }
        }
    }
}
