//! Well-known stable-storage keys used by the protocol stack.
//!
//! Centralising key construction keeps the storage layout documented in one
//! place and lets recovery code enumerate related records (e.g. "every
//! logged proposal") without string literals scattered across crates.
//!
//! Layout:
//!
//! | Key | Kind | Written by | Paper |
//! |-----|------|-----------|-------|
//! | `abcast/agreed` | slot | checkpoint task: full `(k, Agreed)` snapshot | §5.1 |
//! | `abcast/agreed/delta` | log | checkpoint task: `(k, new messages)` since the snapshot | §5.1+§5.5 |
//! | `abcast/unordered/incr` | log | `A-broadcast` (alternative protocol): the `Unordered` messages added since the previous append | §5.4+§5.5 |
//! | `abcast/broadcast-epoch` | slot | first `A-broadcast` after a (re)start (basic protocol): the high bits of this incarnation's sequence numbers | §4.1 |
//! | `consensus/<k>/proposal` | slot | consensus proposer, first operation of the instance | §4.2 |
//! | `consensus/<k>/promised` | slot | consensus acceptor | §3.2 |
//! | `consensus/<k>/accepted` | slot | consensus acceptor | §3.2 |
//! | `consensus/<k>/decided` | slot | consensus learner | §3.2 |
//! | `consensus/floor` | slot | GC task: durable forget watermark (Figure 4, line *c*) | §5.3 |
//! | `fd/epoch` | slot | failure detector start: the incarnation number its heartbeats carry | §3.5 |
//!
//! The table is documentation only.  Tests, not a lint, catch a record
//! that stops being written: `tests/protocol_costs.rs` pins the stored
//! key set and the exact write counts.

use abcast_types::Round;

use crate::api::StorageKey;

/// Prefix shared by every key written by the atomic broadcast layer.
pub const ABCAST_PREFIX: &str = "abcast/";
/// Prefix shared by every key written by the consensus substrate.
pub const CONSENSUS_PREFIX: &str = "consensus/";

/// Key of the periodic `(k, Agreed)` checkpoint of the alternative protocol
/// (Figure 4, line *b*).  Holds the most recent *full snapshot*; the
/// changes since it live in the [`agreed_delta`] log.
pub fn agreed_checkpoint() -> StorageKey {
    StorageKey::new("abcast/agreed")
}

/// Key of the incremental checkpoint log: each record is
/// `(k, messages delivered since the previous checkpoint record)`.
/// Recovery replays it on top of the [`agreed_checkpoint`] snapshot; a new
/// snapshot truncates it.
pub fn agreed_delta() -> StorageKey {
    StorageKey::new("abcast/agreed/delta")
}

/// Key of the logged `Unordered` set (Section 5.4, early-return
/// `A-broadcast`): each record holds the messages added since the previous
/// one (Section 5.5).
pub fn unordered_incremental() -> StorageKey {
    StorageKey::new("abcast/unordered/incr")
}

/// Key of the basic protocol's *broadcast epoch*: bumped by the first
/// `A-broadcast` after each (re)start and used as the high bits of the
/// sequence numbers assigned in that incarnation, so identities never
/// repeat across crashes without logging every broadcast.
pub fn broadcast_epoch() -> StorageKey {
    StorageKey::new("abcast/broadcast-epoch")
}

/// Key of the value this process proposed to consensus instance `k`.
///
/// The paper (Section 4.2) notes that logging the proposed value "is
/// actually done as the first operation of the Consensus"; accordingly the
/// consensus substrate owns this record and the atomic broadcast layer
/// reads proposals back *through* the consensus interface on recovery
/// ("the process parses the log of proposed and agreed values (which is
/// kept internally by Consensus)").
pub fn consensus_proposal(k: Round) -> StorageKey {
    StorageKey::new(format!("consensus/{k}/proposal"))
}

/// Key of the acceptor's highest promised ballot for consensus instance `k`.
pub fn consensus_promised(k: Round) -> StorageKey {
    StorageKey::new(format!("consensus/{k}/promised"))
}

/// Key of the acceptor's last accepted `(ballot, value)` for consensus
/// instance `k`.
pub fn consensus_accepted(k: Round) -> StorageKey {
    StorageKey::new(format!("consensus/{k}/accepted"))
}

/// Key of the learned decision of consensus instance `k`.
pub fn consensus_decided(k: Round) -> StorageKey {
    StorageKey::new(format!("consensus/{k}/decided"))
}

/// Key of the durable forget watermark: the instance below which this
/// process has discarded its per-instance consensus records (Figure 4,
/// line *c*).  The watermark must survive recovery: an acceptor that
/// discarded round `k`'s records can no longer honour its pre-discard
/// promises, so it must never participate in round `k` again — a floor
/// that regressed after a crash would let a lagging peer re-run consensus
/// for a settled round against amnesiac acceptors and decide a second
/// value.
pub fn consensus_floor() -> StorageKey {
    StorageKey::new("consensus/floor")
}

/// Key of the failure detector's epoch counter: the number of (re)starts
/// of this process, carried in its heartbeats so peers can tell its
/// incarnations apart (Section 3.5).
pub fn fd_epoch() -> StorageKey {
    StorageKey::new("fd/epoch")
}

/// Extracts the instance number from any `consensus/<k>/…` key.
pub fn parse_consensus_instance(key: &StorageKey) -> Option<Round> {
    let rest = key.as_str().strip_prefix(CONSENSUS_PREFIX)?;
    let (round, _tail) = rest.split_once('/')?;
    round.parse::<u64>().ok().map(Round::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consensus_keys_embed_round_and_role() {
        let k = Round::new(3);
        assert_eq!(consensus_proposal(k).as_str(), "consensus/3/proposal");
        assert_eq!(consensus_promised(k).as_str(), "consensus/3/promised");
        assert_eq!(consensus_accepted(k).as_str(), "consensus/3/accepted");
        assert_eq!(consensus_decided(k).as_str(), "consensus/3/decided");
    }

    #[test]
    fn parse_consensus_instance_accepts_any_role() {
        let k = Round::new(9);
        for key in [
            consensus_proposal(k),
            consensus_promised(k),
            consensus_accepted(k),
            consensus_decided(k),
        ] {
            assert_eq!(parse_consensus_instance(&key), Some(k));
        }
        assert_eq!(parse_consensus_instance(&agreed_checkpoint()), None);
        assert_eq!(
            parse_consensus_instance(&StorageKey::new("consensus/nope/decided")),
            None
        );
    }

    #[test]
    fn fixed_keys_are_stable() {
        assert_eq!(agreed_checkpoint().as_str(), "abcast/agreed");
        assert_eq!(agreed_delta().as_str(), "abcast/agreed/delta");
        assert_eq!(unordered_incremental().as_str(), "abcast/unordered/incr");
        assert_eq!(consensus_floor().as_str(), "consensus/floor");
        // Written before the table listed them: existing WALs must reopen.
        assert_eq!(broadcast_epoch().as_str(), "abcast/broadcast-epoch");
        assert_eq!(fd_epoch().as_str(), "fd/epoch");
    }

    #[test]
    fn abcast_keys_share_the_prefix() {
        assert!(agreed_checkpoint().has_prefix(ABCAST_PREFIX));
        assert!(unordered_incremental().has_prefix(ABCAST_PREFIX));
        assert!(consensus_decided(Round::new(1)).has_prefix(CONSENSUS_PREFIX));
    }
}
