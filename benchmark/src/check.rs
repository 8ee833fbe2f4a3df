//! Every run is also a correctness check.
//!
//! The repository's own checkers do the judging wherever they apply:
//! `check_total_order` and `check_integrity` over the full delivery
//! sequences the processes reported, and `check_all` over their final
//! `Agreed` queues (Termination over a spread sample — its `contains` is a
//! linear scan, so the full set would cost minutes at 10⁵ messages).  The
//! functions here add what only the benchmark can know: that every
//! submitted request came out exactly once with the payload that went in,
//! that every delivered identity is in every process's sequence, that a
//! recovered process walks the same order, and that a cold restart brought
//! back a sequence extending the one that was shut down.

use std::collections::{BTreeSet, HashMap, HashSet};

use crash_recovery_abcast::core::{check_all, check_integrity, check_total_order, AgreedQueue};
use crash_recovery_abcast::{AppMessage, MsgId};

use crate::deploy::payload;
use crate::trace::request_seq;

/// `true` if `id` is in `queue`'s delivery sequence — the same predicate
/// as `AgreedQueue::contains`, against a prebuilt set of the explicit part.
fn in_sequence(queue: &AgreedQueue, explicit: &HashSet<MsgId>, id: MsgId) -> bool {
    queue.checkpoint().vc.contains(id) || explicit.contains(&id)
}

fn explicit_ids(queue: &AgreedQueue) -> HashSet<MsgId> {
    queue.messages().iter().map(AppMessage::id).collect()
}

/// Total Order and Integrity over complete delivery sequences (processes
/// that never lost their memory, and crash-time read-outs): pairwise
/// prefix-related, no identity twice — judged by the repository's checkers.
pub fn check_sequences(sequences: &[Vec<AppMessage>]) -> Vec<String> {
    let mut found: Vec<String> = check_total_order(sequences)
        .err()
        .iter()
        .map(ToString::to_string)
        .collect();
    found.extend(
        sequences
            .iter()
            .filter_map(|s| check_integrity(s).err())
            .map(|v| v.to_string()),
    );
    found
}

/// `other` walks `reference` forwards: each of its identities is in
/// `reference`, at a later position than its predecessor.  That is what
/// Total Order leaves of a recovered process's log — rounds adopted by
/// state transfer are missing from it, but nothing is out of order — and
/// of a compacted queue's explicit part.
pub fn check_subsequence(reference: &[MsgId], other: &[MsgId], who: &str) -> Result<(), String> {
    let position: HashMap<MsgId, usize> = reference
        .iter()
        .enumerate()
        .map(|(i, id)| (*id, i))
        .collect();
    let mut last: Option<usize> = None;
    for id in other {
        let Some(&at) = position.get(id) else {
            return Err(format!(
                "Total Order violated: {who} delivered {id}, which the reference process never did"
            ));
        };
        if let Some(last) = last.filter(|l| at <= *l) {
            return Err(format!(
                "Total Order violated: {who} delivered {id} (reference position {at}) after \
                 position {last}"
            ));
        }
        last = Some(at);
    }
    Ok(())
}

/// What became of the submitted requests.
#[derive(Debug, Default)]
pub struct RequestAudit {
    /// The identity each request (by sequence number) was delivered under.
    pub id_of: Vec<Option<MsgId>>,
    /// Requests not delivered at every process.
    pub failed: u64,
    /// Violations found (empty on a correct run).
    pub violations: Vec<String>,
}

/// Audits deliveries against submissions.
///
/// `delivered` is every `(identity, payload)` any process reported
/// delivering; `queues` are the final `Agreed` queues of the processes,
/// all of which are up.  Checks: the payload of every delivery is byte for
/// byte the payload of a request that was submitted (Validity, end to
/// end); no request came out under two identities and no identity carries
/// two requests (Integrity, end to end); and counts as failed every
/// request that is not in every process's sequence.
pub fn audit_requests(
    seed: u64,
    payload_len: usize,
    submitted: u64,
    delivered: &[(MsgId, bytes::Bytes)],
    queues: &[&AgreedQueue],
) -> RequestAudit {
    let mut audit = RequestAudit {
        id_of: vec![None; submitted as usize],
        ..Default::default()
    };
    let mut seq_of: HashMap<MsgId, u64> = HashMap::new();
    for (id, body) in delivered {
        let seq = request_seq(body);
        if seq >= submitted || *body != payload(seed, seq, payload_len) {
            audit.violations.push(format!(
                "Validity violated: {id} was delivered with a payload no request carried"
            ));
            continue;
        }
        if seq_of
            .insert(*id, seq)
            .is_some_and(|earlier| earlier != seq)
        {
            audit
                .violations
                .push(format!("Integrity violated: {id} carries two requests"));
        }
        match audit.id_of[seq as usize] {
            Some(earlier) if earlier != *id => audit.violations.push(format!(
                "Integrity violated: request {seq} was delivered as {earlier} and as {id}"
            )),
            _ => audit.id_of[seq as usize] = Some(*id),
        }
    }
    let explicit: Vec<HashSet<MsgId>> = queues.iter().map(|q| explicit_ids(q)).collect();
    for id in &audit.id_of {
        let everywhere = id.is_some_and(|id| {
            queues
                .iter()
                .zip(&explicit)
                .all(|(q, set)| in_sequence(q, set, id))
        });
        if !everywhere {
            audit.failed += 1;
        }
    }
    audit.violations.truncate(16);
    audit
}

/// What [`check_queues`] found.
#[derive(Debug, Default)]
pub struct QueueVerdict {
    /// Real violations.
    pub violations: Vec<String>,
    /// Verdicts of `check_all` that the stronger evidence overrules.
    pub notes: Vec<String>,
}

/// Runs the repository's `check_all` over the final queues.  Termination
/// is checked on `sample` identities spread over the run (the full set is
/// covered by [`audit_requests`] with an indexed `contains`).
///
/// `check_all` judges Total Order on *compacted* queues by assuming each
/// queue's explicit part is a contiguous window of the delivery order.
/// That does not hold here: with pipelined rounds a sender's messages can
/// be delivered out of sequence-number order, compaction folds only
/// gap-free per-sender prefixes into the checkpoint, and the explicit part
/// is left with holes — two queues compacted at different moments then
/// "disagree" although both follow the one order.  So a Total Order
/// verdict is cross-examined: if every queue's explicit part walks
/// `reference` (the complete delivery order) forwards, the verdict is
/// recorded as a note, not a violation.
pub fn check_queues(
    queues: &[&AgreedQueue],
    reference: &[MsgId],
    ids: &[MsgId],
    sample: usize,
) -> QueueVerdict {
    let broadcast: BTreeSet<MsgId> = ids.iter().copied().collect();
    let step = (ids.len() / sample.max(1)).max(1);
    let must_deliver: BTreeSet<MsgId> = ids.iter().step_by(step).copied().collect();
    let good: Vec<usize> = (0..queues.len()).collect();
    let mut verdict = QueueVerdict::default();
    for found in check_all(queues, &good, &broadcast, &must_deliver) {
        let overruled = found.property == "Total Order"
            && queues.iter().enumerate().all(|(p, q)| {
                let explicit: Vec<MsgId> = q.messages().iter().map(AppMessage::id).collect();
                check_subsequence(reference, &explicit, &format!("p{p}'s queue")).is_ok()
            });
        if overruled {
            verdict.notes.push(format!(
                "check_all reported \"{found}\", but every queue's explicit part follows the \
                 complete delivery order: compaction left holes (see README, Findings)"
            ));
        } else {
            verdict.violations.push(found.to_string());
        }
    }
    verdict
}

/// After a cold restart the recovered sequence must extend the one that
/// was shut down: every identity of `before` (in delivery order) is still
/// in `after`, and those still explicit in `after` keep their order.
pub fn check_restart_extends(
    before: &[MsgId],
    after: &AgreedQueue,
    who: &str,
) -> Result<(), String> {
    let explicit = explicit_ids(after);
    if let Some(lost) = before
        .iter()
        .find(|id| !in_sequence(after, &explicit, **id))
    {
        return Err(format!(
            "cold restart lost {lost}: {who}'s recovered sequence does not extend the \
             pre-shutdown one"
        ));
    }
    let position: HashMap<MsgId, usize> =
        before.iter().enumerate().map(|(i, id)| (*id, i)).collect();
    let mut last = None;
    for m in after.messages() {
        if let Some(&at) = position.get(&m.id()) {
            if last.is_some_and(|l| at <= l) {
                return Err(format!(
                    "cold restart reordered {}: {who}'s recovered sequence is not a \
                     continuation of the pre-shutdown one",
                    m.id()
                ));
            }
            last = Some(at);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crash_recovery_abcast::ProcessId;

    fn id(sender: u32, seq: u64) -> MsgId {
        MsgId::new(ProcessId::new(sender), seq)
    }

    fn log(n: u64) -> Vec<MsgId> {
        (0..n).map(|i| id((i % 3) as u32, i / 3)).collect()
    }

    fn messages(ids: &[MsgId]) -> Vec<AppMessage> {
        ids.iter()
            .map(|i| AppMessage::new(*i, bytes::Bytes::new()))
            .collect()
    }

    #[test]
    fn a_forged_swap_is_rejected_and_a_short_log_is_a_prefix() {
        let reference = log(30);
        assert!(check_sequences(&[messages(&reference), messages(&reference[..20])]).is_empty());
        let mut swapped = reference.clone();
        swapped.swap(7, 8);
        let found = check_sequences(&[messages(&reference), messages(&swapped)]);
        assert!(found[0].contains("position 7"), "{found:?}");
        assert!(check_subsequence(&reference, &swapped, "p2").is_err());
        let mut twice = reference.clone();
        twice.push(reference[3]);
        assert!(check_sequences(&[messages(&twice)])[0].contains("Integrity"));
    }

    #[test]
    fn a_recovered_log_may_skip_but_not_reorder() {
        let reference = log(30);
        // Replayed 6..10 after the recovery, adopted 10..20 by state
        // transfer (not logged), then delivered 20..30.
        let mut recovered: Vec<MsgId> = reference[6..10].to_vec();
        recovered.extend_from_slice(&reference[20..]);
        assert!(check_subsequence(&reference, &recovered, "p0").is_ok());
        let mut replayed_twice = recovered.clone();
        replayed_twice.extend_from_slice(&reference[6..8]);
        assert!(check_subsequence(&reference, &replayed_twice, "p0").is_err());
        let mut foreign = recovered.clone();
        foreign.push(id(2, 999));
        assert!(check_subsequence(&reference, &foreign, "p0").is_err());
    }

    fn messages_with(ids: &[MsgId], bodies: &HashMap<MsgId, bytes::Bytes>) -> Vec<AppMessage> {
        ids.iter()
            .map(|i| AppMessage::new(*i, bodies[i].clone()))
            .collect()
    }

    fn queue_of(ids: &[MsgId], bodies: &HashMap<MsgId, bytes::Bytes>) -> AgreedQueue {
        let mut q = AgreedQueue::new();
        q.append_in_order(&messages_with(ids, bodies));
        q
    }

    #[test]
    fn a_forged_lost_message_counts_as_failed_and_a_forged_payload_as_invalid() {
        let ids = log(12);
        let bodies: HashMap<MsgId, bytes::Bytes> = ids
            .iter()
            .enumerate()
            .map(|(seq, i)| (*i, payload(5, seq as u64, 64)))
            .collect();
        let delivered: Vec<(MsgId, bytes::Bytes)> =
            ids.iter().map(|i| (*i, bodies[i].clone())).collect();
        let full = queue_of(&ids, &bodies);
        let clean = audit_requests(5, 64, 12, &delivered, &[&full, &full]);
        assert_eq!((clean.failed, clean.violations.len()), (0, 0));
        assert_eq!(clean.id_of[4], Some(ids[4]));

        // One process never delivered request 9.
        let mut short_ids = ids.clone();
        short_ids.remove(9);
        let lossy = queue_of(&short_ids, &bodies);
        assert_eq!(
            audit_requests(5, 64, 12, &delivered, &[&full, &lossy]).failed,
            1
        );
        // A request that was submitted but never came out anywhere.
        assert_eq!(
            audit_requests(5, 64, 13, &delivered, &[&full, &full]).failed,
            1
        );

        // A delivery whose payload no request carried.
        let mut forged = delivered.clone();
        forged[3].1 = payload(6, 3, 64);
        let bad = audit_requests(5, 64, 12, &forged, &[&full, &full]);
        assert!(
            bad.violations[0].starts_with("Validity"),
            "{:?}",
            bad.violations
        );
        // The same request under two identities.
        let mut twice = delivered.clone();
        twice.push((id(0, 77), bodies[&ids[2]].clone()));
        let dup = audit_requests(5, 64, 12, &twice, &[&full, &full]);
        assert!(
            dup.violations[0].starts_with("Integrity"),
            "{:?}",
            dup.violations
        );
    }

    #[test]
    fn the_repository_checker_sees_diverging_queues() {
        let ids = log(9);
        let bodies: HashMap<MsgId, bytes::Bytes> = ids
            .iter()
            .enumerate()
            .map(|(seq, i)| (*i, payload(1, seq as u64, 16)))
            .collect();
        let a = queue_of(&ids, &bodies);
        let mut swapped = ids.clone();
        swapped.swap(2, 5);
        let b = queue_of(&swapped, &bodies);
        let clean = check_queues(&[&a, &a], &ids, &ids, 4);
        assert!(clean.violations.is_empty() && clean.notes.is_empty());
        let found = check_queues(&[&a, &b], &ids, &ids, 4);
        assert!(
            found.violations.iter().any(|v| v.contains("Total Order")),
            "{found:?}"
        );
    }

    #[test]
    fn holes_left_by_compaction_are_a_note_not_a_violation() {
        // The order observed on `big_wal`: p2's #9 is delivered before its
        // #8, so a compaction after position 3 folds p0's prefix but must
        // leave p2#9 explicit; a later compaction elsewhere folds it all.
        let order = [
            id(2, 9),
            id(0, 0),
            id(0, 1),
            id(0, 2),
            id(2, 8),
            id(0, 3),
            id(1, 0),
        ];
        let bodies: HashMap<MsgId, bytes::Bytes> = order
            .iter()
            .enumerate()
            .map(|(seq, i)| (*i, payload(1, seq as u64, 16)))
            .collect();
        let mut early = queue_of(&order[..4], &bodies);
        early.compact(bytes::Bytes::new());
        assert_eq!(
            early.messages().len(),
            1,
            "p2#9 stays explicit behind the folded p0 prefix"
        );
        early.append_in_order(&messages_with(&order[4..], &bodies));
        let late = queue_of(&order, &bodies);
        let verdict = check_queues(&[&early, &late], &order, &order, 4);
        assert!(verdict.violations.is_empty(), "{verdict:?}");
        // Whether check_all trips on this shape is its business; if it
        // does, it must have been overruled.
        assert!(verdict.notes.iter().all(|n| n.contains("holes")));
    }

    #[test]
    fn a_restart_must_extend_the_sequence_it_shut_down_with() {
        let ids = log(12);
        let bodies: HashMap<MsgId, bytes::Bytes> = ids
            .iter()
            .enumerate()
            .map(|(seq, i)| (*i, payload(1, seq as u64, 16)))
            .collect();
        let after = queue_of(&ids, &bodies);
        assert!(check_restart_extends(&ids[..8], &after, "p0").is_ok());
        let short = queue_of(&ids[..6], &bodies);
        assert!(check_restart_extends(&ids[..8], &short, "p0")
            .unwrap_err()
            .contains("lost"));
        let mut swapped = ids.clone();
        swapped.swap(1, 4);
        let reordered = queue_of(&swapped, &bodies);
        assert!(check_restart_extends(&ids, &reordered, "p0")
            .unwrap_err()
            .contains("reordered"));
    }
}
