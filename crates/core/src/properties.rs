//! Checkers for the four properties that define Atomic Broadcast in the
//! crash-recovery model (Section 2.2).
//!
//! Tests and experiments collect the delivery sequences of all processes
//! (and the multiset of broadcast messages) after a run and feed them to
//! these functions:
//!
//! * **Validity** — no spurious messages: everything delivered was
//!   broadcast;
//! * **Integrity** — no message appears twice in any sequence;
//! * **Total Order** — the sequences are pairwise prefix-related;
//! * **Termination** — every message required to be delivered (broadcast by
//!   a good process, or delivered by anyone) is delivered by every good
//!   process.

use std::collections::{BTreeMap, BTreeSet};

use abcast_types::{AppMessage, MsgId};

use crate::queues::AgreedQueue;

/// A violation found by one of the property checkers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which property was violated.
    pub property: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl Violation {
    fn new(property: &'static str, detail: impl Into<String>) -> Self {
        Violation {
            property,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} violated: {}", self.property, self.detail)
    }
}

/// Integrity: a message appears at most once in a delivery sequence.
pub fn check_integrity(sequence: &[AppMessage]) -> Result<(), Violation> {
    let mut seen = BTreeSet::new();
    for m in sequence {
        if !seen.insert(m.id()) {
            return Err(Violation::new(
                "Integrity",
                format!("message {} delivered more than once", m.id()),
            ));
        }
    }
    Ok(())
}

/// Validity: every delivered message was A-broadcast by some process.
pub fn check_validity(
    sequence: &[AppMessage],
    broadcast: &BTreeSet<MsgId>,
) -> Result<(), Violation> {
    for m in sequence {
        if !broadcast.contains(&m.id()) {
            return Err(Violation::new(
                "Validity",
                format!("message {} was delivered but never broadcast", m.id()),
            ));
        }
    }
    Ok(())
}

/// Total Order over explicit sequences: for every pair, one is a prefix of
/// the other.
pub fn check_total_order(sequences: &[Vec<AppMessage>]) -> Result<(), Violation> {
    for (i, a) in sequences.iter().enumerate() {
        for (j, b) in sequences.iter().enumerate().skip(i + 1) {
            let shorter = a.len().min(b.len());
            for position in 0..shorter {
                if a[position].id() != b[position].id() {
                    return Err(Violation::new(
                        "Total Order",
                        format!(
                            "sequences of process {i} and process {j} diverge at position \
                             {position}: {} vs {}",
                            a[position].id(),
                            b[position].id()
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Total Order in the presence of application checkpoints: delivery
/// sequences may start with a checkpoint instead of explicit messages, so
/// the prefix relation is checked on *identities in delivery order*, where
/// a process whose sequence was compacted (or adopted through a state
/// transfer) is allowed to be missing an arbitrary prefix, but never to
/// reorder, interleave or skip a message another process delivered inside
/// the same span.
///
/// Compaction folds gap-free per-sender prefixes into the checkpoint, so
/// with out-of-order deliveries (pipelined rounds) it can also punch
/// *holes* into the explicit part: a gap-closing message delivered after a
/// still-explicit one is compacted while the earlier one stays.  An id
/// missing from one window inside the span both windows share is
/// therefore fine exactly when that process's checkpoint covers it.
pub fn check_total_order_compacted(queues: &[&AgreedQueue]) -> Result<(), Violation> {
    // For every process, the ordered list of explicit identities: a window
    // of the one true delivery order, with a compacted (or adopted) prefix,
    // possibly compaction holes, and a tail not delivered yet.
    let explicit: Vec<Vec<MsgId>> = queues
        .iter()
        .map(|q| q.messages().iter().map(AppMessage::id).collect())
        .collect();
    for (i, a) in explicit.iter().enumerate() {
        for (j, b) in explicit.iter().enumerate().skip(i + 1) {
            let b_position: BTreeMap<MsgId, usize> =
                b.iter().enumerate().map(|(k, id)| (*id, k)).collect();
            // Ids explicit in both windows, as (position in a, in b).
            let common: Vec<(usize, usize)> = a
                .iter()
                .enumerate()
                .filter_map(|(k, id)| b_position.get(id).map(|&kb| (k, kb)))
                .collect();
            let (Some(&(a_first, b_first)), Some(&(a_last, b_last))) = (common.first(), common.last())
            else {
                // Disjoint windows carry no ordering evidence.
                continue;
            };
            // Same order on the common ids…
            if let Some(pair) = common.windows(2).find(|pair| pair[0].1 > pair[1].1) {
                return Err(Violation::new(
                    "Total Order",
                    format!(
                        "processes {i} and {j} deliver {} and {} in opposite orders",
                        a[pair[0].0], a[pair[1].0]
                    ),
                ));
            }
            // …and nothing inside the shared span skipped by one window
            // unless its own checkpoint covers it.
            let spans = [
                (i, &a[a_first..=a_last], j, queues[j]),
                (j, &b[b_first..=b_last], i, queues[i]),
            ];
            for (holder, span, other, other_queue) in spans {
                let other_ids: BTreeSet<&MsgId> = explicit[other].iter().collect();
                if let Some(skipped) = span
                    .iter()
                    .find(|id| !other_ids.contains(id) && !other_queue.checkpoint().vc.contains(**id))
                {
                    return Err(Violation::new(
                        "Total Order",
                        format!(
                            "process {other} skips {skipped}, which process {holder} delivers \
                             inside the span both windows share"
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Termination: every identity in `must_deliver` appears in the delivery
/// sequence of every good process.
pub fn check_termination(
    good_sequences: &[(usize, &AgreedQueue)],
    must_deliver: &BTreeSet<MsgId>,
) -> Result<(), Violation> {
    for (process, queue) in good_sequences {
        for id in must_deliver {
            if !queue.contains(*id) {
                return Err(Violation::new(
                    "Termination",
                    format!("good process {process} never delivered {id}"),
                ));
            }
        }
    }
    Ok(())
}

/// Runs every checker over a full run outcome and returns all violations.
pub fn check_all(
    queues: &[&AgreedQueue],
    good: &[usize],
    broadcast: &BTreeSet<MsgId>,
    must_deliver: &BTreeSet<MsgId>,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    for q in queues {
        if let Err(v) = check_integrity(q.messages()) {
            violations.push(v);
        }
        if let Err(v) = check_validity(q.messages(), broadcast) {
            violations.push(v);
        }
    }
    if let Err(v) = check_total_order_compacted(queues) {
        violations.push(v);
    }
    let good_queues: Vec<(usize, &AgreedQueue)> = good
        .iter()
        .filter_map(|i| queues.get(*i).map(|q| (*i, *q)))
        .collect();
    if let Err(v) = check_termination(&good_queues, must_deliver) {
        violations.push(v);
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast_types::{Payload, ProcessId};

    fn msg(sender: u32, seq: u64) -> AppMessage {
        AppMessage::from_parts(ProcessId::new(sender), seq, vec![])
    }

    fn ids(messages: &[AppMessage]) -> BTreeSet<MsgId> {
        messages.iter().map(AppMessage::id).collect()
    }

    #[test]
    fn integrity_detects_duplicates() {
        assert!(check_integrity(&[msg(0, 0), msg(1, 0)]).is_ok());
        let err = check_integrity(&[msg(0, 0), msg(0, 0)]).unwrap_err();
        assert_eq!(err.property, "Integrity");
        assert!(err.to_string().contains("p0#0"));
    }

    #[test]
    fn validity_detects_spurious_messages() {
        let broadcast = ids(&[msg(0, 0)]);
        assert!(check_validity(&[msg(0, 0)], &broadcast).is_ok());
        let err = check_validity(&[msg(9, 9)], &broadcast).unwrap_err();
        assert_eq!(err.property, "Validity");
    }

    #[test]
    fn total_order_accepts_prefixes_and_rejects_divergence() {
        let a = vec![msg(0, 0), msg(1, 0), msg(1, 1)];
        let b = vec![msg(0, 0), msg(1, 0)];
        let c: Vec<AppMessage> = vec![];
        assert!(check_total_order(&[a.clone(), b.clone(), c]).is_ok());

        let diverging = vec![msg(0, 0), msg(1, 1)];
        let err = check_total_order(&[a, diverging]).unwrap_err();
        assert_eq!(err.property, "Total Order");
        assert!(err.detail.contains("position 1"));
    }

    #[test]
    fn compacted_total_order_allows_missing_prefixes_only() {
        let mut full = AgreedQueue::new();
        full.append_batch(&[msg(0, 0), msg(0, 1), msg(1, 0), msg(1, 1)]);

        let mut compacted = AgreedQueue::new();
        compacted.append_batch(&[msg(0, 0), msg(0, 1), msg(1, 0), msg(1, 1)]);
        compacted.compact(Payload::new());
        compacted.append_batch(&[]);

        let mut suffix_only = AgreedQueue::new();
        suffix_only.append_batch(&[msg(0, 0), msg(0, 1)]);
        suffix_only.compact(Payload::new());
        // After compaction it delivers the rest explicitly.
        suffix_only.append_batch(&[msg(1, 0), msg(1, 1)]);

        assert!(check_total_order_compacted(&[&full, &compacted, &suffix_only]).is_ok());

        let mut reordered = AgreedQueue::new();
        reordered.append_batch(&[msg(1, 1)]);
        reordered.append_batch(&[msg(1, 0)]);
        let err = check_total_order_compacted(&[&full, &reordered]).unwrap_err();
        assert_eq!(err.property, "Total Order");
    }

    #[test]
    fn lagging_window_behind_a_compacted_reference_is_not_a_violation() {
        // Found by sim_fuzz seed 144: the process with the *longest*
        // explicit sequence had compacted p0#0 into its checkpoint, while
        // a lagging recovering process held only p0#0 explicitly.  The two
        // windows overlap on nothing contradictory, so this must pass.
        let mut compacted_leader = AgreedQueue::new();
        compacted_leader.append_batch(&[msg(0, 0)]);
        compacted_leader.compact(Payload::new());
        compacted_leader.append_batch(&[msg(0, 1), msg(0, 2), msg(1, 0), msg(1, 1)]);

        let mut lagging = AgreedQueue::new();
        lagging.append_batch(&[msg(0, 0)]);
        assert!(check_total_order_compacted(&[&compacted_leader, &lagging]).is_ok());

        // But a gap *inside* the shared span is still caught: a window
        // that skips p0#2 between p0#1 and p1#0 disagrees with the leader.
        let mut gapped = AgreedQueue::new();
        gapped.append_batch(&[msg(0, 1)]);
        gapped.append_batch(&[msg(1, 0)]);
        let err = check_total_order_compacted(&[&compacted_leader, &gapped]).unwrap_err();
        assert_eq!(err.property, "Total Order");
    }

    #[test]
    fn a_compaction_hole_inside_the_shared_span_is_not_a_violation() {
        // The hole shape of `AgreedQueue::compact` under pipelining (seen by
        // the benchmark in ~1 of 20 `big_wal` runs): p2#1 is delivered
        // before p2#0, then p1#0; compaction folds in p1#0 but must keep
        // p2#1 explicit, so the explicit part skips a message delivered
        // after its first entry.
        let sequence = [msg(2, 1), msg(1, 0), msg(2, 0), msg(0, 0)];
        let mut holed = AgreedQueue::new();
        holed.append_batch(&sequence[..1]);
        holed.append_batch(&sequence[1..2]);
        holed.compact(Payload::new());
        assert_eq!(holed.messages().len(), 1, "p2#1 stays explicit ahead of the hole");
        holed.append_batch(&sequence[2..3]);
        holed.append_batch(&sequence[3..]);

        let mut full = AgreedQueue::new();
        for m in &sequence {
            full.append_batch(std::slice::from_ref(m));
        }
        assert!(check_total_order_compacted(&[&holed, &full]).is_ok());
        assert!(check_total_order_compacted(&[&full, &holed]).is_ok());

        // Without a checkpoint covering it, the same skip is a violation.
        let mut skipping = AgreedQueue::new();
        for m in [&sequence[0], &sequence[2], &sequence[3]] {
            skipping.append_batch(std::slice::from_ref(m));
        }
        let err = check_total_order_compacted(&[&full, &skipping]).unwrap_err();
        assert_eq!(err.property, "Total Order");
        assert!(err.detail.contains("p1#0"), "{err}");
    }

    #[test]
    fn termination_requires_good_processes_to_deliver_everything() {
        let mut q0 = AgreedQueue::new();
        q0.append_batch(&[msg(0, 0), msg(1, 0)]);
        let mut q1 = AgreedQueue::new();
        q1.append_batch(&[msg(0, 0)]);

        let must = ids(&[msg(0, 0), msg(1, 0)]);
        assert!(check_termination(&[(0, &q0)], &must).is_ok());
        let err = check_termination(&[(0, &q0), (1, &q1)], &must).unwrap_err();
        assert_eq!(err.property, "Termination");
        assert!(err.detail.contains("process 1"));
    }

    #[test]
    fn check_all_aggregates_violations() {
        let mut good_queue = AgreedQueue::new();
        good_queue.append_batch(&[msg(0, 0)]);
        let broadcast = ids(&[msg(0, 0)]);
        let must = ids(&[msg(0, 0)]);
        let violations = check_all(&[&good_queue], &[0], &broadcast, &must);
        assert!(violations.is_empty(), "{violations:?}");

        // A spurious, duplicated message triggers several violations.
        let mut bad_queue = AgreedQueue::new();
        bad_queue.append_batch(&[msg(7, 7)]);
        let violations = check_all(&[&bad_queue], &[0], &broadcast, &must);
        assert!(violations.iter().any(|v| v.property == "Validity"));
        assert!(violations.iter().any(|v| v.property == "Termination"));
    }
}
