//! E1 — Minimal logging (Section 4.3).
//!
//! Claim: "Atomic Broadcast can be implemented without requiring any
//! additional log operations in excess of those required by the
//! Consensus."  The basic protocol's only write is the proposal logged by
//! the consensus substrate, so its per-message logging cost equals the
//! consensus cost; the alternative protocol pays a bounded extra for its
//! checkpoints and `Unordered` logging.

use abcast_core::ClusterConfig;
use abcast_types::{ProtocolConfig, SimDuration};

use crate::report::{fmt_f64, Table};
use crate::workload::run_load;

/// Runs the experiment.
pub fn run(quick: bool) -> Table {
    let messages = if quick { 30 } else { 200 };
    let sizes: &[usize] = if quick { &[3] } else { &[3, 5, 7] };
    let variants = [
        ("basic (minimal logging, §4)", ProtocolConfig::basic()),
        ("alternative (checkpointing, §5)", ProtocolConfig::alternative()),
    ];

    let mut table = Table::new(
        "E1",
        "stable-storage log operations per A-delivered message (§4.3)",
        &[
            "processes",
            "variant",
            "messages",
            "rounds",
            "write ops",
            "ops / msg / process",
            "bytes / msg / process",
        ],
    );

    for &n in sizes {
        for (label, protocol) in &variants {
            let (cluster, result) = run_load(
                ClusterConfig::basic(n)
                    .with_seed(101)
                    .with_protocol(protocol.clone()),
                messages,
                32,
                SimDuration::from_millis(5),
            );
            assert!(result.all_delivered, "E1 load must complete");
            let per_msg_per_proc =
                result.storage.write_ops() as f64 / (messages as f64 * n as f64);
            let bytes_per_msg_per_proc =
                result.storage.bytes_written as f64 / (messages as f64 * n as f64);
            table.push_row(vec![
                n.to_string(),
                label.to_string(),
                messages.to_string(),
                result.rounds.to_string(),
                result.storage.write_ops().to_string(),
                fmt_f64(per_msg_per_proc),
                fmt_f64(bytes_per_msg_per_proc),
            ]);
            drop(cluster);
        }
    }
    table.note(
        "basic = consensus-only cost (proposal + promise + accept + decision per round); \
         the transformation itself adds zero write operations",
    );
    table.note("alternative adds periodic (k, Agreed) checkpoints and Unordered logging");
    table
}

#[cfg(test)]
mod tests {
    #[test]
    fn basic_logs_less_than_alternative() {
        let table = super::run(true);
        // Rows: [basic, alternative] for n=3.
        let ops: Vec<f64> = table
            .rows
            .iter()
            .map(|row| row[5].parse::<f64>().expect("ops column is numeric"))
            .collect();
        assert_eq!(ops.len(), 2);
        assert!(
            ops[0] < ops[1],
            "basic ({}) must log less than alternative ({})",
            ops[0],
            ops[1]
        );
    }
}
