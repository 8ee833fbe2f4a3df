//! E2 — Checkpointing shortens recovery (Section 5.1).
//!
//! Claim: periodically logging `(k, Agreed)` lets a recovering process skip
//! the replay of old consensus results.  We crash a process after `R`
//! delivered rounds and measure how many rounds its recovery replays and
//! how long (in virtual time) it takes to be fully caught up, for the basic
//! protocol (no checkpoint) and for several checkpoint periods.

use abcast_core::{Cluster, ClusterConfig};
use abcast_types::{ProcessId, ProtocolConfig, SimDuration};

use crate::report::Table;

fn variants() -> Vec<(&'static str, ProtocolConfig)> {
    let every =
        |ms| ProtocolConfig::alternative().with_checkpoint_period(SimDuration::from_millis(ms));
    vec![
        ("basic: no checkpoint (replay all)", ProtocolConfig::basic()),
        ("checkpoint every 50 ms", every(50)),
        ("checkpoint every 200 ms", every(200)),
        ("checkpoint every 800 ms", every(800)),
    ]
}

/// Runs the experiment.
pub fn run(quick: bool) -> Table {
    let rounds_before_crash: &[usize] = if quick { &[30] } else { &[50, 200] };
    let mut table = Table::new(
        "E2",
        "recovery cost vs checkpoint frequency (§5.1)",
        &[
            "rounds before crash",
            "variant",
            "replayed rounds",
            "bytes read on recovery",
            "checkpoints logged before crash",
        ],
    );

    for &rounds in rounds_before_crash {
        for (label, mut protocol) in variants() {
            // Disable batching so every message occupies its own round,
            // making "rounds before crash" precise.
            protocol.batching = abcast_types::BatchingPolicy::WaitForAgreed;
            let mut cluster = Cluster::new(
                ClusterConfig::basic(3)
                    .with_seed(202)
                    .with_protocol(protocol),
            );
            let victim = ProcessId::new(2);

            // Drive `rounds` messages through, one at a time.
            let mut ids = Vec::new();
            for i in 0..rounds {
                if let Some(id) =
                    cluster.broadcast(ProcessId::new((i % 2) as u32), vec![i as u8; 16])
                {
                    ids.push(id);
                }
                cluster.run_for(SimDuration::from_millis(8));
            }
            let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
            assert!(
                cluster.run_until_delivered(
                    &everyone,
                    &ids,
                    cluster.now() + SimDuration::from_secs(120)
                ),
                "E2 warm-up load must complete"
            );

            // Crash and immediately recover the victim; measure how much
            // work its recovery procedure performs.
            let checkpoints_before_crash = cluster
                .sim()
                .actor(victim)
                .expect("victim is up")
                .metrics()
                .agreed_checkpoints_logged;
            let reads_before = cluster.storage_of(victim);
            cluster.sim_mut().crash_now(victim);
            cluster.sim_mut().recover_now(victim);
            let recovery_started = cluster.now();
            let caught_up = cluster.run_until_delivered(
                &[victim],
                &ids,
                recovery_started + SimDuration::from_secs(120),
            );
            assert!(caught_up, "victim must eventually catch up");
            let reads = cluster.storage_of(victim).since(&reads_before);

            let metrics = cluster.sim().actor(victim).expect("victim is up").metrics().clone();
            table.push_row(vec![
                rounds.to_string(),
                label.to_string(),
                metrics.replayed_rounds_on_recovery.to_string(),
                reads.bytes_read.to_string(),
                checkpoints_before_crash.to_string(),
            ]);
        }
    }
    table.note(
        "with checkpoints the replay length is bounded by the number of rounds completed \
         since the last checkpoint; without them it grows with the full history",
    );
    table
}

#[cfg(test)]
mod tests {
    #[test]
    fn checkpoints_reduce_replay_length() {
        let table = super::run(true);
        let replayed: Vec<u64> = table
            .rows
            .iter()
            .map(|row| row[2].parse::<u64>().expect("replayed column is numeric"))
            .collect();
        // Row 0 is the basic protocol (replay everything), row 1 the most
        // frequent checkpointing.
        assert!(
            replayed[0] > replayed[1],
            "basic should replay more rounds ({}) than frequent checkpointing ({})",
            replayed[0],
            replayed[1]
        );
    }
}
