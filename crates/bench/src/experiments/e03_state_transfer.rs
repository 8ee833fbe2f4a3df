//! E3 — State transfer for processes that lag far behind (Section 5.3).
//!
//! Claim: a process that has been down for a long period "may have missed
//! many Consensus and may require a long time to catch up"; having an
//! up-to-date process ship its `(k, Agreed)` state lets it skip the missed
//! instances.  We keep a process down while `D` rounds are decided and
//! measure its catch-up time and how many rounds it skipped, for several Δ
//! thresholds and for the replay-only basic protocol.

use abcast_core::{Cluster, ClusterConfig};
use abcast_types::{ProcessId, ProtocolConfig, RecoveryPolicy, SimDuration};

use crate::report::{fmt_f64, Table};

fn variants() -> Vec<(&'static str, ProtocolConfig)> {
    let base = ProtocolConfig::alternative();
    vec![
        (
            "replay only (no state transfer)",
            ProtocolConfig {
                recovery: RecoveryPolicy::ReplayConsensus,
                ..base.clone()
            },
        ),
        ("state transfer, delta = 4", base.clone().with_delta(4)),
        ("state transfer, delta = 16", base.clone().with_delta(16)),
        ("state transfer, delta = 64", base.with_delta(64)),
    ]
}

/// Runs the experiment.
pub fn run(quick: bool) -> Table {
    let downtimes: &[usize] = if quick { &[40] } else { &[30, 100, 300] };
    let mut table = Table::new(
        "E3",
        "catch-up after a long outage: replay vs state transfer (§5.3)",
        &[
            "rounds missed",
            "variant",
            "catch-up time (ms)",
            "rounds skipped via state",
            "state transfers applied",
        ],
    );

    for &missed in downtimes {
        for (label, mut protocol) in variants() {
            protocol.batching = abcast_types::BatchingPolicy::WaitForAgreed;
            let mut cluster = Cluster::new(
                ClusterConfig::basic(3)
                    .with_seed(303)
                    .with_protocol(protocol),
            );
            let victim = ProcessId::new(2);

            // Take the victim down, then decide `missed` rounds without it.
            cluster.sim_mut().crash_now(victim);
            let mut ids = Vec::new();
            for i in 0..missed {
                if let Some(id) =
                    cluster.broadcast(ProcessId::new((i % 2) as u32), vec![i as u8; 16])
                {
                    ids.push(id);
                }
                cluster.run_for(SimDuration::from_millis(8));
            }
            let survivors = [ProcessId::new(0), ProcessId::new(1)];
            assert!(
                cluster.run_until_delivered(
                    &survivors,
                    &ids,
                    cluster.now() + SimDuration::from_secs(120)
                ),
                "survivors must deliver the load"
            );

            // Bring the victim back and measure its catch-up.
            cluster.sim_mut().recover_now(victim);
            let recovery_started = cluster.now();
            let caught_up = cluster.run_until_delivered(
                &[victim],
                &ids,
                recovery_started + SimDuration::from_secs(300),
            );
            assert!(caught_up, "victim must catch up eventually");
            let catch_up_ms = cluster
                .now()
                .duration_since(recovery_started)
                .as_micros() as f64
                / 1000.0;
            let metrics = cluster.sim().actor(victim).expect("up").metrics().clone();
            table.push_row(vec![
                missed.to_string(),
                label.to_string(),
                fmt_f64(catch_up_ms),
                metrics.skipped_rounds.to_string(),
                metrics.state_transfers_applied.to_string(),
            ]);
        }
    }
    table.note(
        "with state transfer the catch-up time is roughly independent of the number of \
         missed rounds; with replay only it grows linearly (one re-run consensus per round)",
    );
    table
}

#[cfg(test)]
mod tests {
    #[test]
    fn state_transfer_skips_rounds_and_is_faster_than_replay() {
        let table = super::run(true);
        // Row 0 = replay only, row 1 = delta 4.
        let replay_ms: f64 = table.rows[0][2].parse().expect("numeric");
        let transfer_ms: f64 = table.rows[1][2].parse().expect("numeric");
        let skipped: u64 = table.rows[1][3].parse().expect("numeric");
        assert!(skipped > 0, "delta=4 must skip rounds via state transfer");
        assert!(
            transfer_ms <= replay_ms,
            "state transfer ({transfer_ms} ms) should not be slower than replay ({replay_ms} ms)"
        );
    }
}
