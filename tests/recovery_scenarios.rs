//! Workspace integration tests: crash-recovery behaviour end to end —
//! replay-based recovery, checkpoint-based recovery (with the replay it
//! saves pinned, Section 5.1), state transfer (with the rounds it skips
//! pinned, Section 5.3) and whole-deployment restarts.

use crash_recovery_abcast::core::{Cluster, ClusterConfig};
use crash_recovery_abcast::storage::SharedStorage;
use crash_recovery_abcast::types::{BatchingPolicy, RecoveryPolicy};
use crash_recovery_abcast::{
    ConsensusConfig, KvCommand, KvStore, LinkConfig, ProcessId, ProtocolConfig, Replica,
    SimConfig, SimDuration, SimTime, Simulation, StorageRegistry,
};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

#[test]
fn recovering_process_replays_and_rejoins_ordering_basic_protocol() {
    let mut cluster = Cluster::new(ClusterConfig::basic(3).with_seed(31));
    let mut ids = Vec::new();
    for i in 0..10 {
        ids.extend(cluster.broadcast(p(i % 2), vec![i as u8; 8]));
        cluster.run_for(SimDuration::from_millis(10));
    }
    let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
    assert!(cluster.run_until_delivered(&everyone, &ids, cluster.now() + SimDuration::from_secs(60)));

    // Crash p2 and keep broadcasting while it is down.
    cluster.sim_mut().crash_now(p(2));
    for i in 10..20 {
        ids.extend(cluster.broadcast(p(i % 2), vec![i as u8; 8]));
        cluster.run_for(SimDuration::from_millis(10));
    }
    cluster.sim_mut().recover_now(p(2));
    assert!(
        cluster.run_until_delivered(&everyone, &ids, cluster.now() + SimDuration::from_secs(120)),
        "recovered process must learn the messages it missed"
    );
    cluster.assert_properties();

    let metrics = cluster.sim().actor(p(2)).unwrap().metrics().clone();
    assert!(
        metrics.replayed_rounds_on_recovery > 0,
        "basic-protocol recovery goes through the replay procedure"
    );
    assert_eq!(cluster.sim().process_stats(p(2)).recoveries, 1);
}

/// Keeps p2 down while `missed` messages (`payload_len` bytes each, 8 ms
/// apart) are delivered by p0 and p1, then recovers it and runs until it
/// has caught up.  Returns the cluster and the virtual µs the catch-up took.
fn catch_up_after_outage(
    config: ClusterConfig,
    missed: usize,
    payload_len: usize,
) -> (Cluster, u64) {
    let mut cluster = Cluster::new(config);
    cluster.sim_mut().crash_now(p(2));
    let mut ids = Vec::new();
    for i in 0..missed {
        ids.extend(cluster.broadcast(p(i as u32 % 2), vec![i as u8; payload_len]));
        cluster.run_for(SimDuration::from_millis(8));
    }
    let survivors = [p(0), p(1)];
    assert!(cluster.run_until_delivered(&survivors, &ids, cluster.now() + SimDuration::from_secs(120)));

    cluster.sim_mut().recover_now(p(2));
    let recovered_at = cluster.now();
    assert!(
        cluster.run_until_delivered(&[p(2)], &ids, recovered_at + SimDuration::from_secs(300)),
        "lagging process must catch up"
    );
    let catch_up_us = cluster.now().duration_since(recovered_at).as_micros();
    cluster.assert_properties();
    (cluster, catch_up_us)
}

#[test]
fn long_outage_uses_state_transfer_and_skips_rounds() {
    let protocol = ProtocolConfig::alternative().with_delta(4);
    let (cluster, _) = catch_up_after_outage(
        ClusterConfig::alternative(3).with_seed(32).with_protocol(protocol),
        40,
        8,
    );
    let metrics = cluster.sim().actor(p(2)).unwrap().metrics().clone();
    assert!(metrics.state_transfers_applied >= 1, "state transfer must be used");
    assert!(metrics.skipped_rounds > 0, "rounds must be skipped");

    // And the senders did serve at least one state message.
    let served: u64 = [p(0), p(1)]
        .iter()
        .map(|q| cluster.sim().actor(*q).unwrap().metrics().state_transfers_sent)
        .sum();
    assert!(served >= 1);

    // Section 5.3: a process that missed many rounds catches up in about
    // the same time however many it missed, by installing a peer's
    // `(k, Agreed)` instead of re-running each consensus.  One message a
    // round, p2 down for 30 and then 300 rounds; replay-only catch-up
    // grows with the outage, Δ = 4 catch-up does not.
    let run = |protocol: ProtocolConfig, missed: usize| {
        let protocol = protocol.with_batching(BatchingPolicy::WaitForAgreed);
        let config = ClusterConfig::basic(3).with_seed(303).with_protocol(protocol);
        let (cluster, catch_up_us) = catch_up_after_outage(config, missed, 16);
        let metrics = cluster.sim().actor(p(2)).unwrap().metrics().clone();
        (catch_up_us, metrics.skipped_rounds, metrics.state_transfers_applied)
    };
    let replay_only = ProtocolConfig {
        recovery: RecoveryPolicy::ReplayConsensus,
        ..ProtocolConfig::alternative()
    };
    let transfer = ProtocolConfig::alternative().with_delta(4);
    let cells = [30, 300].map(|missed| {
        (missed, run(replay_only.clone(), missed), run(transfer.clone(), missed))
    });
    // (rounds missed, (catch-up µs, rounds skipped, state transfers)) for
    // replay only, then Δ = 4; recorded when the test was set.
    assert_eq!(
        cells,
        [
            (30, (45_196, 0, 0), (22_123, 26, 1)),
            (300, (518_114, 0, 0), (21_347, 292, 1)),
        ]
    );
}

/// Section 5.1: a recovering process replays only the rounds decided since
/// its last `(k, Agreed)` checkpoint.  One message a round, p2 crashed and
/// recovered after 50 and then 200 rounds: without checkpoints the replay
/// and the bytes read back grow with the history; with a checkpoint every
/// 50 ms both stay flat.
#[test]
fn agreed_checkpoints_bound_the_replay_on_recovery() {
    let run = |protocol: ProtocolConfig, rounds: usize| {
        let protocol = protocol.with_batching(BatchingPolicy::WaitForAgreed);
        let mut cluster =
            Cluster::new(ClusterConfig::basic(3).with_seed(202).with_protocol(protocol));
        let mut ids = Vec::new();
        for i in 0..rounds {
            ids.extend(cluster.broadcast(p(i as u32 % 2), vec![i as u8; 16]));
            cluster.run_for(SimDuration::from_millis(8));
        }
        let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
        assert!(cluster.run_until_delivered(&everyone, &ids, cluster.now() + SimDuration::from_secs(120)));

        let checkpoints = cluster.sim().actor(p(2)).unwrap().metrics().agreed_checkpoints_logged;
        let before = cluster.storage_of(p(2));
        cluster.sim_mut().crash_now(p(2));
        cluster.sim_mut().recover_now(p(2));
        assert!(
            cluster.run_until_delivered(&[p(2)], &ids, cluster.now() + SimDuration::from_secs(120)),
            "recovered process must catch up"
        );
        cluster.assert_properties();
        let bytes_read = cluster.storage_of(p(2)).since(&before).bytes_read;
        let replayed = cluster.sim().actor(p(2)).unwrap().metrics().replayed_rounds_on_recovery;
        (replayed, bytes_read, checkpoints)
    };
    let every_50_ms =
        ProtocolConfig::alternative().with_checkpoint_period(SimDuration::from_millis(50));
    let cells = [50, 200].map(|rounds| {
        (rounds, run(ProtocolConfig::basic(), rounds), run(every_50_ms.clone(), rounds))
    });
    // (rounds before the crash, (rounds replayed, bytes read on recovery,
    // checkpoints logged before the crash)) for basic, then checkpoints
    // every 50 ms; recorded when the test was set.
    assert_eq!(
        cells,
        [
            (50, (50, 5_872, 0), (0, 1_952, 8)),
            (200, (200, 23_400, 0), (0, 1_996, 32)),
        ]
    );
}

/// Pipelined recovery: a process crashes with several rounds in flight at
/// `W = 4` and must replay *every* in-flight round from the per-instance
/// consensus records (not just the lowest), rejoin the ordering, and end
/// with exactly the sequence a never-crashed `W = 1` deployment delivers
/// for the same workload.
#[test]
fn pipelined_recovery_replays_in_flight_rounds_and_matches_sequential_order() {
    let workload = |protocol: ProtocolConfig, crash: bool| {
        let mut cluster = Cluster::new(
            ClusterConfig::basic(3)
                .with_seed(36)
                .with_link(LinkConfig::reliable())
                .with_protocol(protocol),
        );
        let mut ids = Vec::new();
        // Single-sender load at one message per round so the window fills.
        for i in 0..8u8 {
            ids.extend(cluster.broadcast(p(0), vec![i; 4]));
            cluster.run_for(SimDuration::from_millis(1));
        }
        if crash {
            // p0 goes down right after submitting: whatever rounds it has
            // proposed-but-not-committed are its in-flight pipeline.
            cluster.sim_mut().crash_now(p(0));
            cluster.run_for(SimDuration::from_millis(60));
            cluster.sim_mut().recover_now(p(0));
        }
        for i in 8..12u8 {
            ids.extend(cluster.broadcast(p(1), vec![i; 4]));
            cluster.run_for(SimDuration::from_millis(1));
        }
        let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
        assert!(
            cluster.run_until_delivered(&everyone, &ids, cluster.now() + SimDuration::from_secs(60)),
            "all messages must be delivered (crash = {crash})"
        );
        cluster.assert_properties();
        (cluster.delivered(p(0)), cluster.sim().actor(p(0)).unwrap().metrics().clone())
    };

    let pipelined = ProtocolConfig::basic()
        .with_batching(BatchingPolicy::EarlyReturn { max_batch: 1 })
        .with_pipeline_depth(4);
    let sequential = ProtocolConfig::basic()
        .with_batching(BatchingPolicy::EarlyReturn { max_batch: 1 })
        .with_pipeline_depth(1);

    let (crashed_seq, crashed_metrics) = workload(pipelined, true);
    let (reference_seq, reference_metrics) = workload(sequential, false);
    assert_eq!(
        crashed_seq.len(),
        reference_seq.len(),
        "both runs deliver the full workload"
    );
    assert_eq!(
        crashed_seq, reference_seq,
        "recovered W = 4 delivery order must match the never-crashed W = 1 run"
    );
    assert!(
        crashed_metrics.max_rounds_in_flight > 1,
        "the pipeline must have been in flight before the crash"
    );
    assert_eq!(reference_metrics.max_rounds_in_flight, 1);
}

/// Regression test (delayed-link simulation): consensus traffic arriving
/// for rounds below a peer's forget watermark used to lazily recreate a
/// fresh instance per message.  The nastiest shape is a repeatedly-crashing
/// laggard: on every recovery it proposes/queries the stale rounds *it* is
/// still at, which its up-to-date peers forgot long ago — each such round
/// resurrected a proposal-less, never-decided instance at the peers that no
/// cleanup ever removed again (`forget_decided_below` only drops *decided*
/// instances), so peer memory grew with every outage.
#[test]
fn stale_queries_after_outages_do_not_resurrect_forgotten_rounds() {
    let link = LinkConfig::lan()
        .with_duplication(0.2)
        .with_delay(SimDuration::from_micros(200), SimDuration::from_millis(10));
    let protocol = ProtocolConfig::alternative()
        .with_delta(2)
        .with_batching(BatchingPolicy::EarlyReturn { max_batch: 2 })
        .with_pipeline_depth(4)
        .with_checkpoint_period(SimDuration::from_millis(30));
    let mut cluster = Cluster::new(
        ClusterConfig::alternative(3)
            .with_seed(37)
            .with_link(link)
            .with_protocol(protocol),
    );
    let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
    let mut ids = Vec::new();
    for cycle in 0..3u8 {
        // p2 misses a stretch of rounds long enough that the survivors'
        // checkpoint tasks forget them (retention is Δ + 4 = 6 rounds).
        cluster.sim_mut().crash_now(p(2));
        for i in 0..14u8 {
            ids.extend(cluster.broadcast(p((i % 2) as u32), vec![cycle * 20 + i; 8]));
            cluster.run_for(SimDuration::from_millis(6));
        }
        let survivors = [p(0), p(1)];
        assert!(
            cluster.run_until_delivered(&survivors, &ids, cluster.now() + SimDuration::from_secs(60)),
            "survivors must keep ordering during outage {cycle}"
        );
        cluster.run_for(SimDuration::from_millis(300));
        // p2 comes back at its pre-crash round and gossips/queries from
        // there — rounds its peers have already discarded — until a state
        // transfer pulls it forward.
        cluster.sim_mut().recover_now(p(2));
        assert!(
            cluster.run_until_delivered(&everyone, &ids, cluster.now() + SimDuration::from_secs(60)),
            "the laggard must catch up after outage {cycle}"
        );
    }
    cluster.run_for(SimDuration::from_millis(500));
    cluster.assert_properties();
    for q in [p(0), p(1)] {
        let rounds = cluster.sim().actor(q).unwrap().metrics().rounds_completed;
        let instances = cluster.sim().actor(q).unwrap().consensus_instance_count();
        assert!(rounds >= 18, "{q} completed only {rounds} rounds");
        // Bounded by the retention window (Δ + 4 decided rounds) plus the
        // open pipeline; stale instances accumulating across the three
        // outages would blow well past this.
        assert!(
            instances <= 12,
            "{q} tracks {instances} consensus instances after {rounds} rounds — \
             stale traffic for forgotten rounds must not resurrect instances"
        );
    }
}

#[test]
fn entire_deployment_restart_resumes_from_stable_storage() {
    let storage = StorageRegistry::in_memory(3);
    let config = SimConfig {
        processes: 3,
        seed: 33,
        link: crash_recovery_abcast::LinkConfig::lan(),
    };
    let build = |_p: ProcessId, _s: SharedStorage| {
        crash_recovery_abcast::AtomicBroadcast::new(
            ProtocolConfig::alternative(),
            ConsensusConfig::crash_recovery(),
        )
    };

    // Phase 1: order some messages, then lose every process at once.
    let ids;
    {
        let mut sim = Simulation::with_storage(config.clone(), storage.clone(), build);
        let mut submitted = Vec::new();
        for i in 0..8u64 {
            let sender = p((i % 3) as u32);
            let id = sim
                .with_actor_mut(sender, |a, ctx| a.a_broadcast(vec![i as u8; 8], ctx))
                .unwrap();
            submitted.push(id);
            sim.run_for(SimDuration::from_millis(20));
        }
        sim.run_for(SimDuration::from_secs(2));
        for q in sim.processes().iter() {
            assert!(submitted.iter().all(|id| sim.actor(q).unwrap().is_delivered(*id)));
        }
        ids = submitted;
    }

    // Phase 2: a brand-new simulation over the *same* stable storage — the
    // history must still be there and ordering must resume.
    let mut sim = Simulation::with_storage(config, storage, build);
    for q in sim.processes().iter() {
        for id in &ids {
            assert!(
                sim.actor(q).unwrap().is_delivered(*id),
                "{q} lost {id} across the restart"
            );
        }
    }
    // New messages continue after the old ones, in a single total order.
    let new_id = sim
        .with_actor_mut(p(0), |a, ctx| a.a_broadcast(b"after-restart".to_vec(), ctx))
        .unwrap();
    let ok = sim.run_until(SimTime::from_micros(30_000_000), |sim| {
        sim.processes()
            .iter()
            .all(|q| sim.actor(q).map(|a| a.is_delivered(new_id)).unwrap_or(false))
    });
    assert!(ok, "ordering must keep working after a full restart");
}

#[test]
fn repeated_crashes_of_the_same_process_never_violate_safety() {
    let mut cluster = Cluster::new(ClusterConfig::alternative(3).with_seed(34));
    let mut ids = Vec::new();
    for burst in 0..5 {
        for i in 0..4 {
            ids.extend(cluster.broadcast(p(i % 2), vec![burst as u8, i as u8]));
            cluster.run_for(SimDuration::from_millis(10));
        }
        // Crash and recover p2 between bursts.
        cluster.sim_mut().crash_now(p(2));
        cluster.run_for(SimDuration::from_millis(50));
        cluster.sim_mut().recover_now(p(2));
        cluster.run_for(SimDuration::from_millis(50));
    }
    let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
    assert!(cluster.run_until_delivered(&everyone, &ids, cluster.now() + SimDuration::from_secs(120)));
    cluster.assert_properties();
    assert_eq!(cluster.sim().process_stats(p(2)).crashes, 5);
}

#[test]
fn replicated_kv_survives_rolling_restarts_of_every_replica() {
    type KvReplica = Replica<KvStore>;
    let mut sim = Simulation::new(SimConfig { processes: 3, seed: 35, link: crash_recovery_abcast::LinkConfig::lan() }, |_p, _s| {
        KvReplica::new(ProtocolConfig::alternative(), ConsensusConfig::crash_recovery())
    });
    let mut ids = Vec::new();
    for round in 0..3u32 {
        // Roll through every replica: crash it, write elsewhere, recover it.
        for victim in 0..3u32 {
            sim.crash_now(p(victim));
            let writer = p((victim + 1) % 3);
            let cmd = KvCommand::put(format!("round{round}-v{victim}"), "x");
            if let Some(id) = sim.with_actor_mut(writer, |r, ctx| r.submit(&cmd, ctx)) {
                ids.push(id);
            }
            sim.run_for(SimDuration::from_millis(80));
            sim.recover_now(p(victim));
            sim.run_for(SimDuration::from_millis(80));
        }
    }
    let ok = sim.run_until(SimTime::from_micros(120_000_000), |sim| {
        sim.processes().iter().all(|q| {
            sim.actor(q)
                .map(|r| ids.iter().all(|id| r.has_executed(*id)))
                .unwrap_or(false)
        })
    });
    assert!(ok, "rolling restarts must not lose updates");
    let reference = sim.actor(p(0)).unwrap().state().clone();
    assert_eq!(reference.len(), 9);
    for q in sim.processes().iter() {
        assert_eq!(sim.actor(q).unwrap().state(), &reference);
    }
}
