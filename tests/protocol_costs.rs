//! Workspace integration tests: what the protocol costs, counted in the
//! simulator (rounds, stable-storage writes, virtual time, payload copies)
//! — the basic variant's minimal logging (Section 4.3), batching proposals
//! (Section 5.4), group commit over WAL files, pipelined rounds, the
//! zero-copy payload path, and the exact counts of a fixed-seed run that
//! pin the program's behaviour.

use crash_recovery_abcast::core::{Cluster, ClusterConfig};
use crash_recovery_abcast::storage::{keys, StorageKey};
use crash_recovery_abcast::types::{copymeter, BatchingPolicy};
use crash_recovery_abcast::{LinkConfig, ProcessId, ProtocolConfig, SimDuration, StorageRegistry};

/// Submits `messages` round-robin, `gap` apart, and runs until every
/// process delivered them all; returns the virtual seconds that took.
fn run_load(cluster: &mut Cluster, messages: usize, gap: SimDuration) -> f64 {
    let started = cluster.now();
    let n = cluster.processes().len();
    for i in 0..messages {
        let sender = ProcessId::new((i % n) as u32);
        cluster.broadcast(sender, vec![i as u8; 32]).expect("sender is up");
        cluster.run_for(gap);
    }
    let deadline = cluster.now() + SimDuration::from_secs(60);
    assert!(cluster.run_until_all_delivered(deadline), "load must complete");
    cluster.assert_properties();
    cluster.now().duration_since(started).as_secs_f64()
}

#[test]
fn basic_variant_logs_nothing_beyond_consensus() {
    // Section 4.3: "Atomic Broadcast can be implemented without requiring
    // any additional log operations in excess of those required by the
    // Consensus."  200 messages of 32 bytes, round-robin 5 ms apart, at
    // N = 3, 5 and 7: the basic variant's stores hold consensus records
    // plus the two start-of-incarnation epochs and nothing else, while the
    // alternative pays extra writes for `Unordered` and `(k, Agreed)`.
    let run = |n: usize, protocol: ProtocolConfig| {
        let config = ClusterConfig::basic(n).with_seed(101).with_protocol(protocol);
        let mut cluster = Cluster::new(config);
        let before = cluster.storage_totals();
        run_load(&mut cluster, 200, SimDuration::from_millis(5));
        let write_ops = cluster.storage_totals().since(&before).write_ops();
        let rounds = cluster
            .sim()
            .actor(ProcessId::new(0))
            .expect("p0 is up")
            .metrics()
            .rounds_completed;
        (cluster, write_ops, rounds)
    };
    let consensus_or_epoch = |key: &StorageKey| {
        let per_round = keys::parse_consensus_instance(key).map(|k| {
            [
                keys::consensus_proposal(k),
                keys::consensus_promised(k),
                keys::consensus_accepted(k),
                keys::consensus_decided(k),
            ]
        });
        per_round.is_some_and(|records| records.contains(key))
            || *key == keys::broadcast_epoch()
            || *key == keys::fd_epoch()
    };
    let mut counts = Vec::new();
    for n in [3, 5, 7] {
        let (basic, basic_ops, basic_rounds) = run(n, ProtocolConfig::basic());
        for (p, store) in basic.sim().storage().iter() {
            for key in store.keys().expect("keys list") {
                assert!(
                    consensus_or_epoch(&key),
                    "N = {n}: basic variant logged `{key}` at {p}, beyond consensus"
                );
            }
        }
        let (_, alternative_ops, alternative_rounds) = run(n, ProtocolConfig::alternative());
        assert_eq!(basic_rounds, alternative_rounds, "N = {n}: same load, same rounds");
        counts.push((n, basic_ops, alternative_ops, basic_rounds));
    }
    // (N, basic write ops, alternative write ops, rounds), recorded when
    // the test was set; a change that moves any of them changed what the
    // protocol logs or how it batches.
    assert_eq!(
        counts,
        [(3, 2255, 2492, 140), (5, 3285, 3550, 127), (7, 4298, 4578, 121)]
    );
}

#[test]
fn larger_batches_use_no_more_rounds_and_no_more_virtual_time() {
    let run = |max_batch| {
        let protocol = ProtocolConfig::alternative()
            .with_batching(BatchingPolicy::EarlyReturn { max_batch });
        let mut cluster =
            Cluster::new(ClusterConfig::basic(3).with_seed(404).with_protocol(protocol));
        let secs = run_load(&mut cluster, 60, SimDuration::from_micros(500));
        let rounds = cluster
            .sim()
            .actor(ProcessId::new(0))
            .expect("p0 is up")
            .metrics()
            .rounds_completed;
        (rounds, secs)
    };
    let (single_rounds, single_secs) = run(1);
    let (batched_rounds, batched_secs) = run(256);
    assert!(
        batched_rounds <= single_rounds,
        "batch <= 256 used {batched_rounds} rounds, batch <= 1 used {single_rounds}"
    );
    // The same messages in no more virtual time: no lower throughput.
    assert!(
        batched_secs <= single_secs,
        "batch <= 256 took {batched_secs} s, batch <= 1 took {single_secs} s"
    );
}

#[test]
fn wal_group_commit_write_and_sync_counts_match_their_recorded_values() {
    // The simulator over real WAL files (group window 8), 120 messages 5 ms
    // apart, counted from after construction.  Every protocol step is one
    // record group, and one fsync covers a window of group commits.  A
    // backend that synced every write would pay one barrier per write op,
    // so write ops per barrier is the factor group commit saves.
    let run = |variant: &str, protocol: ProtocolConfig| {
        let dir = std::env::temp_dir()
            .join(format!("abcast-it-group-commit-{variant}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = StorageRegistry::wal_in(&dir, 3, 8).expect("wal registry opens");
        let config = ClusterConfig::basic(3).with_seed(1101).with_protocol(protocol);
        let mut cluster = Cluster::with_registry(config, registry);
        let before = cluster.storage_totals();
        run_load(&mut cluster, 120, SimDuration::from_millis(5));
        let storage = cluster.storage_totals().since(&before);
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
        (storage.write_ops(), storage.sync_ops)
    };
    let counts = [
        ("basic", ProtocolConfig::basic()),
        ("alternative", ProtocolConfig::alternative()),
    ]
    .map(|(variant, protocol)| (variant, run(variant, protocol)));
    for (variant, (write_ops, sync_ops)) in counts {
        assert!(
            write_ops >= 3 * sync_ops,
            "{variant}: {write_ops} write ops under {sync_ops} fsyncs, fewer than 3 per barrier"
        );
    }
    // Recorded when the gate was set; a change that moves either count
    // changed how the protocol logs.
    assert_eq!(counts, [("basic", (1349, 101)), ("alternative", (1490, 116))]);
}

#[test]
fn pipelined_rounds_deliver_in_at_most_two_thirds_of_the_sequential_virtual_time() {
    // Bounded batches (at most 4 messages a round) over a 2–5 ms link, so
    // the sequential round loop, not batching, limits delivery.  W = 4
    // keeps four consensus instances open; decided batches still apply in
    // round order.
    let run = |protocol: ProtocolConfig, depth: u64| {
        let config = ClusterConfig::basic(3)
            .with_seed(1201)
            .with_link(
                LinkConfig::lan()
                    .with_delay(SimDuration::from_millis(2), SimDuration::from_millis(5)),
            )
            .with_protocol(
                protocol
                    .with_batching(BatchingPolicy::EarlyReturn { max_batch: 4 })
                    .with_pipeline_depth(depth),
            );
        let mut cluster = Cluster::new(config);
        let secs = run_load(&mut cluster, 24, SimDuration::from_micros(500));
        let peak_in_flight = cluster
            .processes()
            .iter()
            .filter_map(|p| cluster.sim().actor(p))
            .map(|a| a.metrics().max_rounds_in_flight)
            .max()
            .expect("processes are up");
        (secs, peak_in_flight)
    };
    for (variant, protocol) in [
        ("basic", ProtocolConfig::basic()),
        ("alternative", ProtocolConfig::alternative()),
    ] {
        let (sequential_secs, sequential_peak) = run(protocol.clone(), 1);
        let (pipelined_secs, pipelined_peak) = run(protocol, 4);
        assert!(
            pipelined_secs * 1.5 <= sequential_secs,
            "{variant}: W = 4 took {pipelined_secs} s, W = 1 took {sequential_secs} s"
        );
        assert_eq!(sequential_peak, 1, "{variant}: W = 1 never runs ahead");
        assert!(pipelined_peak > 1, "{variant}: W = 4 must overlap rounds");
    }
}

#[test]
fn zero_copy_payload_path_copies_no_more_than_its_recorded_count() {
    // Frames over a 2–5 ms link, pipelined consensus (W = 4, batches of at
    // most 4) and a WAL registry: every layer a payload crosses.  This
    // workload counted 437 payload memcpys for 24 messages delivered at 3
    // processes (6.069 per delivered message) when the bound was set.
    const CEILING: u64 = 437;
    const MESSAGES: usize = 24;
    let dir = std::env::temp_dir().join(format!("abcast-it-copies-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = StorageRegistry::wal_in(&dir, 3, 8).expect("wal registry opens");
    let config = ClusterConfig::basic(3)
        .with_seed(1301)
        .with_link(
            LinkConfig::lan().with_delay(SimDuration::from_millis(2), SimDuration::from_millis(5)),
        )
        .with_protocol(
            ProtocolConfig::alternative()
                .with_batching(BatchingPolicy::EarlyReturn { max_batch: 4 })
                .with_pipeline_depth(4),
        );
    let mut cluster = Cluster::with_registry(config, registry);

    let before = copymeter::snapshot();
    for i in 0..MESSAGES {
        let sender = ProcessId::new((i % 3) as u32);
        cluster
            .broadcast(sender, vec![(i % 251) as u8; 32])
            .expect("sender is up");
        cluster.run_for(SimDuration::from_micros(500));
    }
    let deadline = cluster.now() + SimDuration::from_secs(60);
    assert!(
        cluster.run_until_all_delivered(deadline),
        "load must complete"
    );
    let copies = copymeter::snapshot().since(&before);

    assert_eq!(cluster.decode_failures(), 0, "no frame may fail to decode");
    cluster.assert_properties();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);

    let per_delivered = copies.payload_copies as f64 / (MESSAGES * 3) as f64;
    assert!(
        copies.payload_copies <= CEILING,
        "{} payload copies ({} bytes, {per_delivered:.3} per delivered message), \
         ceiling {CEILING}",
        copies.payload_copies,
        copies.bytes_copied
    );
    println!(
        "payload copies: {} ({per_delivered:.3} per delivered message)",
        copies.payload_copies
    );
}

/// Counts of one fixed-seed simulated run that cannot drift unless the
/// program's behaviour does.
#[derive(Debug, PartialEq, Eq)]
struct SimCounts {
    sync_ops: u64,
    bytes_written: u64,
    frames_sent: u64,
    rounds_completed: u64,
}

/// Runs the benchmark's simulated shape — N = 3, W = 4, LAN link, 64-byte
/// payloads, one round-robin broadcast per virtual millisecond — for
/// `messages` messages under `protocol` and returns its counts.
fn simulated_counts(protocol: ProtocolConfig, messages: usize) -> SimCounts {
    let config = ClusterConfig::basic(3)
        .with_protocol(protocol.with_pipeline_depth(4))
        .with_seed(0x5EED_0011)
        .with_link(LinkConfig::lan());
    let mut cluster = Cluster::new(config);
    for i in 0..messages {
        let sender = ProcessId::new((i % 3) as u32);
        cluster
            .broadcast(sender, vec![(i % 251) as u8; 64])
            .expect("sender is up");
        cluster.run_for(SimDuration::from_millis(1));
    }
    let deadline = cluster.now() + SimDuration::from_secs(60);
    assert!(cluster.run_until_all_delivered(deadline), "load must complete");
    cluster.assert_properties();
    let storage = cluster.storage_totals();
    SimCounts {
        sync_ops: storage.sync_ops,
        bytes_written: storage.bytes_written,
        frames_sent: cluster.sim().network_metrics().snapshot().sent,
        rounds_completed: cluster
            .sim()
            .actor(ProcessId::new(0))
            .expect("p0 is up")
            .metrics()
            .rounds_completed,
    }
}

#[test]
fn simulated_counts_match_their_recorded_values() {
    // Recorded when the gate was set; a change that moves any of them
    // changed what the program does, not just how it is written.
    assert_eq!(
        simulated_counts(ProtocolConfig::alternative(), 300),
        SimCounts { sync_ops: 1534, bytes_written: 367768, frames_sent: 4581, rounds_completed: 130 },
        "alternative protocol"
    );
    assert_eq!(
        simulated_counts(ProtocolConfig::basic(), 300),
        SimCounts { sync_ops: 1392, bytes_written: 258628, frames_sent: 4581, rounds_completed: 130 },
        "basic protocol"
    );
}
