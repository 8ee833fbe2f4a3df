//! Workspace integration tests: what the protocol costs, counted in the
//! simulator (rounds, stable-storage writes, virtual time, payload copies)
//! — batching proposals (Section 5.4), the crash-stop reduction to
//! Chandra–Toueg (Section 5.6), and the zero-copy payload path.

use crash_recovery_abcast::core::{Cluster, ClusterConfig};
use crash_recovery_abcast::types::{copymeter, BatchingPolicy};
use crash_recovery_abcast::{
    ConsensusConfig, LinkConfig, MsgId, ProcessId, ProtocolConfig, SimDuration, StorageRegistry,
};

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
fn crash_stop_consensus_logs_a_tenth_of_crash_recovery_and_orders_the_same() {
    let run = |consensus| {
        let config = ClusterConfig::basic(3)
            .with_seed(707)
            .with_protocol(ProtocolConfig::basic())
            .with_consensus(consensus);
        let mut cluster = Cluster::new(config);
        let before = cluster.storage_totals();
        let secs = run_load(&mut cluster, 40, SimDuration::from_millis(2));
        let writes = cluster.storage_totals().since(&before).write_ops();
        let order: Vec<MsgId> = cluster.delivered(ProcessId::new(0)).iter().map(|m| m.id()).collect();
        (writes, secs, order)
    };
    let (recovery_writes, recovery_secs, recovery_order) = run(ConsensusConfig::crash_recovery());
    let (stop_writes, stop_secs, stop_order) = run(ConsensusConfig::crash_stop());
    assert!(
        stop_writes * 10 < recovery_writes,
        "crash-stop wrote {stop_writes} times, crash-recovery {recovery_writes}"
    );
    // The simulator charges no time for a write, so with the logging gone
    // the message pattern — and hence the order and its timing — is the same.
    assert_eq!(stop_order, recovery_order);
    assert_eq!(stop_secs, recovery_secs);
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
