//! Workspace integration tests for the real TCP socket transport: the
//! socket-backed [`TcpCluster`] must reproduce the in-process framed
//! [`Cluster`] **bit for bit** — same delivery order, same persisted
//! `(k, Agreed)` checkpoint and delta records — on healthy streams and
//! across connection kills, and a frame torn by a connection reset must
//! never desynchronize the reconnected stream.
//!
//! Pipelined rounds (`W = 4`) are exercised over a delayed socket link as
//! well, free-running rather than in lock step, and checked by counts.
//!
//! Determinism discipline: both runs drive the *same seeded workload in
//! lock step* (broadcast one message, wait until every process delivered
//! it, fire one explicit checkpoint tick per process, repeat).  The
//! free-running checkpoint timer is pushed out of the way, so the grouping
//! of deliveries into delta records is a function of the workload alone —
//! which is exactly what lets a wall-clock TCP run and a virtual-time
//! simulation be compared byte for byte.

use std::time::Duration;

use crash_recovery_abcast::core::{Cluster, ClusterConfig, TcpCluster};
use crash_recovery_abcast::net::tcp::{LinkPolicy, TcpConfig};
use bytes::Bytes;
use crash_recovery_abcast::core::AgreedQueue;
use crash_recovery_abcast::storage::{keys, StorageRegistry};
use crash_recovery_abcast::types::BatchingPolicy;
use crash_recovery_abcast::{MsgId, ProcessId, ProtocolConfig, SimDuration};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// The protocol configuration both transports run: the alternative
/// (checkpointing) variant with explicit-only checkpoint ticks and a state
/// transfer threshold too large to trigger on a lock-step workload.
fn lockstep_protocol() -> ProtocolConfig {
    ProtocolConfig::alternative()
        .with_delta(64)
        .with_checkpoint_period(SimDuration::from_secs(3600))
        .with_checkpoint_snapshot_every(4)
}

fn lockstep_config(seed: u64) -> ClusterConfig {
    ClusterConfig::alternative(3)
        .with_seed(seed)
        .with_link(crash_recovery_abcast::LinkConfig::reliable())
        .with_protocol(lockstep_protocol())
}

/// The seeded workload: `(sender, payload)` for each lock-step message.
fn workload(count: usize) -> Vec<(ProcessId, Vec<u8>)> {
    (0..count)
        .map(|i| (p(i as u32 % 3), vec![(i % 251) as u8; 8 + i % 5]))
        .collect()
}

/// Everything the equivalence tests compare, collected from one run.
#[derive(Debug, PartialEq)]
struct RunRecord {
    /// Full delivery order at each process (every A-delivered identity, in
    /// order, regardless of later app-checkpoint compaction).
    order: Vec<Vec<MsgId>>,
    /// The `(checkpoint, explicit queue)` delivery-sequence state of each
    /// process.
    agreed: Vec<AgreedQueue>,
    /// Raw bytes of the persisted full `(k, Agreed)` snapshot per process.
    checkpoint: Vec<Option<Bytes>>,
    /// Raw bytes of every persisted `(k, Agreed)` delta record per process.
    deltas: Vec<Vec<Bytes>>,
}

fn collect_record(
    storage: &StorageRegistry,
    order: Vec<Vec<MsgId>>,
    agreed: Vec<AgreedQueue>,
) -> RunRecord {
    let mut checkpoint = Vec::new();
    let mut deltas = Vec::new();
    for (_p, store) in storage.iter() {
        checkpoint.push(store.load(&keys::agreed_checkpoint()).unwrap());
        deltas.push(store.load_log(&keys::agreed_delta()).unwrap());
    }
    RunRecord {
        order,
        agreed,
        checkpoint,
        deltas,
    }
}

/// Runs the lock-step workload on the in-process framed simulation.
fn run_in_process(seed: u64, count: usize) -> RunRecord {
    let storage = StorageRegistry::in_memory(3);
    let mut cluster = Cluster::with_registry(lockstep_config(seed), storage.clone());
    for (sender, payload) in workload(count) {
        let id = cluster
            .broadcast(sender, payload)
            .expect("sender is up in a healthy run");
        let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
        assert!(
            cluster.run_until_delivered(
                &everyone,
                &[id],
                cluster.now() + SimDuration::from_secs(30)
            ),
            "simulated lock-step delivery of {id} timed out"
        );
        for q in [p(0), p(1), p(2)] {
            assert!(cluster.checkpoint_tick(q));
        }
    }
    cluster.assert_properties();
    assert_eq!(cluster.decode_failures(), 0);
    let order: Vec<Vec<MsgId>> = [p(0), p(1), p(2)]
        .iter()
        .map(|q| {
            cluster
                .sim()
                .actor(*q)
                .unwrap()
                .delivery_log()
                .iter()
                .map(|(_, id)| *id)
                .collect()
        })
        .collect();
    let agreed: Vec<AgreedQueue> = [p(0), p(1), p(2)]
        .iter()
        .map(|q| cluster.agreed(*q).unwrap().clone())
        .collect();
    collect_record(&storage, order, agreed)
}

/// Runs the same workload over real TCP sockets, optionally killing every
/// connection of one process after selected messages (the victim's dialers
/// and its peers' dialers all reconnect with backoff).
fn run_over_sockets(
    seed: u64,
    count: usize,
    sever_after: &[usize],
    victim: ProcessId,
) -> RunRecord {
    let storage = StorageRegistry::in_memory(3);
    let mut cluster = TcpCluster::with_registry_and_tcp(
        lockstep_config(seed),
        storage.clone(),
        TcpConfig::default().with_seed(seed),
    )
    .expect("loopback cluster must start");
    for (i, (sender, payload)) in workload(count).into_iter().enumerate() {
        let id = cluster
            .broadcast(sender, payload)
            .expect("sender is up in a healthy run");
        if sever_after.contains(&i) {
            // Kill the victim's connections while this message's traffic is
            // in flight: in-flight frames tear or vanish, both ends see
            // resets, the dialers reconnect.  Retransmission (the
            // protocol's own fair-lossy machinery) must finish the round.
            assert!(cluster.sever_process(victim) > 0, "live connections existed");
        }
        let everyone: Vec<ProcessId> = cluster.processes().iter().collect();
        assert!(
            cluster.run_until_delivered(&everyone, &[id], Duration::from_secs(60)),
            "socket lock-step delivery of message {i} ({id}) timed out"
        );
        for q in [p(0), p(1), p(2)] {
            assert!(cluster.checkpoint_tick(q));
        }
    }
    assert_eq!(cluster.decode_failures(), 0, "healthy frames never fail to decode");
    let order: Vec<Vec<MsgId>> = [p(0), p(1), p(2)]
        .iter()
        .map(|q| cluster.delivery_log_ids(*q).expect("process is up"))
        .collect();
    let agreed: Vec<AgreedQueue> = [p(0), p(1), p(2)]
        .iter()
        .map(|q| cluster.agreed(*q).unwrap())
        .collect();
    if !sever_after.is_empty() {
        let tcp = cluster.runtime().tcp_metrics().snapshot();
        assert!(
            tcp.connections_established > 6,
            "severed connections must have been re-established: {tcp:?}"
        );
    }
    cluster.shutdown();
    collect_record(&storage, order, agreed)
}

/// Satellite: the same seeded workload over `TcpCluster` and over the
/// in-process framed `Cluster` produces identical delivery order,
/// checkpoints and delta records — extending PR 4's framed-vs-typed
/// equivalence down to the socket layer.
#[test]
fn tcp_cluster_reproduces_the_in_process_run_bit_for_bit() {
    let in_process = run_in_process(501, 10);
    let over_sockets = run_over_sockets(501, 10, &[], p(2));

    assert_eq!(
        in_process.order[0].len(),
        10,
        "the whole workload must deliver: {:?}",
        in_process.order
    );
    assert_eq!(
        over_sockets.order, in_process.order,
        "delivery order differs between socket and in-process runs"
    );
    assert_eq!(
        over_sockets.agreed, in_process.agreed,
        "delivery-sequence state differs between socket and in-process runs"
    );
    assert_eq!(
        over_sockets.checkpoint, in_process.checkpoint,
        "persisted (k, Agreed) snapshots differ"
    );
    assert_eq!(
        over_sockets.deltas, in_process.deltas,
        "persisted (k, Agreed) delta records differ"
    );
    // The schedule exercised both the delta path and the snapshot path.
    assert!(
        in_process.deltas.iter().any(|d| !d.is_empty()),
        "the workload must produce delta records"
    );
    assert!(
        in_process.checkpoint.iter().all(Option::is_some),
        "the workload must produce full snapshots"
    );
}

/// Satellite: a 3-process loopback cluster where one peer's connections
/// are killed mid-run (twice) and reconnect — delivery order and persisted
/// `(k, Agreed)` records still match the undisturbed in-process run bit
/// for bit.
#[test]
fn killed_and_reconnected_peer_still_matches_the_in_process_run() {
    let in_process = run_in_process(733, 12);
    let over_sockets = run_over_sockets(733, 12, &[3, 7], p(2));

    assert_eq!(over_sockets.order, in_process.order, "delivery order diverged");
    assert_eq!(
        over_sockets.checkpoint, in_process.checkpoint,
        "persisted snapshots diverged"
    );
    assert_eq!(over_sockets.deltas, in_process.deltas, "persisted delta records diverged");
}

/// Satellite regression: a frame split across a connection reset must not
/// desynchronize the reassembly buffer — buffer state is per connection,
/// so the reconnected stream decodes cleanly from its first byte.
#[test]
fn torn_frame_at_connection_drop_does_not_desynchronize_reconnect() {
    use crash_recovery_abcast::net::WIRE_PREFIX_LEN;
    use std::io::Write;
    use std::net::TcpStream;

    let cluster = TcpCluster::new(lockstep_config(42)).expect("loopback cluster");
    let p0_addr = cluster.runtime().addr(p(0));
    let baseline = cluster.decode_failures();
    let tcp_before = cluster.runtime().tcp_metrics().snapshot();

    let handshake = |stream: &mut TcpStream, claim: u32| {
        let mut hs = Vec::new();
        hs.extend_from_slice(&0xABCA_57C9u32.to_le_bytes());
        hs.extend_from_slice(&claim.to_le_bytes());
        stream.write_all(&hs).unwrap();
    };
    let garbage_frame = |body: &[u8]| {
        let mut wire = (body.len() as u64).to_le_bytes().to_vec();
        wire.extend_from_slice(body);
        wire
    };

    // Connection 1: one complete (but undecodable) frame, then a frame
    // torn in the middle of its body, then a hard drop.
    let mut conn1 = TcpStream::connect(p0_addr).unwrap();
    handshake(&mut conn1, 1);
    conn1.write_all(&garbage_frame(&[0xFF, 1, 2])).unwrap();
    let torn = garbage_frame(&[9u8; 64]);
    conn1.write_all(&torn[..WIRE_PREFIX_LEN + 10]).unwrap();
    conn1.flush().unwrap();
    // Give the reader a moment to buffer the torn prefix, then reset.
    std::thread::sleep(Duration::from_millis(50));
    drop(conn1);

    // The complete garbage frame was "delivered" and dropped at decode —
    // precisely fair-lossy loss, counted on the framed actor.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while cluster.decode_failures() < baseline + 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "the complete garbage frame must reach the actor"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Connection 2 (the "reconnect"): a fresh complete frame.  If the torn
    // 10 body bytes had leaked across the reset, the new frame's bytes
    // would be consumed as the old frame's body and the counts would
    // never line up.
    let mut conn2 = TcpStream::connect(p0_addr).unwrap();
    handshake(&mut conn2, 1);
    conn2.write_all(&garbage_frame(&[0xEE; 5])).unwrap();
    conn2.flush().unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while cluster.decode_failures() < baseline + 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "the post-reset frame must decode as exactly one frame"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(cluster.decode_failures(), baseline + 2);

    // The torn frame was discarded with its connection and counted.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let tcp = cluster.runtime().tcp_metrics().snapshot().since(&tcp_before);
        if tcp.torn_frames >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the torn frame must be accounted: {tcp:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    cluster.shutdown();
}

/// The live socket deployment keeps total order and loses nothing under
/// repeated connection kills plus a process crash/recovery — the
/// full-stack fault sweep over real sockets.
#[test]
fn socket_cluster_survives_connection_kills_and_process_recovery() {
    let mut cluster = TcpCluster::new(lockstep_config(77)).expect("loopback cluster");
    let mut ids = Vec::new();
    for i in 0..6u8 {
        ids.extend(cluster.broadcast(p(u32::from(i) % 3), vec![i; 6]));
    }
    assert!(cluster.run_until_all_delivered(Duration::from_secs(60)));

    // Crash p1 (its connections stay up; frames to it are lost), broadcast
    // more, then recover it: it must catch up to the same total order.
    cluster.crash(p(1));
    cluster.sever_process(p(1));
    for i in 6..9u8 {
        ids.extend(cluster.broadcast(p(if i % 2 == 0 { 0 } else { 2 }), vec![i; 6]));
    }
    cluster.recover(p(1));
    assert!(
        cluster.run_until_all_delivered(Duration::from_secs(60)),
        "recovered process must converge to the full sequence"
    );

    let reference: Vec<MsgId> = cluster.delivered(p(0)).iter().map(|m| m.id()).collect();
    assert_eq!(reference.len(), 9);
    for q in [p(1), p(2)] {
        let order: Vec<MsgId> = cluster.delivered(q).iter().map(|m| m.id()).collect();
        assert_eq!(order, reference, "total order broken at {q}");
    }
    assert_eq!(cluster.decode_failures(), 0);
    cluster.shutdown();
}

/// Pipelined rounds over real sockets: the simulated pipelining test's
/// workload (24 messages 0.5 ms apart, batches of at most 4) on a
/// loopback cluster whose every hop is held 2–5 ms.  At `W = 1` no process
/// ever has two rounds open; at `W = 4` some process overlaps rounds, and
/// every process still delivers the same order from clean frames.
#[test]
fn pipelined_rounds_overlap_over_a_delayed_socket_link() {
    let run = |depth: u64| {
        let protocol = ProtocolConfig::basic()
            .with_batching(BatchingPolicy::EarlyReturn { max_batch: 4 })
            .with_pipeline_depth(depth);
        let tcp = TcpConfig::default()
            .with_seed(1501)
            .with_link(LinkPolicy::delayed(Duration::from_millis(2), Duration::from_millis(5)));
        let mut cluster = TcpCluster::with_registry_and_tcp(
            ClusterConfig::basic(3).with_seed(1501).with_protocol(protocol),
            StorageRegistry::in_memory(3),
            tcp,
        )
        .expect("loopback cluster must start");
        for i in 0..24 {
            cluster.broadcast(p(i % 3), vec![i as u8; 32]).expect("sender is up");
            std::thread::sleep(Duration::from_micros(500));
        }
        assert!(
            cluster.run_until_all_delivered(Duration::from_secs(60)),
            "W = {depth}: every process must deliver the load"
        );
        let orders: Vec<Vec<MsgId>> = [p(0), p(1), p(2)]
            .iter()
            .map(|q| cluster.delivery_log_ids(*q).expect("process is up"))
            .collect();
        assert_eq!(orders[0].len(), 24, "W = {depth}: one delivery per message");
        assert!(
            orders.iter().all(|order| *order == orders[0]),
            "W = {depth}: delivery orders differ: {orders:?}"
        );
        assert_eq!(cluster.decode_failures(), 0, "W = {depth}: healthy frames never fail to decode");
        let peak_in_flight = [p(0), p(1), p(2)]
            .iter()
            .map(|q| {
                cluster
                    .runtime()
                    .inspect(*q, |a| a.inner().metrics().max_rounds_in_flight)
                    .expect("process is up")
            })
            .max()
            .expect("three processes");
        cluster.shutdown();
        peak_in_flight
    };
    assert_eq!(run(1), 1, "W = 1 never runs ahead");
    let pipelined = run(4);
    assert!(pipelined > 1, "W = 4 must overlap rounds, peaked at {pipelined}");
}
