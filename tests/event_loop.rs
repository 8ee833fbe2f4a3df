//! Workspace integration tests for the event-loop transport's *shape*:
//! the whole point of the readiness-based poller is that a cluster of N
//! processes costs O(N) OS threads (N workers + 1 poller), not the O(N²)
//! of thread-per-connection, and that reconnects come off the poller's
//! timer wheel instead of per-pair sleeper threads.
//!
//! The thread counts are read from `/proc/self/status` (`Threads:`), so
//! these tests serialize on a shared mutex — another cluster starting in
//! parallel would shift the baseline.  The file also runs the live
//! runtime's application paths — raw client requests, a replicated service
//! across crash and recovery — under the same mutex.

use std::sync::Mutex;
use std::time::Duration;

use crash_recovery_abcast::core::{ClusterConfig, TcpCluster};
use crash_recovery_abcast::net::tcp::TcpConfig;
use crash_recovery_abcast::replication::state_machine::StateMachine;
use crash_recovery_abcast::{
    ConsensusConfig, FramedActor, KvCommand, KvStore, MsgId, ProcessId, ProtocolConfig, Replica,
    StorageRegistry, TcpRuntime,
};

/// Serializes every test that samples the process-wide thread count.
static SERIAL: Mutex<()> = Mutex::new(());

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// Live OS-thread count of this process, from `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn a_five_process_cluster_runs_on_linearly_many_threads() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 5;
    let before = os_threads();

    let mut cluster =
        TcpCluster::new(ClusterConfig::basic(n).with_seed(91)).expect("loopback cluster");
    let id = cluster.broadcast(p(0), b"thread census".to_vec()).expect("p0 is up");
    assert!(
        cluster.run_until_all_delivered(Duration::from_secs(30)),
        "message {id} must be delivered everywhere"
    );

    // Steady state with all 20 ordered pairs connected: N workers + 1
    // poller.  Thread-per-connection needed ≥ 2·N·(N-1) + 2·N = 50 here;
    // leave slack for short-lived runtime threads but stay far below it.
    let during = os_threads();
    let added = during.saturating_sub(before);
    assert!(
        added >= n,
        "expected at least the {n} worker threads, saw {added} (before={before}, during={during})"
    );
    assert!(
        added <= n + 3,
        "a {n}-process cluster must run O(N) threads (N workers + 1 poller), \
         got {added} new threads (before={before}, during={during})"
    );

    cluster.shutdown();
    let after = os_threads();
    assert!(
        after <= before + 1,
        "shutdown must join the cluster's threads (before={before}, after={after})"
    );
}

#[test]
fn reconnects_fire_from_the_timer_wheel_not_new_threads() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 3;

    let mut cluster =
        TcpCluster::new(ClusterConfig::basic(n).with_seed(92)).expect("loopback cluster");
    let id = cluster.broadcast(p(0), b"before the cut".to_vec()).expect("p0 is up");
    assert!(cluster.run_until_all_delivered(Duration::from_secs(30)));

    let baseline = os_threads();
    let established_before = cluster.runtime().tcp_metrics().snapshot().connections_established;

    // Kill every connection of every process, several times: the old
    // transport parked a sleeping thread per backoff; the poller must
    // absorb all of it on the timer wheel at a flat thread count.
    for round in 0..3 {
        for i in 0..n as u32 {
            cluster.sever_process(p(i));
        }
        let id = cluster
            .broadcast(p((round % n) as u32), format!("round {round}").into_bytes())
            .expect("sender is up");
        assert!(
            cluster.run_until_all_delivered(Duration::from_secs(30)),
            "message {id} must survive the reconnect storm of round {round}"
        );
        let now = os_threads();
        assert!(
            now <= baseline + 1,
            "reconnect round {round} must not spawn threads: {baseline} -> {now}"
        );
    }

    let tcp = cluster.runtime().tcp_metrics().snapshot();
    assert!(
        tcp.connections_established > established_before,
        "the severed links must have been re-established: {tcp:?}"
    );
    assert_eq!(tcp.stream_errors, 0, "kills are resets, not corruption: {tcp:?}");
    let _ = id;
    cluster.shutdown();
}

/// A peer that accepts and immediately drops connections must NOT reset
/// the dialer's reconnect backoff on every bare `connect()` success: the
/// churn has to keep escalating like failed dials do.  Regression for the
/// backoff reset living in `connect_finished` instead of being gated on a
/// proven-healthy connection.
#[test]
fn accept_then_drop_churn_escalates_backoff_instead_of_resetting_it() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 2;
    let config = ClusterConfig::basic(n).with_seed(93);
    let tcp_config = TcpConfig::default()
        .with_seed(93)
        .with_reconnect_reset_grace(Duration::from_millis(100));
    let mut cluster = TcpCluster::with_registry_and_tcp(
        config,
        StorageRegistry::in_memory(n),
        tcp_config,
    )
    .expect("loopback cluster");
    let id = cluster.broadcast(p(0), b"healthy first".to_vec()).expect("p0 is up");
    assert!(cluster.run_until_all_delivered(Duration::from_secs(30)), "warm-up {id}");

    // p1's listener turns hostile: accept, then drop on the floor.
    cluster.runtime().set_refuse_inbound(p(1), true);
    cluster.sever_process(p(1));

    let before = cluster.runtime().tcp_metrics().snapshot();
    std::thread::sleep(Duration::from_millis(600));
    let during = cluster.runtime().tcp_metrics().snapshot();

    // Backoff schedule 5, 10, 20, 40, 80, 160, 200… ms caps the dial rate
    // at roughly a dozen per churning pair over 600 ms.  The pre-fix
    // behaviour — backoff reset on every `connect()` success, immediate
    // redial on stream death — produces hundreds.
    let established = during.connections_established - before.connections_established;
    assert!(
        established >= 2,
        "the refused listener must still produce accept-then-drop churn, \
         saw {established} connects in 600ms"
    );
    assert!(
        established <= 40,
        "accept-then-drop churn must be rate-limited by escalating backoff, \
         saw {established} connects in 600ms"
    );

    // Restore the listener: the cluster must heal on its own.
    cluster.runtime().set_refuse_inbound(p(1), false);
    let id = cluster.broadcast(p(0), b"after the storm".to_vec()).expect("p0 is up");
    assert!(
        cluster.run_until_all_delivered(Duration::from_secs(30)),
        "message {id} must be delivered once accepts resume"
    );
    cluster.shutdown();
}

/// The flip side: once a connection has proven healthy (handshake flushed,
/// up past the grace period), its death must reset the backoff — a
/// reconnect after long-lived streams die must not inherit the maximum
/// backoff from an earlier dial storm.
#[test]
fn healthy_reconnect_does_not_inherit_storm_backoff() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 2;
    let config = ClusterConfig::basic(n).with_seed(94);
    let tcp_config = TcpConfig::default()
        .with_seed(94)
        .with_reconnect_reset_grace(Duration::from_millis(50));
    let mut cluster = TcpCluster::with_registry_and_tcp(
        config,
        StorageRegistry::in_memory(n),
        tcp_config,
    )
    .expect("loopback cluster");
    let id = cluster.broadcast(p(0), b"warm-up".to_vec()).expect("p0 is up");
    assert!(cluster.run_until_all_delivered(Duration::from_secs(30)), "warm-up {id}");

    // Drive the 0 → 1 backoff towards its ceiling with an accept-then-drop
    // storm…
    cluster.runtime().set_refuse_inbound(p(1), true);
    cluster.sever_process(p(1));
    std::thread::sleep(Duration::from_millis(400));
    // …then let a healthy connection form and outlive the grace period.
    cluster.runtime().set_refuse_inbound(p(1), false);
    let id = cluster.broadcast(p(0), b"healed".to_vec()).expect("p0 is up");
    assert!(
        cluster.run_until_all_delivered(Duration::from_secs(30)),
        "message {id} must be delivered once accepts resume"
    );
    std::thread::sleep(Duration::from_millis(150));

    // A healthy stream dying redials immediately (no timer, no counted
    // reconnect attempt) — the storm-era backoff must be gone.
    let before = cluster.runtime().tcp_metrics().snapshot();
    for i in 0..n as u32 {
        cluster.sever_process(p(i));
    }
    let id = cluster.broadcast(p(0), b"after the sever".to_vec()).expect("p0 is up");
    assert!(
        cluster.run_until_all_delivered(Duration::from_secs(30)),
        "message {id} must survive the healthy-sever round"
    );
    let after = cluster.runtime().tcp_metrics().snapshot();
    let attempts = after.reconnect_attempts - before.reconnect_attempts;
    assert!(
        attempts <= 2,
        "healthy reconnects must redial immediately, not ride the backoff \
         timer: {attempts} counted attempts"
    );
    cluster.shutdown();
}

/// Raw client requests (the benchmark's submission path, not `invoke`) on
/// a socket cluster of framed atomic broadcast actors: every process
/// delivers all of them, in one order, with no undecodable frame.
#[test]
fn client_requests_on_sockets_are_ordered_identically() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cluster =
        TcpCluster::new(ClusterConfig::alternative(3).with_seed(95)).expect("loopback cluster");
    let runtime = cluster.runtime();
    for i in 0..6u8 {
        runtime.client_request(p(u32::from(i) % 3), vec![i; 4]);
    }
    let mut orders: Vec<Vec<MsgId>> = Vec::new();
    for q in 0..3u32 {
        let order = runtime.wait_for(p(q), Duration::from_secs(30), |a| {
            (a.agreed().total_delivered() >= 6)
                .then(|| a.delivered_messages().iter().map(|m| m.id()).collect())
        });
        orders.push(order.unwrap_or_else(|| panic!("p{q} did not deliver in time")));
    }
    assert_eq!(orders[0].len(), 6);
    assert!(orders.iter().all(|order| *order == orders[0]), "orders differ: {orders:?}");
    assert_eq!(cluster.decode_failures(), 0);
    cluster.shutdown();
}

/// A replicated key-value store on sockets: a replica crashed while
/// writes continue, with its links severed on the way down, recovers and
/// catches up to the full state.
#[test]
fn kv_replica_on_sockets_catches_up_after_crash_and_severed_links() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 3;
    let runtime: TcpRuntime<FramedActor<Replica<KvStore>>> = TcpRuntime::start(
        n,
        StorageRegistry::in_memory(n),
        TcpConfig::default().with_seed(99),
        |_p, _s| {
            FramedActor::new(Replica::new(
                ProtocolConfig::alternative(),
                ConsensusConfig::crash_recovery(),
            ))
        },
    )
    .expect("loopback listeners");
    let put = |i: u32| KvStore::encode_command(&KvCommand::put(format!("k{i}"), format!("v{i}")));

    for i in 0..5 {
        runtime.client_request(p(0), put(i));
    }
    assert!(
        runtime
            .wait_for(p(2), Duration::from_secs(30), |r| (r.state().len() >= 5).then_some(()))
            .is_some(),
        "p2 must apply the initial writes"
    );

    runtime.crash(p(2));
    runtime.sever_process(p(2));
    for i in 5..10 {
        runtime.client_request(p(1), put(i));
    }
    runtime.recover(p(2));

    let state = runtime
        .wait_for(p(2), Duration::from_secs(60), |r| {
            (r.state().len() >= 10).then(|| r.state().clone())
        })
        .expect("recovered replica must catch up");
    for i in 0..10u32 {
        assert_eq!(state.get(&format!("k{i}")), Some(format!("v{i}").as_str()));
    }
    runtime.shutdown();
}
