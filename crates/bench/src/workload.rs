//! Shared workload drivers used by the experiments.
//!
//! [`run_load`] submits a stream of broadcasts into a fresh [`Cluster`],
//! waits for cluster-wide delivery and reports the rounds and logging cost
//! it took.  [`drive_socket_load`] is its wall-clock twin for a
//! [`TcpCluster`].

use std::collections::BTreeMap;

use abcast_core::{Cluster, ClusterConfig, TcpCluster};
use abcast_storage::StorageSnapshot;
use abcast_types::{MsgId, ProcessId, SimDuration};

/// Outcome of one load run.
#[derive(Clone, Debug)]
pub struct LoadResult {
    /// `true` if every process delivered every message before the deadline.
    pub all_delivered: bool,
    /// Ordering rounds completed at process 0.
    pub rounds: u64,
    /// Cluster-wide stable-storage activity during the run.
    pub storage: StorageSnapshot,
}

/// Outcome of one load run over the socket transport (wall-clock time).
#[derive(Clone, Debug)]
pub struct SocketLoadResult {
    /// `true` if every process delivered every message before the deadline.
    pub all_delivered: bool,
    /// Mean A-broadcast → observed-A-delivery latency at process 0, in
    /// milliseconds of wall-clock time.  Observation is by polling, so
    /// each sample includes up to one poll interval of slack.
    pub mean_latency_ms: f64,
    /// Median of the same latency distribution.
    pub p50_latency_ms: f64,
    /// 99th percentile of the same latency distribution.
    pub p99_latency_ms: f64,
    /// Throughput in messages per wall-clock second.
    pub throughput_msgs_per_sec: f64,
}

/// Polls process `observer`'s delivery log, recording the first time each
/// identity is seen delivered.
fn poll_first_seen(
    cluster: &TcpCluster,
    observer: ProcessId,
    seen: &mut BTreeMap<MsgId, std::time::Instant>,
) {
    if let Some(ids) = cluster.delivery_log_ids(observer) {
        let now = std::time::Instant::now();
        for id in ids {
            seen.entry(id).or_insert(now);
        }
    }
}

/// The wall-clock twin of [`run_load`], over an existing cluster: submits
/// `count` broadcasts of `payload_size` bytes, spaced `gap` apart,
/// round-robin across all processes of a socket-backed cluster, then waits
/// until every process delivers everything (or `deadline_after_load`
/// elapses).
///
/// Latency is measured at process 0 by polling its delivery log every few
/// hundred microseconds — good enough for loopback percentiles, and
/// documented as observational (each sample carries up to one poll
/// interval of slack).
pub fn drive_socket_load(
    cluster: &mut TcpCluster,
    count: usize,
    payload_size: usize,
    gap: std::time::Duration,
    deadline_after_load: std::time::Duration,
) -> SocketLoadResult {
    use std::time::{Duration, Instant};
    let processes: Vec<ProcessId> = cluster.processes().iter().collect();
    let observer = processes[0];
    let poll_interval = Duration::from_micros(200);

    let mut submit: BTreeMap<MsgId, Instant> = BTreeMap::new();
    let mut seen: BTreeMap<MsgId, Instant> = BTreeMap::new();
    let started = Instant::now();
    for i in 0..count {
        let sender = processes[i % processes.len()];
        let payload = vec![(i % 251) as u8; payload_size];
        if let Some(id) = cluster.broadcast(sender, payload) {
            submit.insert(id, Instant::now());
        }
        let until = Instant::now() + gap;
        loop {
            poll_first_seen(cluster, observer, &mut seen);
            if Instant::now() >= until {
                break;
            }
            std::thread::sleep(poll_interval);
        }
    }

    // Drain: first until the observer saw everything (latency samples),
    // then until every process has delivered (completeness).
    let deadline = Instant::now() + deadline_after_load;
    let mut observer_done = false;
    while Instant::now() < deadline {
        poll_first_seen(cluster, observer, &mut seen);
        if submit.keys().all(|id| seen.contains_key(id)) {
            observer_done = true;
            break;
        }
        std::thread::sleep(poll_interval);
    }
    let elapsed = started.elapsed();
    let ids: Vec<MsgId> = submit.keys().copied().collect();
    let all_delivered = observer_done
        && cluster.run_until_delivered(
            &processes,
            &ids,
            deadline.saturating_duration_since(Instant::now()),
        );

    let mut latencies_ms: Vec<f64> = submit
        .iter()
        .filter_map(|(id, at)| seen.get(id).map(|s| (*s - *at).as_secs_f64() * 1000.0))
        .collect();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let percentile = |q: f64| -> f64 {
        latencies_ms
            .get(((latencies_ms.len() as f64 * q) as usize).min(latencies_ms.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0.0)
    };
    let mean_latency_ms = if latencies_ms.is_empty() {
        0.0
    } else {
        latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64
    };

    SocketLoadResult {
        all_delivered,
        mean_latency_ms,
        p50_latency_ms: percentile(0.50),
        p99_latency_ms: percentile(0.99),
        throughput_msgs_per_sec: seen.len() as f64 / elapsed.as_secs_f64().max(1e-9),
    }
}

/// Builds a cluster from `config`, submits `count` broadcasts of
/// `payload_size` bytes, spaced `gap` apart, round-robin across all
/// processes, then runs until every process delivers everything (or 60 s
/// of extra virtual time elapse).
pub fn run_load(
    config: ClusterConfig,
    count: usize,
    payload_size: usize,
    gap: SimDuration,
) -> (Cluster, LoadResult) {
    let mut cluster = Cluster::new(config);
    let storage_before = cluster.storage_totals();
    cluster.broadcast_spread(count, payload_size, gap);
    let deadline = cluster.now() + SimDuration::from_secs(60);
    let all_delivered = cluster.run_until_all_delivered(deadline);
    let rounds = cluster
        .sim()
        .actor(ProcessId::new(0))
        .map(|a| a.metrics().rounds_completed)
        .unwrap_or(0);
    let result = LoadResult {
        all_delivered,
        rounds,
        storage: cluster.storage_totals().since(&storage_before),
    };
    (cluster, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_load_reports_consistent_numbers() {
        let (cluster, result) = run_load(
            ClusterConfig::basic(3).with_seed(4),
            10,
            16,
            SimDuration::from_millis(5),
        );
        assert!(result.all_delivered, "load must be delivered");
        assert!(result.rounds >= 1);
        assert!(result.storage.write_ops() > 0);
        cluster.assert_properties();
    }

    #[test]
    fn alternative_configuration_also_completes() {
        let (_cluster, result) = run_load(
            ClusterConfig::alternative(3).with_seed(5),
            8,
            8,
            SimDuration::from_millis(4),
        );
        assert!(result.all_delivered);
    }
}
