//! Shared workload drivers used by the experiments.
//!
//! [`drive_load`] submits a stream of broadcasts into a [`Cluster`], waits
//! for cluster-wide delivery and reports throughput, latency and logging
//! cost — the measurements that most experiments start from.
//! [`drive_socket_load`] is its wall-clock twin for a [`TcpCluster`].

use std::collections::BTreeMap;

use abcast_core::{Cluster, ClusterConfig, TcpCluster};
use abcast_storage::StorageSnapshot;
use abcast_types::{MsgId, ProcessId, SimDuration, SimTime};

/// Outcome of one load run.
#[derive(Clone, Debug)]
pub struct LoadResult {
    /// `true` if every process delivered every message before the deadline.
    pub all_delivered: bool,
    /// Mean latency from A-broadcast to local A-delivery at the sender, in
    /// milliseconds of virtual time (only over messages that were
    /// delivered).
    pub mean_latency_ms: f64,
    /// Throughput in messages per virtual second (delivered messages over
    /// the full run duration).
    pub throughput_msgs_per_sec: f64,
    /// Ordering rounds completed at process 0.
    pub rounds: u64,
    /// Cluster-wide stable-storage activity during the run.
    pub storage: StorageSnapshot,
}

/// Submits `count` broadcasts of `payload_size` bytes, spaced `gap` apart,
/// round-robin across all processes, then runs until every process delivers
/// everything (or `deadline_after_load` of extra virtual time elapses).
pub fn drive_load(
    cluster: &mut Cluster,
    count: usize,
    payload_size: usize,
    gap: SimDuration,
    deadline_after_load: SimDuration,
) -> LoadResult {
    let storage_before = cluster.storage_totals();
    let started = cluster.now();

    let mut submit_times: BTreeMap<MsgId, SimTime> = BTreeMap::new();
    let processes: Vec<ProcessId> = cluster.processes().iter().collect();
    for i in 0..count {
        let sender = processes[i % processes.len()];
        if !cluster.sim().is_up(sender) {
            cluster.run_for(gap);
            continue;
        }
        let payload = vec![(i % 251) as u8; payload_size];
        let at = cluster.now();
        if let Some(id) = cluster.broadcast(sender, payload) {
            submit_times.insert(id, at);
        }
        if !gap.is_zero() {
            cluster.run_for(gap);
        }
    }

    let deadline = cluster.now() + deadline_after_load;
    let all_delivered = cluster.run_until_all_delivered(deadline);
    let finished_at = cluster.now();

    // Latency: measured at the original sender, using its delivery log.
    let mut latencies_ms: Vec<f64> = Vec::new();
    for p in cluster.processes().iter() {
        if let Some(actor) = cluster.sim().actor(p) {
            for (time, id) in actor.delivery_log() {
                if let Some(submitted) = submit_times.get(id) {
                    if id.sender == p {
                        latencies_ms
                            .push(time.duration_since(*submitted).as_micros() as f64 / 1000.0);
                    }
                }
            }
        }
    }
    // Summed in sorted order so the mean's rounding matches the baselines.
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let mean_latency_ms = if latencies_ms.is_empty() {
        0.0
    } else {
        latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64
    };

    let elapsed = finished_at.duration_since(started).as_secs_f64().max(1e-9);
    let delivered = submit_times.len();
    let rounds = cluster
        .sim()
        .actor(ProcessId::new(0))
        .map(|a| a.metrics().rounds_completed)
        .unwrap_or(0);

    LoadResult {
        all_delivered,
        mean_latency_ms,
        throughput_msgs_per_sec: delivered as f64 / elapsed,
        rounds,
        storage: cluster.storage_totals().since(&storage_before),
    }
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

/// The wall-clock twin of [`drive_load`]: submits `count` broadcasts of
/// `payload_size` bytes, spaced `gap` apart, round-robin across all
/// processes of a socket-backed cluster, then waits until every process
/// delivers everything (or `deadline_after_load` elapses).
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

/// Convenience: builds a cluster from `config` and immediately drives a
/// load through it.
pub fn run_load(
    config: ClusterConfig,
    count: usize,
    payload_size: usize,
    gap: SimDuration,
) -> (Cluster, LoadResult) {
    let mut cluster = Cluster::new(config);
    let result = drive_load(
        &mut cluster,
        count,
        payload_size,
        gap,
        SimDuration::from_secs(60),
    );
    (cluster, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_load_reports_consistent_numbers() {
        let (cluster, result) = run_load(
            ClusterConfig::basic(3).with_seed(4),
            10,
            16,
            SimDuration::from_millis(5),
        );
        assert!(result.all_delivered, "load must be delivered");
        assert!(result.mean_latency_ms > 0.0);
        assert!(result.throughput_msgs_per_sec > 0.0);
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
