//! The two measurements that need no sockets: exact-repeat counts from a
//! fixed-seed simulated cluster, and the codec timed on its own.
//!
//! The simulated run is the only place in this benchmark whose numbers
//! repeat exactly, so its `sim.*` counts are the only ones a later change
//! may be judged on *as counts*.  It uses the same deployment shape as the
//! socket workloads (N = 3, W = 4, batches of 64, alternative protocol).

use std::hint::black_box;
use std::time::{Duration, Instant};

use crash_recovery_abcast::core::AbcastMsg;
use crash_recovery_abcast::net::{decode_frame, encode_frame};
use crash_recovery_abcast::types::{copymeter, ProtocolConfig, Round};
use crash_recovery_abcast::{
    AppMessage, Cluster, ClusterConfig, LinkConfig, ProcessId, SimDuration, SimTime,
};

use crate::deploy::payload;
use crate::spec::{PIPELINE_DEPTH, PROCESSES};
use crate::stats;

/// Seed of the simulated run: fixed, so the counts are comparable between
/// any two invocations on any two commits.
const SIM_SEED: u64 = 0x5EED_0011;

/// Messages broadcast in the full-size simulated run.
pub const SIM_MESSAGES: usize = 5000;

/// Runs the simulated cluster: `messages` requests of 64 bytes, one per
/// virtual millisecond, round-robin.  Returns the `sim.*` metrics and
/// `types.payload_copies_per_msg`.
pub fn simulated(messages: usize) -> Result<Vec<(&'static str, f64)>, String> {
    let protocol = ProtocolConfig::alternative().with_pipeline_depth(PIPELINE_DEPTH);
    let config = ClusterConfig::alternative(PROCESSES)
        .with_protocol(protocol)
        .with_seed(SIM_SEED)
        .with_link(LinkConfig::lan());
    copymeter::reset();
    let copies_before = copymeter::snapshot();
    let began = Instant::now();
    let mut cluster = Cluster::new(config);
    let mut sent = Vec::with_capacity(messages);
    for i in 0..messages {
        let p = ProcessId::new((i % PROCESSES) as u32);
        let at = cluster.now();
        let id = cluster
            .broadcast(p, payload(SIM_SEED, i as u64, 64).to_vec())
            .ok_or("a simulated process was down")?;
        sent.push((p, id, at));
        cluster.run_for(SimDuration::from_millis(1));
    }
    let deadline = SimTime::from_micros(cluster.now().as_micros() + 60_000_000);
    if !cluster.run_until_all_delivered(deadline) {
        return Err("the simulated run did not deliver everything".to_string());
    }
    let wall_s = began.elapsed().as_secs_f64();
    let violations = cluster.check_properties(
        &cluster.processes().iter().collect::<Vec<_>>(),
        &std::collections::BTreeSet::new(),
    );
    if let Some(v) = violations.first() {
        return Err(format!("the simulated run is incorrect: {v}"));
    }

    let mut latencies = Vec::with_capacity(messages);
    for p in cluster.processes().iter() {
        let actor = cluster
            .sim()
            .actor(p)
            .ok_or("a simulated process is down")?;
        let delivered_at: std::collections::HashMap<_, _> = actor
            .delivery_log()
            .iter()
            .map(|(at, id)| (*id, *at))
            .collect();
        for (_, id, at) in sent.iter().filter(|(sender, _, _)| *sender == p) {
            let delivered = delivered_at
                .get(id)
                .ok_or("a simulated delivery is missing")?;
            latencies.push(delivered.duration_since(*at).as_micros() as f64 / 1e3);
        }
    }
    stats::sort(&mut latencies);

    let n = messages as f64;
    let storage = cluster.storage_totals();
    let rounds = cluster
        .sim()
        .actor(ProcessId::new(0))
        .map_or(0, |a| a.metrics().rounds_completed);
    let copies = copymeter::snapshot().since(&copies_before);
    Ok(vec![
        (
            "sim.frames_per_msg",
            cluster.sim().network_metrics().snapshot().sent as f64 / n,
        ),
        ("sim.syncs_per_msg", storage.sync_ops as f64 / n),
        ("sim.store_bytes_per_msg", storage.bytes_written as f64 / n),
        ("sim.rounds_per_kmsg", rounds as f64 / (n / 1e3)),
        (
            "sim.virtual_latency_p50_ms",
            stats::quantile_sorted(&latencies, 0.5),
        ),
        (
            "sim.events_per_wall_s",
            cluster.stats().events as f64 / wall_s,
        ),
        (
            "types.payload_copies_per_msg",
            copies.payload_copies as f64 / n,
        ),
    ])
}

/// Times `encode_frame` and `decode_frame` on a 64-message gossip whose
/// payloads are `payload_len` bytes, for about `budget` each.  Returns ns
/// per carried message.
pub fn codec(payload_len: usize, budget: Duration) -> Vec<(&'static str, f64)> {
    const BATCH: usize = 64;
    let unordered: Vec<AppMessage> = (0..BATCH as u64)
        .map(|seq| AppMessage::from_parts(ProcessId::new(0), seq, payload(1, seq, payload_len)))
        .collect();
    let gossip = AbcastMsg::Gossip {
        round: Round::new(7),
        unordered,
    };
    let frame = encode_frame(&gossip);

    let time = |mut step: Box<dyn FnMut() + '_>| {
        // Batches of 16 calls between clock reads.
        let began = Instant::now();
        let mut calls = 0u64;
        while began.elapsed() < budget {
            for _ in 0..16 {
                step();
            }
            calls += 16;
        }
        began.elapsed().as_nanos() as f64 / (calls as f64 * BATCH as f64)
    };
    let encode_ns = time(Box::new(|| {
        black_box(encode_frame(black_box(&gossip)));
    }));
    let decode_ns = time(Box::new(|| {
        black_box(decode_frame::<AbcastMsg>(black_box(&frame)).is_ok());
    }));
    vec![
        ("types.encode_ns_per_msg", encode_ns),
        ("types.decode_ns_per_msg", decode_ns),
    ]
}
