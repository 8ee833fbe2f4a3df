//! The names every later performance claim is made against: the seven
//! workloads, the end-to-end metrics and the per-layer metrics.
//!
//! `BENCHMARK.json` repeats these names for the driver; a self-test keeps
//! the two in step.

use std::time::Duration;

/// Processes in every deployment.  Three workers, the poller and the
/// generator are five threads on the two-core reference box; five
/// processes there would measure the scheduler.
pub const PROCESSES: usize = 3;

/// Consensus pipeline depth `W`, held constant.
pub const PIPELINE_DEPTH: u64 = 4;

/// Fresh-cluster repeats per run; every reported value is their median.
pub const REPEATS: usize = 3;

/// How load is offered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// Independent users: request `i` is due at `start + i / rate` whether
    /// or not earlier ones completed; latency counts from the due time.
    Open {
        /// Requests per second.
        rate: f64,
        /// Paced warm-up before the measured window, in seconds.
        warmup_s: f64,
    },
    /// `clients` callers, each with one request outstanding.
    Closed {
        /// Outstanding requests across the deployment.
        clients: usize,
        /// Requests completed before the measured window opens.
        warmup_msgs: u64,
    },
}

/// Which of the paper's two protocols runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Section 5: checkpoints, state transfer, logged `Unordered`,
    /// `EarlyReturn { max_batch: 64 }`.
    Alternative,
    /// Section 4: minimal logging, replay recovery, no checkpoints.
    Basic,
}

/// Where stable storage lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Store {
    /// `InMemoryStorage`: a barrier costs nothing.
    Memory,
    /// `WalStorage` on disk with `group_window = 1`: every step commit is
    /// fsynced before its messages leave.
    Wal,
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// The name used on the command line and in every report.
    pub name: &'static str,
    /// How load is offered.
    pub load: Load,
    /// Protocol variant.
    pub variant: Variant,
    /// Stable storage.
    pub store: Store,
    /// Injected one-way link delay `(min, max)`, uniform per frame.
    pub link_delay: Option<(Duration, Duration)>,
    /// Request payload size in bytes.
    pub payload: usize,
    /// Crash and recover the leader and a follower inside the window, then
    /// cold-restart the whole deployment from its WALs.
    pub faults: bool,
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
}

/// The seven workloads, in reporting order.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "steady",
        load: Load::Open { rate: 1000.0, warmup_s: 0.5 },
        variant: Variant::Alternative,
        store: Store::Wal,
        link_delay: None,
        payload: 64,
        faults: false,
        why: "Open loop at moderate load on sockets + fsyncing WAL: latency is timer and fsync waiting more than backlog, so a change to gossip pacing shows here first.",
    },
    Workload {
        name: "sat_mem",
        load: Load::Closed { clients: 256, warmup_msgs: 2000 },
        variant: Variant::Alternative,
        store: Store::Memory,
        link_delay: None,
        payload: 64,
        faults: false,
        why: "Closed loop, memory storage: the CPU ceiling of core + consensus + codec + net. Storage does nothing, so a storage change must not move it.",
    },
    Workload {
        name: "sat_wal",
        load: Load::Closed { clients: 256, warmup_msgs: 2000 },
        variant: Variant::Alternative,
        store: Store::Wal,
        link_delay: None,
        payload: 64,
        faults: false,
        why: "sat_mem with a real fsync per step commit; the pair isolates what stable storage costs under saturation.",
    },
    Workload {
        name: "big_wal",
        load: Load::Open { rate: 200.0, warmup_s: 0.5 },
        variant: Variant::Alternative,
        store: Store::Wal,
        link_delay: None,
        payload: 4096,
        faults: false,
        why: "Open loop with 4 KiB payloads at a third of capacity: the same layers loaded by bytes instead of by operations; a small-message win that costs large messages shows here.",
    },
    Workload {
        name: "wan",
        load: Load::Open { rate: 1000.0, warmup_s: 0.5 },
        variant: Variant::Alternative,
        store: Store::Memory,
        link_delay: Some((Duration::from_millis(2), Duration::from_millis(5))),
        payload: 64,
        faults: false,
        why: "Injected 2-5 ms one-way link delay, CPU idle: latency counts sequential message delays, so round-trip and pipelining changes show and CPU work does not.",
    },
    Workload {
        name: "basic_hist",
        load: Load::Closed { clients: 256, warmup_msgs: 1 },
        variant: Variant::Basic,
        store: Store::Memory,
        link_delay: None,
        payload: 64,
        faults: false,
        why: "The paper's Section 4 protocol from a fresh cluster: throughput decays with history. Bypasses checkpoints, state transfer and unordered logging.",
    },
    Workload {
        name: "faults",
        load: Load::Open { rate: 1000.0, warmup_s: 0.5 },
        variant: Variant::Alternative,
        store: Store::Wal,
        link_delay: None,
        payload: 64,
        faults: true,
        why: "The paper's subject: crash and recover the leader, then a follower, under scheduled load with zero loss expected, then cold-restart all three from their WALs.",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The fault schedule of the `faults` workload, as fractions of the
/// measured window so that it keeps its shape at any `--seconds`.
pub mod fault_plan {
    use crash_recovery_abcast::ProcessId;

    /// The Ω leader at start: `HeartbeatFd::leader` is the lowest
    /// unsuspected id.
    pub const LEADER: ProcessId = ProcessId::new(0);
    /// The follower crashed second.
    pub const FOLLOWER: ProcessId = ProcessId::new(2);
    /// The process that never crashes; its log is the reference order.
    pub const SURVIVOR: ProcessId = ProcessId::new(1);

    /// Leader crash.
    pub const LEADER_CRASH: f64 = 0.25;
    /// Leader recovery.
    pub const LEADER_RECOVER: f64 = 0.375;
    /// Follower crash.
    pub const FOLLOWER_CRASH: f64 = 0.625;
    /// Follower recovery.
    pub const FOLLOWER_RECOVER: f64 = 0.75;
    /// The outage window runs from a crash to this long after recovery.
    pub const SETTLE: f64 = 0.125;
    /// The generator avoids a victim from this long before its crash (in
    /// seconds, not a fraction: it covers one worst-case delivery).
    pub const AVOID_BEFORE_S: f64 = 0.1;
    /// … until this fraction of the window after its recovery.
    pub const AVOID_AFTER: f64 = 0.0625;
}

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit, direction and (end-to-end only) the share of the
/// parent's median by which it may worsen.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (0 for per-layer metrics, which have none).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
    }
}

/// What a user of the system sees.  Every workload reports every one of
/// them, and none can be zero — which is why the issue's `failed_share`
/// (expected 0; carried by the result line's `failed` / `attempted`) and
/// the three `faults`-only times (`faults.*` below) are not in this list.
/// `cpu_s_per_kmsg` is not in it either: identical work reads 0.45 to 0.80
/// CPU-seconds with the state of the host, more than any bound allowed, so
/// by the calibration rule it is the per-layer `total.cpu_s_per_kmsg`.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("throughput_msgs_s", "msgs/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_p95_ms", "ms", Better::Lower, 0.25),
    e2e("rss_peak_mb", "MiB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Single-layer metrics; the prefix is the crate under `crates/` (or
/// `bench` for the generator, `budget`/`trace`/`faults` for cross-layer
/// views).  `benchmark/README.md` says which end-to-end metric each should
/// move, on which workload.
pub const PER_LAYER: [MetricDef; 65] = [
    // The generator itself: validity gates, not targets.
    lower("bench.gen_lag_p99_ms", "ms"),
    lower("bench.gen_busy_share", "ratio"),
    higher("bench.null_actor_max_rate_msgs_s", "msgs/s"),
    // net
    lower("net.worker_queue_wait_p50_us", "us"),
    lower("net.worker_queue_wait_p99_us", "us"),
    lower("net.transit_p50_us", "us"),
    lower("net.transit_p99_us", "us"),
    lower("net.frames_per_msg", "count"),
    lower("net.wire_bytes_per_msg", "bytes"),
    lower("net.poller_cpu_s_per_kmsg", "s"),
    lower("net.frames_dropped", "count"),
    lower("net.torn_frames", "count"),
    lower("net.reconnect_attempts", "count"),
    // storage
    lower("storage.commits_per_msg", "count"),
    lower("storage.syncs_per_msg", "count"),
    lower("storage.bytes_per_msg", "bytes"),
    lower("storage.commit_p50_us", "us"),
    lower("storage.commit_p99_us", "us"),
    lower("storage.busy_share", "ratio"),
    lower("storage.wal_disk_bytes_end", "bytes"),
    lower("storage.rotations", "count"),
    lower("storage.compactions", "count"),
    lower("storage.compactor_cpu_s_per_kmsg", "s"),
    lower("storage.reopen_ms", "ms"),
    lower("storage.fsync_probe_us", "us"),
    // core
    lower("core.busy_share", "ratio"),
    lower("core.self_us_per_msg", "us"),
    lower("core.worker_cpu_s_per_kmsg", "s"),
    lower("core.client_step_p50_us", "us"),
    lower("core.gossip_in_us_per_msg", "us"),
    lower("core.gossip_tick_p99_us", "us"),
    lower("core.checkpoint_step_p99_us", "us"),
    lower("core.gossip_bytes_per_msg", "bytes"),
    lower("core.state_bytes_per_msg", "bytes"),
    higher("core.msgs_per_round", "count"),
    higher("core.rounds_in_flight_max", "count"),
    lower("core.replayed_rounds", "count"),
    lower("core.skipped_rounds", "count"),
    lower("core.state_transfers_applied", "count"),
    // consensus, fd
    lower("consensus.in_us_per_msg", "us"),
    lower("consensus.frames_per_round", "count"),
    lower("consensus.bytes_per_round", "bytes"),
    lower("fd.frames_per_s", "1/s"),
    // types
    lower("types.encode_ns_per_msg", "ns"),
    lower("types.decode_ns_per_msg", "ns"),
    lower("types.payload_copies_per_msg", "count"),
    // sim: exact-repeat counts from a fixed-seed simulated cluster.
    lower("sim.frames_per_msg", "count"),
    lower("sim.syncs_per_msg", "count"),
    lower("sim.store_bytes_per_msg", "bytes"),
    lower("sim.rounds_per_kmsg", "count"),
    lower("sim.virtual_latency_p50_ms", "ms"),
    higher("sim.events_per_wall_s", "1/s"),
    // The latency budget of a median request (sums to its latency, which
    // sits at trace.latency_p50_ms).
    lower("budget.gen_lag_ms", "ms"),
    lower("budget.queue_wait_ms", "ms"),
    lower("budget.handler_ms", "ms"),
    lower("budget.storage_ms", "ms"),
    lower("budget.idle_ms", "ms"),
    // What tracing cost, and the traced repeats' own latency: the median
    // the budget is read against, and the tail the issue wanted gated.
    lower("trace.overhead_share", "ratio"),
    lower("trace.latency_p50_ms", "ms"),
    lower("trace.latency_p99_ms", "ms"),
    // Fault handling: reported by `faults` only.  The issue lists them as
    // end-to-end; they are demoted because an end-to-end metric must exist
    // on every workload.
    lower("faults.outage_max_ms", "ms"),
    lower("faults.catchup_ms", "ms"),
    lower("faults.cold_restart_ms", "ms"),
    lower("faults.failed_share", "ratio"),
    // CPU of every thread of the system, demoted from end-to-end (see
    // `END_TO_END`); worker + poller + compactor lines above are its parts.
    lower("total.cpu_s_per_kmsg", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.better == Better::Lower));
    }
}
