//! Per-layer metrics of one repeat: counter differences over the measured
//! window, per-thread CPU, and — on traced repeats — span arithmetic.
//!
//! A handler's *self time* is its span minus the storage spans nested in
//! it minus the time the tracer itself spent inside it; the layer a
//! handler's self time is billed to is decided by what arrived (a client
//! request, a gossip, a consensus message, a heartbeat, a timer).

use std::collections::HashMap;

use crate::measure::{Analysis, Sample};
use crate::procfs::ThreadRole;
use crate::repeat::Collected;
use crate::spec::{fault_plan, PROCESSES};
use crate::stats;
use crate::trace::{FrameClass, Span, SpanKind, TimerClass, TraceBuf, TransitMark};

/// One handler invocation with its nested storage time folded in.
#[derive(Clone, Copy, Debug)]
pub struct Handler {
    /// What ran (never a storage kind).
    pub kind: SpanKind,
    /// Start, clock ns.
    pub start_ns: u64,
    /// End, clock ns.
    pub end_ns: u64,
    /// Time inside storage calls made by this handler.
    pub storage_ns: u64,
    /// Time the tracer spent inside this handler.
    pub tracer_ns: u64,
    /// Kind-specific detail (client: request sequence number).
    pub detail: u64,
}

impl Handler {
    fn total_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn self_ns(&self) -> u64 {
        self.total_ns()
            .saturating_sub(self.storage_ns + self.tracer_ns)
    }
}

/// Folds a process's spans (in completion order) into handlers: a storage
/// span belongs to the handler that completes next and started before it.
pub fn handlers_of(spans: &[Span]) -> Vec<Handler> {
    let mut handlers = Vec::new();
    let mut pending: Vec<&Span> = Vec::new();
    for span in spans {
        if span.kind.is_storage() {
            pending.push(span);
            continue;
        }
        let storage_ns = pending
            .drain(..)
            .filter(|s| s.start_ns >= span.start_ns)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        handlers.push(Handler {
            kind: span.kind,
            start_ns: span.start_ns,
            end_ns: span.end_ns,
            storage_ns,
            tracer_ns: span.tracer_ns,
            detail: span.detail,
        });
    }
    handlers
}

/// What one worker thread did when: answers "how much of `[a, b)` went to
/// handler self time and to storage" in O(log n).
pub struct Timeline {
    handlers: Vec<Handler>,
    /// `cum[i]` = (total handler ns, storage ns) of `handlers[..i]`.
    cum: Vec<(u64, u64)>,
}

impl Timeline {
    /// Indexes `handlers` (sorted by start, non-overlapping: they ran on
    /// one thread).
    pub fn new(handlers: Vec<Handler>) -> Timeline {
        let mut cum = Vec::with_capacity(handlers.len() + 1);
        let mut acc = (0u64, 0u64);
        cum.push(acc);
        for h in &handlers {
            acc = (acc.0 + h.total_ns(), acc.1 + h.storage_ns);
            cum.push(acc);
        }
        Timeline { handlers, cum }
    }

    /// `(handler ns, of which storage ns)` inside `[a, b)`.  A handler cut
    /// by an edge contributes its overlap, with storage prorated.
    pub fn busy_in(&self, a: u64, b: u64) -> (u64, u64) {
        if b <= a {
            return (0, 0);
        }
        let first = self.handlers.partition_point(|h| h.end_ns <= a);
        let last = self.handlers.partition_point(|h| h.start_ns < b);
        if first >= last {
            return (0, 0);
        }
        let mut total = self.cum[last].0 - self.cum[first].0;
        let mut storage = self.cum[last].1 - self.cum[first].1;
        let mut trim = |h: &Handler, cut_ns: u64| {
            let share = cut_ns as f64 / h.total_ns().max(1) as f64;
            total -= cut_ns;
            storage -= (h.storage_ns as f64 * share) as u64;
        };
        let head = self.handlers[first];
        if head.start_ns < a {
            trim(&head, a - head.start_ns);
        }
        let tail = self.handlers[last - 1];
        if tail.end_ns > b {
            trim(&tail, tail.end_ns - b);
        }
        (total, storage.min(total))
    }
}

/// The latency budget of one request, ms; the five lines sum to `total`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    /// Due → submit call.
    pub gen_lag: f64,
    /// Submit call → `on_client_request` begins.
    pub queue_wait: f64,
    /// Handler self time on the sender's worker until the delivery.
    pub handler: f64,
    /// Storage time on the sender's worker until the delivery.
    pub storage: f64,
    /// The sender's worker parked, waiting on timers or peers.
    pub idle: f64,
    /// Due → A-deliver.
    pub total: f64,
}

/// Splits `sample`'s latency by what its sender's worker was doing.
pub fn budget_of(sample: &Sample, client_start_ns: u64, timeline: &Timeline) -> Option<Budget> {
    let r = sample.request;
    let deliver_ns = sample.deliver_ns?;
    // The delivery stamp is the worker's own clock mapped onto ours; keep
    // the intervals ordered whatever the few microseconds of skew say.
    let submit = r.submit_ns.max(r.due_ns);
    let begin = client_start_ns.max(submit);
    let end = deliver_ns.max(begin);
    let (busy, storage) = timeline.busy_in(begin, end);
    let ms = |ns: u64| ns as f64 / 1e6;
    Some(Budget {
        gen_lag: ms(submit - r.due_ns),
        queue_wait: ms(begin - submit),
        handler: ms(busy - storage),
        storage: ms(storage),
        idle: ms((end - begin).saturating_sub(busy)),
        total: ms(end - r.due_ns),
    })
}

/// Mean budget of the requests between the 45th and 55th latency
/// percentile: "the median request".  Means add up where medians do not,
/// so the five lines sum to `total`, which sits at the p50.
pub fn median_budget(mut budgets: Vec<Budget>) -> Option<Budget> {
    if budgets.is_empty() {
        return None;
    }
    budgets.sort_by(|a, b| a.total.total_cmp(&b.total));
    let n = budgets.len();
    let band = &budgets[(n * 45 / 100).min(n - 1)..(n * 55 / 100 + 1).min(n)];
    let mean = |f: fn(&Budget) -> f64| band.iter().map(f).sum::<f64>() / band.len() as f64;
    Some(Budget {
        gen_lag: mean(|b| b.gen_lag),
        queue_wait: mean(|b| b.queue_wait),
        handler: mean(|b| b.handler),
        storage: mean(|b| b.storage),
        idle: mean(|b| b.idle),
        total: mean(|b| b.total),
    })
}

/// Pairs the two ends of each sampled frame: per (from, to, len, hash) the
/// i-th send with the i-th receive.  A key whose counts differ lost a
/// frame somewhere and is left out.  Returns transit times in µs.
pub fn transits_us(sends: &[TransitMark], recvs: &[TransitMark], window: (u64, u64)) -> Vec<f64> {
    type Key = (u32, u32, u32, u64);
    let key = |m: &TransitMark| (m.from, m.to, m.len, m.hash);
    let mut by_key: HashMap<Key, (Vec<u64>, Vec<u64>)> = HashMap::new();
    for m in sends {
        by_key.entry(key(m)).or_default().0.push(m.at_ns);
    }
    for m in recvs {
        by_key.entry(key(m)).or_default().1.push(m.at_ns);
    }
    let mut out = Vec::new();
    for (mut sent, mut received) in by_key.into_values() {
        if sent.len() != received.len() {
            continue;
        }
        sent.sort_unstable();
        received.sort_unstable();
        for (s, r) in sent.iter().zip(&received) {
            if window.0 <= *s && *s < window.1 && r >= s {
                out.push((r - s) as f64 / 1e3);
            }
        }
    }
    stats::sort(&mut out);
    out
}

/// The median of `sorted`; `None` without samples, so that a metric with
/// nothing behind it is left out instead of reading 0.
fn p50(sorted: &[f64]) -> Option<f64> {
    (!sorted.is_empty()).then(|| stats::quantile_sorted(sorted, 0.5))
}

/// The highest tail percentile `sorted` supports; `None` without samples.
fn tail(sorted: &[f64]) -> Option<f64> {
    (!sorted.is_empty()).then(|| stats::best_tail(sorted).1)
}

/// Keeps the metrics that have a value.
fn present(metrics: Vec<(&'static str, Option<f64>)>) -> Vec<(&'static str, f64)> {
    metrics
        .into_iter()
        .filter_map(|(name, value)| Some((name, value?)))
        .collect()
}

/// The per-layer metrics every repeat can report: counters and CPU.
pub fn from_counters(collected: &Collected, a: &Analysis) -> Vec<(&'static str, f64)> {
    let (open, close) = &collected.edges;
    let storage = close.storage.since(&open.storage);
    let tcp = close.tcp.since(&open.tcp);
    let rounds = close.rounds.saturating_sub(open.rounds).max(1) as f64;
    let cpu = |role: ThreadRole| a.cpu.get(&role).copied().unwrap_or(0.0);

    let mut lag: Vec<f64> = a
        .samples
        .iter()
        .map(|s| (s.request.submit_ns - s.request.due_ns) as f64 / 1e6)
        .collect();
    stats::sort(&mut lag);
    let active_ns = match (collected.requests.first(), collected.requests.last()) {
        (Some(first), Some(last)) => (last.submit_ns - first.submit_ns).max(1),
        _ => 1,
    };

    let all_metrics = collected
        .views
        .iter()
        .map(|v| &v.metrics)
        .chain(collected.restart.iter().flat_map(|r| r.metrics.iter()));
    let (mut replayed, mut skipped, mut transfers, mut in_flight) = (0, 0, 0, 0);
    for m in all_metrics {
        replayed += m.replayed_rounds_on_recovery;
        skipped += m.skipped_rounds;
        transfers += m.state_transfers_applied;
        in_flight = in_flight.max(m.max_rounds_in_flight);
    }

    let mut out = vec![
        (
            "bench.gen_busy_share",
            collected.gen_busy_ns as f64 / active_ns as f64,
        ),
        ("net.frames_per_msg", a.per_msg(tcp.frames_sent as f64)),
        ("net.wire_bytes_per_msg", a.per_msg(tcp.bytes_sent as f64)),
        (
            "net.poller_cpu_s_per_kmsg",
            a.per_kmsg(cpu(ThreadRole::Poller)),
        ),
        ("net.frames_dropped", tcp.frames_dropped as f64),
        ("net.torn_frames", tcp.torn_frames as f64),
        ("net.reconnect_attempts", tcp.reconnect_attempts as f64),
        (
            "storage.commits_per_msg",
            a.per_msg(storage.batch_commits as f64),
        ),
        ("storage.syncs_per_msg", a.per_msg(storage.sync_ops as f64)),
        (
            "storage.bytes_per_msg",
            a.per_msg(storage.bytes_written as f64),
        ),
        ("storage.wal_disk_bytes_end", collected.wal_end.0 as f64),
        ("storage.rotations", collected.wal_end.1 as f64),
        ("storage.compactions", collected.wal_end.2 as f64),
        (
            "storage.compactor_cpu_s_per_kmsg",
            a.per_kmsg(cpu(ThreadRole::Compactor)),
        ),
        (
            "core.worker_cpu_s_per_kmsg",
            a.per_kmsg(cpu(ThreadRole::Worker)),
        ),
        ("core.msgs_per_round", a.delivered as f64 / rounds),
        ("core.rounds_in_flight_max", in_flight as f64),
        ("core.replayed_rounds", replayed as f64),
        ("core.skipped_rounds", skipped as f64),
        ("core.state_transfers_applied", transfers as f64),
        ("total.cpu_s_per_kmsg", a.per_kmsg(a.system_cpu_s())),
    ];
    out.extend(tail(&lag).map(|lag| ("bench.gen_lag_p99_ms", lag)));
    if collected.workload.faults {
        out.extend(fault_metrics(collected, a));
    }
    out
}

/// Mean catch-up time over the recoveries.  A victim still behind when its
/// watch ended (`None`) counts as having taken the whole watch, `settle_ms`:
/// the largest value the watch can return, so that a failed recovery reads
/// as the slowest one, never as an instant one.
pub fn mean_catchup_ms(catchups: &[Option<f64>], settle_ms: f64) -> Option<f64> {
    let each = catchups.iter().map(|c| c.unwrap_or(settle_ms));
    (!catchups.is_empty()).then(|| each.sum::<f64>() / catchups.len() as f64)
}

/// What only the `faults` workload has a source for.
fn fault_metrics(collected: &Collected, a: &Analysis) -> Vec<(&'static str, f64)> {
    let settle_ms = collected.settle_ms();
    let survivor = &collected.views[fault_plan::SURVIVOR.index()].log;
    let outage_ms = collected.faults.first().map(|leader| {
        let (from, to) = (
            leader.crash_ns,
            leader.recover_ns + (settle_ms * 1e6) as u64,
        );
        let mut last = from;
        let mut longest = 0;
        for (at, _) in survivor.iter().filter(|(at, _)| from <= *at && *at < to) {
            longest = longest.max(at - last);
            last = *at;
        }
        longest.max(to - last) as f64 / 1e6
    });
    let catchups: Vec<Option<f64>> = collected.faults.iter().map(|f| f.catchup_ms).collect();
    let restart = collected.restart.as_ref();
    present(vec![
        ("faults.outage_max_ms", outage_ms),
        ("faults.catchup_ms", mean_catchup_ms(&catchups, settle_ms)),
        ("faults.cold_restart_ms", restart.and_then(|r| r.total_ms)),
        ("storage.reopen_ms", restart.map(|r| r.reopen_ms)),
        (
            "faults.failed_share",
            Some(a.failed as f64 / a.attempted.max(1) as f64),
        ),
    ])
}

/// The per-layer metrics only a traced repeat can report.
pub fn from_trace(
    collected: &Collected,
    a: &Analysis,
    trace: &[TraceBuf],
) -> Vec<(&'static str, f64)> {
    let (open, close) = &collected.edges;
    let window = a.window;
    let inside = |at: u64| window.0 <= at && at < window.1;
    let worker_ns = (PROCESSES as f64) * (window.1 - window.0) as f64;
    let out = close.out.since(&open.out);
    let rounds = close.rounds.saturating_sub(open.rounds).max(1) as f64;

    let timelines: Vec<Timeline> = trace
        .iter()
        .map(|buf| Timeline::new(handlers_of(&buf.spans)))
        .collect();

    // Handler self time (all of it, and the part spent on incoming gossip
    // and consensus messages), storage time, and the steps worth a line.
    let (mut self_ns, mut gossip_in, mut consensus_in, mut storage_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut client_steps, mut gossip_ticks, mut checkpoint_steps) = (vec![], vec![], vec![]);
    let mut client_start: HashMap<u64, u64> = HashMap::new();
    for timeline in &timelines {
        for h in &timeline.handlers {
            if let SpanKind::Client = h.kind {
                client_start.entry(h.detail).or_insert(h.start_ns);
            }
            if !inside(h.start_ns) {
                continue;
            }
            self_ns += h.self_ns();
            storage_ns += h.storage_ns;
            let us = h.total_ns() as f64 / 1e3;
            match h.kind {
                SpanKind::Client => client_steps.push(us),
                SpanKind::Message(FrameClass::Gossip) => gossip_in += h.self_ns(),
                SpanKind::Message(FrameClass::Consensus) => consensus_in += h.self_ns(),
                SpanKind::Timer(TimerClass::Gossip) => gossip_ticks.push(us),
                SpanKind::Timer(TimerClass::Checkpoint) => checkpoint_steps.push(us),
                _ => {}
            }
        }
    }
    for steps in [&mut client_steps, &mut gossip_ticks, &mut checkpoint_steps] {
        stats::sort(steps);
    }

    let mut commits: Vec<f64> = trace
        .iter()
        .flat_map(|buf| buf.spans.iter())
        .filter(|s| s.kind == SpanKind::Commit && inside(s.start_ns))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    stats::sort(&mut commits);

    // Queue wait and the latency budget, request by request.
    let mut waits = Vec::new();
    let mut budgets = Vec::new();
    for sample in &a.samples {
        let Some(&start) = client_start.get(&sample.request.seq) else {
            continue;
        };
        waits.push(start.saturating_sub(sample.request.submit_ns) as f64 / 1e3);
        budgets.extend(budget_of(
            sample,
            start,
            &timelines[sample.request.target.index()],
        ));
    }
    stats::sort(&mut waits);
    let budget = median_budget(budgets);

    let sends: Vec<TransitMark> = trace.iter().flat_map(|b| b.sends.iter().copied()).collect();
    let recvs: Vec<TransitMark> = trace.iter().flat_map(|b| b.recvs.iter().copied()).collect();
    let transit = transits_us(&sends, &recvs, window);

    let bytes = |class: FrameClass| out.bytes[class as usize] as f64;
    let frames = |class: FrameClass| out.frames[class as usize] as f64;
    let latencies = a.latencies_ms();

    present(vec![
        ("net.worker_queue_wait_p50_us", p50(&waits)),
        ("net.worker_queue_wait_p99_us", tail(&waits)),
        ("net.transit_p50_us", p50(&transit)),
        ("net.transit_p99_us", tail(&transit)),
        ("storage.commit_p50_us", p50(&commits)),
        ("storage.commit_p99_us", tail(&commits)),
        ("storage.busy_share", Some(storage_ns as f64 / worker_ns)),
        ("core.busy_share", Some(self_ns as f64 / worker_ns)),
        (
            "core.self_us_per_msg",
            Some(a.per_msg(self_ns as f64 / 1e3)),
        ),
        ("core.client_step_p50_us", p50(&client_steps)),
        (
            "core.gossip_in_us_per_msg",
            Some(a.per_msg(gossip_in as f64 / 1e3)),
        ),
        ("core.gossip_tick_p99_us", tail(&gossip_ticks)),
        ("core.checkpoint_step_p99_us", tail(&checkpoint_steps)),
        (
            "core.gossip_bytes_per_msg",
            Some(a.per_msg(bytes(FrameClass::Gossip))),
        ),
        (
            "core.state_bytes_per_msg",
            Some(a.per_msg(bytes(FrameClass::State))),
        ),
        (
            "consensus.in_us_per_msg",
            Some(a.per_msg(consensus_in as f64 / 1e3)),
        ),
        (
            "consensus.frames_per_round",
            Some(frames(FrameClass::Consensus) / rounds),
        ),
        (
            "consensus.bytes_per_round",
            Some(bytes(FrameClass::Consensus) / rounds),
        ),
        (
            "fd.frames_per_s",
            Some(frames(FrameClass::Fd) / a.window_s()),
        ),
        ("budget.gen_lag_ms", budget.map(|b| b.gen_lag)),
        ("budget.queue_wait_ms", budget.map(|b| b.queue_wait)),
        ("budget.handler_ms", budget.map(|b| b.handler)),
        ("budget.storage_ms", budget.map(|b| b.storage)),
        ("budget.idle_ms", budget.map(|b| b.idle)),
        ("trace.latency_p50_ms", p50(&latencies)),
        ("trace.latency_p99_ms", tail(&latencies)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Request;
    use crash_recovery_abcast::ProcessId;

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            start_ns,
            end_ns,
            tracer_ns: 0,
            detail: 0,
        }
    }

    #[test]
    fn storage_spans_fold_into_the_handler_that_contains_them() {
        let spans = [
            span(SpanKind::Commit, 110, 150),
            span(SpanKind::Read, 160, 170),
            span(SpanKind::Client, 100, 200),
            span(SpanKind::Timer(TimerClass::Gossip), 300, 320),
        ];
        let handlers = handlers_of(&spans);
        assert_eq!(handlers.len(), 2);
        assert_eq!((handlers[0].storage_ns, handlers[0].self_ns()), (50, 50));
        assert_eq!((handlers[1].storage_ns, handlers[1].self_ns()), (0, 20));
    }

    #[test]
    fn busy_time_is_cut_at_the_interval_edges() {
        let timeline = Timeline::new(handlers_of(&[
            span(SpanKind::Commit, 120, 160),
            span(SpanKind::Client, 100, 200),
            span(SpanKind::Timer(TimerClass::Gossip), 300, 400),
            span(SpanKind::Timer(TimerClass::Gossip), 500, 600),
        ]));
        assert_eq!(timeline.busy_in(0, 1000), (300, 40));
        assert_eq!(timeline.busy_in(200, 300), (0, 0));
        assert_eq!(timeline.busy_in(150, 350), (100, 20));
        assert_eq!(timeline.busy_in(350, 550), (100, 0));
        assert_eq!(timeline.busy_in(700, 800), (0, 0));
    }

    #[test]
    fn a_budget_sums_to_the_latency() {
        let timeline = Timeline::new(handlers_of(&[
            span(SpanKind::Commit, 1_300_000, 1_400_000),
            span(SpanKind::Client, 1_200_000, 1_500_000),
            span(
                SpanKind::Message(FrameClass::Consensus),
                5_000_000,
                5_500_000,
            ),
        ]));
        let request = Request {
            seq: 0,
            target: ProcessId::new(0),
            due_ns: 1_000_000,
            submit_ns: 1_100_000,
        };
        let sample = Sample {
            request,
            deliver_ns: Some(9_000_000),
        };
        let b = budget_of(&sample, 1_200_000, &timeline).unwrap();
        assert_eq!((b.gen_lag, b.queue_wait, b.storage), (0.1, 0.1, 0.1));
        assert!((b.handler - 0.7).abs() < 1e-9 && (b.idle - 7.0).abs() < 1e-9);
        let sum = b.gen_lag + b.queue_wait + b.handler + b.storage + b.idle;
        assert!((sum - b.total).abs() < 1e-9 && (b.total - 8.0).abs() < 1e-9);

        let budgets: Vec<Budget> = (1..=100)
            .map(|i| Budget {
                idle: f64::from(i),
                total: f64::from(i),
                ..b
            })
            .collect();
        let median = median_budget(budgets).expect("a hundred budgets");
        assert!((median.total - 50.5).abs() < 1.0, "{median:?}");
    }

    #[test]
    fn a_recovery_that_did_not_catch_up_counts_as_the_slowest_not_the_fastest() {
        assert_eq!(
            mean_catchup_ms(&[Some(20.0), Some(30.0)], 375.0),
            Some(25.0)
        );
        assert_eq!(mean_catchup_ms(&[Some(25.0), None], 375.0), Some(200.0));
        assert_eq!(mean_catchup_ms(&[None, None], 375.0), Some(375.0));
        assert_eq!(mean_catchup_ms(&[], 375.0), None);
    }

    #[test]
    fn transit_pairs_the_ith_send_with_the_ith_receive() {
        let mark = |hash, at_ns| TransitMark {
            from: 0,
            to: 1,
            len: 9,
            hash,
            at_ns,
        };
        let sends = [mark(7, 1000), mark(7, 3000), mark(8, 5000), mark(9, 6000)];
        let recvs = [mark(7, 1500), mark(7, 3700), mark(9, 6100), mark(9, 6200)];
        // Key 8 lost its frame, key 9 has a duplicate: both are left out.
        assert_eq!(transits_us(&sends, &recvs, (0, 10_000)), vec![0.5, 0.7]);
        assert_eq!(transits_us(&sends, &recvs, (2000, 10_000)), vec![0.7]);
    }
}
