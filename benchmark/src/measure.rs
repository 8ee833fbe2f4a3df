//! From a repeat's raw read-out to its verdict and its end-to-end numbers.

use std::collections::{BTreeMap, HashSet};

use crash_recovery_abcast::core::AgreedQueue;
use crash_recovery_abcast::{AppMessage, MsgId};

use crate::check;
use crate::gen::Request;
use crate::procfs::ThreadRole;
use crate::repeat::{Collected, Deliveries, ProcessView};
use crate::spec::{fault_plan, PROCESSES};
use crate::stats;

/// One measured request and what became of it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// The request.
    pub request: Request,
    /// When it was A-delivered (see [`Deliveries::of`]), clock ns.
    pub deliver_ns: Option<u64>,
}

impl Sample {
    /// Due time → A-deliver in ms; `+∞` for a request never delivered.
    pub fn latency_ms(&self) -> f64 {
        match self.deliver_ns {
            Some(at) => at.saturating_sub(self.request.due_ns) as f64 / 1e6,
            None => f64::INFINITY,
        }
    }
}

/// A repeat, checked and reduced to what the metrics are computed from.
#[derive(Debug)]
pub struct Analysis {
    /// The measured window, clock ns.
    pub window: (u64, u64),
    /// Requests due inside the window, in due order.
    pub samples: Vec<Sample>,
    /// Messages A-delivered inside the window at the slowest process that
    /// stayed up throughout.
    pub delivered: u64,
    /// CPU seconds per thread role inside the window.
    pub cpu: BTreeMap<ThreadRole, f64>,
    /// Requests submitted over the whole repeat (probe and warm-up too).
    pub attempted: u64,
    /// Of those, not delivered at every process by the drain deadline.
    pub failed: u64,
    /// Everything that makes the run incorrect (empty on a correct run).
    pub violations: Vec<String>,
    /// Things a reader should know that are not violations.
    pub notes: Vec<String>,
}

impl Analysis {
    /// The window's length in seconds.
    pub fn window_s(&self) -> f64 {
        (self.window.1 - self.window.0) as f64 / 1e9
    }

    /// CPU seconds of everything but the benchmark's own threads.
    pub fn system_cpu_s(&self) -> f64 {
        self.cpu
            .iter()
            .filter(|(role, _)| **role != ThreadRole::Bench)
            .map(|(_, s)| s)
            .sum()
    }

    /// Sorted latencies of the measured requests, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.samples.iter().map(Sample::latency_ms).collect();
        stats::sort(&mut all);
        all
    }

    /// `value` per thousand messages delivered in the window.
    pub fn per_kmsg(&self, value: f64) -> f64 {
        value / (self.delivered.max(1) as f64 / 1e3)
    }

    /// `value` per message delivered in the window.
    pub fn per_msg(&self, value: f64) -> f64 {
        value / self.delivered.max(1) as f64
    }
}

fn ids_of(log: &[(u64, MsgId)]) -> Vec<MsgId> {
    log.iter().map(|(_, id)| *id).collect()
}

/// Checks `collected` and reduces it.
pub fn analyse(collected: &Collected) -> Analysis {
    let workload = collected.workload;
    let window = (collected.edges.0.at_ns, collected.edges.1.at_ns);
    let mut violations = Vec::new();
    let mut notes = Vec::new();

    // --- correctness -----------------------------------------------------
    let queues: Vec<&AgreedQueue> = collected.views.iter().map(|v| &v.agreed).collect();
    let mut delivered: Vec<(MsgId, bytes::Bytes)> = Vec::new();
    for view in collected
        .views
        .iter()
        .chain(collected.faults.iter().map(|f| &f.before))
    {
        delivered.extend(view.delivered.iter().cloned());
    }
    let audit = check::audit_requests(
        collected.seed,
        workload.payload,
        collected.requests.len() as u64,
        &delivered,
        &queues,
    );
    violations.extend(audit.violations.iter().cloned());
    let known: Vec<MsgId> = audit.id_of.iter().flatten().copied().collect();

    // Complete delivery sequences: every process that never lost its
    // memory, and every victim up to its crash.  Pairwise prefix-related.
    let crashed: HashSet<usize> = collected.faults.iter().map(|f| f.process.index()).collect();
    let sequence = |view: &ProcessView| -> Vec<AppMessage> {
        view.delivered
            .iter()
            .map(|(id, body)| AppMessage::new(*id, body.clone()))
            .collect()
    };
    let sequences: Vec<Vec<AppMessage>> = collected
        .views
        .iter()
        .enumerate()
        .filter(|(p, _)| !crashed.contains(p))
        .map(|(_, view)| sequence(view))
        .chain(collected.faults.iter().map(|f| sequence(&f.before)))
        .collect();
    violations.extend(check::check_sequences(&sequences));
    let reference = ids_of(&collected.views[fault_plan::SURVIVOR.index()].log);
    for (p, view) in collected.views.iter().enumerate() {
        if crashed.contains(&p) {
            // A victim's final log starts at its recovery: replayed rounds
            // again, adopted rounds missing, but never out of order.
            let who = format!("p{p} after its recovery");
            violations.extend(check::check_subsequence(&reference, &ids_of(&view.log), &who).err());
        } else if collected.drained && view.log.len() != reference.len() {
            violations.push(format!(
                "delivery logs differ in length after the drain: p{p} has {}, the reference {}",
                view.log.len(),
                reference.len()
            ));
        }
    }
    let verdict = check::check_queues(&queues, &reference, &known, 256);
    violations.extend(verdict.violations);
    notes.extend(verdict.notes);

    for view in &collected.views {
        if view.decode_failures > 0 {
            violations.push(format!("{} frames failed to decode", view.decode_failures));
        }
        if view.metrics.storage_failures > 0 {
            violations.push(format!(
                "{} storage failures",
                view.metrics.storage_failures
            ));
        }
    }
    if let Some(restart) = &collected.restart {
        if restart.total_ms.is_none() {
            violations.push("the cold restart did not recover every delivery in time".to_string());
        }
        for (p, after) in restart.after.iter().enumerate() {
            violations
                .extend(check::check_restart_extends(&reference, after, &format!("p{p}")).err());
        }
        for m in &restart.metrics {
            if m.storage_failures > 0 {
                violations.push(format!(
                    "{} storage failures after the restart",
                    m.storage_failures
                ));
            }
        }
    }
    if !collected.drained {
        notes.push("the drain deadline passed with requests undelivered".to_string());
    }
    for fault in collected.faults.iter().filter(|f| f.catchup_ms.is_none()) {
        notes.push(format!(
            "{} had not caught up {:.0} ms after its recovery; faults.catchup_ms counts it as \
             that long",
            fault.process,
            collected.settle_ms()
        ));
    }

    // --- reduction -------------------------------------------------------
    let deliveries = Deliveries::index(collected);
    let samples: Vec<Sample> = collected
        .requests
        .iter()
        .filter(|r| window.0 <= r.due_ns && r.due_ns < window.1)
        .map(|r| {
            let id = audit.id_of[r.seq as usize];
            Sample {
                request: *r,
                deliver_ns: id.and_then(|id| deliveries.of(r.target, id)),
            }
        })
        .collect();
    let delivered_in_window = (0..PROCESSES)
        .filter(|p| !crashed.contains(p))
        .map(|p| {
            let log = &collected.views[p].log;
            log.iter()
                .filter(|(at, _)| window.0 <= *at && *at < window.1)
                .count() as u64
        })
        .min()
        .unwrap_or(0);
    if delivered_in_window == 0 {
        violations.push("nothing was delivered inside the measured window".to_string());
    }

    Analysis {
        window,
        samples,
        delivered: delivered_in_window,
        cpu: collected.edges.1.cpu.since(&collected.edges.0.cpu),
        attempted: collected.requests.len() as u64,
        failed: audit.failed,
        violations,
        notes,
    }
}

/// The end-to-end metrics of one repeat, by name.
pub fn end_to_end(collected: &Collected, analysis: &mut Analysis) -> Vec<(&'static str, f64)> {
    let latencies = analysis.latencies_ms();
    let p95 = match stats::tail(&latencies, 0.95) {
        Ok(tail) => tail.value,
        Err(refused) => {
            let (q, value) = stats::best_tail(&latencies);
            analysis.notes.push(format!(
                "latency_p95_ms is really p{:.0}: {refused}",
                q * 100.0
            ));
            value
        }
    };
    vec![
        (
            "throughput_msgs_s",
            analysis.delivered as f64 / analysis.window_s(),
        ),
        ("latency_p50_ms", stats::quantile_sorted(&latencies, 0.5)),
        ("latency_p95_ms", p95),
        ("rss_peak_mb", collected.rss_mib),
        ("setup_s", collected.setup_s),
    ]
}
