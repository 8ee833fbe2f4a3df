//! The load generator: one thread, open or closed loop, never waiting on
//! the system except where a closed loop must (its clients' replies).
//!
//! Submission is `TcpRuntime::client_request`, a channel send.  What the
//! generator records per request is only when it was due and when the
//! submit call was made; delivery times are read from the processes' own
//! delivery logs after the run, so no polling thread sits between a
//! delivery and its timestamp.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use crash_recovery_abcast::net::TcpRuntime;
use crash_recovery_abcast::{Actor, ProcessId};

use crate::deploy::{payload, Clock, Completions};
use crate::spec::PROCESSES;

/// One submitted request.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Sequence number carried in the payload.
    pub seq: u64,
    /// Process it was submitted to.
    pub target: ProcessId,
    /// When it was due (open loop) or submitted (closed loop), clock ns.
    pub due_ns: u64,
    /// When the submit call was made, clock ns.
    pub submit_ns: u64,
}

/// How a request enters a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitMode {
    /// `TcpRuntime::client_request`: fire and forget.  What every workload
    /// uses.
    ClientRequest,
    /// `TcpRuntime::invoke`: waits for the worker to run the request.  Kept
    /// only so the self-tests can show that such a generator is flagged as
    /// the bottleneck.
    Invoke,
}

/// Submits requests and remembers them.
pub struct Submitter<'a, A: Actor<Msg = bytes::Bytes>> {
    runtime: &'a TcpRuntime<A>,
    clock: Clock,
    seed: u64,
    payload_len: usize,
    mode: SubmitMode,
    /// Every request submitted so far, in submission order.
    pub requests: Vec<Request>,
    /// Nanoseconds spent inside submit calls.
    pub busy_ns: u64,
}

impl<'a, A: Actor<Msg = bytes::Bytes>> Submitter<'a, A> {
    /// A submitter whose payloads derive from `seed`.
    pub fn new(
        runtime: &'a TcpRuntime<A>,
        clock: Clock,
        seed: u64,
        payload_len: usize,
        mode: SubmitMode,
    ) -> Self {
        Submitter {
            runtime,
            clock,
            seed,
            payload_len,
            mode,
            requests: Vec::new(),
            busy_ns: 0,
        }
    }

    /// Submits the next request to `target`; `due_ns` of `None` means "due
    /// now" (closed loop).
    pub fn submit(&mut self, target: ProcessId, due_ns: Option<u64>) {
        let seq = self.requests.len() as u64;
        let body = payload(self.seed, seq, self.payload_len);
        let submit_ns = self.clock.ns();
        match self.mode {
            SubmitMode::ClientRequest => self.runtime.client_request(target, body),
            SubmitMode::Invoke => {
                self.runtime
                    .invoke(target, move |actor, ctx| actor.on_client_request(body, ctx));
            }
        }
        self.busy_ns += self.clock.ns() - submit_ns;
        self.requests.push(Request {
            seq,
            target,
            due_ns: due_ns.unwrap_or(submit_ns),
            submit_ns,
        });
    }
}

/// A stretch of time during which `process` gets no new requests.
#[derive(Clone, Copy, Debug)]
pub struct Avoid {
    /// The process to route around.
    pub process: ProcessId,
    /// From, clock ns.
    pub from_ns: u64,
    /// Until, clock ns.
    pub to_ns: u64,
}

/// An open-loop schedule: request `i` is due at `start_ns + i / rate`.
#[derive(Clone, Debug)]
pub struct OpenPlan {
    /// Requests per second.
    pub rate: f64,
    /// When request 0 is due.
    pub start_ns: u64,
    /// No request is due at or after this.
    pub end_ns: u64,
    /// Seed-derived rotation of the round-robin.
    pub rr_offset: usize,
    /// Processes to route around, and when.
    pub avoid: Vec<Avoid>,
}

/// Runs `plan` to its end.  The generator sleeps until each due time and
/// never waits for the system: if it falls behind it submits late, and the
/// lateness is in the record (`submit_ns − due_ns`).
pub fn open_loop<A: Actor<Msg = bytes::Bytes>>(sub: &mut Submitter<'_, A>, plan: &OpenPlan) {
    let gap_ns = 1e9 / plan.rate;
    for i in 0u64.. {
        let due_ns = plan.start_ns + (i as f64 * gap_ns) as u64;
        if due_ns >= plan.end_ns {
            break;
        }
        let now = sub.clock.ns();
        if due_ns > now {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        let avoided = |p: ProcessId| {
            plan.avoid
                .iter()
                .any(|a| a.process == p && a.from_ns <= due_ns && due_ns < a.to_ns)
        };
        let target = (0..PROCESSES)
            .map(|k| ProcessId::new(((plan.rr_offset + i as usize + k) % PROCESSES) as u32))
            .find(|p| !avoided(*p))
            .unwrap_or(ProcessId::new(0));
        sub.submit(target, Some(due_ns));
    }
}

/// A closed loop: `clients` callers spread evenly over the processes, each
/// resubmitting as soon as its previous request was delivered at the
/// process it talks to.
#[derive(Clone, Debug)]
pub struct ClosedPlan {
    /// Outstanding requests across the deployment.
    pub clients: usize,
    /// Completions after which [`ClosedSignals::warm`] is raised.
    pub warmup_msgs: u64,
}

/// How the closed loop and the controller talk.
#[derive(Debug, Default)]
pub struct ClosedSignals {
    /// Raised by the generator once the warm-up completed.
    pub warm: AtomicBool,
    /// Raised by the controller when the measured window closed.
    pub stop: AtomicBool,
}

/// Smallest spacing between two completion polls of one process.
const POLL_PERIOD: Duration = Duration::from_millis(1);

/// Runs a closed loop until `signals.stop`.
///
/// The generator thread itself never waits on the system: one small
/// thread per process (`bench-poll`) reads that process's completions at
/// most once per millisecond — an `inspect`, which queues behind the
/// worker's backlog — and publishes the count; the generator refills from
/// the published counts.  Were the generator to make those reads itself,
/// three queue waits in a row would let the pipeline drain before the next
/// refill, and the loop would measure its own polling.
pub fn closed_loop<A: Completions>(
    sub: &mut Submitter<'_, A>,
    plan: &ClosedPlan,
    signals: &ClosedSignals,
) {
    let slots: Vec<u64> = (0..PROCESSES)
        .map(|i| (plan.clients / PROCESSES + usize::from(i < plan.clients % PROCESSES)) as u64)
        .collect();
    let completed: [AtomicU64; PROCESSES] = Default::default();
    let runtime = sub.runtime;
    std::thread::scope(|scope| {
        for (i, done) in completed.iter().enumerate() {
            let p = ProcessId::new(i as u32);
            let poll = move || {
                let mut cursor = 0usize;
                while !signals.stop.load(Ordering::SeqCst) {
                    let from = cursor;
                    if let Some((next, own)) =
                        runtime.inspect(p, move |a| a.completions_since(p, from))
                    {
                        cursor = next;
                        // Relaxed: a statistic; nothing else is published with it.
                        done.fetch_add(own, Ordering::Relaxed);
                    }
                    std::thread::sleep(POLL_PERIOD);
                }
            };
            std::thread::Builder::new()
                .name("bench-poll".to_string())
                .spawn_scoped(scope, poll)
                .expect("spawning a poll thread");
        }
        let mut submitted = [0u64; PROCESSES];
        while !signals.stop.load(Ordering::SeqCst) {
            let mut refilled = false;
            let mut total = 0;
            for i in 0..PROCESSES {
                let done = completed[i].load(Ordering::Relaxed);
                total += done;
                while submitted[i] < done + slots[i] {
                    sub.submit(ProcessId::new(i as u32), None);
                    submitted[i] += 1;
                    refilled = true;
                }
            }
            if total >= plan.warmup_msgs {
                signals.warm.store(true, Ordering::SeqCst);
            }
            if !refilled {
                std::thread::sleep(POLL_PERIOD / 4);
            }
        }
    });
}
