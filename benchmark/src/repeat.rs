//! One repeat: a fresh cluster, set up, warmed, loaded for the measured
//! window, drained, read out and shut down — in a process of its own, so
//! that peak memory and thread CPU belong to this repeat alone.
//!
//! Three threads belong to the benchmark: the generator (`bench-gen`), the
//! controller (this process's main thread: counter snapshots at the
//! window's edges, the fault schedule) and nothing else.  Everything the
//! controller reads during the window comes from counters the program
//! already keeps or from `/proc`.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crash_recovery_abcast::core::{AgreedQueue, DeliveryEvent, ProtocolMetrics};
use crash_recovery_abcast::net::{TcpRuntime, TcpSnapshot};
use crash_recovery_abcast::storage::StorageSnapshot;
use crash_recovery_abcast::{MsgId, ProcessId, StorageRegistry};

use crate::deploy::{self, Clock, Probe, SplitMix, Storages};
use crate::gen::{
    self, Avoid, ClosedPlan, ClosedSignals, OpenPlan, Request, SubmitMode, Submitter,
};
use crate::procfs::{self, CpuSnapshot};
use crate::spec::{fault_plan, Load, Workload, PROCESSES};
use crate::trace::{OutCounts, TraceBuf, TraceSink};

/// How long the drain may take before undelivered requests count as lost.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// What one repeat is asked to do.
#[derive(Clone, Debug)]
pub struct RepeatSpec {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub window_s: f64,
    /// Wrap actors and storage in the tracer.
    pub traced: bool,
    /// How requests are submitted (always `ClientRequest` outside tests).
    pub mode: SubmitMode,
    /// Private directory for this repeat's WALs.
    pub dir: PathBuf,
}

/// Counters read at one edge of the measured window.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// When, clock ns.
    pub at_ns: u64,
    /// Per-thread CPU.
    pub cpu: CpuSnapshot,
    /// Storage counters, summed over processes.
    pub storage: StorageSnapshot,
    /// Socket counters.
    pub tcp: TcpSnapshot,
    /// Outgoing frames by class (traced repeats only).
    pub out: OutCounts,
    /// `rounds_completed` at the process that never crashes.
    pub rounds: u64,
}

/// What one process reported at a read-out.
#[derive(Clone, Debug, Default)]
pub struct ProcessView {
    /// Its delivery log: `(clock ns, identity)` in delivery order.
    pub log: Vec<(u64, MsgId)>,
    /// The messages it handed to the application since the last read-out.
    pub delivered: Vec<(MsgId, Bytes)>,
    /// Its `Agreed` queue.
    pub agreed: AgreedQueue,
    /// Its protocol counters.
    pub metrics: ProtocolMetrics,
    /// Frames it could not decode.
    pub decode_failures: u64,
}

/// One crash-and-recover inside the window.
#[derive(Clone, Debug)]
pub struct FaultRecord {
    /// The victim.
    pub process: ProcessId,
    /// When it was crashed, clock ns.
    pub crash_ns: u64,
    /// When `recover` was called, clock ns.
    pub recover_ns: u64,
    /// What the victim reported just before the crash.
    pub before: ProcessView,
    /// `recover()` → the victim's sequence covers what the survivor's
    /// covered at that instant, in ms (`None`: not within the settle time,
    /// [`Collected::settle_ms`]).
    pub catchup_ms: Option<f64>,
}

/// The cold restart after the drain.
#[derive(Clone, Debug)]
pub struct ColdRestart {
    /// The three `WalStorage::open` calls, ms.
    pub reopen_ms: f64,
    /// Reopen + cluster start → every sequence covers the pre-shutdown
    /// count, ms (`None`: not within the deadline).
    pub total_ms: Option<f64>,
    /// The recovered `Agreed` queues.
    pub after: Vec<AgreedQueue>,
    /// Protocol counters of the recovered processes.
    pub metrics: Vec<ProtocolMetrics>,
}

/// Everything one repeat produced, before any metric is computed.
#[derive(Debug)]
pub struct Collected {
    /// The workload.
    pub workload: &'static Workload,
    /// Its seed.
    pub seed: u64,
    /// Child start → first probe messages delivered everywhere, seconds.
    pub setup_s: f64,
    /// Every request, in submission order.
    pub requests: Vec<Request>,
    /// Nanoseconds the generator spent inside submit calls.
    pub gen_busy_ns: u64,
    /// Counters at the window's opening and closing edge.
    pub edges: (Counters, Counters),
    /// Final read-out of every process.
    pub views: Vec<ProcessView>,
    /// Crashes injected, in order.
    pub faults: Vec<FaultRecord>,
    /// The cold restart, where the workload has one.
    pub restart: Option<ColdRestart>,
    /// `VmHWM` after the drain, MiB.
    pub rss_mib: f64,
    /// Requests not delivered everywhere when the drain ended.
    pub drained: bool,
    /// WAL bytes on disk, rotations and compactions at the end.
    pub wal_end: (u64, u64, u64),
    /// Spans and frame marks per process (traced repeats only).
    pub trace: Option<Vec<TraceBuf>>,
}

impl Collected {
    /// How long a recovered process is watched for, and the outage window
    /// runs on after a recovery: [`fault_plan::SETTLE`] of the measured
    /// window, in ms.
    pub fn settle_ms(&self) -> f64 {
        (self.edges.1.at_ns - self.edges.0.at_ns) as f64 * fault_plan::SETTLE / 1e6
    }
}

/// A running deployment plus the handles the controller reads.
struct Live<'a, A: Probe> {
    runtime: &'a TcpRuntime<A>,
    storages: &'a Storages,
    sink: Option<&'a TraceSink>,
    clock: Clock,
    offsets: &'a [i64],
}

impl<A: Probe> Live<'_, A> {
    fn counters(&self) -> Counters {
        let rounds = self
            .runtime
            .inspect(fault_plan::SURVIVOR, |a| {
                a.abcast().metrics().rounds_completed
            })
            .unwrap_or(0);
        Counters {
            at_ns: self.clock.ns(),
            cpu: CpuSnapshot::take(),
            storage: self.storages.counters(),
            tcp: self.runtime.tcp_metrics().snapshot(),
            out: self.sink.map(TraceSink::out_counts).unwrap_or_default(),
            rounds,
        }
    }

    /// Reads a process out on its own worker thread (one `invoke`).
    fn view(&self, p: ProcessId) -> Option<ProcessView> {
        let offset = self.offsets[p.index()];
        self.runtime.invoke(p, move |actor, _ctx| {
            let abcast = actor.abcast_mut();
            let delivered = abcast
                .take_deliveries()
                .into_iter()
                .filter_map(|event| match event {
                    DeliveryEvent::Deliver(m) => Some((m.id(), m.payload().clone())),
                    DeliveryEvent::InstallCheckpoint(_) => None,
                })
                .collect();
            ProcessView {
                log: abcast
                    .delivery_log()
                    .iter()
                    .map(|(at, id)| ((at.as_micros() as i64 * 1000 + offset).max(0) as u64, *id))
                    .collect(),
                delivered,
                agreed: abcast.agreed().clone(),
                metrics: abcast.metrics().clone(),
                decode_failures: abcast.decode_failures(),
            }
        })
    }

    fn total_delivered(&self, p: ProcessId) -> Option<u64> {
        self.runtime
            .inspect(p, |a| a.abcast().agreed().total_delivered())
    }
}

/// Blocks until every process's sequence covers `count` deliveries.  Parks
/// on the runtime's activity signal between probes.
fn wait_covered<A: Probe>(runtime: &TcpRuntime<A>, count: u64, deadline: Instant) -> bool {
    for p in runtime.processes().clone().iter() {
        loop {
            let seen = runtime.activity().epoch();
            let covered = runtime.inspect(p, |a| a.abcast().agreed().total_delivered());
            if covered.is_some_and(|c| c >= count) {
                break;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            runtime
                .activity()
                .wait_past(seen, left.min(Duration::from_millis(20)));
        }
    }
    true
}

fn sleep_until(clock: Clock, at_ns: u64) {
    let now = clock.ns();
    if at_ns > now {
        std::thread::sleep(Duration::from_nanos(at_ns - now));
    }
}

fn secs(s: f64) -> u64 {
    (s * 1e9) as u64
}

/// Crashes `victim` at `crash_ns` and recovers it at `recover_ns`, timing
/// how long it then takes to cover what the survivor had delivered when
/// `recover` was called.
fn crash_and_recover<A: Probe>(
    live: &Live<'_, A>,
    victim: ProcessId,
    crash_ns: u64,
    recover_ns: u64,
    settle_ns: u64,
) -> FaultRecord {
    sleep_until(live.clock, crash_ns);
    let before = live.view(victim).unwrap_or_default();
    let crash_ns = live.clock.ns();
    live.runtime.crash(victim);
    sleep_until(live.clock, recover_ns);
    let target = live.total_delivered(fault_plan::SURVIVOR).unwrap_or(0);
    let recover_ns = live.clock.ns();
    live.runtime.recover(victim);
    let mut catchup_ms = None;
    while live.clock.ns() < recover_ns + settle_ns {
        if live.total_delivered(victim).is_some_and(|c| c >= target) {
            catchup_ms = Some((live.clock.ns() - recover_ns) as f64 / 1e6);
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    FaultRecord {
        process: victim,
        crash_ns,
        recover_ns,
        before,
        catchup_ms,
    }
}

/// Shuts nothing down itself: reopens the WALs under `dir`, starts a new
/// cluster on them and waits until every sequence covers `count`.
fn cold_restart<A: Probe>(
    spec: &RepeatSpec,
    count: u64,
    start: &dyn Fn(StorageRegistry) -> io::Result<TcpRuntime<A>>,
) -> io::Result<ColdRestart> {
    let began = Instant::now();
    // Reopened untraced: the restart is timed as a whole, from outside.
    let storages = Storages::open(spec.workload, &spec.dir, None)?;
    let reopen_ms = began.elapsed().as_secs_f64() * 1e3;
    let runtime = start(storages.registry.clone())?;
    let covered = wait_covered(&runtime, count, Instant::now() + DRAIN_DEADLINE);
    let total_ms = covered.then(|| began.elapsed().as_secs_f64() * 1e3);
    let mut after = Vec::new();
    let mut metrics = Vec::new();
    for p in runtime.processes().clone().iter() {
        let read = runtime.inspect(p, |a| {
            (a.abcast().agreed().clone(), a.abcast().metrics().clone())
        });
        let (queue, m) = read.unwrap_or_default();
        after.push(queue);
        metrics.push(m);
    }
    runtime.shutdown();
    Ok(ColdRestart {
        reopen_ms,
        total_ms,
        after,
        metrics,
    })
}

/// Runs one repeat on a deployment started by `start`.
///
/// `clock` must have been started when the process was: `setup_s` counts
/// from there.  `start` is called once for the measured cluster and once
/// more for the cold restart, where the workload has one.
pub fn run<A: Probe>(
    spec: &RepeatSpec,
    clock: Clock,
    sink: Option<&TraceSink>,
    start: &dyn Fn(StorageRegistry) -> io::Result<TcpRuntime<A>>,
) -> io::Result<Collected> {
    let workload = spec.workload;
    let storages = Storages::open(workload, &spec.dir, sink)?;
    let runtime = start(storages.registry.clone())?;
    let offsets = deploy::calibrate(&runtime, clock, 15)
        .ok_or_else(|| io::Error::other("a worker did not answer the clock probe"))?;
    let live = Live {
        runtime: &runtime,
        storages: &storages,
        sink,
        clock,
        offsets: &offsets,
    };

    let mut submitter = Submitter::new(&runtime, clock, spec.seed, workload.payload, spec.mode);
    // Set-up ends when one request per process has gone all the way round:
    // storage is open, listeners are up, every connection carries frames.
    for p in runtime.processes().clone().iter() {
        submitter.submit(p, None);
    }
    if !wait_covered(&runtime, PROCESSES as u64, Instant::now() + DRAIN_DEADLINE) {
        return Err(io::Error::other(
            "the cluster did not deliver its first requests",
        ));
    }
    let setup_s = clock.ns() as f64 / 1e9;

    let window_ns = secs(spec.window_s);
    let mut rng = SplitMix(spec.seed);
    let rr_offset = (rng.next_u64() % PROCESSES as u64) as usize;
    let signals = ClosedSignals::default();
    let mut faults = Vec::new();

    let edges = std::thread::scope(|scope| -> io::Result<(Counters, Counters)> {
        match workload.load {
            Load::Open { rate, warmup_s } => {
                let start_ns = clock.ns() + secs(0.01);
                let w0 = start_ns + secs(warmup_s);
                let w1 = w0 + window_ns;
                let at = |fraction: f64| w0 + (window_ns as f64 * fraction) as u64;
                let settle_ns = (window_ns as f64 * fault_plan::SETTLE) as u64;
                let schedule = [
                    (
                        fault_plan::LEADER,
                        fault_plan::LEADER_CRASH,
                        fault_plan::LEADER_RECOVER,
                    ),
                    (
                        fault_plan::FOLLOWER,
                        fault_plan::FOLLOWER_CRASH,
                        fault_plan::FOLLOWER_RECOVER,
                    ),
                ];
                let avoid = if workload.faults {
                    schedule
                        .iter()
                        .map(|(process, crash, recover)| Avoid {
                            process: *process,
                            from_ns: at(*crash) - secs(fault_plan::AVOID_BEFORE_S),
                            to_ns: at(*recover + fault_plan::AVOID_AFTER),
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                let plan = OpenPlan {
                    rate,
                    start_ns,
                    end_ns: w1,
                    rr_offset,
                    avoid,
                };
                let sub = &mut submitter;
                let generator = std::thread::Builder::new()
                    .name("bench-gen".to_string())
                    .spawn_scoped(scope, move || gen::open_loop(sub, &plan))?;
                sleep_until(clock, w0);
                let opening = live.counters();
                if workload.faults {
                    for (process, crash, recover) in schedule {
                        faults.push(crash_and_recover(
                            &live,
                            process,
                            at(crash),
                            at(recover),
                            settle_ns,
                        ));
                    }
                }
                sleep_until(clock, w1);
                let closing = live.counters();
                generator
                    .join()
                    .map_err(|_| io::Error::other("the generator panicked"))?;
                Ok((opening, closing))
            }
            Load::Closed {
                clients,
                warmup_msgs,
            } => {
                let plan = ClosedPlan {
                    clients,
                    warmup_msgs,
                };
                let (sub, signals) = (&mut submitter, &signals);
                let generator = std::thread::Builder::new()
                    .name("bench-gen".to_string())
                    .spawn_scoped(scope, move || gen::closed_loop(sub, &plan, signals))?;
                let deadline = Instant::now() + DRAIN_DEADLINE;
                while !signals.warm.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let opening = live.counters();
                sleep_until(clock, opening.at_ns + window_ns);
                let closing = live.counters();
                signals.stop.store(true, Ordering::SeqCst);
                generator
                    .join()
                    .map_err(|_| io::Error::other("the generator panicked"))?;
                Ok((opening, closing))
            }
        }
    })?;

    let requests = std::mem::take(&mut submitter.requests);
    let gen_busy_ns = submitter.busy_ns;
    let drained = wait_covered(
        &runtime,
        requests.len() as u64,
        Instant::now() + DRAIN_DEADLINE,
    );
    let rss_mib = procfs::vm_hwm_mib();

    let mut views = Vec::new();
    for p in runtime.processes().clone().iter() {
        views.push(
            live.view(p)
                .ok_or_else(|| io::Error::other(format!("{p} did not answer")))?,
        );
    }
    let wal_end = storages.wals.iter().fold((0, 0, 0), |acc, wal| {
        (
            acc.0 + wal.wal_size_bytes(),
            acc.1 + wal.rotations(),
            acc.2 + wal.compactions(),
        )
    });
    runtime.shutdown();
    // Every handle on the WALs must go before they are reopened: dropping
    // a `WalStorage` joins its compaction thread.
    drop(storages);
    let trace = sink.map(TraceSink::take);

    let restart = if workload.faults {
        let count = views
            .iter()
            .map(|v| v.agreed.total_delivered())
            .max()
            .unwrap_or(0);
        Some(cold_restart(spec, count, start)?)
    } else {
        None
    };

    Ok(Collected {
        workload,
        seed: spec.seed,
        setup_s,
        requests,
        gen_busy_ns,
        edges,
        views,
        faults,
        restart,
        rss_mib,
        drained,
        wal_end,
        trace,
    })
}

/// Where each request was delivered, and when.
pub struct Deliveries {
    /// Per process: identity → first delivery there, clock ns (crash-time
    /// read-outs merged in).
    pub at: Vec<HashMap<MsgId, u64>>,
}

impl Deliveries {
    /// Indexes every delivery log of `collected`.
    pub fn index(collected: &Collected) -> Deliveries {
        let mut at = vec![HashMap::new(); PROCESSES];
        let mut note = |p: usize, log: &[(u64, MsgId)]| {
            for (when, id) in log {
                let slot = at[p].entry(*id).or_insert(*when);
                *slot = (*slot).min(*when);
            }
        };
        for (p, view) in collected.views.iter().enumerate() {
            note(p, &view.log);
        }
        for fault in &collected.faults {
            note(fault.process.index(), &fault.before.log);
        }
        Deliveries { at }
    }

    /// When `id`, submitted at `target`, was A-delivered there; if the
    /// target lost its memory before delivering it, the earliest delivery
    /// anywhere.
    pub fn of(&self, target: ProcessId, id: MsgId) -> Option<u64> {
        self.at[target.index()]
            .get(&id)
            .copied()
            .or_else(|| self.at.iter().filter_map(|m| m.get(&id)).copied().min())
    }
}

/// Removes a repeat's directory; a leftover is only disk space, so errors
/// are reported and not fatal.
pub fn clean(dir: &Path) {
    if dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            eprintln!("warning: could not remove {}: {e}", dir.display());
        }
    }
}
