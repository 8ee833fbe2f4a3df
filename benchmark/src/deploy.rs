//! Building the deployment under test through the repository's public
//! functions only: storage, cluster configuration, the socket runtime,
//! and the clock alignment between the generator and the workers.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use crash_recovery_abcast::net::{LinkPolicy, TcpConfig, TcpRuntime};
use crash_recovery_abcast::storage::{InMemoryStorage, SharedStorage, StorageSnapshot};
use crash_recovery_abcast::types::ProtocolConfig;
use crash_recovery_abcast::{
    Actor, ActorContext, ClusterConfig, FramedAbcast, ProcessId, StorageRegistry, TimerId,
    WalStorage,
};

use crate::spec::{Store, Variant, Workload, PIPELINE_DEPTH, PROCESSES};
use crate::trace::{TraceSink, TracedActor, TracedStorage};

/// The run's time base: nanoseconds since the child process started.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// A clock starting now.
    pub fn start() -> Clock {
        Clock {
            origin: Instant::now(),
        }
    }

    /// Now.
    pub fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `at` on this clock (0 for instants before the origin).
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// SplitMix64: the one generator every seed-derived input comes from.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The payload of request `seq` under `seed`: the sequence number in the
/// first 8 bytes (how deliveries are correlated back to requests, since a
/// recovery's epoch bump makes `MsgId`s unpredictable), then seed-derived
/// filler that the checker regenerates and compares byte for byte.
pub fn payload(seed: u64, seq: u64, len: usize) -> Bytes {
    let mut bytes = Vec::with_capacity(len.max(8));
    bytes.extend_from_slice(&seq.to_le_bytes());
    let mut rng = SplitMix(seed ^ seq.wrapping_mul(0xD605_BBB5_8C8A_BBC9));
    while bytes.len() < len {
        let word = rng.next_u64().to_le_bytes();
        let take = (len - bytes.len()).min(8);
        bytes.extend_from_slice(&word[..take]);
    }
    Bytes::from(bytes)
}

/// Directory for everything a run leaves on disk: `benchmark/target/`,
/// next to the package, on the repository's own file system (never tmpfs).
pub fn data_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("bench-data")
}

/// The stable storage of one deployment, plus the typed handles the
/// registry erases.
pub struct Storages {
    /// What `TcpRuntime::start` takes.
    pub registry: StorageRegistry,
    /// The WALs behind it (empty for memory storage).
    pub wals: Vec<Arc<WalStorage>>,
    /// The untraced storages, for counter snapshots.
    pub raw: Vec<SharedStorage>,
}

impl Storages {
    /// Opens (or reopens) the storage of `workload` under `dir`; with a
    /// sink, each store is wrapped in a [`TracedStorage`].
    pub fn open(workload: &Workload, dir: &Path, sink: Option<&TraceSink>) -> io::Result<Storages> {
        let mut wals = Vec::new();
        let mut raw: Vec<SharedStorage> = Vec::new();
        for i in 0..PROCESSES {
            match workload.store {
                Store::Memory => raw.push(Arc::new(InMemoryStorage::new())),
                Store::Wal => {
                    let wal = WalStorage::open(dir.join(format!("p{i}.wal")))
                        .map_err(|e| io::Error::other(format!("opening WAL {i}: {e}")))?
                        .with_group_window(1);
                    let wal = Arc::new(wal);
                    wals.push(wal.clone());
                    raw.push(wal);
                }
            }
        }
        let stores = raw
            .iter()
            .enumerate()
            .map(|(i, store)| match sink {
                Some(sink) => {
                    let p = ProcessId::new(i as u32);
                    Arc::new(TracedStorage::new(store.clone(), sink.process(p))) as SharedStorage
                }
                None => store.clone(),
            })
            .collect();
        Ok(Storages {
            registry: StorageRegistry::new(stores),
            wals,
            raw,
        })
    }

    /// Storage counters summed over the processes.
    pub fn counters(&self) -> StorageSnapshot {
        self.raw.iter().fold(StorageSnapshot::default(), |acc, s| {
            acc.plus(&s.metrics().snapshot())
        })
    }
}

/// The cluster configuration every workload shares, but for the variant.
pub fn cluster_config(workload: &Workload, seed: u64) -> ClusterConfig {
    let protocol = match workload.variant {
        Variant::Alternative => ProtocolConfig::alternative(),
        Variant::Basic => ProtocolConfig::basic(),
    }
    .with_pipeline_depth(PIPELINE_DEPTH);
    ClusterConfig::alternative(PROCESSES)
        .with_protocol(protocol)
        .with_seed(seed)
}

/// Default socket settings, seeded, with the workload's link delay.
pub fn tcp_config(workload: &Workload, seed: u64) -> TcpConfig {
    let link = match workload.link_delay {
        Some((min, max)) => LinkPolicy::delayed(min, max),
        None => LinkPolicy::direct(),
    };
    TcpConfig::default().with_seed(seed).with_link(link)
}

/// What the load generator needs from an actor, whatever runs inside.
pub trait Completions: Actor<Msg = Bytes> {
    /// Requests submitted at `me` that completed there, among the
    /// completions recorded from position `cursor` on; returns the new
    /// cursor and that count.
    fn completions_since(&self, me: ProcessId, cursor: usize) -> (usize, u64);
}

/// An actor with the atomic broadcast protocol inside, reachable.
pub trait Probe: Completions {
    /// The protocol behind its byte wire.
    fn abcast(&self) -> &FramedAbcast;
    /// Mutable access (to drain delivery events).
    fn abcast_mut(&mut self) -> &mut FramedAbcast;
}

impl Completions for FramedAbcast {
    fn completions_since(&self, me: ProcessId, cursor: usize) -> (usize, u64) {
        let log = self.delivery_log();
        let own = log[cursor.min(log.len())..]
            .iter()
            .filter(|(_, id)| id.sender == me)
            .count();
        (log.len(), own as u64)
    }
}

impl Probe for FramedAbcast {
    fn abcast(&self) -> &FramedAbcast {
        self
    }
    fn abcast_mut(&mut self) -> &mut FramedAbcast {
        self
    }
}

impl<A: Completions> Completions for TracedActor<A> {
    fn completions_since(&self, me: ProcessId, cursor: usize) -> (usize, u64) {
        self.inner().completions_since(me, cursor)
    }
}

impl<A: Probe> Probe for TracedActor<A> {
    fn abcast(&self) -> &FramedAbcast {
        self.inner().abcast()
    }
    fn abcast_mut(&mut self) -> &mut FramedAbcast {
        self.inner_mut().abcast_mut()
    }
}

/// An actor that only counts client requests: what the generator and the
/// `client_request` → handler path can do with nothing behind them.
#[derive(Debug, Default)]
pub struct NullActor {
    requests: u64,
}

impl Actor for NullActor {
    type Msg = Bytes;
    fn on_start(&mut self, _ctx: &mut dyn ActorContext<Bytes>) {}
    fn on_message(&mut self, _from: ProcessId, _msg: Bytes, _ctx: &mut dyn ActorContext<Bytes>) {}
    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut dyn ActorContext<Bytes>) {}
    fn on_client_request(&mut self, payload: Bytes, _ctx: &mut dyn ActorContext<Bytes>) {
        std::hint::black_box(payload);
        self.requests += 1;
    }
}

impl Completions for NullActor {
    fn completions_since(&self, _me: ProcessId, cursor: usize) -> (usize, u64) {
        (
            self.requests as usize,
            self.requests - (cursor as u64).min(self.requests),
        )
    }
}

/// Starts the untraced deployment: the program exactly as shipped.
pub fn start_plain(
    workload: &Workload,
    seed: u64,
    registry: StorageRegistry,
) -> io::Result<TcpRuntime<FramedAbcast>> {
    let factory = cluster_config(workload, seed).framed_factory();
    TcpRuntime::start(PROCESSES, registry, tcp_config(workload, seed), factory)
}

/// Starts the traced deployment: the same actors inside [`TracedActor`].
pub fn start_traced(
    workload: &Workload,
    seed: u64,
    registry: StorageRegistry,
    sink: &TraceSink,
) -> io::Result<TcpRuntime<TracedActor<FramedAbcast>>> {
    let factory = cluster_config(workload, seed).framed_factory();
    let sink = sink.clone();
    TcpRuntime::start(
        PROCESSES,
        registry,
        tcp_config(workload, seed),
        move |p, storage| TracedActor::new(factory(p, storage), sink.process(p)),
    )
}

/// The null-actor deployment's runtime type.
pub type NullRuntime = TcpRuntime<NullActor>;

/// Starts the null-actor deployment on the same runtime and settings.
pub fn start_null(seed: u64) -> io::Result<NullRuntime> {
    let registry = StorageRegistry::in_memory(PROCESSES);
    TcpRuntime::start(
        PROCESSES,
        registry,
        TcpConfig::default().with_seed(seed),
        |_, _| NullActor::default(),
    )
}

/// Offset of each worker's clock: `clock_ns = worker_us · 1000 + offset`.
///
/// A worker stamps deliveries with microseconds since *its* start; the
/// generator stamps submissions on [`Clock`].  The two are aligned by the
/// round trip with the smallest spread out of `rounds` idle probes, which
/// bounds the error by half that round trip (a few microseconds).
pub fn calibrate<A: Actor<Msg = Bytes>>(
    runtime: &TcpRuntime<A>,
    clock: Clock,
    rounds: usize,
) -> Option<Vec<i64>> {
    let mut offsets = Vec::with_capacity(PROCESSES);
    for p in runtime.processes().clone().iter() {
        let mut best: Option<(u64, i64)> = None;
        for _ in 0..rounds {
            let before = clock.ns();
            let worker_us = runtime.invoke(p, |_, ctx| ctx.now().as_micros())?;
            let after = clock.ns();
            let rtt = after - before;
            if best.is_none_or(|(best_rtt, _)| rtt < best_rtt) {
                let midpoint = before + rtt / 2;
                best = Some((rtt, midpoint as i64 - (worker_us * 1000) as i64));
            }
        }
        offsets.push(best?.1);
    }
    Some(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_a_function_of_seed_and_sequence_number() {
        let a = payload(7, 41, 64);
        assert_eq!(a.len(), 64);
        assert_eq!(crate::trace::request_seq(&a), 41);
        assert_eq!(a, payload(7, 41, 64));
        assert_ne!(a, payload(8, 41, 64));
        assert_ne!(a[8..], payload(7, 42, 64)[8..]);
        assert_eq!(payload(7, 41, 8192).len(), 8192);
        assert_eq!(payload(7, 41, 13).len(), 13);
    }

    #[test]
    fn the_null_actor_counts_requests() {
        let mut actor = NullActor::default();
        let mut ctx: crash_recovery_abcast::net::testkit::ScriptedContext<Bytes> =
            crash_recovery_abcast::net::testkit::ScriptedContext::new(ProcessId::new(0), 3);
        for _ in 0..5 {
            actor.on_client_request(Bytes::from_static(b"x"), &mut ctx);
        }
        assert_eq!(actor.completions_since(ProcessId::new(0), 2), (5, 3));
    }
}
