//! Tracing from outside the program: wrappers around the two seams the
//! repository already exposes — the actor handed to `TcpRuntime::start`
//! and the storage handed in through `StorageRegistry::new`.
//!
//! [`TracedActor`] records one span per handler invocation and counts and
//! classifies every outgoing frame; [`TracedStorage`] records one span per
//! storage call.  Spans carry (kind, start, end) on a per-process buffer;
//! a storage span's parent is the handler span that contains it in time,
//! because a process's handlers and its storage calls all run on that
//! process's single worker thread.  Nothing is written anywhere until the
//! run ends.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use bytes::Bytes;

use crash_recovery_abcast::consensus::ConsensusMsg;
use crash_recovery_abcast::core::{AbcastMsg, CHECKPOINT_TIMER, GOSSIP_TIMER};
use crash_recovery_abcast::net::decode_frame;
use crash_recovery_abcast::storage::{SharedStorage, StableStorage, StorageKey, StorageMetrics};
use crash_recovery_abcast::types::{ProcessSet, Result as AbcastResult, Round};
use crash_recovery_abcast::{
    Actor, ActorContext, ProcessId, SimDuration, SimTime, TimerId, WriteBatch,
};

use crate::deploy::Clock;

/// What a wire frame carries, by decoding it as the program would.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameClass {
    /// `gossip(k, Unordered)`.
    Gossip = 0,
    /// `state` / `state-suffix` transfers.
    State = 1,
    /// A consensus-instance message (prepare … decided, query).
    Consensus = 2,
    /// A failure-detector heartbeat.
    Fd = 3,
    /// Did not decode (never expected).
    Unknown = 4,
}

/// Number of [`FrameClass`] values.
pub const FRAME_CLASSES: usize = 5;

fn classify(frame: &Bytes) -> FrameClass {
    match decode_frame::<AbcastMsg>(frame) {
        Ok(AbcastMsg::Gossip { .. }) => FrameClass::Gossip,
        Ok(AbcastMsg::State { .. } | AbcastMsg::StateSuffix { .. }) => FrameClass::State,
        Ok(AbcastMsg::Consensus(ConsensusMsg::Fd(_))) => FrameClass::Fd,
        Ok(AbcastMsg::Consensus(ConsensusMsg::Instance { .. })) => FrameClass::Consensus,
        Err(_) => FrameClass::Unknown,
    }
}

/// Which of the protocol's tasks a timer belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerClass {
    /// Figure 2's gossip task.
    Gossip,
    /// The alternative protocol's checkpoint task.
    Checkpoint,
    /// Everything the consensus substrate arms (retransmit, heartbeats).
    Consensus,
}

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// `on_start` (initialization or recovery).
    Start,
    /// `on_client_request`; `detail` is the request's sequence number.
    Client,
    /// `on_timer`.
    Timer(TimerClass),
    /// `on_message`; `detail` is the sending process.
    Message(FrameClass),
    /// `commit_batch` with a non-empty batch.
    Commit,
    /// `store` / `append` / `remove` outside a batch.
    Write,
    /// `load` / `load_log` / `keys`.
    Read,
}

impl SpanKind {
    /// `true` for spans recorded by [`TracedStorage`].
    pub fn is_storage(self) -> bool {
        matches!(self, SpanKind::Commit | SpanKind::Write | SpanKind::Read)
    }
}

/// One recorded interval on one process's worker thread.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What ran.
    pub kind: SpanKind,
    /// Start, in nanoseconds of the run's [`Clock`].
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Part of the interval spent in the tracer itself (classifying
    /// frames), so it can be kept out of the layer's self time.
    pub tracer_ns: u64,
    /// Kind-specific detail (see [`SpanKind`]).
    pub detail: u64,
}

/// One end of a sampled frame's journey: the key both ends compute, and
/// when this end saw it.
#[derive(Clone, Copy, Debug)]
pub struct TransitMark {
    /// Sending process.
    pub from: u32,
    /// Receiving process.
    pub to: u32,
    /// Frame length.
    pub len: u32,
    /// Content hash (see [`frame_hash`]).
    pub hash: u64,
    /// When, in nanoseconds of the run's clock.
    pub at_ns: u64,
}

/// Outgoing wire frames of one process by class (self-sends excluded: they
/// never reach a socket).
#[derive(Clone, Copy, Debug, Default)]
pub struct OutCounts {
    /// Frames per [`FrameClass`].
    pub frames: [u64; FRAME_CLASSES],
    /// Frame bytes per [`FrameClass`].
    pub bytes: [u64; FRAME_CLASSES],
}

impl OutCounts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &OutCounts) {
        for i in 0..FRAME_CLASSES {
            self.frames[i] += other.frames[i];
            self.bytes[i] += other.bytes[i];
        }
    }

    /// `self − earlier`, per class.
    pub fn since(&self, earlier: &OutCounts) -> OutCounts {
        let mut d = OutCounts::default();
        for i in 0..FRAME_CLASSES {
            d.frames[i] = self.frames[i] - earlier.frames[i];
            d.bytes[i] = self.bytes[i] - earlier.bytes[i];
        }
        d
    }
}

/// Everything recorded about one process.
#[derive(Debug, Default)]
pub struct TraceBuf {
    /// Handler and storage spans, in completion order.
    pub spans: Vec<Span>,
    /// Sampled frames as they left a handler.
    pub sends: Vec<TransitMark>,
    /// Sampled frames as their `on_message` began.
    pub recvs: Vec<TransitMark>,
    /// Outgoing frames so far.
    pub out: OutCounts,
}

/// The per-process trace buffer, shared between the actor (rebuilt on
/// every recovery), the storage wrapper and the harness.
#[derive(Debug)]
pub struct ProcessTrace {
    clock: Clock,
    buf: Mutex<TraceBuf>,
}

impl ProcessTrace {
    fn lock(&self) -> std::sync::MutexGuard<'_, TraceBuf> {
        // Every update is a push or an add: a panic elsewhere cannot leave
        // the buffer half-written.
        self.buf.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Outgoing-frame counters right now (for windowed differences).
    pub fn out_counts(&self) -> OutCounts {
        self.lock().out
    }

    /// Takes everything recorded so far.
    pub fn take(&self) -> TraceBuf {
        std::mem::take(&mut *self.lock())
    }
}

/// One [`ProcessTrace`] per process of a deployment.
#[derive(Clone, Debug)]
pub struct TraceSink {
    processes: Arc<Vec<Arc<ProcessTrace>>>,
}

impl TraceSink {
    /// Buffers for `n` processes, all on `clock`.
    pub fn new(n: usize, clock: Clock) -> TraceSink {
        let processes = (0..n)
            .map(|_| {
                Arc::new(ProcessTrace {
                    clock,
                    buf: Mutex::default(),
                })
            })
            .collect();
        TraceSink {
            processes: Arc::new(processes),
        }
    }

    /// The buffer of process `p`.
    pub fn process(&self, p: ProcessId) -> Arc<ProcessTrace> {
        self.processes[p.index()].clone()
    }

    /// Sum of every process's outgoing-frame counters.
    pub fn out_counts(&self) -> OutCounts {
        let mut total = OutCounts::default();
        for p in self.processes.iter() {
            total.add(&p.out_counts());
        }
        total
    }

    /// Takes every process's recordings, indexed by process.
    pub fn take(&self) -> Vec<TraceBuf> {
        self.processes.iter().map(|p| p.take()).collect()
    }
}

/// One frame in sixteen is followed from `send` to `on_message`; both ends
/// decide from the frame alone, so they agree without talking.
const TRANSIT_SAMPLE_MASK: u64 = 0xF;

/// FNV-1a over the length and the frame's first and last 32 bytes: cheap
/// on 8 KiB frames, and distinct frames between one pair of processes
/// differ in their leading round/ballot fields or their trailing payload.
pub fn frame_hash(frame: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ frame.len() as u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    if frame.len() <= 64 {
        eat(frame);
    } else {
        eat(&frame[..32]);
        eat(&frame[frame.len() - 32..]);
    }
    // FNV's low bits are weak for short inputs; fold the high half in.
    h ^ (h >> 32)
}

/// The sequence number a benchmark request carries in its first 8 bytes.
pub fn request_seq(payload: &[u8]) -> u64 {
    payload
        .get(..8)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map_or(u64::MAX, u64::from_le_bytes)
}

/// Runs any byte-framed actor and records what it does.
pub struct TracedActor<A: Actor<Msg = Bytes>> {
    inner: A,
    trace: Arc<ProcessTrace>,
}

impl<A: Actor<Msg = Bytes>> TracedActor<A> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: A, trace: Arc<ProcessTrace>) -> Self {
        TracedActor { inner, trace }
    }

    /// The wrapped actor.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Mutable access to the wrapped actor.
    pub fn inner_mut(&mut self) -> &mut A {
        &mut self.inner
    }

    fn handle(
        &mut self,
        entry: Entry,
        ctx: &mut dyn ActorContext<Bytes>,
        run: impl FnOnce(&mut A, &mut dyn ActorContext<Bytes>),
    ) {
        let clock = self.trace.clock;
        let mut traced = TracedCtx {
            inner: ctx,
            clock,
            out: OutCounts::default(),
            sends: Vec::new(),
            tracer_ns: entry.tracer_ns,
        };
        run(&mut self.inner, &mut traced);
        let TracedCtx {
            out,
            sends,
            tracer_ns,
            ..
        } = traced;
        let end_ns = clock.ns();
        let mut buf = self.trace.lock();
        buf.spans.push(Span {
            kind: entry.kind,
            start_ns: clock.ns_of(entry.start),
            end_ns,
            tracer_ns,
            detail: entry.detail,
        });
        buf.out.add(&out);
        buf.sends.extend(sends);
        buf.recvs.extend(entry.recv);
    }
}

/// What is known about a handler invocation before it runs.
struct Entry {
    kind: SpanKind,
    detail: u64,
    start: Instant,
    /// Tracer time already spent (classifying the incoming frame).
    tracer_ns: u64,
    recv: Option<TransitMark>,
}

impl Entry {
    fn now(kind: SpanKind, detail: u64) -> Entry {
        Entry {
            kind,
            detail,
            start: Instant::now(),
            tracer_ns: 0,
            recv: None,
        }
    }
}

impl<A: Actor<Msg = Bytes>> Actor for TracedActor<A> {
    type Msg = Bytes;

    fn on_start(&mut self, ctx: &mut dyn ActorContext<Bytes>) {
        self.handle(Entry::now(SpanKind::Start, 0), ctx, |a, ctx| {
            a.on_start(ctx)
        });
    }

    fn on_message(&mut self, from: ProcessId, frame: Bytes, ctx: &mut dyn ActorContext<Bytes>) {
        let mut entry = Entry::now(SpanKind::Start, u64::from(from.as_u32()));
        entry.kind = SpanKind::Message(classify(&frame));
        let me = ctx.me();
        let hash = frame_hash(&frame);
        if from != me && hash & TRANSIT_SAMPLE_MASK == 0 {
            entry.recv = Some(TransitMark {
                from: from.as_u32(),
                to: me.as_u32(),
                len: frame.len() as u32,
                hash,
                at_ns: self.trace.clock.ns_of(entry.start),
            });
        }
        entry.tracer_ns = entry.start.elapsed().as_nanos() as u64;
        self.handle(entry, ctx, |a, ctx| a.on_message(from, frame, ctx));
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn ActorContext<Bytes>) {
        let class = if timer == GOSSIP_TIMER {
            TimerClass::Gossip
        } else if timer == CHECKPOINT_TIMER {
            TimerClass::Checkpoint
        } else {
            TimerClass::Consensus
        };
        let entry = Entry::now(SpanKind::Timer(class), timer.raw());
        self.handle(entry, ctx, |a, ctx| a.on_timer(timer, ctx));
    }

    fn on_client_request(&mut self, payload: Bytes, ctx: &mut dyn ActorContext<Bytes>) {
        let entry = Entry::now(SpanKind::Client, request_seq(&payload));
        self.handle(entry, ctx, |a, ctx| a.on_client_request(payload, ctx));
    }
}

/// The context a traced handler runs against: forwards everything, and
/// counts, classifies and samples what is sent.
struct TracedCtx<'a> {
    inner: &'a mut dyn ActorContext<Bytes>,
    clock: Clock,
    out: OutCounts,
    sends: Vec<TransitMark>,
    tracer_ns: u64,
}

impl TracedCtx<'_> {
    /// Records `frame` leaving for `copies` remote destinations; `to` is
    /// `None` for a multisend (every process but the sender).
    fn note(&mut self, to: Option<ProcessId>, frame: &Bytes) {
        let began = Instant::now();
        let me = self.inner.me();
        let n = self.inner.processes().len();
        let copies = match to {
            Some(to) => u64::from(to != me),
            None => n as u64 - 1,
        };
        if copies > 0 {
            let class = classify(frame) as usize;
            self.out.frames[class] += copies;
            self.out.bytes[class] += copies * frame.len() as u64;
            let hash = frame_hash(frame);
            if hash & TRANSIT_SAMPLE_MASK == 0 {
                let at_ns = self.clock.ns_of(began);
                let mut mark = |to: ProcessId| {
                    self.sends.push(TransitMark {
                        from: me.as_u32(),
                        to: to.as_u32(),
                        len: frame.len() as u32,
                        hash,
                        at_ns,
                    });
                };
                match to {
                    Some(to) => mark(to),
                    None => (0..n as u32)
                        .map(ProcessId::new)
                        .filter(|p| *p != me)
                        .for_each(mark),
                }
            }
        }
        self.tracer_ns += began.elapsed().as_nanos() as u64;
    }
}

impl ActorContext<Bytes> for TracedCtx<'_> {
    fn me(&self) -> ProcessId {
        self.inner.me()
    }
    fn processes(&self) -> &ProcessSet {
        self.inner.processes()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn send(&mut self, to: ProcessId, msg: Bytes) {
        self.note(Some(to), &msg);
        self.inner.send(to, msg);
    }
    fn multisend(&mut self, msg: Bytes) {
        self.note(None, &msg);
        self.inner.multisend(msg);
    }
    fn set_timer(&mut self, timer: TimerId, delay: SimDuration) {
        self.inner.set_timer(timer, delay);
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.inner.cancel_timer(timer);
    }
    fn storage(&self) -> &SharedStorage {
        self.inner.storage()
    }
    fn random_u64(&mut self) -> u64 {
        self.inner.random_u64()
    }
}

/// A stable storage that records one span per call and otherwise is the
/// storage it wraps.
pub struct TracedStorage {
    inner: SharedStorage,
    trace: Arc<ProcessTrace>,
}

impl TracedStorage {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: SharedStorage, trace: Arc<ProcessTrace>) -> Self {
        TracedStorage { inner, trace }
    }

    fn span<R>(&self, kind: SpanKind, bytes: usize, call: impl FnOnce(&SharedStorage) -> R) -> R {
        let clock = self.trace.clock;
        let start_ns = clock.ns();
        let result = call(&self.inner);
        let end_ns = clock.ns();
        self.trace.lock().spans.push(Span {
            kind,
            start_ns,
            end_ns,
            tracer_ns: 0,
            detail: bytes as u64,
        });
        result
    }
}

impl StableStorage for TracedStorage {
    fn store(&self, key: &StorageKey, value: &[u8]) -> AbcastResult<()> {
        self.span(SpanKind::Write, value.len(), |s| s.store(key, value))
    }
    fn load(&self, key: &StorageKey) -> AbcastResult<Option<Bytes>> {
        self.span(SpanKind::Read, 0, |s| s.load(key))
    }
    fn append(&self, key: &StorageKey, value: &[u8]) -> AbcastResult<()> {
        self.span(SpanKind::Write, value.len(), |s| s.append(key, value))
    }
    fn load_log(&self, key: &StorageKey) -> AbcastResult<Vec<Bytes>> {
        self.span(SpanKind::Read, 0, |s| s.load_log(key))
    }
    fn remove(&self, key: &StorageKey) -> AbcastResult<()> {
        self.span(SpanKind::Write, 0, |s| s.remove(key))
    }
    fn commit_batch(&self, batch: WriteBatch) -> AbcastResult<()> {
        if batch.is_empty() {
            return self.inner.commit_batch(batch);
        }
        let bytes = batch.payload_bytes();
        self.span(SpanKind::Commit, bytes, |s| s.commit_batch(batch))
    }
    fn keys(&self) -> AbcastResult<Vec<StorageKey>> {
        self.span(SpanKind::Read, 0, |s| s.keys())
    }
    fn note_checkpoint(&self, round: Round) {
        self.inner.note_checkpoint(round);
    }
    fn metrics(&self) -> &StorageMetrics {
        self.inner.metrics()
    }
    fn footprint_bytes(&self) -> u64 {
        self.inner.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_hash_depends_on_both_ends_and_the_length() {
        let a = vec![1u8; 200];
        let mut head = a.clone();
        head[0] = 2;
        let mut tail = a.clone();
        tail[199] = 2;
        let mut middle = a.clone();
        middle[100] = 2;
        assert_ne!(frame_hash(&a), frame_hash(&head));
        assert_ne!(frame_hash(&a), frame_hash(&tail));
        assert_eq!(
            frame_hash(&a),
            frame_hash(&middle),
            "the middle is not read"
        );
        assert_ne!(frame_hash(&a), frame_hash(&a[..199]));
    }

    #[test]
    fn request_seq_reads_the_leading_eight_bytes() {
        let mut payload = 77u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&[9; 56]);
        assert_eq!(request_seq(&payload), 77);
        assert_eq!(request_seq(&[1, 2, 3]), u64::MAX);
    }
}
