//! Real TCP socket transport behind the frame codec: the live runtime.
//!
//! [`TcpRuntime`] runs the same [`Actor`]s as the deterministic simulator
//! over `std::net` sockets and real time, so the whole stack
//! (failure-detector heartbeats, consensus, atomic broadcast, WAL storage)
//! runs unmodified over a real wire.
//!
//! Each worker runs its actor in **groups**: it blocks for one input, then
//! drains more that are already queued and fires the due timers, all inside
//! one [`StepContext`] — one storage commit (one fsync on a WAL) for the
//! whole group, then every frame the group produced, in order.  The actor's
//! own per-step scopes nest into the group's, so write-ahead order holds
//! across the group: nothing leaves before the shared barrier.  A group
//! holds a frame for about one barrier's time at most (measured, not
//! configured), so grouping pays where barriers are dear and stays out of
//! the way where they are nearly free.
//!
//! The I/O plane is a **readiness-based event loop**: [`TcpRuntime`] runs
//! one worker thread per process (the actors) plus a single *poller*
//! thread ([`crate::poll`]) that owns every listener, every inbound and
//! every outbound socket of the deployment — accepts, handshakes,
//! reconnect backoff, vectored writes and reads all happen on that one
//! thread over nonblocking fds, so a cluster of `n` processes costs
//! `n + 1` OS threads instead of the `O(n²)` of thread-per-connection.
//! Per ordered process pair there is one *simplex* connection: the sender
//! dials (nonblocking, completion reported by the poller), identifies
//! itself with a tiny handshake, and streams length-prefixed frames; the
//! receiver reassembles them with a per-connection [`FrameReassembler`] and
//! hands complete frames to the actor as zero-copy [`Bytes`] views of the
//! read chunk.  Workers hand outbound frames to the poller over a command
//! queue plus an `eventfd` wakeup; each connection carries a bounded write
//! queue, and a frame that would overflow it is a counted fair-lossy drop
//! (backpressure never blocks a worker).
//!
//! TCP introduces exactly the failure modes the paper's fair-lossy link
//! abstracts away, and the transport maps each back onto that model
//! (Section 3.1):
//!
//! * **partial reads** — the reassembly buffer holds torn prefixes/bodies
//!   until the stream completes them ([`crate::frame::FrameReassembler`]);
//! * **torn writes / connection resets** — the frames queued on the dead
//!   connection are lost (counted fair-lossy drops), the connection is
//!   re-dialed — immediately after a stream failure, with exponential
//!   backoff (timer wheel, no sleeping thread) after failed dials — and
//!   the receive-side reassembly buffer dies with the connection so a torn
//!   frame can never desynchronize the next one;
//! * **reconnect storms** — while a destination is unreachable, outbound
//!   frames are *dropped*, not queued: retransmission is the protocol's
//!   job (its timers already assume fair-lossy loss), the transport's job
//!   is merely to stay fair — keep retrying so a frame sent infinitely
//!   often eventually gets through.
//!
//! [`LinkPolicy`] adds an optional per-pair outbound delay (held on the
//! poller's timer wheel), so experiments can reproduce the simulator's
//! 2–5 ms link on real sockets.  Nothing here is aware of the protocol
//! running above; the runtime works for any [`Actor`] whose wire type is
//! [`Bytes`] — in practice [`crate::frame::FramedActor`] wrapping anything
//! codec-capable.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam_channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use abcast_storage::{SharedStorage, StorageRegistry};
use abcast_types::{ProcessId, ProcessSet, SimDuration, SimTime};

use crate::actor::{Actor, ActorContext, TimerId};
use crate::batch::StepContext;
use crate::frame::{wire_chunks, FrameReassembler, FrameStreamError, DEFAULT_MAX_FRAME_LEN};
use crate::metrics::TcpMetrics;
use crate::poll::{connect_nonblocking, take_connect_error, Epoll, Events, Interest, PollEvent, TimerWheel, WakeFd};

/// First bytes of every connection: proves the dialer speaks this protocol
/// and names the process the following stream of frames is *from*.
const HANDSHAKE_MAGIC: u32 = 0xABCA_57C9;

/// Length of the connection handshake (`magic ‖ sender id`, both LE u32).
const HANDSHAKE_LEN: usize = 8;

/// First reconnect backoff after a failed dial.
const RECONNECT_INITIAL: Duration = Duration::from_millis(5);

/// Reconnect backoff ceiling; doubling stops here.
const RECONNECT_MAX: Duration = Duration::from_millis(200);

/// Artificial outbound link behaviour for one ordered process pair,
/// applied by the poller's timer wheel before a frame reaches its write
/// queue.
///
/// The default policy is a direct link (no added delay).  A delayed policy
/// holds each frame for a uniformly random duration from the configured
/// range, reproducing the simulator's `LinkConfig` delay band on real
/// sockets — which is what lets the pipelining test over sockets overlap
/// rounds as the simulated test does too.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkPolicy {
    /// Added outbound delay: every frame waits `delay.0 ..= delay.1`
    /// (uniform) on the poller's timer wheel before entering the write
    /// queue.  `None` sends immediately.
    pub delay: Option<(Duration, Duration)>,
}

impl LinkPolicy {
    /// A direct link: frames go straight to the write queue.
    pub fn direct() -> LinkPolicy {
        LinkPolicy { delay: None }
    }

    /// A delayed link: every frame is held a uniform `min..=max` first.
    pub fn delayed(min: Duration, max: Duration) -> LinkPolicy {
        LinkPolicy { delay: Some((min, max.max(min))) }
    }
}

/// Configuration of the socket transport.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Upper bound on one frame body; larger prefixes poison the
    /// connection (stream corruption) instead of allocating.
    pub max_frame_len: usize,
    /// Seed for the per-process randomness handed to actors.
    pub seed: u64,
    /// Per-connection write-queue bound in stream bytes: a frame that
    /// would overflow it is a counted fair-lossy drop (backpressure
    /// without blocking the worker).
    pub write_queue_limit: usize,
    /// Initial link policy applied to every ordered pair (individual
    /// pairs can be overridden live via [`TcpRuntime::set_link_policy`]).
    pub link: LinkPolicy,
    /// How long an outbound connection must stay up — with its handshake
    /// fully flushed — before its death resets the reconnect backoff.  A
    /// peer that accepts and immediately drops connections never clears
    /// this bar, so such churn keeps escalating the backoff instead of
    /// resetting it on every bare `connect()` success.
    pub reconnect_reset_grace: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            seed: 0xABCA57,
            write_queue_limit: 4 * 1024 * 1024,
            link: LinkPolicy { delay: None },
            reconnect_reset_grace: Duration::from_millis(100),
        }
    }
}

impl TcpConfig {
    /// Returns this configuration with another seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns this configuration with a link policy for every pair.
    pub fn with_link(mut self, link: LinkPolicy) -> Self {
        self.link = link;
        self
    }

    /// Returns this configuration with another backoff-reset grace period.
    pub fn with_reconnect_reset_grace(mut self, grace: Duration) -> Self {
        self.reconnect_reset_grace = grace;
        self
    }
}

/// Worker-side progress signal: a monotone epoch bumped whenever any
/// worker processes an input or fires a timer, with a condvar for waiters.
///
/// This is what replaced the transport's sleep-polling: callers that need
/// "re-check after something happened" ([`TcpRuntime::wait_for`], the
/// socket harness's `run_until_delivered`) snapshot the epoch, check their
/// predicate, and park on [`Activity::wait_past`] instead of sleeping a
/// fixed interval.  Pure inspections do not bump the epoch, so a waiter's
/// own probes never wake it.
#[derive(Clone, Default)]
pub struct Activity {
    inner: Arc<ActivityInner>,
}

#[derive(Default)]
struct ActivityInner {
    epoch: Mutex<u64>,
    changed: Condvar,
}

impl Activity {
    /// The current epoch; pair with [`Activity::wait_past`].
    pub fn epoch(&self) -> u64 {
        *self.inner.epoch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one unit of progress and wakes every waiter.
    fn bump(&self) {
        let mut epoch = self.inner.epoch.lock().unwrap_or_else(PoisonError::into_inner);
        *epoch = epoch.wrapping_add(1);
        self.inner.changed.notify_all();
    }

    /// Parks until the epoch moves past `seen` or `timeout` elapses.
    /// Returns `true` when progress happened.
    ///
    /// Snapshot the epoch *before* evaluating the predicate: progress
    /// between the check and the park then returns immediately instead of
    /// being lost.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut epoch = self.inner.epoch.lock().unwrap_or_else(PoisonError::into_inner);
        while *epoch == seen {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, _) = self
                .inner
                .changed
                .wait_timeout(epoch, left)
                .unwrap_or_else(PoisonError::into_inner);
            epoch = guard;
        }
        true
    }
}

/// A closure run against the live actor with a full socket-backed context.
type InvokeFn<A> =
    Box<dyn FnOnce(&mut A, &mut dyn ActorContext<<A as Actor>::Msg>) + Send>;

type Channel<A> = (Sender<Input<A>>, Receiver<Input<A>>);

enum Input<A: Actor> {
    /// A frame from a peer (or a self-send); joins the worker's group.
    Message {
        from: ProcessId,
        msg: A::Msg,
    },
    /// An application request; joins the worker's group.
    ClientRequest(Bytes),
    /// An operator input; finishes the open group before it runs.
    Control(Control<A>),
}

/// Operator inputs.  Each one first finishes the worker's open group, so
/// nothing it does or observes depends on writes that are not yet durable.
enum Control<A: Actor> {
    Crash,
    Recover,
    Inspect(Box<dyn FnOnce(&A) + Send>),
    Invoke(InvokeFn<A>),
    Shutdown,
}

/// Most already-queued inputs a worker drains into one group behind the
/// input that woke it: bounds a group's staged batch, and how long an
/// operator input waits, when the group holds no frame to cut it short.
const MAX_GROUP_INPUTS: usize = 64;

/// Commands from worker threads (and the harness) into the poller.
enum PollCmd {
    /// Queue `frame` on the `src → dst` connection (or drop it fair-lossy
    /// if the link is down / backpressured / delayed into a dead link).
    Frame {
        src: ProcessId,
        dst: ProcessId,
        frame: Bytes,
    },
    /// Replace the link policy of the ordered pair `src → dst`.
    SetLink {
        src: ProcessId,
        dst: ProcessId,
        policy: LinkPolicy,
    },
    /// Fault injection: make process `dst`'s listener accept and
    /// immediately drop every inbound connection (`refuse` on), or restore
    /// normal accepts (`refuse` off).
    RefuseInbound { dst: ProcessId, refuse: bool },
    /// Fault injection: shut down every live stream between `a` and `b`
    /// (either direction), or every stream touching `a` when `b` is
    /// `None`, and reply with the number of stream ends shut.
    Sever {
        a: ProcessId,
        b: Option<ProcessId>,
        reply: Sender<usize>,
    },
    /// Tear everything down and exit the poller thread.
    Shutdown,
}

/// `eventfd` wakeup with a pending flag so back-to-back notifications cost
/// one syscall, not one per frame.
struct PollWaker {
    fd: WakeFd,
    armed: AtomicBool,
}

impl PollWaker {
    fn new() -> io::Result<PollWaker> {
        Ok(PollWaker { fd: WakeFd::new()?, armed: AtomicBool::new(false) })
    }

    /// Wakes the poller unless a wake is already in flight.
    fn notify(&self) {
        if !self.armed.swap(true, Ordering::AcqRel) {
            self.fd.wake();
        }
    }

    /// Poller side: re-arm *before* draining the command queue, so a
    /// command enqueued concurrently either lands in this drain or issues
    /// a fresh wake.
    fn drained(&self) {
        self.armed.store(false, Ordering::Release);
        self.fd.drain();
    }

    fn raw_fd(&self) -> i32 {
        self.fd.raw_fd()
    }
}

/// A live deployment of `n` processes over loopback/real TCP, each running
/// one byte-framed [`Actor`] on its own thread, with all socket I/O on a
/// single poller thread.
///
/// Operator controls (crash, recover, inspect, invoke, client requests)
/// plus connection-level fault injection ([`TcpRuntime::sever_link`],
/// [`TcpRuntime::sever_process`]) and per-pair link shaping
/// ([`TcpRuntime::set_link_policy`]).
pub struct TcpRuntime<A: Actor<Msg = Bytes>> {
    inputs: Vec<Sender<Input<A>>>,
    worker_handles: Vec<JoinHandle<()>>,
    poller_handle: Option<JoinHandle<()>>,
    poll_tx: Sender<PollCmd>,
    waker: Arc<PollWaker>,
    activity: Activity,
    processes: ProcessSet,
    storage: StorageRegistry,
    tcp_metrics: TcpMetrics,
    addrs: Vec<SocketAddr>,
}

impl<A: Actor<Msg = Bytes>> TcpRuntime<A> {
    /// Binds `n` loopback listeners, hands them (plus every outbound dial)
    /// to the poller thread, and starts `n` worker threads, building each
    /// actor with `factory` and its stable storage from `storage`.
    ///
    /// The factory is invoked again on every recovery, with the same
    /// process identity and the same storage handle.
    pub fn start<F>(
        n: usize,
        storage: StorageRegistry,
        config: TcpConfig,
        factory: F,
    ) -> io::Result<Self>
    where
        F: Fn(ProcessId, SharedStorage) -> A + Send + Sync + 'static,
    {
        assert_eq!(storage.len(), n, "one storage per process is required");
        let factory = Arc::new(factory);
        let processes = ProcessSet::new(n);
        let tcp_metrics = TcpMetrics::new();
        let activity = Activity::default();

        // Bind every listener before anything dials, so first connection
        // attempts on loopback succeed and no startup frames are lost.
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            listener.set_nonblocking(true)?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }

        let channels: Vec<Channel<A>> = (0..n).map(|_| unbounded()).collect();
        let inputs: Vec<Sender<Input<A>>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let (poll_tx, poll_rx) = unbounded::<PollCmd>();
        let waker = Arc::new(PollWaker::new()?);

        // The poller: every socket of the deployment on one thread.
        let poller = PollerThread::new(
            listeners,
            addrs.clone(),
            inputs.clone(),
            poll_rx,
            waker.clone(),
            config.clone(),
            tcp_metrics.clone(),
        )?;
        let poller_handle = Some(
            std::thread::Builder::new()
                .name("abcast-tcp-poll".to_string())
                .spawn(move || poller.run())?,
        );

        // Worker threads: the event loops actually running the actors.
        let mut worker_handles = Vec::with_capacity(n);
        for (index, (_, receiver)) in channels.into_iter().enumerate() {
            let me = ProcessId::new(index as u32);
            let my_storage = storage.storage_for(me).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("storage registry has no entry for {me}: {e}"),
                )
            })?;
            let worker = Worker {
                me,
                processes: processes.clone(),
                storage: my_storage,
                poll_tx: poll_tx.clone(),
                waker: waker.clone(),
                loopback: inputs[index].clone(),
                factory: factory.clone(),
                tcp_metrics: tcp_metrics.clone(),
                activity: activity.clone(),
                rng: StdRng::seed_from_u64(config.seed ^ (index as u64).wrapping_mul(0x9E37)),
                epoch: Instant::now(),
                barrier: Duration::ZERO,
            };
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("abcast-tcp-{me}"))
                    .spawn(move || worker.run(receiver))?,
            );
        }

        Ok(TcpRuntime {
            inputs,
            worker_handles,
            poller_handle,
            poll_tx,
            waker,
            activity,
            processes,
            storage,
            tcp_metrics,
            addrs,
        })
    }

    /// The set of processes of this deployment.
    pub fn processes(&self) -> &ProcessSet {
        &self.processes
    }

    /// The storage registry backing this deployment.
    pub fn storage(&self) -> &StorageRegistry {
        &self.storage
    }

    /// Socket-level transport metrics (connections, reconnects, drops,
    /// torn frames).
    pub fn tcp_metrics(&self) -> &TcpMetrics {
        &self.tcp_metrics
    }

    /// The worker progress signal: lets harnesses wait for "something
    /// happened" instead of sleep-polling their predicates.
    pub fn activity(&self) -> &Activity {
        &self.activity
    }

    /// The loopback address process `p` listens on.
    pub fn addr(&self, p: ProcessId) -> SocketAddr {
        self.addrs[p.index()]
    }

    fn sender(&self, p: ProcessId) -> &Sender<Input<A>> {
        &self.inputs[p.index()]
    }

    /// Delivers a client request (e.g. an `A-broadcast` payload) to process
    /// `p`.
    pub fn client_request(&self, p: ProcessId, payload: impl Into<Bytes>) {
        let _ = self.sender(p).send(Input::ClientRequest(payload.into()));
    }

    /// Crashes process `p`: its volatile state is dropped and all messages
    /// that arrive while it is down are lost.  Its TCP connections stay up
    /// — process liveness and connection liveness are independent, exactly
    /// like a crashed process whose host keeps accepting packets.
    pub fn crash(&self, p: ProcessId) {
        let _ = self.sender(p).send(Input::Control(Control::Crash));
    }

    /// Recovers process `p`: a fresh actor is built and `on_start` runs its
    /// recovery procedure.
    pub fn recover(&self, p: ProcessId) {
        let _ = self.sender(p).send(Input::Control(Control::Recover));
    }

    /// Hard-kills every live connection between `a` and `b`, in both
    /// directions.  Both ends observe a reset; the poller reconnects —
    /// with backoff once dials start failing.  Returns how many stream
    /// ends were severed (two per connection).
    pub fn sever_link(&self, a: ProcessId, b: ProcessId) -> usize {
        self.sever(a, Some(b))
    }

    /// Hard-kills every live connection touching `p` (the "pull the
    /// network cable" fault).  Returns how many stream ends were severed.
    pub fn sever_process(&self, p: ProcessId) -> usize {
        self.sever(p, None)
    }

    /// Asks the poller, which owns every socket, to sever; 0 once it is
    /// gone (its teardown already closed every stream).
    fn sever(&self, a: ProcessId, b: Option<ProcessId>) -> usize {
        let (reply, severed) = bounded(1);
        if self.poll_tx.send(PollCmd::Sever { a, b, reply }).is_err() {
            return 0;
        }
        self.waker.notify();
        severed.recv().unwrap_or(0)
    }

    /// Fault injection: while enabled, process `p`'s listener accepts and
    /// immediately drops every inbound connection.  Dialers observe a
    /// successful `connect()` followed by a reset — churn that must keep
    /// their reconnect backoff escalating, not reset it.
    pub fn set_refuse_inbound(&self, p: ProcessId, refuse: bool) {
        let _ = self.poll_tx.send(PollCmd::RefuseInbound { dst: p, refuse });
        self.waker.notify();
    }

    /// Replaces the link policy of the ordered pair `from → to` (applied
    /// by the poller from the next frame on).
    pub fn set_link_policy(&self, from: ProcessId, to: ProcessId, policy: LinkPolicy) {
        let _ = self.poll_tx.send(PollCmd::SetLink { src: from, dst: to, policy });
        self.waker.notify();
    }

    /// Runs `f` against the live actor of process `p` and returns its
    /// result, or `None` if the process is currently down.  `f` runs after
    /// the worker's open group committed, so it never observes state whose
    /// writes are not yet durable.
    pub fn inspect<R, F>(&self, p: ProcessId, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&A) -> R + Send + 'static,
    {
        let (tx, rx) = bounded(1);
        let probe = Box::new(move |actor: &A| {
            let _ = tx.send(f(actor));
        });
        if self.sender(p).send(Input::Control(Control::Inspect(probe))).is_err() {
            return None;
        }
        rx.recv_timeout(Duration::from_secs(5)).ok()
    }

    /// Runs `f` against the live actor of process `p` *with a full actor
    /// context* — sends it performs go out over the sockets.  This is how
    /// harnesses invoke typed operations (e.g. `A-broadcast`) on a live
    /// deployment.  Like [`TcpRuntime::inspect`], `f` runs only after the
    /// open group is durable.  Returns `None` if the process is currently
    /// down.
    pub fn invoke<R, F>(&self, p: ProcessId, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut A, &mut dyn ActorContext<Bytes>) -> R + Send + 'static,
    {
        let (tx, rx) = bounded(1);
        let call = Box::new(move |actor: &mut A, ctx: &mut dyn ActorContext<Bytes>| {
            let _ = tx.send(f(actor, ctx));
        });
        if self.sender(p).send(Input::Control(Control::Invoke(call))).is_err() {
            return None;
        }
        rx.recv_timeout(Duration::from_secs(5)).ok()
    }

    /// Re-evaluates `f` on process `p` until it returns `Some`, or until
    /// `timeout` elapses.  Parks on the [`Activity`] signal between
    /// evaluations (no sleep-polling): a new probe runs only after some
    /// worker made progress.
    pub fn wait_for<R, F>(&self, p: ProcessId, timeout: Duration, f: F) -> Option<R>
    where
        R: Send + 'static,
        F: Fn(&A) -> Option<R> + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let deadline = Instant::now() + timeout;
        loop {
            let seen = self.activity.epoch();
            let probe = f.clone();
            if let Some(Some(result)) = self.inspect(p, move |a| probe(a)) {
                return Some(result);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            // The 50 ms cap is a liveness backstop, not a poll interval:
            // normally the epoch bump wakes the wait immediately.
            self.activity.wait_past(seen, left.min(Duration::from_millis(50)));
        }
    }

    /// Shuts every process down, tears down every connection and joins the
    /// worker and poller threads.
    pub fn shutdown(mut self) {
        // Workers first: they may still be draining protocol traffic, and
        // every frame they transmit needs the poller alive to either send
        // it or account for it.  Only once every worker has exited is the
        // poller told to stop (so its command channel outlives all
        // senders that are not this handle).
        for sender in &self.inputs {
            let _ = sender.send(Input::Control(Control::Shutdown));
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        let _ = self.poll_tx.send(PollCmd::Shutdown);
        self.waker.notify();
        if let Some(handle) = self.poller_handle.take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The poller thread: every socket of the deployment on one event loop
// ---------------------------------------------------------------------------

/// Where a registered token points.
#[derive(Clone, Copy, Debug)]
enum TokenKind {
    /// The worker-side wakeup fd.
    Waker,
    /// Listener of process `index`.
    Listener(usize),
    /// Outbound connection of pair `index` (`src * n + dst`).
    Outbound(usize),
    /// Inbound connection keyed by its own token.
    Inbound,
}

/// Pending bytes of one outbound connection, written with vectored writes
/// and advanced across partial writes without flattening chunks.
///
/// Entry accounting rides alongside: each queued frame (and the
/// handshake, which is not a frame) knows its stream length, so completed
/// frames are counted as sent exactly when their last byte leaves and
/// queued frames are counted as fair-lossy drops when the connection dies
/// under them.
#[derive(Default)]
struct WriteQueue {
    chunks: VecDeque<Bytes>,
    /// `(stream bytes, counts as frame)` per queued entry, front first.
    entries: VecDeque<(usize, bool)>,
    /// Bytes of the front entry already written to the socket.
    front_written: usize,
    queued_bytes: usize,
}

/// Most chunks handed to one vectored write; bounds stack/alloc cost per
/// syscall, the loop continues with the rest.
const MAX_WRITE_VECTORS: usize = 64;

impl WriteQueue {
    fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Frames still (fully or partially) queued — the fair-lossy loss if
    /// the connection dies now.
    fn pending_frames(&self) -> usize {
        self.entries.iter().filter(|(_, is_frame)| *is_frame).count()
    }

    /// Whether the handshake preamble has not fully left for the socket
    /// yet — a connection dying in this state never proved itself.
    fn preamble_pending(&self) -> bool {
        self.entries.iter().any(|(_, is_frame)| !*is_frame)
    }

    /// Queues one non-frame preamble (the handshake).
    fn push_preamble(&mut self, bytes: Bytes) {
        self.queued_bytes += bytes.len();
        self.entries.push_back((bytes.len(), false));
        self.chunks.push_back(bytes);
    }

    /// Queues one frame as its wire chunks (prefix + zero-copy body).
    fn push_frame(&mut self, frame: &Bytes) {
        let chunks = wire_chunks(frame);
        let total: usize = chunks.iter().map(Bytes::len).sum();
        self.queued_bytes += total;
        self.entries.push_back((total, true));
        for chunk in chunks {
            self.chunks.push_back(chunk);
        }
    }

    /// Performs one vectored write, advancing the queue.  Returns the
    /// stream lengths of *frames* fully written by this step; callers map
    /// `WouldBlock` to "subscribe writable" and other errors to teardown.
    fn write_step(&mut self, stream: &mut TcpStream) -> io::Result<Vec<usize>> {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.chunks.len().min(MAX_WRITE_VECTORS));
        for chunk in self.chunks.iter().take(MAX_WRITE_VECTORS) {
            slices.push(IoSlice::new(chunk));
        }
        let mut written = match stream.write_vectored(&slices) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "stream closed")),
            Ok(n) => n,
            Err(e) => return Err(e),
        };
        self.queued_bytes -= written;

        // Advance the chunk queue.
        let mut chunk_bytes = written;
        while chunk_bytes > 0 {
            let Some(front) = self.chunks.front_mut() else { break };
            if chunk_bytes >= front.len() {
                chunk_bytes -= front.len();
                self.chunks.pop_front();
            } else {
                front.advance(chunk_bytes);
                chunk_bytes = 0;
            }
        }

        // Advance the entry accounting, collecting completed frames.
        let mut completed = Vec::new();
        while written > 0 {
            let Some(&(len, is_frame)) = self.entries.front() else { break };
            let remaining = len - self.front_written;
            if written >= remaining {
                written -= remaining;
                self.front_written = 0;
                self.entries.pop_front();
                if is_frame {
                    completed.push(len);
                }
            } else {
                self.front_written += written;
                written = 0;
            }
        }
        Ok(completed)
    }
}

/// Outbound connection state of one ordered pair.
enum OutConn {
    /// No socket; a redial timer is (or is about to be) armed.
    Idle,
    /// Nonblocking dial in flight; writability reports the outcome.
    /// Frames sent meanwhile buffer in `pending` (bounded by the write
    /// queue limit) and flush behind the handshake once the dial lands —
    /// a dial in flight is not a down link, so nothing is dropped yet;
    /// if the dial fails, the buffered frames become counted drops.
    Connecting {
        stream: TcpStream,
        token: u64,
        pending: Vec<Bytes>,
        pending_bytes: usize,
    },
    /// Handshake queued/written; frames stream through the write queue.
    Streaming {
        stream: TcpStream,
        token: u64,
        queue: WriteQueue,
        /// Whether the current epoll registration includes writability.
        wants_write: bool,
        /// When the dial completed; with the handshake flushed and
        /// [`TcpConfig::reconnect_reset_grace`] of uptime behind it, the
        /// connection counts as healthy and its death resets the backoff.
        established: Instant,
    },
}

struct PairState {
    src: ProcessId,
    dst: ProcessId,
    addr: SocketAddr,
    backoff: Duration,
    policy: LinkPolicy,
    conn: OutConn,
}

/// Transport-side timers on the poller's wheel.
enum TransportTimer {
    /// Re-attempt the dial of pair `index` (reconnect backoff).
    Redial(usize),
    /// A link-delayed frame reaches the head of pair `index`'s link.
    DelayedFrame { pair: usize, frame: Bytes },
}

/// How an inbound connection ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum InboundClose {
    /// EOF / reset / worker gone: torn partials are counted.
    Dead,
    /// Stream corruption (oversized prefix): counted as a stream error
    /// already, not as a torn frame on top.
    Corrupted,
}

/// Handshake-then-stream state of one inbound connection.
enum InState {
    Handshake { buf: [u8; HANDSHAKE_LEN], got: usize },
    /// Frames from `peer`.  The reassembler is **per connection**, never
    /// per peer: when the connection dies, any torn frame in it dies with
    /// it, so a frame split across a reset can never desynchronize the
    /// reconnected stream.
    Streaming { peer: ProcessId, reassembler: FrameReassembler },
}

struct InboundConn {
    /// The accepting process (frames go to its worker).
    me: ProcessId,
    stream: TcpStream,
    state: InState,
}

struct PollerThread<A: Actor<Msg = Bytes>> {
    epoll: Epoll,
    waker: Arc<PollWaker>,
    commands: Receiver<PollCmd>,
    inputs: Vec<Sender<Input<A>>>,
    config: TcpConfig,
    tcp_metrics: TcpMetrics,
    listeners: Vec<TcpListener>,
    tokens: BTreeMap<u64, TokenKind>,
    next_token: u64,
    pairs: Vec<PairState>,
    inbound: BTreeMap<u64, InboundConn>,
    /// Per-process accept-then-drop fault switch (see
    /// [`PollCmd::RefuseInbound`]).
    refuse_inbound: Vec<bool>,
    timers: TimerWheel<TransportTimer>,
    rng: StdRng,
    read_buf: Vec<u8>,
    n: usize,
    stop: bool,
}

impl<A: Actor<Msg = Bytes>> PollerThread<A> {
    fn new(
        listeners: Vec<TcpListener>,
        addrs: Vec<SocketAddr>,
        inputs: Vec<Sender<Input<A>>>,
        commands: Receiver<PollCmd>,
        waker: Arc<PollWaker>,
        config: TcpConfig,
        tcp_metrics: TcpMetrics,
    ) -> io::Result<Self> {
        let n = listeners.len();
        let mut pairs = Vec::with_capacity(n * n);
        for src in 0..n {
            for (dst, addr) in addrs.iter().enumerate() {
                pairs.push(PairState {
                    src: ProcessId::new(src as u32),
                    dst: ProcessId::new(dst as u32),
                    addr: *addr,
                    backoff: RECONNECT_INITIAL,
                    policy: config.link,
                    conn: OutConn::Idle,
                });
            }
        }
        let rng = StdRng::seed_from_u64(config.seed ^ 0x9027_11E5_77EE_1007);
        Ok(PollerThread {
            epoll: Epoll::new()?,
            waker,
            commands,
            inputs,
            config,
            tcp_metrics,
            listeners,
            tokens: BTreeMap::new(),
            next_token: 0,
            pairs,
            inbound: BTreeMap::new(),
            refuse_inbound: vec![false; n],
            timers: TimerWheel::new(),
            rng,
            read_buf: vec![0u8; 64 * 1024],
            n,
            stop: false,
        })
    }

    fn alloc_token(&mut self, kind: TokenKind) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.tokens.insert(token, kind);
        token
    }

    fn pair_index(&self, src: ProcessId, dst: ProcessId) -> usize {
        src.index() * self.n + dst.index()
    }

    /// The event loop.  One blocking point (`Epoll::wait`); everything
    /// else is nonblocking dispatch.
    fn run(mut self) {
        // Register the wakeup fd and every listener, then start dialing.
        let waker_token = self.alloc_token(TokenKind::Waker);
        if self.epoll.register(self.waker.raw_fd(), waker_token, Interest::READ).is_err() {
            return;
        }
        for index in 0..self.n {
            let token = self.alloc_token(TokenKind::Listener(index));
            let fd = self.listeners[index].as_raw_fd();
            if self.epoll.register(fd, token, Interest::READ).is_err() {
                return;
            }
        }
        for src in 0..self.n {
            for dst in 0..self.n {
                if src != dst {
                    let pair = src * self.n + dst;
                    self.start_dial(pair);
                }
            }
        }

        let mut events = Events::with_capacity(256);
        let mut batch: Vec<PollEvent> = Vec::with_capacity(256);
        loop {
            self.drain_commands();
            if self.stop {
                break;
            }
            let now = Instant::now();
            while let Some(timer) = self.timers.pop_due(now) {
                self.fire_timer(timer);
            }
            if self.stop {
                break;
            }
            let timeout = self.timers.timeout_until_next(Instant::now());
            if self.epoll.wait(&mut events, timeout).is_err() {
                break;
            }
            batch.clear();
            batch.extend(events.iter());
            for event in &batch {
                let event = *event;
                match self.tokens.get(&event.token).copied() {
                    Some(TokenKind::Waker) => self.waker.drained(),
                    Some(TokenKind::Listener(index)) => self.accept_ready(index),
                    Some(TokenKind::Outbound(pair)) => self.outbound_ready(pair, event),
                    Some(TokenKind::Inbound) => self.inbound_ready(event.token),
                    // Tokens retired earlier in this same batch.
                    None => {}
                }
            }
        }
        self.teardown_everything();
    }

    // --- commands and timers ------------------------------------------------

    fn drain_commands(&mut self) {
        self.waker.drained();
        loop {
            let cmd = match self.commands.try_recv() {
                Ok(cmd) => cmd,
                Err(crossbeam_channel::TryRecvError::Empty) => break,
                Err(crossbeam_channel::TryRecvError::Disconnected) => {
                    // Every sender (runtime handle + workers) is gone: the
                    // deployment was dropped without an explicit shutdown.
                    self.stop = true;
                    break;
                }
            };
            match cmd {
                PollCmd::Frame { src, dst, frame } => {
                    let pair = self.pair_index(src, dst);
                    match self.pairs[pair].policy.delay {
                        Some((min, max)) => {
                            let span = max.saturating_sub(min).as_micros() as u64;
                            let extra = if span == 0 { 0 } else { self.rng.gen_range(0..=span) };
                            let at = Instant::now() + min + Duration::from_micros(extra);
                            self.timers.insert(at, TransportTimer::DelayedFrame { pair, frame });
                        }
                        None => self.enqueue_frame(pair, frame),
                    }
                }
                PollCmd::SetLink { src, dst, policy } => {
                    let pair = self.pair_index(src, dst);
                    self.pairs[pair].policy = policy;
                }
                PollCmd::RefuseInbound { dst, refuse } => {
                    let index = dst.index();
                    if index < self.refuse_inbound.len() {
                        self.refuse_inbound[index] = refuse;
                    }
                }
                PollCmd::Sever { a, b, reply } => {
                    let _ = reply.send(self.sever(a, b));
                }
                PollCmd::Shutdown => self.stop = true,
            }
        }
    }

    /// Shuts down every live stream end between `a` and `b` (either
    /// direction), or touching `a` when `b` is `None`: streaming outbound
    /// connections and inbound ones past their handshake.  Only the
    /// sockets are shut; the readiness events that follow run the usual
    /// teardown and redial.  Returns the number of stream ends shut.
    fn sever(&mut self, a: ProcessId, b: Option<ProcessId>) -> usize {
        let touches = |x: ProcessId, y: ProcessId| match b {
            Some(b) => (x == a && y == b) || (x == b && y == a),
            None => x == a || y == a,
        };
        let mut severed = 0;
        for pair in &self.pairs {
            if let OutConn::Streaming { stream, .. } = &pair.conn {
                if touches(pair.src, pair.dst) {
                    let _ = stream.shutdown(Shutdown::Both);
                    severed += 1;
                }
            }
        }
        for conn in self.inbound.values() {
            if let InState::Streaming { peer, .. } = conn.state {
                if touches(peer, conn.me) {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    severed += 1;
                }
            }
        }
        severed
    }

    fn fire_timer(&mut self, timer: TransportTimer) {
        match timer {
            TransportTimer::Redial(pair) => {
                if matches!(self.pairs[pair].conn, OutConn::Idle) {
                    self.start_dial(pair);
                }
            }
            TransportTimer::DelayedFrame { pair, frame } => self.enqueue_frame(pair, frame),
        }
    }

    /// Queues `frame` on a live connection (or buffers it behind a dial in
    /// flight), or records the fair-lossy drop (link down, or write-queue
    /// backpressure).
    fn enqueue_frame(&mut self, pair: usize, frame: Bytes) {
        let limit = self.config.write_queue_limit;
        match &mut self.pairs[pair].conn {
            OutConn::Streaming { queue, .. } => {
                if queue.queued_bytes() + frame.len() + crate::frame::WIRE_PREFIX_LEN > limit {
                    // Backpressure: the receiver is not draining; dropping
                    // here is the same fair-lossy loss as a dead link.
                    self.tcp_metrics.record_frame_dropped();
                } else {
                    queue.push_frame(&frame);
                    self.flush_outbound(pair);
                }
            }
            OutConn::Connecting { pending, pending_bytes, .. } => {
                // A dial in flight is not a down link: hold the frame and
                // flush it behind the handshake once the connect lands
                // (under the same backpressure bound).
                if *pending_bytes + frame.len() + crate::frame::WIRE_PREFIX_LEN > limit {
                    self.tcp_metrics.record_frame_dropped();
                } else {
                    *pending_bytes += frame.len() + crate::frame::WIRE_PREFIX_LEN;
                    pending.push(frame);
                }
            }
            OutConn::Idle => {
                self.tcp_metrics.record_frame_dropped();
            }
        }
    }

    // --- outbound connections ----------------------------------------------

    fn start_dial(&mut self, pair: usize) {
        if self.stop {
            return;
        }
        let addr = self.pairs[pair].addr;
        match connect_nonblocking(&addr) {
            Ok(stream) => {
                let token = self.alloc_token(TokenKind::Outbound(pair));
                if self.epoll.register(stream.as_raw_fd(), token, Interest::WRITE).is_err() {
                    self.tokens.remove(&token);
                    self.dial_failed(pair);
                    return;
                }
                self.pairs[pair].conn = OutConn::Connecting {
                    stream,
                    token,
                    pending: Vec::new(),
                    pending_bytes: 0,
                };
            }
            Err(_) => self.dial_failed(pair),
        }
    }

    /// Books one failed dial: counts the reconnect attempt and arms the
    /// redial timer with exponential backoff (no sleeping thread — frames
    /// sent meanwhile hit [`OutConn::Idle`] and drop fair-lossy).
    fn dial_failed(&mut self, pair: usize) {
        self.tcp_metrics.record_reconnect_attempt();
        let state = &mut self.pairs[pair];
        state.conn = OutConn::Idle;
        let delay = state.backoff;
        state.backoff = (state.backoff * 2).min(RECONNECT_MAX);
        self.timers.insert(Instant::now() + delay, TransportTimer::Redial(pair));
    }

    fn outbound_ready(&mut self, pair: usize, event: PollEvent) {
        if matches!(self.pairs[pair].conn, OutConn::Connecting { .. }) {
            self.connect_finished(pair);
            return;
        }
        if event.failed {
            self.teardown_outbound(pair, true);
            return;
        }
        if event.readable && !self.probe_outbound_alive(pair) {
            self.teardown_outbound(pair, true);
            return;
        }
        if event.writable {
            self.flush_outbound(pair);
        }
    }

    /// Resolves an in-flight dial once the socket reports writability.
    fn connect_finished(&mut self, pair: usize) {
        let fd = {
            let OutConn::Connecting { stream, .. } = &self.pairs[pair].conn else { return };
            stream.as_raw_fd()
        };
        let established = matches!(take_connect_error(fd), Ok(None));
        if !established {
            let OutConn::Connecting { stream, token, pending, .. } = std::mem::replace(
                &mut self.pairs[pair].conn,
                OutConn::Idle,
            ) else {
                return;
            };
            let _ = self.epoll.deregister(stream.as_raw_fd());
            self.tokens.remove(&token);
            drop(stream);
            // The frames buffered behind the failed dial are the loss.
            for _ in &pending {
                self.tcp_metrics.record_frame_dropped();
            }
            self.dial_failed(pair);
            return;
        }

        let OutConn::Connecting { stream, token, pending, .. } =
            std::mem::replace(&mut self.pairs[pair].conn, OutConn::Idle)
        else {
            return;
        };
        // Nagle off: consensus rounds are latency-bound request/response
        // traffic.
        let _ = stream.set_nodelay(true);
        self.tcp_metrics.record_connection_established();
        let mut queue = WriteQueue::default();
        queue.push_preamble(handshake_bytes(self.pairs[pair].src));
        for frame in &pending {
            queue.push_frame(frame);
        }
        // Note: the backoff is NOT reset here.  A bare `connect()` success
        // proves nothing — a peer can accept and immediately drop, and
        // resetting on accept would turn that churn into a full-speed
        // reconnect loop.  The reset happens in `teardown_outbound`, once
        // the connection has demonstrably carried the handshake and stayed
        // up through the grace period.
        self.pairs[pair].conn = OutConn::Streaming {
            stream,
            token,
            queue,
            // Registered WRITE during the dial; the first flush below
            // re-registers according to what is left in the queue.
            wants_write: true,
            established: Instant::now(),
        };
        self.flush_outbound(pair);
    }

    /// Drains the write queue until empty or `WouldBlock`, keeping the
    /// epoll writable subscription in sync with queue occupancy.
    fn flush_outbound(&mut self, pair: usize) {
        loop {
            let completed = {
                let OutConn::Streaming { stream, queue, .. } = &mut self.pairs[pair].conn else {
                    return;
                };
                if queue.is_empty() {
                    self.set_outbound_write_interest(pair, false);
                    return;
                }
                match queue.write_step(stream) {
                    Ok(completed) => completed,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        self.set_outbound_write_interest(pair, true);
                        return;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.teardown_outbound(pair, true);
                        return;
                    }
                }
            };
            for stream_bytes in completed {
                self.tcp_metrics.record_frame_sent(stream_bytes);
            }
        }
    }

    fn set_outbound_write_interest(&mut self, pair: usize, want: bool) {
        let OutConn::Streaming { stream, token, wants_write, .. } = &mut self.pairs[pair].conn
        else {
            return;
        };
        if *wants_write == want {
            return;
        }
        let interest = if want { Interest::BOTH } else { Interest::READ };
        if self.epoll.reregister(stream.as_raw_fd(), *token, interest).is_ok() {
            *wants_write = want;
        }
    }

    /// Reads the (simplex) outbound socket: any data is discarded, and EOF
    /// or an error means the peer tore the connection down.  Returns
    /// `false` when the connection is dead.
    fn probe_outbound_alive(&mut self, pair: usize) -> bool {
        let OutConn::Streaming { stream, .. } = &mut self.pairs[pair].conn else {
            return true;
        };
        loop {
            match stream.read(&mut self.read_buf) {
                Ok(0) => {
                    return false;
                }
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    return false;
                }
            }
        }
    }

    /// Tears one outbound connection down.  Every queued frame is a
    /// counted fair-lossy drop.  With `redial`, what happens next depends
    /// on whether the connection ever proved itself: a *healthy* stream
    /// (handshake fully flushed, up for at least the reset grace) resets
    /// the backoff and re-dials immediately, anything else — including a
    /// peer that accepted and promptly dropped us — escalates the backoff
    /// like a failed dial.
    fn teardown_outbound(&mut self, pair: usize, redial: bool) {
        let healthy = match &self.pairs[pair].conn {
            OutConn::Streaming { queue, established, .. } => {
                !queue.preamble_pending()
                    && established.elapsed() >= self.config.reconnect_reset_grace
            }
            _ => false,
        };
        let conn = std::mem::replace(&mut self.pairs[pair].conn, OutConn::Idle);
        match conn {
            OutConn::Idle => {}
            OutConn::Connecting { stream, token, pending, .. } => {
                if !self.stop {
                    for _ in &pending {
                        self.tcp_metrics.record_frame_dropped();
                    }
                }
                let _ = self.epoll.deregister(stream.as_raw_fd());
                self.tokens.remove(&token);
                let _ = stream.shutdown(Shutdown::Both);
            }
            OutConn::Streaming { stream, token, queue, .. } => {
                // Frames still queued are fair-lossy losses — except at
                // final shutdown, where the whole deployment (and every
                // receiver) is going away with them: nothing is "lost"
                // relative to a run that has ended.
                if !self.stop {
                    for _ in 0..queue.pending_frames() {
                        self.tcp_metrics.record_frame_dropped();
                    }
                }
                let _ = self.epoll.deregister(stream.as_raw_fd());
                self.tokens.remove(&token);
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        if redial && !self.stop {
            if healthy {
                self.pairs[pair].backoff = RECONNECT_INITIAL;
                self.start_dial(pair);
            } else {
                self.dial_failed(pair);
            }
        }
    }

    // --- inbound connections -----------------------------------------------

    fn accept_ready(&mut self, index: usize) {
        loop {
            match self.listeners[index].accept() {
                Ok((stream, _)) => {
                    if self.refuse_inbound[index] {
                        // Fault injection: accept-then-drop.  The dialer
                        // sees a successful `connect()` followed by an
                        // immediate reset — the exact pattern that must
                        // not reset its reconnect backoff.
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.alloc_token(TokenKind::Inbound);
                    if self.epoll.register(stream.as_raw_fd(), token, Interest::READ).is_err() {
                        self.tokens.remove(&token);
                        continue;
                    }
                    self.inbound.insert(
                        token,
                        InboundConn {
                            me: ProcessId::new(index as u32),
                            stream,
                            state: InState::Handshake { buf: [0u8; HANDSHAKE_LEN], got: 0 },
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn inbound_ready(&mut self, token: u64) {
        let Some(mut conn) = self.inbound.remove(&token) else { return };
        match self.drive_inbound(&mut conn) {
            None => {
                self.inbound.insert(token, conn);
            }
            Some(close) => self.finish_inbound(token, conn, close),
        }
    }

    /// Reads the connection until `WouldBlock`.  Returns `Some(close)`
    /// when the connection is finished, `None` while it stays live.
    fn drive_inbound(&mut self, conn: &mut InboundConn) -> Option<InboundClose> {
        loop {
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    return Some(InboundClose::Dead);
                }
                Ok(n) => {
                    self.tcp_metrics.record_bytes_received(n);
                    // One copy out of the read buffer into a refcounted
                    // chunk; every frame completed inside this chunk is a
                    // zero-copy view of it from here on.
                    let chunk = Bytes::copy_from_slice(&self.read_buf[..n]);
                    if let Some(close) = self.ingest_inbound(conn, chunk) {
                        return Some(close);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    return Some(InboundClose::Dead);
                }
            }
        }
    }

    /// Feeds one read chunk through the handshake/stream state machine.
    fn ingest_inbound(&mut self, conn: &mut InboundConn, chunk: Bytes) -> Option<InboundClose> {
        let mut chunk = chunk;
        if let InState::Handshake { buf, got } = &mut conn.state {
            let need = HANDSHAKE_LEN - *got;
            let take = need.min(chunk.len());
            buf[*got..*got + take].copy_from_slice(&chunk[..take]);
            *got += take;
            if *got < HANDSHAKE_LEN {
                return None;
            }
            let mut magic = [0u8; 4];
            magic.copy_from_slice(&buf[..4]);
            if u32::from_le_bytes(magic) != HANDSHAKE_MAGIC {
                // Not our protocol: close quietly (the stream never
                // carried a frame, so nothing is torn).
                return Some(InboundClose::Corrupted);
            }
            let mut peer = [0u8; 4];
            peer.copy_from_slice(&buf[4..]);
            let peer = ProcessId::new(u32::from_le_bytes(peer));
            self.tcp_metrics.record_connection_accepted();
            conn.state = InState::Streaming {
                peer,
                reassembler: FrameReassembler::with_max_frame_len(self.config.max_frame_len),
            };
            chunk = chunk.slice(take..);
            if chunk.is_empty() {
                return None;
            }
        }

        let InState::Streaming { peer, reassembler } = &mut conn.state else { return None };
        reassembler.push(chunk);
        // Drain frame by frame, so frames completed before a corrupt
        // prefix in the same chunk are still delivered (and counted)
        // rather than vanishing with the error.
        loop {
            match reassembler.next_frame() {
                Ok(Some(frame)) => {
                    self.tcp_metrics.record_frame_received();
                    let input = Input::Message { from: *peer, msg: frame };
                    if self.inputs[conn.me.index()].send(input).is_err() {
                        // Worker gone: deployment is shutting down.
                        return Some(InboundClose::Dead);
                    }
                }
                Ok(None) => return None,
                Err(FrameStreamError::Oversized { .. }) => {
                    // Stream corruption: this connection cannot be trusted
                    // byte-wise anymore.  Kill it; the dialer reconnects
                    // with a fresh stream and a fresh reassembly buffer.
                    self.tcp_metrics.record_stream_error();
                    return Some(InboundClose::Corrupted);
                }
            }
        }
    }

    fn finish_inbound(&mut self, token: u64, conn: InboundConn, close: InboundClose) {
        self.tokens.remove(&token);
        let _ = self.epoll.deregister(conn.stream.as_raw_fd());
        if let (InboundClose::Dead, InState::Streaming { reassembler, .. }) = (close, &conn.state) {
            if reassembler.has_partial() {
                // The connection died mid-frame; the torn bytes die with
                // its buffer (fair-lossy loss of that one frame).  A
                // corrupted stream is counted as a stream error instead,
                // not as a torn frame on top.
                self.tcp_metrics.record_torn_frame();
            }
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
    }

    // --- shutdown -----------------------------------------------------------

    fn teardown_everything(&mut self) {
        self.stop = true;
        for pair in 0..self.pairs.len() {
            self.teardown_outbound(pair, false);
        }
        let tokens: Vec<u64> = self.inbound.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.inbound.remove(&token) {
                self.tokens.remove(&token);
                let _ = self.epoll.deregister(conn.stream.as_raw_fd());
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
    }
}

/// The 8-byte connection preamble: magic plus the dialer's process id.
fn handshake_bytes(me: ProcessId) -> Bytes {
    let mut buf = [0u8; HANDSHAKE_LEN];
    buf[..4].copy_from_slice(&HANDSHAKE_MAGIC.to_le_bytes());
    buf[4..].copy_from_slice(&me.as_u32().to_le_bytes());
    Bytes::copy_from_slice(&buf)
}

// ---------------------------------------------------------------------------
// Worker event loop: grouped steps, the poller as the wire
// ---------------------------------------------------------------------------

struct Worker<A: Actor<Msg = Bytes>> {
    me: ProcessId,
    processes: ProcessSet,
    storage: SharedStorage,
    poll_tx: Sender<PollCmd>,
    waker: Arc<PollWaker>,
    loopback: Sender<Input<A>>,
    factory: Arc<dyn Fn(ProcessId, SharedStorage) -> A + Send + Sync>,
    tcp_metrics: TcpMetrics,
    activity: Activity,
    rng: StdRng,
    epoch: Instant,
    /// How long the last group commit that wrote anything took, frame
    /// release excluded: the time a group may spend holding frames (zero
    /// until measured).
    barrier: Duration,
}

/// Timer deadlines of the live actor.
type Timers = BTreeMap<TimerId, SimTime>;

impl<A: Actor<Msg = Bytes>> Worker<A> {
    /// The event loop.  `inputs` is held outside `self` so a group's scope,
    /// which borrows the worker, can stay open across `try_recv`.
    fn run(mut self, inputs: Receiver<Input<A>>) {
        let mut actor = Some((self.factory)(self.me, self.storage.clone()));
        let mut timers = Timers::new();
        if let Some(a) = actor.as_mut() {
            let mut ctx = self.context(&mut timers);
            a.on_start(&mut ctx);
        }

        loop {
            let now = self.now();
            let next_deadline = timers.values().min().copied();
            let wait = match next_deadline {
                Some(deadline) if actor.is_some() => {
                    Duration::from_micros(deadline.as_micros().saturating_sub(now.as_micros()))
                }
                _ => Duration::from_millis(50),
            };
            let first = match inputs.recv_timeout(wait) {
                Ok(input) => Some(input),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            let (control, mut progressed) = self.run_group(&mut actor, &mut timers, &inputs, first);
            match control {
                Some(Control::Shutdown) => break,
                Some(control) => progressed |= self.run_control(control, &mut actor, &mut timers),
                None => {}
            }
            if progressed {
                self.activity.bump();
            }
        }
    }

    /// Runs one group: `first`, then queued messages and client requests,
    /// then every due timer — all in one [`StepContext`], committed once.
    ///
    /// Draining stops at the first operator input (returned, to run after
    /// the commit), after [`MAX_GROUP_INPUTS`], or when the next input —
    /// guessed to cost what the last one did — would keep the group's
    /// first held frame waiting longer than the last barrier took.  A frame
    /// thus waits about one barrier longer than under a barrier per step at
    /// most, so grouping pays where barriers are dear — a WAL's fsync — and
    /// stays out of the way where they are nearly free or handlers slow.
    /// A failed commit has already dropped the group's frames and crashes
    /// the process.  Also returns whether any handler ran.
    fn run_group(
        &mut self,
        actor: &mut Option<A>,
        timers: &mut Timers,
        inputs: &Receiver<Input<A>>,
        first: Option<Input<A>>,
    ) -> (Option<Control<A>>, bool) {
        let hold_budget = self.barrier;
        let mut ctx = self.context(timers);
        let mut group = StepContext::new(&mut ctx);
        let mut control = None;
        let mut progressed = false;
        let mut next = first;
        let mut drained = 0;
        let mut holding_since: Option<Instant> = None;
        while let Some(input) = next.take() {
            let input_started = Instant::now();
            match input {
                Input::Message { from, msg } => {
                    progressed = true;
                    if let Some(a) = actor.as_mut() {
                        group.inner_mut().restart_clock();
                        a.on_message(from, msg, &mut group);
                    }
                }
                Input::ClientRequest(payload) => {
                    progressed = true;
                    if let Some(a) = actor.as_mut() {
                        group.inner_mut().restart_clock();
                        a.on_client_request(payload, &mut group);
                    }
                }
                Input::Control(c) => {
                    control = Some(c);
                    break;
                }
            }
            let now = Instant::now();
            if holding_since.is_none() && group.holds_messages() {
                holding_since = Some(now);
            }
            // The next input is guessed to cost what this one did.
            let next_done = now + (now - input_started);
            let within_budget = holding_since.is_none_or(|since| next_done - since < hold_budget);
            if drained < MAX_GROUP_INPUTS && within_budget {
                drained += 1;
                next = inputs.try_recv().ok();
            }
        }
        if let Some(a) = actor.as_mut() {
            while let Some(timer) = group.inner_mut().pop_due_timer() {
                progressed = true;
                a.on_timer(timer, &mut group);
            }
        }
        let started = Instant::now();
        match group.commit() {
            Ok(paid) => {
                let took = started.elapsed();
                group.release();
                if paid {
                    self.barrier = took;
                }
            }
            Err(_) => {
                // The group's writes may not be stable, so what its frames
                // announce may not survive a crash: they were dropped, and
                // the process fail-stops — a crash, in the model's own terms.
                *actor = None;
                timers.clear();
            }
        }
        (control, progressed)
    }

    /// Runs one operator input against a committed state.  Returns whether
    /// it counts as progress for [`Activity`] waiters (a pure inspection
    /// does not, so waiters are never woken by their own probes).
    fn run_control(&mut self, control: Control<A>, actor: &mut Option<A>, timers: &mut Timers) -> bool {
        match control {
            Control::Crash => {
                *actor = None;
                timers.clear();
            }
            Control::Recover => {
                if actor.is_none() {
                    let mut fresh = (self.factory)(self.me, self.storage.clone());
                    let mut ctx = self.context(timers);
                    fresh.on_start(&mut ctx);
                    *actor = Some(fresh);
                }
            }
            Control::Inspect(probe) => {
                if let Some(a) = actor.as_ref() {
                    probe(a);
                }
                return false;
            }
            Control::Invoke(call) => {
                if let Some(a) = actor.as_mut() {
                    let mut ctx = self.context(timers);
                    call(a, &mut ctx);
                }
            }
            // The event loop exits on it before getting here.
            Control::Shutdown => {}
        }
        true
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn context<'a>(&'a mut self, timers: &'a mut Timers) -> TcpWorkerContext<'a, A> {
        let now = self.now();
        TcpWorkerContext {
            worker: self,
            timers,
            now,
        }
    }
}

struct TcpWorkerContext<'a, A: Actor<Msg = Bytes>> {
    worker: &'a mut Worker<A>,
    timers: &'a mut Timers,
    /// The handler clock: fixed while one handler runs, restarted before
    /// each handler of a group.
    now: SimTime,
}

impl<'a, A: Actor<Msg = Bytes>> TcpWorkerContext<'a, A> {
    fn restart_clock(&mut self) {
        self.now = self.worker.now();
    }

    /// Restarts the clock and removes the first timer due by it.
    fn pop_due_timer(&mut self) -> Option<TimerId> {
        self.restart_clock();
        let now = self.now;
        let (&timer, _) = self.timers.iter().find(|(_, deadline)| **deadline <= now)?;
        self.timers.remove(&timer);
        Some(timer)
    }

    fn transmit(&mut self, to: ProcessId, frame: Bytes) {
        if to == self.worker.me {
            // Self-sends short-circuit through the local queue (the usual
            // loopback fast path); delivery accounting is unchanged.
            let _ = self.worker.loopback.send(Input::Message {
                from: self.worker.me,
                msg: frame,
            });
            return;
        }
        // The frame is a refcounted view: handing it to the poller is
        // pointer-sized, not a copy.  The poller decides between queueing
        // on the live connection and a counted fair-lossy drop.
        let cmd = PollCmd::Frame { src: self.worker.me, dst: to, frame };
        if self.worker.poll_tx.send(cmd).is_err() {
            // Poller gone (shutdown teardown): the frame is a counted
            // fair-lossy drop, never a worker crash.
            self.worker.tcp_metrics.record_frame_dropped();
            return;
        }
        self.worker.waker.notify();
    }
}

impl<'a, A: Actor<Msg = Bytes>> ActorContext<Bytes> for TcpWorkerContext<'a, A> {
    fn me(&self) -> ProcessId {
        self.worker.me
    }

    fn processes(&self) -> &ProcessSet {
        &self.worker.processes
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn send(&mut self, to: ProcessId, msg: Bytes) {
        self.transmit(to, msg);
    }

    fn multisend(&mut self, msg: Bytes) {
        for to in self.worker.processes.clone().iter() {
            self.transmit(to, msg.clone());
        }
    }

    fn set_timer(&mut self, timer: TimerId, delay: SimDuration) {
        let deadline = self.now + delay;
        self.timers.insert(timer, deadline);
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.timers.remove(&timer);
    }

    fn storage(&self) -> &SharedStorage {
        &self.worker.storage
    }

    fn random_u64(&mut self) -> u64 {
        self.worker.rng.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frame, encode_frame};
    use abcast_storage::{StorageKey, TypedStorageExt};

    /// A tiny framed actor: every `tick` it multisends its counter as a
    /// `u64` frame, counts receptions per peer, and persists its send count
    /// so recovery can resume it.
    struct Counting {
        sent: u64,
        received: u64,
        decode_failures: u64,
        last_payload: Option<Vec<u8>>,
    }

    const TICK: TimerId = TimerId::new(1);

    impl Actor for Counting {
        type Msg = Bytes;

        fn on_start(&mut self, ctx: &mut dyn ActorContext<Bytes>) {
            self.sent = ctx
                .storage()
                .load_value(&StorageKey::new("sent"))
                .unwrap()
                .unwrap_or(0);
            ctx.set_timer(TICK, SimDuration::from_millis(5));
        }

        fn on_message(&mut self, _from: ProcessId, frame: Bytes, _ctx: &mut dyn ActorContext<Bytes>) {
            match decode_frame::<u64>(&frame) {
                Ok(_) => self.received += 1,
                Err(_) => self.decode_failures += 1,
            }
        }

        fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn ActorContext<Bytes>) {
            assert_eq!(timer, TICK);
            self.sent += 1;
            ctx.storage()
                .store_value(&StorageKey::new("sent"), &self.sent)
                .unwrap();
            ctx.multisend(encode_frame(&self.sent));
            ctx.set_timer(TICK, SimDuration::from_millis(5));
        }

        fn on_client_request(&mut self, payload: Bytes, _ctx: &mut dyn ActorContext<Bytes>) {
            self.last_payload = Some(payload.to_vec());
        }
    }

    fn start(n: usize) -> TcpRuntime<Counting> {
        let storage = StorageRegistry::in_memory(n);
        TcpRuntime::start(n, storage, TcpConfig::default(), |_, _| Counting {
            sent: 0,
            received: 0,
            decode_failures: 0,
            last_payload: None,
        })
        .expect("loopback listeners must bind")
    }

    #[test]
    fn actors_exchange_frames_over_real_sockets() {
        let runtime = start(3);
        let got = runtime.wait_for(ProcessId::new(0), Duration::from_secs(10), |a| {
            (a.received >= 9).then_some(a.received)
        });
        assert!(got.is_some(), "process 0 should receive socket traffic");
        for q in 0..3u32 {
            let failures = runtime
                .inspect(ProcessId::new(q), |a| a.decode_failures)
                .unwrap();
            assert_eq!(failures, 0, "p{q} saw undecodable frames on a healthy stream");
        }
        let tcp = runtime.tcp_metrics().snapshot();
        assert!(tcp.connections_established >= 6, "3 processes fully connect: {tcp:?}");
        assert!(tcp.frames_sent > 0 && tcp.frames_received > 0);
        assert_eq!(tcp.torn_frames, 0);
        assert_eq!(tcp.stream_errors, 0);
        runtime.shutdown();
    }

    #[test]
    fn client_requests_and_invoke_reach_the_actor() {
        let runtime = start(2);
        runtime.client_request(ProcessId::new(1), &b"hello"[..]);
        let got = runtime.wait_for(ProcessId::new(1), Duration::from_secs(5), |a| {
            a.last_payload.clone()
        });
        assert_eq!(got, Some(b"hello".to_vec()));
        // invoke() runs with a live context: the send goes over the wire.
        runtime.invoke(ProcessId::new(0), |_a, ctx| {
            ctx.send(ProcessId::new(1), encode_frame(&7u64));
        });
        runtime.shutdown();
    }

    #[test]
    fn severed_connections_reconnect_and_traffic_resumes() {
        let runtime = start(2);
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        runtime
            .wait_for(p0, Duration::from_secs(10), |a| (a.received >= 3).then_some(()))
            .expect("initial traffic");

        let severed = runtime.sever_process(p1);
        assert!(severed > 0, "there were live connections to sever");

        // Traffic must resume: the poller reconnects off its timer wheel.
        let before = runtime.inspect(p0, |a| a.received).unwrap();
        let resumed = runtime.wait_for(p0, Duration::from_secs(10), move |a| {
            (a.received >= before + 5).then_some(())
        });
        assert!(resumed.is_some(), "traffic must resume after reconnect");
        let tcp = runtime.tcp_metrics().snapshot();
        assert!(
            tcp.connections_established > 2,
            "reconnects must re-establish connections: {tcp:?}"
        );
        runtime.shutdown();
    }

    #[test]
    fn severing_a_link_cuts_both_ends_of_both_directions_and_redials_only_that_pair() {
        let runtime = start(3);
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        // Warm up: all six connections handshaken, so every stream end
        // that can be severed exists.
        let deadline = Instant::now() + Duration::from_secs(10);
        while runtime.tcp_metrics().snapshot().connections_accepted < 6 {
            assert!(Instant::now() < deadline, "connections must establish");
            std::thread::sleep(Duration::from_millis(1));
        }
        let before = runtime.tcp_metrics().snapshot();

        assert_eq!(
            runtime.sever_link(p0, p1),
            4,
            "both ends of the 0 -> 1 and the 1 -> 0 connection"
        );

        // Traffic resumes on both links once both dialers are accepted again.
        let deadline = Instant::now() + Duration::from_secs(10);
        while runtime.tcp_metrics().snapshot().since(&before).connections_accepted < 2 {
            assert!(Instant::now() < deadline, "the severed pair must reconnect");
            std::thread::sleep(Duration::from_millis(1));
        }
        let received = runtime.inspect(p1, |a| a.received).unwrap();
        runtime
            .wait_for(p1, Duration::from_secs(10), move |a| (a.received > received + 3).then_some(()))
            .expect("traffic resumes");
        let delta = runtime.tcp_metrics().snapshot().since(&before);
        assert_eq!(delta.connections_established, 2, "only the severed pair redialled: {delta:?}");
        assert_eq!(delta.connections_accepted, 2, "{delta:?}");
        runtime.shutdown();
    }

    #[test]
    fn frames_before_a_corrupt_prefix_are_delivered_and_corruption_is_one_stream_error() {
        let storage = StorageRegistry::in_memory(1);
        let runtime: TcpRuntime<Counting> = TcpRuntime::start(
            1,
            storage,
            TcpConfig {
                max_frame_len: 1024,
                ..TcpConfig::default()
            },
            |_, _| Counting {
                sent: 0,
                received: 0,
                decode_failures: 0,
                last_payload: None,
            },
        )
        .unwrap();
        let p0 = ProcessId::new(0);
        let before = runtime.inspect(p0, |a| a.received).unwrap();

        // One write: a valid frame followed by an oversized (corrupt)
        // length prefix.  The valid frame must still be delivered; the
        // corruption must be counted as a stream error, not as a torn
        // frame on top.
        let mut wire = Vec::new();
        for chunk in crate::frame::wire_chunks(&encode_frame(&41u64)) {
            wire.extend_from_slice(&chunk);
        }
        wire.extend_from_slice(&(1_000_000u64).to_le_bytes());
        let mut conn = TcpStream::connect(runtime.addr(p0)).unwrap();
        let mut handshake = HANDSHAKE_MAGIC.to_le_bytes().to_vec();
        handshake.extend_from_slice(&7u32.to_le_bytes());
        conn.write_all(&handshake).unwrap();
        conn.write_all(&wire).unwrap();
        conn.flush().unwrap();

        let got = runtime.wait_for(p0, Duration::from_secs(5), move |a| {
            (a.received > before).then_some(a.received)
        });
        assert!(got.is_some(), "the frame before the corrupt prefix must be delivered");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let tcp = runtime.tcp_metrics().snapshot();
            if tcp.stream_errors == 1 {
                assert_eq!(tcp.torn_frames, 0, "corruption must not double-count: {tcp:?}");
                break;
            }
            assert!(Instant::now() < deadline, "stream error must be counted: {tcp:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
        runtime.shutdown();
    }

    #[test]
    fn crash_drops_volatile_state_and_recovery_restores_from_storage() {
        let runtime = start(2);
        let p = ProcessId::new(0);
        let sent_before = runtime
            .wait_for(p, Duration::from_secs(10), |a| (a.sent >= 3).then_some(a.sent))
            .expect("p0 should tick");

        runtime.crash(p);
        std::thread::sleep(Duration::from_millis(30));
        assert!(runtime.inspect(p, |a| a.sent).is_none());

        runtime.recover(p);
        let sent_after = runtime
            .wait_for(p, Duration::from_secs(10), |a| Some(a.sent))
            .expect("p0 should be back up");
        assert!(
            sent_after >= sent_before,
            "recovered counter {sent_after} must not regress below {sent_before}"
        );
        runtime.shutdown();
    }

    /// A silent actor: no timers, no background traffic — the only frames
    /// on the wire are the ones a test injects, so latency can be timed.
    #[derive(Default)]
    struct Quiet {
        received: u64,
    }

    impl Actor for Quiet {
        type Msg = Bytes;

        fn on_start(&mut self, _ctx: &mut dyn ActorContext<Bytes>) {}

        fn on_message(&mut self, _from: ProcessId, _frame: Bytes, _ctx: &mut dyn ActorContext<Bytes>) {
            self.received += 1;
        }

        fn on_timer(&mut self, _timer: TimerId, _ctx: &mut dyn ActorContext<Bytes>) {}
    }

    #[test]
    fn stream_faults_are_counted_loss_and_the_poller_keeps_serving() {
        let storage = StorageRegistry::in_memory(2);
        let runtime: TcpRuntime<Quiet> =
            TcpRuntime::start(2, storage, TcpConfig::default(), |_, _| Quiet::default()).unwrap();
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        // `true` once a frame from `from` reaches `to`, resending while the
        // link reconnects as any fair-lossy sender would.
        let delivers = |from: ProcessId, to: ProcessId| {
            let before = runtime.inspect(to, |a| a.received).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline {
                runtime.invoke(from, move |_, ctx| ctx.send(to, encode_frame(&7u64)));
                let got = runtime.wait_for(to, Duration::from_millis(50), move |a| {
                    (a.received > before).then_some(())
                });
                if got.is_some() {
                    return true;
                }
            }
            false
        };
        assert!(delivers(p0, p1) && delivers(p1, p0), "initial traffic");

        // A read error: a rogue peer sends the handshake and half a frame in
        // one write, then resets the connection.  The poller drains the
        // buffered bytes, and its next read fails with ECONNRESET.
        let before = runtime.tcp_metrics().snapshot();
        let mut frame = Vec::new();
        for chunk in crate::frame::wire_chunks(&encode_frame(&41u64)) {
            frame.extend_from_slice(&chunk);
        }
        let mut wire = HANDSHAKE_MAGIC.to_le_bytes().to_vec();
        wire.extend_from_slice(&7u32.to_le_bytes());
        wire.extend_from_slice(&frame[..frame.len() / 2]);
        let mut rogue = TcpStream::connect(runtime.addr(p0)).unwrap();
        rogue.write_all(&wire).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while runtime.tcp_metrics().snapshot().since(&before).connections_accepted == 0 {
            assert!(Instant::now() < deadline, "the rogue handshake must be read");
            std::thread::sleep(Duration::from_millis(1));
        }
        crate::poll::reset_on_close(&rogue).unwrap();
        drop(rogue);
        let deadline = Instant::now() + Duration::from_secs(5);
        while runtime.tcp_metrics().snapshot().since(&before).torn_frames == 0 {
            assert!(
                Instant::now() < deadline,
                "the reset must close the connection and count its half frame"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(delivers(p1, p0), "frames keep flowing after a read error");
        let delta = runtime.tcp_metrics().snapshot().since(&before);
        assert_eq!((delta.torn_frames, delta.stream_errors), (1, 0), "{delta:?}");

        // A write error: the poller is idle (quiet actors, no timers), so
        // these two commands are drained together.  The sever shuts both
        // ends of the link, and the frame then hits the shut stream before
        // any readiness event can tear it down: the write fails with EPIPE.
        let before = runtime.tcp_metrics().snapshot();
        let (reply, _severed) = bounded(1);
        let frame = encode_frame(&8u64);
        let sever = PollCmd::Sever { a: p0, b: Some(p1), reply };
        for cmd in [sever, PollCmd::Frame { src: p0, dst: p1, frame }] {
            assert!(runtime.poll_tx.send(cmd).is_ok(), "the poller is running");
        }
        runtime.waker.notify();
        assert!(delivers(p0, p1), "frames keep flowing after a write error");
        let delta = runtime.tcp_metrics().snapshot().since(&before);
        assert!(delta.frames_dropped >= 1, "the failed write is counted loss: {delta:?}");
        runtime.shutdown();
    }

    #[test]
    fn a_delayed_link_policy_stretches_delivery_latency() {
        let storage = StorageRegistry::in_memory(2);
        let config = TcpConfig::default().with_link(LinkPolicy::delayed(
            Duration::from_millis(20),
            Duration::from_millis(25),
        ));
        let runtime: TcpRuntime<Quiet> =
            TcpRuntime::start(2, storage, config, |_, _| Quiet::default()).unwrap();
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        // Let the connections establish first, so dial/backoff time does
        // not mask (or inflate) the link delay being measured.
        let deadline = Instant::now() + Duration::from_secs(5);
        while runtime.tcp_metrics().snapshot().connections_established < 2 {
            assert!(Instant::now() < deadline, "connections must establish");
            std::thread::sleep(Duration::from_millis(1));
        }
        let started = Instant::now();
        runtime.invoke(p0, move |_a, ctx| {
            ctx.send(p1, encode_frame(&99u64));
        });
        runtime
            .wait_for(p1, Duration::from_secs(10), |a| (a.received >= 1).then_some(()))
            .expect("the delayed frame must still arrive");
        let elapsed = started.elapsed();
        assert!(
            elapsed >= Duration::from_millis(18),
            "a 20-25 ms link must not deliver in {elapsed:?}"
        );
        runtime.shutdown();
    }

    #[test]
    fn write_queue_backpressure_drops_are_counted_not_blocking() {
        let storage = StorageRegistry::in_memory(2);
        // A queue bound below one frame's wire size: every send overflows.
        let config = TcpConfig {
            write_queue_limit: 4,
            ..TcpConfig::default()
        };
        let runtime: TcpRuntime<Counting> =
            TcpRuntime::start(2, storage, config, |_, _| Counting {
                sent: 0,
                received: 0,
                decode_failures: 0,
                last_payload: None,
            })
            .unwrap();
        let p0 = ProcessId::new(0);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let tcp = runtime.tcp_metrics().snapshot();
            if tcp.frames_dropped > 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "overflowing frames must surface as counted drops: {tcp:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // The workers kept running (sends never blocked on the full queue).
        assert!(runtime.inspect(p0, |a| a.sent).unwrap() > 0);
        runtime.shutdown();
    }

    /// A timer-free actor for the group-commit tests: each client request
    /// logs itself under its own key, and one starting with `"send"` also
    /// multisends a frame; `"block"` instead stalls the worker so the
    /// requests behind it pile up.
    #[derive(Default)]
    struct Logger {
        handled: u64,
        received: u64,
    }

    const BLOCK: &[u8] = b"block";

    impl Actor for Logger {
        type Msg = Bytes;

        fn on_start(&mut self, _ctx: &mut dyn ActorContext<Bytes>) {}

        fn on_message(&mut self, _from: ProcessId, _frame: Bytes, _ctx: &mut dyn ActorContext<Bytes>) {
            self.received += 1;
        }

        fn on_timer(&mut self, _timer: TimerId, _ctx: &mut dyn ActorContext<Bytes>) {}

        fn on_client_request(&mut self, payload: Bytes, ctx: &mut dyn ActorContext<Bytes>) {
            self.handled += 1;
            if payload.as_ref() == BLOCK {
                std::thread::sleep(Duration::from_millis(100));
                return;
            }
            let key = StorageKey::new(String::from_utf8_lossy(&payload).into_owned());
            ctx.storage().store(&key, &payload).unwrap();
            if payload.starts_with(b"send") {
                ctx.multisend(encode_frame(&self.handled));
            }
        }
    }

    fn start_logger(storage: StorageRegistry) -> TcpRuntime<Logger> {
        let n = storage.len();
        let runtime: TcpRuntime<Logger> =
            TcpRuntime::start(n, storage, TcpConfig::default(), |_, _| Logger::default()).unwrap();
        // Frames sent before the dials land could be dropped as fair-lossy
        // loss; the tests below count frames, so wait for the links.
        let deadline = Instant::now() + Duration::from_secs(5);
        while runtime.tcp_metrics().snapshot().connections_established < (n * (n - 1)) as u64 {
            assert!(Instant::now() < deadline, "connections must establish");
            std::thread::sleep(Duration::from_millis(1));
        }
        runtime
    }

    /// Queues `"block"` and then `k` requests `"{prefix}{i}"` at `p`: all of
    /// them sit in the worker's queue while it stalls.
    fn queue_behind_a_busy_worker(runtime: &TcpRuntime<Logger>, p: ProcessId, prefix: &str, k: usize) {
        runtime.client_request(p, BLOCK);
        for i in 0..k {
            runtime.client_request(p, format!("{prefix}{i}").into_bytes());
        }
    }

    /// Queues the requests, waits until all are handled, and returns the
    /// barriers they paid.
    fn barriers_for(runtime: &TcpRuntime<Logger>, prefix: &str, k: usize) -> u64 {
        let p0 = ProcessId::new(0);
        let storage = runtime.storage().storage_for(p0).unwrap();
        let before = storage.metrics().snapshot();
        let target = runtime.inspect(p0, |a| a.handled).unwrap() + k as u64 + 1;
        queue_behind_a_busy_worker(runtime, p0, prefix, k);
        let handled = runtime.wait_for(p0, Duration::from_secs(5), move |a| {
            (a.handled == target).then_some(())
        });
        assert!(handled.is_some(), "every queued request must be handled");
        let writes = storage.metrics().snapshot().since(&before);
        assert_eq!(writes.store_ops, k as u64);
        writes.sync_ops
    }

    #[test]
    fn inputs_queued_behind_a_busy_worker_commit_under_one_barrier() {
        let runtime = start_logger(StorageRegistry::in_memory(1));
        assert_eq!(barriers_for(&runtime, "k", 16), 1, "16 queued steps share one group barrier");
        runtime.shutdown();
    }

    #[test]
    fn a_group_holds_frames_no_longer_than_a_barrier() {
        // Before any barrier was measured the budget is zero, and a memory
        // barrier costs microseconds: a group is cut right after the first
        // step that holds a frame, so frames never wait out a long group
        // where grouping saves nothing.
        let runtime = start_logger(StorageRegistry::in_memory(1));
        let barriers = barriers_for(&runtime, "send", 16);
        assert!(barriers > 1, "frame-holding steps must not all wait for one barrier");
        runtime.shutdown();
    }

    #[test]
    fn a_probe_queued_behind_writes_runs_after_they_are_durable() {
        let runtime = start_logger(StorageRegistry::in_memory(1));
        let p0 = ProcessId::new(0);
        let storage = runtime.storage().storage_for(p0).unwrap();

        queue_behind_a_busy_worker(&runtime, p0, "k", 4);
        let durable = storage.clone();
        let seen = runtime.inspect(p0, move |_| {
            let value = durable.load(&StorageKey::new("k3")).unwrap();
            (value, durable.metrics().snapshot().sync_ops)
        });
        let (value, syncs) = seen.expect("p0 is up");
        assert_eq!(value.as_deref(), Some(&b"k3"[..]), "inspect sees the group's writes on disk");
        assert_eq!(syncs, 1, "and they were committed once, before the probe ran");

        // `invoke` gets the raw storage handle: a staged write would be
        // invisible through it, so seeing the value proves the commit.
        queue_behind_a_busy_worker(&runtime, p0, "j", 4);
        let key = StorageKey::new("j3");
        let value = runtime.invoke(p0, move |_, ctx| ctx.storage().load(&key).unwrap());
        assert_eq!(value.flatten().as_deref(), Some(&b"j3"[..]));
        assert_eq!(storage.metrics().snapshot().sync_ops, 2);
        runtime.shutdown();
    }

    #[test]
    fn a_failed_group_commit_sends_nothing_and_crashes_the_process() {
        use abcast_storage::{FaultSchedule, FaultyStorage, InMemoryStorage, WriteFaultKind};
        let faulty: SharedStorage = Arc::new(FaultyStorage::new(
            Arc::new(InMemoryStorage::new()),
            FaultSchedule::new().write_fault(0, WriteFaultKind::DiskFull),
        ));
        let healthy: SharedStorage = Arc::new(InMemoryStorage::new());
        let runtime = start_logger(StorageRegistry::new(vec![faulty, healthy]));
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));

        // The first group's commit hits the disk-full.
        queue_behind_a_busy_worker(&runtime, p0, "send", 3);
        assert!(
            runtime.inspect(p0, |a| a.handled).is_none(),
            "a failed group commit crashes the process"
        );
        assert!(runtime.inspect(p0, |a| a.handled).is_none(), "and it stays down");

        runtime.recover(p0);
        assert_eq!(runtime.inspect(p0, |a| a.handled), Some(0), "recovery builds a fresh actor");
        runtime.client_request(p0, &b"send-after"[..]);
        let received = runtime.wait_for(p1, Duration::from_secs(5), |a| {
            (a.received > 0).then_some(a.received)
        });
        // p0 → p1 is one FIFO stream: had a frame of the failed group
        // left, it would have arrived before this one.
        assert_eq!(received, Some(1), "no frame of the failed group reached a peer");
        runtime.shutdown();
    }

    proptest::proptest! {
        /// Satellite: one poller tick hands arbitrarily interleaved partial
        /// reads from many connections into per-connection reassembly; every
        /// stream's frames must come out intact, in order, with no
        /// cross-connection bleed.
        #[test]
        fn prop_interleaved_partial_reads_stay_per_connection(
            per_conn_lens in proptest::collection::vec(
                proptest::collection::vec(0usize..96, 1..5),
                2..5,
            ),
            schedule in proptest::collection::vec((0usize..8, 1usize..48), 1..256),
        ) {
            // Per connection: the expected frames and the full wire stream.
            let mut expected: Vec<Vec<Bytes>> = Vec::new();
            let mut streams: Vec<Vec<u8>> = Vec::new();
            for (c, lens) in per_conn_lens.iter().enumerate() {
                let frames: Vec<Bytes> = lens
                    .iter()
                    .enumerate()
                    .map(|(i, &len)| Bytes::from(vec![(c * 31 + i) as u8; len]))
                    .collect();
                let mut wire = Vec::new();
                for frame in &frames {
                    for chunk in wire_chunks(frame) {
                        wire.extend_from_slice(&chunk);
                    }
                }
                expected.push(frames);
                streams.push(wire);
            }

            let conns_count = expected.len();
            let mut conns: Vec<FrameReassembler> = (0..conns_count)
                .map(|_| FrameReassembler::with_max_frame_len(DEFAULT_MAX_FRAME_LEN))
                .collect();
            let mut cursors = vec![0usize; conns_count];
            let mut out: Vec<Vec<Bytes>> = vec![Vec::new(); conns_count];

            // The tick: readiness events arrive in arbitrary connection
            // order with arbitrary read sizes; each read is pushed and
            // drained before the next connection's, like the poller does.
            let mut feed = |c: usize, take: usize,
                            conns: &mut Vec<FrameReassembler>,
                            cursors: &mut Vec<usize>,
                            out: &mut Vec<Vec<Bytes>>| {
                let stream = &streams[c];
                let take = take.min(stream.len() - cursors[c]);
                if take == 0 {
                    return;
                }
                let chunk = Bytes::copy_from_slice(&stream[cursors[c]..cursors[c] + take]);
                cursors[c] += take;
                conns[c].push(chunk);
                while let Ok(Some(frame)) = conns[c].next_frame() {
                    out[c].push(frame);
                }
            };
            for &(pick, size) in &schedule {
                feed(pick % conns_count, size, &mut conns, &mut cursors, &mut out);
            }
            // Whatever the schedule left unread arrives in one final read.
            for c in 0..conns_count {
                let left = streams[c].len() - cursors[c];
                feed(c, left, &mut conns, &mut cursors, &mut out);
            }

            for c in 0..conns_count {
                proptest::prop_assert_eq!(&out[c], &expected[c]);
                proptest::prop_assert!(!conns[c].has_partial());
            }
        }
    }
}
