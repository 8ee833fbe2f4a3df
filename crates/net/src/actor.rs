//! The event-driven process abstraction shared by both runtimes.
//!
//! The paper describes each process as a set of concurrent tasks (sequencer,
//! gossip, checkpoint) plus upcall handlers, with explicit atomicity
//! brackets around shared-variable updates.  We express a process instead as
//! a single-threaded, event-driven state machine — an [`Actor`] — whose
//! handlers run to completion one at a time.  This gives the paper's
//! atomicity for free and makes the protocol runnable both under the
//! deterministic discrete-event simulator (`abcast-sim`) and under the
//! socket runtime ([`crate::tcp::TcpRuntime`]).
//!
//! Crash-recovery semantics are owned by the *runtime*, not the actor: on a
//! crash the runtime simply drops the actor value (volatile memory is lost,
//! Section 2.1) while keeping its stable storage; on recovery it builds a
//! fresh actor with the same identity and storage and calls
//! [`Actor::on_start`] again — mirroring the paper's single
//! `upon initialization or recovery` entry point.

use bytes::Bytes;

use abcast_storage::SharedStorage;
use abcast_types::{ProcessId, ProcessSet, SimDuration, SimTime};

/// Identifies one (re-armable) timer of an actor.
///
/// Timer identities are local to a process.  Protocol layers carve up the
/// space by convention (see the constants on the protocol types); the
/// [`MappedContext`] adapter additionally offsets identities so that nested
/// components can never collide.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

impl TimerId {
    /// Creates a timer identity from a raw value.
    pub const fn new(raw: u64) -> Self {
        TimerId(raw)
    }

    /// The raw value of this identity.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns this identity shifted into the sub-component region starting
    /// at `base`.
    pub const fn offset_by(self, base: u64) -> TimerId {
        TimerId(self.0 + base)
    }
}

/// Services a runtime offers to an actor while one of its handlers runs.
///
/// All effects an actor produces — messages, timers, randomness — go through
/// the context, which is what makes the same protocol code runnable under
/// virtual or real time, and what lets the simulator intercept everything
/// for fault injection and determinism.
pub trait ActorContext<M> {
    /// Identity of the process running this actor.
    fn me(&self) -> ProcessId;

    /// The full set of processes in the system.
    fn processes(&self) -> &ProcessSet;

    /// Current time (virtual in the simulator, monotonic in the thread
    /// runtime).
    fn now(&self) -> SimTime;

    /// Sends `msg` to `to` over the unreliable fair-lossy transport
    /// (Section 3.1).  Sending to oneself is allowed and is also lossy.
    fn send(&mut self, to: ProcessId, msg: M);

    /// Sends `msg` to every process, including the sender — the paper's
    /// `multisend` macro.
    fn multisend(&mut self, msg: M);

    /// Arms (or re-arms) the timer `timer` to fire after `delay`.
    /// Re-arming an already pending timer replaces its deadline.
    fn set_timer(&mut self, timer: TimerId, delay: SimDuration);

    /// Cancels the timer `timer` if it is pending.
    fn cancel_timer(&mut self, timer: TimerId);

    /// Stable storage of this process (survives crashes).
    fn storage(&self) -> &SharedStorage;

    /// Deterministic source of randomness supplied by the runtime.
    fn random_u64(&mut self) -> u64;
}

/// An event-driven process state machine.
///
/// Handlers run to completion and are never re-entered concurrently.
/// Everything an actor keeps in `self` is *volatile memory*: it disappears
/// on a crash.  State that must survive crashes goes through
/// [`ActorContext::storage`].
pub trait Actor: Send + 'static {
    /// The wire message type exchanged between instances of this actor.
    type Msg: Clone + Send + 'static;

    /// Called when the process starts *and* every time it recovers from a
    /// crash (the paper's `upon initialization or recovery`).  Recovery
    /// logic — `retrieve`, replay — lives here.
    fn on_start(&mut self, ctx: &mut dyn ActorContext<Self::Msg>);

    /// Called when a transport message from `from` is received while the
    /// process is up.  Messages that arrive while the process is down are
    /// lost (Section 2.1).
    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, ctx: &mut dyn ActorContext<Self::Msg>);

    /// Called when a previously armed timer fires.
    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn ActorContext<Self::Msg>);

    /// Called when the local application invokes the protocol (for the
    /// atomic broadcast layer this is `A-broadcast(payload)`).  The default
    /// implementation ignores requests, which is appropriate for actors
    /// that have no client-facing operation.
    fn on_client_request(
        &mut self,
        payload: Bytes,
        ctx: &mut dyn ActorContext<Self::Msg>,
    ) {
        let _ = (payload, ctx);
    }
}

/// Builds the actor of a given process, both at initialization and at every
/// recovery.
///
/// The runtime owns one factory per deployment; the factory must produce an
/// actor whose volatile state is *freshly initialized* — recovering state
/// from stable storage is the job of [`Actor::on_start`].
pub trait ActorFactory<A: Actor>: Send {
    /// Creates the actor for process `id` with its crash-surviving storage.
    fn build(&self, id: ProcessId, storage: SharedStorage) -> A;
}

impl<A: Actor, F> ActorFactory<A> for F
where
    F: Fn(ProcessId, SharedStorage) -> A + Send,
{
    fn build(&self, id: ProcessId, storage: SharedStorage) -> A {
        self(id, storage)
    }
}

/// Adapts an `ActorContext<Outer>` into an `ActorContext<Inner>` for a
/// nested protocol component.
///
/// The atomic broadcast actor embeds consensus instances and a failure
/// detector; each speaks its own message type.  `MappedContext` wraps the
/// outer context with an injection `Inner -> Outer` and a timer-identity
/// offset, so nested components can be written against their own message
/// type and timer space without knowing where they are embedded.
pub struct MappedContext<'a, Outer, Inner, F>
where
    F: Fn(Inner) -> Outer,
{
    outer: &'a mut dyn ActorContext<Outer>,
    wrap: F,
    timer_base: u64,
    _inner: std::marker::PhantomData<fn(Inner)>,
}

impl<'a, Outer, Inner, F> MappedContext<'a, Outer, Inner, F>
where
    F: Fn(Inner) -> Outer,
{
    /// Wraps `outer`, translating inner messages with `wrap` and offsetting
    /// inner timer identities by `timer_base`.
    pub fn new(outer: &'a mut dyn ActorContext<Outer>, wrap: F, timer_base: u64) -> Self {
        MappedContext {
            outer,
            wrap,
            timer_base,
            _inner: std::marker::PhantomData,
        }
    }

    /// Translates an outer timer identity back into the inner component's
    /// space, if it belongs to it.
    pub fn unmap_timer(timer: TimerId, timer_base: u64, span: u64) -> Option<TimerId> {
        let raw = timer.raw();
        if raw >= timer_base && raw < timer_base + span {
            Some(TimerId(raw - timer_base))
        } else {
            None
        }
    }
}

impl<'a, Outer, Inner, F> ActorContext<Inner> for MappedContext<'a, Outer, Inner, F>
where
    F: Fn(Inner) -> Outer,
{
    fn me(&self) -> ProcessId {
        self.outer.me()
    }

    fn processes(&self) -> &ProcessSet {
        self.outer.processes()
    }

    fn now(&self) -> SimTime {
        self.outer.now()
    }

    fn send(&mut self, to: ProcessId, msg: Inner) {
        let wrapped = (self.wrap)(msg);
        self.outer.send(to, wrapped);
    }

    fn multisend(&mut self, msg: Inner) {
        let wrapped = (self.wrap)(msg);
        self.outer.multisend(wrapped);
    }

    fn set_timer(&mut self, timer: TimerId, delay: SimDuration) {
        self.outer.set_timer(timer.offset_by(self.timer_base), delay);
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.outer.cancel_timer(timer.offset_by(self.timer_base));
    }

    fn storage(&self) -> &SharedStorage {
        self.outer.storage()
    }

    fn random_u64(&mut self) -> u64 {
        self.outer.random_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast_storage::{InMemoryStorage, StorageKey};
    use std::sync::Arc;

    /// A minimal hand-rolled context that records effects, used to test the
    /// adapter without a full runtime.
    struct RecordingContext {
        me: ProcessId,
        processes: ProcessSet,
        storage: SharedStorage,
        sent: Vec<(ProcessId, String)>,
        multisent: Vec<String>,
        timers: Vec<(TimerId, SimDuration)>,
        cancelled: Vec<TimerId>,
    }

    impl RecordingContext {
        fn new() -> Self {
            RecordingContext {
                me: ProcessId::new(0),
                processes: ProcessSet::new(3),
                storage: Arc::new(InMemoryStorage::new()),
                sent: Vec::new(),
                multisent: Vec::new(),
                timers: Vec::new(),
                cancelled: Vec::new(),
            }
        }
    }

    impl ActorContext<String> for RecordingContext {
        fn me(&self) -> ProcessId {
            self.me
        }
        fn processes(&self) -> &ProcessSet {
            &self.processes
        }
        fn now(&self) -> SimTime {
            SimTime::from_micros(123)
        }
        fn send(&mut self, to: ProcessId, msg: String) {
            self.sent.push((to, msg));
        }
        fn multisend(&mut self, msg: String) {
            self.multisent.push(msg);
        }
        fn set_timer(&mut self, timer: TimerId, delay: SimDuration) {
            self.timers.push((timer, delay));
        }
        fn cancel_timer(&mut self, timer: TimerId) {
            self.cancelled.push(timer);
        }
        fn storage(&self) -> &SharedStorage {
            &self.storage
        }
        fn random_u64(&mut self) -> u64 {
            7
        }
    }

    #[test]
    fn timer_id_offsets() {
        let t = TimerId::new(3);
        assert_eq!(t.raw(), 3);
        assert_eq!(t.offset_by(100), TimerId::new(103));
    }

    #[test]
    fn unmap_timer_inverts_offset_within_span() {
        let outer = TimerId::new(105);
        assert_eq!(
            MappedContext::<String, u32, fn(u32) -> String>::unmap_timer(outer, 100, 10),
            Some(TimerId::new(5))
        );
        assert_eq!(
            MappedContext::<String, u32, fn(u32) -> String>::unmap_timer(outer, 100, 5),
            None
        );
        assert_eq!(
            MappedContext::<String, u32, fn(u32) -> String>::unmap_timer(TimerId::new(99), 100, 10),
            None
        );
    }

    #[test]
    fn mapped_context_wraps_messages_and_offsets_timers() {
        let mut outer = RecordingContext::new();
        {
            let mut inner: MappedContext<'_, String, u32, _> =
                MappedContext::new(&mut outer, |n: u32| format!("wrapped:{n}"), 1000);
            assert_eq!(inner.me(), ProcessId::new(0));
            assert_eq!(inner.processes().len(), 3);
            assert_eq!(inner.now(), SimTime::from_micros(123));
            assert_eq!(inner.random_u64(), 7);
            inner.send(ProcessId::new(2), 5);
            inner.multisend(9);
            inner.set_timer(TimerId::new(1), SimDuration::from_millis(10));
            inner.cancel_timer(TimerId::new(2));
            // Storage passes straight through.
            inner
                .storage()
                .store(&StorageKey::new("k"), b"v")
                .unwrap();
        }
        assert_eq!(outer.sent, vec![(ProcessId::new(2), "wrapped:5".to_string())]);
        assert_eq!(outer.multisent, vec!["wrapped:9".to_string()]);
        assert_eq!(
            outer.timers,
            vec![(TimerId::new(1001), SimDuration::from_millis(10))]
        );
        assert_eq!(outer.cancelled, vec![TimerId::new(1002)]);
        assert_eq!(
            outer.storage.load(&StorageKey::new("k")).unwrap().unwrap(),
            b"v"
        );
    }

    #[test]
    fn closures_are_actor_factories() {
        struct Nop;
        impl Actor for Nop {
            type Msg = ();
            fn on_start(&mut self, _ctx: &mut dyn ActorContext<()>) {}
            fn on_message(&mut self, _f: ProcessId, _m: (), _ctx: &mut dyn ActorContext<()>) {}
            fn on_timer(&mut self, _t: TimerId, _ctx: &mut dyn ActorContext<()>) {}
        }
        let factory = |_id: ProcessId, _storage: SharedStorage| Nop;
        let storage: SharedStorage = Arc::new(InMemoryStorage::new());
        let _actor = factory.build(ProcessId::new(1), storage);
    }
}
