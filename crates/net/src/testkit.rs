//! Test support: a scripted, recording [`ActorContext`].
//!
//! Protocol components (failure detector, consensus instances, the atomic
//! broadcast state machine) are written against [`ActorContext`], so their
//! unit tests need a context that records every effect and lets the test
//! control time.  [`ScriptedContext`] is that harness; it is exported (not
//! `cfg(test)`-gated) so every crate in the workspace can unit-test its
//! components without spinning up a full simulation.

use std::collections::BTreeMap;
use std::sync::Arc;

use abcast_storage::{InMemoryStorage, SharedStorage};
use abcast_types::{ProcessId, ProcessSet, SimDuration, SimTime};

use crate::actor::{ActorContext, TimerId};

/// A recording context for unit tests of protocol components.
#[derive(Clone)]
pub struct ScriptedContext<M> {
    me: ProcessId,
    processes: ProcessSet,
    now: SimTime,
    storage: SharedStorage,
    /// Every `send` performed, in order.
    pub sent: Vec<(ProcessId, M)>,
    /// Every `multisend` performed, in order.
    pub multisent: Vec<M>,
    /// Currently armed timers with their absolute deadlines.
    pub timers: BTreeMap<TimerId, SimTime>,
}

impl<M> ScriptedContext<M> {
    /// Creates a context for process `me` in a system of `n` processes,
    /// with fresh in-memory stable storage.
    pub fn new(me: ProcessId, n: usize) -> Self {
        ScriptedContext {
            me,
            processes: ProcessSet::new(n),
            now: SimTime::ZERO,
            storage: Arc::new(InMemoryStorage::new()),
            sent: Vec::new(),
            multisent: Vec::new(),
            timers: BTreeMap::new(),
        }
    }

    /// Replaces the storage handle (e.g. to simulate recovery with the same
    /// stable storage in a fresh context).
    pub fn with_storage(mut self, storage: SharedStorage) -> Self {
        self.storage = storage;
        self
    }

    /// Advances the virtual clock by `delta`.
    pub fn advance(&mut self, delta: SimDuration) {
        self.now += delta;
    }

    /// Clears the recorded effects (but keeps storage, time and timers).
    pub fn clear_effects(&mut self) {
        self.sent.clear();
        self.multisent.clear();
    }

    /// Deadline of the given timer, if armed.
    pub fn timer_deadline(&self, timer: TimerId) -> Option<SimTime> {
        self.timers.get(&timer).copied()
    }

    /// The storage handle used by this context.
    pub fn storage_handle(&self) -> SharedStorage {
        self.storage.clone()
    }
}

impl<M> ActorContext<M> for ScriptedContext<M> {
    fn me(&self) -> ProcessId {
        self.me
    }

    fn processes(&self) -> &ProcessSet {
        &self.processes
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn send(&mut self, to: ProcessId, msg: M) {
        self.sent.push((to, msg));
    }

    fn multisend(&mut self, msg: M) {
        self.multisent.push(msg);
    }

    fn set_timer(&mut self, timer: TimerId, delay: SimDuration) {
        self.timers.insert(timer, self.now + delay);
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.timers.remove(&timer);
    }

    fn storage(&self) -> &SharedStorage {
        &self.storage
    }

    /// A fixed value: no component under unit test draws randomness.
    fn random_u64(&mut self) -> u64 {
        0x5EED
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abcast_storage::{StorageKey, TypedStorageExt};

    #[test]
    fn records_sends_and_multisends() {
        let mut ctx: ScriptedContext<&'static str> = ScriptedContext::new(ProcessId::new(0), 3);
        ctx.send(ProcessId::new(1), "direct");
        ctx.multisend("broadcast");
        assert_eq!(ctx.sent, vec![(ProcessId::new(1), "direct")]);
        assert_eq!(ctx.multisent, vec!["broadcast"]);
        ctx.clear_effects();
        assert!(ctx.sent.is_empty() && ctx.multisent.is_empty());
    }

    #[test]
    fn tracks_time_and_timers() {
        let mut ctx: ScriptedContext<()> = ScriptedContext::new(ProcessId::new(0), 1);
        assert_eq!(ctx.now(), SimTime::ZERO);
        ctx.set_timer(TimerId::new(5), SimDuration::from_millis(10));
        assert_eq!(
            ctx.timer_deadline(TimerId::new(5)),
            Some(SimTime::from_micros(10_000))
        );
        ctx.advance(SimDuration::from_millis(3));
        assert_eq!(ctx.now(), SimTime::from_micros(3_000));
        ctx.cancel_timer(TimerId::new(5));
        assert_eq!(ctx.timer_deadline(TimerId::new(5)), None);
    }

    #[test]
    fn storage_round_trips_and_can_be_shared() {
        let ctx: ScriptedContext<()> = ScriptedContext::new(ProcessId::new(0), 1);
        ctx.storage()
            .store_value(&StorageKey::new("x"), &7u64)
            .unwrap();
        let recovered: ScriptedContext<()> =
            ScriptedContext::new(ProcessId::new(0), 1).with_storage(ctx.storage_handle());
        let value: Option<u64> = recovered.storage().load_value(&StorageKey::new("x")).unwrap();
        assert_eq!(value, Some(7));
    }
}
