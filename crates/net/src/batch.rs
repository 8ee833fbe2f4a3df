//! Write batching: one durability barrier per batching scope.
//!
//! The paper counts log operations because each one pays a stable-storage
//! barrier; in this codebase a single event-handler step (an `A-broadcast`,
//! one incoming consensus message, one checkpoint tick) can issue several
//! `store`/`append` calls across protocol layers.  [`StepContext`] wraps an
//! [`ActorContext`] so that, for the duration of one scope,
//!
//! * every storage write is staged into one [`WriteBatch`]
//!   (via [`abcast_storage::StagedStorage`], reads see the staged state);
//! * every outgoing message is buffered;
//!
//! and [`StepContext::finish`] then **commits the batch first and flushes
//! the messages second**.  This preserves the protocol's write-ahead
//! discipline — a value is on stable storage before any message referring
//! to it leaves the process — while paying a single barrier per scope
//! instead of one per write (on backends that support group commit; the
//! plain file backend still pays per operation).
//!
//! Scopes nest: a handler's own [`run_step`] scope commits *into* an
//! enclosing one, so the barrier lands wherever the outermost scope
//! finishes.  In the simulator that is the handler itself — one barrier
//! per step.  On sockets the `TcpRuntime` worker opens one scope around a
//! whole drained group of queued inputs and due timers — one barrier per
//! group, however many steps it ran.
//!
//! Timer operations and reads pass through immediately; only effects with
//! ordering requirements (writes, sends) are deferred.

use std::cell::OnceCell;
use std::sync::Arc;

use abcast_storage::{SharedStorage, StagedStorage};
use abcast_types::{ProcessId, ProcessSet, Result, SimDuration, SimTime};

use crate::actor::{ActorContext, TimerId};

/// A buffered outgoing message.
enum Effect<M> {
    Send(ProcessId, M),
    Multisend(M),
}

/// An [`ActorContext`] wrapper that batches one scope's storage writes into
/// a single commit and holds outgoing messages back until that commit.
///
/// `C` is the wrapped context; handlers see the scope only as a
/// `dyn ActorContext`, while the socket worker, which keeps one scope open
/// across a whole group, also reaches its own context through it.
pub struct StepContext<'a, M, C: ActorContext<M> + ?Sized = dyn ActorContext<M> + 'a> {
    inner: &'a mut C,
    /// The staging view, created lazily on first storage access: the
    /// wrapper runs around *every* handler invocation, and many steps (a
    /// gossip tick, most consensus messages) never touch storage at all —
    /// those must not pay the allocation.  The typed handle and its
    /// `SharedStorage` coercion are kept together so `storage()` can hand
    /// out a reference of the right type.
    staged: OnceCell<(Arc<StagedStorage>, SharedStorage)>,
    effects: Vec<Effect<M>>,
}

impl<'a, M, C: ActorContext<M> + ?Sized> StepContext<'a, M, C> {
    /// Opens a batching scope over `inner`.
    pub fn new(inner: &'a mut C) -> Self {
        StepContext {
            inner,
            staged: OnceCell::new(),
            effects: Vec::new(),
        }
    }

    /// The wrapped context, for the scope's owner only: writes and sends
    /// made on it directly bypass the staging.
    pub(crate) fn inner_mut(&mut self) -> &mut C {
        self.inner
    }

    /// Whether the scope is holding back any outgoing message.
    pub(crate) fn holds_messages(&self) -> bool {
        !self.effects.is_empty()
    }

    /// The first half of [`StepContext::finish`], for a scope owner that
    /// times its barrier: commits the staged writes and keeps the buffered
    /// messages, dropping them if the commit fails.  Returns whether a
    /// barrier was paid.
    pub(crate) fn commit(&mut self) -> Result<bool> {
        let Some((staged, _)) = self.staged.get() else {
            return Ok(false);
        };
        let batch = staged.take_pending();
        if batch.is_empty() {
            return Ok(false);
        }
        if let Err(e) = self.inner.storage().commit_batch(batch) {
            self.effects.clear();
            return Err(e);
        }
        Ok(true)
    }

    /// The second half of [`StepContext::finish`]: releases the buffered
    /// messages in their original order.  Only after a successful commit.
    pub(crate) fn release(mut self) {
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send(to, msg) => self.inner.send(to, msg),
                Effect::Multisend(msg) => self.inner.multisend(msg),
            }
        }
    }

    /// Closes the scope: commits the staged writes with one barrier, then
    /// releases the buffered messages in their original order.
    ///
    /// If the commit fails, **no buffered message leaves the process** —
    /// the write-ahead discipline says a value is on stable storage before
    /// any message referring to it is sent, and a failed barrier means the
    /// value may not be stable.  The error is returned so the actor can
    /// fail-stop (crash-the-process semantics, not panic-the-simulator).
    pub fn finish(mut self) -> Result<()> {
        self.commit()?;
        self.release();
        Ok(())
    }
}

impl<'a, M, C: ActorContext<M> + ?Sized> ActorContext<M> for StepContext<'a, M, C> {
    fn me(&self) -> ProcessId {
        self.inner.me()
    }

    fn processes(&self) -> &ProcessSet {
        self.inner.processes()
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn send(&mut self, to: ProcessId, msg: M) {
        self.effects.push(Effect::Send(to, msg));
    }

    fn multisend(&mut self, msg: M) {
        self.effects.push(Effect::Multisend(msg));
    }

    fn set_timer(&mut self, timer: TimerId, delay: SimDuration) {
        self.inner.set_timer(timer, delay);
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.inner.cancel_timer(timer);
    }

    fn storage(&self) -> &SharedStorage {
        let (_, staged_dyn) = self.staged.get_or_init(|| {
            let staged = Arc::new(StagedStorage::new(self.inner.storage().clone()));
            let staged_dyn: SharedStorage = staged.clone();
            (staged, staged_dyn)
        });
        staged_dyn
    }

    fn random_u64(&mut self) -> u64 {
        self.inner.random_u64()
    }
}

/// Runs `step` under a batching scope: all its storage writes commit with
/// one barrier before any of its messages leave the process.
///
/// The commit outcome is discarded; on failure the step's messages are
/// still suppressed (see [`StepContext::finish`]).  Callers that must
/// observe storage failures use [`run_step_checked`].
pub fn run_step<M, R>(
    ctx: &mut dyn ActorContext<M>,
    step: impl FnOnce(&mut dyn ActorContext<M>) -> R,
) -> R {
    let (result, _commit) = run_step_checked(ctx, step);
    result
}

/// [`run_step`], but also returns the commit outcome so the actor can
/// fail-stop when its stable storage misbehaves.
pub fn run_step_checked<M, R>(
    ctx: &mut dyn ActorContext<M>,
    step: impl FnOnce(&mut dyn ActorContext<M>) -> R,
) -> (R, Result<()>) {
    let mut scope = StepContext::new(ctx);
    let result = step(&mut scope);
    let commit = scope.finish();
    (result, commit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ScriptedContext;
    use abcast_storage::{StorageKey, TypedStorageExt};

    #[test]
    fn writes_commit_once_and_messages_flush_after() {
        let mut ctx: ScriptedContext<&'static str> = ScriptedContext::new(ProcessId::new(0), 3);
        run_step(&mut ctx, |step| {
            step.storage()
                .store_value(&StorageKey::new("a"), &1u64)
                .unwrap();
            step.send(ProcessId::new(1), "first");
            step.storage()
                .store_value(&StorageKey::new("b"), &2u64)
                .unwrap();
            step.multisend("second");
            // Inside the step nothing has been transmitted yet.
        });
        assert_eq!(ctx.sent, vec![(ProcessId::new(1), "first")]);
        assert_eq!(ctx.multisent, vec!["second"]);
        let snap = ctx.storage().metrics().snapshot();
        assert_eq!(snap.store_ops, 2);
        assert_eq!(snap.sync_ops, 1, "two writes share one barrier");
        let a: Option<u64> = ctx.storage().load_value(&StorageKey::new("a")).unwrap();
        assert_eq!(a, Some(1));
    }

    #[test]
    fn a_multi_round_commit_shares_one_barrier_and_releases_messages_after() {
        // The shape of a pipelined commit: one incoming decision releases
        // several parked rounds, each logging its decision record plus a
        // checkpoint delta and announcing afterwards.  However many rounds
        // the step commits, it pays exactly one durability barrier, and no
        // announcement leaves before the commit.
        let mut ctx: ScriptedContext<&'static str> = ScriptedContext::new(ProcessId::new(0), 3);
        run_step(&mut ctx, |step| {
            for k in 0..3u64 {
                step.storage()
                    .store_value(&StorageKey::new(format!("consensus/{k}/decided")), &k)
                    .unwrap();
                step.storage()
                    .append_value(&StorageKey::new("abcast/agreed/delta"), &k)
                    .unwrap();
                step.multisend("decided");
            }
        });
        let snap = ctx.storage().metrics().snapshot();
        assert_eq!(snap.store_ops, 3);
        assert_eq!(snap.append_ops, 3);
        assert_eq!(snap.sync_ops, 1, "three concurrently-released rounds, one barrier");
        assert_eq!(ctx.multisent.len(), 3, "announcements flush after the commit");
    }

    #[test]
    fn reads_inside_the_step_see_staged_writes() {
        let mut ctx: ScriptedContext<()> = ScriptedContext::new(ProcessId::new(0), 1);
        ctx.storage()
            .store_value(&StorageKey::new("epoch"), &3u64)
            .unwrap();
        run_step(&mut ctx, |step| {
            let epoch: u64 = step
                .storage()
                .load_value(&StorageKey::new("epoch"))
                .unwrap()
                .unwrap();
            step.storage()
                .store_value(&StorageKey::new("epoch"), &(epoch + 1))
                .unwrap();
            let again: u64 = step
                .storage()
                .load_value(&StorageKey::new("epoch"))
                .unwrap()
                .unwrap();
            assert_eq!(again, 4, "read-your-writes within the step");
        });
        let epoch: Option<u64> = ctx.storage().load_value(&StorageKey::new("epoch")).unwrap();
        assert_eq!(epoch, Some(4));
    }

    #[test]
    fn steps_without_writes_pay_no_barrier() {
        let mut ctx: ScriptedContext<&'static str> = ScriptedContext::new(ProcessId::new(0), 3);
        run_step(&mut ctx, |step| {
            step.multisend("gossip");
            step.set_timer(TimerId::new(1), SimDuration::from_millis(10));
        });
        assert_eq!(ctx.storage().metrics().snapshot().sync_ops, 0);
        assert_eq!(ctx.multisent, vec!["gossip"]);
        assert!(ctx.timer_deadline(TimerId::new(1)).is_some());
    }

    #[test]
    fn a_failed_commit_suppresses_the_buffered_messages() {
        use abcast_storage::{FaultSchedule, FaultyStorage, InMemoryStorage, WriteFaultKind};
        let faulty = Arc::new(FaultyStorage::new(
            Arc::new(InMemoryStorage::new()),
            FaultSchedule::new().write_fault(0, WriteFaultKind::DiskFull),
        ));
        let mut ctx: ScriptedContext<&'static str> =
            ScriptedContext::new(ProcessId::new(0), 3).with_storage(faulty.clone());
        let ((), commit) = run_step_checked(&mut ctx, |step| {
            step.storage()
                .store_value(&StorageKey::new("a"), &1u64)
                .unwrap();
            step.send(ProcessId::new(1), "must not leave");
            step.multisend("nor this");
        });
        assert!(commit.is_err(), "the injected disk-full must surface");
        assert!(ctx.sent.is_empty(), "write-ahead: no send after a failed commit");
        assert!(ctx.multisent.is_empty());
        assert_eq!(faulty.injected().disk_full, 1);
    }

    #[test]
    fn nested_scopes_share_the_outer_barrier() {
        let mut ctx: ScriptedContext<()> = ScriptedContext::new(ProcessId::new(0), 1);
        run_step(&mut ctx, |outer| {
            outer
                .storage()
                .store_value(&StorageKey::new("x"), &1u64)
                .unwrap();
            run_step(outer, |inner| {
                inner
                    .storage()
                    .store_value(&StorageKey::new("y"), &2u64)
                    .unwrap();
            });
        });
        let snap = ctx.storage().metrics().snapshot();
        assert_eq!(snap.store_ops, 2);
        assert_eq!(snap.sync_ops, 1, "the nested commit merges into the outer batch");
    }
}
