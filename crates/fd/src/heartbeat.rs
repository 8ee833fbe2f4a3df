//! A heartbeat failure detector for the crash-recovery model.
//!
//! Section 3.5 of the paper notes that the crash-recovery model must be
//! augmented with a failure detector for Consensus to be solvable, and
//! cites two families: detectors that output bounded lists of suspects
//! (Hurfin–Mostéfaoui–Raynal, Oliveira–Guerraoui–Schiper) and detectors
//! with unbounded outputs — epoch counters — that avoid predicting the
//! future behaviour of bad processes (Aguilera–Chen–Toueg).
//!
//! [`HeartbeatFd`] implements the epoch-counter flavour:
//!
//! * every process periodically multisends a heartbeat carrying its *epoch
//!   number*, a persistent counter incremented at each recovery;
//! * a process that has not been heard from within the (adaptive) timeout is
//!   *suspected*;
//! * receiving a heartbeat from a suspected process removes the suspicion
//!   and increases that process's timeout — so in any run that is eventually
//!   well-behaved, suspicions of good processes eventually stop (the ◇-style
//!   accuracy the consensus layer needs for liveness);
//! * the per-process epoch history is exposed so upper layers can identify
//!   *unstable* processes (ones that keep crashing and recovering).
//!
//! The atomic broadcast protocol itself never talks to the detector — only
//! the consensus substrate does (the paper stresses that the transformation
//! is failure-detector agnostic).

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use abcast_net::{ActorContext, TimerId};
use abcast_storage::{keys, TypedStorageExt};
use abcast_types::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use abcast_types::{ProcessId, SimDuration, SimTime};

/// Wire message of the heartbeat failure detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FdMessage {
    /// "I am alive, and this is my current epoch."
    Heartbeat {
        /// Persistent epoch counter of the sender (incremented at every
        /// recovery).
        epoch: u64,
    },
}

impl Encode for FdMessage {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            FdMessage::Heartbeat { epoch } => {
                enc.put_u8(0);
                enc.put_u64(*epoch);
            }
        }
    }
}

impl Decode for FdMessage {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.take_u8()? {
            0 => Ok(FdMessage::Heartbeat {
                epoch: dec.take_u64()?,
            }),
            other => Err(DecodeError::invalid(format!(
                "unknown FdMessage tag {other}"
            ))),
        }
    }
}

/// Timer used by the detector (inside its own timer namespace).
pub const FD_TICK: TimerId = TimerId::new(0);

/// Number of timer identities the detector uses; parents reserve this span
/// when embedding it through a `MappedContext`.
pub const FD_TIMER_SPAN: u64 = 1;

/// Configuration of the heartbeat detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FdConfig {
    /// Period between heartbeats (also the period of timeout checks).
    pub heartbeat_period: SimDuration,
    /// Initial suspicion timeout.
    pub initial_timeout: SimDuration,
    /// Increment applied to a process's timeout every time a suspicion of it
    /// proves premature.
    pub timeout_increment: SimDuration,
}

impl Default for FdConfig {
    fn default() -> Self {
        FdConfig {
            heartbeat_period: SimDuration::from_millis(10),
            initial_timeout: SimDuration::from_millis(60),
            timeout_increment: SimDuration::from_millis(20),
        }
    }
}

/// Knowledge the detector has accumulated about one peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PeerState {
    last_heard: SimTime,
    timeout: SimDuration,
    epoch: u64,
    epoch_changes: u64,
    suspected: bool,
}

/// Heartbeat/epoch failure detector with an Ω (eventual leader) output.
#[derive(Debug)]
pub struct HeartbeatFd {
    config: FdConfig,
    my_epoch: u64,
    peers: BTreeMap<ProcessId, PeerState>,
    started: bool,
}

impl HeartbeatFd {
    /// Creates a detector with the given configuration.  Call
    /// [`HeartbeatFd::on_start`] before anything else.
    pub fn new(config: FdConfig) -> Self {
        HeartbeatFd {
            config,
            my_epoch: 0,
            peers: BTreeMap::new(),
            started: false,
        }
    }

    /// The epoch this process is currently in (number of recoveries it has
    /// performed, plus one once started).
    pub fn my_epoch(&self) -> u64 {
        self.my_epoch
    }

    /// Starts (or restarts after a recovery) the detector: bumps and
    /// persists the local epoch, trusts everyone, arms the tick timer and
    /// sends a first heartbeat immediately.
    ///
    /// A failed read of the stored epoch is returned, not read as "no
    /// epoch": restarting from 1 would overwrite the real counter and let
    /// peers mistake this incarnation for an old one.  Nothing is written
    /// or sent before the read succeeds.
    pub fn on_start(&mut self, ctx: &mut dyn ActorContext<FdMessage>) -> abcast_types::Result<()> {
        let stored: u64 = ctx.storage().load_value(&keys::fd_epoch())?.unwrap_or(0);
        self.my_epoch = stored + 1;
        let _ = ctx.storage().store_value(&keys::fd_epoch(), &self.my_epoch);

        let now = ctx.now();
        let me = ctx.me();
        for p in ctx.processes().iter().filter(|p| *p != me) {
            self.peers.insert(
                p,
                PeerState {
                    last_heard: now,
                    timeout: self.config.initial_timeout,
                    epoch: 0,
                    epoch_changes: 0,
                    suspected: false,
                },
            );
        }
        self.started = true;
        ctx.multisend(FdMessage::Heartbeat {
            epoch: self.my_epoch,
        });
        ctx.set_timer(FD_TICK, self.config.heartbeat_period);
        Ok(())
    }

    /// Handles a detector message.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: FdMessage,
        ctx: &mut dyn ActorContext<FdMessage>,
    ) {
        let FdMessage::Heartbeat { epoch } = msg;
        if from == ctx.me() {
            return;
        }
        let now = ctx.now();
        let initial_timeout = self.config.initial_timeout;
        let increment = self.config.timeout_increment;
        let entry = self.peers.entry(from).or_insert(PeerState {
            last_heard: now,
            timeout: initial_timeout,
            epoch: 0,
            epoch_changes: 0,
            suspected: false,
        });
        entry.last_heard = now;
        if epoch > entry.epoch {
            if entry.epoch != 0 {
                entry.epoch_changes += 1;
            }
            entry.epoch = epoch;
        }
        if entry.suspected {
            // The suspicion was premature: trust again and be more patient
            // with this process in the future.
            entry.suspected = false;
            entry.timeout += increment;
        }
    }

    /// Handles the detector's tick timer (already translated into the
    /// detector's own timer namespace).  Returns `true` if the timer
    /// belonged to the detector.
    pub fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn ActorContext<FdMessage>) -> bool {
        if timer != FD_TICK {
            return false;
        }
        ctx.multisend(FdMessage::Heartbeat {
            epoch: self.my_epoch,
        });
        let now = ctx.now();
        for state in self.peers.values_mut() {
            if !state.suspected && now.duration_since(state.last_heard) > state.timeout {
                state.suspected = true;
            }
        }
        ctx.set_timer(FD_TICK, self.config.heartbeat_period);
        true
    }

    /// Current set of suspected processes.
    pub fn suspects(&self) -> BTreeSet<ProcessId> {
        self.peers
            .iter()
            .filter(|(_, s)| s.suspected)
            .map(|(p, _)| *p)
            .collect()
    }

    /// `true` if `p` is currently suspected.
    pub fn is_suspected(&self, p: ProcessId) -> bool {
        self.peers.get(&p).map(|s| s.suspected).unwrap_or(false)
    }

    /// The last epoch number heard from `p` (0 if never heard).
    pub fn epoch_of(&self, p: ProcessId) -> u64 {
        self.peers.get(&p).map(|s| s.epoch).unwrap_or(0)
    }

    /// Number of epoch increases observed for `p` — a proxy for how
    /// unstable it is (Aguilera–Chen–Toueg style information).
    pub fn instability_of(&self, p: ProcessId) -> u64 {
        self.peers.get(&p).map(|s| s.epoch_changes).unwrap_or(0)
    }

    /// The Ω output: the smallest process identity that is currently
    /// trusted (not suspected), the local process included.
    ///
    /// In any run where some good process is eventually never suspected by
    /// anyone (which the adaptive timeouts provide once the system behaves
    /// synchronously enough), every process eventually agrees on the same
    /// leader, which is what the consensus substrate needs to terminate.
    pub fn leader(&self, me: ProcessId) -> ProcessId {
        let mut candidates: Vec<ProcessId> = self
            .peers
            .iter()
            .filter(|(_, s)| !s.suspected)
            .map(|(p, _)| *p)
            .collect();
        candidates.push(me);
        candidates.into_iter().min().expect("me is always a candidate")
    }

    /// `true` once `on_start` has run.
    pub fn is_started(&self) -> bool {
        self.started
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use abcast_net::testkit::ScriptedContext;
    use abcast_net::Actor;
    use abcast_sim::{SimConfig, Simulation};
    use abcast_storage::{FaultSchedule, FaultyStorage, InMemoryStorage, SharedStorage};
    use abcast_types::ProcessId;

    /// Wraps the detector in a bare actor so it can run under the
    /// simulator directly.
    struct FdActor {
        fd: HeartbeatFd,
    }

    impl Actor for FdActor {
        type Msg = FdMessage;
        fn on_start(&mut self, ctx: &mut dyn ActorContext<FdMessage>) {
            self.fd.on_start(ctx).expect("epoch read failed");
        }
        fn on_message(&mut self, from: ProcessId, msg: FdMessage, ctx: &mut dyn ActorContext<FdMessage>) {
            self.fd.on_message(from, msg, ctx);
        }
        fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn ActorContext<FdMessage>) {
            self.fd.on_timer(timer, ctx);
        }
    }

    fn new_sim(n: usize) -> Simulation<FdActor> {
        Simulation::new(SimConfig::lan(n).with_seed(11), |_p, _s: SharedStorage| FdActor {
            fd: HeartbeatFd::new(FdConfig::default()),
        })
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn no_suspicions_in_a_quiet_run() {
        let mut sim = new_sim(3);
        sim.run_for(SimDuration::from_secs(1));
        for q in sim.processes().iter() {
            let fd = &sim.actor(q).unwrap().fd;
            assert!(fd.suspects().is_empty(), "{q} suspects {:?}", fd.suspects());
            assert_eq!(fd.leader(q), p(0));
            assert!(fd.is_started());
        }
    }

    #[test]
    fn crashed_process_becomes_suspected_and_leader_moves() {
        let mut sim = new_sim(3);
        sim.run_for(SimDuration::from_millis(200));
        sim.crash_now(p(0));
        sim.run_for(SimDuration::from_millis(500));
        for q in [p(1), p(2)] {
            let fd = &sim.actor(q).unwrap().fd;
            assert!(fd.is_suspected(p(0)), "{q} should suspect p0");
            assert_eq!(fd.leader(q), p(1), "leadership should move to p1");
        }
    }

    #[test]
    fn recovered_process_is_trusted_again_with_higher_epoch() {
        let mut sim = new_sim(3);
        sim.run_for(SimDuration::from_millis(200));
        sim.crash_now(p(0));
        sim.run_for(SimDuration::from_millis(500));
        assert!(sim.actor(p(1)).unwrap().fd.is_suspected(p(0)));

        sim.recover_now(p(0));
        sim.run_for(SimDuration::from_secs(1));
        for q in [p(1), p(2)] {
            let fd = &sim.actor(q).unwrap().fd;
            assert!(!fd.is_suspected(p(0)), "{q} should trust p0 again");
            assert_eq!(fd.leader(q), p(0), "p0 should lead again");
            assert_eq!(fd.epoch_of(p(0)), 2, "epoch must have been bumped");
            assert!(fd.instability_of(p(0)) >= 1);
        }
        // The recovered process's own epoch counter was persisted.
        assert_eq!(sim.actor(p(0)).unwrap().fd.my_epoch(), 2);
    }

    #[test]
    fn premature_suspicion_raises_the_timeout() {
        // Cut the link p1 -> p0 for a while so p0 suspects p1, then heal it
        // and verify the suspicion is retracted.
        let mut sim = new_sim(2);
        sim.run_for(SimDuration::from_millis(100));
        sim.link_mut().cut(p(1), p(0));
        sim.run_for(SimDuration::from_millis(400));
        assert!(sim.actor(p(0)).unwrap().fd.is_suspected(p(1)));

        sim.link_mut().heal(p(1), p(0));
        sim.run_for(SimDuration::from_millis(400));
        assert!(!sim.actor(p(0)).unwrap().fd.is_suspected(p(1)));
    }

    #[test]
    fn oscillating_process_accumulates_instability() {
        let mut sim = new_sim(3);
        for round in 0..5u64 {
            let start = SimTime::from_micros(100_000 + round * 400_000);
            sim.crash_at(p(2), start);
            sim.recover_at(p(2), start + SimDuration::from_millis(150));
        }
        sim.run_for(SimDuration::from_secs(3));
        let fd = &sim.actor(p(0)).unwrap().fd;
        assert!(
            fd.instability_of(p(2)) >= 3,
            "observed instability {}",
            fd.instability_of(p(2))
        );
        assert_eq!(fd.instability_of(p(1)), 0);
    }

    #[test]
    fn leader_is_deterministic_and_lowest_trusted() {
        let fd = {
            let mut sim = new_sim(4);
            sim.run_for(SimDuration::from_millis(300));
            sim.crash_now(p(0));
            sim.crash_now(p(1));
            sim.run_for(SimDuration::from_millis(600));
            let fd_suspects = sim.actor(p(3)).unwrap().fd.suspects();
            assert_eq!(fd_suspects, [p(0), p(1)].into_iter().collect());
            sim.actor(p(3)).unwrap().fd.leader(p(3))
        };
        assert_eq!(fd, p(2));
    }

    #[test]
    fn a_failed_epoch_read_fails_the_start_and_keeps_the_stored_epoch() {
        let disk: SharedStorage = Arc::new(InMemoryStorage::new());
        disk.store_value(&keys::fd_epoch(), &5u64).unwrap();
        // Read op 0 is the epoch load.
        let faulty: SharedStorage =
            Arc::new(FaultyStorage::new(disk.clone(), FaultSchedule::new().read_fault(0)));
        let mut ctx: ScriptedContext<FdMessage> =
            ScriptedContext::new(p(0), 3).with_storage(faulty);
        let mut fd = HeartbeatFd::new(FdConfig::default());

        assert!(fd.on_start(&mut ctx).is_err(), "the read error must fail the start");
        assert!(!fd.is_started());
        assert!(ctx.multisent.is_empty(), "no heartbeat before the epoch is known");
        let stored: Option<u64> = disk.load_value(&keys::fd_epoch()).unwrap();
        assert_eq!(stored, Some(5), "the stored epoch must not regress");

        // The retried start reads the real epoch and moves past it.
        fd.on_start(&mut ctx).unwrap();
        assert_eq!(fd.my_epoch(), 6);
    }
}
