//! Configuration of the atomic broadcast protocol and its substrates.
//!
//! The paper leaves several knobs as "implementation choices": the gossip
//! period, the checkpoint frequency (Section 5.1: "The frequency of this
//! checkpointing has no impact on correctness and is an implementation
//! choice"), the de-synchronisation threshold Δ that triggers a state
//! transfer (Section 5.3, line *d*), and whether `A-broadcast` blocks until
//! ordering or returns after logging the `Unordered` set (Section 5.4).
//! [`ProtocolConfig`] gathers them all so that experiments can sweep them.

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Timer periods of the broadcast layer.  The consensus substrate's
/// retransmission tick and the failure detector's heartbeat and suspicion
/// timeout are set in `ConsensusConfig` (and its `FdConfig`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimerConfig {
    /// Period of the gossip task (`multisend gossip(k, Unordered)`).
    pub gossip_period: SimDuration,
    /// Period of the checkpoint task of the alternative protocol.
    pub checkpoint_period: SimDuration,
}

impl Default for TimerConfig {
    fn default() -> Self {
        TimerConfig {
            gossip_period: SimDuration::from_millis(20),
            checkpoint_period: SimDuration::from_millis(200),
        }
    }
}

/// Which protocol variant performs which stable-storage writes — the
/// paper's one logging split.
///
/// * `Minimal` is the basic protocol of Section 4: the only log operation is
///   the proposal written at the start of each consensus instance.
/// * `Checkpointing` is the alternative protocol of Section 5: it
///   additionally logs `(k, Agreed)` periodically and the `Unordered` set on
///   `A-broadcast`, enabling faster recovery and early return.  Both are
///   logged incrementally (Section 5.5): delta records between snapshots
///   for `(k, Agreed)`, and only the newly added messages for `Unordered`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoggingPolicy {
    /// Log only consensus proposals (basic protocol, Section 4).
    Minimal,
    /// Log proposals plus periodic `(k, Agreed)` checkpoints and the
    /// `Unordered` set (alternative protocol, Section 5).
    Checkpointing,
}

impl LoggingPolicy {
    /// `true` for the policy that persists `(k, Agreed)` checkpoints.
    pub fn logs_agreed(self) -> bool {
        self == LoggingPolicy::Checkpointing
    }

    /// `true` for the policy that persists the `Unordered` set on broadcast.
    pub fn logs_unordered(self) -> bool {
        self == LoggingPolicy::Checkpointing
    }
}

/// How a recovering or lagging process catches up with the rest of the
/// system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// Re-run (replay) every missed consensus instance (basic protocol).
    ReplayConsensus,
    /// Accept `state(k, Agreed)` messages from up-to-date peers and skip the
    /// missed instances when more than `delta` rounds behind (Section 5.3).
    StateTransfer {
        /// De-synchronisation threshold Δ that triggers a state transfer.
        delta: u64,
    },
}

impl RecoveryPolicy {
    /// The Δ threshold, if state transfer is enabled.
    pub fn delta(self) -> Option<u64> {
        match self {
            RecoveryPolicy::ReplayConsensus => None,
            RecoveryPolicy::StateTransfer { delta } => Some(delta),
        }
    }
}

/// Batching behaviour of `A-broadcast` (Section 5.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchingPolicy {
    /// `A-broadcast(m)` completes only once `m` is in the `Agreed` queue
    /// (basic protocol: no extra logging, but the caller waits for a full
    /// ordering round).
    WaitForAgreed,
    /// `A-broadcast(m)` completes as soon as `m` has been logged in the
    /// `Unordered` set; up to `max_batch` messages are then proposed to a
    /// single consensus instance.
    EarlyReturn {
        /// Maximum number of messages proposed to one consensus instance.
        max_batch: usize,
    },
}

impl BatchingPolicy {
    /// Maximum number of messages proposed to one consensus instance.
    pub fn max_batch(self) -> usize {
        match self {
            BatchingPolicy::WaitForAgreed => usize::MAX,
            BatchingPolicy::EarlyReturn { max_batch } => max_batch,
        }
    }
}

/// Complete configuration of one atomic broadcast deployment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// Timer periods.
    pub timers: TimerConfig,
    /// Which stable-storage writes are performed.
    pub logging: LoggingPolicy,
    /// How lagging processes catch up.
    pub recovery: RecoveryPolicy,
    /// Batching behaviour of `A-broadcast`.
    pub batching: BatchingPolicy,
    /// Whether application-level checkpoints replace the prefix of the
    /// `Agreed` queue (Section 5.2), bounding log growth.
    pub application_checkpoints: bool,
    /// How many incremental `(k, Agreed)` delta records are appended
    /// between full snapshots.  Deltas keep each checkpoint O(new
    /// messages); the periodic snapshot bounds recovery replay and lets
    /// the delta log be truncated.
    pub checkpoint_snapshot_every: u64,
    /// Pipeline depth `W`: how many consensus instances the sequencer may
    /// keep open concurrently.  With `W = 1` the round loop is strictly
    /// sequential (the paper's presentation: round `k + 1` is proposed only
    /// after round `k` decided and was committed); with `W > 1` rounds
    /// `k .. k + W` may gossip and run their ballots concurrently while
    /// decided batches are still *applied* strictly in round order, so the
    /// delivery sequence is identical to the sequential run.
    pub pipeline_depth: u64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig::basic()
    }
}

impl ProtocolConfig {
    /// The basic protocol of Section 4 (Figure 2): minimal logging, replay
    /// recovery, blocking `A-broadcast`.
    pub fn basic() -> Self {
        ProtocolConfig {
            timers: TimerConfig::default(),
            logging: LoggingPolicy::Minimal,
            recovery: RecoveryPolicy::ReplayConsensus,
            batching: BatchingPolicy::WaitForAgreed,
            application_checkpoints: false,
            checkpoint_snapshot_every: 16,
            pipeline_depth: 1,
        }
    }

    /// The alternative protocol of Section 5 (Figures 3 and 4): periodic
    /// checkpoints, state transfer with the default Δ = 8, early-return
    /// batched `A-broadcast`, incremental logging and application
    /// checkpoints.
    pub fn alternative() -> Self {
        ProtocolConfig {
            timers: TimerConfig::default(),
            logging: LoggingPolicy::Checkpointing,
            recovery: RecoveryPolicy::StateTransfer { delta: 8 },
            batching: BatchingPolicy::EarlyReturn { max_batch: 64 },
            application_checkpoints: true,
            checkpoint_snapshot_every: 16,
            pipeline_depth: 1,
        }
    }

    /// Sets the checkpoint period.
    pub fn with_checkpoint_period(mut self, period: SimDuration) -> Self {
        self.timers.checkpoint_period = period;
        self
    }

    /// Sets the state-transfer threshold Δ (switching recovery to
    /// [`RecoveryPolicy::StateTransfer`]).
    pub fn with_delta(mut self, delta: u64) -> Self {
        self.recovery = RecoveryPolicy::StateTransfer { delta };
        self
    }

    /// Sets the batching policy.
    pub fn with_batching(mut self, batching: BatchingPolicy) -> Self {
        self.batching = batching;
        self
    }

    /// Enables or disables application-level checkpoints (Section 5.2).
    pub fn with_application_checkpoints(mut self, enabled: bool) -> Self {
        self.application_checkpoints = enabled;
        self
    }

    /// Sets how many delta checkpoint records are appended between full
    /// `(k, Agreed)` snapshots (clamped to at least 1).
    pub fn with_checkpoint_snapshot_every(mut self, every: u64) -> Self {
        self.checkpoint_snapshot_every = every.max(1);
        self
    }

    /// Sets the pipeline depth `W` (clamped to at least 1): how many
    /// consensus instances may be open concurrently.
    pub fn with_pipeline_depth(mut self, depth: u64) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_config_matches_section_4() {
        let c = ProtocolConfig::basic();
        assert_eq!(c.logging, LoggingPolicy::Minimal);
        assert_eq!(c.recovery, RecoveryPolicy::ReplayConsensus);
        assert_eq!(c.batching, BatchingPolicy::WaitForAgreed);
        assert!(!c.application_checkpoints);
        assert!(!c.logging.logs_agreed());
        assert!(!c.logging.logs_unordered());
        assert_eq!(c.recovery.delta(), None);
    }

    #[test]
    fn alternative_config_matches_section_5() {
        let c = ProtocolConfig::alternative();
        assert_eq!(c.logging, LoggingPolicy::Checkpointing);
        assert!(c.logging.logs_agreed());
        assert!(c.logging.logs_unordered());
        assert_eq!(c.recovery.delta(), Some(8));
        assert!(matches!(c.batching, BatchingPolicy::EarlyReturn { .. }));
        assert!(c.application_checkpoints);
    }

    #[test]
    fn default_is_basic() {
        assert_eq!(ProtocolConfig::default(), ProtocolConfig::basic());
    }

    #[test]
    fn builder_methods_apply() {
        let c = ProtocolConfig::basic()
            .with_checkpoint_period(SimDuration::from_millis(50))
            .with_delta(3)
            .with_batching(BatchingPolicy::EarlyReturn { max_batch: 10 })
            .with_application_checkpoints(true)
            .with_checkpoint_snapshot_every(0);
        assert_eq!(c.timers.checkpoint_period, SimDuration::from_millis(50));
        assert_eq!(c.recovery.delta(), Some(3));
        assert_eq!(c.batching.max_batch(), 10);
        assert!(c.application_checkpoints);
        assert_eq!(c.checkpoint_snapshot_every, 1, "clamped to at least 1");
    }

    #[test]
    fn both_variants_default_to_a_sequential_round_loop() {
        assert_eq!(ProtocolConfig::basic().pipeline_depth, 1);
        assert_eq!(ProtocolConfig::alternative().pipeline_depth, 1);
        let c = ProtocolConfig::basic().with_pipeline_depth(4);
        assert_eq!(c.pipeline_depth, 4);
        assert_eq!(
            ProtocolConfig::basic().with_pipeline_depth(0).pipeline_depth,
            1,
            "clamped to at least 1"
        );
    }

    #[test]
    fn wait_for_agreed_has_unbounded_batch() {
        assert_eq!(BatchingPolicy::WaitForAgreed.max_batch(), usize::MAX);
    }
}
