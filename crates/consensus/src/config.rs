//! Configuration of the consensus substrate.

use serde::{Deserialize, Serialize};

use abcast_fd::FdConfig;
use abcast_types::SimDuration;

/// Tunable parameters of the consensus substrate.
///
/// The substrate runs in the paper's crash-recovery model only: every
/// acceptor-side state change reaches stable storage before it takes
/// effect.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ConsensusConfig {
    /// Period of the driver tick: retransmissions, leader checks, decision
    /// queries.
    pub retransmit_period: SimDuration,
    /// Configuration of the embedded heartbeat failure detector.
    pub fd: FdConfig,
}

impl Default for ConsensusConfig {
    fn default() -> Self {
        ConsensusConfig {
            retransmit_period: SimDuration::from_millis(40),
            fd: FdConfig::default(),
        }
    }
}

impl ConsensusConfig {
    /// Crash-recovery configuration (the paper's model).
    pub fn crash_recovery() -> Self {
        ConsensusConfig::default()
    }
}
