//! Uniform Consensus for the asynchronous crash-recovery model.
//!
//! The atomic broadcast protocol of the paper uses Consensus as a black box
//! (Section 3): per round `k` it calls `propose(k, value)` and waits for
//! `decided(k, result)`.  This crate provides that black box:
//!
//! * [`ConsensusInstance`] — one ballot-based (Synod-style) single-decree
//!   agreement, with every critical state transition persisted to stable
//!   storage so that Uniform Agreement and Validity survive crashes and
//!   recoveries;
//! * [`MultiConsensus`] — the numbered family of instances behind the
//!   paper's `propose`/`decided` interface, together with the heartbeat/Ω
//!   failure detector that drives ballots (Section 3.5);
//! * [`ConsensusConfig`] — the retransmission tick and the detector's timeouts.
//!   There is one failure model, the paper's: every acceptor-side state
//!   change is logged before it takes effect.
//!
//! Consensus termination requires, as in the paper's references, that a
//! majority of processes are *good* and that the failure detector
//! eventually stabilises; the atomic broadcast transformation built on top
//! is then live ("non-blocking") whatever the bad processes do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod instance;
pub mod message;
pub mod multi;

pub use config::ConsensusConfig;
pub use instance::{ConsensusInstance, ConsensusValue};
pub use message::{ConsensusMsg, InstanceMsg};
pub use multi::{DecisionEvent, MultiConsensus, CONSENSUS_TICK, CONSENSUS_TIMER_SPAN};
