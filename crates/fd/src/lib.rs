//! The failure detector of the asynchronous crash-recovery model.
//!
//! The atomic broadcast transformation of the paper never consults a failure
//! detector — but the Consensus black box it builds on does need one
//! (Section 3.5).  [`HeartbeatFd`] is that detector: heartbeats carrying
//! persistent epoch counters in the style of Aguilera, Chen and Toueg
//! (*Failure Detection and Consensus in the Crash-Recovery Model*, DISC
//! 1998), including the Ω (eventual leader) output the consensus substrate
//! uses to decide who drives ballots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod heartbeat;

pub use heartbeat::{FdConfig, FdMessage, HeartbeatFd, FD_TICK, FD_TIMER_SPAN};
