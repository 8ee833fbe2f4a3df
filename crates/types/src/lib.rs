//! Common vocabulary types for the crash-recovery atomic broadcast stack.
//!
//! This crate defines the identities, time representation, configuration and
//! binary codec shared by every other crate in the workspace.  It corresponds
//! to the system model of Section 2 of *Rodrigues & Raynal, "Atomic Broadcast
//! in Asynchronous Crash-Recovery Distributed Systems"* (ICDCS 2000):
//!
//! * a finite set of processes ([`ProcessId`], [`ProcessSet`]) that can crash
//!   and recover,
//! * application messages with globally unique identities composed of a
//!   *(local sequence number, sender identity)* pair ([`MsgId`],
//!   [`AppMessage`]),
//! * asynchronous rounds of the ordering protocol ([`Round`]) and ballots of
//!   the underlying consensus ([`Ballot`]),
//! * virtual/real time ([`SimTime`], [`SimDuration`]),
//! * the checkpoint vector clock of Section 5.2 ([`VectorClock`]),
//! * a small, dependency-free binary codec ([`codec`]) used both for stable
//!   storage records and for wire framing.
//!
//! No protocol logic lives here; see `abcast-core` for the atomic broadcast
//! protocol itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod config;
pub mod copymeter;
pub mod error;
pub mod id;
pub mod message;
pub mod round;
pub mod time;
pub mod vector_clock;

pub use codec::{Decode, DecodeError, Decoder, Encode, Encoder};
pub use copymeter::CopySnapshot;
pub use config::{BatchingPolicy, LoggingPolicy, ProtocolConfig, RecoveryPolicy, TimerConfig};
pub use error::{AbcastError, Result};
pub use id::{ProcessId, ProcessSet};
pub use message::{AppMessage, MsgId, Payload};
pub use round::{Ballot, InstanceId, Round};
pub use time::{SimDuration, SimTime};
pub use vector_clock::VectorClock;
