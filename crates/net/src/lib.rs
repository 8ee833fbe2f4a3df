//! Transport substrate and process runtime abstractions.
//!
//! Section 3.1 of the paper assumes an unreliable but *fair* transport: the
//! channel may lose or duplicate messages and delay them arbitrarily, but a
//! message sent infinitely often is received infinitely often.  This crate
//! provides:
//!
//! * [`Actor`] / [`ActorContext`] — the event-driven process abstraction
//!   shared by the deterministic simulator (`abcast-sim`) and the socket
//!   runtime, including the crash-recovery contract (volatile state dropped
//!   on crash, `on_start` re-run on recovery);
//! * [`MappedContext`] — composition adapter that lets the atomic broadcast
//!   actor embed consensus and failure-detector components speaking their
//!   own message types;
//! * [`StepContext`] / [`run_step`] — write batching: one durability
//!   barrier per scope, messages held back until the commit (one barrier
//!   per step in the simulator, per drained worker group on sockets);
//! * [`encode_frame`] / [`decode_frame`] / [`FramedActor`] — byte-level
//!   wire framing: length-exact frame encoding, zero-copy frame decoding,
//!   and the adapter that runs any codec-capable actor over `Bytes`
//!   frames;
//! * [`FrameReassembler`] / [`wire_chunks`] — stream framing: length
//!   prefixes for vectored writes, zero-copy reassembly of frames out of
//!   arbitrarily fragmented reads;
//! * [`TcpRuntime`] / [`TcpConfig`] / [`PeerConn`] — the live runtime over
//!   real sockets: group-committing worker threads plus one epoll-backed
//!   poller thread owning every reconnecting TCP connection, with stream
//!   faults mapped back onto the fair-lossy model and [`LinkPolicy`] for
//!   per-pair outbound delay shaping;
//! * [`poll`] — the minimal readiness layer under it: raw
//!   `epoll`/`eventfd` bindings, nonblocking connect, and a timer wheel;
//! * [`LinkConfig`] / [`LinkModel`] — the fair-lossy link model (loss,
//!   duplication, arbitrary delay, partitions);
//! * [`NetworkMetrics`] — transport counters used by the experiments.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod batch;
pub mod frame;
pub mod link;
pub mod metrics;
pub mod poll;
pub mod tcp;
pub mod testkit;

pub use actor::{Actor, ActorContext, ActorFactory, MappedContext, TimerId};
pub use batch::{run_step, run_step_checked, StepContext};
pub use frame::{
    decode_frame, encode_frame, wire_chunks, FrameReassembler, FrameStreamError, FramedActor,
    DEFAULT_MAX_FRAME_LEN, WIRE_PREFIX_LEN,
};
pub use link::{LinkConfig, LinkModel, PlannedDelivery};
pub use metrics::{NetworkMetrics, NetworkSnapshot, TcpMetrics, TcpSnapshot};
pub use tcp::{Activity, LinkPolicy, PeerConn, TcpConfig, TcpRuntime};
