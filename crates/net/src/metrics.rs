//! Transport-level metrics.
//!
//! [`NetworkMetrics`] counts what the simulator's fair-lossy link does with
//! each message (transmissions, deliveries, losses, duplications);
//! [`TcpMetrics`] counts what the socket runtime's connections do with each
//! frame.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Thread-safe transport counters; clones share the same counters.
#[derive(Clone, Debug, Default)]
pub struct NetworkMetrics {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    lost_receiver_down: AtomicU64,
}

/// Point-in-time copy of the transport counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkSnapshot {
    /// Transmissions requested by `send`/`multisend` (one per destination).
    pub sent: u64,
    /// Copies actually handed to an up process.
    pub delivered: u64,
    /// Transmissions dropped by the lossy link.
    pub dropped: u64,
    /// Extra copies created by link duplication.
    pub duplicated: u64,
    /// Copies that arrived while the destination process was down and were
    /// therefore lost (Section 2.1).
    pub lost_receiver_down: u64,
}

impl NetworkSnapshot {
    /// Counter-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &NetworkSnapshot) -> NetworkSnapshot {
        NetworkSnapshot {
            sent: self.sent.saturating_sub(earlier.sent),
            delivered: self.delivered.saturating_sub(earlier.delivered),
            dropped: self.dropped.saturating_sub(earlier.dropped),
            duplicated: self.duplicated.saturating_sub(earlier.duplicated),
            lost_receiver_down: self
                .lost_receiver_down
                .saturating_sub(earlier.lost_receiver_down),
        }
    }
}

impl NetworkMetrics {
    /// Creates fresh counters, all zero.
    pub fn new() -> Self {
        NetworkMetrics::default()
    }

    /// Records one requested transmission.
    pub fn record_sent(&self) {
        self.inner.sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one successful delivery to an up process.
    pub fn record_delivered(&self) {
        self.inner.delivered.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one transmission dropped by the link.
    pub fn record_dropped(&self) {
        self.inner.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one duplicated copy created by the link.
    pub fn record_duplicated(&self) {
        self.inner.duplicated.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one copy lost because the destination was down.
    pub fn record_lost_receiver_down(&self) {
        self.inner.lost_receiver_down.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the counters.
    pub fn snapshot(&self) -> NetworkSnapshot {
        NetworkSnapshot {
            sent: self.inner.sent.load(Ordering::Relaxed),
            delivered: self.inner.delivered.load(Ordering::Relaxed),
            dropped: self.inner.dropped.load(Ordering::Relaxed),
            duplicated: self.inner.duplicated.load(Ordering::Relaxed),
            lost_receiver_down: self.inner.lost_receiver_down.load(Ordering::Relaxed),
        }
    }

    /// Total deliveries so far.
    pub fn delivered(&self) -> u64 {
        self.inner.delivered.load(Ordering::Relaxed)
    }
}

/// Socket-transport counters shared by the poller and worker threads of a
/// [`crate::tcp::TcpRuntime`] deployment; clones share the same counters.
///
/// The TCP transport maps stream failures onto the paper's fair-lossy
/// model: a frame that cannot be handed to a live connection is *lost*
/// ([`TcpSnapshot::frames_dropped`]), and a frame torn by a connection
/// drop is discarded with the per-connection reassembly buffer
/// ([`TcpSnapshot::torn_frames`]) — never replayed, never resynchronized
/// mid-frame.
#[derive(Clone, Debug, Default)]
pub struct TcpMetrics {
    inner: Arc<TcpCounters>,
}

#[derive(Debug, Default)]
struct TcpCounters {
    connections_established: AtomicU64,
    connections_accepted: AtomicU64,
    reconnect_attempts: AtomicU64,
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_received: AtomicU64,
    frames_dropped: AtomicU64,
    torn_frames: AtomicU64,
    stream_errors: AtomicU64,
}

/// Point-in-time copy of the socket-transport counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcpSnapshot {
    /// Outbound connections successfully established (incl. reconnects).
    pub connections_established: u64,
    /// Inbound connections accepted and handshaked.
    pub connections_accepted: u64,
    /// Failed dial attempts (each backs off exponentially before retrying).
    pub reconnect_attempts: u64,
    /// Frames fully written to a connected stream.
    pub frames_sent: u64,
    /// Stream bytes written (prefixes included).
    pub bytes_sent: u64,
    /// Complete frames reassembled from the stream and delivered upward.
    pub frames_received: u64,
    /// Stream bytes read (prefixes included).
    pub bytes_received: u64,
    /// Frames lost because no live connection could carry them (dropped
    /// while dialing, or torn by a write failure) — fair-lossy loss.
    pub frames_dropped: u64,
    /// Partial frames discarded when a dying connection's reassembly
    /// buffer was reset.
    pub torn_frames: u64,
    /// Connections dropped for unrecoverable stream corruption (oversized
    /// length prefix).
    pub stream_errors: u64,
}

impl TcpSnapshot {
    /// Counter-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &TcpSnapshot) -> TcpSnapshot {
        TcpSnapshot {
            connections_established: self
                .connections_established
                .saturating_sub(earlier.connections_established),
            connections_accepted: self
                .connections_accepted
                .saturating_sub(earlier.connections_accepted),
            reconnect_attempts: self.reconnect_attempts.saturating_sub(earlier.reconnect_attempts),
            frames_sent: self.frames_sent.saturating_sub(earlier.frames_sent),
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            frames_received: self.frames_received.saturating_sub(earlier.frames_received),
            bytes_received: self.bytes_received.saturating_sub(earlier.bytes_received),
            frames_dropped: self.frames_dropped.saturating_sub(earlier.frames_dropped),
            torn_frames: self.torn_frames.saturating_sub(earlier.torn_frames),
            stream_errors: self.stream_errors.saturating_sub(earlier.stream_errors),
        }
    }
}

impl TcpMetrics {
    /// Creates fresh counters, all zero.
    pub fn new() -> Self {
        TcpMetrics::default()
    }

    /// Records one successfully established outbound connection.
    pub fn record_connection_established(&self) {
        self.inner.connections_established.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one accepted (and handshaked) inbound connection.
    pub fn record_connection_accepted(&self) {
        self.inner.connections_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one failed dial attempt.
    pub fn record_reconnect_attempt(&self) {
        self.inner.reconnect_attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one frame (of `stream_bytes` on-stream bytes) fully written.
    pub fn record_frame_sent(&self, stream_bytes: usize) {
        self.inner.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_sent.fetch_add(stream_bytes as u64, Ordering::Relaxed);
    }

    /// Records one complete frame reassembled from the stream.
    pub fn record_frame_received(&self) {
        self.inner.frames_received.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` stream bytes read.
    pub fn record_bytes_received(&self, n: usize) {
        self.inner.bytes_received.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records one frame lost to the fair-lossy stream (no live
    /// connection, or the write tearing mid-frame).
    pub fn record_frame_dropped(&self) {
        self.inner.frames_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one partial frame discarded with a dying connection.
    pub fn record_torn_frame(&self) {
        self.inner.torn_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection dropped for stream corruption.
    pub fn record_stream_error(&self) {
        self.inner.stream_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the counters.
    pub fn snapshot(&self) -> TcpSnapshot {
        TcpSnapshot {
            connections_established: self.inner.connections_established.load(Ordering::Relaxed),
            connections_accepted: self.inner.connections_accepted.load(Ordering::Relaxed),
            reconnect_attempts: self.inner.reconnect_attempts.load(Ordering::Relaxed),
            frames_sent: self.inner.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.inner.bytes_sent.load(Ordering::Relaxed),
            frames_received: self.inner.frames_received.load(Ordering::Relaxed),
            bytes_received: self.inner.bytes_received.load(Ordering::Relaxed),
            frames_dropped: self.inner.frames_dropped.load(Ordering::Relaxed),
            torn_frames: self.inner.torn_frames.load(Ordering::Relaxed),
            stream_errors: self.inner.stream_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_counters_accumulate_and_difference() {
        let m = TcpMetrics::new();
        m.record_connection_established();
        m.record_connection_accepted();
        m.record_frame_sent(20);
        m.record_frame_sent(30);
        m.record_frame_received();
        m.record_bytes_received(48);
        let before = m.snapshot();
        m.record_reconnect_attempt();
        m.record_frame_dropped();
        m.record_torn_frame();
        m.record_stream_error();
        let s = m.snapshot();
        assert_eq!(s.connections_established, 1);
        assert_eq!(s.connections_accepted, 1);
        assert_eq!(s.frames_sent, 2);
        assert_eq!(s.bytes_sent, 50);
        assert_eq!(s.frames_received, 1);
        assert_eq!(s.bytes_received, 48);
        assert_eq!(s.frames_dropped, 1);
        assert_eq!(s.torn_frames, 1);
        assert_eq!(s.stream_errors, 1);
        let delta = s.since(&before);
        assert_eq!(delta.frames_sent, 0);
        assert_eq!(delta.reconnect_attempts, 1);
        assert_eq!(delta.frames_dropped, 1);
        // Clones share counters.
        let m2 = m.clone();
        m2.record_frame_dropped();
        assert_eq!(m.snapshot().frames_dropped, 2);
    }

    #[test]
    fn counters_accumulate() {
        let m = NetworkMetrics::new();
        m.record_sent();
        m.record_sent();
        m.record_delivered();
        m.record_dropped();
        m.record_duplicated();
        m.record_lost_receiver_down();
        let s = m.snapshot();
        assert_eq!(s.sent, 2);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.duplicated, 1);
        assert_eq!(s.lost_receiver_down, 1);
        assert_eq!(m.delivered(), 1);
    }

    #[test]
    fn clones_share_counters() {
        let m = NetworkMetrics::new();
        let m2 = m.clone();
        m.record_sent();
        m2.record_sent();
        assert_eq!(m.snapshot().sent, 2);
    }

    #[test]
    fn since_differences_counters() {
        let m = NetworkMetrics::new();
        m.record_sent();
        let before = m.snapshot();
        m.record_sent();
        m.record_delivered();
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.sent, 1);
        assert_eq!(delta.delivered, 1);
        assert_eq!(delta.dropped, 0);
    }
}
