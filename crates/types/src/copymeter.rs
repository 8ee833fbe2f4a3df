//! Payload-copy accounting for the zero-copy codec path.
//!
//! A *payload copy* is a memcpy of an application payload's bytes across a
//! layer boundary: materializing a decoded wire frame's payload as an owned
//! buffer, coalescing a frame that straddles two socket reads, flattening a
//! payload into a contiguous encoder buffer, and so on.  Payloads otherwise
//! travel as reference-counted `Bytes` views; this module counts every copy
//! that still happens.  The repository benchmark reports the count as
//! `types.payload_copies_per_msg`, and `tests/protocol_costs.rs` bounds it.
//!
//! Counters are **thread-local**: a deterministic simulation runs on one
//! thread, so a measurement window opened around a run observes exactly that
//! run's copies even when the test harness executes other tests in parallel.

use std::cell::Cell;

thread_local! {
    static COPIES: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A snapshot of the copy counters of the current thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CopySnapshot {
    /// Number of payload memcpys performed.
    pub payload_copies: u64,
    /// Total bytes those memcpys moved.
    pub bytes_copied: u64,
}

impl CopySnapshot {
    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &CopySnapshot) -> CopySnapshot {
        CopySnapshot {
            payload_copies: self.payload_copies - earlier.payload_copies,
            bytes_copied: self.bytes_copied - earlier.bytes_copied,
        }
    }
}

/// Records one payload memcpy of `len` bytes.
pub fn record_copy(len: usize) {
    COPIES.with(|c| c.set(c.get() + 1));
    BYTES.with(|b| b.set(b.get() + len as u64));
}

/// Reads the current thread's counters.
pub fn snapshot() -> CopySnapshot {
    CopySnapshot {
        payload_copies: COPIES.with(Cell::get),
        bytes_copied: BYTES.with(Cell::get),
    }
}

/// Resets the current thread's counters.
pub fn reset() {
    COPIES.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_thread_local() {
        reset();
        let before = snapshot();
        record_copy(10);
        record_copy(6);
        let delta = snapshot().since(&before);
        assert_eq!(delta.payload_copies, 2);
        assert_eq!(delta.bytes_copied, 16);

        let other = std::thread::spawn(snapshot).join().unwrap();
        assert_eq!(other.payload_copies, 0, "fresh thread, fresh counters");
        reset();
        assert_eq!(snapshot(), CopySnapshot::default());
    }
}
