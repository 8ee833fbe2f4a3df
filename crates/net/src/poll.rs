//! Minimal readiness layer for the socket transport: `epoll` + `eventfd`.
//!
//! The event-loop transport ([`crate::tcp::TcpRuntime`]) runs every
//! listener, inbound and outbound socket of a deployment on **one poller
//! thread**.  That thread needs exactly three kernel facilities:
//!
//! * [`Epoll`] — a readiness queue (`epoll_create1`/`epoll_ctl`/
//!   `epoll_wait`) mapping nonblocking sockets to opaque `u64` tokens;
//! * [`WakeFd`] — an `eventfd` the worker threads write to so a frame
//!   enqueued from outside interrupts a parked `epoll_wait` immediately
//!   (no sleep-polling, no timeout churn);
//! * [`connect_nonblocking`] — a `SOCK_NONBLOCK` dial whose completion is
//!   *reported by the poller* (writability + `SO_ERROR`), so a slow or
//!   dead destination can never stall the loop the way a blocking
//!   `TcpStream::connect` would.
//!
//! The workspace is offline, so no `mio`/`libc` crates: the bindings are a
//! hand-rolled `extern "C"` surface confined to the private `sys` module —
//! the only `unsafe` in the crate, each wrapper a direct syscall
//! translation with errors routed through `io::Error::last_os_error`.
//! Everything above `sys` is safe code.
//!
//! [`TimerWheel`] rounds the module off: the poller's time source for
//! reconnect backoff and artificial link delay
//! ([`crate::tcp::LinkPolicy`]), a plain ordered map from deadline to
//! timer payload that converts into the `epoll_wait` timeout — replacing
//! the per-connection backoff-sleeping threads of the thread-per-
//! connection transport.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Raw file descriptor alias (the workspace has no `libc`).
pub type RawFd = i32;

/// The `extern "C"` syscall surface.  Every function here is a thin
/// translation of one syscall; nothing retains pointers beyond the call.
#[allow(unsafe_code)] // lint: FFI boundary — raw epoll/eventfd/socket syscalls, the only unsafe in the crate, each wrapper checks the return value and surfaces errno
mod sys {
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::FromRawFd;

    use super::RawFd;

    // Linux x86-64 packs `struct epoll_event` (12 bytes); other targets
    // use natural layout.  Matches the kernel UAPI header.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    pub(super) struct SockAddrIn {
        pub family: u16,
        pub port_be: u16,
        pub addr_be: u32,
        pub zero: [u8; 8],
    }

    pub(super) const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub(super) const EPOLL_CTL_ADD: i32 = 1;
    pub(super) const EPOLL_CTL_DEL: i32 = 2;
    pub(super) const EPOLL_CTL_MOD: i32 = 3;
    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;
    pub(super) const EFD_CLOEXEC: i32 = 0o2000000;
    pub(super) const EFD_NONBLOCK: i32 = 0o4000;
    pub(super) const AF_INET: i32 = 2;
    pub(super) const SOCK_STREAM: i32 = 1;
    pub(super) const SOCK_NONBLOCK: i32 = 0o4000;
    pub(super) const SOCK_CLOEXEC: i32 = 0o2000000;
    pub(super) const SOL_SOCKET: i32 = 1;
    pub(super) const SO_ERROR: i32 = 4;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
        fn getsockopt(fd: i32, level: i32, name: i32, value: *mut i32, len: *mut u32) -> i32;
        #[cfg(test)]
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }

    #[cfg(test)]
    const SO_LINGER: i32 = 13;

    #[cfg(test)]
    #[repr(C)]
    struct Linger {
        onoff: i32,
        linger: i32,
    }

    /// `SO_LINGER` on with a zero timeout: `close` then sends a reset.
    #[cfg(test)]
    pub(super) fn linger_zero(fd: RawFd) -> io::Result<()> {
        let value = Linger { onoff: 1, linger: 0 };
        let len = std::mem::size_of::<Linger>() as u32;
        // SAFETY: `value` is a live `struct linger` of `len` bytes, read by
        // the kernel only for the duration of the call.
        check(unsafe { setsockopt(fd, SOL_SOCKET, SO_LINGER, &value, len) }).map(|_| ())
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub(super) fn epoll_create() -> io::Result<RawFd> {
        check(unsafe { epoll_create1(EPOLL_CLOEXEC) })
    }

    pub(super) fn epoll_control(
        epfd: RawFd,
        op: i32,
        fd: RawFd,
        events: u32,
        token: u64,
    ) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        check(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
    }

    pub(super) fn epoll_wait_events(
        epfd: RawFd,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        let n = check(unsafe {
            epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
        })?;
        Ok(n as usize)
    }

    pub(super) fn eventfd_create() -> io::Result<RawFd> {
        check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })
    }

    pub(super) fn close_fd(fd: RawFd) {
        let _ = unsafe { close(fd) };
    }

    pub(super) fn read_u64(fd: RawFd) -> io::Result<u64> {
        let mut buf = [0u8; 8];
        let n = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(u64::from_ne_bytes(buf))
        }
    }

    pub(super) fn write_u64(fd: RawFd, value: u64) -> io::Result<()> {
        let buf = value.to_ne_bytes();
        let n = unsafe { write(fd, buf.as_ptr(), buf.len()) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    pub(super) fn socket_nonblocking_v4() -> io::Result<RawFd> {
        check(unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })
    }

    pub(super) fn connect_v4(fd: RawFd, addr: &SockAddrIn) -> io::Result<()> {
        check(unsafe { connect(fd, addr, std::mem::size_of::<SockAddrIn>() as u32) }).map(|_| ())
    }

    pub(super) fn socket_error(fd: RawFd) -> io::Result<i32> {
        let mut value: i32 = 0;
        let mut len = std::mem::size_of::<i32>() as u32;
        check(unsafe { getsockopt(fd, SOL_SOCKET, SO_ERROR, &mut value, &mut len) })?;
        Ok(value)
    }

    /// Wraps an fd produced by [`socket_nonblocking_v4`] into a
    /// `TcpStream`, transferring ownership (the stream's `Drop` closes it).
    pub(super) fn stream_from_fd(fd: RawFd) -> TcpStream {
        unsafe { TcpStream::from_raw_fd(fd) }
    }
}

/// Which readiness classes a registration subscribes to.  Level-triggered:
/// writability must be subscribed only while bytes are queued, or the loop
/// would spin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Readability only (inbound streams, listeners, the wake fd).
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Writability only (a dial in flight).
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    /// Both directions (an outbound stream with queued bytes: writable to
    /// drain the queue, readable to observe the peer closing).
    pub const BOTH: Interest = Interest { readable: true, writable: true };

    fn mask(self) -> u32 {
        let mut mask = sys::EPOLLRDHUP;
        if self.readable {
            mask |= sys::EPOLLIN;
        }
        if self.writable {
            mask |= sys::EPOLLOUT;
        }
        mask
    }
}

/// One readiness notification out of [`Epoll::wait`].
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd is readable (or a peer closed: `EPOLLRDHUP` maps here too,
    /// surfacing as a 0-byte read).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The fd is in an error or hangup state; the owner should read the
    /// socket error and tear the connection down.
    pub failed: bool,
}

/// Reusable buffer of kernel events for [`Epoll::wait`].
pub struct Events {
    buf: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer receiving at most `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// The events delivered by the most recent [`Epoll::wait`].
    pub fn iter(&self) -> impl Iterator<Item = PollEvent> + '_ {
        self.buf[..self.len].iter().map(|ev| {
            // A packed struct field cannot be borrowed; copy it out.
            let events = ev.events;
            PollEvent {
                token: ev.data,
                readable: events & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                writable: events & sys::EPOLLOUT != 0,
                failed: events & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            }
        })
    }

    /// Number of events delivered by the most recent wait.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the most recent wait timed out with no events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A readiness queue over nonblocking fds: the one blocking point of the
/// poller thread.
///
/// Registrations are keyed by caller-chosen `u64` tokens.  One epoll
/// subtlety matters to the transport: the kernel tracks *file
/// descriptions*, so when a stream has been duplicated (the fault-
/// injection registry holds `try_clone`d handles), dropping the poller's
/// fd does **not** remove the registration — every teardown path must
/// [`Epoll::deregister`] explicitly before closing.
#[derive(Debug)]
pub struct Epoll {
    epfd: RawFd,
}

impl Epoll {
    /// Creates the readiness queue.
    pub fn new() -> io::Result<Epoll> {
        Ok(Epoll { epfd: sys::epoll_create()? })
    }

    /// Registers `fd` under `token` with the given interest.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_ADD, fd, interest.mask(), token)
    }

    /// Changes the interest set of an already-registered `fd`.
    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_MOD, fd, interest.mask(), token)
    }

    /// Removes `fd` from the queue.  Must run before the fd is closed
    /// whenever a duplicate of the fd exists (see the type docs).
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Parks until at least one registered fd is ready or `timeout`
    /// expires (`None` parks indefinitely); fills `events`.
    ///
    /// Spurious zero-event returns (signal interruption) are surfaced as
    /// an empty `events` set, not an error.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms = match timeout {
            // Round up so a 100 µs timer does not busy-spin at timeout 0.
            Some(t) => i32::try_from(t.as_millis().min(i32::MAX as u128)).unwrap_or(i32::MAX).max(
                if t.is_zero() { 0 } else { 1 },
            ),
            None => -1,
        };
        events.len = 0;
        match sys::epoll_wait_events(self.epfd, &mut events.buf, timeout_ms) {
            Ok(n) => {
                events.len = n;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

/// An `eventfd` used to interrupt a parked [`Epoll::wait`] from another
/// thread.  Register its [`WakeFd::raw_fd`] readable under a reserved
/// token; any thread then calls [`WakeFd::wake`], and the poller calls
/// [`WakeFd::drain`] when the token fires.
#[derive(Debug)]
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    /// Creates the wake fd (nonblocking, close-on-exec).
    pub fn new() -> io::Result<WakeFd> {
        Ok(WakeFd { fd: sys::eventfd_create()? })
    }

    /// The fd to register with the poller.
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Makes the fd readable, waking a parked poller.  Idempotent between
    /// drains (the eventfd counter accumulates).
    pub fn wake(&self) {
        let _ = sys::write_u64(self.fd, 1);
    }

    /// Consumes pending wakeups so the level-triggered fd goes quiet.
    pub fn drain(&self) {
        while sys::read_u64(self.fd).is_ok() {}
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        sys::close_fd(self.fd);
    }
}

/// Starts a nonblocking IPv4 dial to `addr` and returns the in-flight
/// stream.  Completion is observed through the poller: the socket turns
/// writable, and [`take_connect_error`] reports whether the dial landed.
///
/// Only IPv4 destinations are supported (the transport binds loopback
/// `127.0.0.1` listeners); an IPv6 address is an input error.
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    let SocketAddr::V4(v4) = addr else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "nonblocking dial supports IPv4 only",
        ));
    };
    let fd = sys::socket_nonblocking_v4()?;
    let sockaddr = sys::SockAddrIn {
        family: sys::AF_INET as u16,
        port_be: v4.port().to_be(),
        addr_be: u32::from(*v4.ip()).to_be(),
        zero: [0u8; 8],
    };
    // Ownership moves into the TcpStream immediately, so every early
    // return below closes the fd through the stream's Drop.
    let stream = sys::stream_from_fd(fd);
    match sys::connect_v4(fd, &sockaddr) {
        Ok(()) => Ok(stream),
        // EINPROGRESS (and the occasional EAGAIN on loopback): the dial
        // continues in the background; the poller reports the outcome.
        Err(e) if e.raw_os_error() == Some(115) || e.kind() == io::ErrorKind::WouldBlock => {
            Ok(stream)
        }
        Err(e) => Err(e),
    }
}

/// Reads and clears the pending socket error of an in-flight dial
/// (`SO_ERROR`).  `Ok(None)` means the connection is established.
pub fn take_connect_error(fd: RawFd) -> io::Result<Option<io::Error>> {
    let raw = sys::socket_error(fd)?;
    if raw == 0 {
        Ok(None)
    } else {
        Ok(Some(io::Error::from_raw_os_error(raw)))
    }
}

/// Makes dropping `stream` reset the connection (`SO_LINGER` 0) rather
/// than close it cleanly: the peer's next read fails with `ECONNRESET`.
#[cfg(test)]
pub(crate) fn reset_on_close(stream: &TcpStream) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    sys::linger_zero(stream.as_raw_fd())
}

/// Deadline-ordered timer store for the poller thread: reconnect backoff
/// and [`crate::tcp::LinkPolicy`] delays live here instead of on sleeping
/// threads.
///
/// Same-instant timers fire in insertion order (a monotonic sequence
/// number breaks ties), so a burst of link-delayed frames keeps its send
/// order.
#[derive(Debug)]
pub struct TimerWheel<T> {
    entries: BTreeMap<(Instant, u64), T>,
    seq: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel.
    pub fn new() -> TimerWheel<T> {
        TimerWheel { entries: BTreeMap::new(), seq: 0 }
    }

    /// Schedules `value` to fire at `at`.
    pub fn insert(&mut self, at: Instant, value: T) {
        let seq = self.seq;
        self.seq += 1;
        self.entries.insert((at, seq), value);
    }

    /// The earliest deadline, if any timer is pending.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.entries.keys().next().map(|(at, _)| *at)
    }

    /// The `epoll_wait` timeout that honours the earliest deadline:
    /// `None` (park indefinitely) with no timers, else time-to-deadline.
    pub fn timeout_until_next(&self, now: Instant) -> Option<Duration> {
        self.next_deadline().map(|at| at.saturating_duration_since(now))
    }

    /// Pops the next timer due at or before `now`, earliest first.
    pub fn pop_due(&mut self, now: Instant) -> Option<T> {
        let key = *self.entries.keys().next()?;
        if key.0 > now {
            return None;
        }
        self.entries.remove(&key)
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn eventfd_wakes_a_parked_wait_and_drains_quiet() {
        let epoll = Epoll::new().expect("epoll_create1");
        let wake = WakeFd::new().expect("eventfd");
        epoll.register(wake.raw_fd(), 7, Interest::READ).expect("register");
        let mut events = Events::with_capacity(4);

        // Nothing pending: a short wait times out empty.
        epoll.wait(&mut events, Some(Duration::from_millis(1))).expect("wait");
        assert!(events.is_empty());

        wake.wake();
        wake.wake();
        epoll.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        let fired: Vec<PollEvent> = events.iter().collect();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].token, 7);
        assert!(fired[0].readable);

        // Drained, the level-triggered fd goes quiet again.
        wake.drain();
        epoll.wait(&mut events, Some(Duration::from_millis(1))).expect("wait");
        assert!(events.is_empty());
    }

    #[test]
    fn nonblocking_dial_completes_writable_with_no_socket_error() {
        use std::os::fd::AsRawFd;
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");

        let epoll = Epoll::new().expect("epoll");
        let stream = connect_nonblocking(&addr).expect("dial starts");
        epoll
            .register(stream.as_raw_fd(), 1, Interest::WRITE)
            .expect("register");
        let mut events = Events::with_capacity(4);
        epoll.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        let fired: Vec<PollEvent> = events.iter().collect();
        assert!(!fired.is_empty(), "dial must complete");
        assert!(fired[0].writable);
        assert!(take_connect_error(stream.as_raw_fd()).expect("SO_ERROR").is_none());
        let (_accepted, peer) = listener.accept().expect("accept");
        assert_eq!(peer, stream.local_addr().expect("local addr"));
    }

    #[test]
    fn dial_to_a_dead_port_reports_the_error_through_so_error() {
        use std::os::fd::AsRawFd;
        // Bind-then-drop: the port was just free, so the dial is refused.
        let dead = {
            let l = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
            l.local_addr().expect("addr")
        };
        let epoll = Epoll::new().expect("epoll");
        let Ok(stream) = connect_nonblocking(&dead) else {
            return; // refused synchronously: equally correct
        };
        epoll
            .register(stream.as_raw_fd(), 1, Interest::WRITE)
            .expect("register");
        let mut events = Events::with_capacity(4);
        epoll.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        let fired: Vec<PollEvent> = events.iter().collect();
        assert!(!fired.is_empty(), "a refused dial still reports readiness");
        assert!(
            take_connect_error(stream.as_raw_fd()).expect("SO_ERROR").is_some(),
            "refused dial must carry a socket error"
        );
    }

    #[test]
    fn timer_wheel_fires_in_deadline_then_insertion_order() {
        let mut wheel: TimerWheel<&'static str> = TimerWheel::new();
        let t0 = Instant::now();
        assert!(wheel.is_empty());
        assert_eq!(wheel.timeout_until_next(t0), None);

        wheel.insert(t0 + Duration::from_millis(30), "late");
        wheel.insert(t0 + Duration::from_millis(10), "early-a");
        wheel.insert(t0 + Duration::from_millis(10), "early-b");
        assert_eq!(wheel.len(), 3);
        assert_eq!(wheel.next_deadline(), Some(t0 + Duration::from_millis(10)));

        // Nothing due yet.
        assert_eq!(wheel.pop_due(t0), None);
        // At +10ms both early timers fire, in insertion order.
        let at = t0 + Duration::from_millis(10);
        assert_eq!(wheel.pop_due(at), Some("early-a"));
        assert_eq!(wheel.pop_due(at), Some("early-b"));
        assert_eq!(wheel.pop_due(at), None);
        // The late timer converts into the wait timeout.
        assert_eq!(
            wheel.timeout_until_next(at),
            Some(Duration::from_millis(20))
        );
        assert_eq!(wheel.pop_due(t0 + Duration::from_millis(31)), Some("late"));
        assert!(wheel.is_empty());
    }

    /// The reconnect-backoff schedule the transport runs on the wheel:
    /// each failed dial re-arms one timer at double the delay (capped) —
    /// no sleeping thread anywhere.  This pins the doubling arithmetic.
    #[test]
    fn backoff_redial_schedule_doubles_to_the_ceiling_on_the_wheel() {
        let initial = Duration::from_millis(5);
        let max = Duration::from_millis(200);
        let mut wheel: TimerWheel<&'static str> = TimerWheel::new();
        let mut backoff = initial;
        let mut now = Instant::now();
        let mut observed = Vec::new();
        for _ in 0..8 {
            wheel.insert(now + backoff, "redial");
            observed.push(backoff);
            backoff = (backoff * 2).min(max);
            // The poller parks for exactly the wheel's timeout, then the
            // redial fires and (failing again) re-arms.
            let sleep = wheel.timeout_until_next(now).expect("a redial is armed");
            now += sleep;
            assert_eq!(wheel.pop_due(now), Some("redial"));
        }
        assert_eq!(
            observed,
            vec![
                Duration::from_millis(5),
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(40),
                Duration::from_millis(80),
                Duration::from_millis(160),
                Duration::from_millis(200),
                Duration::from_millis(200),
            ]
        );
    }
}
