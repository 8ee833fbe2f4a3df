//! Helpers shared by the workspace integration tests (`mod support;`).

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// How long a test body may run before it counts as stalled: far above a
/// healthy debug-build run, far below a CI job's timeout.
const STALL_BOUND: Duration = Duration::from_secs(30);

/// Runs `body` on its own thread and returns its result, or panics if it
/// has not finished within [`STALL_BOUND`].  A deadlock in the WAL (a lock
/// inversion, a re-acquire) then fails the test that reached it instead
/// of hanging the suite; the stalled thread is left behind.
pub fn bounded<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    let runner = thread::Builder::new()
        .name(thread::current().name().unwrap_or("bounded").to_string())
        .spawn(move || {
            let _ = done_tx.send(body());
        })
        .expect("spawn the test body");
    match done_rx.recv_timeout(STALL_BOUND) {
        Ok(value) => {
            runner.join().expect("the body returned");
            value
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("stalled for {STALL_BOUND:?}: a WAL lock is never released")
        }
        // The body panicked: re-raise its panic here.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().unwrap_err())
        }
    }
}
