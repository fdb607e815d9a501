//! Helpers the exemplars' message-passing tests share.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Run `f` on its own thread and fail after 10 s instead of hanging, so
/// a lost message or a stuck wait fails the test.
pub fn watchdog<R: Send + 'static>(what: String, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(r) => r,
        Err(RecvTimeoutError::Timeout) => panic!("watchdog: {what} still running after 10 s"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

/// A thread that spins until dropped, so the rank threads beside it are
/// preempted at arbitrary points.
pub struct Spinner {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Spinner {
    /// Start spinning.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        Spinner {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Spinner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
