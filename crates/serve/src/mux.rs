//! A completion multiplexer over in-flight [`Pending`] handles.
//!
//! A connection's writer thread holds many requests in flight at once.
//! Before `Pending` grew waker integration the only options were one
//! blocked thread per request or a busy-poll loop; [`Mux`] instead polls
//! every in-flight handle as a [`std::future::Future`] with one shared
//! [`Waker`] and parks on a condvar ([`Mux::park`]) until *any* of them
//! completes — the scheduler's delivery path wakes the waker, the waker
//! wakes the thread — or until whoever feeds it new handles fires the
//! same waker ([`Mux::waker`]). One OS thread multiplexes an arbitrary
//! number of in-flight requests with zero spinning.

use epim_runtime::{Inference, Pending, RuntimeError};
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

/// The shared wake target: a flag plus the condvar the mux parks on.
struct WakeFlag {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl Wake for WakeFlag {
    fn wake(self: Arc<Self>) {
        let mut woken = self.woken.lock().unwrap();
        *woken = true;
        self.cv.notify_all();
    }
}

/// Multiplexes completion of many in-flight [`Pending`] handles onto the
/// calling thread.
pub struct Mux {
    inflight: Vec<(u64, Pending)>,
    flag: Arc<WakeFlag>,
    waker: Waker,
}

impl Default for Mux {
    fn default() -> Self {
        Mux::new()
    }
}

impl Mux {
    /// An empty multiplexer.
    pub fn new() -> Self {
        let flag = Arc::new(WakeFlag {
            woken: Mutex::new(false),
            cv: Condvar::new(),
        });
        let waker = Waker::from(Arc::clone(&flag));
        Mux {
            inflight: Vec::new(),
            flag,
            waker,
        }
    }

    /// Adds an in-flight request keyed by its wire id.
    pub fn push(&mut self, id: u64, pending: Pending) {
        self.inflight.push((id, pending));
    }

    /// How many requests are currently in flight.
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Polls every in-flight handle once, removing and returning the
    /// completed ones in submission order. Non-blocking.
    pub fn poll_ready(&mut self) -> Vec<(u64, Result<Inference, RuntimeError>)> {
        let mut cx = Context::from_waker(&self.waker);
        let mut done = Vec::new();
        self.inflight
            .retain_mut(|(id, pending)| match Pin::new(pending).poll(&mut cx) {
                Poll::Ready(result) => {
                    done.push((*id, result));
                    false
                }
                Poll::Pending => true,
            });
        done
    }

    /// A clone of the waker the in-flight handles are polled with:
    /// waking it ends a [`Mux::park`] from another thread, whatever is in
    /// flight — how a producer announces work the mux has not polled yet.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Parks the calling thread until the waker fires — a completion of
    /// a handle polled earlier, or a wake through a [`Mux::waker`] clone —
    /// or `timeout` expires. A wake that fired since the last park ends
    /// this one at once, so nothing that happens between a poll and the
    /// park is slept through.
    pub fn park(&mut self, timeout: Duration) {
        let woken = self.flag.woken.lock().unwrap();
        let (mut woken, _) = self
            .flag
            .cv
            .wait_timeout_while(woken, timeout, |w| !*w)
            .unwrap();
        *woken = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn empty_mux_never_blocks() {
        let mut mux = Mux::new();
        assert!(mux.is_empty());
        assert_eq!(mux.len(), 0);
        assert!(mux.poll_ready().is_empty());
    }

    #[test]
    fn park_ends_on_a_wake_from_another_thread_with_nothing_in_flight() {
        let mut mux = Mux::new();
        // A wake that came first is not lost ...
        mux.waker().wake();
        mux.park(Duration::from_secs(30));
        // ... it is consumed by that park, so the next one waits for a
        // new wake (here from another thread) ...
        let waker = mux.waker();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                waker.wake();
            });
            mux.park(Duration::from_secs(30));
        });
        let parked = t0.elapsed();
        assert!(parked >= Duration::from_millis(20), "woke after {parked:?}");
        assert!(parked < Duration::from_secs(10), "slept through the wake");
        // ... and without one, for the timeout.
        let t0 = Instant::now();
        mux.park(Duration::from_millis(5));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }
}
