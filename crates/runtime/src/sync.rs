//! Poison-recovering lock primitives for the scheduler's shared state.
//!
//! A panicking lock holder poisons a `std::sync::Mutex`; before this
//! module every scheduler lock site said `.lock().expect("… poisoned")`,
//! so one injected (or real) panic inside a critical section cascaded:
//! the next thread touching the same lock panicked too, and a recoverable
//! single-batch failure became a fleet outage. All of the scheduler's
//! critical sections leave their data structurally valid at every await
//! of a panic (counters may undercount the moment of the crash, queues
//! and slots are always consistent), so the right response to poison is
//! to *take the data and keep serving* — the panicking thread itself
//! restarts its own loop, and its batch is answered by the delivery guard.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// Locks `m`, recovering the guard if a previous holder panicked.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] that survives lock poisoning.
pub(crate) fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`] that survives lock poisoning.
pub(crate) fn wait_timeout_recover<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn recovers_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 7, "data survives the poison");
        *lock_recover(&m) = 8;
        assert_eq!(*lock_recover(&m), 8);
    }

    #[test]
    fn condvar_waits_survive_poisoning() {
        let m = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let m2 = Arc::clone(&m);
            let _ = std::thread::spawn(move || {
                let _guard = m2.0.lock().unwrap();
                panic!("poison it");
            })
            .join();
        }
        let waiter = {
            let m2 = Arc::clone(&m);
            std::thread::spawn(move || {
                let mut guard = lock_recover(&m2.0);
                while !*guard {
                    guard = wait_recover(&m2.1, guard);
                }
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        *lock_recover(&m.0) = true;
        m.1.notify_all();
        waiter.join().unwrap();

        let guard = lock_recover(&m.0);
        let (guard, timed_out) = wait_timeout_recover(&m.1, guard, Duration::from_millis(1));
        assert!(timed_out.timed_out());
        assert!(*guard);
    }
}
