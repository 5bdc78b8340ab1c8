//! The persistent parked-worker pool behind the fork-join facades.
//!
//! The seed spawned scoped threads on every parallel call; thread creation
//! costs tens of microseconds, which kept small kernels below the parallel
//! threshold. This pool spawns `num_threads() - 1` workers once (lazily, on
//! the first parallel call) and parks them on a condvar between jobs, so a
//! fork-join costs two lock/notify round trips instead of thread spawns.
//!
//! ## Job protocol
//!
//! [`run`] publishes one type-erased job — a `&(dyn Fn(usize) + Sync)`
//! invoked with a distinct worker index — bumps the epoch, and wakes every
//! worker. The submitting thread participates as worker 0 and then blocks
//! until all pool workers have finished the epoch, which is what makes the
//! lifetime erasure sound: the job reference cannot outlive `run`'s borrow
//! because `run` does not return (or unwind) before the last worker is done
//! with it.
//!
//! Closures distribute work among themselves dynamically (the facades use a
//! shared atomic counter or a mutexed chunk iterator), so a worker that
//! arrives late simply finds nothing left to do.
//!
//! ## Nesting and contention
//!
//! Only one job can be in flight. If a parallel region is entered while
//! another is running — from a pool worker (nested parallelism) or from a
//! second application thread — the caller runs its job inline on its own
//! thread instead of waiting, so the pool can never deadlock and outer-level
//! parallelism is never serialized behind an inner region.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock, TryLockError};

thread_local! {
    /// The stable pool-worker index of the current thread (`None` on
    /// threads that are not pool workers). Lets observability layers label
    /// per-worker trace lanes without the pool passing its index around.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The current thread's pool-worker index (`1..num_threads()`), or `None`
/// if this thread is not one of the pool's persistent workers.
pub(crate) fn current_worker() -> Option<usize> {
    WORKER_INDEX.with(Cell::get)
}

/// A type-erased job pointer. Stored as a raw fat pointer so the pool's
/// shared state stays `'static`; validity is guaranteed by the completion
/// barrier in [`run`] (see module docs).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared invocation is safe) and the pool
// only dereferences it between publication and the completion barrier,
// while the submitting thread keeps the referent alive.
unsafe impl Send for Job {}

/// State guarded by the pool mutex.
struct State {
    /// Monotonic job counter; a worker runs a job when it observes an epoch
    /// it has not executed yet.
    epoch: u64,
    /// The published job for the current epoch (`None` while idle).
    job: Option<Job>,
    /// Pool workers that have not yet finished the current epoch.
    pending: usize,
    /// The payload of the first worker invocation that panicked this epoch.
    panic: Option<Box<dyn Any + Send>>,
}

struct Pool {
    /// Serializes submitters; held for the whole fork-join so `try_lock`
    /// failure doubles as the "pool busy" signal.
    submit: Mutex<()>,
    state: Mutex<State>,
    /// Workers park here waiting for a new epoch.
    work_cv: Condvar,
    /// The submitter parks here waiting for `pending == 0`.
    done_cv: Condvar,
    workers: usize,
}

/// The process-wide pool: `None` when `num_threads() <= 1` (serial builds
/// never pay for the threads).
fn pool() -> Option<&'static Pool> {
    static POOL: OnceLock<Option<&'static Pool>> = OnceLock::new();
    *POOL.get_or_init(|| {
        let workers = crate::num_threads().saturating_sub(1);
        if workers == 0 {
            return None;
        }
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            submit: Mutex::new(()),
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                pending: 0,
                panic: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            workers,
        }));
        for idx in 1..=workers {
            std::thread::Builder::new()
                .name(format!("epim-pool-{idx}"))
                .spawn(move || worker_loop(pool, idx))
                .expect("spawning pool worker");
        }
        Some(pool)
    })
}

/// Body of a pool worker: park, run each published epoch exactly once with
/// a stable worker index, repeat forever (workers die with the process).
fn worker_loop(pool: &'static Pool, index: usize) {
    WORKER_INDEX.with(|w| w.set(Some(index)));
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = pool.state.lock().expect("pool state poisoned");
            loop {
                match st.job {
                    Some(job) if st.epoch != seen_epoch => {
                        seen_epoch = st.epoch;
                        break job;
                    }
                    _ => st = pool.work_cv.wait(st).expect("pool state poisoned"),
                }
            }
        };
        // SAFETY: `run` keeps the referent alive until `pending` drops to
        // zero, which happens only after this call returns.
        let f = unsafe { &*job.0 };
        let outcome = catch_unwind(AssertUnwindSafe(|| f(index)));
        let mut st = pool.state.lock().expect("pool state poisoned");
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        st.pending -= 1;
        if st.pending == 0 {
            pool.done_cv.notify_all();
        }
    }
}

/// Runs `f` concurrently on the pool: the calling thread invokes `f(0)` and
/// every pool worker invokes `f(i)` with a distinct `i in 1..num_threads()`.
/// Returns once every invocation has finished.
///
/// `f` is responsible for splitting the work (all facades pull from a shared
/// queue, so the partition adapts to however many threads actually arrive).
/// When the pool is unavailable — single-core machine, or a parallel region
/// is already running — `f(0)` runs inline on the caller and nothing else.
///
/// # Panics
///
/// Propagates a panic if `f` panicked on any thread (after all threads have
/// finished, so borrows stay sound), resuming with that invocation's own
/// payload: the caller's when it panicked, else the first worker's.
pub(crate) fn run(f: &(dyn Fn(usize) + Sync)) {
    let Some(pool) = pool() else {
        f(0);
        return;
    };
    let guard = match pool.submit.try_lock() {
        Ok(g) => g,
        // Busy (nested region or concurrent submitter) or a previous
        // submitter panicked while holding the lock: degrade to inline.
        Err(TryLockError::WouldBlock) | Err(TryLockError::Poisoned(_)) => {
            f(0);
            return;
        }
    };

    // SAFETY: lifetime erasure only — the completion barrier below keeps
    // `f` alive for every dereference (see module docs).
    let job = Job(unsafe {
        std::mem::transmute::<
            *const (dyn Fn(usize) + Sync + '_),
            *const (dyn Fn(usize) + Sync + 'static),
        >(f as *const _)
    });
    {
        let mut st = pool.state.lock().expect("pool state poisoned");
        st.epoch += 1;
        st.job = Some(job);
        st.pending = pool.workers;
        st.panic = None;
        pool.work_cv.notify_all();
    }

    // Participate as worker 0. A panic here must not skip the completion
    // barrier below — workers may still be running off our stack.
    let local = catch_unwind(AssertUnwindSafe(|| f(0)));

    let worker_panic = {
        let mut st = pool.state.lock().expect("pool state poisoned");
        while st.pending > 0 {
            st = pool.done_cv.wait(st).expect("pool state poisoned");
        }
        st.job = None;
        st.panic.take()
    };
    drop(guard);

    if let Some(payload) = local.err().or(worker_panic) {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    // These tests share one global pool with every other concurrently
    // running test in this binary (the harness runs tests in parallel on
    // multi-core machines). A busy pool legitimately degrades `run` to a
    // single inline invocation, so per-run assertions must accept
    // `1..=num_threads()` participants; full participation is asserted by
    // retrying until an uncontended window is observed. Retries sleep
    // rather than yield, so they cannot all land inside one hold of the
    // pool by another test, and give up only after `RETRY_FOR`.
    const RETRY_FOR: Duration = Duration::from_secs(10);

    #[test]
    fn all_threads_participate_and_rejoin() {
        let threads = crate::num_threads();
        let mut saw_full_participation = false;
        let deadline = Instant::now() + RETRY_FOR;
        while Instant::now() < deadline {
            let seen = Mutex::new(Vec::new());
            run(&|idx| {
                seen.lock().unwrap().push(idx);
            });
            let mut ids = seen.into_inner().unwrap();
            ids.sort_unstable();
            // Invariants that hold even under contention: the caller
            // always participates as worker 0, indices are distinct and
            // in range, and the barrier returned only after all of them.
            assert!(
                !ids.is_empty() && ids[0] == 0,
                "caller must run as worker 0"
            );
            assert!(ids.len() <= threads);
            let unique = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), unique, "duplicate worker index");
            if unique == threads {
                saw_full_participation = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            saw_full_participation,
            "pool never ran a full fork-join in {RETRY_FOR:?}"
        );
    }

    #[test]
    fn nested_runs_degrade_inline() {
        let threads = crate::num_threads();
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        run(&|_| {
            outer.fetch_add(1, Ordering::Relaxed);
            run(&|_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        let outer = outer.load(Ordering::Relaxed);
        let inner = inner.load(Ordering::Relaxed);
        assert!((1..=threads).contains(&outer));
        // Each outer invocation's nested region ran (at minimum inline) and
        // cannot have deadlocked waiting for the already-busy pool.
        assert!(inner >= outer);
        assert!(inner <= threads * threads);
    }

    #[test]
    fn panics_propagate_after_join() {
        let result = std::panic::catch_unwind(|| {
            run(&|_| panic!("boom"));
        });
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        let count = AtomicUsize::new(0);
        run(&|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        let count = count.load(Ordering::Relaxed);
        assert!((1..=crate::num_threads()).contains(&count));
    }

    #[test]
    fn a_worker_panic_resumes_with_its_own_payload() {
        if crate::num_threads() < 2 {
            return; // no pool worker to panic on
        }
        // Only pool workers panic; a busy pool runs the job inline as
        // worker 0 alone, so retry until a worker took part.
        let deadline = Instant::now() + RETRY_FOR;
        while Instant::now() < deadline {
            let result = std::panic::catch_unwind(|| {
                run(&|idx| {
                    if idx != 0 {
                        panic!("sub-batch on worker {idx} failed");
                    }
                })
            });
            if let Err(payload) = result {
                let message = payload
                    .downcast_ref::<String>()
                    .expect("the worker's formatted message");
                assert!(
                    message.starts_with("sub-batch on worker ") && message.ends_with(" failed"),
                    "{message}"
                );
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("no pool worker joined a region in {RETRY_FOR:?}");
    }
}
