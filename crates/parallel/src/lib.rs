//! # epim-parallel
//!
//! Minimal data-parallel primitives for the EPIM workspace — no external
//! dependencies (rayon is not fetchable in this build environment; these
//! helpers cover the fork-join patterns the kernels need and can be swapped
//! for rayon later without changing call sites much).
//!
//! Since the runtime PR, the helpers run on a **persistent worker pool**
//! (`pool.rs`): `num_threads() - 1` workers are spawned once, park on a
//! condvar between jobs, and are woken for each fork-join region. The seed
//! spawned scoped threads per call, whose creation cost kept small kernels
//! below the parallel threshold; with parked workers a dispatch costs two
//! lock/notify round trips, so much smaller ops can profitably go parallel.
//! The facades below are unchanged from the scoped-thread era — call sites
//! did not have to move.
//!
//! Work is distributed dynamically: workers pull the next chunk from a
//! shared iterator behind a mutex, so uneven chunks still balance. On a
//! single-core machine (or when `EPIM_THREADS=1`) every helper runs the
//! serial path with zero thread overhead — the kernels in `epim-tensor`
//! are designed to be fast serially first, with threads as a multiplier.
//! Nested parallel regions (and concurrent regions from independent
//! application threads, e.g. the `epim-runtime` micro-batcher) are safe:
//! whoever finds the pool busy runs inline.
//!
//! ## Example
//!
//! ```
//! let mut data = vec![0u64; 1024];
//! epim_parallel::for_each_chunk_mut(&mut data, 128, |chunk_idx, chunk| {
//!     for (i, x) in chunk.iter_mut().enumerate() {
//!         *x = (chunk_idx * 128 + i) as u64;
//!     }
//! });
//! assert!(data.iter().enumerate().all(|(i, &x)| x == i as u64));
//! ```

#![deny(missing_docs)]

mod pool;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use.
///
/// `EPIM_THREADS` overrides, clamped to at least 1 so `EPIM_THREADS=0`
/// means "serial" rather than "invalid"; otherwise the machine's available
/// parallelism. Read once and cached — the pool is sized from it.
pub fn num_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("EPIM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// The calling thread's persistent pool-worker index (`1..num_threads()`),
/// or `None` when called from any thread that is not a pool worker — the
/// hook observability layers use to label per-worker trace lanes.
pub fn current_worker() -> Option<usize> {
    pool::current_worker()
}

/// Runs `f(chunk_index, chunk)` over `chunk_len`-sized mutable chunks of
/// `data`, in parallel when worthwhile.
///
/// Chunk indices match `data.chunks_mut(chunk_len)` order. `f` must be
/// `Sync` (shared across workers) and chunks are disjoint, so no locking is
/// needed inside `f`.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    map_chunks_mut(data, chunk_len, |i, c| f(i, c));
}

/// Like [`for_each_chunk_mut`] but collects each chunk's result, in chunk
/// order.
pub fn map_chunks_mut<T, R, F>(data: &mut [T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = num_threads().min(n_chunks.max(1));
    if threads <= 1 {
        return data
            .chunks_mut(chunk_len)
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect();
    }
    let work = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n_chunks));
    pool::run(&|_worker| {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let next = work.lock().expect("worker poisoned the queue").next();
            match next {
                Some((i, chunk)) => local.push((i, f(i, chunk))),
                None => break,
            }
        }
        if !local.is_empty() {
            results
                .lock()
                .expect("worker poisoned the results")
                .extend(local);
        }
    });
    let mut tagged = results.into_inner().expect("worker poisoned the results");
    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_all_elements() {
        let mut data = vec![0usize; 1000];
        for_each_chunk_mut(&mut data, 7, |ci, chunk| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = ci * 7 + j + 1;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i + 1);
        }
    }

    #[test]
    fn map_chunks_preserves_order() {
        let mut data = vec![1u32; 100];
        let sums = map_chunks_mut(&mut data, 9, |i, c| (i, c.len()));
        let total: usize = sums.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 100);
        for (k, &(i, _)) in sums.iter().enumerate() {
            assert_eq!(k, i);
        }
    }

    #[test]
    fn empty_inputs() {
        let mut empty: Vec<u8> = Vec::new();
        for_each_chunk_mut(&mut empty, 4, |_, _| panic!("no chunks expected"));
        assert!(map_chunks_mut(&mut empty, 4, |_, _| ()).is_empty());
    }

    #[test]
    fn nested_parallel_regions_complete() {
        // A parallel op whose body itself runs parallel ops must not
        // deadlock the pool (inner regions degrade to inline execution).
        let mut outer: Vec<u64> = (0..128).collect();
        let out = map_chunks_mut(&mut outer, 16, |_, chunk| {
            let inner = map_chunks_mut(chunk, 1, |_, x| x[0]);
            inner.iter().sum::<u64>()
        });
        let total: u64 = out.iter().sum();
        assert_eq!(total, (0..128).sum::<u64>());
    }

    #[test]
    fn pool_workers_consistent_with_num_threads() {
        // `num_threads() - 1` persistent workers, labelled
        // `1..num_threads()`, join the calling thread, which is none of
        // them. (A busy pool runs the job on the caller alone.)
        let seen = std::sync::Mutex::new(Vec::new());
        pool::run(&|idx| seen.lock().unwrap().push((idx, current_worker())));
        for (idx, worker) in seen.into_inner().unwrap() {
            assert!(idx < num_threads());
            assert_eq!(worker, (idx > 0).then_some(idx));
        }
    }
}
