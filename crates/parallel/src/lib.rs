//! # fairkm-parallel — deterministic chunked map/reduce on a worker pool
//!
//! The FairKM hot paths (point-to-prototype scoring, prototype/deviation
//! recomputation, cost-matrix construction, metric evaluation) are all
//! embarrassingly parallel maps over row ranges. This crate is the single
//! execution engine behind them: a dependency-free chunked map/reduce
//! dispatched to a **persistent worker pool**.
//!
//! ## Worker-pool lifecycle
//!
//! Workers are OS threads spawned lazily on the first parallel call that
//! needs them and kept parked on their dispatch channels for the rest of
//! the process — the mini-batch hot loop issues thousands of small
//! map/reduce calls per fit, and re-spawning OS threads per call (the PR 2
//! design, built on [`std::thread::scope`]) cost tens of microseconds of
//! spawn/join per window. A call with `threads = t` over `c` chunks
//! dispatches one batch handle to `min(t, c) − 1` workers and the calling
//! thread joins in as the final participant, pulling chunk indices from a
//! shared atomic cursor until the batch is drained. The caller always
//! participates, so every call makes progress even if all workers are busy
//! (nested calls degrade to sequential instead of deadlocking), and the
//! call only returns once a completion latch counts every chunk done — the
//! borrowed closure can never be observed by a worker after the call
//! returns. The pool never shrinks; it holds `max` over all calls of
//! `min(threads, chunks) − 1` threads ([`worker_pool_size`]).
//!
//! ## Determinism contract
//!
//! Every helper here guarantees **bitwise-identical results for any thread
//! count**, which is what makes thread-count sweeps comparable and lets the
//! workspace promise "same seed ⇒ same clustering" regardless of hardware:
//!
//! * work is split into chunks whose boundaries depend only on the input
//!   length `n` (see [`chunk_size`]) — never on the thread count;
//! * each chunk is mapped by a pure closure reading shared state;
//! * chunk results are reduced **in chunk-index order**, so floating-point
//!   sums associate identically whether one thread or sixteen computed the
//!   chunks.
//!
//! Threads only decide *who* computes each chunk, never *what* is computed
//! or *in which order* results combine.
//!
//! ## Thread-count resolution
//!
//! [`resolve_threads`] implements the workspace-wide policy: an explicit
//! request (e.g. `FairKmConfig::with_threads` or the CLI's `--threads`)
//! wins, otherwise the `FAIRKM_THREADS` environment variable, otherwise
//! [`std::thread::available_parallelism`].
//!
//! ```
//! // An ordered parallel sum is bitwise-stable across thread counts.
//! let data: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
//! let sum = |threads: usize| {
//!     fairkm_parallel::sum_chunks(threads, data.len(), |r| {
//!         data[r].iter().sum::<f64>()
//!     })
//! };
//! assert_eq!(sum(1).to_bits(), sum(8).to_bits());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::Mutex;

/// Environment variable consulted by [`resolve_threads`] when no explicit
/// thread count is given.
pub const THREADS_ENV: &str = "FAIRKM_THREADS";

/// Resolve the number of worker threads to use.
///
/// Priority: `explicit` (clamped to ≥ 1) → the [`THREADS_ENV`] variable
/// (ignored if unset, unparsable, or zero) → the machine's available
/// parallelism → 1.
///
/// Because every primitive in this crate is deterministic in the thread
/// count, auto-resolution never changes results — only wall-clock time.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(t) = explicit {
        return t.max(1);
    }
    if let Some(t) = env_threads() {
        return t;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The thread count requested via [`THREADS_ENV`], if set to a positive
/// integer.
pub fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
}

/// The chunk length used to split `n` items — a pure function of `n` only,
/// **never** of the thread count (that is the determinism invariant).
///
/// Targets ~64 chunks with a 64-item floor, so small inputs collapse to a
/// single chunk (taking the exact sequential code path) while large inputs
/// expose enough chunks to keep any realistic thread count busy.
pub fn chunk_size(n: usize) -> usize {
    n.div_ceil(64).max(64)
}

/// The chunk decomposition of `0..n`: half-open ranges of [`chunk_size`]
/// items (the last chunk may be shorter), in index order.
pub fn chunk_ranges(n: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    let chunk = chunk_size(n);
    let n_chunks = if n == 0 { 0 } else { n.div_ceil(chunk) };
    (0..n_chunks).map(move |i| i * chunk..((i + 1) * chunk).min(n))
}

/// Inputs shorter than this run sequentially even when more threads are
/// requested: even with the persistent pool, a dispatch costs a channel
/// send plus a condvar wake-up per worker, which dwarfs the work in a few
/// hundred items (e.g. a small mini-batch window's rebuild). The chunk
/// decomposition and reduction order are the same on both paths, so this
/// cutoff — like the thread count — can never change a result.
const MIN_PARALLEL_ITEMS: usize = 1024;

/// The persistent worker pool behind every parallel primitive in this
/// crate.
mod pool {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::{Arc, Condvar, Mutex, OnceLock};

    /// One dispatched map call: a type-erased chunk task plus the shared
    /// cursor/latch state the participants coordinate through.
    struct Batch {
        /// The caller's chunk task, type-erased to a raw pointer so the
        /// handle stays `'static`-free. Dereferenced only for claimed
        /// indices `< n_tasks`; [`run`] keeps the closure alive (it does
        /// not return) until the latch counts every task done, and a
        /// worker that pops a drained batch late breaks on the cursor
        /// check without ever touching this pointer.
        task: *const (dyn Fn(usize) + Sync),
        /// Number of tasks in the batch.
        n_tasks: usize,
        /// Claim cursor: `fetch_add` hands each task index to exactly one
        /// participant.
        next: AtomicUsize,
        /// Completion latch: tasks not yet finished. Guards the results
        /// too — a participant's writes happen-before the caller observing
        /// the counter reach zero.
        remaining: Mutex<usize>,
        /// Signalled when `remaining` reaches zero.
        done: Condvar,
        /// Set when any task panicked; the caller re-raises after the
        /// latch opens.
        panicked: AtomicBool,
    }

    // SAFETY: `task` points at a `Sync` closure that `run` keeps borrowed
    // until every task completed, so sharing the pointer across the pool
    // threads is sound; every other field is already `Send + Sync`.
    #[allow(unsafe_code)]
    unsafe impl Send for Batch {}
    #[allow(unsafe_code)]
    unsafe impl Sync for Batch {}

    impl Batch {
        /// Pull and execute task indices until the cursor drains. Called
        /// by workers and by the dispatching caller alike.
        fn work(&self) {
            loop {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.n_tasks {
                    return;
                }
                // SAFETY: `i < n_tasks`, so the batch is still live: `run`
                // is blocked on the latch below and the closure it borrows
                // is still in scope.
                #[allow(unsafe_code)]
                let task = unsafe { &*self.task };
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i)));
                if outcome.is_err() {
                    self.panicked.store(true, Ordering::Relaxed);
                }
                let mut remaining = self.remaining.lock().expect("batch latch poisoned");
                *remaining -= 1;
                if *remaining == 0 {
                    self.done.notify_all();
                }
            }
        }

        /// Block until every task of the batch has finished.
        fn wait(&self) {
            let mut remaining = self.remaining.lock().expect("batch latch poisoned");
            while *remaining > 0 {
                remaining = self.done.wait(remaining).expect("batch latch poisoned");
            }
        }
    }

    /// Dispatch channels of the spawned workers, in spawn order. Workers
    /// park on `recv` between batches and live for the process lifetime.
    static WORKERS: OnceLock<Mutex<Vec<Sender<Arc<Batch>>>>> = OnceLock::new();

    fn workers() -> &'static Mutex<Vec<Sender<Arc<Batch>>>> {
        WORKERS.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// Number of pool threads spawned so far (diagnostic; grows on demand,
    /// never shrinks).
    pub fn size() -> usize {
        workers().lock().expect("worker pool poisoned").len()
    }

    fn worker_loop(inbox: Receiver<Arc<Batch>>) {
        // The senders live in a process-global registry, so `recv` only
        // fails at process teardown.
        while let Ok(batch) = inbox.recv() {
            batch.work();
        }
    }

    /// Run `task(0..n_tasks)` across up to `participants` threads: the
    /// caller plus `participants − 1` pool workers. Returns only once every
    /// task completed; panics (after the latch opens) if any task panicked.
    pub fn run(participants: usize, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if participants <= 1 || n_tasks <= 1 {
            for i in 0..n_tasks {
                task(i);
            }
            return;
        }
        // SAFETY: this only erases the reference's lifetime so the pointer
        // fits the `'static`-defaulted field type; validity is enforced by
        // the latch protocol documented on `Batch::task`.
        #[allow(unsafe_code)]
        let task: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync + '_)) };
        let batch = Arc::new(Batch {
            task,
            n_tasks,
            next: AtomicUsize::new(0),
            remaining: Mutex::new(n_tasks),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        {
            let helpers = participants - 1;
            let mut senders = workers().lock().expect("worker pool poisoned");
            while senders.len() < helpers {
                let (tx, rx) = channel::<Arc<Batch>>();
                std::thread::Builder::new()
                    .name(format!("fairkm-worker-{}", senders.len()))
                    .spawn(move || worker_loop(rx))
                    .expect("failed to spawn pool worker");
                senders.push(tx);
            }
            for tx in senders.iter().take(helpers) {
                // A send can only fail if a worker thread died; the batch
                // still completes because the caller participates.
                let _ = tx.send(Arc::clone(&batch));
            }
        }
        batch.work();
        batch.wait();
        if batch.panicked.load(Ordering::Relaxed) {
            panic!("parallel worker panicked");
        }
    }
}

/// Number of persistent pool threads spawned so far. Workers are created
/// lazily by the first call that needs them and are kept parked between
/// calls; the count never shrinks. Diagnostic only — it has no effect on
/// results.
pub fn worker_pool_size() -> usize {
    pool::size()
}

/// Map every chunk of `0..n` through `map`, returning the chunk results in
/// chunk-index order.
///
/// `map` must be pure with respect to chunk identity: it is invoked exactly
/// once per chunk, possibly concurrently, on whichever pool participant
/// grabs the chunk first. The returned `Vec` is index-ordered, so
/// downstream folds are independent of scheduling.
pub fn map_chunks<R, F>(threads: usize, n: usize, map: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let ranges: Vec<Range<usize>> = chunk_ranges(n).collect();
    let n_chunks = ranges.len();
    if threads <= 1 || n_chunks <= 1 || n < MIN_PARALLEL_ITEMS {
        return ranges.into_iter().map(map).collect();
    }
    // One slot per chunk keeps results in chunk-index order regardless of
    // which participant computed them; the per-slot locks are touched once
    // per chunk (~64 per call), so contention is negligible.
    let slots: Vec<Mutex<Option<R>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    let task = |i: usize| {
        let result = map(ranges[i].clone());
        *slots[i].lock().expect("chunk slot poisoned") = Some(result);
    };
    pool::run(threads.min(n_chunks), n_chunks, &task);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("chunk slot poisoned")
                .expect("every chunk is computed exactly once")
        })
        .collect()
}

/// [`map_chunks`] that also hands each chunk of `0..n` its own part of
/// `out`, `width ≥ 1` entries per item (`out.len() == n * width`), to
/// write per-item results into.
pub fn map_chunks_into<T, R, F>(
    threads: usize,
    n: usize,
    out: &mut [T],
    width: usize,
    map: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(Range<usize>, &mut [T]) -> R + Sync,
{
    assert!(
        width > 0 && out.len() == n * width,
        "one `width` part of `out` per item"
    );
    let parts: Vec<Mutex<Option<&mut [T]>>> = out
        .chunks_mut(chunk_size(n) * width)
        .map(|part| Mutex::new(Some(part)))
        .collect();
    map_chunks(threads, n, |r| {
        let part = parts[r.start / chunk_size(n)]
            .lock()
            .expect("chunk part poisoned")
            .take()
            .expect("every chunk is mapped exactly once");
        map(r, part)
    })
}

/// Chunked parallel sum with ordered reduction: each chunk's partial sum is
/// accumulated sequentially within the chunk, and partials are added in
/// chunk-index order — bitwise-identical for any thread count.
pub fn sum_chunks<F>(threads: usize, n: usize, partial: F) -> f64
where
    F: Fn(Range<usize>) -> f64 + Sync,
{
    map_chunks(threads, n, partial).into_iter().sum()
}

/// Parallel per-index map over `range`, returning one value per index in
/// index order (exactly what a sequential `range.map(f).collect()` yields).
///
/// `f` must depend only on its index argument and shared read-only state,
/// which makes the output independent of both thread count and chunk
/// layout.
pub fn map_indexed<T, F>(threads: usize, range: Range<usize>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let start = range.start;
    let len = range.end.saturating_sub(start);
    let per_chunk = map_chunks(threads, len, |r| {
        (r.start..r.end).map(|i| f(start + i)).collect::<Vec<T>>()
    });
    let mut out = Vec::with_capacity(len);
    for chunk in per_chunk {
        out.extend(chunk);
    }
    out
}

/// Merge per-chunk partial aggregates in chunk-index order.
///
/// Convenience wrapper for accumulator-style reductions (prototype sums,
/// per-value counts): `build` maps a chunk to a partial aggregate and
/// `merge` folds it into the accumulator. `merge` is always called in
/// chunk-index order on the caller's thread.
pub fn fold_chunks<A, R, B, M>(threads: usize, n: usize, init: A, build: B, mut merge: M) -> A
where
    R: Send,
    B: Fn(Range<usize>) -> R + Sync,
    M: FnMut(A, R) -> A,
{
    let mut acc = init;
    for partial in map_chunks(threads, n, build) {
        acc = merge(acc, partial);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_layout_depends_only_on_n() {
        for n in [0usize, 1, 63, 64, 65, 4096, 4097, 100_000] {
            let ranges: Vec<_> = chunk_ranges(n).collect();
            assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), n);
            // Contiguous, ordered, non-empty.
            let mut pos = 0;
            for r in &ranges {
                assert_eq!(r.start, pos);
                assert!(!r.is_empty());
                pos = r.end;
            }
            assert_eq!(pos, n);
        }
    }

    #[test]
    fn small_inputs_are_a_single_chunk() {
        assert_eq!(chunk_ranges(50).count(), 1);
        assert_eq!(chunk_ranges(64).count(), 1);
        assert_eq!(chunk_ranges(0).count(), 0);
    }

    #[test]
    fn map_indexed_matches_sequential_map() {
        let expected: Vec<u64> = (10..9_010).map(|i| (i as u64).wrapping_mul(31)).collect();
        for threads in [1, 2, 3, 8] {
            let got = map_indexed(threads, 10..9_010, |i| (i as u64).wrapping_mul(31));
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn sum_is_bitwise_stable_across_thread_counts() {
        let data: Vec<f64> = (0..50_000)
            .map(|i| ((i * 7919) as f64).sin() * 1e3)
            .collect();
        let reference = sum_chunks(1, data.len(), |r| data[r].iter().sum::<f64>());
        for threads in [2, 4, 16] {
            let got = sum_chunks(threads, data.len(), |r| data[r].iter().sum::<f64>());
            assert_eq!(got.to_bits(), reference.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn map_chunks_results_arrive_in_chunk_order() {
        let n = 70_000;
        let starts = map_chunks(8, n, |r| r.start);
        let expected: Vec<usize> = chunk_ranges(n).map(|r| r.start).collect();
        assert_eq!(starts, expected);
    }

    #[test]
    fn map_chunks_into_hands_each_chunk_its_own_part() {
        let (n, width) = (9_000, 3);
        for threads in [1, 2, 8] {
            let mut out = vec![0usize; n * width];
            let starts = map_chunks_into(threads, n, &mut out, width, |r, part| {
                assert_eq!(part.len(), r.len() * width);
                for (i, cell) in r.clone().flat_map(|i| [i; 3]).zip(part.iter_mut()) {
                    *cell = i;
                }
                r.start
            });
            assert_eq!(starts, chunk_ranges(n).map(|r| r.start).collect::<Vec<_>>());
            assert!(out.iter().enumerate().all(|(j, &i)| i == j / width));
        }
    }

    #[test]
    fn fold_chunks_merges_in_order() {
        let n = 70_000;
        let concat = fold_chunks(
            8,
            n,
            Vec::new(),
            |r| r.clone(),
            |mut acc: Vec<Range<usize>>, r| {
                acc.push(r);
                acc
            },
        );
        let expected: Vec<_> = chunk_ranges(n).collect();
        assert_eq!(concat, expected);
    }

    #[test]
    fn explicit_thread_count_wins_and_is_clamped() {
        assert_eq!(resolve_threads(Some(6)), 6);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn zero_and_tiny_inputs_work_at_any_thread_count() {
        for threads in [1, 4] {
            assert_eq!(sum_chunks(threads, 0, |_| 1.0), 0.0);
            assert_eq!(map_indexed::<usize, _>(threads, 3..3, |i| i), vec![]);
            assert_eq!(map_indexed(threads, 0..1, |i| i), vec![0]);
        }
    }

    #[test]
    fn pool_threads_are_reused_across_calls() {
        // The pool is process-global and sibling tests run concurrently, so
        // this test demands the crate-wide maximum worker count (threads=16
        // over the 64 chunks of n=50k → 15 helpers, matching the largest
        // sibling demand): after the first call the pool is saturated at
        // that maximum, no concurrently scheduled test can grow it further,
        // and the equality below is race-free.
        let run = || {
            let total: usize = map_chunks(16, 50_000, |r| r.len()).into_iter().sum();
            assert_eq!(total, 50_000);
        };
        run();
        let spawned_after_first = worker_pool_size();
        assert!(
            spawned_after_first >= 15,
            "first call must saturate the pool, got {spawned_after_first}"
        );
        for _ in 0..16 {
            run();
        }
        // Persistent pool: repeated same-shaped calls re-dispatch to the
        // parked workers instead of spawning fresh threads every call (the
        // pre-pool engine would have spawned 15 × 16 threads here).
        assert_eq!(worker_pool_size(), spawned_after_first);
    }

    #[test]
    fn pool_task_panics_propagate_to_the_caller() {
        let outcome = std::panic::catch_unwind(|| {
            map_chunks(4, 50_000, |r| {
                if r.start == 0 {
                    panic!("boom");
                }
                r.len()
            })
        });
        assert!(outcome.is_err(), "panic inside a chunk must propagate");
        // The pool survives a panicked batch and still serves later calls.
        let total: usize = map_chunks(4, 50_000, |r| r.len()).into_iter().sum();
        assert_eq!(total, 50_000);
    }

    #[test]
    fn nested_parallel_calls_complete() {
        // Inner calls issued from pool workers must not deadlock: the
        // issuing participant always works its own batch to completion.
        let outer = map_chunks(4, 8_192, |r| {
            sum_chunks(2, 2_048, |inner| inner.len() as f64) + r.len() as f64
        });
        for (i, v) in outer.iter().enumerate() {
            let expected = 2_048.0 + chunk_ranges(8_192).nth(i).unwrap().len() as f64;
            assert_eq!(*v, expected);
        }
    }
}
