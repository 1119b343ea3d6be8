//! Work-queue sweep executor for independent model evaluations.
//!
//! The tuning sweeps (`perfmodel::sweep`) and the figure series
//! generators (`figures`) evaluate many *independent*
//! (configuration → GF) points. [`SweepPool`] runs such
//! batches across a fixed set of worker threads pulling indices from a
//! shared atomic work queue, while keeping the results **deterministic**:
//!
//! * results are returned in submission (index) order, no matter which
//!   worker computed them or in what order they finished;
//! * consumers reduce the ordered results serially (e.g. argmax with a
//!   strict `>` fold), so ties break exactly as in a serial scan and
//!   figure CSV/JSON output stays byte-identical to a serial run.
//!
//! On a single-core host (or with `ADVECT_SWEEP_THREADS=1`) the pool
//! degrades to inline evaluation on the calling thread with no hand-off
//! and no queue traffic.

use obs::crew;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// A fixed-width pool for embarrassingly parallel sweeps.
///
/// The pool is only a width: a batch runs as one [`obs::crew`] region,
/// the caller being worker 0 and the rest resident threads leased for
/// the batch, so closures may borrow stack data and a batch costs a
/// hand-off, not a thread spawn.
///
/// ```
/// use advect_core::sweep::SweepPool;
/// let pool = SweepPool::new(4);
/// let squares = pool.map_indices(10, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SweepPool {
    threads: usize,
}

impl SweepPool {
    /// A pool of `threads` workers (≥ 1).
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a sweep pool needs at least one worker");
        Self { threads }
    }

    /// The process-wide pool, sized from `std::thread::available_parallelism`
    /// (overridable with the `ADVECT_SWEEP_THREADS` environment variable).
    ///
    /// # Panics
    ///
    /// On a malformed `ADVECT_SWEEP_THREADS` value — a mistyped knob
    /// must fail the run, not silently measure the default width.
    pub fn global() -> &'static SweepPool {
        static GLOBAL: OnceLock<SweepPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = match std::env::var("ADVECT_SWEEP_THREADS") {
                Ok(v) => match v.trim().parse::<usize>() {
                    Ok(t) if t > 0 => t,
                    _ => panic!("ADVECT_SWEEP_THREADS={v:?}: expected a positive integer"),
                },
                Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
            };
            SweepPool::new(threads)
        })
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// One batch as a crew region: each worker builds a state with
    /// `init`, claims indices of `0..n` from a shared counter into it
    /// with `f`, and hands it to `finish`. One worker runs inline on the
    /// calling thread.
    fn steal<S>(
        &self,
        n: usize,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize) + Sync,
        finish: impl Fn(S) + Sync,
    ) {
        let workers = self.threads.min(n).max(1);
        let next = AtomicUsize::new(0);
        crew::run(workers, |_| {
            let mut state = init();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                f(&mut state, i);
            }
            finish(state);
        });
    }

    /// Evaluate `f(0), …, f(n-1)` across the pool and return the results
    /// **in index order**. Workers claim indices from a shared atomic
    /// counter, so an expensive point never blocks the rest of the batch
    /// behind a static partition.
    pub fn map_indices<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
        self.steal(
            n,
            Vec::new,
            |local, i| local.push((i, f(i))),
            |local| done.lock().expect("sweep results").extend(local),
        );
        // Re-establish submission order.
        let mut done = done.into_inner().expect("sweep results");
        debug_assert_eq!(done.len(), n, "every index evaluated exactly once");
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }

    /// Evaluate `f` at every item of `items`, returning results in item
    /// order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indices(items.len(), |i| f(&items[i]))
    }

    /// Run `f(0), …, f(n-1)` for side effects across the pool, workers
    /// stealing indices from a shared atomic counter. When each index
    /// names a disjoint unit of output, no reduction step exists and the
    /// result is deterministic: each output element is written by exactly
    /// one claim, whatever the steal order.
    pub fn for_each_index<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.steal(n, || (), |(), i| f(i), drop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_submission_order() {
        let pool = SweepPool::new(7);
        // Uneven per-item cost to force out-of-order completion.
        let out = pool.map_indices(100, |i| {
            if i % 13 == 0 {
                std::thread::yield_now();
            }
            i * 3
        });
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = SweepPool::new(1);
        let tid = std::thread::current().id();
        let out = pool.map_indices(5, |i| {
            assert_eq!(std::thread::current().id(), tid);
            i + 1
        });
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn every_index_evaluated_exactly_once() {
        let pool = SweepPool::new(4);
        let count = AtomicUsize::new(0);
        let out = pool.map_indices(257, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn map_over_items_borrows_them() {
        let pool = SweepPool::new(3);
        let items = vec!["a".to_string(), "bb".into(), "ccc".into()];
        let lens = pool.map(&items, |s| s.len());
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn empty_batch_is_empty() {
        let pool = SweepPool::new(4);
        let out: Vec<usize> = pool.map_indices(0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn pool_matches_serial_bit_for_bit() {
        // The engine must not change *what* is computed, only where.
        let serial: Vec<f64> = (0..64).map(|i| (i as f64).sin() * 1.7).collect();
        let pooled = SweepPool::new(5).map_indices(64, |i| (i as f64).sin() * 1.7);
        assert_eq!(serial, pooled);
    }

    #[test]
    fn global_pool_is_usable() {
        let out = SweepPool::global().map_indices(8, |i| i);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_claims_every_index_once() {
        for workers in [1, 2, 5, 8] {
            let pool = SweepPool::new(workers);
            let hits: Vec<AtomicUsize> = (0..137).map(|_| AtomicUsize::new(0)).collect();
            pool.for_each_index(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "workers={workers}"
            );
        }
    }
}
