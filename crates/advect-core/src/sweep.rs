//! A fixed-width index sweep over [`obs::crew`].
//!
//! [`SweepPool`] survives only for the benchmark harness's
//! `advect_core.sweep_batch_us` probe, which calls
//! `advect_core::sweep::SweepPool::{new, for_each_index}` from sources
//! frozen between `[benchmark]` PRs — as [`crate::numa`] survives for
//! its fingerprint. Nothing else in the workspace runs on it: the model
//! and figure path is single-threaded, and the runners use
//! [`crate::team::ThreadTeam`].

use obs::crew;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-width pool for independent index batches.
///
/// The pool is only a width: a batch runs as one [`obs::crew`] region,
/// the caller being worker 0 and the rest resident threads leased for
/// the batch, so closures may borrow stack data and a batch costs a
/// hand-off, not a thread spawn.
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

    /// Run `f(0), …, f(n-1)` for side effects across the pool, workers
    /// claiming indices from a shared atomic counter. When each index
    /// names a disjoint unit of output, the result is deterministic:
    /// each output element is written by exactly one claim, whatever
    /// the claim order. One worker runs inline on the calling thread.
    pub fn for_each_index<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let workers = self.threads.min(n).max(1);
        let next = AtomicUsize::new(0);
        crew::run(workers, |_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            f(i);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
