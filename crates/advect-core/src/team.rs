//! OpenMP-like thread team.
//!
//! The paper's implementations are "Fortran with OpenMP directives". This
//! module provides the moral equivalent for the functional layer:
//!
//! * [`ThreadTeam::parallel`] — a fork-join parallel region where each of
//!   `T` threads runs a closure with its thread id (like `!$omp parallel`),
//!   with an in-region [`TeamCtx::barrier`] (like `!$omp barrier`) and a
//!   distinguished master thread (`tid == 0`, like `!$omp master`);
//! * [`Schedule::Static`] and [`Schedule::Guided`] loop scheduling.
//!   `Guided` "distributes chunks of work as threads request them, with
//!   chunks proportional in size to the remaining work divided by the
//!   number of threads" — exactly the mechanism implementation IV-D relies
//!   on to let the master thread join computation late after finishing MPI
//!   communication.
//!
//! Parallel regions run on the resident worker crew ([`obs::crew`],
//! contract in DESIGN §16): the calling thread is thread 0 and the other
//! threads are parked OS threads leased for the region, so closures may
//! borrow stack data and a region costs a hand-off, not a thread spawn.
//! The virtual-time performance layer models OpenMP overheads separately.

use obs::crew::{self, Barrier};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Loop-scheduling policy, mirroring OpenMP's `schedule` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Even contiguous partition of the iteration space (OpenMP default).
    Static,
    /// Dynamic chunks proportional to remaining work / number of threads,
    /// with a minimum chunk size (OpenMP `schedule(guided)`).
    Guided {
        /// Smallest chunk handed out (OpenMP's optional chunk argument).
        min_chunk: usize,
    },
}

impl Schedule {
    /// Guided scheduling with the default minimum chunk of 1.
    pub const fn guided() -> Self {
        Schedule::Guided { min_chunk: 1 }
    }
}

/// Per-region context handed to each thread of a parallel region.
pub struct TeamCtx<'a> {
    /// This thread's id in `0..num_threads` (0 is the master).
    pub tid: usize,
    /// Number of threads in the region.
    pub num_threads: usize,
    /// `None` in a one-thread region, where a barrier is a no-op.
    barrier: Option<&'a Barrier>,
}

impl TeamCtx<'_> {
    /// Block until all threads of the region reach the barrier
    /// (like `!$omp barrier`).
    pub fn barrier(&self) {
        if let Some(barrier) = self.barrier {
            barrier.wait();
        }
    }

    /// Whether this thread is the master (like `!$omp master`).
    pub fn is_master(&self) -> bool {
        self.tid == 0
    }

    /// The contiguous sub-range of `range` this thread owns under static
    /// scheduling.
    pub fn static_chunk(&self, range: Range<usize>) -> Range<usize> {
        split_static(range, self.num_threads, self.tid)
    }

    /// The items this thread owns when `items` are dealt round-robin
    /// across the team (like `schedule(static, 1)`).
    pub fn round_robin<'s, T>(&self, items: &'s [T]) -> impl Iterator<Item = &'s T> {
        items.iter().skip(self.tid).step_by(self.num_threads)
    }
}

/// Evenly split `range` into `parts` contiguous chunks and return chunk
/// `index`. Leading chunks are one longer when the split is uneven.
pub fn split_static(range: Range<usize>, parts: usize, index: usize) -> Range<usize> {
    let n = range.end - range.start;
    let base = n / parts;
    let rem = n % parts;
    let start = range.start + index * base + index.min(rem);
    let len = base + usize::from(index < rem);
    start..start + len
}

/// A shared work queue implementing guided self-scheduling.
///
/// Threads call [`GuidedChunks::next_chunk`] until it returns `None`. Each
/// chunk is `max(min_chunk, remaining / num_threads)` iterations, so early
/// chunks are large and late chunks shrink — late-joining threads (e.g. a
/// master that was off doing communication) pick up leftover work.
pub struct GuidedChunks {
    next: AtomicUsize,
    end: usize,
    num_threads: usize,
    min_chunk: usize,
}

impl GuidedChunks {
    /// A new guided queue over `range` for `num_threads` consumers.
    pub fn new(range: Range<usize>, num_threads: usize, min_chunk: usize) -> Self {
        assert!(num_threads > 0);
        Self {
            next: AtomicUsize::new(range.start),
            end: range.end,
            num_threads,
            min_chunk: min_chunk.max(1),
        }
    }

    /// Claim the next chunk, or `None` when the range is exhausted.
    pub fn next_chunk(&self) -> Option<Range<usize>> {
        loop {
            let start = self.next.load(Ordering::Relaxed);
            if start >= self.end {
                return None;
            }
            let remaining = self.end - start;
            let size = (remaining / self.num_threads)
                .max(self.min_chunk)
                .min(remaining);
            let new_next = start + size;
            if self
                .next
                .compare_exchange_weak(start, new_next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Some(start..new_next);
            }
        }
    }
}

/// One parallel region of `n` threads on the crew, sharing a barrier.
fn region<F>(n: usize, body: F)
where
    F: Fn(&TeamCtx<'_>) + Sync,
{
    let barrier = (n > 1).then(|| Barrier::new(n));
    crew::run(n, |tid| {
        body(&TeamCtx {
            tid,
            num_threads: n,
            barrier: barrier.as_ref(),
        })
    });
}

/// A team of a fixed number of threads supporting fork-join parallel
/// regions, mirroring an OpenMP thread team.
///
/// ```
/// use advect_core::team::{Schedule, ThreadTeam};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// let team = ThreadTeam::new(4);
/// let sum = AtomicU64::new(0);
/// team.parallel_for(0..100, Schedule::guided(), |chunk| {
///     sum.fetch_add(chunk.map(|i| i as u64).sum(), Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 4950);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ThreadTeam {
    num_threads: usize,
}

impl ThreadTeam {
    /// A team of `num_threads` threads (≥ 1).
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads > 0, "a team needs at least one thread");
        Self { num_threads }
    }

    /// Number of threads in the team.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Run a parallel region: `body` is executed once per thread with that
    /// thread's [`TeamCtx`]. Returns when every thread finishes.
    pub fn parallel<F>(&self, body: F)
    where
        F: Fn(&TeamCtx<'_>) + Sync,
    {
        region(self.num_threads, body);
    }

    /// Run a parallel region where each thread additionally receives
    /// ownership of one element of `items` (thread `t` gets `items[t]`).
    /// If there are fewer items than threads, the surplus threads do not
    /// run `body`. Used to hand each thread a disjoint mutable slab.
    pub fn parallel_with<T, F>(&self, items: Vec<T>, body: F)
    where
        T: Send,
        F: Fn(&TeamCtx<'_>, T) + Sync,
    {
        assert!(items.len() <= self.num_threads, "more items than threads");
        let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        region(items.len(), |ctx| {
            let item = items[ctx.tid].lock().expect("item slot").take();
            body(ctx, item.expect("each thread takes its item once"));
        });
    }

    /// Parallel loop over `range`: `body` receives contiguous iteration
    /// sub-ranges according to `schedule`.
    pub fn parallel_for<F>(&self, range: Range<usize>, schedule: Schedule, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        match schedule {
            Schedule::Static => self.parallel(|ctx| {
                let chunk = ctx.static_chunk(range.clone());
                if !chunk.is_empty() {
                    body(chunk);
                }
            }),
            Schedule::Guided { min_chunk } => {
                let queue = GuidedChunks::new(range, self.num_threads, min_chunk);
                self.parallel(|_ctx| {
                    while let Some(chunk) = queue.next_chunk() {
                        body(chunk);
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    #[test]
    fn static_split_covers_range_exactly() {
        for parts in 1..10 {
            for n in 0..40 {
                let mut covered = vec![0u8; n];
                for p in 0..parts {
                    for i in split_static(0..n, parts, p) {
                        covered[i] += 1;
                    }
                }
                assert!(covered.iter().all(|&c| c == 1), "parts={parts} n={n}");
            }
        }
    }

    #[test]
    fn static_split_is_balanced() {
        let sizes: Vec<usize> = (0..5).map(|p| split_static(0..17, 5, p).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 17);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn guided_chunks_cover_range_once() {
        let q = GuidedChunks::new(3..103, 4, 1);
        let mut covered = [0u8; 103];
        while let Some(c) = q.next_chunk() {
            for i in c {
                covered[i] += 1;
            }
        }
        assert!(covered[..3].iter().all(|&c| c == 0));
        assert!(covered[3..].iter().all(|&c| c == 1));
    }

    #[test]
    fn guided_chunks_shrink() {
        let q = GuidedChunks::new(0..1000, 4, 1);
        let mut sizes = vec![];
        while let Some(c) = q.next_chunk() {
            sizes.push(c.len());
        }
        // First chunk is remaining/threads = 250; sizes never increase.
        assert_eq!(sizes[0], 250);
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn guided_respects_min_chunk() {
        let q = GuidedChunks::new(0..100, 8, 16);
        let mut total = 0;
        while let Some(c) = q.next_chunk() {
            assert!(c.len() >= 16 || total + c.len() == 100);
            total += c.len();
        }
        assert_eq!(total, 100);
    }

    #[test]
    fn parallel_runs_every_tid_once() {
        let team = ThreadTeam::new(5);
        let hits = Mutex::new(vec![0u8; 5]);
        team.parallel(|ctx| {
            hits.lock().unwrap()[ctx.tid] += 1;
            assert_eq!(ctx.num_threads, 5);
        });
        assert_eq!(*hits.lock().unwrap(), vec![1; 5]);
    }

    #[test]
    fn barrier_synchronizes_phases() {
        let team = ThreadTeam::new(4);
        let phase1 = AtomicU64::new(0);
        let ok = AtomicU64::new(0);
        team.parallel(|ctx| {
            phase1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every thread must observe all 4 increments.
            if phase1.load(Ordering::SeqCst) == 4 {
                ok.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(ok.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn parallel_for_static_sums_correctly() {
        let team = ThreadTeam::new(3);
        let sum = AtomicU64::new(0);
        team.parallel_for(0..100, Schedule::Static, |r| {
            let local: u64 = r.map(|i| i as u64).sum();
            sum.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn parallel_for_guided_sums_correctly() {
        let team = ThreadTeam::new(4);
        let sum = AtomicU64::new(0);
        team.parallel_for(0..1000, Schedule::guided(), |r| {
            let local: u64 = r.map(|i| i as u64).sum();
            sum.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 499500);
    }

    #[test]
    fn single_thread_team_runs_inline() {
        let team = ThreadTeam::new(1);
        let mut touched = false;
        let cell = std::cell::Cell::new(&mut touched);
        team.parallel(|ctx| {
            assert!(ctx.is_master());
            // Single-thread regions run on the calling thread; barrier is a no-op.
            ctx.barrier();
        });
        let _ = cell;
    }
}
