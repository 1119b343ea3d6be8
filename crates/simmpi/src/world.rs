//! Launching a world of ranks.

use crate::collectives::{Barrier, ReduceSlots, ScalarSlots};
use crate::comm::{Comm, WorldInner};
use crate::fault::FaultPlan;
use crate::mailbox::Mailbox;
use crate::pool::BufferPool;
use std::sync::Arc;

/// A world of `size` ranks, each running on its own OS thread.
///
/// ```
/// use simmpi::World;
/// // A ring exchange across 4 ranks:
/// let results = World::run(4, |comm| {
///     let right = (comm.rank() + 1) % 4;
///     let left = (comm.rank() + 3) % 4;
///     let req = comm.irecv(left, 0);
///     comm.send(right, 0, vec![comm.rank() as f64]);
///     req.wait()[0] as usize
/// });
/// assert_eq!(results, vec![3, 0, 1, 2]);
/// ```
pub struct World;

impl World {
    /// Run `body` on `size` ranks concurrently and return each rank's
    /// result, indexed by rank. Panics in any rank propagate.
    pub fn run<T, F>(size: usize, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Sync,
    {
        Self::run_with_faults(size, FaultPlan::off(), body)
    }

    /// Like [`World::run`], but every delivery, wait, and collective runs
    /// under `plan`'s seeded perturbations. With [`FaultPlan::off`] this
    /// is exactly `run`: only a plan that perturbs delivery gives the
    /// mailboxes a limbo.
    pub fn run_with_faults<T, F>(size: usize, plan: FaultPlan, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Sync,
    {
        assert!(size > 0, "world must have at least one rank");
        let perturbed = plan.perturbs_delivery();
        let inner = Arc::new(WorldInner {
            size,
            mailboxes: (0..size)
                .map(|dst| {
                    if perturbed {
                        Mailbox::with_faults(plan, dst)
                    } else {
                        Mailbox::default()
                    }
                })
                .collect(),
            barrier: Barrier::new(size),
            reduce: ReduceSlots::new(size),
            scalar: ScalarSlots::new(size),
            pool: Arc::new(BufferPool::new()),
            plan,
        });
        let mut results: Vec<Option<T>> = (0..size).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for (rank, slot) in results.iter_mut().enumerate() {
                let inner = inner.clone();
                let body = &body;
                handles.push(scope.spawn(move || {
                    let comm = Comm::new(rank, inner);
                    *slot = Some(body(&comm));
                }));
            }
            for h in handles {
                if let Err(e) = h.join() {
                    std::panic::resume_unwind(e);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("rank produced a result"))
            .collect()
    }
}
