//! Implementation IV-D: MPI using OpenMP threading for overlap.
//!
//! Instead of nonblocking MPI, an asynchronous thread overlaps the
//! communication: the master thread (`!$omp master`) performs the
//! (blocking) MPI exchange and then joins the computation of interior
//! points, while the other threads begin computing interior points
//! immediately. The interior loop uses `schedule(guided)` — chunks
//! proportional to the remaining work divided by the number of threads —
//! so the late-joining master picks up whatever remains. An OpenMP
//! barrier ensures communication is complete before the boundary points
//! are computed.
//!
//! The concurrent halo mutation (master) and interior reads (workers) are
//! disjoint by the interior/boundary split; both go through
//! [`advect_core::field::SharedField`]'s `UnsafeCell` cells, keeping the
//! overlap sound.

use crate::halo::exchange_halos_shared;
use crate::runner::Rank;
use advect_core::field::{Field3, Range3, SharedField};
use advect_core::stencil::apply_stencil_cells_tiled;
use advect_core::team::GuidedChunks;
use decomp::partition::shell_and_core;

pub(crate) fn run(rk: &Rank<'_>) -> Field3 {
    let (comm, tracer, stencil, tile) = (rk.comm, &rk.tracer, &rk.stencil, rk.tile);
    let (plan, decomp, halo_bufs) = (&rk.plan, rk.decomp, &rk.halo_bufs);
    let mut cur = rk.initial_field();
    let mut new = rk.blank_field();
    let (core, shell) = shell_and_core(cur.interior_range(), 1);
    let core_planes = (core.z.1 - core.z.0).max(0) as usize;
    rk.timed_steps(|| {
        {
            let queue = GuidedChunks::new(0..core_planes, rk.cfg.threads, 1);
            let cur_shared = SharedField::new(&mut cur);
            let new_shared = SharedField::new(&mut new);
            let (cur_ref, new_ref) = (&cur_shared, &new_shared);
            rk.team.parallel(|ctx| {
                let mut throttle = None;
                if ctx.is_master() {
                    // Master: communicate, then join the guided loop.
                    exchange_halos_shared(cur_ref, plan, decomp, rk.rank, comm, halo_bufs);
                    // The straggler-throttled section: the master's pure
                    // compute, after its comm window.
                    throttle = comm.throttle_start();
                }
                {
                    let _span = tracer.span(obs::Category::ComputeInterior, "interior.guided");
                    while let Some(chunk) = queue.next_chunk() {
                        let z = (core.z.0 + chunk.start as i64, core.z.0 + chunk.end as i64);
                        let region = Range3::new(core.x, core.y, z);
                        apply_stencil_cells_tiled(cur_ref, new_ref, stencil, region, tile);
                    }
                }
                // Communication (master reached here) is complete before
                // any thread computes boundary points.
                ctx.barrier();
                for region in ctx.round_robin(&shell) {
                    apply_stencil_cells_tiled(cur_ref, new_ref, stencil, *region, tile);
                }
                comm.throttle_end(throttle);
            });
        }
        // Step 3: the new state becomes the current state (the shared
        // views ended with the block above); the next exchange refills
        // its whole halo before any read.
        std::mem::swap(&mut cur, &mut new);
    });
    cur
}
