//! Implementation IV-B: bulk-synchronous MPI.
//!
//! Each step performs the whole halo exchange (dimension-serialized,
//! nonblocking receives posted first), then the full local stencil, then
//! the state advance (a buffer swap) — no overlap of communication and
//! computation.

use crate::runner::Rank;
use advect_core::field::Field3;
use advect_core::stencil::apply_stencil_slab_tiled;
use advect_core::tile::z_cuts;

pub(crate) fn run(rk: &Rank<'_>) -> Field3 {
    let mut cur = rk.initial_field();
    let mut new = rk.blank_field();
    let cuts = z_cuts(rk.sub.extent.2, rk.cfg.threads);
    let region = cur.interior_range();
    rk.timed_steps(|| {
        // Step 1: full exchange, master thread drives communication.
        rk.exchange_halos(&mut cur);
        // Step 2: stencil over the whole interior, threaded by z-slab.
        let throttle = rk.comm.throttle_start();
        {
            let _span = rk.tracer.span(obs::Category::ComputeInterior, "stencil");
            let src = &cur;
            let slabs = new.z_slabs_mut(&cuts);
            rk.team.parallel_with(slabs, |_ctx, mut slab| {
                apply_stencil_slab_tiled(src, &mut slab, &rk.stencil, region, rk.tile);
            });
        }
        rk.comm.throttle_end(throttle);
        // Step 3: the new state becomes the current state; the next
        // exchange refills its whole halo before any read.
        std::mem::swap(&mut cur, &mut new);
    });
    cur
}
