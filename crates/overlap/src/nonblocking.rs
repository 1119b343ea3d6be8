//! Implementation IV-C: MPI using nonblocking communication for overlap.
//!
//! The local domain is partitioned into interior points and boundary
//! points (those that touch halo points). The interior is further split
//! into thirds along z; the first third is computed between the
//! nonblocking initiation of the x communication and its completion, the
//! second within y, and the third within z. The boundary points are
//! computed after all communication completes.

use crate::halo::{complete_phase, post_phase_recvs, send_phase};
use crate::runner::Rank;
use advect_core::field::Field3;
use advect_core::stencil::apply_stencil_slab_tiled;
use advect_core::tile::z_cuts;
use decomp::partition::{shell_and_core, thirds_along_z};

pub(crate) fn run(rk: &Rank<'_>) -> Field3 {
    let (comm, tracer, stencil, tile) = (rk.comm, &rk.tracer, &rk.stencil, rk.tile);
    let mut cur = rk.initial_field();
    let mut new = rk.blank_field();
    let (core, shell) = shell_and_core(cur.interior_range(), 1);
    let thirds = thirds_along_z(core);
    let cuts = z_cuts(rk.sub.extent.2, rk.cfg.threads);
    rk.timed_steps(|| {
        // Interleave: initiate phase d, compute interior third d,
        // complete phase d.
        for (phase, third) in rk.plan.phases.iter().zip(&thirds) {
            let inflight = post_phase_recvs(phase, rk.decomp, rk.rank, comm);
            send_phase(phase, &cur, rk.decomp, rk.rank, comm, &rk.halo_bufs);
            let throttle = comm.throttle_start();
            {
                let _span = tracer.span(obs::Category::ComputeInterior, "interior.third");
                let src = &cur;
                let slabs = new.z_slabs_mut(&cuts);
                rk.team.parallel_with(slabs, |_ctx, mut slab| {
                    apply_stencil_slab_tiled(src, &mut slab, stencil, *third, tile);
                });
            }
            comm.throttle_end(throttle);
            complete_phase(inflight, &mut cur, comm, &rk.halo_bufs);
        }
        // Boundary points after communication.
        {
            let _span = tracer.span(obs::Category::ComputeInterior, "boundary");
            let src = &cur;
            let slabs = new.z_slabs_mut(&cuts);
            rk.team.parallel_with(slabs, |_ctx, mut slab| {
                for region in &shell {
                    apply_stencil_slab_tiled(src, &mut slab, stencil, *region, tile);
                }
            });
        }
        // Step 3: the new state becomes the current state; each phase
        // refills its halo before anything reads it.
        std::mem::swap(&mut cur, &mut new);
    });
    cur
}
