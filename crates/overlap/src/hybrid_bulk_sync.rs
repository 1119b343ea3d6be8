//! Implementation IV-H: CPU and GPU computation with bulk-synchronous MPI.
//!
//! Each task's domain is partitioned as a block in a box (Figure 1): the
//! GPU computes the interior block, the CPU the enclosing box whose wall
//! thickness balances the load. A step starts by exchanging the inner
//! halo/boundary buffers with the GPU and the outer halos/boundaries with
//! other tasks through MPI; then the GPU kernels and the CPU wall
//! computation run — CPU and GPU computation may overlap, but all
//! communication is up-front and serial.

use crate::gpu_common::DeviceField;
use crate::runner::Rank;
use advect_core::field::{Field3, SharedField};
use advect_core::stencil::apply_stencil_shared_tiled;
use decomp::partition::BoxPartition;
use simgpu::Stream;

pub(crate) fn run(rk: &Rank<'_>) -> Field3 {
    let (gpu, block, stencil, tile) = (rk.gpu(), rk.cfg.block, &rk.stencil, rk.tile);
    let mut cur = rk.initial_field();
    let mut new = rk.blank_field();
    let mut dev = DeviceField::from_host(gpu, &cur);
    let part = BoxPartition::new(rk.sub.extent, rk.cfg.thickness);
    rk.timed_steps(|| {
        // Inner exchange: GPU boundary ring to the CPU...
        dev.regions_d2h(
            gpu,
            Stream::DEFAULT,
            dev.cur,
            &part.gpu_boundary_ring,
            &mut cur,
        );
        gpu.sync_device();
        // ...outer exchange: MPI halos...
        rk.exchange_halos(&mut cur);
        // ...inner exchange: CPU ring back to the GPU as its halo.
        dev.regions_h2d(gpu, Stream::DEFAULT, dev.cur, &part.gpu_halo_ring, &cur);
        // GPU kernels for the inner block points (async)...
        dev.launch_stencil(gpu, Stream::DEFAULT, block, &part.gpu_boundary_ring);
        dev.launch_stencil(gpu, Stream::DEFAULT, block, &[part.gpu_deep_interior]);
        // ...while the CPU computes the outer box points.
        let throttle = rk.comm.throttle_start();
        {
            let _span = rk.tracer.span(obs::Category::ComputeVeneer, "cpu.walls");
            let src = &cur;
            let writer = SharedField::new(&mut new);
            rk.team.parallel(|ctx| {
                for w in ctx.round_robin(&part.cpu_walls) {
                    if !w.is_empty() {
                        apply_stencil_shared_tiled(src, &writer, stencil, *w, tile);
                    }
                }
            });
        }
        // State copy: CPU walls; the GPU flips buffers.
        for w in &part.cpu_walls {
            cur.copy_region_from(&new, *w);
        }
        rk.comm.throttle_end(throttle);
        gpu.sync_device();
        dev.swap();
    });
    // Pull the GPU block into the host state for verification.
    dev.region_to_host(gpu, dev.cur, part.gpu_block, &mut cur);
    cur
}
