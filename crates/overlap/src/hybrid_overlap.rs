//! Implementation IV-I: CPU and GPU computation partitioned for overlap
//! with nonblocking MPI and CPU-GPU communication.
//!
//! The most-extensive overlap, and the paper's best performer. Same
//! kernels and Figure 1 decomposition as IV-H, but:
//!
//! * the GPU interior runs on one stream while a second stream carries
//!   the halo-ring upload, the GPU boundary kernels, and the new
//!   boundary-ring download — so GPU compute, PCIe traffic, and CPU work
//!   all overlap;
//! * MPI communication in each dimension overlaps the computation of the
//!   CPU interior/inner-boundary points of that dimension's walls; the
//!   outer boundary points (which need MPI halos) come last;
//! * the new GPU boundary ring is downloaded *this* step into the new
//!   state, so the next step needs no blocking ring download — this is
//!   the decoupling of MPI communication from CPU-GPU communication that
//!   Section V-E identifies as the real win.
//!
//! Panics if `cfg.thickness == 0`: the full-overlap schedule uploads the
//! GPU's halo ring *before* the MPI exchange, which is only possible when
//! a CPU veneer (thickness ≥ 1) separates the GPU block from the MPI
//! halo. Thickness 0 is implementation IV-G's territory.

use crate::gpu_common::DeviceField;
use crate::halo::{complete_phase_shared, post_phase_recvs, send_phase_shared};
use crate::runner::Rank;
use advect_core::field::{Field3, SharedField};
use advect_core::stencil::apply_stencil_cells_tiled;
use decomp::partition::{shell_and_core, BoxPartition};
use simgpu::Stream;

pub(crate) fn run(rk: &Rank<'_>) -> Field3 {
    assert!(
        rk.cfg.thickness >= 1,
        "IV-I needs a CPU veneer (thickness >= 1); use IV-G for thickness 0"
    );
    let (gpu, block, stencil, tile) = (rk.gpu(), rk.cfg.block, &rk.stencil, rk.tile);
    let (comm, tracer, halo_bufs) = (rk.comm, &rk.tracer, &rk.halo_bufs);
    let mut cur = rk.initial_field();
    let mut new = rk.blank_field();
    let mut dev = DeviceField::from_host(gpu, &cur);
    let part = BoxPartition::new(rk.sub.extent, rk.cfg.thickness);
    // Inner parts of walls (computable before MPI completes) vs. outer
    // boundary points (touching the MPI halo).
    let (inner1, outer_shell) = shell_and_core(cur.interior_range(), 1);
    // Outer boundary points of every wall: at most 36 pieces, the same
    // every step.
    let outer_regions: Vec<_> = part
        .cpu_walls
        .iter()
        .flat_map(|w| outer_shell.iter().map(move |s| w.intersect(s)))
        .filter(|r| !r.is_empty())
        .collect();
    let s_halo = gpu.create_stream();
    rk.timed_steps(|| {
        // 1. GPU interior kernel on the compute stream.
        dev.launch_stencil(gpu, Stream::DEFAULT, block, &[part.gpu_deep_interior]);
        // 2. Async halo-ring upload, boundary kernels, and new
        //    boundary-ring download, all on the halo stream.
        dev.regions_h2d(gpu, s_halo, dev.cur, &part.gpu_halo_ring, &cur);
        dev.launch_stencil(gpu, s_halo, block, &part.gpu_boundary_ring);
        dev.regions_d2h(gpu, s_halo, dev.new, &part.gpu_boundary_ring, &mut new);
        // 3. Per-dimension: MPI phase overlapped with the inner points of
        //    that dimension's walls. `cur` is shared because the phase
        //    completion writes its halo while wall computation reads its
        //    interior — disjoint points, all routed through SharedField
        //    cells.
        {
            let cur_shared = SharedField::new(&mut cur);
            let writer = SharedField::new(&mut new);
            let (cur_ref, writer_ref) = (&cur_shared, &writer);
            for (dim, phase) in rk.plan.phases.iter().enumerate() {
                let inflight = post_phase_recvs(phase, rk.decomp, rk.rank, comm);
                send_phase_shared(phase, cur_ref, rk.decomp, rk.rank, comm, halo_bufs);
                // Inner wall points of this dimension, overlapped with
                // the communication just initiated.
                let (lo, hi) = part.cpu_walls_of_dim(dim);
                let walls = [lo.intersect(&inner1), hi.intersect(&inner1)];
                let throttle = comm.throttle_start();
                {
                    let _span = tracer.span(obs::Category::ComputeVeneer, "walls.inner");
                    rk.team.parallel(|ctx| {
                        for w in ctx.round_robin(&walls) {
                            if !w.is_empty() {
                                apply_stencil_cells_tiled(cur_ref, writer_ref, stencil, *w, tile);
                            }
                        }
                    });
                }
                comm.throttle_end(throttle);
                complete_phase_shared(inflight, cur_ref, comm, halo_bufs);
            }
            // 4. Outer boundary points of every wall (need halos).
            let _span = tracer.span(obs::Category::ComputeVeneer, "walls.outer");
            rk.team.parallel(|ctx| {
                for w in ctx.round_robin(&outer_regions) {
                    apply_stencil_cells_tiled(cur_ref, writer_ref, stencil, *w, tile);
                }
            });
        }
        // 5. Synchronize the CUDA streams; advance the state.
        gpu.sync_device();
        for w in &part.cpu_walls {
            cur.copy_region_from(&new, *w);
        }
        for r in &part.gpu_boundary_ring {
            cur.copy_region_from(&new, *r);
        }
        dev.swap();
    });
    // Pull the GPU block into the host state for verification.
    dev.region_to_host(gpu, dev.cur, part.gpu_block, &mut cur);
    cur
}
