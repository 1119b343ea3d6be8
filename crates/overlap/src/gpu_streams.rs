//! Implementation IV-G: GPU with MPI overlap using CUDA streams.
//!
//! Two streams: the interior kernel runs on one while the other carries
//! the halo traffic — CPU-GPU buffer copies, then the boundary-face
//! kernels. The interior computation thus overlaps the MPI communication,
//! the buffer copies, and (on GPUs with concurrent kernels) the boundary
//! computation. The CPU ends the step by synchronizing the two streams.

use crate::gpu_common::DeviceField;
use crate::runner::Rank;
use advect_core::field::Field3;
use decomp::partition::BoxPartition;
use simgpu::Stream;

pub(crate) fn run(rk: &Rank<'_>) -> Field3 {
    let (gpu, block) = (rk.gpu(), rk.cfg.block);
    let mut host = rk.initial_field();
    let mut dev = DeviceField::from_host(gpu, &host);
    let part = BoxPartition::new(rk.sub.extent, 0);
    let s_halo = gpu.create_stream();
    rk.timed_steps(|| {
        // Interior kernel first, on the default stream: it overlaps
        // everything the halo stream does below.
        dev.launch_stencil(gpu, Stream::DEFAULT, block, &[part.gpu_deep_interior]);
        // Halo stream: boundary buffers out, MPI, halo buffers in,
        // boundary kernels.
        dev.regions_d2h(gpu, s_halo, dev.cur, &part.gpu_boundary_ring, &mut host);
        gpu.sync_stream(s_halo);
        rk.exchange_halos(&mut host);
        dev.regions_h2d(gpu, s_halo, dev.cur, &part.gpu_halo_ring, &host);
        dev.launch_stencil(gpu, s_halo, block, &part.gpu_boundary_ring);
        // The CPU ends the time step by synchronizing the streams.
        gpu.sync_device();
        dev.swap();
    });
    dev.region_to_host(gpu, dev.cur, host.interior_range(), &mut host);
    host
}
