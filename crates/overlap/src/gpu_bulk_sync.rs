//! Implementation IV-F: GPU with bulk-synchronous MPI.
//!
//! Multi-GPU: CPUs perform the MPI communication. Separate kernels handle
//! the interior points and the boundary faces; buffers keep CPU-GPU
//! communication in large contiguous chunks. Each step, a CPU copies
//! boundary buffers from the GPU, communicates the boundaries as in the
//! CPU-only bulk-synchronous implementation, copies halo buffers back to
//! the GPU, and makes kernel calls for the faces and interior — all
//! serialized on the default stream (no overlap).

use crate::gpu_common::DeviceField;
use crate::runner::Rank;
use advect_core::field::Field3;
use decomp::partition::BoxPartition;
use simgpu::Stream;

pub(crate) fn run(rk: &Rank<'_>) -> Field3 {
    let (gpu, block) = (rk.gpu(), rk.cfg.block);
    // Host mirror: only its skin and halos are kept current.
    let mut host = rk.initial_field();
    let mut dev = DeviceField::from_host(gpu, &host);
    // With no CPU box (thickness 0) the GPU block is the whole subdomain;
    // the partition provides the face/interior split.
    let part = BoxPartition::new(rk.sub.extent, 0);
    rk.timed_steps(|| {
        // CPU copies boundary buffers from the GPU...
        dev.regions_d2h(
            gpu,
            Stream::DEFAULT,
            dev.cur,
            &part.gpu_boundary_ring,
            &mut host,
        );
        gpu.sync_device();
        // ...communicates the boundaries...
        rk.exchange_halos(&mut host);
        // ...copies halo buffers back to the GPU...
        dev.regions_h2d(gpu, Stream::DEFAULT, dev.cur, &part.gpu_halo_ring, &host);
        // ...and makes kernel calls for the faces and interior.
        dev.launch_stencil(gpu, Stream::DEFAULT, block, &part.gpu_boundary_ring);
        dev.launch_stencil(gpu, Stream::DEFAULT, block, &[part.gpu_deep_interior]);
        gpu.sync_device();
        dev.swap();
    });
    dev.region_to_host(gpu, dev.cur, host.interior_range(), &mut host);
    host
}
