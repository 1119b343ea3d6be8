//! Implementation IV-E: GPU resident.
//!
//! The whole problem lives in GPU global memory for the length of the
//! computation, with no memory exchanges with the CPU: the layout is
//! halo-free and the kernel's halo threads wrap around the global domain
//! to implement periodicity. The CPU issues one kernel call per step,
//! flipping the arguments between two state buffers. This is the
//! best-case scenario the parallel GPU implementations are measured
//! against (86 GF on Yona, Section V-E).

use crate::runner::Single;
use advect_core::field::Field3;
use simgpu::{FieldDims, StencilLaunch, Stream};

pub(crate) fn run(task: &Single<'_>) -> Field3 {
    let (cfg, gpu) = (task.cfg, task.gpu());
    let n = cfg.problem.n;
    let dims = FieldDims {
        nx: n,
        ny: n,
        nz: n,
        halo: 0,
    };
    let launch = StencilLaunch {
        dims,
        region: dims.interior(),
        block: cfg.block,
        periodic: true,
    };
    // The halo-free device image is the host interior packed x fastest.
    let init = cfg.problem.initial_field();
    let mut cur = gpu.alloc(dims.len());
    let mut new = gpu.alloc(dims.len());
    gpu.upload_untimed(cur, &init.pack_vec(init.interior_range()));
    // The CPU and GPU synchronize immediately before timer calls; the
    // initial copy is excluded from measurement.
    gpu.sync_device();
    gpu.reset_clock();
    task.timed_steps(|| {
        gpu.launch_stencil(Stream::DEFAULT, cur, new, launch);
        std::mem::swap(&mut cur, &mut new);
    });
    gpu.sync_device();
    let mut out = Field3::new(n, n, n, 1);
    gpu.read_untimed(cur, |data| out.unpack(out.interior_range(), data));
    out
}
