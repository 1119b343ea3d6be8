//! Implementation IV-E: GPU resident.
//!
//! The whole problem lives in GPU global memory for the length of the
//! computation, with no memory exchanges with the CPU: the layout is
//! halo-free and the kernel's halo threads wrap around the global domain
//! to implement periodicity. The CPU issues one kernel call per step,
//! flipping the arguments between two state buffers. This is the
//! best-case scenario the parallel GPU implementations are measured
//! against (86 GF on Yona, Section V-E).

use crate::runner::{RunConfig, RunReport};
use advect_core::field::Field3;
use simgpu::{FieldDims, Gpu, GpuSpec, StencilLaunch, Stream};

/// The single-GPU resident implementation.
pub struct GpuResident;

impl GpuResident {
    /// Run on a device of the given spec; returns the final state.
    pub fn run(cfg: &RunConfig, spec: &GpuSpec) -> Field3 {
        assert_eq!(cfg.ntasks, 1, "IV-E runs on a single task");
        let gpu = Gpu::new(spec.clone());
        Self::run_on(cfg, &gpu)
    }

    /// Run on a fresh device, returning the final state plus a report
    /// carrying the device counters (and, when traced, the kernel-launch
    /// wall spans plus the device timeline bridged onto the virtual axis).
    pub fn run_with_report(cfg: &RunConfig, spec: &GpuSpec) -> (Field3, RunReport) {
        assert_eq!(cfg.ntasks, 1, "IV-E runs on a single task");
        let gpu = Gpu::new(spec.clone()).with_fault_plan(cfg.fault.gpu);
        let tracer = obs::Tracer::enabled(cfg.trace, 0, obs::Anchor::now());
        let metrics = obs::registry::Metrics::enabled(cfg.metrics);
        gpu.install_tracer(tracer.clone());
        gpu.install_metrics(&metrics, 0);
        let out = Self::run_on(cfg, &gpu);
        crate::runner::absorb_device_timeline(&tracer, &gpu);
        let mut report = RunReport {
            comm: vec![simmpi::CommStats::default()],
            fault: vec![simmpi::FaultStats::default()],
            gpu: vec![gpu.stats()],
            metrics,
            ..RunReport::default()
        };
        if let Some(t) = crate::runner::finish_trace(&tracer) {
            report.traces.push(t);
        }
        (out, report)
    }

    /// Run on an existing device (lets callers inspect device stats).
    pub fn run_on(cfg: &RunConfig, gpu: &Gpu) -> Field3 {
        let n = cfg.problem.n;
        let dims = FieldDims {
            nx: n,
            ny: n,
            nz: n,
            halo: 0,
        };
        gpu.set_constant(cfg.problem.stencil().a);
        // The halo-free device image is the host interior packed x fastest.
        let init = cfg.problem.initial_field();
        let mut cur = gpu.alloc(dims.len());
        let mut new = gpu.alloc(dims.len());
        gpu.upload_untimed(cur, &init.pack_vec(init.interior_range()));
        // The CPU and GPU synchronize immediately before timer calls; the
        // initial copy is excluded from measurement.
        gpu.sync_device();
        gpu.reset_clock();
        for _ in 0..cfg.steps {
            gpu.launch_stencil(
                Stream::DEFAULT,
                cur,
                new,
                StencilLaunch {
                    dims,
                    region: dims.interior(),
                    block: cfg.block,
                    periodic: true,
                },
            );
            std::mem::swap(&mut cur, &mut new);
        }
        gpu.sync_device();
        let mut out = Field3::new(n, n, n, 1);
        gpu.read_untimed(cur, |data| out.unpack(out.interior_range(), data));
        out
    }
}
