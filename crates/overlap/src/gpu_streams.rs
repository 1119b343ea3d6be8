//! Implementation IV-G: GPU with MPI overlap using CUDA streams.
//!
//! Two streams: the interior kernel runs on one while the other carries
//! the halo traffic — CPU-GPU buffer copies, then the boundary-face
//! kernels. The interior computation thus overlaps the MPI communication,
//! the buffer copies, and (on GPUs with concurrent kernels) the boundary
//! computation. The CPU ends the step by synchronizing the two streams.

use crate::gpu_common::DeviceField;
use crate::halo::{exchange_halos, HaloBuffers};
use crate::runner::{assemble_global, local_initial_field, RunConfig};
use advect_core::field::Field3;
use decomp::partition::BoxPartition;
use decomp::ExchangePlan;
use simgpu::{Gpu, GpuSpec, StencilLaunch, Stream};
use simmpi::World;

/// The streams-overlap multi-GPU implementation.
pub struct GpuStreamsMpi;

impl GpuStreamsMpi {
    /// Run and return the assembled global state (from rank 0).
    pub fn run(cfg: &RunConfig, spec: &GpuSpec) -> Field3 {
        Self::run_with_report(cfg, spec).0
    }

    /// Run, returning the global state plus per-rank substrate statistics.
    pub fn run_with_report(cfg: &RunConfig, spec: &GpuSpec) -> (Field3, crate::runner::RunReport) {
        let decomp = cfg.decomposition();
        let decomp_ref = &decomp;
        let anchor = obs::Anchor::now();
        let metrics = obs::registry::Metrics::enabled(cfg.metrics);
        let metrics_ref = &metrics;
        let results = World::run_with_faults(cfg.ntasks, cfg.fault.mpi, move |comm| {
            let tracer = crate::runner::rank_instruments(cfg, comm, anchor, metrics_ref);
            let rank = comm.rank();
            let step_hist = crate::runner::step_histogram(metrics_ref, "gpu_streams", rank);
            let sub = decomp_ref.subdomains[rank];
            let gpu = Gpu::new(spec.clone()).with_fault_plan(cfg.fault.gpu.for_rank(rank));
            gpu.install_tracer(tracer.clone());
            gpu.install_metrics(metrics_ref, rank);
            gpu.set_constant(cfg.problem.stencil().a);
            let mut host = local_initial_field(cfg, decomp_ref, rank);
            let mut dev = DeviceField::from_host(&gpu, &host);
            let part = BoxPartition::new(sub.extent, 0);
            let plan = ExchangePlan::new(sub.extent, 1);
            let halo_bufs = HaloBuffers::new(&plan, comm);
            let s_halo = gpu.create_stream();
            comm.barrier();
            for _ in 0..cfg.steps {
                let step_t0 = step_hist.start();
                // Interior kernel first, on the default stream: it overlaps
                // everything the halo stream does below.
                if !part.gpu_deep_interior.is_empty() {
                    gpu.launch_stencil(
                        Stream::DEFAULT,
                        dev.cur,
                        dev.new,
                        StencilLaunch {
                            dims: dev.dims,
                            region: part.gpu_deep_interior,
                            block: cfg.block,
                            periodic: false,
                        },
                    );
                }
                // Halo stream: boundary buffers out, MPI, halo buffers in,
                // boundary kernels.
                dev.regions_d2h(&gpu, s_halo, dev.cur, &part.gpu_boundary_ring, &mut host);
                gpu.sync_stream(s_halo);
                exchange_halos(&mut host, &plan, decomp_ref, rank, comm, &halo_bufs);
                dev.regions_h2d(&gpu, s_halo, dev.cur, &part.gpu_halo_ring, &host);
                for &face in &part.gpu_boundary_ring {
                    if face.is_empty() {
                        continue;
                    }
                    gpu.launch_stencil(
                        s_halo,
                        dev.cur,
                        dev.new,
                        StencilLaunch {
                            dims: dev.dims,
                            region: face,
                            block: cfg.block,
                            periodic: false,
                        },
                    );
                }
                // The CPU ends the time step by synchronizing the streams.
                gpu.sync_device();
                dev.swap();
                step_hist.observe_since(step_t0);
            }
            comm.barrier();
            dev.region_to_host(&gpu, dev.cur, host.interior_range(), &mut host);
            crate::runner::absorb_device_timeline(&tracer, &gpu);
            (
                assemble_global(cfg, decomp_ref, comm, &host),
                comm.stats(),
                comm.fault_stats(),
                Some(gpu.stats()),
                crate::runner::finish_trace(&tracer),
            )
        });
        crate::runner::collect_report(results, metrics)
    }
}
