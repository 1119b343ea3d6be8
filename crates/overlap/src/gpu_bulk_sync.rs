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
use crate::halo::{exchange_halos, HaloBuffers};
use crate::runner::{assemble_global, local_initial_field, RunConfig};
use advect_core::field::Field3;
use decomp::partition::BoxPartition;
use decomp::ExchangePlan;
use simgpu::{Gpu, GpuSpec, StencilLaunch, Stream};
use simmpi::World;

/// The bulk-synchronous multi-GPU implementation.
pub struct GpuBulkSyncMpi;

impl GpuBulkSyncMpi {
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
            let step_hist = crate::runner::step_histogram(metrics_ref, "gpu_bulk_sync", rank);
            let sub = decomp_ref.subdomains[rank];
            let gpu = Gpu::new(spec.clone()).with_fault_plan(cfg.fault.gpu.for_rank(rank));
            gpu.install_tracer(tracer.clone());
            gpu.install_metrics(metrics_ref, rank);
            gpu.set_constant(cfg.problem.stencil().a);
            // Host mirror: only its skin and halos are kept current.
            let mut host = local_initial_field(cfg, decomp_ref, rank);
            let mut dev = DeviceField::from_host(&gpu, &host);
            // With no CPU box (thickness 0) the GPU block is the whole
            // subdomain; the partition provides the face/interior split.
            let part = BoxPartition::new(sub.extent, 0);
            let plan = ExchangePlan::new(sub.extent, 1);
            let halo_bufs = HaloBuffers::new(&plan, comm);
            comm.barrier();
            for _ in 0..cfg.steps {
                let step_t0 = step_hist.start();
                // CPU copies boundary buffers from the GPU...
                dev.regions_d2h(
                    &gpu,
                    Stream::DEFAULT,
                    dev.cur,
                    &part.gpu_boundary_ring,
                    &mut host,
                );
                gpu.sync_device();
                // ...communicates the boundaries...
                exchange_halos(&mut host, &plan, decomp_ref, rank, comm, &halo_bufs);
                // ...copies halo buffers back to the GPU...
                dev.regions_h2d(&gpu, Stream::DEFAULT, dev.cur, &part.gpu_halo_ring, &host);
                // ...and makes kernel calls for the faces and interior.
                for &face in &part.gpu_boundary_ring {
                    if face.is_empty() {
                        continue;
                    }
                    gpu.launch_stencil(
                        Stream::DEFAULT,
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
