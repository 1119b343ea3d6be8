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
use crate::halo::{exchange_halos, HaloBuffers};
use crate::runner::{assemble_global, local_initial_field, RunConfig};
use advect_core::field::{Field3, SharedField};
use advect_core::stencil::apply_stencil_shared_tiled;
use advect_core::team::ThreadTeam;
use decomp::partition::BoxPartition;
use decomp::ExchangePlan;
use simgpu::{Gpu, GpuSpec, StencilLaunch, Stream};
use simmpi::World;

/// The hybrid bulk-synchronous implementation.
pub struct HybridBulkSync;

impl HybridBulkSync {
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
            let step_hist = crate::runner::step_histogram(metrics_ref, "hybrid_bulk_sync", rank);
            let sub = decomp_ref.subdomains[rank];
            let gpu = Gpu::new(spec.clone()).with_fault_plan(cfg.fault.gpu.for_rank(rank));
            gpu.install_tracer(tracer.clone());
            gpu.install_metrics(metrics_ref, rank);
            gpu.set_constant(cfg.problem.stencil().a);
            let mut cur = local_initial_field(cfg, decomp_ref, rank);
            let mut new = Field3::new(sub.extent.0, sub.extent.1, sub.extent.2, 1);
            let mut dev = DeviceField::from_host(&gpu, &cur);
            let part = BoxPartition::new(sub.extent, cfg.thickness);
            let plan = ExchangePlan::new(sub.extent, 1);
            let halo_bufs = HaloBuffers::new(&plan, comm);
            let team = ThreadTeam::new(cfg.threads);
            let stencil = cfg.problem.stencil();
            let tile = cfg.tile_spec(cur.extents().0);
            comm.barrier();
            for _ in 0..cfg.steps {
                let step_t0 = step_hist.start();
                // Inner exchange: GPU boundary ring to the CPU...
                dev.regions_d2h(
                    &gpu,
                    Stream::DEFAULT,
                    dev.cur,
                    &part.gpu_boundary_ring,
                    &mut cur,
                );
                gpu.sync_device();
                // ...outer exchange: MPI halos...
                exchange_halos(&mut cur, &plan, decomp_ref, rank, comm, &halo_bufs);
                // ...inner exchange: CPU ring back to the GPU as its halo.
                dev.regions_h2d(&gpu, Stream::DEFAULT, dev.cur, &part.gpu_halo_ring, &cur);
                // GPU kernels for the inner block points (async)...
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
                // ...while the CPU computes the outer box points.
                let throttle = comm.throttle_start();
                {
                    let _span = tracer.span(obs::Category::ComputeVeneer, "cpu.walls");
                    let src = &cur;
                    let writer = SharedField::new(&mut new);
                    let walls = &part.cpu_walls;
                    team.parallel(|ctx| {
                        for (i, w) in walls.iter().enumerate() {
                            if i % ctx.num_threads == ctx.tid && !w.is_empty() {
                                apply_stencil_shared_tiled(src, &writer, &stencil, *w, tile);
                            }
                        }
                    });
                }
                // State copy: CPU walls; the GPU flips buffers.
                for w in &part.cpu_walls {
                    cur.copy_region_from(&new, *w);
                }
                comm.throttle_end(throttle);
                gpu.sync_device();
                dev.swap();
                step_hist.observe_since(step_t0);
            }
            comm.barrier();
            // Pull the GPU block into the host state for verification.
            dev.region_to_host(&gpu, dev.cur, part.gpu_block, &mut cur);
            crate::runner::absorb_device_timeline(&tracer, &gpu);
            (
                assemble_global(cfg, decomp_ref, comm, &cur),
                comm.stats(),
                comm.fault_stats(),
                Some(gpu.stats()),
                crate::runner::finish_trace(&tracer),
            )
        });
        crate::runner::collect_report(results, metrics)
    }
}
