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

use crate::gpu_common::DeviceField;
use crate::halo::HaloBuffers;
use crate::runner::{assemble_global, local_initial_field, RunConfig};
use advect_core::field::{Field3, SharedField};
use advect_core::stencil::apply_stencil_cells_tiled;
use advect_core::team::ThreadTeam;
use decomp::partition::{shell_and_core, BoxPartition};
use decomp::ExchangePlan;
use simgpu::{Gpu, GpuSpec, StencilLaunch, Stream};
use simmpi::World;

/// The full-overlap hybrid implementation.
pub struct HybridOverlap;

impl HybridOverlap {
    /// Run and return the assembled global state (from rank 0).
    ///
    /// Panics if `cfg.thickness == 0`: the full-overlap schedule uploads
    /// the GPU's halo ring *before* the MPI exchange, which is only
    /// possible when a CPU veneer (thickness ≥ 1) separates the GPU block
    /// from the MPI halo — precisely the decoupling Section V-E credits
    /// for this implementation's performance. Thickness 0 is
    /// implementation IV-G's territory.
    pub fn run(cfg: &RunConfig, spec: &GpuSpec) -> Field3 {
        Self::run_with_report(cfg, spec).0
    }

    /// Run, returning the global state plus per-rank substrate statistics.
    pub fn run_with_report(cfg: &RunConfig, spec: &GpuSpec) -> (Field3, crate::runner::RunReport) {
        assert!(
            cfg.thickness >= 1,
            "IV-I needs a CPU veneer (thickness >= 1); use IV-G for thickness 0"
        );
        let decomp = cfg.decomposition();
        let decomp_ref = &decomp;
        let anchor = obs::Anchor::now();
        let metrics = obs::registry::Metrics::enabled(cfg.metrics);
        let metrics_ref = &metrics;
        let results = World::run_with_faults(cfg.ntasks, cfg.fault.mpi, move |comm| {
            let tracer = crate::runner::rank_instruments(cfg, comm, anchor, metrics_ref);
            let rank = comm.rank();
            let step_hist = crate::runner::step_histogram(metrics_ref, "hybrid_overlap", rank);
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
            let full = cur.interior_range();
            // Inner parts of walls (computable before MPI completes) vs.
            // outer boundary points (touching the MPI halo).
            let (inner1, outer_shell) = shell_and_core(full, 1);
            // Outer boundary points of every wall: at most 36 pieces, the
            // same every step.
            let outer_regions: Vec<_> = part
                .cpu_walls
                .iter()
                .flat_map(|w| outer_shell.iter().map(move |s| w.intersect(s)))
                .filter(|r| !r.is_empty())
                .collect();
            let s_halo = gpu.create_stream();
            comm.barrier();
            for _ in 0..cfg.steps {
                let step_t0 = step_hist.start();
                // 1. GPU interior kernel on the compute stream.
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
                // 2. Async halo-ring upload, boundary kernels, and new
                //    boundary-ring download, all on the halo stream.
                dev.regions_h2d(&gpu, s_halo, dev.cur, &part.gpu_halo_ring, &cur);
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
                dev.regions_d2h(&gpu, s_halo, dev.new, &part.gpu_boundary_ring, &mut new);
                // 3. Per-dimension: MPI phase overlapped with the inner
                //    points of that dimension's walls. `cur` is shared
                //    because the phase completion writes its halo while
                //    wall computation reads its interior — disjoint points,
                //    all routed through SharedField cells.
                {
                    let cur_shared = SharedField::new(&mut cur);
                    let writer = SharedField::new(&mut new);
                    for dim in 0..3 {
                        let phase = &plan.phases[dim];
                        let mut recvs = Vec::with_capacity(2);
                        for (i, t) in phase.transfers.iter().enumerate() {
                            let from = decomp_ref.neighbor(rank, t.dim, -t.send_dir);
                            recvs.push((i, comm.irecv(from, t.recv_tag)));
                        }
                        for (i, t) in phase.transfers.iter().enumerate() {
                            let to = decomp_ref.neighbor(rank, t.dim, t.send_dir);
                            let mut buf = halo_bufs.take(dim, i, t.send_region.len(), comm);
                            {
                                let _span = tracer.span(obs::Category::Pack, "halo.pack");
                                cur_shared.pack_into(t.send_region, &mut buf);
                            }
                            comm.send_pooled(to, t.send_tag, buf);
                        }
                        // Inner wall points of this dimension, overlapped
                        // with the communication just initiated.
                        let (lo, hi) = part.cpu_walls_of_dim(dim);
                        let walls = [lo.intersect(&inner1), hi.intersect(&inner1)];
                        let cur_ref = &cur_shared;
                        let writer_ref = &writer;
                        let throttle = comm.throttle_start();
                        {
                            let _span = tracer.span(obs::Category::ComputeVeneer, "walls.inner");
                            team.parallel(|ctx| {
                                for (i, w) in walls.iter().enumerate() {
                                    if i % ctx.num_threads == ctx.tid && !w.is_empty() {
                                        apply_stencil_cells_tiled(
                                            cur_ref, writer_ref, &stencil, *w, tile,
                                        );
                                    }
                                }
                            });
                        }
                        comm.throttle_end(throttle);
                        for (i, req) in recvs {
                            let data = req.wait();
                            {
                                let _span = tracer.span(obs::Category::Unpack, "halo.unpack");
                                cur_shared.unpack(phase.transfers[i].recv_region, &data);
                            }
                            halo_bufs.deposit(dim, i, data);
                        }
                    }
                    // 4. Outer boundary points of every wall (need halos).
                    let cur_ref = &cur_shared;
                    let writer_ref = &writer;
                    let _span = tracer.span(obs::Category::ComputeVeneer, "walls.outer");
                    team.parallel(|ctx| {
                        for (i, w) in outer_regions.iter().enumerate() {
                            if i % ctx.num_threads == ctx.tid {
                                apply_stencil_cells_tiled(cur_ref, writer_ref, &stencil, *w, tile);
                            }
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
