//! Implementation IV-D: MPI using OpenMP threading for overlap.
//!
//! Instead of nonblocking MPI, an asynchronous thread overlaps the
//! communication: the master thread (`!$omp master`) performs the
//! (blocking) MPI exchange and then joins the computation of interior
//! points, while the other threads begin computing interior points
//! immediately. The interior loop uses `schedule(guided)` — chunks
//! proportional to the remaining work divided by the number of threads —
//! so the late-joining master picks up whatever remains. An OpenMP
//! barrier ensures communication is complete before the boundary points
//! are computed.
//!
//! The concurrent halo mutation (master) and interior reads (workers) are
//! disjoint by the interior/boundary split; both go through
//! [`advect_core::field::SharedField`]'s `UnsafeCell` cells, keeping the
//! overlap sound.

use crate::halo::{exchange_halos_shared, HaloBuffers};
use crate::runner::{assemble_global, local_initial_field, RunConfig};
use advect_core::field::{Field3, Range3, SharedField};
use advect_core::stencil::apply_stencil_cells_tiled;
use advect_core::team::{GuidedChunks, ThreadTeam};
use decomp::partition::shell_and_core;
use decomp::ExchangePlan;
use simmpi::World;

/// The OpenMP-thread-overlap distributed implementation.
pub struct ThreadOverlapMpi;

impl ThreadOverlapMpi {
    /// Run and return the assembled global state (from rank 0).
    pub fn run(cfg: &RunConfig) -> Field3 {
        Self::run_with_report(cfg).0
    }

    /// Run, returning the global state plus per-rank substrate statistics.
    pub fn run_with_report(cfg: &RunConfig) -> (Field3, crate::runner::RunReport) {
        let decomp = cfg.decomposition();
        let decomp_ref = &decomp;
        let anchor = obs::Anchor::now();
        let metrics = obs::registry::Metrics::enabled(cfg.metrics);
        let metrics_ref = &metrics;
        let results = World::run_with_faults(cfg.ntasks, cfg.fault.mpi, move |comm| {
            let tracer = crate::runner::rank_instruments(cfg, comm, anchor, metrics_ref);
            let rank = comm.rank();
            let step_hist = crate::runner::step_histogram(metrics_ref, "thread_overlap", rank);
            let sub = decomp_ref.subdomains[rank];
            let mut cur = local_initial_field(cfg, decomp_ref, rank);
            let mut new = Field3::new(sub.extent.0, sub.extent.1, sub.extent.2, 1);
            let plan = ExchangePlan::new(sub.extent, 1);
            let halo_bufs = HaloBuffers::new(&plan, comm);
            let team = ThreadTeam::new(cfg.threads);
            let stencil = cfg.problem.stencil();
            let tile = cfg.tile_spec(cur.extents().0);
            let full = cur.interior_range();
            let (core, shell) = shell_and_core(full, 1);
            comm.barrier();
            for _ in 0..cfg.steps {
                let step_t0 = step_hist.start();
                {
                    let core_planes = (core.z.1 - core.z.0).max(0) as usize;
                    let queue = GuidedChunks::new(0..core_planes, cfg.threads, 1);
                    let cur_shared = SharedField::new(&mut cur);
                    let new_shared = SharedField::new(&mut new);
                    let cur_ref = &cur_shared;
                    let new_ref = &new_shared;
                    let tracer_ref = &tracer;
                    team.parallel(|ctx| {
                        let mut throttle = None;
                        if ctx.is_master() {
                            // Master: communicate, then join the guided loop.
                            exchange_halos_shared(
                                cur_ref, &plan, decomp_ref, rank, comm, &halo_bufs,
                            );
                            // The straggler-throttled section: the master's
                            // pure compute, after its comm window.
                            throttle = comm.throttle_start();
                        }
                        {
                            let _span =
                                tracer_ref.span(obs::Category::ComputeInterior, "interior.guided");
                            while let Some(chunk) = queue.next_chunk() {
                                let region = Range3::new(
                                    core.x,
                                    core.y,
                                    (core.z.0 + chunk.start as i64, core.z.0 + chunk.end as i64),
                                );
                                apply_stencil_cells_tiled(cur_ref, new_ref, &stencil, region, tile);
                            }
                        }
                        // Communication (master reached here) is complete
                        // before any thread computes boundary points.
                        ctx.barrier();
                        for (i, region) in shell.iter().enumerate() {
                            if i % ctx.num_threads == ctx.tid {
                                apply_stencil_cells_tiled(
                                    cur_ref, new_ref, &stencil, *region, tile,
                                );
                            }
                        }
                        comm.throttle_end(throttle);
                    });
                }
                // Step 3: the new state becomes the current state (the
                // shared views ended with the block above); the next
                // exchange refills its whole halo before any read.
                std::mem::swap(&mut cur, &mut new);
                step_hist.observe_since(step_t0);
            }
            comm.barrier();
            (
                assemble_global(cfg, decomp_ref, comm, &cur),
                comm.stats(),
                comm.fault_stats(),
                None,
                crate::runner::finish_trace(&tracer),
            )
        });
        crate::runner::collect_report(results, metrics)
    }
}
