//! Implementation IV-C: MPI using nonblocking communication for overlap.
//!
//! The local domain is partitioned into interior points and boundary
//! points (those that touch halo points). The interior is further split
//! into thirds along z; the first third is computed between the
//! nonblocking initiation of the x communication and its completion, the
//! second within y, and the third within z. The boundary points are
//! computed after all communication completes.

use crate::halo::{complete_phase, post_phase_recvs, send_phase, HaloBuffers};
use crate::runner::{assemble_global, local_initial_field, RunConfig};
use advect_core::field::Field3;
use advect_core::stencil::apply_stencil_slab_tiled;
use advect_core::team::ThreadTeam;
use decomp::partition::{shell_and_core, thirds_along_z};
use decomp::ExchangePlan;
use simmpi::World;

/// The nonblocking-overlap distributed implementation.
pub struct NonblockingMpi;

impl NonblockingMpi {
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
            let step_hist = crate::runner::step_histogram(metrics_ref, "nonblocking", rank);
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
            let thirds = thirds_along_z(core);
            let cuts = crate::bulk_sync::z_cuts(sub.extent.2, cfg.threads);
            comm.barrier();
            for _ in 0..cfg.steps {
                let step_t0 = step_hist.start();
                // Interleave: initiate phase d, compute interior third d,
                // complete phase d.
                for (d, third) in thirds.iter().enumerate() {
                    let inflight = post_phase_recvs(&plan.phases[d], decomp_ref, rank, comm);
                    send_phase(&plan.phases[d], &cur, decomp_ref, rank, comm, &halo_bufs);
                    let throttle = comm.throttle_start();
                    {
                        let _span = tracer.span(obs::Category::ComputeInterior, "interior.third");
                        let src = &cur;
                        let slabs = new.z_slabs_mut(&cuts);
                        team.parallel_with(slabs, |_ctx, mut slab| {
                            apply_stencil_slab_tiled(src, &mut slab, &stencil, *third, tile);
                        });
                    }
                    comm.throttle_end(throttle);
                    complete_phase(inflight, &mut cur, comm, &halo_bufs);
                }
                // Boundary points after communication.
                {
                    let _span = tracer.span(obs::Category::ComputeInterior, "boundary");
                    let src = &cur;
                    let slabs = new.z_slabs_mut(&cuts);
                    team.parallel_with(slabs, |_ctx, mut slab| {
                        for region in &shell {
                            apply_stencil_slab_tiled(src, &mut slab, &stencil, *region, tile);
                        }
                    });
                }
                // Step 3: the new state becomes the current state; each
                // phase refills its halo before anything reads it.
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
