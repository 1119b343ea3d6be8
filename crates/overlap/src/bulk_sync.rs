//! Implementation IV-B: bulk-synchronous MPI.
//!
//! Each step performs the whole halo exchange (dimension-serialized,
//! nonblocking receives posted first), then the full local stencil, then
//! the state advance (a buffer swap) — no overlap of communication and
//! computation.

use crate::halo::{exchange_halos, HaloBuffers};
use crate::runner::{assemble_global, local_initial_field, RunConfig};
use advect_core::field::Field3;
use advect_core::stencil::apply_stencil_slab_tiled;
use advect_core::team::ThreadTeam;
use decomp::ExchangePlan;
use simmpi::World;

/// Static z cut points for a thread team — the threads-aware partitioner
/// now lives in `advect_core::tile`; re-exported for the other runners.
pub(crate) use advect_core::tile::z_cuts;

/// The bulk-synchronous distributed implementation.
pub struct BulkSyncMpi;

impl BulkSyncMpi {
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
            let step_hist = crate::runner::step_histogram(metrics_ref, "bulk_sync", rank);
            let sub = decomp_ref.subdomains[rank];
            let mut cur = local_initial_field(cfg, decomp_ref, rank);
            let mut new = Field3::new(sub.extent.0, sub.extent.1, sub.extent.2, 1);
            let plan = ExchangePlan::new(sub.extent, 1);
            let halo_bufs = HaloBuffers::new(&plan, comm);
            let team = ThreadTeam::new(cfg.threads);
            let cuts = z_cuts(sub.extent.2, cfg.threads);
            let region = cur.interior_range();
            comm.barrier(); // the paper barriers before starting the timer
            for _ in 0..cfg.steps {
                let step_t0 = step_hist.start();
                // Step 1: full exchange, master thread drives communication.
                exchange_halos(&mut cur, &plan, decomp_ref, rank, comm, &halo_bufs);
                // Step 2: stencil over the whole interior, threaded by z-slab.
                let throttle = comm.throttle_start();
                {
                    let _span = tracer.span(obs::Category::ComputeInterior, "stencil");
                    let src = &cur;
                    let stencil = cfg.problem.stencil();
                    let tile = cfg.tile_spec(cur.extents().0);
                    let slabs = new.z_slabs_mut(&cuts);
                    team.parallel_with(slabs, |_ctx, mut slab| {
                        apply_stencil_slab_tiled(src, &mut slab, &stencil, region, tile);
                    });
                }
                comm.throttle_end(throttle);
                // Step 3: the new state becomes the current state; the
                // next exchange refills its whole halo before any read.
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
