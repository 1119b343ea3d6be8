//! Critical-path attribution tests: the analyzer must agree with the
//! structural overlap facts the schedules are built around. IV-B hides
//! nothing — its MPI waits sit squarely on the critical path. IV-I hides
//! its PCIe traffic behind the interior kernel on the device timeline and
//! most of its MPI behind the CPU veneer on the wall clock.

use advect_core::stepper::AdvectionProblem;
use obs::busy::{merge_intervals, union_seconds};
use obs::{Axis, Category};
use overlap::{Impl, RunConfig};
use simgpu::GpuSpec;

fn cfg(tasks: usize, steps: u64) -> RunConfig {
    RunConfig::new(AdvectionProblem::general_case(20), steps)
        .tasks(tasks)
        .with_threads(2)
        .with_block((8, 8))
        .with_thickness(1)
        .with_trace(true)
}

#[test]
fn bulk_sync_critical_path_contains_its_full_mpi_wait() {
    // IV-B is serial within a rank: every mpi.wait window sits on the
    // critical path in its entirety — nothing runs concurrently on the
    // rank's own thread to hide it.
    let (_, report) = Impl::BulkSync.run_with_report(&cfg(4, 3), None);
    let breakdown = report.critical_breakdown(Axis::Wall);
    assert_eq!(breakdown.ranks.len(), 4);
    for cp in &breakdown.ranks {
        let trace = report
            .traces
            .iter()
            .find(|t| t.rank == cp.rank)
            .expect("trace for rank");
        let wait_busy = union_seconds(&merge_intervals(
            trace
                .spans
                .iter()
                .filter(|s| s.cat == Category::MpiWait)
                .filter_map(|s| s.interval_on(Axis::Wall))
                .collect(),
        ));
        let attributed = cp.attributed_to(Category::MpiWait);
        assert!(wait_busy > 0.0, "rank {}: no mpi.wait measured", cp.rank);
        assert!(
            attributed >= 0.99 * wait_busy,
            "rank {}: wait busy-union {:.3e}s but only {:.3e}s on the \
             critical path — IV-B cannot hide waits",
            cp.rank,
            wait_busy,
            attributed
        );
        assert_eq!(
            cp.slack_of(Category::MpiWait),
            0.0,
            "rank {}: IV-B must have no hidden wait time",
            cp.rank
        );
    }
}

#[test]
fn hybrid_overlap_device_critical_path_is_compute_dominated() {
    // IV-I on the device timeline: the interior kernel dominates; the
    // PCIe ring traffic largely hides behind it (nonzero h2d slack) and
    // contributes less to the critical path than compute does.
    let spec = GpuSpec::tesla_c2050();
    for thickness in [1usize, 2, 3] {
        // A volume-dominated GPU block: on tiny blocks the ring traffic
        // (surface-scaled) can rival the interior kernel (volume-scaled),
        // which is Figure 1's economics, not a profiler defect.
        let c = RunConfig::new(AdvectionProblem::general_case(32), 2)
            .tasks(2)
            .with_threads(2)
            .with_block((8, 8))
            .with_thickness(thickness)
            .with_trace(true);
        let (_, report) = Impl::HybridOverlap.run_with_report(&c, Some(&spec));
        let breakdown = report.critical_breakdown(Axis::Virtual);
        let agg = breakdown.aggregate();
        println!(
            "== thickness {thickness} virtual ==\n{}",
            breakdown.render_markdown()
        );
        assert_eq!(
            breakdown.dominant(),
            Some(Category::ComputeInterior),
            "thickness {thickness}: device critical path must be \
             dominated by the interior kernel"
        );
        assert!(
            agg.slack_of(Category::PcieH2d) > 0.0,
            "thickness {thickness}: halo-ring uploads must be at least \
             partly hidden behind the interior kernel"
        );
        // Each PCIe direction individually contributes less to the
        // critical path than the interior kernel. (At thickness 1 the
        // GPU block on this grid is surface-dominated, so the *sum* of
        // both directions can exceed compute — the per-direction claim
        // is the structural one.)
        let compute = agg.attributed_to(Category::ComputeInterior);
        for dir in [Category::PcieH2d, Category::PcieD2h] {
            assert!(
                agg.attributed_to(dir) < compute,
                "thickness {thickness}: {dir:?} {:.3e}s on the critical \
                 path vs compute.interior {compute:.3e}s",
                agg.attributed_to(dir)
            );
        }
    }
}

#[test]
fn hybrid_overlap_wall_recv_windows_carry_slack_behind_active_work() {
    // IV-I on the wall clock. Comparative share claims (bulk spends more
    // of its path exchanging than hybrid) are properties of *actual*
    // concurrency, and on an oversubscribed host the OS scheduler — not
    // the schedule structure — decides them, so they are printed for
    // inspection but not asserted. What IS schedule-independent is the
    // within-rank structure: in IV-I every rank posts its irecvs, then
    // runs sends and the CPU veneer *inside* those in-flight windows on
    // the same thread, so higher-priority work always shadows part of
    // each window (attributed recv time < the windows' busy union), and
    // the veneer itself does on-path work.
    let spec = GpuSpec::tesla_c2050();
    let (_, bulk) = Impl::BulkSync.run_with_report(&cfg(4, 3), None);
    let (_, hybrid) = Impl::HybridOverlap.run_with_report(&cfg(4, 3), Some(&spec));
    let bulk_agg = bulk.critical_breakdown(Axis::Wall).aggregate();
    let hybrid_bd = hybrid.critical_breakdown(Axis::Wall);
    let hybrid_agg = hybrid_bd.aggregate();
    println!(
        "== IV-B wall ==\n{}",
        bulk.critical_breakdown(Axis::Wall).render_markdown()
    );
    println!("== IV-I wall ==\n{}", hybrid_bd.render_markdown());
    let mpi_share = |agg: &obs::critical::CriticalPath| {
        let exchange = agg.attributed_to(Category::MpiSend)
            + agg.attributed_to(Category::MpiRecv)
            + agg.attributed_to(Category::MpiWait);
        exchange / agg.total_attributed()
    };
    println!(
        "exchange share (informational): bulk {:.3} hybrid {:.3}",
        mpi_share(&bulk_agg),
        mpi_share(&hybrid_agg)
    );
    // Note `slack_of` would be too strong here: slack counts *fully*
    // hidden spans, and every in-flight window keeps at least a sliver
    // of attribution (between the irecv post and the first send). The
    // structural fact is partial shadowing: the veneer span lies wholly
    // inside the windows, so attributed recv time is strictly less than
    // the windows' busy union.
    for cp in &hybrid_bd.ranks {
        let trace = hybrid
            .traces
            .iter()
            .find(|t| t.rank == cp.rank)
            .expect("trace for rank");
        let recv_busy = union_seconds(&merge_intervals(
            trace
                .spans
                .iter()
                .filter(|s| s.cat == Category::MpiRecv)
                .filter_map(|s| s.interval_on(Axis::Wall))
                .collect(),
        ));
        let shadowed = recv_busy - cp.attributed_to(Category::MpiRecv);
        assert!(
            shadowed > 0.0,
            "rank {}: IV-I in-flight receive windows must be partly \
             shadowed by the sends/veneer running inside them \
             (busy {recv_busy:.3e}s, shadowed {shadowed:.3e}s)",
            cp.rank
        );
    }
    assert!(
        hybrid_agg.attributed_to(Category::ComputeVeneer) > 0.0,
        "IV-I's CPU veneer must do on-path work"
    );
    // The veneer category is IV-I's own: a bulk-synchronous run never
    // emits it, so its critical path cannot contain it.
    assert_eq!(bulk_agg.attributed_to(Category::ComputeVeneer), 0.0);
}
