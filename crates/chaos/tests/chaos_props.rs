//! Property tests for the fault-injection subsystem, at the level the
//! paper's claims live: overlap structure and bit-exact reproducibility
//! of whole runs, not individual mailbox operations.

use advect_core::stepper::AdvectionProblem;
use obs::busy::PairOverlap;
use overlap::{FaultSpec, Impl, RunConfig, RunReport};
use proptest::prelude::*;
use simgpu::GpuSpec;

fn traced_config(im: Impl, fault: FaultSpec) -> RunConfig {
    let mut cfg = RunConfig::new(AdvectionProblem::general_case(12), 3)
        .with_threads(2)
        .with_block((8, 8))
        .with_thickness(1)
        .with_trace(true)
        .with_faults(fault);
    if im.uses_mpi() {
        cfg = cfg.tasks(4);
    }
    cfg
}

fn run(im: Impl, fault: FaultSpec) -> (advect_core::field::Field3, RunReport) {
    let spec = GpuSpec::tesla_c2050();
    let cfg = traced_config(im, fault);
    im.run_with_report(&cfg, im.uses_gpu().then_some(&spec))
}

/// The deterministic slice of a run: message/value counters and the
/// seed-driven fault counters. Wall-clock-dependent fields (wait times,
/// peak in-flight bytes, pool hit rates, stall durations) legitimately
/// vary run-to-run and are masked out.
fn deterministic_view(report: &RunReport) -> Vec<(simmpi::CommStats, simmpi::FaultStats)> {
    report
        .comm
        .iter()
        .zip(&report.fault)
        .map(|(c, f)| {
            let mut c = *c;
            c.wait_ns = 0;
            c.peak_bytes_in_flight = 0;
            c.buffers_allocated = 0;
            c.buffers_recycled = 0;
            (c, f.deterministic_view())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same seed, same schedule: a chaos run replays byte-identically —
    /// the final field AND the deterministic counters (messages held,
    /// dropped, redelivered per rank) match across repeat runs.
    #[test]
    fn fault_schedule_replays_from_seed(seed in 0u64..1_000_000) {
        let fault = FaultSpec::chaos(seed);
        let (field_a, report_a) = run(Impl::BulkSync, fault);
        let (field_b, report_b) = run(Impl::BulkSync, fault);
        prop_assert_eq!(field_a.max_abs_diff(&field_b), 0.0);
        prop_assert_eq!(deterministic_view(&report_a), deterministic_view(&report_b));
        // And the schedule actually perturbed something, so the replay
        // equality is not vacuous.
        prop_assert!(report_a.total_delayed() > 0);
    }

    /// Bulk-synchronous MPI (IV-B) cannot overlap: every receive blocks
    /// before compute starts. Fault injection stretches the comm phases
    /// but must never manufacture overlap — the measured MPI/compute
    /// overlap stays exactly zero under any jitter/reorder/drop schedule.
    #[test]
    fn bulk_sync_overlap_stays_exactly_zero_under_faults(seed in 0u64..1_000_000) {
        let (_, report) = run(Impl::BulkSync, FaultSpec::chaos(seed));
        let o: PairOverlap = report.mpi_compute_overlap();
        prop_assert!(o.busy_a > 0.0 && o.busy_b > 0.0);
        prop_assert_eq!(o.both, 0.0);
    }

    /// IV-I keeps overlapping on both axes (MPI/compute on the wall
    /// clock, PCIe/compute on the device timeline) under moderate
    /// latency jitter: delayed halos widen the in-flight window the
    /// wall computation already covers.
    #[test]
    fn hybrid_overlap_survives_moderate_jitter(seed in 0u64..1_000_000) {
        let fault = FaultSpec {
            mpi: simmpi::FaultPlan::off().with_jitter_ns(20_000).with_seed(seed),
            gpu: simgpu::GpuFaultPlan::off().with_launch_jitter_s(1e-6),
        };
        let (_, report) = run(Impl::HybridOverlap, fault);
        prop_assert!(report.mpi_compute_overlap().both > 0.0);
        prop_assert!(report.pcie_compute_overlap().both > 0.0);
    }
}

/// Every fault category shows up in the exported Chrome trace and the
/// trace still validates: stalls (bounded-wait timeouts), redeliveries
/// (dropped halos arriving late), and straggler throttles.
#[test]
fn fault_spans_validate_through_chrome_trace() {
    let fault = FaultSpec {
        mpi: simmpi::FaultPlan::off()
            .with_seed(5)
            .with_drops(1.0, 2_000_000)
            .with_wait_timeout_ns(200_000)
            .with_stragglers(1.0, 1.3),
        gpu: simgpu::GpuFaultPlan::off(),
    };
    let (_, report) = run(Impl::BulkSync, fault);
    assert!(report.total_retries() > 0, "no bounded-wait retries fired");
    assert!(report.total_redelivered() > 0, "no drops redelivered");
    assert!(report.total_throttle_ns() > 0, "no straggler throttle");
    let text = obs::chrome::chrome_trace(&report.traces);
    let check = obs::validate::validate_chrome_trace(&text).expect("fault trace must validate");
    assert!(
        check.has_categories(&["fault.stall", "fault.redeliver", "fault.throttle"]),
        "missing fault categories in {:?}",
        check.categories
    );
}

/// The allreduce-using scalar path stays exact under allreduce
/// stragglers: `ScalarSlots` folds in rank order, so timing cannot
/// change the sum. (The advection runners don't allreduce; cover the
/// path here so the soak's scope is honest about it.)
#[test]
fn allreduce_results_exact_under_stragglers() {
    use simmpi::{FaultPlan, World};
    let plan = FaultPlan::off()
        .with_seed(31)
        .with_stragglers(0.5, 2.0)
        .with_allreduce_jitter_ns(100_000);
    let sums = World::run_with_faults(5, plan, |comm| {
        let x = (comm.rank() as f64 + 1.0) * 0.1;
        comm.allreduce_sum(x)
    });
    for s in sums {
        assert_eq!(s, 0.1 + 0.2 + 0.3 + 0.4 + 0.5);
    }
}
