//! Cross-crate integration tests: the whole pipeline from numerics to
//! distributed and hybrid execution, checked against the serial stepper.

use advect_core::{AdvectionProblem, Field3, SerialStepper};
use overlap::{Impl, RunConfig};
use simgpu::GpuSpec;

fn reference(problem: AdvectionProblem, steps: u64) -> Field3 {
    let mut s = SerialStepper::new(problem);
    s.run(steps);
    s.state().clone()
}

#[test]
fn every_implementation_is_bit_exact_on_an_awkward_grid() {
    // A prime-ish grid and task count stresses uneven decomposition,
    // self-neighbor exchanges, and partial GPU blocks at once.
    let problem = AdvectionProblem::general_case(13);
    let steps = 3;
    let expect = reference(problem, steps);
    let spec = GpuSpec::tesla_c1060();
    for im in Impl::ALL {
        let cfg = RunConfig::new(problem, steps)
            .tasks(if im.uses_mpi() { 5 } else { 1 })
            .with_threads(3)
            .with_block((8, 4))
            .with_thickness(1);
        let got = im.run(&cfg, Some(&spec));
        assert_eq!(got.max_abs_diff(&expect), 0.0, "{} diverged", im.name());
    }
}

#[test]
fn long_run_distributed_accuracy_matches_serial_accuracy() {
    // A longer distributed run must track the analytic solution exactly
    // as well as the serial one (no error injected by communication).
    let problem = AdvectionProblem::general_case(16);
    let steps = 24;
    let serial = reference(problem, steps);
    let serial_norms = problem.norms_after(&serial, steps);
    let cfg = RunConfig::new(problem, steps).tasks(8).with_threads(2);
    let distributed = Impl::BulkSync.run(&cfg, None);
    let dist_norms = problem.norms_after(&distributed, steps);
    assert_eq!(serial_norms.linf, dist_norms.linf);
    // 16³ barely resolves the pulse (σ ≈ 1.6 cells), so the truncation
    // error is large in absolute terms; what matters is that it is the
    // *same* error and bounded.
    assert!(
        dist_norms.linf < 0.6,
        "accuracy degraded: {}",
        dist_norms.linf
    );
}

#[test]
fn hybrid_partition_respects_load_balance_parameter() {
    // More thickness → more CPU points, fewer GPU points, same answer.
    let problem = AdvectionProblem::general_case(14);
    let expect = reference(problem, 2);
    let spec = GpuSpec::tesla_c2050();
    let mut last_cpu_points = 0usize;
    for t in [1usize, 2, 3] {
        let part = decomp::BoxPartition::new((14, 14, 14), t);
        assert!(part.cpu_points() > last_cpu_points);
        last_cpu_points = part.cpu_points();
        let cfg = RunConfig::new(problem, 2)
            .tasks(2)
            .with_thickness(t)
            .with_block((8, 8));
        let got = Impl::HybridOverlap.run(&cfg, Some(&spec));
        assert_eq!(got.max_abs_diff(&expect), 0.0, "thickness {t}");
    }
}

#[test]
fn gpu_device_stats_reflect_the_schedule() {
    // The GPU-resident run should launch exactly one kernel per step and
    // move no PCIe traffic during the measured loop.
    let problem = AdvectionProblem::general_case(10);
    let cfg = RunConfig::new(problem, 5).with_block((8, 8));
    let spec = GpuSpec::tesla_c2050();
    let (state, report) = Impl::GpuResident.run_with_report(&cfg, Some(&spec));
    let stats = report.gpu[0];
    assert_eq!(stats.stencil_launches, 5);
    assert_eq!(stats.h2d_transfers, 0, "resident run must not touch PCIe");
    assert_eq!(stats.d2h_transfers, 0);
    assert_eq!(stats.points_computed, 5 * 1000);
    let expect = reference(problem, 5);
    assert_eq!(state.max_abs_diff(&expect), 0.0);
}

#[test]
fn simulated_cluster_runs_many_ranks() {
    // 27 ranks (3×3×3 process grid) on threads: a real all-to-neighbors
    // workout for the message-passing substrate.
    let problem = AdvectionProblem::general_case(18);
    let expect = reference(problem, 2);
    let cfg = RunConfig::new(problem, 2).tasks(27).with_threads(1);
    let got = Impl::Nonblocking.run(&cfg, None);
    assert_eq!(got.max_abs_diff(&expect), 0.0);
}
