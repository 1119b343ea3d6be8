//! Zero-cost-when-disabled guarantee for the metrics registry (own
//! binary: the assertion reads the process-global metric-state allocation
//! counter, which any metered run elsewhere in the same process would
//! perturb).

use advect_core::stepper::AdvectionProblem;
use overlap::{Impl, RunConfig};
use simgpu::GpuSpec;

#[test]
fn unmetered_runs_allocate_no_metric_state() {
    let spec = GpuSpec::tesla_c2050();
    let cfg = RunConfig::new(AdvectionProblem::general_case(12), 3)
        .tasks(4)
        .with_threads(2)
        .with_block((8, 8))
        .with_thickness(1);

    // Steady state: unmetered runs — CPU-only and hybrid — must not
    // create a registry or any series cell, warm or cold.
    let baseline = obs::registry::metric_states_allocated();
    for _ in 0..2 {
        let (_, report) = Impl::BulkSync.run_with_report(&cfg, None);
        assert!(!report.metrics.is_on());
        let (_, report) = Impl::HybridOverlap.run_with_report(&cfg, Some(&spec));
        assert!(!report.metrics.is_on());
    }
    assert_eq!(
        obs::registry::metric_states_allocated(),
        baseline,
        "metrics are off: no metric state may be allocated"
    );

    // Control: the counter does observe metered runs, so the zero above
    // is meaningful — and the registry carries the expected families.
    let (_, report) = Impl::BulkSync.run_with_report(&cfg.with_metrics(true), None);
    assert!(report.metrics.is_on());
    assert!(obs::registry::metric_states_allocated() > baseline);
    let prom = report.metrics.render_prometheus();
    assert!(prom.contains("advect_mpi_wait_ns"), "{prom}");
    assert!(prom.contains("advect_step_ns"), "{prom}");
    let sent = report
        .metrics
        .histogram_snapshot("advect_mpi_recv_latency_ns");
    // 4 ranks x 6 receives x 3 steps.
    assert_eq!(sent.count, 72);
}
