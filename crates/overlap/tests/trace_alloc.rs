//! Zero-cost-when-disabled guarantee (own binary: the assertion reads the
//! process-global trace-buffer allocation counter, which any traced run
//! elsewhere in the same process would perturb).

use advect_core::stepper::AdvectionProblem;
use overlap::{Impl, RunConfig};
use simgpu::GpuSpec;

#[test]
fn untraced_runs_allocate_no_trace_buffers() {
    let spec = GpuSpec::tesla_c2050();
    let cfg = RunConfig::new(AdvectionProblem::general_case(12), 3)
        .tasks(4)
        .with_threads(2)
        .with_block((8, 8))
        .with_thickness(1);

    // Steady state: untraced runs — CPU-only and hybrid — must not touch
    // the trace slab allocator at all, warm or cold.
    for _ in 0..2 {
        let (_, report) = Impl::BulkSync.run_with_report(&cfg, None);
        assert!(report.traces.is_empty());
        let (_, report) = Impl::HybridOverlap.run_with_report(&cfg, Some(&spec));
        assert!(report.traces.is_empty());
    }
    assert_eq!(
        obs::trace_buffers_allocated(),
        0,
        "tracing is off: no trace buffers may be allocated"
    );

    // Control: the counter does observe traced runs, so the zero above is
    // meaningful.
    let (_, report) = Impl::BulkSync.run_with_report(&cfg.with_trace(true), None);
    assert_eq!(report.traces.len(), 4);
    assert_eq!(obs::trace_buffers_allocated(), 4);
}
