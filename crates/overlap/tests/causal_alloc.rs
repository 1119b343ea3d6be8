//! Zero-cost-when-disabled guarantee for causal stamping (own binary:
//! the assertion reads the process-global causal-seq allocation counter,
//! which any traced run elsewhere in the same process would perturb).

use advect_core::stepper::AdvectionProblem;
use overlap::{Impl, RunConfig};

#[test]
fn untraced_runs_allocate_no_causal_state() {
    let cfg = RunConfig::new(AdvectionProblem::general_case(12), 3)
        .tasks(4)
        .with_block((8, 8));

    // Steady state: untraced runs exchange thousands of messages, but
    // with no trace sink there is no one to hand a causal ID to — the
    // per-channel sequence counters must never be materialized.
    for _ in 0..2 {
        let (_, report) = Impl::BulkSync.run_with_report(&cfg, None);
        assert!(report.traces.is_empty());
        let (_, report) = Impl::Nonblocking.run_with_report(&cfg, None);
        assert!(report.traces.is_empty());
    }
    assert_eq!(
        simmpi::causal_states_allocated(),
        0,
        "tracing is off: no causal sequence state may be allocated"
    );

    // Control: a traced run does stamp messages, so the zero above is
    // meaningful — and the stamps make it into a non-empty causal graph.
    let (_, report) = Impl::BulkSync.run_with_report(&cfg.with_trace(true), None);
    assert!(simmpi::causal_states_allocated() > 0);
    let g = report.causal_graph();
    assert!(!g.edges.is_empty(), "traced run produced no causal edges");
}
