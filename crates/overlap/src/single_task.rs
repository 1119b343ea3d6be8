//! Implementation IV-A: single task, multiple threads.

use crate::runner::{RunConfig, RunReport};
use advect_core::field::Field3;
use advect_core::stepper::ThreadedStepper;

/// The baseline: one task, OpenMP-style threading over the three
/// algorithmic steps (halo copy, stencil, state copy).
pub struct SingleTask;

impl SingleTask {
    /// Run the configured number of steps and return the final state.
    pub fn run(cfg: &RunConfig) -> Field3 {
        Self::run_with_report(cfg).0
    }

    /// Run, returning the final state plus a report. There is no
    /// communication and no device; when traced, each step contributes
    /// one `compute.interior` span covering the threaded step.
    pub fn run_with_report(cfg: &RunConfig) -> (Field3, RunReport) {
        assert_eq!(cfg.ntasks, 1, "IV-A is a single-task implementation");
        let tracer = obs::Tracer::enabled(cfg.trace, 0, obs::Anchor::now());
        let metrics = obs::registry::Metrics::enabled(cfg.metrics);
        let step_hist = crate::runner::step_histogram(&metrics, "single_task", 0);
        let mut stepper = ThreadedStepper::new(cfg.problem, cfg.threads);
        if let Some((ty, tz)) = cfg.tile {
            stepper = stepper.with_tile(advect_core::tile::TileSpec::new(ty, tz));
        }
        for _ in 0..cfg.steps {
            let step_t0 = step_hist.start();
            let _span = tracer.span(obs::Category::ComputeInterior, "step");
            stepper.step();
            drop(_span);
            step_hist.observe_since(step_t0);
        }
        let mut report = RunReport {
            comm: vec![simmpi::CommStats::default()],
            fault: vec![simmpi::FaultStats::default()],
            metrics,
            ..RunReport::default()
        };
        if let Some(t) = crate::runner::finish_trace(&tracer) {
            report.traces.push(t);
        }
        (stepper.into_state(), report)
    }
}
