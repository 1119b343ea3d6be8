//! Implementation IV-A: single task, multiple threads.
//!
//! The baseline: one task, OpenMP-style threading over the three
//! algorithmic steps (halo copy, stencil, state copy). There is no
//! communication and no device; when traced, each step contributes one
//! `compute.interior` span covering the threaded step.

use crate::runner::Single;
use advect_core::field::Field3;
use advect_core::stepper::ThreadedStepper;

pub(crate) fn run(task: &Single<'_>) -> Field3 {
    let mut stepper = ThreadedStepper::new(task.cfg.problem, task.cfg.threads);
    task.timed_steps(|| {
        let _span = task.tracer.span(obs::Category::ComputeInterior, "step");
        stepper.step();
    });
    stepper.into_state()
}
