//! The fault path must be pay-for-what-you-use: a run with
//! `FaultSpec::off()` (the default) must not allocate any fault state —
//! no limbo queues, no per-channel sequence tables. Mirrors the
//! zero-allocation guarantee the tracing subsystem makes in
//! `tests/trace_alloc.rs`.
//!
//! One test in its own binary: the counter is process-global, so the
//! off loop and the chaos control run in sequence, never side by side.

use advect_core::stepper::AdvectionProblem;
use overlap::{Impl, RunConfig};
use simgpu::GpuSpec;

#[test]
fn fault_state_is_allocated_only_by_chaos_runs() {
    let spec = GpuSpec::tesla_c2050();
    for im in Impl::ALL {
        let mut cfg = RunConfig::new(AdvectionProblem::general_case(12), 2)
            .with_threads(2)
            .with_block((8, 8))
            .with_thickness(1);
        if im.uses_mpi() {
            cfg = cfg.tasks(4);
        }
        let before = simmpi::fault_states_allocated();
        let _ = im.run(&cfg, im.uses_gpu().then_some(&spec));
        let after = simmpi::fault_states_allocated();
        assert_eq!(
            after - before,
            0,
            "{} allocated fault state with the plan off",
            im.slug()
        );
    }

    // Control on the counter itself: with a perturbing plan, each rank's
    // mailbox carries a limbo allocation.
    let cfg = RunConfig::new(AdvectionProblem::general_case(12), 1)
        .tasks(4)
        .with_threads(2)
        .with_faults(overlap::FaultSpec::chaos(1));
    let before = simmpi::fault_states_allocated();
    let _ = Impl::BulkSync.run(&cfg, None);
    let after = simmpi::fault_states_allocated();
    assert_eq!(after - before, 4);
}
