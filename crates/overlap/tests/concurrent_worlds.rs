//! Concurrent-world safety: the run server executes several simulated
//! worlds in one process at once, so nothing in `simmpi` / `simgpu` /
//! `advect-core` may hold cross-run state. These tests run *different*
//! worlds concurrently and require each to stay bit-identical to its
//! own serial reference — any shared mutable state (a process-global
//! tracer wired to the wrong run, a metrics registry mixing channels, a
//! fault schedule bleeding across worlds) breaks the equality.
//!
//! The audit behind this: `simmpi::Comm` holds its tracer/metrics in
//! per-instance `OnceLock`s created fresh by every `World::run`;
//! `simgpu::Gpu` is per-run; no crate reads an environment variable. The
//! process-globals are the cached SIMD tier (`simd::level`, detected
//! once from the CPU) and the resident worker crew (`obs::crew`), whose
//! workers are leased to one region at a time and carry nothing from one
//! region to the next.

use advect_core::stepper::{AdvectionProblem, SerialStepper};
use overlap::runner::{FaultSpec, RunConfig};
use overlap::Impl;
use simgpu::GpuSpec;

fn serial_reference(n: usize, steps: u64) -> advect_core::field::Field3 {
    let mut serial = SerialStepper::new(AdvectionProblem::general_case(n));
    serial.run(steps);
    serial.state().clone()
}

/// Run `configs` concurrently, one OS thread each (each world spawns
/// its own rank threads on top), and check every final state against
/// its own serial reference.
fn run_concurrently(configs: Vec<(Impl, RunConfig, Option<GpuSpec>, usize, u64)>) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = configs
            .into_iter()
            .map(|(implementation, cfg, spec, n, steps)| {
                scope.spawn(move || {
                    let (state, report) = implementation.run_with_report(&cfg, spec.as_ref());
                    let reference = serial_reference(n, steps);
                    assert_eq!(
                        state.max_abs_diff(&reference),
                        0.0,
                        "{} diverged from serial while sharing the process",
                        implementation.slug()
                    );
                    report
                })
            })
            .collect();
        for h in handles {
            h.join().expect("world thread");
        }
    });
}

#[test]
fn two_different_worlds_stay_bit_identical_to_serial() {
    // Different implementations, grids, step counts, and task counts:
    // maximum opportunity for cross-talk if any state were shared.
    run_concurrently(vec![
        (
            Impl::Nonblocking,
            RunConfig::new(AdvectionProblem::general_case(16), 4)
                .tasks(4)
                .with_threads(2),
            None,
            16,
            4,
        ),
        (
            Impl::BulkSync,
            RunConfig::new(AdvectionProblem::general_case(12), 6).tasks(3),
            None,
            12,
            6,
        ),
    ]);
}

#[test]
fn worlds_with_two_thread_teams_share_the_crew() {
    // Every rank of every world opens 2-thread team regions each step,
    // all leasing from the one process-wide crew at once; IV-D's regions
    // also block on a team barrier, so a worker handed to two regions,
    // or a region short of a live thread, deadlocks or diverges here.
    run_concurrently(vec![
        (
            Impl::ThreadOverlap,
            RunConfig::new(AdvectionProblem::general_case(16), 24)
                .tasks(2)
                .with_threads(2),
            None,
            16,
            24,
        ),
        (
            Impl::ThreadOverlap,
            RunConfig::new(AdvectionProblem::general_case(12), 30)
                .tasks(3)
                .with_threads(2),
            None,
            12,
            30,
        ),
        (
            Impl::SingleTask,
            RunConfig::new(AdvectionProblem::general_case(14), 40).with_threads(2),
            None,
            14,
            40,
        ),
    ]);
}

#[test]
fn concurrent_worlds_with_tracing_metrics_and_faults_do_not_cross() {
    // One traced + metered world, one fault-injected world: tracer,
    // metrics registry, and fault schedule must all stay per-run.
    let traced_cfg = RunConfig::new(AdvectionProblem::general_case(12), 3)
        .tasks(2)
        .with_trace(true)
        .with_metrics(true);
    let faulted_cfg = RunConfig::new(AdvectionProblem::general_case(12), 3)
        .tasks(4)
        .with_faults(FaultSpec::chaos(1234));
    std::thread::scope(|scope| {
        let traced = scope.spawn(|| Impl::ThreadOverlap.run_with_report(&traced_cfg, None));
        let faulted = scope.spawn(|| Impl::Nonblocking.run_with_report(&faulted_cfg, None));
        let (t_state, t_report) = traced.join().expect("traced world");
        let (f_state, f_report) = faulted.join().expect("faulted world");
        let reference = serial_reference(12, 3);
        assert_eq!(t_state.max_abs_diff(&reference), 0.0);
        assert_eq!(f_state.max_abs_diff(&reference), 0.0);
        // Observability stayed with its own world.
        assert!(!t_report.traces.is_empty(), "traced world has spans");
        assert!(t_report.metrics.is_on(), "traced world has metrics");
        assert!(f_report.traces.is_empty(), "untraced world stays untraced");
        assert!(!f_report.metrics.is_on(), "unmetered world stays unmetered");
        let held: u64 = f_report
            .fault
            .iter()
            .map(|f| f.delayed + f.redelivered)
            .sum();
        let t_held: u64 = t_report
            .fault
            .iter()
            .map(|f| f.delayed + f.redelivered)
            .sum();
        assert!(held > 0, "fault schedule reached its own world");
        assert_eq!(
            t_held, 0,
            "fault schedule must not leak into the clean world"
        );
    });
}

#[test]
fn gpu_and_cpu_worlds_share_the_process() {
    run_concurrently(vec![
        (
            Impl::GpuStreams,
            RunConfig::new(AdvectionProblem::general_case(12), 3)
                .tasks(2)
                .with_block((8, 8)),
            Some(GpuSpec::tesla_c2050()),
            12,
            3,
        ),
        (
            Impl::HybridOverlap,
            RunConfig::new(AdvectionProblem::general_case(16), 2)
                .tasks(2)
                .with_threads(2)
                .with_block((16, 4))
                .with_thickness(2),
            Some(GpuSpec::tesla_c1060()),
            16,
            2,
        ),
        (
            Impl::SingleTask,
            RunConfig::new(AdvectionProblem::general_case(10), 5).with_threads(4),
            None,
            10,
            5,
        ),
    ]);
}
