//! Step 3 is a buffer swap, not a copy: after an odd number of steps the
//! state lives in what was allocated as the scratch field, after an even
//! number in the original. Either way every CPU runner — and the
//! `ThreadedStepper` under IV-A — must equal the copying
//! `SerialStepper` bit for bit.

use advect_core::field::Field3;
use advect_core::stepper::{AdvectionProblem, SerialStepper, ThreadedStepper};
use overlap::{Impl, RunConfig};

fn assert_bitwise(got: &Field3, want: &Field3, what: &str) {
    for (x, y, z) in want.interior_range().iter() {
        assert_eq!(
            got.at(x, y, z).to_bits(),
            want.at(x, y, z).to_bits(),
            "{what} at ({x},{y},{z})"
        );
    }
}

#[test]
fn swapped_buffers_match_the_copying_serial_stepper_at_odd_and_even_steps() {
    let problem = AdvectionProblem::general_case(10);
    for steps in [1u64, 2, 5] {
        let mut serial = SerialStepper::new(problem);
        serial.run(steps);
        for threads in [1usize, 2] {
            let mut threaded = ThreadedStepper::new(problem, threads);
            threaded.run(steps);
            let what = format!("ThreadedStepper steps {steps} threads {threads}");
            assert_bitwise(threaded.state(), serial.state(), &what);
            for im in [
                Impl::SingleTask,
                Impl::BulkSync,
                Impl::Nonblocking,
                Impl::ThreadOverlap,
            ] {
                let cfg = RunConfig::new(problem, steps)
                    .tasks(if im.uses_mpi() { 3 } else { 1 })
                    .with_threads(threads);
                let what = format!("{} steps {steps} threads {threads}", im.name());
                assert_bitwise(&im.run(&cfg, None), serial.state(), &what);
            }
        }
    }
}
