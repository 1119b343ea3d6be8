//! Fault-free worlds allocate no fault state. Own binary with a single
//! test: the counter is process-wide, so any sibling test that builds a
//! faulted world would move it.

use simmpi::{fault_states_allocated, FaultStats, World};

#[test]
fn off_plan_allocates_no_fault_state() {
    let before = fault_states_allocated();
    World::run(3, |comm| {
        let right = (comm.rank() + 1) % 3;
        let left = (comm.rank() + 2) % 3;
        let req = comm.irecv(left, 0);
        comm.send(right, 0, vec![1.0; 32]);
        req.wait();
        assert_eq!(comm.fault_stats(), FaultStats::default());
    });
    assert_eq!(fault_states_allocated(), before);
}
