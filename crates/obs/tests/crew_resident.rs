//! The crew neither leaks nor over-grows: own binary with a single test,
//! because the resident count is process-wide.

use obs::crew;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn resident_workers_track_the_widest_concurrent_demand() {
    assert_eq!(crew::resident(), 0, "no region has run yet");
    crew::run(1, |_| {});
    assert_eq!(crew::resident(), 0, "a one-member region runs inline");
    let mut widest = 0;
    for w in [2usize, 4, 3, 4] {
        for _ in 0..1000 {
            let hits = AtomicUsize::new(0);
            crew::run(w, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.into_inner(), w);
        }
        // Sequential regions reuse idle workers: the count is the widest
        // region so far minus the caller, however many regions ran.
        widest = widest.max(w);
        assert_eq!(crew::resident(), widest - 1, "after width {w}");
    }
    // Nesting is concurrent demand: one outer worker, and both outer
    // members lease two more each while it is still out (the barrier
    // keeps all six inner members live at once).
    let all = crew::Barrier::new(6);
    crew::run(2, |_| crew::run(3, |_| all.wait()));
    assert_eq!(crew::resident(), 1 + 2 * 2);
}
