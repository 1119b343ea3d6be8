//! The model path runs on the calling thread: own binary with a single
//! test, because the crew's resident count is process-wide.

use obs::crew;

#[test]
fn figures_and_claims_lease_no_crew_worker() {
    assert_eq!(crew::resident(), 0, "no region has run yet");
    let figures = figures::all_figures();
    let claims = figures::report::evaluate_claims();
    assert_eq!(figures.len(), 18);
    assert_eq!(crew::resident(), 0, "the model path leased a crew worker");
    let failed: Vec<_> = claims.iter().filter(|c| !c.holds).map(|c| c.id).collect();
    assert!(failed.is_empty(), "claims that fail: {failed:?}");
}
