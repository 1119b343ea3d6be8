//! The whole evaluation regenerates through the public API and records
//! the paper's reported optima.

#[test]
fn figures_regenerate_and_contain_paper_claims() {
    let figs = figures::all_figures();
    assert_eq!(figs.len(), 19);
    // Figure 8's note records the paper's optimum.
    let f8 = figs.iter().find(|f| f.id == "fig08").unwrap();
    assert!(f8.notes[0].contains("32x8"));
    // The anchors figure holds four paper-vs-model pairs.
    let anchors = figs.iter().find(|f| f.id == "anchors").unwrap();
    assert_eq!(anchors.series[0].points.len(), 4);
}
