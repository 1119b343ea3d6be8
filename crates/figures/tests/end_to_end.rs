//! The whole evaluation regenerates through the public API and records
//! the paper's reported optima.

#[test]
fn figures_regenerate_and_contain_paper_claims() {
    let figs = figures::all_figures();
    assert_eq!(figs.len(), 18);
    // Figure 8's note records the paper's optimum.
    let f8 = figs.iter().find(|f| f.id == "fig08").unwrap();
    assert!(f8.notes[0].contains("32x8"));
    // The anchors figure holds four paper-vs-model pairs.
    let anchors = figs.iter().find(|f| f.id == "anchors").unwrap();
    assert_eq!(anchors.series[0].points.len(), 4);
}

/// FNV-1a, 64-bit.
fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every figure's `--json` and `--csv` export, hashed in `all_figures()`
/// order: a model change that moves any exported bit fails here. The
/// digest is re-pinned only by a change that means to move the numbers,
/// and that change lists the moved points. fig02 counts the lines of the
/// nine runner files, so editing a runner re-pins it too.
#[test]
fn figure_exports_match_the_pinned_digest() {
    let digest = figures::all_figures()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, f| {
            fnv1a64(
                fnv1a64(h, f.to_json().as_bytes()),
                f.render_csv().as_bytes(),
            )
        });
    assert_eq!(
        digest, 0x04ac_4400_e922_5bf1,
        "figure exports moved: digest {digest:#018x}"
    );
}
