//! Figure 2: lines of code per implementation.
//!
//! Two series: the paper's Fortran counts (215 and 860 stated exactly;
//! the rest derived from the stated ratios — "MPI parallelization adds
//! 57–73% more lines", "single GPU ... 6% more lines", "adding MPI
//! parallelism to the GPU computation almost triples the number of
//! lines"), and the measured non-blank non-comment LoC of our own Rust
//! implementation modules, counted from the embedded sources.

use crate::data::{FigureData, Series};

/// The nine implementation labels, in the paper's order.
pub const IMPL_LABELS: [&str; 9] = [
    "single task",
    "bulk-sync MPI",
    "nonblocking MPI",
    "thread-overlap MPI",
    "GPU resident",
    "GPU bulk-sync MPI",
    "GPU streams MPI",
    "hybrid bulk-sync",
    "hybrid full overlap",
];

/// The paper's Fortran LoC. 215 (single) and 860 (full overlap) are
/// stated exactly; the others follow the stated ratios.
pub const PAPER_FORTRAN_LOC: [u32; 9] = [215, 338, 372, 350, 228, 640, 670, 780, 860];

/// Our Rust sources per implementation (embedded at compile time).
const RUST_SOURCES: [&str; 9] = [
    include_str!("../../overlap/src/single_task.rs"),
    include_str!("../../overlap/src/bulk_sync.rs"),
    include_str!("../../overlap/src/nonblocking.rs"),
    include_str!("../../overlap/src/thread_overlap.rs"),
    include_str!("../../overlap/src/gpu_resident.rs"),
    include_str!("../../overlap/src/gpu_bulk_sync.rs"),
    include_str!("../../overlap/src/gpu_streams.rs"),
    include_str!("../../overlap/src/hybrid_bulk_sync.rs"),
    include_str!("../../overlap/src/hybrid_overlap.rs"),
];

/// Count lines that are neither blank nor comment-only (the paper's
/// counting rule: "minus blank lines and lines containing only comments").
pub fn loc(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("//!"))
        .count()
}

/// Measured Rust LoC per implementation module.
pub fn rust_loc() -> [usize; 9] {
    RUST_SOURCES.map(loc)
}

/// Figure 2 data.
pub fn fig02() -> FigureData {
    let rust = rust_loc();
    FigureData {
        id: "fig02",
        title: "Lines of code for each implementation, minus blank lines and comments".into(),
        x_label: "impl#",
        y_label: "lines",
        series: vec![
            Series {
                label: "Fortran (paper)".into(),
                points: PAPER_FORTRAN_LOC
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i as f64 + 1.0, v as f64))
                    .collect(),
            },
            Series {
                label: "Rust (this repo)".into(),
                points: rust
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i as f64 + 1.0, v as f64))
                    .collect(),
            },
        ],
        notes: vec![
            format!(
                "impl order: {}",
                IMPL_LABELS
                    .iter()
                    .enumerate()
                    .map(|(i, l)| format!("{}={l}", i + 1))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            "paper values 215 and 860 stated exactly; others derived from stated ratios".into(),
            "Rust counts are each implementation's step body; the frame all nine share lives in runner.rs"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counter_skips_blanks_and_comments() {
        let src = "// comment\n\nlet x = 1; // trailing comment counts\n   \n//! doc\n}";
        assert_eq!(loc(src), 2);
    }

    #[test]
    fn paper_ratios_hold() {
        let p = PAPER_FORTRAN_LOC;
        // Full overlap is exactly four times the single implementation.
        assert_eq!(p[8], 4 * p[0]);
        // MPI adds 57-73%.
        for mpi in [p[1], p[2], p[3]] {
            let ratio = mpi as f64 / p[0] as f64;
            assert!((1.57..=1.74).contains(&ratio), "ratio {ratio}");
        }
        // Single GPU ~6% more than single CPU.
        assert!((p[4] as f64 / p[0] as f64 - 1.06).abs() < 0.01);
    }

    #[test]
    fn rust_loc_shape_matches_paper_ordering() {
        let r = rust_loc();
        // The cheapest implementation is the single-task one; the most
        // expensive is the hybrid full overlap — same complexity ordering
        // as the paper reports.
        let min = *r.iter().min().unwrap();
        let max = *r.iter().max().unwrap();
        assert_eq!(r[0], min, "single task should be smallest: {r:?}");
        assert_eq!(r[8], max, "full overlap should be largest: {r:?}");
        // MPI implementations cost more than single task.
        assert!(r[1] > r[0] && r[2] > r[0]);
    }

    #[test]
    fn fig02_has_both_series() {
        let f = fig02();
        assert_eq!(f.series.len(), 2);
        assert_eq!(f.series[0].points.len(), 9);
        assert_eq!(f.series[1].points.len(), 9);
    }
}
