//! # figures
//!
//! Regenerates every table and figure of the paper's evaluation section
//! from the performance models (and, for Table I and Figure 2, from the
//! numerics and the repository itself). One module per figure family;
//! the `figures` binary prints them all and can export JSON/CSV.
//!
//! | Output | Source |
//! |--------|--------|
//! | Table I | [`tables::table1`] |
//! | Table II | [`tables::table2_text`] |
//! | Figure 2 (LoC) | [`loc::fig02`] |
//! | Figures 3–6 (CPU scaling) | [`cpu_figs`] |
//! | Figures 7–8 (block sizes) | [`gpu_figs`] |
//! | Figures 9–12 (GPU clusters) | [`cluster_figs`] |
//! | §V-E anchors | [`cluster_figs::anchors`] |
//! | Extension experiments (§VI what-ifs) | [`extensions`] |

pub mod cluster_figs;
pub mod cpu_figs;
pub mod data;
pub mod extensions;
pub mod gpu_figs;
pub mod loc;
pub mod plot;
pub mod report;
pub mod tables;

/// The JSON writer and parser live in `obs`, beneath every crate; the
/// re-export keeps `figures::json::{escape, Value}` resolving for the
/// benchmark harness, which names them by this path.
pub use obs::json;

pub use data::{FigureData, Series};
pub use plot::{render_plot, PlotOptions};

/// All regenerable figures, in paper order.
///
/// The generators are independent, so they are evaluated on the
/// [`advect_core::sweep::SweepPool`]; results come back in this fixed
/// order regardless of worker count, so exported CSV/JSON stays
/// byte-identical to a serial run.
pub fn all_figures() -> Vec<FigureData> {
    type FigureFn = fn() -> FigureData;
    const GENERATORS: [FigureFn; 18] = [
        tables::table1,
        loc::fig02,
        cpu_figs::fig03,
        cpu_figs::fig04,
        cpu_figs::fig05,
        cpu_figs::fig06,
        gpu_figs::fig07,
        gpu_figs::fig08,
        cluster_figs::fig09,
        cluster_figs::fig10,
        cluster_figs::fig11,
        cluster_figs::fig12,
        cluster_figs::anchors,
        extensions::ext01_pcie_sweep,
        extensions::ext02_cores_per_gpu,
        extensions::ext03_pinned_ablation,
        extensions::ext05_breakdown,
        extensions::ext06_weak_scaling,
    ];
    advect_core::sweep::SweepPool::global().map(&GENERATORS, |g| g())
}

/// Look up a figure by id (e.g. "fig03").
pub fn figure_by_id(id: &str) -> Option<FigureData> {
    all_figures().into_iter().find(|f| f.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_thirteen_outputs_regenerate() {
        let figs = all_figures();
        assert_eq!(figs.len(), 18);
        for f in &figs {
            assert!(!f.series.is_empty(), "{} has no series", f.id);
            assert!(
                f.series.iter().any(|s| !s.points.is_empty()),
                "{} has no points",
                f.id
            );
        }
    }

    #[test]
    fn lookup_by_id() {
        assert!(figure_by_id("fig07").is_some());
        assert!(figure_by_id("nope").is_none());
    }

    #[test]
    fn every_figure_renders_all_formats() {
        for f in all_figures() {
            assert!(!f.render_text().is_empty());
            assert!(!f.render_csv().is_empty());
            assert!(json::Value::parse(&f.to_json()).is_ok());
        }
    }
}
