//! Figures 7 and 8: GPU-resident performance vs. thread-block size.

use crate::data::{FigureData, Series};
use advect_core::flops::PAPER_GRID;
use simgpu::timing::resident_gigaflops;
use simgpu::GpuSpec;

/// Block-size sweep for one GPU: one series per x extent, y on the x axis
/// (matching the paper's presentation).
fn block_sweep(id: &'static str, spec: &GpuSpec, system: &str) -> FigureData {
    let series: Vec<Series> = [16usize, 32, 64, 128]
        .iter()
        .map(|&bx| {
            let mut points = Vec::new();
            for by in 1..=spec.max_threads_per_block / bx {
                let gf = resident_gigaflops(spec, PAPER_GRID, (bx, by));
                if gf > 0.0 {
                    points.push((by as f64, gf));
                }
            }
            Series {
                label: format!("x = {bx}"),
                points,
            }
        })
        .collect();
    // Record the argmax in the notes (the paper's headline per figure).
    let mut best = ((0usize, 0usize), 0.0f64);
    for s in &series {
        let bx: usize = s.label[4..].parse().expect("label encodes x");
        for &(by, gf) in &s.points {
            if gf > best.1 {
                best = ((bx, by as usize), gf);
            }
        }
    }
    FigureData {
        id,
        title: format!(
            "GPU-resident implementation on {system} ({}) for a variety of 2-D block sizes",
            spec.name
        ),
        x_label: "block y",
        y_label: "GF",
        series,
        notes: vec![format!(
            "best block: {}x{} at {:.1} GF",
            best.0 .0, best.0 .1, best.1
        )],
    }
}

/// Figure 7: Lens (Tesla C1060). Paper's best: 32×11.
pub fn fig07() -> FigureData {
    block_sweep("fig07", &GpuSpec::tesla_c1060(), "Lens")
}

/// Figure 8: Yona (Tesla C2050). Paper's best: 32×8.
pub fn fig08() -> FigureData {
    block_sweep("fig08", &GpuSpec::tesla_c2050(), "Yona")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig07_best_is_32x11() {
        let f = fig07();
        assert!(f.notes[0].contains("32x11"), "{}", f.notes[0]);
    }

    #[test]
    fn fig08_best_is_32x8() {
        let f = fig08();
        assert!(f.notes[0].contains("32x8"), "{}", f.notes[0]);
    }

    #[test]
    fn x32_series_dominates_x16() {
        for f in [fig07(), fig08()] {
            let max_of = |label: &str| -> f64 {
                f.series
                    .iter()
                    .find(|s| s.label == label)
                    .unwrap()
                    .points
                    .iter()
                    .map(|p| p.1)
                    .fold(0.0, f64::max)
            };
            assert!(max_of("x = 32") > max_of("x = 16"), "{}", f.id);
            assert!(max_of("x = 32") > max_of("x = 128"), "{}", f.id);
        }
    }

    #[test]
    fn block_limits_respected() {
        // C1060 allows at most 512 threads: the x=32 series stops at y=16.
        let f = fig07();
        let s32 = f.series.iter().find(|s| s.label == "x = 32").unwrap();
        assert!(s32.points.iter().all(|p| p.0 <= 16.0));
        // C2050 allows 1024: y up to 32.
        let f8 = fig08();
        let s32 = f8.series.iter().find(|s| s.label == "x = 32").unwrap();
        assert!(s32.points.iter().any(|p| p.0 > 16.0));
    }
}
