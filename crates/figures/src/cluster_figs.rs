//! Figures 9–12: the GPU clusters (Lens, Yona) — best per implementation,
//! and the CPU-GPU overlap tuning sweeps.

use crate::data::{FigureData, Series};
use machine::{lens, yona, Machine};
use perfmodel::gpu::{GpuImpl, GpuScenario};
use perfmodel::sweep::{best_gf, best_gpu_gf, AnyImpl};

/// Lens core counts (16-core nodes, up to all 31 nodes).
pub fn lens_cores() -> Vec<usize> {
    [1usize, 2, 4, 8, 16, 31].iter().map(|n| n * 16).collect()
}

/// Yona core counts (12-core nodes, up to all 16 nodes).
pub fn yona_cores() -> Vec<usize> {
    [1usize, 2, 4, 8, 16].iter().map(|n| n * 12).collect()
}

/// Best performance of each implementation (Figures 9, 10).
fn best_per_impl(
    id: &'static str,
    m: &Machine,
    cores: &[usize],
    block: (usize, usize),
) -> FigureData {
    let series = AnyImpl::ALL
        .iter()
        .map(|&im| Series {
            label: im.label().into(),
            points: cores
                .iter()
                .filter_map(|&c| {
                    let b = best_gf(m, im, c, block);
                    (b.gf > 0.0).then_some((c as f64, b.gf))
                })
                .collect(),
        })
        .collect();
    let gpus_per = m.cores_per_node();
    FigureData {
        id,
        title: format!(
            "Best performance of each {} implementation; GPU implementations use one GPU per {gpus_per} cores",
            m.name
        ),
        x_label: "cores",
        y_label: "GF",
        series,
        notes: vec![
            "GPU-resident is single-GPU by definition: plotted only at one node".into(),
            "best over threads/task and (for hybrids) box thickness".into(),
        ],
    }
}

/// Figure 9: Lens.
pub fn fig09() -> FigureData {
    best_per_impl("fig09", &lens(), &lens_cores(), (32, 11))
}

/// Figure 10: Yona.
pub fn fig10() -> FigureData {
    best_per_impl("fig10", &yona(), &yona_cores(), (32, 8))
}

/// CPU-GPU overlap performance for (threads/task, thickness) combinations
/// (Figures 11, 12). As in the paper, only combinations that are best for
/// at least one core count are plotted.
fn overlap_combos(
    id: &'static str,
    m: &Machine,
    cores: &[usize],
    block: (usize, usize),
) -> FigureData {
    // The winning (threads, thickness) per core count, in core order.
    let mut winners: Vec<(usize, usize)> = Vec::new();
    for &c in cores {
        let b = best_gpu_gf(m, GpuImpl::HybridOverlap, c, block);
        if !winners.contains(&(b.threads, b.thickness)) {
            winners.push((b.threads, b.thickness));
        }
    }
    let series = winners
        .iter()
        .map(|&(t, th)| Series {
            label: format!("{t} threads, thickness {th}"),
            points: cores
                .iter()
                .filter(|&&c| c % t == 0)
                .map(|&c| {
                    (
                        c as f64,
                        GpuScenario::new(m, c, t)
                            .with_block(block)
                            .with_thickness(th)
                            .gf(GpuImpl::HybridOverlap),
                    )
                })
                .collect(),
        })
        .collect();
    FigureData {
        id,
        title: format!(
            "CPU-GPU overlap implementation on {} for combinations of threads/task and box thickness",
            m.name
        ),
        x_label: "cores",
        y_label: "GF",
        series,
        notes: vec!["each plotted combination is the best for at least one core count".into()],
    }
}

/// Figure 11: Lens combos.
pub fn fig11() -> FigureData {
    overlap_combos("fig11", &lens(), &lens_cores(), (32, 11))
}

/// Figure 12: Yona combos.
pub fn fig12() -> FigureData {
    overlap_combos("fig12", &yona(), &yona_cores(), (32, 8))
}

/// The Section V-E one-node Yona anchors, paper vs. model.
pub fn anchors() -> FigureData {
    let m = yona();
    let one = |im: GpuImpl, threads: usize, thickness: usize| -> f64 {
        GpuScenario::new(&m, 12, threads)
            .with_block((32, 8))
            .with_thickness(thickness)
            .gf(im)
    };
    let measured = [
        one(GpuImpl::Resident, 12, 0),
        one(GpuImpl::BulkSync, 12, 0),
        one(GpuImpl::Streams, 12, 0),
        one(GpuImpl::HybridOverlap, 6, 3),
    ];
    let paper = [86.0, 24.0, 35.0, 82.0];
    FigureData {
        id: "anchors",
        title: "Section V-E one-node Yona anchors (GF)".into(),
        x_label: "anchor#",
        y_label: "GF",
        series: vec![
            Series {
                label: "paper".into(),
                points: paper.iter().enumerate().map(|(i, &v)| (i as f64 + 1.0, v)).collect(),
            },
            Series {
                label: "model".into(),
                points: measured
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i as f64 + 1.0, v))
                    .collect(),
            },
        ],
        notes: vec![
            "1 = GPU resident, 2 = IV-F bulk-sync, 3 = IV-G streams, 4 = IV-I overlap (thickness 3, 2 tasks/node)".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_hybrid_overlap_dominates() {
        let f = fig10();
        let series =
            |label: &str| -> &Series { f.series.iter().find(|s| s.label == label).unwrap() };
        let hybrid = series("CPU+GPU full overlap");
        for other in [
            "GPU bulk-synchronous MPI",
            "GPU MPI overlap (streams)",
            "CPU+GPU bulk-synchronous",
            "bulk-synchronous MPI",
        ] {
            let o = series(other);
            for (h, p) in hybrid.points.iter().zip(o.points.iter()).skip(1) {
                assert!(
                    h.1 > 2.0 * p.1,
                    "{other} at {} cores: {} vs {}",
                    h.0,
                    h.1,
                    p.1
                );
            }
        }
    }

    #[test]
    fn fig09_gpu_impls_gain_more_from_overlap_than_cpu_impls() {
        let f = fig09();
        let series =
            |label: &str| -> &Series { f.series.iter().find(|s| s.label == label).unwrap() };
        let at_end = |s: &Series| s.points.last().unwrap().1;
        // CPU-only overlap gain is small on Lens…
        let cpu_gain =
            at_end(series("MPI nonblocking overlap")) / at_end(series("bulk-synchronous MPI"));
        assert!(cpu_gain < 1.15, "cpu gain {cpu_gain}");
        // …while the GPU side gains a lot.
        let gpu_gain =
            at_end(series("CPU+GPU full overlap")) / at_end(series("GPU bulk-synchronous MPI"));
        assert!(gpu_gain > 2.0, "gpu gain {gpu_gain}");
    }

    #[test]
    fn fig11_best_combo_thickness_decreases() {
        let f = fig11();
        // First series wins at the lowest core count; last series wins at
        // the highest. Thickness should not increase along the way.
        let thickness_of = |s: &Series| -> usize {
            s.label
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .expect("label ends with thickness")
        };
        let first = thickness_of(&f.series[0]);
        let last = thickness_of(f.series.last().unwrap());
        assert!(last <= first, "thickness grew: {first} -> {last}");
    }

    #[test]
    fn fig12_uses_few_tasks_per_node() {
        let f = fig12();
        for s in &f.series {
            let threads: usize = s.label.split(' ').next().unwrap().parse().unwrap();
            assert!(12 / threads <= 2, "combo with many tasks won: {}", s.label);
        }
    }

    #[test]
    fn anchors_within_band() {
        let f = anchors();
        let paper = &f.series[0].points;
        let model = &f.series[1].points;
        for (p, m) in paper.iter().zip(model) {
            let rel = (m.1 - p.1).abs() / p.1;
            assert!(
                rel < 0.25,
                "anchor {} off by {:.0}%: {} vs {}",
                p.0,
                rel * 100.0,
                m.1,
                p.1
            );
        }
    }
}
