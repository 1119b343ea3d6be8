//! Extension experiments: the what-ifs the paper's Conclusions raise but
//! could not measure.
//!
//! * [`ext01_pcie_sweep`] — "an architecture with faster, lower-latency
//!   CPU-GPU communication could have a performance profile significantly
//!   different from what we see": sweep the PCIe rate and watch the
//!   bulk-synchronous GPU implementations converge toward the overlap
//!   one, which barely moves (its PCIe is already off the critical path).
//! * [`ext02_cores_per_gpu`] — "a computer tuned for our test might have
//!   a smaller number of CPU cores per GPU": sweep the CPU complex per
//!   GPU and watch the full-overlap hybrid saturate with very few cores.
//! * [`ext03_pinned_ablation`] — attribute the IV-F/G collapse: give the
//!   bulk-synchronous implementations page-locked (pinned) copies at the
//!   full PCIe rate and measure how much of the gap to IV-I that closes —
//!   the serialization of the D2H → MPI → H2D chain accounts for the
//!   rest, which is exactly the paper's "decoupling" explanation.
//! * [`ext05_breakdown`] — where each modeled step spends its time
//!   (compute / communication / overhead) for IV-B and IV-C across
//!   scales: makes the Figure 3 crossover mechanical — the overhead bar
//!   stays put while the hideable communication bar shrinks.
//! * [`ext06_weak_scaling`] — the same machines under *weak* scaling
//!   (constant work per task). The paper chose strong scaling because
//!   climate grids are fixed; weak scaling would have hidden the
//!   crossover entirely, which this experiment demonstrates.

use crate::data::{FigureData, Series};
use machine::{jaguarpf, yona, CpuModel, Machine};
use perfmodel::cpu::{CpuImpl, CpuScenario};
use perfmodel::gpu::{GpuImpl, GpuScenario};

/// PCIe-rate sweep on Yona (one node): GF of IV-F/G/I vs. PCIe scale.
pub fn ext01_pcie_sweep() -> FigureData {
    let m = yona();
    let scales = [0.5f64, 1.0, 2.0, 4.0, 8.0, 16.0];
    let mut series = Vec::new();
    for (im, label, threads, thickness) in [
        (GpuImpl::BulkSync, "IV-F bulk-sync", 12usize, 0usize),
        (GpuImpl::Streams, "IV-G streams", 12, 0),
        (GpuImpl::HybridOverlap, "IV-I full overlap", 6, 3),
    ] {
        let points = scales
            .iter()
            .map(|&sc| {
                (
                    sc,
                    GpuScenario::new(&m, 12, threads)
                        .with_block((32, 8))
                        .with_thickness(thickness)
                        .with_pcie_scale(sc)
                        .gf(im),
                )
            })
            .collect();
        series.push(Series {
            label: label.into(),
            points,
        });
    }
    FigureData {
        id: "ext01",
        title: "Extension: one Yona node vs. PCIe speed (scale on both pageable and pinned rates)"
            .into(),
        x_label: "pcie scale",
        y_label: "GF",
        series,
        notes: vec![
            "the paper's conclusion: faster CPU-GPU communication would change the profile — \
             mostly for the implementations that keep PCIe on the critical path"
                .into(),
        ],
    }
}

/// A Yona-like machine with a different CPU complex per GPU.
fn yona_with_cores(cores_per_socket: usize, thread_choice: &'static [usize]) -> Machine {
    let mut m = yona();
    m.cpu = CpuModel {
        cores_per_socket,
        ..m.cpu
    };
    m.thread_choices = thread_choice;
    m
}

/// Cores-per-GPU sweep: GF per node of the full-overlap hybrid when the
/// node has fewer (or more) CPU cores feeding the same GPU.
pub fn ext02_cores_per_gpu() -> FigureData {
    let configs: [(usize, &'static [usize]); 5] = [
        (1, &[1, 2]),
        (2, &[1, 2, 4]),
        (3, &[1, 2, 3, 6]),
        (6, &[1, 2, 3, 6, 12]),
        (12, &[1, 2, 3, 6, 12, 24]),
    ];
    let mut best_points = Vec::new();
    let mut veneer_points = Vec::new();
    for (cps, choices) in configs {
        let m = yona_with_cores(cps, choices);
        let cores = m.cores_per_node();
        let mut best = 0.0f64;
        for &t in m.thread_choices {
            if !cores.is_multiple_of(t) {
                continue;
            }
            for th in [1usize, 2, 3, 4, 6] {
                let gf = GpuScenario::new(&m, cores, t)
                    .with_block((32, 8))
                    .with_thickness(th)
                    .gf(GpuImpl::HybridOverlap);
                best = best.max(gf);
            }
        }
        best_points.push((cores as f64, best));
        // Thickness-1 veneer with one task: the minimal-CPU configuration.
        veneer_points.push((
            cores as f64,
            GpuScenario::new(&m, cores, cores)
                .with_block((32, 8))
                .with_thickness(1)
                .gf(GpuImpl::HybridOverlap),
        ));
    }
    FigureData {
        id: "ext02",
        title: "Extension: one hybrid node (C2050) vs. CPU cores per GPU".into(),
        x_label: "cores/GPU",
        y_label: "GF",
        series: vec![
            Series {
                label: "best configuration".into(),
                points: best_points,
            },
            Series {
                label: "thickness-1 veneer, 1 task".into(),
                points: veneer_points,
            },
        ],
        notes: vec![
            "the paper's conclusion: \"a computer tuned for our test might have a smaller \
             number of CPU cores per GPU\" — performance saturates with very few cores"
                .into(),
        ],
    }
}

/// Pinned-copy ablation on one Yona node: how much of the IV-F/G deficit
/// the pageable copies explain, vs. the chain serialization itself.
pub fn ext03_pinned_ablation() -> FigureData {
    let m = yona();
    let spec_rate = m.gpu.as_ref().expect("yona has a GPU").pcie_bw_gbs;
    let eval = |im: GpuImpl, threads: usize, thickness: usize, pinned: bool| -> f64 {
        let mut s = GpuScenario::new(&m, 12, threads)
            .with_block((32, 8))
            .with_thickness(thickness);
        if pinned {
            s = s.with_pageable_gbs(spec_rate);
        }
        s.gf(im)
    };
    let impls = [
        (GpuImpl::BulkSync, "IV-F bulk-sync", 12usize, 0usize),
        (GpuImpl::Streams, "IV-G streams", 12, 0),
        (GpuImpl::HybridBulkSync, "IV-H hybrid bulk-sync", 6, 2),
        (GpuImpl::HybridOverlap, "IV-I full overlap", 6, 3),
    ];
    let as_measured = Series {
        label: "pageable copies (as built)".into(),
        points: impls
            .iter()
            .enumerate()
            .map(|(i, &(im, _, t, th))| (i as f64 + 1.0, eval(im, t, th, false)))
            .collect(),
    };
    let pinned = Series {
        label: "page-locked copies (ablation)".into(),
        points: impls
            .iter()
            .enumerate()
            .map(|(i, &(im, _, t, th))| (i as f64 + 1.0, eval(im, t, th, true)))
            .collect(),
    };
    FigureData {
        id: "ext03",
        title: "Extension: pinned-copy ablation, one Yona node (1=IV-F, 2=IV-G, 3=IV-H, 4=IV-I)"
            .into(),
        x_label: "impl#",
        y_label: "GF",
        series: vec![as_measured, pinned],
        notes: vec![
            "pinning lifts IV-F/G substantially but the serialized D2H->MPI->H2D chain still \
             separates them from IV-I: the decoupling, not just the copy rate, is the win"
                .into(),
        ],
    }
}

/// Per-component step breakdown for IV-B vs IV-C on JaguarPF.
pub fn ext05_breakdown() -> FigureData {
    let m = jaguarpf();
    let cores: Vec<usize> = (0..11).map(|e| 12 << e).collect();
    let mut series: Vec<Series> = Vec::new();
    let mut push = |label: &str, f: &dyn Fn(&CpuScenario) -> f64| {
        series.push(Series {
            label: label.into(),
            points: cores
                .iter()
                .map(|&c| {
                    let s = CpuScenario::new(&m, c, 6);
                    (c as f64, f(&s) * 1e6)
                })
                .collect(),
        });
    };
    push("IV-B compute (µs)", &|s| s.breakdown_bulk_sync().compute);
    push("IV-B comm (µs)", &|s| {
        s.breakdown_bulk_sync().communication
    });
    push("IV-C unhidden comm (µs)", &|s| {
        s.breakdown_nonblocking().communication
    });
    push("IV-C overhead (µs)", &|s| {
        s.breakdown_nonblocking().overhead
    });
    FigureData {
        id: "ext05",
        title: "Extension: step-time breakdown, IV-B vs IV-C on JaguarPF (6 threads/task)".into(),
        x_label: "cores",
        y_label: "µs/step",
        series,
        notes: vec![
            "the crossover mechanism: IV-C hides most of IV-B's comm bar, but its \
             overhead bar is scale-invariant — once comm shrinks below it, IV-B wins"
                .into(),
        ],
    }
}

/// Weak scaling: constant ~105³ points per task, growing the grid with
/// the machine.
pub fn ext06_weak_scaling() -> FigureData {
    let m = jaguarpf();
    let mut bulk = Vec::new();
    let mut nonblocking = Vec::new();
    for e in 0..11u32 {
        let nodes = 1usize << e;
        let cores = nodes * 12;
        let grid = (105.0 * (2.0 * nodes as f64).cbrt()).round() as usize;
        let s = CpuScenario::new(&m, cores, 6).with_grid(grid);
        bulk.push((cores as f64, s.gf(CpuImpl::BulkSync)));
        nonblocking.push((cores as f64, s.gf(CpuImpl::Nonblocking)));
    }
    FigureData {
        id: "ext06",
        title: "Extension: weak scaling on JaguarPF (~105³ points per task)".into(),
        x_label: "cores",
        y_label: "GF",
        series: vec![
            Series {
                label: "bulk-synchronous MPI".into(),
                points: bulk,
            },
            Series {
                label: "MPI nonblocking overlap".into(),
                points: nonblocking,
            },
        ],
        notes: vec![
            "under weak scaling the per-core work never shrinks, so the overlap stays \
             profitable at every multi-node scale — the Fig. 3 crossover is a \
             strong-scaling artifact (the single-node point has shared-memory \
             communication and nothing to hide)"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series<'a>(f: &'a FigureData, label: &str) -> &'a Series {
        f.series
            .iter()
            .find(|s| s.label.contains(label))
            .unwrap_or_else(|| panic!("missing series {label}"))
    }

    #[test]
    fn faster_pcie_helps_bulk_sync_most() {
        let f = ext01_pcie_sweep();
        let gain = |label: &str| -> f64 {
            let s = series(&f, label);
            s.points.last().unwrap().1 / s.points.iter().find(|p| p.0 == 1.0).unwrap().1
        };
        let g_f = gain("IV-F");
        let g_g = gain("IV-G");
        let g_i = gain("IV-I");
        assert!(g_f > 2.0, "IV-F gain {g_f}");
        assert!(g_g > 1.5, "IV-G gain {g_g}");
        assert!(g_i < 1.15, "IV-I should barely move: {g_i}");
        assert!(g_f > g_i && g_g > g_i);
    }

    #[test]
    fn with_fast_pcie_the_profiles_converge() {
        // At 16x PCIe the streams implementation approaches the overlap
        // one — the paper's "significantly different profile".
        let f = ext01_pcie_sweep();
        let at16 = |label: &str| series(&f, label).points.last().unwrap().1;
        let ratio = at16("IV-I") / at16("IV-G");
        assert!(ratio < 1.6, "still far apart at 16x: {ratio}");
        // At 1x they are far apart (the paper's measured world).
        let at1 = |label: &str| {
            series(&f, label)
                .points
                .iter()
                .find(|p| p.0 == 1.0)
                .unwrap()
                .1
        };
        assert!(at1("IV-I") / at1("IV-G") > 2.0);
    }

    #[test]
    fn hybrid_saturates_with_few_cores_per_gpu() {
        let f = ext02_cores_per_gpu();
        let best = series(&f, "best configuration");
        let at = |cores: f64| best.points.iter().find(|p| p.0 == cores).unwrap().1;
        // Going from 12 to 6 cores/GPU costs little…
        assert!(at(12.0) / at(6.0) < 1.10, "{} vs {}", at(12.0), at(6.0));
        // …and even 2 cores/GPU retains most of the performance.
        assert!(at(2.0) > 0.75 * at(12.0), "{} vs {}", at(2.0), at(12.0));
    }

    #[test]
    fn pinned_ablation_narrows_but_keeps_the_gap() {
        let f = ext03_pinned_ablation();
        let pageable = &series(&f, "pageable").points;
        let pinned = &series(&f, "page-locked").points;
        // Pinning helps IV-F and IV-G a lot.
        assert!(
            pinned[0].1 > 1.5 * pageable[0].1,
            "IV-F: {:?}",
            (pinned[0], pageable[0])
        );
        assert!(pinned[1].1 > 1.3 * pageable[1].1);
        // IV-I is unchanged (it already pins).
        assert!((pinned[3].1 - pageable[3].1).abs() < 1e-9);
        // The decoupling gap survives: IV-I still beats pinned IV-G.
        assert!(
            pageable[3].1 > 1.15 * pinned[1].1,
            "{} vs {}",
            pageable[3].1,
            pinned[1].1
        );
    }

    #[test]
    fn breakdown_shows_the_crossover_mechanism() {
        let f = ext05_breakdown();
        let at = |label: &str, c: f64| -> f64 {
            f.series
                .iter()
                .find(|s| s.label.starts_with(label))
                .unwrap()
                .points
                .iter()
                .find(|p| p.0 == c)
                .unwrap()
                .1
        };
        // At low core counts the unhidden comm + overhead of IV-C is far
        // below IV-B's comm bar…
        assert!(
            at("IV-C unhidden comm", 192.0) + at("IV-C overhead", 192.0) < at("IV-B comm", 192.0)
        );
        // …at the top, IV-C's overhead alone exceeds what hiding saves.
        let saved = at("IV-B comm", 12288.0) - at("IV-C unhidden comm", 12288.0);
        assert!(at("IV-C overhead", 12288.0) > saved);
    }

    #[test]
    fn weak_scaling_has_no_crossover() {
        // Multi-node points only: on a single node the halo exchange is a
        // shared-memory copy, so there is no latency to hide and the
        // overlap's fixed overhead makes IV-B marginally better there.
        let f = ext06_weak_scaling();
        let bulk = &f.series[0].points;
        let nb = &f.series[1].points;
        for (b, n) in bulk.iter().zip(nb).skip(1) {
            assert!(n.1 >= b.1, "crossover appeared at {} cores", b.0);
        }
        // And weak scaling is near-linear: efficiency at the top > 80%.
        let eff = (nb.last().unwrap().1 / nb[1].1) / 512.0;
        assert!(eff > 0.8, "weak-scaling efficiency {eff}");
    }
}
