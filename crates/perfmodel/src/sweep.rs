//! "Best over tuning parameters" searches.
//!
//! The paper reports, for each figure point, "the best result for a given
//! number of cores, among all measured numbers of OpenMP threads per MPI
//! task" (and box thicknesses where applicable). These helpers mirror
//! that reporting.

use crate::cpu::CpuImpl;
use crate::gpu::{GpuImpl, GpuScenario};
use machine::Machine;

/// Box thicknesses the sweeps consider (Figures 11/12 plot a subset).
pub const THICKNESS_CHOICES: [usize; 10] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32];

/// A best-configuration result.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BestPoint {
    /// Achieved GF.
    pub gf: f64,
    /// Winning threads per task.
    pub threads: usize,
    /// Winning box thickness (0 where not applicable).
    pub thickness: usize,
}

/// Any of the nine implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnyImpl {
    /// A CPU implementation (IV-A…D).
    Cpu(CpuImpl),
    /// A GPU implementation (IV-E…I).
    Gpu(GpuImpl),
}

impl AnyImpl {
    /// All nine in the paper's order.
    pub const ALL: [AnyImpl; 9] = [
        AnyImpl::Cpu(CpuImpl::SingleTask),
        AnyImpl::Cpu(CpuImpl::BulkSync),
        AnyImpl::Cpu(CpuImpl::Nonblocking),
        AnyImpl::Cpu(CpuImpl::ThreadOverlap),
        AnyImpl::Gpu(GpuImpl::Resident),
        AnyImpl::Gpu(GpuImpl::BulkSync),
        AnyImpl::Gpu(GpuImpl::Streams),
        AnyImpl::Gpu(GpuImpl::HybridBulkSync),
        AnyImpl::Gpu(GpuImpl::HybridOverlap),
    ];

    /// Figure-legend label.
    pub fn label(&self) -> &'static str {
        match self {
            AnyImpl::Cpu(CpuImpl::SingleTask) => "single task",
            AnyImpl::Cpu(CpuImpl::BulkSync) => "bulk-synchronous MPI",
            AnyImpl::Cpu(CpuImpl::Nonblocking) => "MPI nonblocking overlap",
            AnyImpl::Cpu(CpuImpl::ThreadOverlap) => "MPI OpenMP-thread overlap",
            AnyImpl::Gpu(GpuImpl::Resident) => "GPU resident",
            AnyImpl::Gpu(GpuImpl::BulkSync) => "GPU bulk-synchronous MPI",
            AnyImpl::Gpu(GpuImpl::Streams) => "GPU MPI overlap (streams)",
            AnyImpl::Gpu(GpuImpl::HybridBulkSync) => "CPU+GPU bulk-synchronous",
            AnyImpl::Gpu(GpuImpl::HybridOverlap) => "CPU+GPU full overlap",
        }
    }
}

/// Best GF of a GPU implementation at a core count, over threads per task
/// (and thickness for the hybrids), at the given GPU block shape.
///
/// ```
/// // IV-I at 48 Yona cores: the paper's Figure 8 block beats its neighbours.
/// let at = |b| perfmodel::best_gpu_gf(&machine::yona(), perfmodel::GpuImpl::HybridOverlap, 48, b);
/// assert!([(16, 8), (64, 8), (32, 4), (32, 16)].iter().all(|&b| at((32, 8)).gf > at(b).gf));
/// ```
pub fn best_gpu_gf(
    machine: &Machine,
    im: GpuImpl,
    cores: usize,
    block: (usize, usize),
) -> BestPoint {
    // A strict `>` over threads, then thickness: the first winner takes
    // ties. One scenario per thread count computes the box once.
    let (threads, thicknesses): (&[usize], &[usize]) = match im {
        // Single-GPU only: defined at one node, as one task.
        GpuImpl::Resident if cores != machine.cores_per_node() => return BestPoint::default(),
        GpuImpl::Resident => (std::slice::from_ref(&cores), &[0]),
        GpuImpl::HybridBulkSync | GpuImpl::HybridOverlap => {
            (machine.thread_choices, &THICKNESS_CHOICES)
        }
        _ => (machine.thread_choices, &[0]),
    };
    let mut best = BestPoint::default();
    for &t in threads {
        if !cores.is_multiple_of(t) {
            continue;
        }
        let s = GpuScenario::new(machine, cores, t).with_block(block);
        for &th in thicknesses {
            let gf = s.with_thickness(th).gf(im);
            if gf > best.gf {
                best = BestPoint {
                    gf,
                    threads: t,
                    thickness: th,
                };
            }
        }
    }
    best
}

/// Best GF of any implementation at a core count.
pub fn best_gf(machine: &Machine, im: AnyImpl, cores: usize, block: (usize, usize)) -> BestPoint {
    match im {
        AnyImpl::Cpu(c) => {
            let (gf, threads) = crate::cpu::best_cpu_gf(machine, c, cores);
            BestPoint {
                gf,
                threads,
                thickness: 0,
            }
        }
        AnyImpl::Gpu(g) => best_gpu_gf(machine, g, cores, block),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use advect_core::flops::FLOPS_PER_POINT;
    use machine::{lens, yona};

    #[test]
    fn modeled_scaling_efficiency_decays_to_bandwidth_roof() {
        // Per-thread scaling of the threaded interior sweep (one task):
        // parallel efficiency `gf / (threads · gf₁)` never rises with the
        // team width, and bends where the team hits the node's bandwidth
        // roof (`CpuModel::stencil_points_per_second`).
        let cpu = machine::jaguarpf().cpu;
        let gf_at = |t| cpu.stencil_points_per_second(t, 1) * FLOPS_PER_POINT as f64 / 1e9;
        let base = gf_at(1);
        let curve: Vec<(f64, f64)> = [1usize, 2, 4, 6, 12]
            .iter()
            .map(|&t| {
                let gf = gf_at(t);
                (gf, gf / (t as f64 * base))
            })
            .collect();
        assert!((curve[0].1 - 1.0).abs() < 1e-12);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12);
            assert!(w[1].0 >= w[0].0 * 0.99, "GF should not collapse");
        }
        // The full node is bandwidth-bound: efficiency well below 1.
        assert!(curve.last().unwrap().1 < 0.9);
    }

    #[test]
    fn hybrid_overlap_dominates_on_yona() {
        // Figs. 9/10: the full-overlap hybrid "dramatically outperforms
        // the other parallel implementations, by a factor of two or more".
        let m = yona();
        for nodes in [2usize, 4, 8, 16] {
            let cores = nodes * 12;
            let i = best_gpu_gf(&m, GpuImpl::HybridOverlap, cores, (32, 8)).gf;
            for im in [GpuImpl::BulkSync, GpuImpl::Streams, GpuImpl::HybridBulkSync] {
                let other = best_gpu_gf(&m, im, cores, (32, 8)).gf;
                assert!(
                    i >= 2.0 * other,
                    "{nodes} nodes: IV-I {i} < 2 x {im:?} {other}"
                );
            }
        }
    }

    #[test]
    fn yona_hybrid_beats_cpu_only_by_4x() {
        // Fig. 10: "more than four times the performance of the best
        // CPU-only implementation".
        let m = yona();
        for nodes in [4usize, 8, 16] {
            let cores = nodes * 12;
            let i = best_gpu_gf(&m, GpuImpl::HybridOverlap, cores, (32, 8)).gf;
            let cpu = AnyImpl::ALL[1..4]
                .iter()
                .map(|im| best_gf(&m, *im, cores, (32, 8)).gf)
                .fold(0.0f64, f64::max);
            assert!(i > 4.0 * cpu, "{nodes} nodes: IV-I {i} vs CPU {cpu}");
        }
    }

    #[test]
    fn lens_hybrid_exceeds_cpu_plus_gpu_sum() {
        // Fig. 9: "the best CPU-GPU performance exceeds the sum of the
        // best CPU-only performance plus the best GPU-computation
        // performance".
        let m = lens();
        for nodes in [2usize, 8, 16] {
            let cores = nodes * 16;
            let hybrid = best_gpu_gf(&m, GpuImpl::HybridOverlap, cores, (32, 11))
                .gf
                .max(best_gpu_gf(&m, GpuImpl::HybridBulkSync, cores, (32, 11)).gf);
            let cpu = AnyImpl::ALL[1..4]
                .iter()
                .map(|im| best_gf(&m, *im, cores, (32, 11)).gf)
                .fold(0.0f64, f64::max);
            let gpu = best_gpu_gf(&m, GpuImpl::BulkSync, cores, (32, 11))
                .gf
                .max(best_gpu_gf(&m, GpuImpl::Streams, cores, (32, 11)).gf);
            assert!(
                hybrid > cpu + gpu,
                "{nodes} nodes: hybrid {hybrid} <= cpu {cpu} + gpu {gpu}"
            );
        }
    }

    #[test]
    fn best_thickness_shrinks_with_core_count_on_lens() {
        // Fig. 11: "the best box width decreases with increasing core
        // count".
        let m = lens();
        let low = best_gpu_gf(&m, GpuImpl::HybridOverlap, 16, (32, 11)).thickness;
        let high = best_gpu_gf(&m, GpuImpl::HybridOverlap, 31 * 16, (32, 11)).thickness;
        assert!(high <= low, "low-cores thickness {low}, high-cores {high}");
    }

    #[test]
    fn yona_veneer_is_thin() {
        // Fig. 12 / §V-E: "the best box thickness is often just one" on
        // Yona — a veneer, not load balancing.
        let m = yona();
        let mut thin = 0;
        let mut total = 0;
        for nodes in [2usize, 4, 8, 16] {
            let b = best_gpu_gf(&m, GpuImpl::HybridOverlap, nodes * 12, (32, 8));
            total += 1;
            if b.thickness <= 4 {
                thin += 1;
            }
        }
        assert!(thin * 2 >= total, "veneer not thin: {thin}/{total}");
    }

    /// Section VI names threads/task, box thickness and block shape as the
    /// tuning parameters. Over the joint space, the best IV-I point uses
    /// the paper's block (Figs. 7/8) at each node count.
    fn joint_optimum_is(m: Machine, nodes: [usize; 3], paper_block: (usize, usize)) {
        let max_threads = m.gpu.as_ref().unwrap().max_threads_per_block;
        let blocks = [16usize, 32, 64, 128]
            .into_iter()
            .flat_map(|bx| [1usize, 2, 4, 6, 8, 11, 12, 16, 24, 32].map(|by| (bx, by)))
            .filter(|&(bx, by)| bx * by <= max_threads);
        for n in nodes {
            let cores = n * m.cores_per_node();
            let at = |b| best_gpu_gf(&m, GpuImpl::HybridOverlap, cores, b);
            let best = blocks.clone().map(at).max_by(|a, b| a.gf.total_cmp(&b.gf));
            assert_eq!(best, Some(at(paper_block)), "{} at {n} nodes", m.name);
        }
    }

    #[test]
    fn paper_block_is_the_joint_optimum_on_yona() {
        joint_optimum_is(yona(), [1, 4, 16], (32, 8));
    }

    #[test]
    fn paper_block_is_the_joint_optimum_on_lens() {
        joint_optimum_is(lens(), [1, 8, 31], (32, 11));
    }

    #[test]
    fn best_thickness_depends_on_threads() {
        // Section VI: the box thickness "can itself depend on the number
        // of threads per task".
        let m = yona();
        let best_thickness: Vec<usize> = m
            .thread_choices
            .iter()
            .map(|&t| {
                let gf = |th| {
                    GpuScenario::new(&m, 48, t)
                        .with_block((32, 8))
                        .with_thickness(th)
                        .gf(GpuImpl::HybridOverlap)
                };
                THICKNESS_CHOICES
                    .into_iter()
                    .max_by(|&a, &b| gf(a).total_cmp(&gf(b)))
                    .unwrap()
            })
            .collect();
        assert_eq!(m.thread_choices, [1, 2, 3, 6, 12]);
        assert_eq!(best_thickness, [1, 2, 3, 4, 4]);
    }

    #[test]
    fn few_tasks_per_node_win_for_hybrid() {
        // Figs. 11/12: "the best performance comes from few tasks per
        // node, often just one task".
        let m = yona();
        let b = best_gpu_gf(&m, GpuImpl::HybridOverlap, 8 * 12, (32, 8));
        let tasks_per_node = 12 / b.threads;
        assert!(tasks_per_node <= 2, "{tasks_per_node} tasks per node won");
    }
}
