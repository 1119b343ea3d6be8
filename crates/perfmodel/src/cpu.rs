//! Performance models for the CPU implementations (IV-A … IV-D).
//!
//! Analytic step-time models parameterized by machine, total cores, and
//! OpenMP threads per MPI task. The structural terms follow the
//! implementations exactly (what is serialized, what can hide what); the
//! constants are calibrated to the paper's reported shapes:
//!
//! * nonblocking overlap (IV-C) beats bulk-synchronous (IV-B) slightly
//!   while per-core work is large, then falls behind as its extra
//!   partition overhead and strided boundary pass stop amortizing —
//!   around 4 000 cores on JaguarPF, an order of magnitude later on
//!   Hopper II (Gemini's better asynchronous progress);
//! * the OpenMP-thread overlap (IV-D) "consistently lags": it gives up a
//!   thread during communication and pays guided-scheduling overhead.

use crate::params;
use advect_core::flops::{FLOPS_PER_POINT, PAPER_GRID};
use decomp::factor3;
use machine::Machine;

/// A CPU-only run configuration being modeled.
#[derive(Debug, Clone, Copy)]
pub struct CpuScenario<'a> {
    /// The machine.
    pub machine: &'a Machine,
    /// Total cores used.
    pub cores: usize,
    /// OpenMP threads per MPI task.
    pub threads: usize,
    /// Global grid points per dimension (the paper's strong-scaling runs
    /// fix this at 420; weak-scaling experiments grow it with the task
    /// count).
    pub grid: usize,
}

/// Additive breakdown of a modeled step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepBreakdown {
    /// Local computation (stencil + copy), seconds.
    pub compute: f64,
    /// Communication on the critical path, seconds.
    pub communication: f64,
    /// Scheduling/partition overhead (OpenMP regions, sweep restarts,
    /// boundary-pass penalty), seconds.
    pub overhead: f64,
}

impl StepBreakdown {
    /// Total step time: overhead + communication + compute, summed in
    /// that order.
    pub fn total(&self) -> f64 {
        self.overhead + self.communication + self.compute
    }
}

/// The four CPU implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuImpl {
    /// IV-A.
    SingleTask,
    /// IV-B.
    BulkSync,
    /// IV-C.
    Nonblocking,
    /// IV-D.
    ThreadOverlap,
}

impl<'a> CpuScenario<'a> {
    /// A new scenario; `threads` must be one of the machine's measured
    /// choices and divide the core count.
    pub fn new(machine: &'a Machine, cores: usize, threads: usize) -> Self {
        assert!(threads >= 1 && cores >= threads);
        Self {
            machine,
            cores,
            threads,
            grid: PAPER_GRID,
        }
    }

    /// Use a different global grid (weak-scaling experiments).
    pub fn with_grid(mut self, grid: usize) -> Self {
        self.grid = grid;
        self
    }

    /// MPI tasks.
    pub fn ntasks(&self) -> usize {
        self.cores / self.threads
    }

    /// Tasks sharing one node's memory system and NIC.
    pub fn tasks_per_node(&self) -> usize {
        (self.machine.cores_per_node() / self.threads).max(1)
    }

    /// Average subdomain dimensions (paper's near-cubic factorization).
    pub fn subdomain(&self) -> (f64, f64, f64) {
        let g = self.grid;
        let (px, py, pz) = factor3(self.ntasks().min(g * g * g), (g, g, g));
        (
            g as f64 / px as f64,
            g as f64 / py as f64,
            g as f64 / pz as f64,
        )
    }

    /// Grid points per task.
    pub fn points_per_task(&self) -> f64 {
        (self.grid as f64).powi(3) / self.ntasks() as f64
    }

    /// One task's sustained stencil rate, points/s.
    pub fn rate(&self) -> f64 {
        self.machine
            .cpu
            .stencil_points_per_second(self.threads, self.tasks_per_node())
    }

    /// Network time of one exchange phase (latency + both directions'
    /// transfers at the task's NIC share), excluding CPU message overhead.
    fn phase_net(&self, dim: usize) -> f64 {
        let (sx, sy, sz) = self.subdomain();
        let pts = match dim {
            0 => sy * sz,
            1 => (sx + 2.0) * sz,
            _ => (sx + 2.0) * (sy + 2.0),
        };
        let bytes = pts * 8.0;
        let net = &self.machine.net;
        if self.ntasks() == 1 {
            // Self-exchange: a shared-memory copy, not a NIC transfer.
            return 2.0 * bytes / (self.machine.cpu.mem_bw_gbs * 0.5e9);
        }
        if self.cores <= self.machine.cores_per_node() {
            // Single node: all neighbors exchange through shared memory.
            return 2.0 * bytes / (self.machine.cpu.mem_bw_gbs * 0.33e9);
        }
        let tpn = self.tasks_per_node() as f64;
        let share = net.node_bw_gbs * 1e9 / tpn;
        net.latency_s * (1.0 + params::INJECTION_CONTENTION * (tpn - 1.0)) + 2.0 * bytes / share
    }

    /// CPU software overhead of one phase (post + complete, 2 messages).
    fn phase_cpu(&self) -> f64 {
        if self.ntasks() == 1 {
            0.0
        } else {
            2.0 * self.machine.net.per_message_cpu_s
        }
    }

    /// Interior (core) and boundary (shell) points per task for the
    /// partitioned implementations.
    fn interior_boundary_split(&self) -> (f64, f64) {
        let (sx, sy, sz) = self.subdomain();
        let core = (sx - 2.0).max(0.0) * (sy - 2.0).max(0.0) * (sz - 2.0).max(0.0);
        (core, sx * sy * sz - core)
    }

    /// Per-region cost: OpenMP fork/join, or at least the fixed sweep
    /// restart cost (pointer setup, wait processing) at one thread.
    fn region_cost(&self) -> f64 {
        self.machine
            .cpu
            .omp_region_cost(self.threads)
            .max(params::SWEEP_RESTART_S)
    }

    /// Step time of IV-A (single task; uses at most one node's cores).
    fn single_task_step(&self) -> f64 {
        let threads = self.threads.min(self.machine.cores_per_node());
        let rate = self.machine.cpu.stencil_points_per_second(threads, 1);
        let omp = self.machine.cpu.omp_region_cost(threads);
        (self.grid as f64).powi(3) / rate + params::REGIONS_BULK as f64 * omp
    }

    /// Component breakdown of the bulk-synchronous step (IV-B); its
    /// total is IV-B's step time.
    pub fn breakdown_bulk_sync(&self) -> StepBreakdown {
        let omp = self.region_cost();
        let comm: f64 = (0..3).map(|d| self.phase_cpu() + self.phase_net(d)).sum();
        StepBreakdown {
            compute: self.points_per_task() / self.rate(),
            communication: comm,
            overhead: params::REGIONS_BULK as f64 * omp,
        }
    }

    /// Component breakdown of the nonblocking-overlap step (IV-C,
    /// interior thirds); its total is IV-C's step time. Communication is
    /// only the *unhidden* part.
    pub fn breakdown_nonblocking(&self) -> StepBreakdown {
        let omp = self.region_cost();
        let (pi, pb) = self.interior_boundary_split();
        let t_int = pi / self.rate();
        let alpha = self.machine.net.async_progress;
        let mut unhidden = 0.0;
        for d in 0..3 {
            let net = self.phase_net(d);
            // The CPU overhead and the non-progressing fraction of the
            // transfer cannot hide under the interior third.
            unhidden +=
                self.phase_cpu() + (1.0 - alpha) * net + (alpha * net - t_int / 3.0).max(0.0);
        }
        StepBreakdown {
            compute: t_int + pb / self.rate(),
            communication: unhidden,
            overhead: params::REGIONS_NONBLOCKING as f64 * omp
                + pb / self.rate() * (1.0 / params::BOUNDARY_PASS_EFF - 1.0),
        }
    }

    /// Step time of IV-D (OpenMP master-thread overlap, guided interior).
    fn thread_overlap_step(&self) -> f64 {
        let omp = self.region_cost();
        let (pi, pb) = self.interior_boundary_split();
        let comm: f64 = (0..3).map(|d| self.phase_cpu() + self.phase_net(d)).sum();
        let t_bnd = pb / (self.rate() * params::BOUNDARY_PASS_EFF);
        if self.threads == 1 {
            // No thread to hide behind: bulk-synchronous plus the guided
            // scheduling overhead.
            return self.breakdown_bulk_sync().total() * params::GUIDED_PENALTY;
        }
        // Interior proceeds on T-1 threads (guided) while the master
        // communicates; the master joins late. Only part of the
        // communication actually hides (poor funneled-MPI progress).
        let frac = (self.threads - 1) as f64 / self.threads as f64;
        let t_int_reduced = pi / (self.rate() * frac) * params::GUIDED_PENALTY;
        let hide = params::THREAD_OVERLAP_HIDE;
        params::REGIONS_THREAD_OVERLAP as f64 * omp
            + (1.0 - hide) * comm
            + t_int_reduced.max(hide * comm)
            + t_bnd
    }

    /// Step time of the given implementation.
    pub fn step_time(&self, im: CpuImpl) -> f64 {
        match im {
            CpuImpl::SingleTask => self.single_task_step(),
            CpuImpl::BulkSync => self.breakdown_bulk_sync().total(),
            CpuImpl::Nonblocking => self.breakdown_nonblocking().total(),
            CpuImpl::ThreadOverlap => self.thread_overlap_step(),
        }
    }

    /// Whole-machine GF at a given step time.
    pub fn gigaflops(&self, step: f64) -> f64 {
        (self.grid as f64).powi(3) * FLOPS_PER_POINT as f64 / step / 1e9
    }

    /// GF of the given implementation.
    pub fn gf(&self, im: CpuImpl) -> f64 {
        self.gigaflops(self.step_time(im))
    }
}

/// Best GF over the machine's thread-per-task choices at a core count.
/// Returns `(gf, best_threads)`.
pub fn best_cpu_gf(machine: &Machine, im: CpuImpl, cores: usize) -> (f64, usize) {
    // Evaluated on the sweep pool; the serial strict-`>` fold over results
    // in candidate order keeps the winner identical to a serial scan.
    let candidates: Vec<usize> = machine
        .thread_choices
        .iter()
        .copied()
        .filter(|&t| cores.is_multiple_of(t))
        .collect();
    let gfs = advect_core::sweep::SweepPool::global()
        .map(&candidates, |&t| CpuScenario::new(machine, cores, t).gf(im));
    let mut best = (0.0f64, 1usize);
    for (&t, &gf) in candidates.iter().zip(&gfs) {
        if gf > best.0 {
            best = (gf, t);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::{hopper_ii, jaguarpf};

    #[test]
    fn bulk_sync_scales_then_saturates() {
        let m = jaguarpf();
        let low = best_cpu_gf(&m, CpuImpl::BulkSync, 120).0;
        let mid = best_cpu_gf(&m, CpuImpl::BulkSync, 1200).0;
        let high = best_cpu_gf(&m, CpuImpl::BulkSync, 12000).0;
        assert!(mid > 5.0 * low, "mid {mid} vs low {low}");
        assert!(high > mid, "high {high} vs mid {mid}");
        // Strong-scaling rolloff: parallel efficiency drops at the top.
        let eff = (high / low) / (12000.0 / 120.0);
        assert!(eff < 0.9, "no rolloff: efficiency {eff}");
    }

    #[test]
    fn nonblocking_wins_at_low_core_counts_on_jaguar() {
        let m = jaguarpf();
        for cores in [120usize, 600, 1200] {
            let b = best_cpu_gf(&m, CpuImpl::BulkSync, cores).0;
            let c = best_cpu_gf(&m, CpuImpl::Nonblocking, cores).0;
            assert!(c > b, "cores {cores}: nonblocking {c} <= bulk {b}");
        }
    }

    #[test]
    fn bulk_wins_at_high_core_counts_on_jaguar() {
        // "At 6000 and above ... the bulk-synchronous implementation has
        // a significant advantage."
        let m = jaguarpf();
        for cores in [6144usize, 12288] {
            let b = best_cpu_gf(&m, CpuImpl::BulkSync, cores).0;
            let c = best_cpu_gf(&m, CpuImpl::Nonblocking, cores).0;
            assert!(b > c, "cores {cores}: bulk {b} <= nonblocking {c}");
        }
    }

    #[test]
    fn hopper_crossover_is_an_order_of_magnitude_higher() {
        // On Hopper the nonblocking advantage persists to much higher
        // core counts.
        let m = hopper_ii();
        for cores in [1152usize, 6144, 12288] {
            let b = best_cpu_gf(&m, CpuImpl::BulkSync, cores).0;
            let c = best_cpu_gf(&m, CpuImpl::Nonblocking, cores).0;
            assert!(c > b, "cores {cores}: nonblocking {c} <= bulk {b}");
        }
        let b = best_cpu_gf(&m, CpuImpl::BulkSync, 49152).0;
        let c = best_cpu_gf(&m, CpuImpl::Nonblocking, 49152).0;
        assert!(b > c, "at 49152: bulk {b} <= nonblocking {c}");
    }

    #[test]
    fn thread_overlap_consistently_lags() {
        for m in [jaguarpf(), hopper_ii()] {
            for cores in [120usize, 1200, 12000] {
                let best_other = best_cpu_gf(&m, CpuImpl::BulkSync, cores)
                    .0
                    .max(best_cpu_gf(&m, CpuImpl::Nonblocking, cores).0);
                let d = best_cpu_gf(&m, CpuImpl::ThreadOverlap, cores).0;
                assert!(
                    d < best_other,
                    "{} cores {cores}: D {d} vs {best_other}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn weak_scaling_keeps_overlap_profitable() {
        // Strong scaling shrinks per-core work until IV-C's overhead
        // stops amortizing (Fig. 3); under weak scaling the per-core work
        // is constant, so the overlap stays profitable at every scale.
        let m = jaguarpf();
        for nodes_exp in [2u32, 5, 10] {
            let nodes = 1usize << nodes_exp;
            let cores = nodes * 12;
            // Keep ~105³ points per task at 2 tasks/node.
            let grid = (105.0 * (2.0 * nodes as f64).cbrt()).round() as usize;
            let s = CpuScenario::new(&m, cores, 6).with_grid(grid);
            assert!(
                s.gf(CpuImpl::Nonblocking) > s.gf(CpuImpl::BulkSync),
                "{nodes} nodes: overlap unprofitable under weak scaling"
            );
        }
    }

    #[test]
    fn single_task_is_flat() {
        let m = jaguarpf();
        let a1 = best_cpu_gf(&m, CpuImpl::SingleTask, 12).0;
        let a2 = best_cpu_gf(&m, CpuImpl::SingleTask, 1200).0;
        assert!((a1 - a2).abs() / a1 < 0.01);
        assert!(a1 > 10.0 && a1 < 32.0, "single node {a1} GF");
    }

    #[test]
    fn thread_choice_winner_varies_with_scale_on_jaguar() {
        // Fig. 5: different numbers of threads per task perform best at
        // different total core counts (the paper finds each of 1, 2, 3, 6,
        // 12 optimal somewhere; our model reproduces the variation and the
        // low-to-high trend, with 2 and 12 only ever near-optimal — see
        // EXPERIMENTS.md).
        let m = jaguarpf();
        let mut winners = std::collections::HashSet::new();
        for exp in 0..11 {
            let cores = 12 << exp;
            winners.insert(best_cpu_gf(&m, CpuImpl::BulkSync, cores).1);
        }
        assert!(winners.len() >= 3, "winners do not vary: {winners:?}");
        assert!(
            winners.iter().any(|&t| t <= 2),
            "no small thread count wins at low scale: {winners:?}"
        );
        assert!(
            winners.iter().any(|&t| t >= 6),
            "no large thread count wins at high scale: {winners:?}"
        );
    }

    #[test]
    fn best_threads_grows_with_core_count_on_jaguar() {
        let m = jaguarpf();
        let low = best_cpu_gf(&m, CpuImpl::BulkSync, 24).1;
        let high = best_cpu_gf(&m, CpuImpl::BulkSync, 12288).1;
        assert!(high > low, "low {low} high {high}");
    }

    #[test]
    fn twenty_four_threads_never_optimal_on_hopper() {
        let m = hopper_ii();
        for exp in 0..12 {
            let cores = 24 << exp;
            let (_, t) = best_cpu_gf(&m, CpuImpl::BulkSync, cores);
            assert_ne!(t, 24, "24 threads optimal at {cores} cores");
        }
    }
}
