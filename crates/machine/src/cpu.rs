//! CPU node model: stencil compute rates, threading overheads, NUMA.

use advect_core::flops::FLOPS_PER_POINT;

/// Bytes of memory traffic per point per step on the CPU: stream the
/// state in (8), write the new state (8), then Step 3 copies new → current
/// (read 8 + write 8).
pub const CPU_BYTES_PER_POINT: f64 = 32.0;

/// A node's CPU complex.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuModel {
    /// Sockets per node (Table II).
    pub sockets: usize,
    /// Cores per socket (Table II).
    pub cores_per_socket: usize,
    /// Clock in GHz (Table II).
    pub clock_ghz: f64,
    /// Peak double-precision flops per cycle per core (SSE on these
    /// Opterons: 2 adds + 2 multiplies).
    pub flops_per_cycle: f64,
    /// Sustained node memory bandwidth in GB/s (all sockets streaming).
    pub mem_bw_gbs: f64,
    /// Cores per NUMA domain (6-core dies on the Opterons tested; 4 on
    /// Lens's quad-core sockets).
    pub numa_domain: usize,
    /// Fraction of peak flops the compiled stencil loop achieves when not
    /// bandwidth limited.
    pub stencil_compute_eff: f64,
    /// Base cost of an OpenMP parallel region / barrier, in seconds.
    pub omp_region_base_s: f64,
    /// Additional region cost per log2(threads), in seconds.
    pub omp_region_log_s: f64,
    /// Private L2 cache per core, in KiB (the level the cache-blocked
    /// sweeps target).
    pub l2_kib_per_core: usize,
    /// Shared last-level cache per socket, in KiB.
    pub l3_kib_per_socket: usize,
}

impl CpuModel {
    /// Total cores per node.
    pub fn cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Peak double-precision GF of `n` cores.
    pub fn peak_gf(&self, n: usize) -> f64 {
        n as f64 * self.clock_ghz * self.flops_per_cycle
    }

    /// Memory-bandwidth efficiency of a team of `threads` threads: teams
    /// that span NUMA domains pay for remote accesses; single threads
    /// cannot saturate a socket's controllers.
    pub fn numa_bw_eff(&self, threads: usize) -> f64 {
        if threads <= self.numa_domain {
            1.0
        } else if threads <= self.cores_per_socket {
            0.92
        } else {
            0.82
        }
    }

    /// Compute efficiency of a team spanning NUMA domains: first-touch
    /// placement and cross-die synchronization cost threads efficiency as
    /// the team grows past a die, a socket, and beyond.
    pub fn numa_compute_eff(&self, threads: usize) -> f64 {
        let tier = if threads <= self.numa_domain {
            1.0
        } else if threads <= self.cores_per_socket {
            0.96
        } else if threads <= 2 * self.cores_per_socket {
            0.92
        } else {
            0.84
        };
        // Smooth per-thread synchronization/imbalance slope.
        tier * (1.0 - 0.005 * (threads as f64 - 1.0))
    }

    /// Sustained stencil rate, in points/s, of one task running `threads`
    /// threads while `tasks_per_node` tasks share the node's memory system.
    ///
    /// Rate = min(compute roof of the task's cores, the task's share of
    /// node bandwidth / traffic per point), with the NUMA factors applied
    /// to each term.
    pub fn stencil_points_per_second(&self, threads: usize, tasks_per_node: usize) -> f64 {
        assert!(threads >= 1 && tasks_per_node >= 1);
        let compute =
            self.peak_gf(threads) * 1e9 * self.stencil_compute_eff * self.numa_compute_eff(threads)
                / FLOPS_PER_POINT as f64;
        let bw_share = self.mem_bw_gbs * 1e9 / tasks_per_node as f64 * self.numa_bw_eff(threads);
        let bw = bw_share / CPU_BYTES_PER_POINT;
        compute.min(bw)
    }

    /// Cost of one OpenMP parallel region (fork + join/barrier) for a team
    /// of `threads`.
    pub fn omp_region_cost(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return 0.0;
        }
        self.omp_region_base_s + self.omp_region_log_s * (threads as f64).log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jaguar_cpu() -> CpuModel {
        crate::catalog::jaguarpf().cpu
    }

    /// Whole-node sustained stencil rate in GF when divided into
    /// `tasks_per_node` tasks of `threads` threads each.
    fn node_stencil_gf(c: &CpuModel, threads: usize, tasks_per_node: usize) -> f64 {
        c.stencil_points_per_second(threads, tasks_per_node)
            * tasks_per_node as f64
            * FLOPS_PER_POINT as f64
            / 1e9
    }

    #[test]
    fn node_rate_is_far_below_peak_on_jaguar() {
        let c = jaguar_cpu();
        // 12 cores at 2.6 GHz × 4 flops ≈ 125 GF peak; the compiled
        // stencil sustains a small fraction, capped by memory bandwidth.
        let node_gf = node_stencil_gf(&c, 12, 1);
        assert!(node_gf > 10.0 && node_gf < 32.0, "node {node_gf} GF");
        assert!(node_gf < 0.25 * c.peak_gf(12));
    }

    #[test]
    fn single_core_is_compute_bound() {
        let c = jaguar_cpu();
        let one = c.stencil_points_per_second(1, 1);
        // One core's compute roof is below its bandwidth share.
        let compute_roof = c.peak_gf(1) * 1e9 * c.stencil_compute_eff / 53.0;
        assert!((one - compute_roof).abs() / compute_roof < 1e-9);
    }

    #[test]
    fn bandwidth_shared_across_tasks() {
        let c = jaguar_cpu();
        // Full-node throughput is (nearly) invariant to the task split,
        // up to NUMA effects.
        let whole = node_stencil_gf(&c, 12, 1);
        let split = node_stencil_gf(&c, 6, 2);
        let fine = node_stencil_gf(&c, 1, 12);
        assert!(split >= whole, "{split} vs {whole}");
        // Fine split cannot exceed bandwidth roof either.
        let bw_roof = c.mem_bw_gbs * 53.0 / CPU_BYTES_PER_POINT;
        assert!(fine <= bw_roof * 1.01);
    }

    #[test]
    fn numa_penalty_kicks_in_across_domains() {
        let c = jaguar_cpu();
        assert_eq!(c.numa_bw_eff(6), 1.0);
        assert!(c.numa_bw_eff(12) < 1.0);
    }

    #[test]
    fn omp_region_cost_grows_with_threads() {
        let c = jaguar_cpu();
        assert_eq!(c.omp_region_cost(1), 0.0);
        assert!(c.omp_region_cost(12) > c.omp_region_cost(2));
    }
}
