//! # perfmodel
//!
//! The virtual-time performance layer: analytic and discrete-event models
//! that regenerate the paper's Figures 3–12 from the implementations'
//! schedules (what serializes, what overlaps) and the Table II machine
//! descriptions. The functional layer (`overlap` crate) proves the
//! schedules are *correct*; this crate prices them: [`cpu`] models
//! IV-A…IV-D (Figures 3–6), [`gpu`] composes IV-E…IV-I (Figures 7–12 and
//! the Section V-E anchors) from [`event`] task templates on the list
//! scheduler the simulated device runs on ([`simgpu::event`]), [`sweep`]
//! takes the best over tuning parameters as the paper reports each point,
//! and [`params`] holds every calibrated constant with the anchor that
//! pins it.
//!
//! Every size the models charge is rank 0's, taken from `decomp`'s plan
//! for the decomposition the functional layer runs: the exchange's
//! message lengths, the core and shell IV-C/IV-D split, the Figure 1
//! partition's rings and walls, and the box each task computes. Rank 0
//! has the largest box, and every task sharing a node is charged it, so
//! the k tasks sharing a GPU run the same ops: IV-F…IV-I price one task's
//! ops once and replay them k times through the node's resources. Pricing
//! a point is arithmetic and allocates nothing.
//!
//! Calibration anchors and the measured-vs-paper comparison live in
//! EXPERIMENTS.md.

pub mod cpu;
pub mod event;
pub mod gpu;
pub mod params;
pub mod sweep;

pub use cpu::{best_cpu_gf, CpuImpl, CpuScenario};
pub use gpu::{GpuImpl, GpuScenario};
pub use simgpu::event::{Res, Schedule};
pub use sweep::{best_gf, best_gpu_gf, AnyImpl, BestPoint};

use advect_core::field::Range3;
use decomp::{shell_and_core, Decomposition, ExchangePlan};
use machine::Machine;

/// Rank 0's block of the decomposition the functional layer runs, and
/// the sizes the models charge from it. Rank 0 holds the first block of
/// every dimension, so its box is the largest and a bulk-synchronous step
/// waits for it; every task sharing a node is charged this box.
#[derive(Debug, Clone, Copy)]
struct Rank0 {
    /// Interior extent.
    extent: (usize, usize, usize),
    /// Per-direction message length of the x, y and z exchange phases.
    messages: [usize; 3],
    /// Points of the one-point shell: the boundary IV-C/IV-D compute
    /// after the exchange, and the walls IV-I computes after its last
    /// phase.
    shell: usize,
}

impl Rank0 {
    /// Rank 0 of `ntasks` tasks on a `g`³ grid.
    fn new(ntasks: usize, g: usize) -> Self {
        let extent = Decomposition::rank0_extent(ntasks, (g, g, g));
        let region = Range3::new(
            (0, extent.0 as i64),
            (0, extent.1 as i64),
            (0, extent.2 as i64),
        );
        let phases = ExchangePlan::new(extent, 1).phases;
        Self {
            extent,
            messages: phases.map(|p| p.transfers[0].message_len()),
            shell: region.len() - shell_and_core(region, 1).0.len(),
        }
    }

    /// Points of the box.
    fn points(&self) -> usize {
        self.extent.0 * self.extent.1 * self.extent.2
    }
}

/// Network time of one exchange phase: a `len`-point message each way.
/// A lone task copies to itself through memory, and the tasks of one node
/// exchange through shared-memory MPI. Otherwise the phase pays the
/// latency, grown by injection contention among the node's tasks, and
/// both transfers at the task's share of the NIC. With `nic_cpu` the two
/// messages' CPU overhead is charged inside the NIC term (the GPU
/// schedules' MPI op); the CPU models charge it beside the phase.
fn phase_net(m: &Machine, cores: usize, threads: usize, len: usize, nic_cpu: bool) -> f64 {
    let bytes = len as f64 * 8.0;
    if cores / threads <= 1 {
        return 2.0 * bytes / (m.cpu.mem_bw_gbs * 0.5e9);
    }
    if m.nodes_for_cores(cores) == 1 {
        return 2.0 * bytes / (m.cpu.mem_bw_gbs * 0.33e9);
    }
    let net = &m.net;
    let tpn = (m.cores_per_node() / threads).max(1) as f64;
    let share = net.node_bw_gbs * 1e9 / tpn;
    let cpu = if nic_cpu {
        2.0 * net.per_message_cpu_s
    } else {
        0.0
    };
    net.latency_s * (1.0 + params::INJECTION_CONTENTION * (tpn - 1.0)) + cpu + 2.0 * bytes / share
}

#[cfg(test)]
mod tests {
    //! The cross-layer counter oracle: each implementation's functional
    //! run moves, on rank 0, exactly the sizes the model charges at the
    //! same shape.

    use crate::{CpuScenario, GpuScenario};
    use advect_core::stepper::AdvectionProblem;
    use overlap::{Impl, RunConfig};

    /// Rank 0's per-step `[values_sent, h2d_points, d2h_points,
    /// points_computed]`: a 2-step run minus a 1-step run, so set-up and
    /// gather traffic cancel. The device counters read 0 for a CPU run.
    fn measured(im: Impl, cfg: RunConfig, spec: &simgpu::GpuSpec) -> [u64; 4] {
        let spec = im.uses_gpu().then_some(spec);
        let counts = |steps| {
            let cfg = RunConfig { steps, ..cfg };
            let report = im.run_with_report(&cfg, spec).1;
            let gpu = report.gpu.first().copied().unwrap_or_default();
            let sent = report.comm[0].values_sent;
            [sent, gpu.h2d_points, gpu.d2h_points, gpu.points_computed]
        };
        let (one, two) = (counts(1), counts(2));
        [0, 1, 2, 3].map(|i| two[i] - one[i])
    }

    /// The same four sizes as the model charges them for rank 0.
    fn charged(im: Impl, n: usize, tasks: usize, thickness: usize) -> [u64; 4] {
        let m = machine::yona();
        let cpu = CpuScenario::new(&m, tasks, 1).with_grid(n);
        let gpu = GpuScenario::on_grid(&m, tasks, 1, n);
        let sent = |r: crate::Rank0| 2 * r.messages.iter().sum::<usize>();
        let device = |t| {
            let p = decomp::BoxPartition::new(gpu.rank0.extent, t);
            let computed = p.gpu_deep_interior.len() + p.d2h_points();
            [sent(gpu.rank0), p.h2d_points(), p.d2h_points(), computed]
        };
        let sizes = match im {
            Impl::SingleTask => [0; 4],
            Impl::BulkSync | Impl::Nonblocking | Impl::ThreadOverlap => [sent(cpu.rank0), 0, 0, 0],
            Impl::GpuResident => [0, 0, 0, n.pow(3)],
            Impl::GpuBulkSync | Impl::GpuStreams => device(0),
            Impl::HybridBulkSync | Impl::HybridOverlap => device(thickness),
        };
        sizes.map(|v| v as u64)
    }

    #[test]
    fn functional_counters_equal_the_charged_sizes() {
        let spec = machine::yona().gpu.expect("Yona has a GPU");
        // Grids the task counts do not divide: rank 0's box is the
        // largest, not the average.
        let shapes = [(13, 4), (13, 8), (11, 6)];
        for im in Impl::ALL {
            for (n, tasks) in shapes {
                let tasks = if im.uses_mpi() { tasks } else { 1 };
                for thickness in 0..=2 {
                    if im == Impl::HybridOverlap && thickness == 0 {
                        continue;
                    }
                    for block in [(8, 8), (32, 8)] {
                        let cfg = RunConfig::new(AdvectionProblem::general_case(n), 1)
                            .tasks(tasks)
                            .with_block(block)
                            .with_thickness(thickness);
                        assert_eq!(
                            measured(im, cfg, &spec),
                            charged(im, n, tasks, thickness),
                            "{} at n = {n}, {tasks} tasks, thickness {thickness}, block {block:?}",
                            im.section()
                        );
                    }
                }
            }
        }
    }
}
