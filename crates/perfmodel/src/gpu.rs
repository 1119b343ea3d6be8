//! Performance models for the GPU implementations (IV-E … IV-I).
//!
//! Each implementation's time step is composed as a discrete-event
//! schedule ([`simgpu::event`]) over the node's resources: the GPU compute
//! engine, the PCIe copy engines, the NIC, and the CPU team. Its ops are
//! sized by rank 0's Figure 1 partition ([`decomp::BoxPartition`]): the
//! deep interior, the boundary ring (D2H), the halo ring (H2D) and the CPU
//! walls. The chains mirror the functional code in the `overlap` crate
//! exactly:
//!
//! * **IV-H** chains the exchange up front: pack → D2H → MPI → H2D →
//!   unpack → face kernels → interior kernel, with the CPU walls beside
//!   the kernels once MPI is done;
//! * **IV-F** is IV-H with no veneer (thickness 0, so no wall op);
//! * **IV-G** issues the interior kernel first, runs the incoming half of
//!   the same chain beside it, and downloads the outgoing boundary last;
//! * **IV-I** decouples: the PCIe ring traffic (asynchronous, page-locked)
//!   and GPU boundary kernels run beside the interior kernel, while the
//!   MPI phases overlap CPU wall computation — no path contains both MPI
//!   and PCIe.
//!
//! The k tasks sharing the node's GPU run the same ops, so IV-F…IV-I
//! size and price one task's ops once, as a [`crate::event::Task`], and
//! replay it through the node's resources k times, each replayed task
//! first paying a context switch on the GPU engine when k > 1.
//! [`GpuScenario::schedule`] builds an implementation's schedule and
//! [`GpuScenario::step_time`] prices it; everything else is private.
//!
//! The blocking copies of IV-F/G/H run at the degraded *pageable* PCIe
//! rate; IV-I's async copies run at the spec rate (see
//! [`crate::params::pageable_pcie_gbs`]) — the mechanical reading of
//! Section V-E's "decoupling of MPI communication and CPU-GPU
//! communication".

use crate::event::Task;
use crate::params;
use crate::{Res, Schedule};
use advect_core::flops::{FLOPS_PER_POINT, PAPER_GRID};
use decomp::BoxPartition;
use machine::Machine;
use simgpu::timing;

/// Penalty of the halo-layout (non-periodic) kernels relative to the
/// resident kernel: halo-offset rows break 128-byte alignment of global
/// accesses. Keeps the best hybrid implementation just *under* the
/// GPU-resident anchor (82 vs 86 GF), as the paper reports.
pub const NONPERIODIC_KERNEL_PENALTY: f64 = 1.1;

/// Throughput penalty of boundary kernels co-scheduled beside the interior
/// kernel on concurrent-kernel parts (they steal SMs).
pub const AUX_KERNEL_PENALTY: f64 = 1.5;

/// The five GPU implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuImpl {
    /// IV-E.
    Resident,
    /// IV-F.
    BulkSync,
    /// IV-G.
    Streams,
    /// IV-H.
    HybridBulkSync,
    /// IV-I.
    HybridOverlap,
}

/// A GPU run configuration being modeled (one GPU per node). The core
/// count, threads and grid are fixed at construction, because rank 0's
/// box is derived from them there.
#[derive(Debug, Clone, Copy)]
pub struct GpuScenario<'a> {
    /// The machine (must have a GPU).
    pub machine: &'a Machine,
    /// Total cores (whole nodes; one GPU per node).
    cores: usize,
    /// OpenMP threads per MPI task.
    threads: usize,
    /// Global grid points per dimension (420 in the paper's runs).
    grid: usize,
    /// Rank 0's box, the largest of the decomposition.
    pub(crate) rank0: crate::Rank0,
    /// GPU thread-block shape.
    pub block: (usize, usize),
    /// CPU box thickness (hybrid implementations; 0 otherwise).
    pub thickness: usize,
    /// Scale factor on both PCIe rates (what-if experiments: the paper's
    /// conclusion speculates about "an architecture with faster,
    /// lower-latency CPU-GPU communication").
    pub pcie_scale: f64,
    /// Override for the pageable (blocking-copy) PCIe rate in GB/s; the
    /// machine default when `None`. Setting this to the pinned rate
    /// ablates the pageable/pinned distinction.
    pub pageable_gbs: Option<f64>,
}

impl<'a> GpuScenario<'a> {
    /// A new scenario on the paper's 420³ grid.
    pub fn new(machine: &'a Machine, cores: usize, threads: usize) -> Self {
        Self::on_grid(machine, cores, threads, PAPER_GRID)
    }

    /// A new scenario on a `grid`³ grid.
    pub(crate) fn on_grid(machine: &'a Machine, cores: usize, threads: usize, grid: usize) -> Self {
        assert!(machine.gpu.is_some(), "{} has no GPUs", machine.name);
        Self {
            machine,
            cores,
            threads,
            grid,
            rank0: crate::Rank0::new((cores / threads).max(1), grid),
            block: (32, 8),
            thickness: 0,
            pcie_scale: 1.0,
            pageable_gbs: None,
        }
    }

    /// Set the block shape.
    pub fn with_block(mut self, b: (usize, usize)) -> Self {
        self.block = b;
        self
    }

    /// Set the CPU box thickness.
    pub fn with_thickness(mut self, t: usize) -> Self {
        self.thickness = t;
        self
    }

    /// Scale both PCIe rates (what-if architecture experiments).
    pub fn with_pcie_scale(mut self, s: f64) -> Self {
        self.pcie_scale = s;
        self
    }

    /// Override the pageable-copy PCIe rate (GB/s).
    pub fn with_pageable_gbs(mut self, gbs: f64) -> Self {
        self.pageable_gbs = Some(gbs);
        self
    }

    /// Tasks sharing one node (and its GPU).
    pub fn tasks_per_node(&self) -> usize {
        (self.machine.cores_per_node() / self.threads).max(1)
    }

    fn spec(&self) -> &simgpu::GpuSpec {
        self.machine.gpu.as_ref().expect("machine has a GPU")
    }

    /// Halo-layout kernel rate, points/s.
    fn kernel_rate(&self) -> f64 {
        timing::stencil_points_per_second(self.spec(), self.block) / NONPERIODIC_KERNEL_PENALTY
    }

    /// The interior kernel over the GPU block's deep interior.
    fn interior_kernel_dur(&self, p: &BoxPartition) -> f64 {
        self.spec().launch_overhead_s + p.gpu_deep_interior.len() as f64 / self.kernel_rate()
    }

    /// The six boundary kernels over the GPU block's boundary ring; its
    /// x walls run at the x faces' efficiency.
    fn face_kernels_dur(&self, p: &BoxPartition, aux: bool) -> f64 {
        let rate = self.kernel_rate() / if aux { AUX_KERNEL_PENALTY } else { 1.0 };
        let [x_lo, x_hi, ..] = p.gpu_boundary_ring;
        let face_x = x_lo.len() + x_hi.len();
        6.0 * self.spec().launch_overhead_s
            + face_x as f64 / (rate * params::FACE_EFF_X)
            + (p.d2h_points() - face_x) as f64 / (rate * params::FACE_EFF_YZ)
    }

    fn pack_dur(&self, pts: usize) -> f64 {
        timing::pack_kernel_time(self.spec(), pts) + 5.0 * self.spec().launch_overhead_s
    }

    /// PCIe transfer duration for `pts` points, pageable or pinned.
    fn pcie_dur(&self, pts: usize, pinned: bool) -> f64 {
        let gbs = if pinned {
            self.spec().pcie_bw_gbs
        } else {
            self.pageable_gbs
                .unwrap_or_else(|| params::pageable_pcie_gbs(self.machine.name))
        } * self.pcie_scale;
        6.0 * self.spec().pcie_latency_s / self.pcie_scale + pts as f64 * 8.0 / (gbs * 1e9)
    }

    fn staging_dur(&self, pts: usize) -> f64 {
        pts as f64 * 8.0 * params::HOST_STAGING_S_PER_BYTE
    }

    /// Network time of exchange phase `dim`, CPU message overhead
    /// included.
    fn net(&self, dim: usize) -> f64 {
        let len = self.rank0.messages[dim];
        crate::phase_net(self.machine, self.cores, self.threads, len, true)
    }

    /// CPU wall-computation rate (points/s) for this task's team.
    fn cpu_wall_rate(&self) -> f64 {
        self.machine
            .cpu
            .stencil_points_per_second(self.threads, self.tasks_per_node())
            * params::CPU_WALL_EFF
    }

    /// Outgoing half of a blocking exchange: pack the boundary ring,
    /// download it (pageable), stage it on the host. Returns the staging op.
    fn add_outgoing(&self, s: &mut Task, p: &BoxPartition, deps: &[usize]) -> usize {
        let ring = p.d2h_points();
        let pack = s.add(Res::GpuCompute, self.pack_dur(ring), deps);
        let d2h = s.add(Res::CopyD2H, self.pcie_dur(ring, false), &[pack]);
        s.add(Res::None, self.staging_dur(ring), &[d2h])
    }

    /// Incoming half of a blocking exchange: MPI, host staging, upload
    /// (pageable), unpack, face kernels. Returns the MPI and face ops.
    fn add_incoming(&self, s: &mut Task, p: &BoxPartition, deps: &[usize]) -> (usize, usize) {
        let halo = p.h2d_points();
        let mpi = s.add(Res::Nic, (0..3).map(|d| self.net(d)).sum(), deps);
        let stage = s.add(Res::None, self.staging_dur(halo), &[mpi]);
        let h2d = s.add(Res::CopyH2D, self.pcie_dur(halo, false), &[stage]);
        let unpack = s.add(Res::GpuCompute, self.pack_dur(halo), &[h2d]);
        let faces = s.add(Res::GpuCompute, self.face_kernels_dur(p, false), &[unpack]);
        (mpi, faces)
    }

    /// One task of IV-F/IV-H: the whole exchange chained up front, then
    /// the face and interior kernels; the CPU walls (IV-H only: IV-F's
    /// partition has none) run beside the kernels once MPI is done.
    fn add_bulk_sync_task(&self, s: &mut Task, p: &BoxPartition) {
        let staged = self.add_outgoing(s, p, &[]);
        let (mpi, faces) = self.add_incoming(s, p, &[staged]);
        s.add(Res::GpuCompute, self.interior_kernel_dur(p), &[faces]);
        if p.cpu_points() > 0 {
            let walls = p.cpu_points() as f64 / self.cpu_wall_rate();
            s.add(Res::None, walls, &[mpi]);
        }
    }

    /// One task of IV-G: the interior kernel beside the incoming halo
    /// chain, whose MPI uses the boundary downloaded at the end of the
    /// previous step; the outgoing boundary for the next step follows.
    fn add_streams_task(&self, s: &mut Task, p: &BoxPartition) {
        let interior = s.add(Res::GpuCompute, self.interior_kernel_dur(p), &[]);
        let (_, faces) = self.add_incoming(s, p, &[]);
        self.add_outgoing(s, p, &[faces, interior]);
    }

    /// One task of IV-I.
    fn add_hybrid_overlap_task(&self, s: &mut Task, p: &BoxPartition) {
        // GPU side: interior on the compute engine; halo ring H2D
        // (async, page-locked), boundary kernels, ring D2H beside it.
        let interior = s.add(Res::GpuCompute, self.interior_kernel_dur(p), &[]);
        let h2d = s.add(Res::CopyH2D, self.pcie_dur(p.h2d_points(), true), &[]);
        let faces = if self.spec().concurrent_kernels {
            // Fermi co-schedules the small boundary kernels beside the
            // interior kernel (at a throughput penalty).
            s.add(Res::None, self.face_kernels_dur(p, true), &[h2d])
        } else {
            let faces = self.face_kernels_dur(p, false);
            s.add(Res::GpuCompute, faces, &[h2d, interior])
        };
        s.add(Res::CopyD2H, self.pcie_dur(p.d2h_points(), true), &[faces]);
        // CPU side: each dimension's phase overlaps that dimension's
        // inner wall points, those off the box's one-point shell. A
        // phase's sends need the previous phase's halo; the task's thread
        // team computes one wall chunk at a time, so the chunks chain. The
        // shell follows the last phase and the last chunk.
        let inner_walls = p.cpu_points() - self.rank0.shell;
        let chunk = inner_walls as f64 / 3.0 / self.cpu_wall_rate();
        let mut phase = s.add(Res::Nic, self.net(0), &[]);
        let mut wall = s.add(Res::None, chunk, &[]);
        for d in 1..3 {
            let next = s.add(Res::Nic, self.net(d), &[phase]);
            wall = s.add(Res::None, chunk, &[wall, phase]);
            phase = next;
        }
        let shell = self.rank0.shell as f64 / self.cpu_wall_rate();
        s.add(Res::None, shell, &[phase, wall]);
    }

    /// One task's ops and how many tasks replay them: IV-E's resident
    /// kernel once, IV-F…IV-I's task once per task sharing the GPU. IV-F is
    /// IV-H at thickness 0, whatever the scenario's; IV-I needs thickness ≥ 1.
    pub(crate) fn task(&self, im: GpuImpl) -> (Task, usize) {
        let mut task = Task::default();
        let (thickness, add_task): (usize, fn(&Self, &mut Task, &BoxPartition)) = match im {
            GpuImpl::Resident => {
                let t = timing::resident_kernel_time(self.spec(), self.grid, self.block);
                task.add(Res::GpuCompute, t, &[]);
                return (task, 1);
            }
            GpuImpl::BulkSync => (0, Self::add_bulk_sync_task),
            GpuImpl::Streams => (0, Self::add_streams_task),
            GpuImpl::HybridBulkSync => (self.thickness, Self::add_bulk_sync_task),
            GpuImpl::HybridOverlap => {
                assert!(self.thickness >= 1, "IV-I needs a CPU veneer");
                (self.thickness, Self::add_hybrid_overlap_task)
            }
        };
        let part = BoxPartition::new(self.rank0.extent, thickness);
        add_task(self, &mut task, &part);
        (task, self.tasks_per_node())
    }

    /// The per-step schedule of the given implementation on one node: its
    /// task replayed for every task sharing the GPU, each after a context
    /// switch on its engine when there are several (pre-MPS serialization).
    pub fn schedule(&self, im: GpuImpl) -> Schedule {
        let (task, k) = self.task(im);
        task.replay(k, params::GPU_CONTEXT_SWITCH_S)
    }

    /// Step time of the given implementation: the schedule's makespan,
    /// plus [`params::GPU_STEP_FIXED_S`] for IV-F…IV-I.
    pub fn step_time(&self, im: GpuImpl) -> f64 {
        let fixed = match im {
            GpuImpl::Resident => 0.0,
            _ => params::GPU_STEP_FIXED_S,
        };
        self.schedule(im).makespan() + fixed
    }

    /// Whole-machine GF (strong scaling on the scenario's grid).
    pub fn gf(&self, im: GpuImpl) -> f64 {
        self.grid.pow(3) as f64 * FLOPS_PER_POINT as f64 / self.step_time(im) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::yona;

    fn yona_scenario(threads: usize, thickness: usize) -> f64 {
        let m = yona();
        GpuScenario::new(&m, 12, threads)
            .with_block((32, 8))
            .with_thickness(thickness)
            .gf(match thickness {
                0 => GpuImpl::BulkSync,
                _ => GpuImpl::HybridOverlap,
            })
    }

    #[test]
    fn yona_resident_anchor_86() {
        let m = yona();
        let gf = GpuScenario::new(&m, 12, 12)
            .with_block((32, 8))
            .gf(GpuImpl::Resident);
        assert!((gf - 86.0).abs() < 6.0, "resident {gf} GF");
    }

    #[test]
    fn yona_bulk_sync_anchor_24() {
        // Section V-E: one node, implementation IV-F: 24 GF.
        let m = yona();
        let gf = GpuScenario::new(&m, 12, 12)
            .with_block((32, 8))
            .gf(GpuImpl::BulkSync);
        assert!((gf - 24.0).abs() < 5.0, "IV-F one node {gf} GF (paper: 24)");
    }

    #[test]
    fn yona_streams_anchor_35() {
        // Section V-E: one node, implementation IV-G: 35 GF.
        let m = yona();
        let gf = GpuScenario::new(&m, 12, 12)
            .with_block((32, 8))
            .gf(GpuImpl::Streams);
        assert!((gf - 35.0).abs() < 7.0, "IV-G one node {gf} GF (paper: 35)");
    }

    #[test]
    fn yona_hybrid_overlap_anchor_82() {
        // Section V-E: one node, thickness 3, 2 tasks per node: 82 GF.
        let gf = yona_scenario(6, 3);
        assert!((gf - 82.0).abs() < 8.0, "IV-I one node {gf} GF (paper: 82)");
    }

    #[test]
    fn hybrid_overlap_under_resident() {
        // IV-I "nearly matches" but does not exceed the resident kernel.
        let m = yona();
        let resident = GpuScenario::new(&m, 12, 12)
            .with_block((32, 8))
            .gf(GpuImpl::Resident);
        let best_i = (1..=4).map(|t| yona_scenario(6, t)).fold(0.0f64, f64::max);
        assert!(best_i < resident, "IV-I {best_i} vs resident {resident}");
        assert!(
            best_i > 0.85 * resident,
            "IV-I {best_i} not near resident {resident}"
        );
    }

    #[test]
    fn bulk_sync_ignores_the_scenario_thickness() {
        // IV-F is IV-H with no veneer: no thickness may reach its schedule.
        let m = yona();
        let at = |t| {
            GpuScenario::new(&m, 12, 6)
                .with_thickness(t)
                .schedule(GpuImpl::BulkSync)
        };
        let (thin, thick) = (at(0), at(3));
        assert_eq!(thin.len(), thick.len());
        assert_eq!(thin.makespan().to_bits(), thick.makespan().to_bits());
    }

    #[test]
    fn overlap_ordering_f_g_i() {
        // 24 < 35 < 82: each overlap level pays off.
        let m = yona();
        let f = GpuScenario::new(&m, 12, 12)
            .with_block((32, 8))
            .gf(GpuImpl::BulkSync);
        let g = GpuScenario::new(&m, 12, 12)
            .with_block((32, 8))
            .gf(GpuImpl::Streams);
        let i = yona_scenario(6, 3);
        assert!(f < g && g < i, "ordering broken: F {f}, G {g}, I {i}");
    }
}
