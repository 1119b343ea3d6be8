//! Performance models for the GPU implementations (IV-E … IV-I).
//!
//! Each implementation's time step is composed as a discrete-event
//! schedule ([`crate::event`]) over the node's resources: the GPU compute
//! engine, the PCIe copy engines, the NIC, and the CPU team. The chains
//! mirror the functional code in the `overlap` crate exactly:
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
//! [`GpuScenario::schedule`] builds an implementation's schedule and
//! [`GpuScenario::step_time`] prices it; everything else is private.
//!
//! The blocking copies of IV-F/G/H run at the degraded *pageable* PCIe
//! rate; IV-I's async copies run at the spec rate (see
//! [`crate::params::pageable_pcie_gbs`]) — the mechanical reading of
//! Section V-E's "decoupling of MPI communication and CPU-GPU
//! communication".

use crate::event::{OpId, Res, Schedule};
use crate::params;
use advect_core::flops::{FLOPS_PER_POINT, PAPER_GRID};
use decomp::factor3;
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

/// A GPU run configuration being modeled (one GPU per node).
#[derive(Debug, Clone, Copy)]
pub struct GpuScenario<'a> {
    /// The machine (must have a GPU).
    pub machine: &'a Machine,
    /// Total cores (whole nodes; one GPU per node).
    pub cores: usize,
    /// OpenMP threads per MPI task.
    pub threads: usize,
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

/// Per-task region point counts derived from the decomposition and the
/// Figure 1 box partition (continuous approximation).
#[derive(Debug, Clone, Copy)]
struct Geometry {
    sub: (f64, f64, f64),
    deep_pts: f64,
    ring_pts: f64,
    halo_ring_pts: f64,
    wall_pts: f64,
    inner_wall_pts: f64,
    face_x_pts: f64,
    face_yz_pts: f64,
}

fn clamped_product(a: f64, b: f64, c: f64) -> f64 {
    a.max(0.0) * b.max(0.0) * c.max(0.0)
}

impl<'a> GpuScenario<'a> {
    /// A new scenario.
    pub fn new(machine: &'a Machine, cores: usize, threads: usize) -> Self {
        assert!(machine.gpu.is_some(), "{} has no GPUs", machine.name);
        Self {
            machine,
            cores,
            threads,
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

    /// MPI tasks.
    pub fn ntasks(&self) -> usize {
        (self.cores / self.threads).max(1)
    }

    /// Tasks sharing one node (and its GPU).
    pub fn tasks_per_node(&self) -> usize {
        (self.machine.cores_per_node() / self.threads).max(1)
    }

    /// Nodes in use.
    pub fn nodes(&self) -> usize {
        self.machine.nodes_for_cores(self.cores)
    }

    fn spec(&self) -> &simgpu::GpuSpec {
        self.machine.gpu.as_ref().expect("machine has a GPU")
    }

    fn geometry(&self, thickness: usize) -> Geometry {
        let g = PAPER_GRID;
        let (px, py, pz) = factor3(self.ntasks().min(g * g * g), (g, g, g));
        let sub = (
            g as f64 / px as f64,
            g as f64 / py as f64,
            g as f64 / pz as f64,
        );
        let t = thickness as f64;
        let b = (sub.0 - 2.0 * t, sub.1 - 2.0 * t, sub.2 - 2.0 * t);
        let gpu_pts = clamped_product(b.0, b.1, b.2);
        let deep_pts = clamped_product(b.0 - 2.0, b.1 - 2.0, b.2 - 2.0);
        let ring_pts = gpu_pts - deep_pts;
        let halo_ring_pts = clamped_product(b.0 + 2.0, b.1 + 2.0, b.2 + 2.0) - gpu_pts;
        let total = sub.0 * sub.1 * sub.2;
        let wall_pts = total - gpu_pts;
        // Walls not touching the subdomain skin can overlap MPI.
        let inner_box = clamped_product(sub.0 - 2.0, sub.1 - 2.0, sub.2 - 2.0);
        let inner_wall_pts = (inner_box - gpu_pts).max(0.0);
        // Boundary-ring kernel orientation split.
        let face_x_pts = 2.0 * b.1.max(0.0) * b.2.max(0.0);
        let face_yz_pts = (ring_pts - face_x_pts).max(0.0);
        Geometry {
            sub,
            deep_pts,
            ring_pts,
            halo_ring_pts,
            wall_pts,
            inner_wall_pts,
            face_x_pts,
            face_yz_pts,
        }
    }

    /// Halo-layout kernel rate, points/s.
    fn kernel_rate(&self) -> f64 {
        timing::stencil_points_per_second(self.spec(), self.block) / NONPERIODIC_KERNEL_PENALTY
    }

    fn interior_kernel_dur(&self, geo: &Geometry) -> f64 {
        self.spec().launch_overhead_s + geo.deep_pts / self.kernel_rate()
    }

    fn face_kernels_dur(&self, geo: &Geometry, aux: bool) -> f64 {
        let rate = self.kernel_rate() / if aux { AUX_KERNEL_PENALTY } else { 1.0 };
        6.0 * self.spec().launch_overhead_s
            + geo.face_x_pts / (rate * params::FACE_EFF_X)
            + geo.face_yz_pts / (rate * params::FACE_EFF_YZ)
    }

    fn pack_dur(&self, pts: f64) -> f64 {
        timing::pack_kernel_time(self.spec(), pts as usize) + 5.0 * self.spec().launch_overhead_s
    }

    /// PCIe transfer duration for `pts` points, pageable or pinned.
    fn pcie_dur(&self, pts: f64, pinned: bool) -> f64 {
        let gbs = if pinned {
            self.spec().pcie_bw_gbs
        } else {
            self.pageable_gbs
                .unwrap_or_else(|| params::pageable_pcie_gbs(self.machine.name))
        } * self.pcie_scale;
        6.0 * self.spec().pcie_latency_s / self.pcie_scale + pts * 8.0 / (gbs * 1e9)
    }

    fn staging_dur(&self, pts: f64) -> f64 {
        pts * 8.0 * params::HOST_STAGING_S_PER_BYTE
    }

    /// Network time of one exchange phase for the subdomain skin.
    fn phase_net(&self, geo: &Geometry, dim: usize) -> f64 {
        let (sx, sy, sz) = geo.sub;
        let pts = match dim {
            0 => sy * sz,
            1 => (sx + 2.0) * sz,
            _ => (sx + 2.0) * (sy + 2.0),
        };
        let bytes = pts * 8.0;
        if self.ntasks() == 1 {
            return 2.0 * bytes / (self.machine.cpu.mem_bw_gbs * 0.5e9);
        }
        if self.nodes() == 1 {
            // All neighbors on-node: shared-memory MPI.
            return 2.0 * bytes / (self.machine.cpu.mem_bw_gbs * 0.33e9);
        }
        let net = &self.machine.net;
        let tpn = self.tasks_per_node() as f64;
        let share = net.node_bw_gbs * 1e9 / tpn;
        net.latency_s * (1.0 + params::INJECTION_CONTENTION * (tpn - 1.0))
            + 2.0 * net.per_message_cpu_s
            + 2.0 * bytes / share
    }

    fn mpi_total(&self, geo: &Geometry) -> f64 {
        (0..3).map(|d| self.phase_net(geo, d)).sum()
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
    fn add_outgoing(&self, s: &mut Schedule, geo: &Geometry, deps: &[OpId]) -> OpId {
        let pack = s.add(Res::GpuCompute, self.pack_dur(geo.ring_pts), deps);
        let d2h = s.add(Res::CopyD2H, self.pcie_dur(geo.ring_pts, false), &[pack]);
        s.add(Res::None, self.staging_dur(geo.ring_pts), &[d2h])
    }

    /// Incoming half of a blocking exchange: MPI, host staging, upload
    /// (pageable), unpack, face kernels. Returns the MPI and face ops.
    fn add_incoming(&self, s: &mut Schedule, geo: &Geometry, deps: &[OpId]) -> (OpId, OpId) {
        let mpi = s.add(Res::Nic, self.mpi_total(geo), deps);
        let stage = s.add(Res::None, self.staging_dur(geo.halo_ring_pts), &[mpi]);
        let h2d = s.add(
            Res::CopyH2D,
            self.pcie_dur(geo.halo_ring_pts, false),
            &[stage],
        );
        let unpack = s.add(Res::GpuCompute, self.pack_dur(geo.halo_ring_pts), &[h2d]);
        let faces = s.add(
            Res::GpuCompute,
            self.face_kernels_dur(geo, false),
            &[unpack],
        );
        (mpi, faces)
    }

    /// One task of IV-F/IV-H: the whole exchange chained up front, then
    /// the face and interior kernels; the CPU walls (IV-H only: IV-F's
    /// geometry has none) run beside the kernels once MPI is done.
    fn add_bulk_sync_task(&self, s: &mut Schedule, geo: &Geometry) {
        let staged = self.add_outgoing(s, geo, &[]);
        let (mpi, faces) = self.add_incoming(s, geo, &[staged]);
        s.add(Res::GpuCompute, self.interior_kernel_dur(geo), &[faces]);
        if geo.wall_pts > 0.0 {
            s.add(Res::None, geo.wall_pts / self.cpu_wall_rate(), &[mpi]);
        }
    }

    /// One task of IV-G: the interior kernel beside the incoming halo
    /// chain, whose MPI uses the boundary downloaded at the end of the
    /// previous step; the outgoing boundary for the next step follows.
    fn add_streams_task(&self, s: &mut Schedule, geo: &Geometry) {
        let interior = s.add(Res::GpuCompute, self.interior_kernel_dur(geo), &[]);
        let (_, faces) = self.add_incoming(s, geo, &[]);
        self.add_outgoing(s, geo, &[faces, interior]);
    }

    /// One task of IV-I.
    fn add_hybrid_overlap_task(&self, s: &mut Schedule, geo: &Geometry) {
        // GPU side: interior on the compute engine; halo ring H2D
        // (async, page-locked), boundary kernels, ring D2H beside it.
        let interior = s.add(Res::GpuCompute, self.interior_kernel_dur(geo), &[]);
        let h2d = s.add(Res::CopyH2D, self.pcie_dur(geo.halo_ring_pts, true), &[]);
        let faces = if self.spec().concurrent_kernels {
            // Fermi co-schedules the small boundary kernels beside the
            // interior kernel (at a throughput penalty).
            s.add(Res::None, self.face_kernels_dur(geo, true), &[h2d])
        } else {
            s.add(
                Res::GpuCompute,
                self.face_kernels_dur(geo, false),
                &[h2d, interior],
            )
        };
        s.add(Res::CopyD2H, self.pcie_dur(geo.ring_pts, true), &[faces]);
        // CPU side: each dimension's phase overlaps that dimension's
        // inner wall points. A phase's sends need the previous phase's
        // halo; the task's thread team computes one wall chunk at a
        // time, so the chunks chain. Outer wall points follow the last
        // phase and the last chunk.
        let mut prev_phase: Option<OpId> = None;
        let mut prev_wall: Option<OpId> = None;
        for d in 0..3 {
            let phase_deps: Vec<_> = prev_phase.into_iter().collect();
            let phase = s.add(Res::Nic, self.phase_net(geo, d), &phase_deps);
            let wall_deps: Vec<_> = prev_wall.into_iter().chain(prev_phase).collect();
            let wall = s.add(
                Res::None,
                geo.inner_wall_pts / 3.0 / self.cpu_wall_rate(),
                &wall_deps,
            );
            prev_phase = Some(phase);
            prev_wall = Some(wall);
        }
        let outer = (geo.wall_pts - geo.inner_wall_pts).max(0.0);
        if outer > 0.0 {
            let deps: Vec<_> = prev_phase.into_iter().chain(prev_wall).collect();
            s.add(Res::None, outer / self.cpu_wall_rate(), &deps);
        }
    }

    /// The per-step schedule of the given implementation on one node:
    /// IV-E is its single resident kernel; IV-F…IV-I repeat one task's
    /// ops for every task sharing the GPU. IV-F is IV-H at thickness 0,
    /// whatever the scenario's thickness. IV-I requires thickness ≥ 1.
    pub fn schedule(&self, im: GpuImpl) -> Schedule {
        let mut s = Schedule::new();
        let (thickness, add_task): (usize, fn(&Self, &mut Schedule, &Geometry)) = match im {
            GpuImpl::Resident => {
                let t = timing::resident_kernel_time(self.spec(), PAPER_GRID, self.block);
                s.add(Res::GpuCompute, t, &[]);
                return s;
            }
            GpuImpl::BulkSync => (0, Self::add_bulk_sync_task),
            GpuImpl::Streams => (0, Self::add_streams_task),
            GpuImpl::HybridBulkSync => (self.thickness, Self::add_bulk_sync_task),
            GpuImpl::HybridOverlap => {
                assert!(self.thickness >= 1, "IV-I needs a CPU veneer");
                (self.thickness, Self::add_hybrid_overlap_task)
            }
        };
        let geo = self.geometry(thickness);
        for _task in 0..self.tasks_per_node() {
            // Tasks sharing the device pay a context switch on its engine
            // (pre-MPS process serialization).
            if self.tasks_per_node() > 1 {
                s.add(Res::GpuCompute, params::GPU_CONTEXT_SWITCH_S, &[]);
            }
            add_task(self, &mut s, &geo);
        }
        s
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

    /// Whole-machine GF (strong scaling at 420³).
    pub fn gf(&self, im: GpuImpl) -> f64 {
        (PAPER_GRID as f64).powi(3) * FLOPS_PER_POINT as f64 / self.step_time(im) / 1e9
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
