//! Shared run configuration, the one step-loop frame every
//! implementation runs inside, and distributed-state assembly.
//!
//! The frame (`run_ranks`, or `run_single` for the two
//! implementations that need no `World`) owns everything Section IV's
//! implementations have in common: decomposition, instrumentation, the
//! device, the exchange plan and its staging, the barriers around the
//! timed loop, the final gather and the report. An implementation module
//! is only the body that runs inside it — its fields and partitions, one
//! time step, and which region comes back from the device.

use crate::halo::{exchange_halos, HaloBuffers};
use crate::Impl;
use advect_core::coeffs::Stencil27;
use advect_core::field::Field3;
use advect_core::stepper::AdvectionProblem;
use advect_core::team::ThreadTeam;
use advect_core::tile::TileSpec;
use decomp::{Decomposition, ExchangePlan, Subdomain};
use simgpu::{Gpu, GpuSpec};
use simmpi::{Comm, World};

/// Fault injection for a run: the MPI-side plan (delivery perturbation,
/// stragglers, bounded waits) and the GPU-side plan (launch jitter, PCIe
/// slowdown), driven by one construction so soak sweeps perturb both
/// substrates from a single seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultSpec {
    /// Perturbations of the message-passing substrate.
    pub mpi: simmpi::FaultPlan,
    /// Perturbations of the device timeline.
    pub gpu: simgpu::GpuFaultPlan,
}

impl FaultSpec {
    /// The neutral spec: nothing is perturbed, zero cost.
    pub const fn off() -> Self {
        Self {
            mpi: simmpi::FaultPlan::off(),
            gpu: simgpu::GpuFaultPlan::off(),
        }
    }

    /// Moderate everything-on chaos on both substrates from one seed.
    pub fn chaos(seed: u64) -> Self {
        Self {
            mpi: simmpi::FaultPlan::chaos(seed),
            gpu: simgpu::GpuFaultPlan::chaos(seed),
        }
    }

    /// Whether both plans are at their neutral values.
    pub fn is_off(&self) -> bool {
        self.mpi.is_off() && self.gpu.is_off()
    }
}

/// Configuration shared by every implementation run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The advection problem (cubic grid).
    pub problem: AdvectionProblem,
    /// Time steps to take.
    pub steps: u64,
    /// MPI tasks (1 for the single-task and GPU-resident implementations).
    pub ntasks: usize,
    /// OpenMP threads per task.
    pub threads: usize,
    /// GPU thread-block shape for GPU implementations.
    pub block: (usize, usize),
    /// CPU box thickness for the hybrid implementations (Figure 1).
    pub thickness: usize,
    /// Record per-rank span traces during the run ([`RunReport::traces`]).
    /// Off by default: the substrates then trace into a static no-op sink
    /// and allocate no trace buffers.
    pub trace: bool,
    /// Fault injection for the run ([`FaultSpec::off`] by default: no
    /// perturbation, no fault state allocated).
    pub fault: FaultSpec,
    /// Record runtime metrics during the run ([`RunReport::metrics`]).
    /// Off by default: no registry, and the rank tracers get no span
    /// summary (nor a slab, unless [`RunConfig::trace`]).
    pub metrics: bool,
}

impl RunConfig {
    /// A convenient default: given problem and steps, single task, one
    /// thread, the paper's Yona block size, thickness 2.
    pub fn new(problem: AdvectionProblem, steps: u64) -> Self {
        Self {
            problem,
            steps,
            ntasks: 1,
            threads: 1,
            block: (32, 8),
            thickness: 2,
            trace: false,
            fault: FaultSpec::off(),
            metrics: false,
        }
    }

    /// Set the task count.
    pub fn tasks(mut self, n: usize) -> Self {
        self.ntasks = n;
        self
    }

    /// Set threads per task.
    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Set the GPU block shape.
    pub fn with_block(mut self, b: (usize, usize)) -> Self {
        self.block = b;
        self
    }

    /// Set the CPU box thickness.
    pub fn with_thickness(mut self, t: usize) -> Self {
        self.thickness = t;
        self
    }

    /// Enable or disable span tracing for the run.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Run under seeded fault injection on both substrates.
    pub fn with_faults(mut self, fault: FaultSpec) -> Self {
        self.fault = fault;
        self
    }

    /// Enable or disable the runtime metrics registry for the run.
    pub fn with_metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// The decomposition this configuration induces.
    pub fn decomposition(&self) -> Decomposition {
        let n = self.problem.n;
        Decomposition::new(self.ntasks, (n, n, n))
    }
}

/// Per-run substrate statistics, one entry per rank.
///
/// Lets callers (and the instrumentation tests) verify *how* an
/// implementation communicated — message counts, traffic volumes, kernel
/// launches, PCIe transfers — independently of what it computed.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-rank message-passing counters.
    pub comm: Vec<simmpi::CommStats>,
    /// Per-rank fault-path observations (all-default when the run had no
    /// fault plan): held/redelivered deliveries, bounded-wait retries,
    /// max stall, straggler throttle time.
    pub fault: Vec<simmpi::FaultStats>,
    /// Per-rank device counters (empty for CPU-only implementations).
    pub gpu: Vec<simgpu::GpuStats>,
    /// Per-rank span traces (empty unless [`RunConfig::trace`]). Wall
    /// spans cover the host's real timing; virtual spans carry the device
    /// schedule bridged through `Gpu::virtual_spans`.
    pub traces: Vec<obs::Trace>,
    /// The run's metrics registry (disabled unless [`RunConfig::metrics`]):
    /// the rank tracers' span summaries — per-source receive wait and
    /// latency, fault stall and redelivery, device kernel and PCIe
    /// transfer histograms — plus the per-step `advect_step_ns`
    /// histogram the frame's timed loop observes.
    /// Render with [`obs::registry::Metrics::render_prometheus`] or
    /// [`obs::registry::Metrics::render_json`].
    pub metrics: obs::registry::Metrics,
}

impl RunReport {
    /// Total point-to-point messages sent across all ranks.
    pub fn total_messages(&self) -> u64 {
        self.comm.iter().map(|c| c.messages_sent).sum()
    }

    /// Total f64 values sent across all ranks.
    pub fn total_values_sent(&self) -> u64 {
        self.comm.iter().map(|c| c.values_sent).sum()
    }

    /// Total stencil kernel launches across all ranks.
    pub fn total_stencil_launches(&self) -> u64 {
        self.gpu.iter().map(|g| g.stencil_launches).sum()
    }

    /// Total host→device transfers across all ranks.
    pub fn total_h2d_transfers(&self) -> u64 {
        self.gpu.iter().map(|g| g.h2d_transfers).sum()
    }

    /// Total device→host transfers across all ranks.
    pub fn total_d2h_transfers(&self) -> u64 {
        self.gpu.iter().map(|g| g.d2h_transfers).sum()
    }

    /// Total f64 values moved over PCIe (both directions).
    pub fn total_pcie_points(&self) -> u64 {
        self.gpu.iter().map(|g| g.h2d_points + g.d2h_points).sum()
    }

    /// Total nanoseconds ranks spent blocked waiting for messages.
    pub fn total_wait_ns(&self) -> u64 {
        self.comm.iter().map(|c| c.wait_ns).sum()
    }

    /// Largest per-rank mailbox byte high-water mark — the peak volume
    /// that was in flight toward any single rank.
    pub fn peak_bytes_in_flight(&self) -> u64 {
        self.comm
            .iter()
            .map(|c| c.peak_bytes_in_flight)
            .max()
            .unwrap_or(0)
    }

    /// Measured MPI↔compute concurrency, aggregated over ranks on the
    /// wall clock: how much of the in-flight/collective MPI time ran
    /// while this rank's CPU compute spans were open. Requires
    /// [`RunConfig::trace`]; zero otherwise.
    pub fn mpi_compute_overlap(&self) -> obs::busy::PairOverlap {
        obs::busy::pair_overlap_all(
            &self.traces,
            obs::Resource::Mpi,
            obs::Resource::Compute,
            obs::Axis::Wall,
        )
    }

    /// Measured PCIe↔compute concurrency on the device's virtual clock
    /// (the simulator executes eagerly in wall time; overlap between copy
    /// engines and kernels only exists on the scheduled timeline).
    /// Requires [`RunConfig::trace`]; zero otherwise.
    pub fn pcie_compute_overlap(&self) -> obs::busy::PairOverlap {
        obs::busy::pair_overlap_all(
            &self.traces,
            obs::Resource::Pcie,
            obs::Resource::Compute,
            obs::Axis::Virtual,
        )
    }

    /// Per-rank busy seconds per category on the chosen axis.
    pub fn phase_breakdown(&self, axis: obs::Axis) -> obs::busy::Breakdown {
        obs::busy::phase_breakdown(&self.traces, axis)
    }

    /// Critical-path attribution over the run's traces on the chosen
    /// axis: which categories bound the makespan and which spans were
    /// fully hidden (slack). Requires [`RunConfig::trace`]; empty
    /// otherwise.
    pub fn critical_breakdown(&self, axis: obs::Axis) -> obs::critical::CriticalBreakdown {
        obs::critical::critical_path_breakdown(&self.traces, axis)
    }

    /// The run's causal message-flow graph: one edge per stamped send
    /// matched to the receive-side span that consumed it. Requires
    /// [`RunConfig::trace`]; empty otherwise.
    pub fn causal_graph(&self) -> obs::causal::CausalGraph {
        obs::causal::build(&self.traces)
    }

    /// Wait-blame attribution over the causal graph: for every blocked
    /// window, the rank whose late send bounded it, with cascaded blame
    /// chased upstream to its root cause. Requires [`RunConfig::trace`].
    pub fn blame(&self) -> obs::causal::Blame {
        obs::causal::blame(&self.causal_graph())
    }

    /// Straggler detection over the blame matrix: ranks whose outgoing
    /// blame is a robust outlier. Requires [`RunConfig::trace`].
    ///
    /// The detector is anchored to the run's compute scale: no rank is
    /// flagged unless its outgoing blame exceeds twice the smallest
    /// per-rank compute-busy time. Clean-run blame is bounded by
    /// per-step imbalance (a fraction of one rank's compute), while a
    /// throttled rank owes a multiple of its whole compute budget, so
    /// the floor separates them regardless of grid size or host speed.
    pub fn stragglers(&self) -> obs::causal::StragglerVerdict {
        obs::causal::detect_stragglers_with(&self.blame(), self.straggler_floor_ns())
    }

    /// The compute-scale anchor fed to the straggler detector: twice the
    /// smallest per-rank compute-busy time, in nanoseconds. Repeated-run
    /// detectors (e.g. `chaos::straggler`) median this across runs
    /// alongside the blame matrices.
    pub fn straggler_floor_ns(&self) -> f64 {
        let min_compute_s = self
            .traces
            .iter()
            .map(|t| {
                obs::busy::union_seconds(&obs::busy::busy_intervals(
                    &t.spans,
                    obs::Resource::Compute,
                    obs::Axis::Wall,
                ))
            })
            .fold(f64::INFINITY, f64::min);
        if min_compute_s.is_finite() {
            2.0 * min_compute_s * 1e9
        } else {
            0.0
        }
    }

    /// Total messages held in limbo by jitter/reorder decisions.
    pub fn total_delayed(&self) -> u64 {
        self.fault.iter().map(|f| f.delayed).sum()
    }

    /// Total messages dropped and redelivered.
    pub fn total_redelivered(&self) -> u64 {
        self.fault.iter().map(|f| f.redelivered).sum()
    }

    /// Total bounded-wait timeouts that fired across ranks.
    pub fn total_retries(&self) -> u64 {
        self.fault.iter().map(|f| f.retries).sum()
    }

    /// Longest blocked wait any rank observed completing a receive, in
    /// nanoseconds.
    pub fn max_stall_ns(&self) -> u64 {
        self.fault.iter().map(|f| f.max_stall_ns).max().unwrap_or(0)
    }

    /// Total nanoseconds slept modeling straggler compute and allreduce
    /// stalls.
    pub fn total_throttle_ns(&self) -> u64 {
        self.fault
            .iter()
            .map(|f| f.compute_throttle_ns + f.allreduce_stall_ns)
            .sum()
    }
}

/// What the frame keeps of each rank: the assembled global state (rank 0
/// only), its comm counters, fault observations, device counters, and
/// span trace.
type RankResult = (
    Option<Field3>,
    simmpi::CommStats,
    simmpi::FaultStats,
    Option<simgpu::GpuStats>,
    Option<obs::Trace>,
);

/// Everything the frame hands one rank's step body: plain fields, so a
/// body takes the ones its thread-team closures need as locals.
pub(crate) struct Rank<'a> {
    pub cfg: &'a RunConfig,
    pub decomp: &'a Decomposition,
    pub comm: &'a Comm,
    pub rank: usize,
    pub sub: Subdomain,
    /// The rank's recorder, already installed into `comm` and `gpu`.
    pub tracer: obs::Tracer,
    pub plan: ExchangePlan,
    pub halo_bufs: HaloBuffers,
    pub stencil: Stencil27,
    /// Host-heuristic cache-blocking tile for the rank's x-row width.
    pub tile: TileSpec,
    pub team: ThreadTeam,
    gpu: Option<Gpu>,
    step_hist: obs::registry::Histogram,
}

impl Rank<'_> {
    /// The rank's device, instrumented and with the stencil constants
    /// set (IV-F..I; the CPU implementations have none).
    pub fn gpu(&self) -> &Gpu {
        self.gpu.as_ref().expect("a GPU implementation's rank")
    }

    /// The rank's local field filled from the global initial condition.
    pub fn initial_field(&self) -> Field3 {
        let mut f = self.blank_field();
        self.cfg
            .problem
            .pulse()
            .sample_initial(&mut f, self.sub.offset, self.cfg.problem.spacing);
        f
    }

    /// A zeroed field of the rank's extent (the step's "new" state).
    pub fn blank_field(&self) -> Field3 {
        let (nx, ny, nz) = self.sub.extent;
        Field3::new(nx, ny, nz, 1)
    }

    /// The full bulk-synchronous halo exchange of `field` with this
    /// rank's six neighbors.
    pub fn exchange_halos(&self, field: &mut Field3) {
        let (plan, bufs) = (&self.plan, &self.halo_bufs);
        exchange_halos(field, plan, self.decomp, self.rank, self.comm, bufs);
    }

    /// The measured loop: barrier (the paper barriers before starting the
    /// timer), `cfg.steps` timed calls of `step`, barrier.
    pub fn timed_steps(&self, step: impl FnMut()) {
        self.comm.barrier();
        timed_loop(self.cfg.steps, &self.step_hist, step);
        self.comm.barrier();
    }
}

/// The distributed frame: run `body` once per rank of a `World` and
/// assemble what the ranks return — each its final local state — into
/// the global field and the run's report. `spec` is consulted only for
/// the implementations that use a GPU.
pub(crate) fn run_ranks(
    cfg: &RunConfig,
    im: Impl,
    spec: Option<&GpuSpec>,
    body: impl Fn(&Rank<'_>) -> Field3 + Sync,
) -> (Field3, RunReport) {
    let spec = device_spec(im, spec);
    let decomp = cfg.decomposition();
    let anchor = obs::Anchor::now();
    let metrics = obs::registry::Metrics::enabled(cfg.metrics);
    let results = World::run_with_faults(cfg.ntasks, cfg.fault.mpi, |comm| {
        let rank = comm.rank();
        let tracer = obs::Tracer::enabled(cfg.trace, &metrics, rank, comm.size(), anchor);
        comm.install_tracer(tracer.clone());
        let sub = decomp.subdomains[rank];
        let plan = ExchangePlan::new(sub.extent, 1);
        let fault = cfg.fault.gpu.for_rank(rank);
        let rk = Rank {
            cfg,
            decomp: &decomp,
            comm,
            rank,
            sub,
            halo_bufs: HaloBuffers::new(&plan, comm),
            plan,
            tile: TileSpec::host(sub.extent.0 + 2),
            team: ThreadTeam::new(cfg.threads),
            gpu: spec.map(|s| device(s, fault, cfg, &tracer)),
            stencil: cfg.problem.stencil(),
            step_hist: step_histogram(&metrics, im, rank),
            tracer,
        };
        let local = body(&rk);
        let global = assemble_global(cfg, &decomp, comm, &local);
        rank_result(
            global,
            comm.stats(),
            comm.fault_stats(),
            &rk.gpu,
            &rk.tracer,
        )
    });
    collect_report(results, metrics)
}

/// What the frame hands the step body of an implementation that runs on
/// one task without a `World` (IV-A, IV-E).
pub(crate) struct Single<'a> {
    pub cfg: &'a RunConfig,
    pub tracer: obs::Tracer,
    gpu: Option<Gpu>,
    step_hist: obs::registry::Histogram,
}

impl Single<'_> {
    /// The device, instrumented and with the stencil constants set (IV-E).
    pub fn gpu(&self) -> &Gpu {
        self.gpu.as_ref().expect("a GPU implementation")
    }

    /// The measured loop: `cfg.steps` timed calls of `step`.
    pub fn timed_steps(&self, step: impl FnMut()) {
        timed_loop(self.cfg.steps, &self.step_hist, step);
    }
}

/// The single-task frame: no `World` (its thread spawn, mailbox and
/// gather would be pure overhead for one rank), same instrumentation,
/// timed loop and report as [`run_ranks`]. `body` returns the final
/// global state.
pub(crate) fn run_single(
    cfg: &RunConfig,
    im: Impl,
    spec: Option<&GpuSpec>,
    body: impl FnOnce(&Single<'_>) -> Field3,
) -> (Field3, RunReport) {
    assert_eq!(cfg.ntasks, 1, "{} runs on a single task", im.section());
    let metrics = obs::registry::Metrics::enabled(cfg.metrics);
    let tracer = obs::Tracer::enabled(cfg.trace, &metrics, 0, 1, obs::Anchor::now());
    let single = Single {
        cfg,
        gpu: device_spec(im, spec).map(|s| device(s, cfg.fault.gpu, cfg, &tracer)),
        step_hist: step_histogram(&metrics, im, 0),
        tracer,
    };
    let global = Some(body(&single));
    let (comm, fault) = Default::default();
    let result = rank_result(global, comm, fault, &single.gpu, &single.tracer);
    collect_report(vec![result], metrics)
}

/// The device spec an implementation runs on: the caller's for the GPU
/// implementations (required), none for the others.
fn device_spec(im: Impl, spec: Option<&GpuSpec>) -> Option<&GpuSpec> {
    im.uses_gpu()
        .then(|| spec.expect("GPU implementations need a GpuSpec"))
}

/// A fresh device under `fault`, recording through the rank's tracer,
/// with the stencil coefficients in constant memory.
fn device(
    spec: &GpuSpec,
    fault: simgpu::GpuFaultPlan,
    cfg: &RunConfig,
    tracer: &obs::Tracer,
) -> Gpu {
    let gpu = Gpu::new(spec.clone()).with_fault_plan(fault);
    gpu.install_tracer(tracer.clone());
    gpu.set_constant(cfg.problem.stencil().a);
    gpu
}

/// `steps` calls of `step`, each observed into the step histogram.
fn timed_loop(steps: u64, hist: &obs::registry::Histogram, mut step: impl FnMut()) {
    for _ in 0..steps {
        let t0 = hist.start();
        step();
        hist.observe_since(t0);
    }
}

/// Close out one rank after its threads have quiesced: read the device
/// counters, bridge the device's virtual spans into the tracer (the
/// trace and the kernel/PCIe histograms both come from those spans; a
/// device whose tracer is off recorded none), and finish the trace when
/// the run is traced.
fn rank_result(
    global: Option<Field3>,
    comm: simmpi::CommStats,
    fault: simmpi::FaultStats,
    gpu: &Option<Gpu>,
    tracer: &obs::Tracer,
) -> RankResult {
    if let Some(gpu) = gpu {
        tracer.absorb(&gpu.virtual_spans());
    }
    let trace = tracer.finish();
    (global, comm, fault, gpu.as_ref().map(Gpu::stats), trace)
}

/// Assemble per-rank results into `(Field3, RunReport)`. The run's
/// metrics registry (shared by every rank) rides along in the report.
fn collect_report(
    results: Vec<RankResult>,
    metrics: obs::registry::Metrics,
) -> (Field3, RunReport) {
    let mut report = RunReport {
        metrics,
        ..RunReport::default()
    };
    let mut global = None;
    for (g, c, f, d, t) in results {
        if let Some(g) = g {
            global = Some(g);
        }
        report.comm.push(c);
        report.fault.push(f);
        report.gpu.extend(d);
        report.traces.extend(t);
    }
    (global.expect("rank 0 assembles the global state"), report)
}

/// The per-rank `advect_step_ns{impl,rank}` histogram: wall time per
/// advection step, observed by the frame's timed loop. The off handle is
/// returned without touching the registry when metrics are disabled, so
/// unmetered loops never render label strings.
fn step_histogram(
    registry: &obs::registry::Metrics,
    im: Impl,
    rank: usize,
) -> obs::registry::Histogram {
    if !registry.is_on() {
        return obs::registry::Histogram::off();
    }
    registry.histogram(
        "advect_step_ns",
        "Wall time per advection step, nanoseconds",
        &[("impl", im.slug().to_string()), ("rank", rank.to_string())],
    )
}

/// Gather every rank's interior to rank 0 and assemble the global field.
/// Returns `Some(global)` on rank 0, `None` elsewhere.
fn assemble_global(
    cfg: &RunConfig,
    decomp: &Decomposition,
    comm: &Comm,
    local: &Field3,
) -> Option<Field3> {
    let payload = local.pack_vec(local.interior_range());
    let all = comm.gather_to_root(payload)?;
    let n = cfg.problem.n;
    let mut global = Field3::new(n, n, n, 1);
    for (rank, data) in all.iter().enumerate() {
        let s = decomp.subdomains[rank];
        let (ox, oy, oz) = (s.offset.0 as i64, s.offset.1 as i64, s.offset.2 as i64);
        let (ex, ey, ez) = s.extent;
        // Payloads are packed x fastest, so each (y, z) run is one
        // contiguous x-row of the global field.
        let mut i = 0;
        for z in 0..ez as i64 {
            for y in 0..ey as i64 {
                global
                    .row_mut(ox, oy + y, oz + z, ex)
                    .copy_from_slice(&data[i..i + ex]);
                i += ex;
            }
        }
    }
    Some(global)
}
