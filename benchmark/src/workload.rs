//! What the six workloads share: the op loop's stop rule, per-block
//! results, the counters a program report contributes, and the serial
//! reference every answer is checked against.

use crate::trace::SpanLog;
use advect_core::stepper::{AdvectionProblem, SerialStepper};
use overlap::{Impl, RunLimits, RunParams};
use std::time::Instant;

/// Fewest ops a timed block runs however slow the host, so that the 90th
/// percentile always has ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Limits wide enough for the direct workloads' grids; the serve
/// workloads go through the server's own default limits.
pub const DIRECT_LIMITS: RunLimits = RunLimits {
    max_grid: 256,
    max_steps: 4096,
    max_tasks: 2,
    max_threads: 2,
};

/// When a block of ops ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many seconds, but never before [`MIN_OPS`] ops in
    /// total (the untraced pass the end-to-end metrics come from).
    Seconds(f64),
    /// After exactly this many ops per client (the traced pass, so that
    /// every deterministic counter repeats for a given seed).
    Ops(usize),
}

impl Stop {
    /// Whether a client that has completed `done` ops, `started` ago,
    /// among `clients`, should stop.
    pub fn reached(&self, done: usize, started: Instant, clients: usize) -> bool {
        match *self {
            Stop::Seconds(s) => done * clients >= MIN_OPS && started.elapsed().as_secs_f64() >= s,
            Stop::Ops(n) => done >= n,
        }
    }
}

/// What the program's own reports say an op did. Summed over a block;
/// every field is a deterministic function of the ops executed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Stencil flops (53 per point per step), all ranks.
    pub flops: u64,
    /// Point-to-point messages, all ranks.
    pub messages: u64,
    /// f64 values in those messages.
    pub values: u64,
    /// Message buffers obtained by fresh allocation.
    pub buffers_allocated: u64,
    /// Stencil + pack kernel launches on the simulated device.
    pub launches: u64,
    /// f64 values moved over simulated PCIe, both directions.
    pub pcie_points: u64,
    /// Virtual seconds the device's compute engine was busy.
    pub virtual_compute_s: f64,
    /// Virtual seconds the device's copy engines were busy.
    pub virtual_copy_s: f64,
    /// Wall nanoseconds ranks spent blocked in receives (not a count:
    /// feeds `simmpi.wait_share` only).
    pub wait_ns: u64,
    /// Rank-nanoseconds available: Σ over runs of ranks × run time.
    pub rank_ns: u64,
    /// Nanoseconds inside `RunKey::execute`.
    pub execute_ns: u64,
}

impl Counters {
    /// Fold one run's report in.
    pub fn add_report(&mut self, key: &overlap::RunKey, report: &overlap::RunReport, run_ns: u64) {
        let n = key.grid() as u64;
        self.flops += advect_core::flops::total_flops(n * n * n, key.steps() as u64);
        self.messages += report.total_messages();
        self.values += report.total_values_sent();
        self.buffers_allocated += report.comm.iter().map(|c| c.buffers_allocated).sum::<u64>();
        self.launches += report
            .gpu
            .iter()
            .map(|g| g.stencil_launches + g.pack_launches)
            .sum::<u64>();
        self.pcie_points += report.total_pcie_points();
        self.virtual_compute_s += report.gpu.iter().map(|g| g.compute_busy).sum::<f64>();
        self.virtual_copy_s += report.gpu.iter().map(|g| g.copy_busy).sum::<f64>();
        self.wait_ns += report.total_wait_ns();
        self.rank_ns += report.comm.len().max(1) as u64 * run_ns;
        self.execute_ns += run_ns;
    }

    /// Sum two blocks.
    pub fn merge(&mut self, other: &Counters) {
        self.flops += other.flops;
        self.messages += other.messages;
        self.values += other.values;
        self.buffers_allocated += other.buffers_allocated;
        self.launches += other.launches;
        self.pcie_points += other.pcie_points;
        self.virtual_compute_s += other.virtual_compute_s;
        self.virtual_copy_s += other.virtual_copy_s;
        self.wait_ns += other.wait_ns;
        self.rank_ns += other.rank_ns;
        self.execute_ns += other.execute_ns;
    }
}

/// One block of ops, as the workload reports it.
#[derive(Debug, Default)]
pub struct BlockResult {
    /// Op latencies in nanoseconds (see [`clamp_ns`]), one vector per
    /// client in completion order. Kept apart until the peak-memory
    /// reading is taken: concatenating them allocates in proportion to
    /// the ops completed.
    pub lat_ns: Vec<Vec<u32>>,
    /// Ops that errored, were refused, timed out or answered wrongly.
    pub failed: u64,
    /// What the program's reports say the ops did.
    pub counters: Counters,
    /// Σ bytes of the artifacts / exports the ops returned.
    pub artifact_bytes: u64,
}

impl BlockResult {
    /// Ops attempted in this block.
    pub fn attempted(&self) -> u64 {
        self.lat_ns.iter().map(|c| c.len() as u64).sum()
    }
}

/// A latency as stored: nanoseconds saturating at `u32::MAX` (≈ 4.3 s,
/// fifty times the slowest op here), so a million samples cost 4 MB.
pub fn clamp_ns(ns: u64) -> u32 {
    ns.min(u32::MAX as u64) as u32
}

/// A vector of `cap` latencies whose pages are already resident, so the
/// process's peak memory does not depend on how many ops a timed block
/// happens to complete (`vec![0; n]` maps lazily-zeroed pages that only
/// become resident as they are written).
pub fn pretouched(cap: usize) -> Vec<u32> {
    let mut v = vec![1u32; cap];
    v.clear();
    v
}

/// The run shape layer probes use: the op's own shape on the direct
/// workloads, a representative request on the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Cubic grid edge.
    pub grid: u32,
    /// Time steps per run.
    pub steps: u32,
    /// GPU block shape.
    pub block: (u32, u32),
    /// Hybrid CPU-box thickness.
    pub thickness: u32,
    /// Machine name; empty for the default.
    pub machine: &'static str,
}

impl Shape {
    /// The request for `im` on this shape. Tasks × threads is 2 wherever
    /// the implementation can use it: `single_task` gets 1 × 2 threads,
    /// `gpu_resident` runs its single task, the MPI ones 2 tasks × 1.
    pub fn params(&self, im: Impl, steps: u32) -> RunParams {
        let (tasks, threads) = match im {
            Impl::SingleTask => (1, 2),
            Impl::GpuResident => (1, 1),
            _ => (2, 1),
        };
        RunParams {
            impl_slug: im.slug().to_string(),
            grid: self.grid,
            steps,
            tasks,
            threads,
            block: self.block,
            thickness: self.thickness,
            machine: self.machine.to_string(),
            fault_seed: None,
            trace: false,
            metrics: false,
        }
    }
}

/// FNV-1a checksums of the serial stepper's state after 1..=`max_steps`
/// steps on `general_case(grid)`: the bit-identity oracle. One stepper
/// walks all step counts, so the cost is `max_steps` serial steps.
pub fn serial_checksums(grid: u32, max_steps: u32) -> Vec<u64> {
    let mut serial = SerialStepper::new(AdvectionProblem::general_case(grid as usize));
    (0..max_steps)
        .map(|_| {
            serial.step();
            serve::artifact::state_checksum(serial.state())
        })
        .collect()
}

/// The serial reference checksum for exactly (`grid`, `steps`).
pub fn serial_checksum(grid: u32, steps: u32) -> u64 {
    let mut serial = SerialStepper::new(AdvectionProblem::general_case(grid as usize));
    serial.run(steps as u64);
    serve::artifact::state_checksum(serial.state())
}

/// A workload after set-up: ready to run blocks of ops.
pub trait Workload {
    /// Concurrent closed-loop clients (generator threads / connections).
    fn clients(&self) -> usize;

    /// Run one block of ops; `logs` has one span log per client, already
    /// switched on or off for this block.
    fn run_block(&mut self, stop: Stop, logs: &mut [SpanLog]) -> BlockResult;

    /// The shape the layer probes run on.
    fn probe_shape(&self) -> Shape;

    /// Implementations an op runs, for share arithmetic; empty when the
    /// op is not a round of runs.
    fn round(&self) -> &[Impl];

    /// `(runs, runs that exchange halos)` per op, for the share
    /// arithmetic: a round's implementation count by default.
    fn runs_per_op(&self) -> (f64, f64) {
        let round = self.round();
        (
            round.len() as f64,
            round.iter().filter(|im| im.uses_mpi()).count() as f64,
        )
    }

    /// Keys whose in-process execution time stands for the execute part
    /// of an op the harness cannot see into (a cold request).
    fn execute_sample(&self) -> Vec<overlap::RunKey> {
        Vec::new()
    }

    /// Tear down (stop servers, join threads) and report what only the
    /// whole run can tell.
    fn finish(self: Box<Self>) -> Finish;
}

/// What a workload knows once it has been torn down.
#[derive(Debug, Default)]
pub struct Finish {
    /// Server counters at shutdown, for the serve workloads.
    pub server: Option<serve::server::ServerStats>,
    /// Requests among those that set-up sent only to warm the server up
    /// (each a distinct cold execution).
    pub warmup_requests: u64,
    /// Run-wide invariants that did not hold (`executions == ops`, …);
    /// any entry makes the run incorrect.
    pub violations: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_rules() {
        let long_ago = Instant::now() - std::time::Duration::from_secs(5);
        assert!(
            !Stop::Seconds(1.0).reached(10, long_ago, 1),
            "under MIN_OPS"
        );
        assert!(Stop::Seconds(1.0).reached(50, long_ago, 2));
        assert!(!Stop::Seconds(60.0).reached(1000, long_ago, 1));
        assert!(Stop::Ops(3).reached(3, Instant::now(), 2));
        assert!(!Stop::Ops(3).reached(2, long_ago, 2));
    }

    #[test]
    fn walking_checksums_match_direct_runs() {
        let walk = serial_checksums(10, 5);
        assert_eq!(walk.len(), 5);
        assert_eq!(walk[2], serial_checksum(10, 3));
        assert_ne!(walk[2], walk[3]);
    }

    #[test]
    fn shapes_keep_tasks_times_threads_at_two() {
        let shape = Shape {
            grid: 16,
            steps: 8,
            block: (8, 8),
            thickness: 2,
            machine: "",
        };
        for im in Impl::ALL {
            let key = shape.params(im, 8).canonicalize(&DIRECT_LIMITS).unwrap();
            assert!(key.tasks() * key.threads() <= 2, "{}", im.slug());
        }
    }
}
