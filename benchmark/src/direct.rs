//! The four workloads that call the library directly from one generator
//! thread: three comparison rounds (`cpu_big`, `cpu_small`, `gpu_round`)
//! and `figures_regen`.

use crate::trace::SpanLog;
use crate::workload::{
    clamp_ns, pretouched, serial_checksum, BlockResult, Finish, Shape, Stop, Workload,
    DIRECT_LIMITS, MIN_OPS,
};
use overlap::{Impl, RunParams};
use std::hint::black_box;
use std::time::Instant;

/// Latency slots reserved per second of a timed block: no direct op is
/// faster than a millisecond.
const CAP_PER_SECOND: f64 = 1000.0;

fn sample_cap(stop: Stop) -> usize {
    match stop {
        Stop::Seconds(s) => MIN_OPS.max((s * CAP_PER_SECOND) as usize),
        Stop::Ops(n) => n,
    }
}

/// The three round workloads' fixed shapes.
pub fn round_spec(name: &str, smoke: bool) -> Option<(Shape, &'static [Impl], usize)> {
    const CPU: &[Impl] = &[
        Impl::SingleTask,
        Impl::BulkSync,
        Impl::Nonblocking,
        Impl::ThreadOverlap,
    ];
    const GPU: &[Impl] = &[
        Impl::GpuResident,
        Impl::GpuBulkSync,
        Impl::GpuStreams,
        Impl::HybridBulkSync,
        Impl::HybridOverlap,
    ];
    let cpu = |grid, steps| Shape {
        grid,
        steps,
        block: (8, 8),
        thickness: 2,
        machine: "",
    };
    // (shape, implementations, warm-up rounds)
    let spec = match name {
        "cpu_big" => (cpu(64, 12), CPU, 3),
        "cpu_small" => (cpu(16, 64), CPU, 10),
        "gpu_round" => (
            Shape {
                grid: 48,
                steps: 8,
                block: (32, 8),
                thickness: 2,
                machine: "yona",
            },
            GPU,
            3,
        ),
        _ => return None,
    };
    if smoke {
        let (shape, impls, _) = spec;
        return Some((
            Shape {
                grid: 12,
                steps: 2,
                ..shape
            },
            impls,
            1,
        ));
    }
    Some(spec)
}

/// One comparison round per op: the implementations run back to back on
/// the same problem, the starting implementation rotating with the seed
/// and the op index so every order is measured equally within a run.
pub struct Round {
    shape: Shape,
    impls: &'static [Impl],
    params: Vec<RunParams>,
    /// Serial-reference checksum of (grid, steps): every returned field
    /// must hash to it.
    want: u64,
    seed: u64,
    ops_done: u64,
}

impl Round {
    /// Set up: build the requests, compute the serial reference, warm up.
    pub fn setup(shape: Shape, impls: &'static [Impl], warmup: usize, seed: u64) -> Self {
        let mut w = Self {
            shape,
            impls,
            params: impls
                .iter()
                .map(|&im| shape.params(im, shape.steps))
                .collect(),
            want: serial_checksum(shape.grid, shape.steps),
            seed,
            ops_done: 0,
        };
        let mut off = [SpanLog::new(false, Instant::now(), 0)];
        let warm = w.run_block(Stop::Ops(warmup), &mut off);
        assert_eq!(warm.failed, 0, "warm-up round returned a wrong answer");
        w
    }

    /// Make every expected checksum wrong (negative tests).
    #[cfg(test)]
    pub fn corrupt_expectation(&mut self) {
        self.want ^= 1;
    }
}

impl Workload for Round {
    fn clients(&self) -> usize {
        1
    }

    fn run_block(&mut self, stop: Stop, logs: &mut [SpanLog]) -> BlockResult {
        let log = &mut logs[0];
        let cap = sample_cap(stop);
        let mut lat = pretouched(cap);
        let mut out = BlockResult::default();
        let started = Instant::now();
        while !stop.reached(lat.len(), started, 1) && lat.len() < cap {
            self.ops_done += 1;
            let op = self.ops_done;
            let root = log.open("op.round", None, op);
            let mut op_ns = 0u64;
            let mut wrong = false;
            let n = self.impls.len();
            for i in 0..n {
                let at = ((self.seed + op) as usize + i) % n;
                let t0 = Instant::now();
                let key = log.span("overlap.canonicalize", Some(root), op, || {
                    self.params[at].canonicalize(&DIRECT_LIMITS)
                });
                let Ok(key) = key else {
                    wrong = true;
                    continue;
                };
                let t1 = Instant::now();
                let (state, report) = log.span(run_span(self.impls[at]), Some(root), op, || {
                    black_box(&key).execute()
                });
                let run_ns = t1.elapsed().as_nanos() as u64;
                op_ns += t0.elapsed().as_nanos() as u64;
                // Checked outside the timed interval: the checksum walk
                // is the harness's cost, not the program's.
                log.span("harness.verify", Some(root), op, || {
                    wrong |= serve::artifact::state_checksum(&state) != self.want;
                });
                out.counters.add_report(&key, &report, run_ns);
            }
            log.close(root);
            out.failed += wrong as u64;
            lat.push(clamp_ns(op_ns));
        }
        out.lat_ns = vec![lat];
        out
    }

    fn probe_shape(&self) -> Shape {
        self.shape
    }

    fn round(&self) -> &[Impl] {
        self.impls
    }

    fn finish(self: Box<Self>) -> Finish {
        Finish::default()
    }
}

/// The span name of one implementation's run inside a round.
pub fn run_span(im: Impl) -> &'static str {
    match im {
        Impl::SingleTask => "overlap.single_task.execute",
        Impl::BulkSync => "overlap.bulk_sync.execute",
        Impl::Nonblocking => "overlap.nonblocking.execute",
        Impl::ThreadOverlap => "overlap.thread_overlap.execute",
        Impl::GpuResident => "overlap.gpu_resident.execute",
        Impl::GpuBulkSync => "overlap.gpu_bulk_sync.execute",
        Impl::GpuStreams => "overlap.gpu_streams.execute",
        Impl::HybridBulkSync => "overlap.hybrid_bulk_sync.execute",
        Impl::HybridOverlap => "overlap.hybrid_overlap.execute",
    }
}

/// Regenerate the paper's evaluation: all 19 figures/tables, their JSON
/// export, the claim table and its markdown report.
pub struct FiguresRegen {
    /// The first op's exported bytes; every later op must reproduce them.
    want_json: String,
    /// Ids of the claims that held at set-up; they must keep holding.
    want_held: Vec<&'static str>,
    ops_done: u64,
}

/// What one regeneration produced.
struct Regen {
    json: String,
    held: Vec<&'static str>,
    report_len: usize,
}

fn regenerate(log: &mut SpanLog, root: Option<crate::trace::SpanId>, op: u64) -> Regen {
    let figs = log.span("figures.all_figures", root, op, figures::all_figures);
    let json = log.span("figures.to_json", root, op, || {
        let mut out = String::new();
        for f in &figs {
            out.push_str(&f.to_json());
            out.push('\n');
        }
        out
    });
    let claims = log.span(
        "figures.evaluate_claims",
        root,
        op,
        figures::report::evaluate_claims,
    );
    let report = log.span("figures.render_markdown", root, op, || {
        figures::report::render_markdown(&claims)
    });
    Regen {
        json,
        held: claims.iter().filter(|c| c.holds).map(|c| c.id).collect(),
        report_len: black_box(report).len(),
    }
}

impl FiguresRegen {
    /// Set up: one regeneration records the reference bytes and claims,
    /// `warmup` more settle caches and lazy statics.
    pub fn setup(warmup: usize) -> Self {
        let mut off = SpanLog::new(false, Instant::now(), 0);
        let first = regenerate(&mut off, None, 0);
        let mut w = Self {
            want_json: first.json,
            want_held: first.held,
            ops_done: 0,
        };
        let warm = w.run_block(Stop::Ops(warmup), std::slice::from_mut(&mut off));
        assert_eq!(warm.failed, 0, "figure regeneration is not reproducible");
        w
    }
}

impl Workload for FiguresRegen {
    fn clients(&self) -> usize {
        1
    }

    fn run_block(&mut self, stop: Stop, logs: &mut [SpanLog]) -> BlockResult {
        let log = &mut logs[0];
        let cap = sample_cap(stop);
        let mut lat = pretouched(cap);
        let mut out = BlockResult::default();
        let started = Instant::now();
        while !stop.reached(lat.len(), started, 1) && lat.len() < cap {
            self.ops_done += 1;
            let op = self.ops_done;
            let root = log.open("op.regen", None, op);
            let t0 = Instant::now();
            let got = regenerate(log, Some(root), op);
            let op_ns = t0.elapsed().as_nanos() as u64;
            log.span("harness.verify", Some(root), op, || {
                let same = got.json == self.want_json
                    && got.report_len > 0
                    && self.want_held.iter().all(|id| got.held.contains(id));
                out.failed += !same as u64;
            });
            log.close(root);
            out.artifact_bytes += got.json.len() as u64;
            lat.push(clamp_ns(op_ns));
        }
        out.lat_ns = vec![lat];
        out
    }

    fn probe_shape(&self) -> Shape {
        // No run shape of its own: probe the layers it does not touch on
        // the same small request the hot serve keys use.
        crate::serve_load::HOT_SHAPE
    }

    fn round(&self) -> &[Impl] {
        &[]
    }

    fn finish(self: Box<Self>) -> Finish {
        Finish::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_round() -> Round {
        let (shape, impls, warmup) = round_spec("cpu_small", true).unwrap();
        Round::setup(shape, impls, warmup, 1)
    }

    #[test]
    fn a_round_checks_every_field_against_the_serial_reference() {
        let mut w = tiny_round();
        let mut logs = [SpanLog::new(true, Instant::now(), 0)];
        let block = w.run_block(Stop::Ops(3), &mut logs);
        assert_eq!(block.attempted(), 3);
        assert_eq!(block.failed, 0);
        assert!(block.counters.flops > 0 && block.counters.messages > 0);
        crate::trace::check_structure(&logs).unwrap();
        // One root, and per implementation a canonicalize, an execute and
        // a verify span.
        assert_eq!(logs[0].spans().len(), 3 * (1 + 3 * 4));
    }

    #[test]
    fn a_corrupted_checksum_lands_in_failed_not_in_a_panic() {
        let mut w = tiny_round();
        w.corrupt_expectation();
        let mut logs = [SpanLog::new(false, Instant::now(), 0)];
        let block = w.run_block(Stop::Ops(4), &mut logs);
        assert_eq!(block.attempted(), 4);
        assert_eq!(block.failed, 4, "every op answered wrongly");
    }

    #[test]
    fn rounds_rotate_their_starting_implementation() {
        let mut w = tiny_round();
        let mut logs = [SpanLog::new(true, Instant::now(), 0)];
        w.run_block(Stop::Ops(2), &mut logs);
        let firsts: Vec<&str> = logs[0]
            .spans()
            .iter()
            .filter(|s| s.name.ends_with(".execute"))
            .map(|s| s.name)
            .step_by(4)
            .collect();
        assert_eq!(firsts.len(), 2);
        assert_ne!(firsts[0], firsts[1]);
    }
}
