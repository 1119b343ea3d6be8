//! Fault-injection soak harness.
//!
//! The paper's nine implementations (Section IV) all claim the same
//! contract: whatever the delivery schedule, the final state is
//! bit-identical to the serial stepper. The fault subsystem in `simmpi`
//! and `simgpu` exists to attack that claim — seeded per-link latency
//! jitter, cross-channel reordering, transient drops with redelivery,
//! straggler ranks, and GPU launch/PCIe perturbations. This crate sweeps
//! seeds over every implementation and asserts the oracle comparison is
//! *exact* (`max_abs_diff == 0.0`), not merely close.
//!
//! The `chaos_soak` binary drives a sweep from the command line and is
//! wired into CI (32 seeds per push, 256 nightly); [`soak`] is the
//! library entry point the binary and the tests share.

use advect_core::field::Field3;
use advect_core::stepper::{AdvectionProblem, SerialStepper};
use overlap::{FaultSpec, Impl, RunConfig, RunReport};
use simgpu::GpuSpec;

pub mod straggler;

/// Parameters of one soak sweep.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Fault seeds to sweep; each seed fully determines the fault
    /// schedule of every run it parameterises.
    pub seeds: Vec<u64>,
    /// Global cubic grid edge.
    pub n: usize,
    /// Time steps per run.
    pub steps: u64,
    /// MPI tasks for the distributed implementations.
    pub tasks: usize,
    /// OpenMP-style threads per task.
    pub threads: usize,
}

impl SoakConfig {
    /// The CI sweep shape: seeds `0..count` on the small general-case
    /// problem every trace and instrumentation test uses.
    pub fn sweep(count: u64) -> Self {
        SoakConfig {
            seeds: (0..count).collect(),
            n: 12,
            steps: 3,
            tasks: 4,
            threads: 2,
        }
    }

    fn run_config(&self, im: Impl, fault: FaultSpec) -> RunConfig {
        let problem = AdvectionProblem::general_case(self.n);
        let mut cfg = RunConfig::new(problem, self.steps)
            .with_threads(self.threads)
            .with_block((8, 8))
            .with_thickness(1)
            .with_metrics(true)
            .with_faults(fault);
        if im.uses_mpi() {
            cfg = cfg.tasks(self.tasks);
        }
        cfg
    }
}

/// Fault-path activity accumulated over every seeded run of one
/// implementation.
#[derive(Debug, Clone, Default)]
pub struct ImplFaults {
    /// Implementation slug (`bulk_sync`, `hybrid_overlap`, ...).
    pub slug: String,
    /// Seeded runs accumulated into this row.
    pub runs: u64,
    /// Messages held back by jitter, reordering, or drops.
    pub delayed: u64,
    /// Messages dropped in flight and redelivered.
    pub redelivered: u64,
    /// Bounded-wait timeouts that fired before the message arrived.
    pub retries: u64,
    /// Longest single blocked receive across all runs, nanoseconds.
    pub max_stall_ns: u64,
    /// Straggler compute + allreduce stall sleep, nanoseconds.
    pub throttle_ns: u64,
    /// Distribution of bounded-wait stalls (one sample per timeout
    /// expiry, from its `fault.stall` span), merged across runs.
    pub stall: obs::registry::HistogramSnapshot,
    /// Distribution of total stall time behind each redelivered message
    /// (one sample per `fault.redeliver` span), merged across runs.
    pub redeliver_latency: obs::registry::HistogramSnapshot,
}

impl ImplFaults {
    /// Whether the histograms account for every fault the counters saw:
    /// one stall sample per retry, one latency sample per redelivery.
    fn accounted(&self) -> bool {
        self.stall.count == self.retries && self.redeliver_latency.count == self.redelivered
    }

    fn absorb(&mut self, report: &RunReport) {
        self.runs += 1;
        self.delayed += report.total_delayed();
        self.redelivered += report.total_redelivered();
        self.retries += report.total_retries();
        self.max_stall_ns = self.max_stall_ns.max(report.max_stall_ns());
        self.throttle_ns += report.total_throttle_ns();
        self.stall
            .merge(&report.metrics.histogram_snapshot("advect_fault_stall_ns"));
        self.redeliver_latency.merge(
            &report
                .metrics
                .histogram_snapshot("advect_fault_redeliver_latency_ns"),
        );
    }
}

/// Outcome of a soak sweep: divergences (fatal) plus the fault-path
/// activity that proves the schedule actually exercised the machinery.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Seeds swept.
    pub seeds: u64,
    /// Grid edge used.
    pub n: usize,
    /// Steps per run.
    pub steps: u64,
    /// Total implementation runs executed.
    pub runs: u64,
    /// Human-readable divergence descriptions; empty on success.
    pub mismatches: Vec<String>,
    /// Per-implementation fault totals, in `Impl::ALL` order.
    pub per_impl: Vec<ImplFaults>,
}

impl SoakReport {
    /// True when every run reproduced the oracle bit-for-bit and every
    /// implementation's fault histograms account for its counters: one
    /// stall sample per retry, one latency sample per redelivery.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty() && self.per_impl.iter().all(ImplFaults::accounted)
    }

    /// Serialise as JSON for the CI artifact.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"seeds\": {},\n", self.seeds));
        s.push_str(&format!("  \"grid\": {},\n", self.n));
        s.push_str(&format!("  \"steps\": {},\n", self.steps));
        s.push_str(&format!("  \"runs\": {},\n", self.runs));
        s.push_str(&format!("  \"ok\": {},\n", self.ok()));
        s.push_str("  \"mismatches\": [");
        for (i, m) in self.mismatches.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\"", m.replace('"', "'")));
        }
        s.push_str("],\n");
        s.push_str("  \"per_impl\": {\n");
        for (i, f) in self.per_impl.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {{\"runs\": {}, \"delayed\": {}, \"redelivered\": {}, \
                 \"retries\": {}, \"max_stall_ns\": {}, \"throttle_ns\": {}, \
                 \"stall_p50_ns\": {}, \"stall_p95_ns\": {}, \"stall_p99_ns\": {}, \
                 \"redeliver_p50_ns\": {}, \"redeliver_p95_ns\": {}, \
                 \"redeliver_p99_ns\": {}}}{}\n",
                f.slug,
                f.runs,
                f.delayed,
                f.redelivered,
                f.retries,
                f.max_stall_ns,
                f.throttle_ns,
                f.stall.quantile(0.5),
                f.stall.quantile(0.95),
                f.stall.quantile(0.99),
                f.redeliver_latency.quantile(0.5),
                f.redeliver_latency.quantile(0.95),
                f.redeliver_latency.quantile(0.99),
                if i + 1 < self.per_impl.len() { "," } else { "" }
            ));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Render the per-implementation fault table as Markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "## Chaos soak: {} seeds x {} implementations on {n}^3, {} steps\n\n",
            self.seeds,
            self.per_impl.len(),
            self.steps,
            n = self.n,
        ));
        s.push_str(&format!(
            "Result: **{}** ({} runs, {} mismatches)\n\n",
            if !self.mismatches.is_empty() {
                "DIVERGED"
            } else if self.ok() {
                "bit-identical"
            } else {
                "MISCOUNTED"
            },
            self.runs,
            self.mismatches.len()
        ));
        s.push_str(
            "| implementation | runs | delayed | redelivered | retries | \
             stall p50/p95/p99 (us) | redeliver p50/p95/p99 (us) | \
             max stall (us) | throttle (ms) |\n",
        );
        s.push_str("|---|---|---|---|---|---|---|---|---|\n");
        let pcts = |h: &obs::registry::HistogramSnapshot| {
            if h.count == 0 {
                "—".to_string()
            } else {
                format!(
                    "{:.0}/{:.0}/{:.0}",
                    h.quantile(0.5) as f64 / 1e3,
                    h.quantile(0.95) as f64 / 1e3,
                    h.quantile(0.99) as f64 / 1e3,
                )
            }
        };
        for f in &self.per_impl {
            s.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {:.0} | {:.1} |\n",
                f.slug,
                f.runs,
                f.delayed,
                f.redelivered,
                f.retries,
                pcts(&f.stall),
                pcts(&f.redeliver_latency),
                f.max_stall_ns as f64 / 1e3,
                f.throttle_ns as f64 / 1e6,
            ));
        }
        for m in &self.mismatches {
            s.push_str(&format!("\nMISMATCH: {m}\n"));
        }
        for f in self.per_impl.iter().filter(|f| !f.accounted()) {
            s.push_str(&format!(
                "\nMISCOUNT: {}: {} stall samples for {} retries, {} redelivery samples for {} redelivered\n",
                f.slug, f.stall.count, f.retries, f.redeliver_latency.count, f.redelivered
            ));
        }
        s
    }
}

/// The serial-stepper oracle for a sweep's problem shape.
pub fn oracle(cfg: &SoakConfig) -> Field3 {
    let mut s = SerialStepper::new(AdvectionProblem::general_case(cfg.n));
    s.run(cfg.steps);
    s.state().clone()
}

/// Run every implementation under every seed's fault schedule and
/// compare each final state against the serial oracle, bit for bit.
pub fn soak(cfg: &SoakConfig) -> SoakReport {
    let expect = oracle(cfg);
    let spec = GpuSpec::tesla_c2050();
    let mut report = SoakReport {
        seeds: cfg.seeds.len() as u64,
        n: cfg.n,
        steps: cfg.steps,
        runs: 0,
        mismatches: Vec::new(),
        per_impl: Impl::ALL
            .iter()
            .map(|im| ImplFaults {
                slug: im.slug().to_string(),
                ..ImplFaults::default()
            })
            .collect(),
    };
    for &seed in &cfg.seeds {
        let fault = FaultSpec::chaos(seed);
        for (i, im) in Impl::ALL.iter().enumerate() {
            let run_cfg = cfg.run_config(*im, fault);
            let gpu_spec = im.uses_gpu().then_some(&spec);
            let (got, run_report) = im.run_with_report(&run_cfg, gpu_spec);
            report.runs += 1;
            report.per_impl[i].absorb(&run_report);
            let diff = got.max_abs_diff(&expect);
            if diff != 0.0 {
                report.mismatches.push(format!(
                    "{} seed {} diverged from serial oracle: max |diff| = {:e}",
                    im.slug(),
                    seed,
                    diff
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_soak_is_bit_identical_and_exercises_faults() {
        // Seed 2 marks ranks as stragglers under the chaos plan, so this
        // sweep covers delivery faults AND compute throttling.
        let report = soak(&SoakConfig::sweep(3));
        assert!(report.ok(), "mismatches: {:?}", report.mismatches);
        assert_eq!(report.runs, 3 * Impl::ALL.len() as u64);
        // The chaos plan must actually perturb delivery on the MPI
        // implementations — a soak that injects nothing proves nothing.
        let delayed: u64 = report.per_impl.iter().map(|f| f.delayed).sum();
        assert!(delayed > 0, "chaos sweep held no messages");
        let throttled: u64 = report.per_impl.iter().map(|f| f.throttle_ns).sum();
        assert!(throttled > 0, "chaos sweep throttled no stragglers");
        // The stall histograms ride along from the per-run registries;
        // any delayed delivery that fired a bounded-wait timeout must
        // leave a distribution with sane quantile ordering.
        for f in &report.per_impl {
            assert_eq!(
                f.stall.count, f.retries,
                "{}: one stall sample per bounded-wait expiry",
                f.slug
            );
            if f.stall.count > 0 {
                assert!(f.stall.quantile(0.5) <= f.stall.quantile(0.99));
                assert!(
                    f.stall.quantile(0.99) <= 2 * f.max_stall_ns,
                    "p99 {} vs max {} (log-linear bucket ceiling)",
                    f.stall.quantile(0.99),
                    f.max_stall_ns
                );
            }
            assert_eq!(
                f.redeliver_latency.count, f.redelivered,
                "{}: one latency sample per redelivered message",
                f.slug
            );
        }
    }

    #[test]
    fn report_renders_json_and_markdown() {
        let mut report = soak(&SoakConfig {
            seeds: vec![7],
            n: 12,
            steps: 2,
            tasks: 4,
            threads: 2,
        });
        let json = report.to_json();
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"hybrid_overlap\""));
        assert!(json.contains("\"stall_p95_ns\""));
        assert!(json.contains("\"redeliver_p99_ns\""));
        let md = report.to_markdown();
        for im in Impl::ALL {
            assert!(md.contains(im.slug()), "markdown missing {}", im.slug());
        }
        assert!(md.contains("bit-identical"));
        assert!(md.contains("stall p50/p95/p99"), "{md}");
        // A mismatch flips ok() and shows up in both renderings.
        // So does a fault the histograms missed.
        report.per_impl[0].retries += 1;
        assert!(!report.ok());
        assert!(report.to_json().contains("\"ok\": false"));
        assert!(report.to_markdown().contains("MISCOUNTED"));
        assert!(report.to_markdown().contains("MISCOUNT: single_task"));
        report.per_impl[0].retries -= 1;
        assert!(report.ok());
        report.mismatches.push("synthetic".to_string());
        assert!(!report.ok());
        assert!(report.to_json().contains("\"ok\": false"));
        assert!(report.to_markdown().contains("DIVERGED"));
    }
}
