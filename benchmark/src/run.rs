//! One workload in one process: set-up, the timed blocks, tear-down,
//! and the metrics either pass produces. With tracing off this is the
//! untraced pass (end-to-end metrics only); with tracing on it is the
//! shorter traced pass (spans, layer probes, per-layer metrics only).

use crate::catalog::{self, MetricDef};
use crate::direct::{round_spec, run_span, FiguresRegen, Round};
use crate::host;
use crate::probes::{self, ProbePlan};
use crate::serve_load::ServeLoad;
use crate::stats::{batches, iqr_share, per_op, quantile, quietest, supports};
use crate::trace::{self, SpanLog};
use crate::workload::{BlockResult, Counters, Stop, Workload};
use overlap::Impl;
use std::path::Path;
use std::time::{Duration, Instant};

/// How one workload run was asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`catalog::WORKLOADS`]).
    pub workload: String,
    /// Seed of every generator.
    pub seed: u64,
    /// Length of the timed block, and the scale of the traced pass's
    /// fixed op counts (calibrated for 15).
    pub seconds: f64,
    /// Traced pass instead of the untraced one.
    pub trace: bool,
    /// Tiny op counts and probe sizes: exercises every generator and
    /// check in seconds, measures nothing worth reading.
    pub smoke: bool,
}

/// What one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every op answered correctly and every run-wide invariant held.
    pub correct: bool,
    /// Ops attempted in the timed blocks.
    pub attempted: u64,
    /// Ops that errored, were refused, timed out or answered wrongly.
    pub failed: u64,
    /// The pass's metrics, in catalogue order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Run-wide invariants that did not hold.
    pub violations: Vec<String>,
}

impl Outcome {
    /// The result line the driver reads: one JSON object.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, v)| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    def.name,
                    json_number(*v),
                    def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite f64 with every digit it has; non-finite values (a ratio over
/// a zero-length interval) print as 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Set-ups per untraced run; the reported `setup_s` is their median.
const SETUPS: usize = 5;

/// Blocks of the traced pass, alternately untraced and traced.
const BLOCKS: usize = 8;

/// Ops per client in each of the traced pass's blocks when `--seconds`
/// is 15: a fifth of what the untraced pass gets through on the
/// reference host, about 0.3 s a block. `serve_hot` gets a thirtieth:
/// its fifth would be 300 000 ops and a span file of 100 MB.
fn traced_block_ops(workload: &str) -> usize {
    match workload {
        "cpu_big" | "gpu_round" => 5,
        "cpu_small" => 18,
        // Five windows of 24 requests over two clients.
        "serve_cold" => 120,
        "serve_hot" => 2500,
        _ => 11,
    }
}

/// Set one workload up.
pub fn setup(workload: &str, seed: u64, smoke: bool) -> Result<Box<dyn Workload>, String> {
    if let Some((shape, impls, warmup)) = round_spec(workload, smoke) {
        return Ok(Box::new(Round::setup(shape, impls, warmup, seed)));
    }
    let io = |e: std::io::Error| format!("{workload}: server set-up failed: {e}");
    match workload {
        "serve_cold" => Ok(Box::new(ServeLoad::setup_cold(seed, smoke).map_err(io)?)),
        "serve_hot" => Ok(Box::new(ServeLoad::setup_hot(seed, smoke).map_err(io)?)),
        "figures_regen" => Ok(Box::new(FiguresRegen::setup(if smoke { 1 } else { 5 }))),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            catalog::WORKLOADS.map(|w| w.0).join(", ")
        )),
    }
}

fn logs_for(clients: usize, epoch: Instant) -> Vec<SpanLog> {
    (0..clients)
        .map(|c| SpanLog::new(false, epoch, c as u32))
        .collect()
}

/// Run one workload as `opts` asks. `out_dir` receives the span file and
/// the host fingerprint of a traced pass.
pub fn run(opts: &Options, out_dir: &Path) -> Result<Outcome, String> {
    if opts.trace {
        run_traced(opts, out_dir)
    } else {
        run_untraced(opts)
    }
}

fn run_untraced(opts: &Options) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..if opts.smoke { 1 } else { SETUPS } {
        // Tear the previous set-up down first: two live copies would
        // double the peak memory this run reports.
        if let Some(old) = workload.take() {
            old.finish();
        }
        let t0 = Instant::now();
        workload = Some(setup(&opts.workload, opts.seed, opts.smoke)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up ran");
    let mut logs = logs_for(workload.clients(), Instant::now());
    let stop = if opts.smoke {
        Stop::Ops(4)
    } else {
        Stop::Seconds(opts.seconds)
    };
    let block = workload.run_block(stop, &mut logs);
    // Read before any post-processing allocates in proportion to the
    // number of ops completed.
    let peak_rss = host::peak_rss_mib();
    let finish = workload.finish();

    let ops = block.attempted() as usize;
    if !supports(ops, 0.9) {
        eprintln!(
            "note: {ops} ops leave fewer than {} samples beyond the run's 90th percentile",
            crate::stats::BEYOND
        );
    }
    let (median_ns, p90_ns, ops_per_s) = quietest(&batches(&block.lat_ns));
    let values = [
        crate::stats::median(&setups),
        median_ns / 1e6,
        p90_ns / 1e6,
        ops_per_s,
        peak_rss,
    ];
    Ok(Outcome {
        correct: block.failed == 0 && finish.violations.is_empty(),
        attempted: block.attempted(),
        failed: block.failed,
        metrics: catalog::end_to_end().into_iter().zip(values).collect(),
        violations: finish.violations,
    })
}

fn run_traced(opts: &Options, out_dir: &Path) -> Result<Outcome, String> {
    let mut workload = setup(&opts.workload, opts.seed, opts.smoke)?;
    let epoch = Instant::now();
    let mut logs = logs_for(workload.clients(), epoch);
    let ops = if opts.smoke {
        2
    } else {
        ((traced_block_ops(&opts.workload) as f64 * opts.seconds / 15.0).ceil() as usize).max(2)
    };
    let jiffies_before = host::cpu_jiffies();
    // Untraced and traced blocks alternate so both see the same host
    // epoch; their medians differ by the tracing overhead.
    let mut blocks: Vec<(bool, BlockResult)> = Vec::new();
    for i in 0..BLOCKS {
        let traced = i % 2 == 1;
        for log in logs.iter_mut() {
            log.set_on(traced);
        }
        blocks.push((traced, workload.run_block(Stop::Ops(ops), &mut logs)));
    }
    let steal = host::steal_share(jiffies_before, host::cpu_jiffies());

    let all: Vec<&BlockResult> = blocks.iter().map(|(_, b)| b).collect();
    let attempted: u64 = all.iter().map(|b| b.attempted()).sum();
    let failed: u64 = all.iter().map(|b| b.failed).sum();
    let mut counters = Counters::default();
    for b in &all {
        counters.merge(&b.counters);
    }
    let median_ms = |traced: bool| -> f64 {
        let mut lat: Vec<u32> = blocks
            .iter()
            .filter(|(t, _)| *t == traced)
            .flat_map(|(_, b)| b.lat_ns.iter().flatten().copied())
            .collect();
        lat.sort_unstable();
        quantile(&lat, 0.5) as f64 / 1e6
    };
    let (solve_untraced, solve_traced) = (median_ms(false), median_ms(true));
    let mut sorted: Vec<u32> = all
        .iter()
        .flat_map(|b| b.lat_ns.iter().flatten().copied())
        .collect();
    sorted.sort_unstable();
    let total_lat_ns: u64 = sorted.iter().map(|&v| v as u64).sum();

    // Layer probes, under one root span of their own on client 0's log.
    let round: Vec<Impl> = workload.round().to_vec();
    let plan = ProbePlan {
        shape: workload.probe_shape(),
        round: &round,
        budget: if opts.smoke {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(0.09 * opts.seconds / 15.0)
        },
        smoke: opts.smoke,
    };
    logs[0].set_on(true);
    let probe_root = logs[0].open("op.probes", None, 0);
    let (mut m, times, sizes) = probes::run_all(&plan, &mut logs[0], probe_root);
    let sample = workload.execute_sample();
    let sample_execute_s: f64 =
        logs[0].span("probe.serve.execute_sample", Some(probe_root), 0, || {
            // The faster of two executions each: the first also pays for
            // cold caches the server's workers do not see.
            sample
                .iter()
                .map(|key| {
                    (0..2)
                        .map(|_| {
                            let t0 = Instant::now();
                            std::hint::black_box(key.execute());
                            t0.elapsed().as_secs_f64()
                        })
                        .fold(f64::INFINITY, f64::min)
                })
                .sum()
        });
    logs[0].close(probe_root);

    let (runs, mpi_runs) = workload.runs_per_op();
    let is_serve = workload.clients() > 1;
    let finish = workload.finish();

    // Metrics that come from the ops rather than from a probe.
    let op_s = solve_untraced / 1e3;
    let steps = plan.shape.steps as f64;
    let share = |calls: f64, call_s: f64| {
        if op_s > 0.0 {
            calls * call_s / op_s
        } else {
            0.0
        }
    };
    let stencil_share = share(runs * steps, times.kernel_rank_s);
    let exchange_share = share(mpi_runs * steps, times.exchange_s);
    // Each of a run's two ranks (or threads) fills its own half of the
    // initial field, side by side.
    let init_share = share(runs, times.init_s / 2.0);
    let probe_p99 = m.remove("probe.hit_p99_ms").unwrap_or(0.0);
    let probe_bytes = m.remove("probe.artifact_bytes").unwrap_or(0.0);
    let roofline_share = m["advect_core.stencil_gf"]
        / m["harness.peak_gf"].min(m["harness.stream_gbs"] * 53.0 / 16.0);
    let mut set = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    set("advect_core.stencil_roofline_share", roofline_share);
    set("harness.samples", attempted as f64);
    set("harness.nproc", host::nproc() as f64);
    set("harness.steal_share", steal);
    set("harness.iqr_share", iqr_share(&sorted));
    set(
        "harness.trace_overhead_share",
        (solve_traced - solve_untraced) / solve_untraced,
    );
    set("harness.fail_share", per_op(failed, attempted));
    set("advect_core.stencil_share", stencil_share);
    set("overlap.exchange_share", exchange_share);
    set(
        "overlap.orchestration_share",
        if runs > 0.0 {
            1.0 - stencil_share - exchange_share - init_share
        } else {
            0.0
        },
    );
    set(
        "advect_core.flops_per_op",
        per_op(counters.flops, attempted),
    );
    // Computed, not measured: one read and one write of every point per
    // step, 16 bytes, whatever the caches do.
    set(
        "advect_core.bytes_per_op",
        per_op(counters.flops / 53 * 16, attempted),
    );
    set(
        "simmpi.wait_share",
        if counters.rank_ns > 0 {
            counters.wait_ns as f64 / counters.rank_ns as f64
        } else {
            0.0
        },
    );
    set(
        "simmpi.messages_per_op",
        per_op(counters.messages, attempted),
    );
    set("simmpi.values_per_op", per_op(counters.values, attempted));
    set(
        "simmpi.buffers_allocated_per_op",
        per_op(counters.buffers_allocated, attempted),
    );
    set(
        "simgpu.launches_per_op",
        per_op(counters.launches, attempted),
    );
    set(
        "simgpu.pcie_points_per_op",
        per_op(counters.pcie_points, attempted),
    );
    let per_op_ms = |s: f64| {
        if attempted > 0 {
            s * 1e3 / attempted as f64
        } else {
            0.0
        }
    };
    set(
        "simgpu.virtual_compute_ms_per_op",
        per_op_ms(counters.virtual_compute_s),
    );
    set(
        "simgpu.virtual_copy_ms_per_op",
        per_op_ms(counters.virtual_copy_s),
    );
    set(
        "serve.execute_share",
        if counters.execute_ns > 0 {
            counters.execute_ns as f64 / total_lat_ns as f64
        } else if !sample.is_empty() && total_lat_ns > 0 {
            (sample_execute_s / sample.len() as f64)
                / (total_lat_ns as f64 / 1e9 / attempted as f64)
        } else {
            0.0
        },
    );
    let artifact_bytes: u64 = all.iter().map(|b| b.artifact_bytes).sum();
    set(
        "serve.p99_ms",
        if is_serve {
            quantile(&sorted, 0.99) as f64 / 1e6
        } else {
            probe_p99
        },
    );
    set(
        "serve.artifact_bytes",
        if is_serve {
            per_op(artifact_bytes, attempted)
        } else {
            probe_bytes
        },
    );
    // Server-lifetime counters, less the requests the set-up sent purely
    // to warm the server up (the hot keys' pre-fill is not warm-up: its
    // sixteen executions are the ones a hot run is allowed).
    let stats = finish.server.unwrap_or_default();
    set(
        "serve.cache_hit_share",
        per_op(stats.cache_hits, stats.requests - finish.warmup_requests),
    );
    set(
        "serve.executions",
        (stats.executions - finish.warmup_requests) as f64,
    );
    set("serve.dedup_joins", stats.dedup_joins as f64);
    set("serve.rejects", stats.rejects as f64);
    set("serve.timeouts", stats.timeouts as f64);
    // Implementations the op runs report their median within the round
    // (op id 0 is the probe group, which reuses the span names).
    for &im in &round {
        let mut runs_ns: Vec<u64> = logs[0]
            .spans()
            .iter()
            .filter(|s| s.op != 0 && s.name == run_span(im))
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        runs_ns.sort_unstable();
        if !runs_ns.is_empty() {
            set(
                &format!("overlap.{}.run_ms", im.slug()),
                quantile(&runs_ns, 0.5) as f64 / 1e6,
            );
        }
    }

    let mut violations = finish.violations;
    if let Err(e) = trace::check_structure(&logs) {
        violations.push(format!("span file: {e}"));
    }
    let write = |name: String, text: String| -> Result<(), String> {
        std::fs::create_dir_all(out_dir)
            .and_then(|()| std::fs::write(out_dir.join(&name), text))
            .map_err(|e| format!("writing {}: {e}", out_dir.join(&name).display()))
    };
    write(
        format!("{}.trace.json", opts.workload),
        trace::render_chrome(&opts.workload, &logs),
    )?;
    write(
        format!("{}.host.json", opts.workload),
        format!(
            "{{\"host\":{},\"steal_share\":{},\"stream_array_bytes\":{},\"llc_bytes\":{},\"seed\":{},\"clients\":{},\"loop\":\"closed\"}}\n",
            host::Fingerprint::read().to_json(),
            json_number(steal),
            sizes.array_bytes,
            sizes.llc_bytes,
            opts.seed,
            logs.len(),
        ),
    )?;
    eprintln!(
        "stream probe: 3 arrays of {} MiB each, detected LLC {} MiB",
        sizes.array_bytes >> 20,
        sizes.llc_bytes >> 20
    );

    let metrics: Vec<(MetricDef, f64)> = catalog::per_layer()
        .into_iter()
        .map(|def| {
            let v = m
                .get(&def.name)
                .copied()
                .ok_or(format!("no value was measured for {}", def.name))?;
            Ok((def, v))
        })
        .collect::<Result<_, String>>()?;
    Ok(Outcome {
        correct: failed == 0 && violations.is_empty(),
        attempted,
        failed,
        metrics,
        violations,
    })
}

/// The human-readable table of one outcome: every metric by name with
/// its value, unit, direction and bound.
pub fn render_table(title: &str, outcome: &Outcome) -> String {
    let mut out = format!(
        "{title}: {} ops attempted, {} failed, {}\n",
        outcome.attempted,
        outcome.failed,
        if outcome.correct {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    for v in &outcome.violations {
        out.push_str(&format!("  violated: {v}\n"));
    }
    for (def, v) in &outcome.metrics {
        let bound = def
            .bound
            .map_or(String::new(), |b| format!("  may worsen by {b}"));
        out.push_str(&format!(
            "  {:<44} {:>16.6} {:<6} {} is better{}{}\n",
            def.name,
            v,
            def.unit,
            def.better.as_str(),
            bound,
            if def.counter { "  (count)" } else { "" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> Outcome {
        let dir =
            std::env::temp_dir().join(format!("advect-benchmark-test-{}", std::process::id()));
        let out = run(
            &Options {
                workload: workload.to_string(),
                seed: 1,
                seconds: 1.0,
                trace,
                smoke: true,
            },
            &dir,
        )
        .unwrap_or_else(|e| panic!("{workload}: {e}"));
        if trace {
            let file = dir.join(format!("{workload}.trace.json"));
            let text = std::fs::read_to_string(&file).expect("span file written");
            figures::json::Value::parse(&text).expect("span file is JSON");
            let _ = std::fs::remove_dir_all(&dir);
        }
        out
    }

    #[test]
    fn smoke_runs_every_workload_untraced_and_correct() {
        for (name, _) in catalog::WORKLOADS {
            let out = smoke(name, false);
            assert!(out.correct, "{name}: {:?}", out.violations);
            assert!(out.attempted >= 4 && out.failed == 0, "{name}");
            let names: Vec<&str> = out.metrics.iter().map(|(d, _)| d.name.as_str()).collect();
            assert_eq!(
                names,
                ["setup_s", "solve_ms", "p90_ms", "ops_per_s", "peak_rss_mb"]
            );
            assert!(out.metrics.iter().all(|(_, v)| *v > 0.0), "{name}: {out:?}");
            assert!(figures::json::Value::parse(&out.to_json_line()).is_ok());
        }
    }

    #[test]
    fn smoke_traced_pass_reports_every_per_layer_metric() {
        for name in ["cpu_small", "serve_cold"] {
            let out = smoke(name, true);
            assert!(out.correct, "{name}: {:?}", out.violations);
            assert_eq!(out.metrics.len(), catalog::per_layer().len());
            assert!(out.metrics.iter().all(|(_, v)| v.is_finite()), "{name}");
            let get = |n: &str| out.metrics.iter().find(|(d, _)| d.name == n).unwrap().1;
            assert_eq!(get("harness.fail_share"), 0.0);
            assert!(get("advect_core.flops_per_op") > 0.0);
            if name == "serve_cold" {
                assert_eq!(get("serve.cache_hit_share"), 0.0);
                assert_eq!(get("serve.executions"), out.attempted as f64);
                assert_eq!(out.attempted, (BLOCKS * 2 * 2) as u64);
            }
        }
    }

    #[test]
    fn result_lines_print_every_digit_and_no_nan() {
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "0");
    }
}
