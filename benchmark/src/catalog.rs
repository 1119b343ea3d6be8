//! Every metric the benchmark reports, by name, with its unit and
//! direction: the same list `BENCHMARK.json` carries (a test keeps the
//! two in step). End-to-end metrics come from the untraced pass and have
//! a bound; per-layer metrics come from the traced pass and have none.

use overlap::Impl;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A smaller value is an improvement.
    Lower,
    /// A larger value is an improvement.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// A deterministic count: must repeat exactly for a given seed.
    pub counter: bool,
}

/// The workloads, in report order, each with the reason it exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "cpu_big",
        "IV-A..D back to back on a 64^3 grid, 12 steps: the advect-core stencil does most of the work, so kernel, tiling and stepper changes must show here",
    ),
    (
        "cpu_small",
        "same four runners on a 16^3 grid, 64 steps: per-step thread spawning, World launch, exchange and barriers dominate; a kernel-only change must not move it",
    ),
    (
        "gpu_round",
        "IV-E..I back to back on a 48^3 grid, 8 steps, block 32x8 on yona: the simgpu functional device does most of the work; CPU-runner changes leave it flat",
    ),
    (
        "serve_cold",
        "run requests over loopback TCP, every one a distinct canonical RunKey from 2 tenants: the cold path parse-key-queue-execute-render-insert-write, cache bypassed",
    ),
    (
        "serve_hot",
        "same server and wire, 16 pre-filled hot keys drawn by seeded LCG: parse, key, cache lookup, render and socket write only; per-request bookkeeping shows here",
    ),
    (
        "figures_regen",
        "all_figures + JSON export + evaluate_claims + render_markdown: perfmodel, machine and figures replaying nine schedules in virtual time, touched by no other workload",
    ),
];

fn def(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
        counter: false,
    }
}

fn count(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        counter: true,
        ..def(name, unit, better)
    }
}

/// The bound of every end-to-end metric: the most the benchmark contract
/// allows. The issue's starting values were 0.10-0.15, to be widened to
/// twice the observed spread of five sets; on the reference host a slow
/// epoch that outlasts a whole run (seen on `gpu_round`: four runs in a
/// row 10-45 % slow) puts that at 0.3-0.9 for the timing metrics, and
/// `peak_rss_mb` moves 30 % on `cpu_big` with the malloc arena a thread
/// happens to draw. A tighter bound would reject changes for the
/// host's noise.
const BOUND: f64 = 0.25;

/// The end-to-end metrics, the same on every workload. Failures are not
/// a metric here because a healthy run's value is exactly 0 (no relative
/// bound can apply); they travel in the result line's `failed` and
/// `attempted` fields and as `harness.fail_share` in the traced pass.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    let bounded = |name: &str, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        bounded("setup_s", "s", Lower, BOUND),
        bounded("solve_ms", "ms", Lower, BOUND),
        bounded("p90_ms", "ms", Lower, BOUND),
        bounded("ops_per_s", "1/s", Higher, BOUND),
        bounded("peak_rss_mb", "MiB", Lower, BOUND),
    ]
}

/// The per-layer metrics (layers are this repository's crates).
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut m = vec![
        // harness: these qualify the other numbers and should move for
        // no change to the program.
        count("harness.samples", "count", Higher),
        count("harness.nproc", "count", Higher),
        def("harness.steal_share", "ratio", Lower),
        def("harness.iqr_share", "ratio", Lower),
        def("harness.trace_overhead_share", "ratio", Lower),
        def("harness.stream_gbs", "GB/s", Higher),
        def("harness.peak_gf", "GF/s", Higher),
        def("harness.fail_share", "ratio", Lower),
        // advect_core
        def("advect_core.stencil_gf", "GF/s", Higher),
        def("advect_core.stencil_roofline_share", "ratio", Higher),
        def("advect_core.stencil_share", "ratio", Lower),
        def("advect_core.stepper_step_us", "us", Lower),
        def("advect_core.stepper_over_kernel", "ratio", Lower),
        def("advect_core.init_ms", "ms", Lower),
        def("advect_core.team_region_us", "us", Lower),
        def("advect_core.sweep_batch_us", "us", Lower),
        count("advect_core.flops_per_op", "count", Lower),
        count("advect_core.bytes_per_op", "count", Lower),
        // decomp
        def("decomp.plan_us", "us", Lower),
        def("decomp.partition_us", "us", Lower),
        count("decomp.halo_values_per_step", "count", Lower),
        // simmpi
        def("simmpi.world_launch_us", "us", Lower),
        def("simmpi.pingpong_us", "us", Lower),
        def("simmpi.bandwidth_gbs", "GB/s", Higher),
        def("simmpi.barrier_us", "us", Lower),
        def("simmpi.wait_share", "ratio", Lower),
        count("simmpi.messages_per_op", "count", Lower),
        count("simmpi.values_per_op", "count", Lower),
        count("simmpi.buffers_allocated_per_op", "count", Lower),
        // simgpu
        def("simgpu.stencil_mpts", "Mpt/s", Higher),
        def("simgpu.pack_mpts", "Mpt/s", Higher),
        def("simgpu.h2d_gbs", "GB/s", Higher),
        def("simgpu.d2h_gbs", "GB/s", Higher),
        count("simgpu.launches_per_op", "count", Lower),
        count("simgpu.pcie_points_per_op", "count", Lower),
        count("simgpu.virtual_compute_ms_per_op", "ms", Lower),
        count("simgpu.virtual_copy_ms_per_op", "ms", Lower),
        // overlap
        def("overlap.canonicalize_us", "us", Lower),
        def("overlap.exchange_us_per_step", "us", Lower),
        def("overlap.exchange_share", "ratio", Lower),
        def("overlap.orchestration_share", "ratio", Lower),
    ];
    for im in Impl::ALL {
        let slug = im.slug();
        m.push(def(&format!("overlap.{slug}.run_ms"), "ms", Lower));
        m.push(def(&format!("overlap.{slug}.step_us"), "us", Lower));
        m.push(def(&format!("overlap.{slug}.fixed_ms"), "ms", Lower));
    }
    m.extend([
        // perfmodel
        def("perfmodel.schedule_eval_us", "us", Lower),
        def("perfmodel.best_gf_sweep_ms", "ms", Lower),
        count("perfmodel.ops_per_schedule", "count", Lower),
        count("perfmodel.yona_hybrid_overlap_gf", "GF/s", Higher),
        // figures
        def("figures.all_figures_ms", "ms", Lower),
        def("figures.claims_ms", "ms", Lower),
        def("figures.render_ms", "ms", Lower),
        count("figures.claims_held", "count", Higher),
        count("figures.json_bytes", "count", Lower),
        // serve
        def("serve.start_ms", "ms", Lower),
        def("serve.shutdown_ms", "ms", Lower),
        def("serve.parse_us", "us", Lower),
        def("serve.hit_us", "us", Lower),
        def("serve.render_us", "us", Lower),
        def("serve.cold_overhead_us", "us", Lower),
        def("serve.execute_share", "ratio", Higher),
        def("serve.ping_rtt_us", "us", Lower),
        def("serve.wire_us", "us", Lower),
        def("serve.p99_ms", "ms", Lower),
        def("serve.artifact_bytes", "count", Lower),
        count("serve.cache_hit_share", "ratio", Higher),
        count("serve.executions", "count", Lower),
        def("serve.dedup_joins", "count", Lower),
        count("serve.rejects", "count", Lower),
        count("serve.timeouts", "count", Lower),
        // obs
        def("obs.trace_on_ratio", "ratio", Lower),
        def("obs.metrics_on_ratio", "ratio", Lower),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use figures::json::Value;

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_legal() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.0.to_string()))
            .collect();
        assert!(names.iter().all(|n| legal_name(n)), "{names:?}");
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate name");
        assert_eq!(per_layer().len(), 95);
        assert!(WORKLOADS.iter().all(|w| w.1.len() <= 200));
    }

    /// `BENCHMARK.json` is what the driver reads; this catalogue is what
    /// the harness prints. They must list the same things.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = Value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<Value> { v[key].as_array().expect(key).to_vec() };
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), end_to_end().len());
        for (got, want) in e2e.iter().zip(end_to_end()) {
            assert_eq!(got["name"].as_str(), Some(want.name.as_str()));
            assert_eq!(got["unit"].as_str(), Some(want.unit));
            assert_eq!(got["better"].as_str(), Some(want.better.as_str()));
            assert_eq!(got["bound"].as_f64(), want.bound, "{}", want.name);
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), per_layer().len());
        for (got, want) in layers.iter().zip(per_layer()) {
            assert_eq!(got["name"].as_str(), Some(want.name.as_str()));
            assert_eq!(got["unit"].as_str(), Some(want.unit), "{}", want.name);
            assert_eq!(got["better"].as_str(), Some(want.better.as_str()));
        }
        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(got["name"].as_str(), Some(want.0));
            assert_eq!(got["why"].as_str(), Some(want.1));
        }
        assert_eq!(v["paths"][0].as_str(), Some("benchmark"));
    }
}
