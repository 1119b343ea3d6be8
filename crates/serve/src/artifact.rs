//! Response artifact rendering.
//!
//! One execution renders exactly one artifact string, which is what the
//! cache stores and every deduplicated waiter receives — byte-identity
//! for identical [`RunKey`]s falls out of rendering once, not of the
//! run being replayed deterministically (span timestamps and latency
//! histograms carry wall-clock values that differ across executions).
//!
//! The artifact is a JSON object: the canonicalized request echo, an
//! FNV-1a checksum over the final state's interior bits (the compact
//! stand-in for shipping the full field), deterministic comm/GPU
//! counters, and — when requested — the Prometheus metrics text and the
//! Chrome trace document.

use figures::json;
use obs::chrome::chrome_trace;
use overlap::runner::RunReport;
use overlap::RunKey;

/// FNV-1a over the interior values' bit patterns, in interior iteration
/// order. Bit-exact: two runs agree iff their states are bit-identical.
pub fn state_checksum(state: &advect_core::field::Field3) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (x, y, z) in state.interior_range().iter() {
        for byte in state.at(x, y, z).to_bits().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Execute `key` and render its artifact. This is the unit of work a
/// server worker runs; everything downstream (cache, waiters, the wire)
/// sees only the returned string.
pub fn render(key: &RunKey) -> String {
    execute_render(key).0
}

/// Execute `key`, render its artifact, and also hand back the run
/// report so the caller (the worker loop) can feed the flight recorder:
/// the report carries the run's traces and the straggler verdict
/// without a second execution.
pub fn execute_render(key: &RunKey) -> (String, RunReport) {
    let (state, report) = key.execute();
    let artifact = render_report(key, &state, &report);
    (artifact, report)
}

fn render_report(key: &RunKey, state: &advect_core::field::Field3, report: &RunReport) -> String {
    let mut out = String::with_capacity(512);
    out.push('{');
    out.push_str(&format!(
        "\"impl\":{},\"section\":{},\"grid\":{},\"steps\":{},\"tasks\":{},\"threads\":{},\"machine\":{}",
        json::escape(key.implementation().slug()),
        json::escape(key.implementation().section()),
        key.grid(),
        key.steps(),
        key.tasks(),
        key.threads(),
        json::escape(key.machine().name()),
    ));
    match key.fault_seed() {
        Some(seed) => out.push_str(&format!(",\"fault_seed\":{seed}")),
        None => out.push_str(",\"fault_seed\":null"),
    }
    out.push_str(&format!(",\"checksum\":\"{:016x}\"", state_checksum(state)));
    out.push_str(&format!(
        ",\"messages\":{},\"values_sent\":{}",
        report.total_messages(),
        report.total_values_sent()
    ));
    if key.implementation().uses_gpu() {
        let stencil: u64 = report.gpu.iter().map(|g| g.stencil_launches).sum();
        let h2d: u64 = report.gpu.iter().map(|g| g.h2d_points).sum();
        let d2h: u64 = report.gpu.iter().map(|g| g.d2h_points).sum();
        out.push_str(&format!(
            ",\"gpu\":{{\"stencil_launches\":{stencil},\"h2d_points\":{h2d},\"d2h_points\":{d2h}}}"
        ));
    } else {
        out.push_str(",\"gpu\":null");
    }
    if key.metrics() {
        out.push_str(&format!(
            ",\"metrics_prometheus\":{}",
            json::escape(&report.metrics.render_prometheus())
        ));
    }
    if key.trace() {
        // chrome_trace emits a complete JSON document; embed it raw.
        out.push_str(&format!(",\"trace\":{}", chrome_trace(&report.traces)));
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{validate_chrome_trace, validate_prometheus};
    use figures::json::Value;
    use overlap::{Impl, RunLimits, RunParams};

    #[test]
    fn artifact_is_valid_json_with_deterministic_checksum() {
        let key = RunParams {
            impl_slug: "bulk_sync".into(),
            grid: 10,
            steps: 2,
            tasks: 2,
            ..RunParams::default()
        }
        .canonicalize(&RunLimits::default())
        .unwrap();
        let a = render(&key);
        let b = render(&key);
        let va = Value::parse(&a).expect("artifact parses");
        let vb = Value::parse(&b).expect("artifact parses");
        assert_eq!(va["checksum"], vb["checksum"], "checksum must be pure");
        assert_eq!(va["messages"], vb["messages"]);
        assert_eq!(va["impl"], "bulk_sync");
        assert_eq!(va["gpu"], Value::Null);
    }

    #[test]
    fn trace_and_metrics_artifacts_embed_and_parse() {
        for slug in Impl::ALL.map(|i| i.slug()) {
            let key = RunParams {
                impl_slug: slug.into(),
                grid: 10,
                steps: 2,
                tasks: 2,
                trace: true,
                metrics: true,
                ..RunParams::default()
            }
            .canonicalize(&RunLimits::default())
            .unwrap();
            let a = render(&key);
            let v = Value::parse(&a).expect("artifact parses");
            let trace = validate_chrome_trace(&v["trace"].to_string())
                .unwrap_or_else(|e| panic!("{slug}: trace: {e}"));
            assert!(trace.complete_events >= 1, "{slug}: {trace:?}");
            let prom = v["metrics_prometheus"].as_str().expect("metrics text");
            let metrics =
                validate_prometheus(prom).unwrap_or_else(|e| panic!("{slug}: metrics: {e}"));
            assert!(metrics.non_empty_histograms >= 1, "{slug}: {metrics:?}");
        }
    }
}
