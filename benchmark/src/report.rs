//! `all` and `repeat`: run every workload in a child process of its own
//! (untraced pass, then the traced pass), gather the result lines, and
//! print every metric by name with its unit, direction and bound. A
//! fresh process per workload is what makes `peak_rss_mb` the
//! workload's own and keeps one workload's warm caches out of the next.

use crate::catalog::{self, MetricDef};
use crate::host::Fingerprint;
use crate::stats::relative_spread;
use figures::json::Value;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// One pass's result line, parsed back.
#[derive(Debug, Clone)]
pub struct Pass {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Catalogue order.
    metrics: Vec<(MetricDef, f64)>,
}

/// Both passes of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    name: &'static str,
    untraced: Pass,
    traced: Pass,
}

impl WorkloadResult {
    /// Both passes checked every output and found nothing wrong.
    pub fn correct(&self) -> bool {
        self.untraced.correct && self.traced.correct
    }
}

fn parse_pass(line: &str, defs: Vec<MetricDef>) -> Result<Pass, String> {
    let v = Value::parse(line).map_err(|e| format!("result line is not JSON ({e}): {line}"))?;
    let metrics = defs
        .into_iter()
        .map(|def| {
            let value = v["metrics"][def.name.as_str()]["value"]
                .as_f64()
                .ok_or(format!("result line lacks {}", def.name))?;
            Ok((def, value))
        })
        .collect::<Result<_, String>>()?;
    Ok(Pass {
        correct: v["correct"]
            .as_bool()
            .ok_or("result line lacks `correct`")?,
        attempted: v["attempted"]
            .as_f64()
            .ok_or("result line lacks `attempted`")? as u64,
        failed: v["failed"].as_f64().ok_or("result line lacks `failed`")? as u64,
        metrics,
    })
}

/// Run one pass of one workload in a child process and parse its last
/// line. The child's table goes to our standard error as it is printed.
fn child_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("{workload}: cannot start the child process: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: child printed no result line"))?;
    let defs = if trace {
        catalog::per_layer()
    } else {
        catalog::end_to_end()
    };
    parse_pass(line, defs)
}

/// Run all six workloads `sets` times, set after set, on this binary.
pub fn run_sets(
    sets: usize,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out_dir: &Path,
) -> Result<Vec<Vec<WorkloadResult>>, String> {
    let host = Fingerprint::read();
    println!("host: {}", host.to_json());
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join("host.json"), host.to_json() + "\n"))
        .map_err(|e| format!("writing {}: {e}", out_dir.display()))?;
    let mut all = Vec::with_capacity(sets);
    for set in 0..sets {
        let mut results = Vec::new();
        for (name, _) in catalog::WORKLOADS {
            eprintln!("--- set {} of {sets}: {name}", set + 1);
            results.push(WorkloadResult {
                name,
                untraced: child_pass(name, seed, seconds, false, smoke)?,
                traced: child_pass(name, seed, seconds, true, smoke)?,
            });
        }
        all.push(results);
    }
    Ok(all)
}

fn clients(workload: &str) -> usize {
    if workload.starts_with("serve_") {
        crate::serve_load::CLIENTS
    } else {
        1
    }
}

/// The full report of one set: per workload, every end-to-end metric
/// (untraced pass) and every per-layer metric (traced pass).
pub fn render_set(set: &[WorkloadResult]) -> String {
    let mut out = String::new();
    for (w, (_, why)) in set.iter().zip(catalog::WORKLOADS) {
        let _ = writeln!(
            out,
            "\n== {} — closed loop, {} client(s) — {}\n   why: {why}",
            w.name,
            clients(w.name),
            if w.correct() { "correct" } else { "INCORRECT" },
        );
        let _ = writeln!(
            out,
            "   untraced pass: {} ops, {} failed (fail_share {})",
            w.untraced.attempted,
            w.untraced.failed,
            w.untraced.failed as f64 / w.untraced.attempted.max(1) as f64
        );
        for (def, v) in &w.untraced.metrics {
            let _ = writeln!(
                out,
                "   {:<44} {:>16.6} {:<6} {} is better, may worsen by {}",
                def.name,
                v,
                def.unit,
                def.better.as_str(),
                def.bound.unwrap_or(0.0)
            );
        }
        let _ = writeln!(
            out,
            "   traced pass: {} ops, {} failed",
            w.traced.attempted, w.traced.failed
        );
        for (def, v) in &w.traced.metrics {
            let _ = writeln!(
                out,
                "   {:<44} {:>16.6} {:<6} {} is better{}",
                def.name,
                v,
                def.unit,
                def.better.as_str(),
                if def.counter { " (count)" } else { "" }
            );
        }
    }
    out.push_str("\nclaim: null (this benchmark defines the baseline; it claims no gain)\n");
    out
}

/// The agreement report of several sets: per end-to-end metric its
/// spread across sets beside its bound, and every deterministic count
/// that did not repeat. Returns the text and the number of breaches.
pub fn render_repeat(sets: &[Vec<WorkloadResult>]) -> (String, usize) {
    let mut out = String::new();
    let mut breaches = 0;
    let _ = writeln!(
        out,
        "\n{} sets on one binary: spread = (max − min) ÷ median of the sets' values",
        sets.len()
    );
    for (i, (name, _)) in catalog::WORKLOADS.iter().enumerate() {
        let runs: Vec<&WorkloadResult> = sets.iter().map(|s| &s[i]).collect();
        let _ = writeln!(out, "\n== {name}");
        if let Some(bad) = runs.iter().position(|r| !r.correct()) {
            breaches += 1;
            let _ = writeln!(out, "   BREACH: set {} was not correct", bad + 1);
        }
        for (m, def) in catalog::end_to_end().iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r.untraced.metrics[m].1).collect();
            let spread = relative_spread(&values);
            let bound = def.bound.unwrap_or(0.0);
            let breach = spread > bound;
            breaches += breach as usize;
            let _ = writeln!(
                out,
                "   {:<14} spread {:>8.4}  bound {:<5} suggested bound {:<8.4} {}  values {:?}",
                def.name,
                spread,
                bound,
                bound.max(2.0 * spread),
                if breach { "BREACH" } else { "ok" },
                values
            );
        }
        for (m, def) in catalog::per_layer().iter().enumerate() {
            if !def.counter {
                continue;
            }
            let values: Vec<f64> = runs.iter().map(|r| r.traced.metrics[m].1).collect();
            if values.iter().any(|v| *v != values[0]) {
                breaches += 1;
                let _ = writeln!(
                    out,
                    "   BREACH: count {} did not repeat: {:?}",
                    def.name, values
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "\n{breaches} breach(es); every deterministic count {}",
        if breaches == 0 {
            "repeated exactly"
        } else {
            "and bound is listed above"
        }
    );
    (out, breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(defs: Vec<MetricDef>, value: impl Fn(&MetricDef) -> f64) -> Pass {
        Pass {
            correct: true,
            attempted: 100,
            failed: 0,
            metrics: defs
                .into_iter()
                .map(|d| (value(&d), d))
                .map(|(v, d)| (d, v))
                .collect(),
        }
    }

    fn set(solve_ms: f64, samples: f64) -> Vec<WorkloadResult> {
        catalog::WORKLOADS
            .iter()
            .map(|(name, _)| WorkloadResult {
                name,
                untraced: pass(catalog::end_to_end(), |d| {
                    if d.name == "solve_ms" {
                        solve_ms
                    } else {
                        1.0
                    }
                }),
                traced: pass(catalog::per_layer(), |d| {
                    if d.name == "harness.samples" {
                        samples
                    } else {
                        2.0
                    }
                }),
            })
            .collect()
    }

    #[test]
    fn result_lines_round_trip() {
        let line = "{\"correct\":true,\"attempted\":12,\"failed\":1,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\"solve_ms\":{\"value\":1.25,\"unit\":\"ms\"},\"p90_ms\":{\"value\":2,\"unit\":\"ms\"},\"ops_per_s\":{\"value\":800,\"unit\":\"1/s\"},\"peak_rss_mb\":{\"value\":30.5,\"unit\":\"MiB\"}}}";
        let p = parse_pass(line, catalog::end_to_end()).unwrap();
        assert_eq!((p.correct, p.attempted, p.failed), (true, 12, 1));
        assert_eq!(p.metrics[1].1, 1.25);
        assert!(parse_pass("{\"correct\":true}", catalog::end_to_end()).is_err());
    }

    #[test]
    fn repeat_flags_spread_past_the_bound_and_counts_that_move() {
        let (_, breaches) = render_repeat(&[set(10.0, 40.0), set(10.5, 40.0)]);
        assert_eq!(breaches, 0, "5 % spread is inside solve_ms's bound");
        let (text, breaches) = render_repeat(&[set(10.0, 40.0), set(14.0, 40.0)]);
        assert_eq!(breaches, 6, "one breach per workload:\n{text}");
        let (text, breaches) = render_repeat(&[set(10.0, 40.0), set(10.0, 41.0)]);
        assert_eq!(breaches, 6);
        assert!(text.contains("harness.samples did not repeat"), "{text}");
        assert!(render_set(&set(1.0, 1.0)).contains("closed loop, 2 client(s)"));
    }
}
