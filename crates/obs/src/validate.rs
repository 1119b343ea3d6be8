//! Structural validators for the two text artifacts this crate writes:
//! Chrome-trace JSON ([`crate::chrome`]: run artifacts, stitched exports,
//! anomaly bundles) and Prometheus text expositions
//! ([`crate::registry`]). The trace validator reads the document with
//! [`crate::json::Value::parse`].

use crate::json::Value;
use std::collections::BTreeSet;

/// Summary of a validated Chrome-trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCheck {
    /// Complete ("X") duration events.
    pub complete_events: usize,
    /// Metadata ("M") events.
    pub meta_events: usize,
    /// Begin ("B") events (each matched by an "E" on its track).
    pub begin_events: usize,
    /// End ("E") events.
    pub end_events: usize,
    /// Flow-start ("s") events (each matched by an "f" with the same id).
    pub flow_start_events: usize,
    /// Flow-step ("t") events.
    pub flow_step_events: usize,
    /// Flow-finish ("f") events.
    pub flow_finish_events: usize,
    /// Distinct event categories (`cat` fields) present.
    pub categories: BTreeSet<String>,
}

impl TraceCheck {
    /// Whether every category in `wanted` appears in the trace.
    pub fn has_categories(&self, wanted: &[&str]) -> bool {
        wanted.iter().all(|c| self.categories.contains(*c))
    }
}

/// Validate a Chrome-trace JSON document as `obs::chrome` emits it:
/// well-formed JSON, a `traceEvents` array, every duration event carrying
/// finite non-negative timestamps, timestamps monotone in file order
/// within each `(pid, tid)` track (the property Perfetto's importer
/// relies on for streaming loads), and "B"/"E" begin/end events properly
/// nested per track — every "E" closes the most recent open "B" of the
/// same name, and no "B" is left open at the end of the document.
///
/// Flow events ("s"/"t"/"f") are validated as chains: each carries a
/// numeric `id`; a chain starts with exactly one "s", may pass through
/// "t" steps, and must end with exactly one "f"; timestamps never
/// decrease along a chain (an arrow cannot point backwards in time); the
/// only accepted bind point is `"bp":"e"` (the exporter binds arrows to
/// slice ends). An unterminated or restarted chain is an error.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = Value::parse(text)?;
    let events = doc["traceEvents"]
        .as_array()
        .ok_or("missing traceEvents array")?;
    let mut check = TraceCheck {
        complete_events: 0,
        meta_events: 0,
        begin_events: 0,
        end_events: 0,
        flow_start_events: 0,
        flow_step_events: 0,
        flow_finish_events: 0,
        categories: BTreeSet::new(),
    };
    let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
    let mut open: std::collections::BTreeMap<(u64, u64), Vec<String>> = Default::default();
    // Per flow id: every `s`/`t`/`f` event as `(phase, ts, file index)`.
    // Chains are validated after the scan, because the export sorts all
    // events by (pid, tid, ts): an edge from a higher-pid sender to a
    // lower-pid receiver legitimately places its "f" before its "s" in
    // file order, and the Chrome trace format is order-independent.
    let mut flows: std::collections::BTreeMap<u64, Vec<(String, f64, usize)>> = Default::default();
    for (i, e) in events.iter().enumerate() {
        let ph = e["ph"].as_str().ok_or(format!("event {i}: missing ph"))?;
        if ph == "M" {
            check.meta_events += 1;
            continue;
        }
        if !matches!(ph, "X" | "B" | "E" | "s" | "t" | "f") {
            return Err(format!("event {i}: unexpected ph {ph:?}"));
        }
        let name = e["name"].as_str().ok_or(format!("event {i}: no name"))?;
        if name.is_empty() {
            return Err(format!("event {i}: empty name"));
        }
        if let Some(cat) = e["cat"].as_str() {
            check.categories.insert(cat.to_string());
        }
        let num = |k: &str| {
            e[k].as_f64()
                .filter(|v| v.is_finite())
                .ok_or(format!("event {i}: bad {k}"))
        };
        let (pid, tid) = (num("pid")? as u64, num("tid")? as u64);
        let ts = num("ts")?;
        if ts < 0.0 {
            return Err(format!("event {i}: negative ts"));
        }
        let prev = last_ts.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
        if ts < *prev {
            return Err(format!(
                "event {i}: track ({pid},{tid}) timestamps not monotone \
                 ({ts} after {prev})"
            ));
        }
        *prev = ts;
        match ph {
            "X" => {
                check.complete_events += 1;
                if num("dur")? < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
            }
            "B" => {
                check.begin_events += 1;
                open.entry((pid, tid)).or_default().push(name.to_string());
            }
            "E" => {
                check.end_events += 1;
                let stack = open.entry((pid, tid)).or_default();
                match stack.pop() {
                    None => {
                        return Err(format!(
                            "event {i}: track ({pid},{tid}) \"E\" {name:?} \
                             without an open \"B\""
                        ));
                    }
                    Some(top) if top != name => {
                        return Err(format!(
                            "event {i}: track ({pid},{tid}) \"E\" {name:?} \
                             closes mismatched \"B\" {top:?}"
                        ));
                    }
                    Some(_) => {}
                }
            }
            "s" | "t" | "f" => {
                let id = num("id")? as u64;
                if let Some(bp) = e["bp"].as_str() {
                    if bp != "e" {
                        return Err(format!("event {i}: flow {id} bad bind point {bp:?}"));
                    }
                }
                match ph {
                    "s" => check.flow_start_events += 1,
                    "f" => check.flow_finish_events += 1,
                    _ => check.flow_step_events += 1,
                }
                flows.entry(id).or_default().push((ph.to_string(), ts, i));
            }
            _ => unreachable!(),
        }
    }
    for ((pid, tid), stack) in &open {
        if let Some(name) = stack.last() {
            return Err(format!("track ({pid},{tid}): \"B\" {name:?} never closed"));
        }
    }
    for (id, chain) in &flows {
        let starts: Vec<_> = chain.iter().filter(|(ph, _, _)| ph == "s").collect();
        let finishes: Vec<_> = chain.iter().filter(|(ph, _, _)| ph == "f").collect();
        let Some(&&(_, s_ts, _)) = starts.first() else {
            let (ph, _, i) = chain.first().expect("non-empty chain");
            return Err(format!("event {i}: flow {id} {ph:?} without an \"s\""));
        };
        if let Some(&&(_, _, i)) = starts.get(1) {
            return Err(format!("event {i}: flow {id} started twice"));
        }
        let Some(&&(_, f_ts, _)) = finishes.first() else {
            return Err(format!("flow {id}: \"s\" never finished by an \"f\""));
        };
        if let Some(&&(_, _, i)) = finishes.get(1) {
            return Err(format!("event {i}: flow {id} continues after \"f\""));
        }
        for (ph, ts, i) in chain.iter() {
            let (ts, i) = (*ts, *i);
            if ts < s_ts {
                return Err(format!(
                    "event {i}: flow {id} timestamps decrease along the \
                     chain ({ts} after {s_ts})"
                ));
            }
            if ph == "t" && ts > f_ts {
                return Err(format!("event {i}: flow {id} continues after \"f\""));
            }
        }
    }
    if check.complete_events == 0 && check.begin_events == 0 {
        return Err("no duration events".into());
    }
    Ok(check)
}

/// Summary of a validated Prometheus text exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromCheck {
    /// Total sample lines.
    pub samples: usize,
    /// Families declared `# TYPE ... counter`.
    pub counters: usize,
    /// Families declared `# TYPE ... gauge`.
    pub gauges: usize,
    /// Families declared `# TYPE ... histogram`.
    pub histograms: usize,
    /// Histogram families whose `_count` total is nonzero.
    pub non_empty_histograms: usize,
}

/// Validate a Prometheus text exposition as the metrics registry renders
/// it: every sample belongs to a family with a preceding `# TYPE` line,
/// values parse as finite numbers, and each histogram's bucket series is
/// cumulative (monotone in file order, capped by its `_count`).
pub fn validate_prometheus(text: &str) -> Result<PromCheck, String> {
    let mut check = PromCheck {
        samples: 0,
        counters: 0,
        gauges: 0,
        histograms: 0,
        non_empty_histograms: 0,
    };
    let mut types: std::collections::BTreeMap<String, String> = Default::default();
    // Per histogram family: last bucket value seen, running count total.
    let mut last_bucket: std::collections::BTreeMap<String, f64> = Default::default();
    let mut hist_count: std::collections::BTreeMap<String, f64> = Default::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with("# HELP") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts.next().ok_or(format!("line {lineno}: bare TYPE"))?;
            let kind = parts
                .next()
                .ok_or(format!("line {lineno}: TYPE without kind"))?;
            match kind {
                "counter" => check.counters += 1,
                "gauge" => check.gauges += 1,
                "histogram" => check.histograms += 1,
                other => return Err(format!("line {lineno}: unknown TYPE {other:?}")),
            }
            types.insert(family.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {lineno}: unexpected comment {line:?}"));
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {lineno}: no value: {line:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {lineno}: bad value {value:?}"))?;
        if !value.is_finite() {
            return Err(format!("line {lineno}: non-finite value"));
        }
        let name = series.split('{').next().unwrap_or(series);
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| types.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        if !types.contains_key(family) {
            return Err(format!("line {lineno}: sample {name:?} has no TYPE"));
        }
        check.samples += 1;
        if types[family] == "histogram" {
            if name.ends_with("_bucket") {
                // A new label set restarts the cumulative series at its
                // first (smallest-le) bucket; within a series buckets
                // only grow.
                let prev = last_bucket.entry(family.to_string()).or_insert(0.0);
                if series.contains("le=\"+Inf\"") {
                    *prev = 0.0;
                } else {
                    if value + 1e-9 < *prev {
                        return Err(format!(
                            "line {lineno}: {family} bucket series not \
                             cumulative ({value} after {prev})"
                        ));
                    }
                    *prev = value;
                }
            } else if name.ends_with("_count") {
                *hist_count.entry(family.to_string()).or_insert(0.0) += value;
            }
        }
    }
    check.non_empty_histograms = hist_count.values().filter(|&&c| c > 0.0).count();
    if check.samples == 0 {
        return Err("no samples".into());
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, Span, Trace};

    fn sample() -> String {
        let t = Trace {
            rank: 0,
            spans: vec![
                Span::wall(Category::MpiSend, "halo", 1, 0, 500),
                Span::wall(Category::ComputeInterior, "", 1, 600, 2_000),
                Span::virtual_span(Category::PcieH2d, "ring", 1, 0.0, 0.25),
            ],
            dropped: 0,
        };
        crate::chrome::chrome_trace(&[t])
    }

    #[test]
    fn validates_exporter_output() {
        let check = validate_chrome_trace(&sample()).expect("valid");
        assert_eq!(check.complete_events, 3);
        assert!(check.meta_events >= 1);
        assert!(check.has_categories(&["mpi.send", "compute.interior", "pcie.h2d"]));
        assert!(!check.has_categories(&["mpi.recv"]));
    }

    #[test]
    fn rejects_garbage_and_non_monotone_tracks() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        let bad = r#"{"traceEvents":[
            {"name":"a","cat":"c","ph":"X","pid":0,"tid":1,"ts":5.0,"dur":1.0},
            {"name":"b","cat":"c","ph":"X","pid":0,"tid":1,"ts":2.0,"dur":1.0}
        ]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("monotone"), "{err}");
        // Same timestamps on different tracks are fine.
        let ok = r#"{"traceEvents":[
            {"name":"a","cat":"c","ph":"X","pid":0,"tid":1,"ts":5.0,"dur":1.0},
            {"name":"b","cat":"c","ph":"X","pid":0,"tid":2,"ts":2.0,"dur":1.0}
        ]}"#;
        assert!(validate_chrome_trace(ok).is_ok());
    }

    #[test]
    fn validates_begin_end_pairing() {
        let ok = r#"{"traceEvents":[
            {"name":"outer","cat":"c","ph":"B","pid":0,"tid":1,"ts":1.0},
            {"name":"inner","cat":"c","ph":"B","pid":0,"tid":1,"ts":2.0},
            {"name":"inner","cat":"c","ph":"E","pid":0,"tid":1,"ts":3.0},
            {"name":"outer","cat":"c","ph":"E","pid":0,"tid":1,"ts":4.0}
        ]}"#;
        let check = validate_chrome_trace(ok).expect("nested B/E valid");
        assert_eq!(check.begin_events, 2);
        assert_eq!(check.end_events, 2);

        // The same names interleaved across tracks: stacks are per-track.
        let cross = r#"{"traceEvents":[
            {"name":"s","cat":"c","ph":"B","pid":0,"tid":1,"ts":1.0},
            {"name":"s","cat":"c","ph":"B","pid":0,"tid":2,"ts":1.5},
            {"name":"s","cat":"c","ph":"E","pid":0,"tid":1,"ts":2.0},
            {"name":"s","cat":"c","ph":"E","pid":0,"tid":2,"ts":2.5}
        ]}"#;
        assert!(validate_chrome_trace(cross).is_ok());
    }

    #[test]
    fn rejects_broken_begin_end_fixtures() {
        // E without a B.
        let orphan = r#"{"traceEvents":[
            {"name":"s","cat":"c","ph":"E","pid":0,"tid":1,"ts":1.0}
        ]}"#;
        let err = validate_chrome_trace(orphan).unwrap_err();
        assert!(err.contains("without an open"), "{err}");

        // E closing the wrong B (improper interleaving on one track).
        let crossed = r#"{"traceEvents":[
            {"name":"a","cat":"c","ph":"B","pid":0,"tid":1,"ts":1.0},
            {"name":"b","cat":"c","ph":"B","pid":0,"tid":1,"ts":2.0},
            {"name":"a","cat":"c","ph":"E","pid":0,"tid":1,"ts":3.0}
        ]}"#;
        let err = validate_chrome_trace(crossed).unwrap_err();
        assert!(err.contains("mismatched"), "{err}");

        // B never closed.
        let unclosed = r#"{"traceEvents":[
            {"name":"a","cat":"c","ph":"B","pid":0,"tid":1,"ts":1.0}
        ]}"#;
        let err = validate_chrome_trace(unclosed).unwrap_err();
        assert!(err.contains("never closed"), "{err}");

        // B/E timestamps share the per-track monotonicity requirement.
        let backwards = r#"{"traceEvents":[
            {"name":"a","cat":"c","ph":"B","pid":0,"tid":1,"ts":5.0},
            {"name":"a","cat":"c","ph":"E","pid":0,"tid":1,"ts":4.0}
        ]}"#;
        let err = validate_chrome_trace(backwards).unwrap_err();
        assert!(err.contains("monotone"), "{err}");
    }

    #[test]
    fn validates_flow_chains() {
        let ok = r#"{"traceEvents":[
            {"name":"x","cat":"c","ph":"X","pid":0,"tid":1,"ts":1.0,"dur":4.0},
            {"name":"msg","cat":"flow","ph":"s","id":1,"pid":0,"tid":1,"ts":1.0},
            {"name":"msg","cat":"flow","ph":"t","id":1,"pid":1,"tid":1,"ts":2.0},
            {"name":"msg","cat":"flow","ph":"f","bp":"e","id":1,"pid":2,"tid":1,"ts":3.0},
            {"name":"msg","cat":"flow","ph":"s","id":2,"pid":0,"tid":1,"ts":4.0},
            {"name":"msg","cat":"flow","ph":"f","bp":"e","id":2,"pid":1,"tid":1,"ts":5.0}
        ]}"#;
        let check = validate_chrome_trace(ok).expect("valid flows");
        assert_eq!(check.flow_start_events, 2);
        assert_eq!(check.flow_step_events, 1);
        assert_eq!(check.flow_finish_events, 2);
    }

    #[test]
    fn validates_exporter_flow_output() {
        let t0 = Trace {
            rank: 0,
            spans: vec![Span::channel(Category::MpiSend, "send", 1, 0, 500, 1, 7, 0)],
            dropped: 0,
        };
        let t1 = Trace {
            rank: 1,
            spans: vec![Span::channel(
                Category::MpiWait,
                "wait",
                1,
                100,
                900,
                0,
                7,
                0,
            )],
            dropped: 0,
        };
        let check = validate_chrome_trace(&crate::chrome::chrome_trace(&[t0, t1])).expect("valid");
        assert_eq!(check.flow_start_events, 1);
        assert_eq!(check.flow_finish_events, 1);
        assert!(check.has_categories(&["flow"]));
    }

    #[test]
    fn rejects_broken_flow_fixtures() {
        // "f" with an id no "s" started.
        let orphan = r#"{"traceEvents":[
            {"name":"x","cat":"c","ph":"X","pid":0,"tid":1,"ts":0.0,"dur":1.0},
            {"name":"msg","cat":"flow","ph":"f","bp":"e","id":9,"pid":0,"tid":1,"ts":1.0}
        ]}"#;
        let err = validate_chrome_trace(orphan).unwrap_err();
        assert!(err.contains("without an \"s\""), "{err}");

        // Flow id started twice.
        let dup = r#"{"traceEvents":[
            {"name":"x","cat":"c","ph":"X","pid":0,"tid":1,"ts":0.0,"dur":1.0},
            {"name":"msg","cat":"flow","ph":"s","id":1,"pid":0,"tid":1,"ts":1.0},
            {"name":"msg","cat":"flow","ph":"s","id":1,"pid":1,"tid":1,"ts":2.0},
            {"name":"msg","cat":"flow","ph":"f","bp":"e","id":1,"pid":1,"tid":1,"ts":3.0}
        ]}"#;
        let err = validate_chrome_trace(dup).unwrap_err();
        assert!(err.contains("started twice"), "{err}");

        // Timestamps decreasing along the chain (arrow pointing backwards).
        let backwards = r#"{"traceEvents":[
            {"name":"x","cat":"c","ph":"X","pid":0,"tid":1,"ts":0.0,"dur":9.0},
            {"name":"msg","cat":"flow","ph":"s","id":1,"pid":0,"tid":1,"ts":5.0},
            {"name":"msg","cat":"flow","ph":"f","bp":"e","id":1,"pid":1,"tid":1,"ts":4.0}
        ]}"#;
        let err = validate_chrome_trace(backwards).unwrap_err();
        assert!(err.contains("decrease along the chain"), "{err}");

        // "s" never finished.
        let unterminated = r#"{"traceEvents":[
            {"name":"x","cat":"c","ph":"X","pid":0,"tid":1,"ts":0.0,"dur":1.0},
            {"name":"msg","cat":"flow","ph":"s","id":1,"pid":0,"tid":1,"ts":1.0}
        ]}"#;
        let err = validate_chrome_trace(unterminated).unwrap_err();
        assert!(err.contains("never finished"), "{err}");

        // Chain continuing after its "f".
        let after_f = r#"{"traceEvents":[
            {"name":"x","cat":"c","ph":"X","pid":0,"tid":1,"ts":0.0,"dur":9.0},
            {"name":"msg","cat":"flow","ph":"s","id":1,"pid":0,"tid":1,"ts":1.0},
            {"name":"msg","cat":"flow","ph":"f","bp":"e","id":1,"pid":1,"tid":1,"ts":2.0},
            {"name":"msg","cat":"flow","ph":"t","id":1,"pid":1,"tid":1,"ts":3.0}
        ]}"#;
        let err = validate_chrome_trace(after_f).unwrap_err();
        assert!(err.contains("after \"f\""), "{err}");

        // Only end binding is accepted.
        let bad_bp = r#"{"traceEvents":[
            {"name":"x","cat":"c","ph":"X","pid":0,"tid":1,"ts":0.0,"dur":9.0},
            {"name":"msg","cat":"flow","ph":"s","id":1,"pid":0,"tid":1,"ts":1.0},
            {"name":"msg","cat":"flow","ph":"f","bp":"b","id":1,"pid":1,"tid":1,"ts":2.0}
        ]}"#;
        let err = validate_chrome_trace(bad_bp).unwrap_err();
        assert!(err.contains("bad bind point"), "{err}");

        // A flow event without an id is malformed.
        let no_id = r#"{"traceEvents":[
            {"name":"x","cat":"c","ph":"X","pid":0,"tid":1,"ts":0.0,"dur":1.0},
            {"name":"msg","cat":"flow","ph":"s","pid":0,"tid":1,"ts":1.0}
        ]}"#;
        let err = validate_chrome_trace(no_id).unwrap_err();
        assert!(err.contains("bad id"), "{err}");
    }

    #[test]
    fn validates_registry_prometheus_output() {
        let m = crate::registry::Metrics::on();
        let c = m.counter("advect_test_total", "help", &[("rank", "0".into())]);
        c.add(3);
        let g = m.gauge("advect_test_pending", "help", &[]);
        g.set(-2);
        let h = m.histogram("advect_test_ns", "help", &[("rank", "1".into())]);
        for v in [5u64, 90, 4000, 4100] {
            h.observe(v);
        }
        let empty = m.histogram("advect_idle_ns", "help", &[]);
        let _ = empty;
        let text = m.render_prometheus();
        let check = validate_prometheus(&text).expect("valid exposition");
        assert_eq!(check.counters, 1);
        assert_eq!(check.gauges, 1);
        assert_eq!(check.histograms, 2);
        assert_eq!(check.non_empty_histograms, 1);
        assert!(check.samples >= 6);
    }

    #[test]
    fn rejects_malformed_prometheus() {
        assert!(validate_prometheus("").is_err());
        let no_type = "advect_x_total 3\n";
        let err = validate_prometheus(no_type).unwrap_err();
        assert!(err.contains("no TYPE"), "{err}");
        let non_cumulative = "\
# TYPE advect_h_ns histogram
advect_h_ns_bucket{le=\"1\"} 5
advect_h_ns_bucket{le=\"2\"} 3
";
        let err = validate_prometheus(non_cumulative).unwrap_err();
        assert!(err.contains("cumulative"), "{err}");
        let bad_value = "# TYPE advect_c_total counter\nadvect_c_total abc\n";
        assert!(validate_prometheus(bad_value).is_err());
    }
}
