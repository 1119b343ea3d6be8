//! Validate flight-recorder anomaly bundles on disk.
//!
//! ```text
//! dump_check FILE_OR_DIR [FILE_OR_DIR ...]
//! ```
//!
//! For each `dump_*.json` bundle: parse it, check the required members
//! (`kind`, `seq`, `captured_at_ns`, `request_events`, `trace`,
//! `metrics`, `stats`), and run the embedded stitched trace
//! through [`obs::validate::validate_chrome_trace`]. Exits non-zero if any
//! bundle fails, or if no bundle was found at all — the CI
//! recorder-smoke job points this at the server's `--dump-dir` after
//! inducing anomalies, so "no bundles" means the trigger never fired.

use obs::json::Value;
use obs::validate::validate_chrome_trace;

fn check_bundle(path: &std::path::Path) -> Result<String, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let v = Value::parse(&body).map_err(|e| format!("parse: {e}"))?;
    let kind = v["kind"]
        .as_str()
        .ok_or("missing string member \"kind\"")?
        .to_string();
    for key in ["seq", "captured_at_ns"] {
        if !matches!(v[key], Value::Number(_)) {
            return Err(format!("missing numeric member {key:?}"));
        }
    }
    let events = v["request_events"]
        .as_array()
        .ok_or("missing array member \"request_events\"")?;
    if events.is_empty() {
        return Err("bundle has no request events".to_string());
    }
    if !matches!(v["stats"], Value::Object(_)) {
        return Err("missing object member \"stats\"".to_string());
    }
    if matches!(v["metrics"], Value::Null) {
        return Err("missing member \"metrics\"".to_string());
    }
    let trace_doc = v["trace"].to_string();
    let check = validate_chrome_trace(&trace_doc).map_err(|e| format!("trace: {e}"))?;
    Ok(format!(
        "kind={kind} events={} trace_complete={} flows={}/{}",
        events.len(),
        check.complete_events,
        check.flow_start_events,
        check.flow_finish_events
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: dump_check FILE_OR_DIR [FILE_OR_DIR ...]");
        std::process::exit(2);
    }
    let mut bundles: Vec<std::path::PathBuf> = Vec::new();
    for arg in &args {
        let path = std::path::PathBuf::from(arg);
        if path.is_dir() {
            let mut entries: Vec<_> = match std::fs::read_dir(&path) {
                Ok(rd) => rd
                    .filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.starts_with("dump_") && n.ends_with(".json"))
                    })
                    .collect(),
                Err(e) => {
                    eprintln!("dump_check: {arg}: {e}");
                    std::process::exit(2);
                }
            };
            entries.sort();
            bundles.extend(entries);
        } else {
            bundles.push(path);
        }
    }
    if bundles.is_empty() {
        eprintln!("dump_check: no bundles found — did the anomaly trigger fire?");
        std::process::exit(1);
    }
    let mut failed = 0usize;
    for path in &bundles {
        match check_bundle(path) {
            Ok(summary) => println!("dump_check: {} OK ({summary})", path.display()),
            Err(e) => {
                eprintln!("dump_check: {} FAILED: {e}", path.display());
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!("dump_check: {failed}/{} bundles failed", bundles.len());
        std::process::exit(1);
    }
    println!("dump_check: {} bundles valid", bundles.len());
}
