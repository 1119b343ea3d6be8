//! CI soak driver: sweep fault seeds over all nine implementations and
//! fail loudly if any run is not bit-identical to the serial oracle.
//!
//! ```text
//! chaos_soak [--seeds N] [--grid N] [--steps N] [--out PATH]
//! ```
//!
//! Exits 1 on any divergence, or when an implementation's fault
//! histograms miss a retry or a redelivery its counters saw. Writes a JSON report (default
//! `chaos_report.json`) and prints the Markdown summary to stdout.

use chaos::{soak, SoakConfig};

fn main() {
    let mut cfg = SoakConfig::sweep(32);
    let mut out = String::from("chaos_report.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seeds" => {
                let count: u64 = value("--seeds").parse().expect("--seeds: integer");
                cfg.seeds = (0..count).collect();
            }
            "--grid" => cfg.n = value("--grid").parse().expect("--grid: integer"),
            "--steps" => cfg.steps = value("--steps").parse().expect("--steps: integer"),
            "--out" => out = value("--out"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: chaos_soak [--seeds N] [--grid N] [--steps N] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let started = std::time::Instant::now();
    let report = soak(&cfg);
    let elapsed = started.elapsed();

    std::fs::write(&out, report.to_json()).unwrap_or_else(|e| panic!("write {out}: {e}"));
    print!("{}", report.to_markdown());
    println!(
        "\n{} runs in {:.1}s; report: {out}",
        report.runs,
        elapsed.as_secs_f64()
    );

    if !report.ok() {
        eprintln!(
            "chaos soak FAILED: {} of {} runs diverged from the serial oracle \
             (MISCOUNT lines above name fault histograms that missed a retry \
             or a redelivery)",
            report.mismatches.len(),
            report.runs
        );
        std::process::exit(1);
    }
}
