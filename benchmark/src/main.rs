//! The repository's benchmark: six workloads, each in a process of its
//! own, measured from outside the program through its public functions.
//!
//! ```text
//! advect-benchmark all [--seed N] [--seconds S] [--smoke]
//! advect-benchmark repeat [--sets N] [--seed N] [--seconds S]
//! advect-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last form is what `BENCHMARK.json`'s command reaches and what
//! `all` spawns per workload: one pass over one workload, whose last
//! line on standard output is the JSON result. See `README.md`.

mod catalog;
mod direct;
mod host;
mod probes;
mod report;
mod run;
mod serve_load;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Exit code of a refusal to measure (debug build, `ADVECT_*` set,
/// fewer than two cores) or of a bad command line.
const REFUSED: u8 = 2;

/// Where span files, fingerprints and reports go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sets: usize,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        sets: 2,
    };
    let mut args = args.peekable();
    if args.peek().is_some_and(|a| !a.starts_with("--")) {
        parsed.command = args.next();
    }
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs a value ({what})"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds: expected a number in (0, 60]")?
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--sets" => {
                parsed.sets = value("a count")?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 2)
                    .ok_or("--sets: expected an integer of at least 2")?
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("advect-benchmark: {e}");
            eprintln!(
                "usage: advect-benchmark all|repeat [--sets N] [--seed N] [--seconds S] [--smoke]"
            );
            eprintln!("       advect-benchmark --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(REFUSED);
        }
    };
    if let Some(why) = host::refusal(
        cfg!(debug_assertions),
        std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()),
    ) {
        eprintln!("advect-benchmark: refusing to measure: {why}");
        return ExitCode::from(REFUSED);
    }
    let oversubscribed = host::nproc() < 2;
    if oversubscribed {
        eprintln!(
            "advect-benchmark: oversubscribed: {} core available, the workloads run 2 threads; \
             wall-clock metrics are omitted, counts only",
            host::nproc()
        );
    }
    match (args.command.as_deref(), &args.workload) {
        (None, Some(workload)) => {
            let opts = run::Options {
                workload: workload.clone(),
                seed: args.seed,
                seconds: args.seconds,
                // Counts come from the traced pass.
                trace: args.trace || oversubscribed,
                smoke: args.smoke,
            };
            match run::run(&opts, &out_dir()) {
                Ok(mut outcome) => {
                    if oversubscribed {
                        outcome.metrics.retain(|(def, _)| def.counter);
                        eprint!("{}", run::render_table(workload, &outcome));
                        return ExitCode::from(REFUSED);
                    }
                    eprint!("{}", run::render_table(workload, &outcome));
                    println!("{}", outcome.to_json_line());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("advect-benchmark: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        (Some(command @ ("all" | "repeat")), None) if !oversubscribed => {
            let sets = if command == "repeat" { args.sets } else { 1 };
            match report::run_sets(sets, args.seed, args.seconds, args.smoke, &out_dir()) {
                Ok(sets) => {
                    let clean = if command == "repeat" {
                        let (text, breaches) = report::render_repeat(&sets);
                        print!("{text}");
                        breaches == 0
                    } else {
                        print!("{}", report::render_set(&sets[0]));
                        sets[0].iter().all(|w| w.correct())
                    };
                    if clean {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("advect-benchmark: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        (Some("all" | "repeat"), None) => ExitCode::from(REFUSED),
        _ => {
            eprintln!("advect-benchmark: give either `all`, `repeat`, or --workload NAME");
            ExitCode::from(REFUSED)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload serve_hot --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_hot"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(a.command.is_none());
        let a = args("repeat --sets 5").unwrap();
        assert_eq!(
            (a.command.as_deref(), a.sets, a.seed),
            (Some("repeat"), 5, 1)
        );
        assert!(args("all --smoke").unwrap().smoke);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seconds 61").is_err());
        assert!(args("--sets 1").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--frobnicate").is_err());
    }
}
