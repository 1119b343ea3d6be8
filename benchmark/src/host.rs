//! What the harness knows about the machine and about itself: the
//! refusal rules that keep it from measuring a different program, the
//! host fingerprint printed beside every report, `/proc` readers for
//! CPU steal and peak resident memory.

use std::path::Path;

/// Every environment knob that silently changes the program's hot path.
/// The harness refuses to time anything while one is set.
pub const ADVECT_KNOBS: [&str; 6] = [
    "ADVECT_SWEEP_THREADS",
    "ADVECT_SIMD",
    "ADVECT_TILE",
    "ADVECT_TIME_TILE",
    "ADVECT_NUMA",
    "ADVECT_SWEEP_AFFINITY",
];

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Why this process must not produce timings, if it must not: a debug
/// build, or an `ADVECT_*` variable in the environment (the named knobs
/// and any other with that prefix). `env` is the environment to inspect.
pub fn refusal(debug_build: bool, env: impl Iterator<Item = String>) -> Option<String> {
    if debug_build {
        return Some(
            "built with debug_assertions: build with --release, a debug build is a different program"
                .to_string(),
        );
    }
    let set: Vec<String> = env.filter(|k| k.starts_with("ADVECT_")).collect();
    if !set.is_empty() {
        return Some(format!(
            "{} set in the environment: {} all change the hot path; unset them",
            set.join(", "),
            ADVECT_KNOBS.join("/")
        ));
    }
    None
}

/// Cumulative `(steal, total)` jiffies from the aggregate `cpu` line of
/// `/proc/stat`; `None` off Linux or on a malformed file.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    parse_cpu_line(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn parse_cpu_line(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // the guest columns are already inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of CPU time the hypervisor withheld between two readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The machine and build a report was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Cores available to this process.
    pub nproc: usize,
    /// Last-level cache the program's own detection reports, bytes.
    pub llc_bytes: usize,
    /// `rustc --version` of the toolchain on `PATH` (the build's).
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside one.
    pub git_commit: String,
}

impl Fingerprint {
    /// Read the fingerprint. `rustc` and `git` are asked through their
    /// own executables, from the harness's source directory; a missing
    /// one (or a checkout that is not a repository) yields `unknown`,
    /// never an error.
    pub fn read() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let ask = |program: &str, args: &[&str]| -> String {
            std::process::Command::new(program)
                .args(args)
                .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")))
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Self {
            cpu_model,
            nproc: nproc(),
            llc_bytes: advect_core::numa::host_llc_bytes(),
            rustc: ask("rustc", &["--version"]),
            git_commit: ask("git", &["rev-parse", "HEAD"]),
        }
    }

    /// One JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu_model\":{},\"nproc\":{},\"llc_bytes\":{},\"rustc\":{},\"git_commit\":{}}}",
            figures::json::escape(&self.cpu_model),
            self.nproc,
            self.llc_bytes,
            figures::json::escape(&self.rustc),
            figures::json::escape(&self.git_commit),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_debug_builds_and_advect_knobs() {
        assert!(refusal(true, std::iter::empty()).unwrap().contains("debug"));
        let env = ["PATH", "ADVECT_TILE", "HOME"].map(String::from);
        let why = refusal(false, env.into_iter()).unwrap();
        assert!(why.contains("ADVECT_TILE"), "{why}");
        let clean = ["PATH", "CARGO_TARGET_DIR"].map(String::from);
        assert_eq!(refusal(false, clean.into_iter()), None);
    }

    #[test]
    fn parses_proc_stat_and_status() {
        let stat = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_cpu_line(stat), Some((35, 1000)));
        assert!((steal_share(Some((35, 1000)), Some((45, 1100))) - 0.1).abs() < 1e-12);
        assert_eq!(steal_share(None, Some((1, 2))), 0.0);
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
    }
}
