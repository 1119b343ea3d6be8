//! Host NUMA topology and memory-placement policy.
//!
//! The modeled machines in the `machine` crate carry Table II NUMA
//! *parameters*; this module detects the topology of the machine the
//! code actually runs on, from sysfs (`/sys/devices/system/node`). Its
//! consumer is [`crate::field::Field3::new_placed`], which zero-fills
//! each z-slab of a new allocation from the team thread that will sweep
//! it (first-touch placement) instead of mapping every page on the
//! allocating thread's node. Threads are not pinned: a crew worker is
//! leased to different team slots over its life, so the scheduler's
//! placement is left alone.
//!
//! On single-node hosts detection reports one node holding every cpu
//! and parallel zero-fill is placement-neutral.
//!
//! The `ADVECT_NUMA=on|off` override (default on) gates first-touch
//! placement; malformed values panic rather than silently falling back,
//! like every `ADVECT_*` knob since PR 7.

use std::path::Path;
use std::sync::OnceLock;

/// Fallback last-level-cache size when sysfs is unreadable: 32 MiB, a
/// conservative contemporary server share.
const FALLBACK_LLC_BYTES: usize = 32 * 1024 * 1024;

/// The host's NUMA node layout: which cpu ids live on which node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaTopology {
    /// Sorted cpu ids per node, nodes in id order. Never empty; every
    /// node holds at least one cpu.
    pub nodes: Vec<Vec<usize>>,
}

impl NumaTopology {
    /// Detect the host topology from sysfs, falling back to a single
    /// node holding every schedulable cpu when sysfs is unavailable
    /// (non-Linux, sandboxes).
    pub fn detect() -> NumaTopology {
        Self::from_sysfs(Path::new("/sys/devices/system/node"))
            .unwrap_or_else(|| Self::single_node(available_cpus()))
    }

    /// A trivial topology: one node with cpus `0..cpus`.
    pub fn single_node(cpus: usize) -> NumaTopology {
        NumaTopology {
            nodes: vec![(0..cpus.max(1)).collect()],
        }
    }

    /// Parse `node<k>/cpulist` files under a sysfs-style root.
    fn from_sysfs(root: &Path) -> Option<NumaTopology> {
        let mut nodes: Vec<(usize, Vec<usize>)> = Vec::new();
        for entry in std::fs::read_dir(root).ok()? {
            let entry = entry.ok()?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(id) = name
                .strip_prefix("node")
                .and_then(|r| r.parse::<usize>().ok())
            else {
                continue;
            };
            let list = std::fs::read_to_string(entry.path().join("cpulist")).ok()?;
            let cpus = parse_cpu_list(list.trim())?;
            if !cpus.is_empty() {
                nodes.push((id, cpus));
            }
        }
        if nodes.is_empty() {
            return None;
        }
        nodes.sort_by_key(|(id, _)| *id);
        Some(NumaTopology {
            nodes: nodes.into_iter().map(|(_, cpus)| cpus).collect(),
        })
    }

    /// Number of NUMA nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Cpus on the largest node (the "cores per node" a bench snapshot
    /// records; nodes are symmetric on every machine we care about).
    pub fn cores_per_node(&self) -> usize {
        self.nodes.iter().map(|n| n.len()).max().unwrap_or(1)
    }

    /// Total cpus across all nodes.
    pub fn total_cpus(&self) -> usize {
        self.nodes.iter().map(|n| n.len()).sum()
    }
}

/// The process-wide detected host topology.
pub fn host() -> &'static NumaTopology {
    static HOST: OnceLock<NumaTopology> = OnceLock::new();
    HOST.get_or_init(NumaTopology::detect)
}

/// Parse a sysfs cpulist like `0-3,8,10-11` into sorted cpu ids.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    if list.is_empty() {
        return Some(cpus);
    }
    for part in list.split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => {
                let (lo, hi) = (lo.trim().parse().ok()?, hi.trim().parse::<usize>().ok()?);
                if hi < lo {
                    return None;
                }
                cpus.extend(lo..=hi);
            }
            None => cpus.push(part.trim().parse().ok()?),
        }
    }
    cpus.sort_unstable();
    cpus.dedup();
    Some(cpus)
}

fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parse an `ADVECT_NUMA` value: `1|on|true` enables first-touch
/// placement, `0|off|false` disables it; anything else is an error.
pub fn parse_enabled(v: &str) -> Result<bool, String> {
    match v {
        "1" | "on" | "true" => Ok(true),
        "0" | "off" | "false" => Ok(false),
        other => Err(format!(
            "ADVECT_NUMA={other:?}: expected one of 1|on|true|0|off|false"
        )),
    }
}

/// Whether first-touch placement is enabled (`ADVECT_NUMA`, default on).
///
/// # Panics
///
/// On a malformed `ADVECT_NUMA` value — a mistyped knob must fail the
/// run, not silently measure the default configuration.
pub fn placement_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| match std::env::var("ADVECT_NUMA") {
        Ok(v) => parse_enabled(&v).unwrap_or_else(|e| panic!("{e}")),
        Err(_) => true,
    })
}

/// Detected last-level-cache size in bytes (the largest data/unified
/// cache sysfs reports for cpu0), or a 32 MiB fallback. Feeds the
/// temporal-blocking tile heuristic and the bench's larger-than-LLC
/// grid choice.
pub fn host_llc_bytes() -> usize {
    static LLC: OnceLock<usize> = OnceLock::new();
    *LLC.get_or_init(|| {
        llc_from_sysfs(Path::new("/sys/devices/system/cpu/cpu0/cache"))
            .unwrap_or(FALLBACK_LLC_BYTES)
    })
}

fn llc_from_sysfs(root: &Path) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None; // (level, bytes)
    for entry in std::fs::read_dir(root).ok()? {
        let entry = entry.ok()?;
        let path = entry.path();
        let read = |f: &str| std::fs::read_to_string(path.join(f));
        let Ok(kind) = read("type") else { continue };
        if kind.trim() == "Instruction" {
            continue;
        }
        let level: usize = read("level").ok()?.trim().parse().ok()?;
        let bytes = parse_cache_size(read("size").ok()?.trim())?;
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Parse a sysfs cache size like `2048K` or `32M` into bytes.
fn parse_cache_size(s: &str) -> Option<usize> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1024),
        b'M' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.trim().parse::<usize>().ok().map(|v| v * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_yields_a_usable_topology() {
        let t = host();
        assert!(t.node_count() >= 1);
        assert!(t.cores_per_node() >= 1);
        assert_eq!(
            t.total_cpus(),
            t.nodes.iter().map(|n| n.len()).sum::<usize>()
        );
        assert!(t.nodes.iter().all(|n| !n.is_empty()));
    }

    #[test]
    fn cpu_list_parsing() {
        assert_eq!(parse_cpu_list("0-3"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_cpu_list("0-1,4,6-7"), Some(vec![0, 1, 4, 6, 7]));
        assert_eq!(parse_cpu_list("2"), Some(vec![2]));
        assert_eq!(parse_cpu_list(""), Some(vec![]));
        assert_eq!(parse_cpu_list("3-1"), None);
        assert_eq!(parse_cpu_list("a-b"), None);
    }

    #[test]
    fn cache_size_parsing() {
        assert_eq!(parse_cache_size("2048K"), Some(2 * 1024 * 1024));
        assert_eq!(parse_cache_size("32M"), Some(32 * 1024 * 1024));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("xK"), None);
    }

    #[test]
    fn enabled_parse_is_strict() {
        assert_eq!(parse_enabled("1"), Ok(true));
        assert_eq!(parse_enabled("on"), Ok(true));
        assert_eq!(parse_enabled("false"), Ok(false));
        assert!(parse_enabled("yes").is_err());
        assert!(parse_enabled("").is_err());
    }

    #[test]
    fn llc_detection_has_a_floor() {
        assert!(host_llc_bytes() >= 1024);
    }
}
