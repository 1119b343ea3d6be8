//! Host last-level-cache size, read from sysfs.
//!
//! [`host_llc_bytes`] is this module's one export: the benchmark
//! harness records it in its host fingerprint and sizes its
//! larger-than-cache probes from it. The module is named `numa` because
//! that harness calls `advect_core::numa::host_llc_bytes` and its
//! sources are frozen between `[benchmark]` PRs.

use std::path::Path;
use std::sync::OnceLock;

/// Fallback last-level-cache size when sysfs is unreadable: 32 MiB, a
/// conservative contemporary server share.
const FALLBACK_LLC_BYTES: usize = 32 * 1024 * 1024;

/// Detected last-level-cache size in bytes (the largest data/unified
/// cache sysfs reports for cpu0), or a 32 MiB fallback.
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
    fn cache_size_parsing() {
        assert_eq!(parse_cache_size("2048K"), Some(2 * 1024 * 1024));
        assert_eq!(parse_cache_size("32M"), Some(32 * 1024 * 1024));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("xK"), None);
    }

    #[test]
    fn llc_detection_has_a_floor() {
        assert!(host_llc_bytes() >= 1024);
    }
}
