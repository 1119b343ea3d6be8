//! The span summary: the tracer sink behind a metered run's histograms.
//!
//! Every series the substrates report is a duration of a span they
//! already record, so the span-to-series mapping lives here, once,
//! instead of as a second hook inside `simmpi` and `simgpu`:
//!
//! | series | span |
//! |---|---|
//! | `advect_mpi_wait_ns{rank,src}` | wall `mpi.wait`, by peer |
//! | `advect_mpi_recv_latency_ns{rank,src}` | wall `mpi.recv`, by peer |
//! | `advect_fault_stall_ns{rank}` | wall `fault.stall` |
//! | `advect_fault_redeliver_latency_ns{rank}` | wall `fault.redeliver` |
//! | `advect_gpu_kernel_ns{rank}` | virtual `compute.interior` / `pack` / `unpack` |
//! | `advect_pcie_transfer_ns{rank,dir}` | virtual `pcie.h2d` / `pcie.d2h` |
//!
//! Wall spans of the other categories are not summarised, so a tracer
//! whose only sink is a summary skips them before reading the clock
//! ([`summarises_wall`]).

use crate::registry::{Histogram, Metrics};
use crate::{Axis, Category, Span};

/// One rank's pre-registered histogram handles; observing a span is a
/// category match and one lock-free histogram update.
pub(crate) struct SpanSummary {
    wait: Vec<Histogram>,
    recv_latency: Vec<Histogram>,
    stall: Histogram,
    redeliver: Histogram,
    kernel: Histogram,
    h2d: Histogram,
    d2h: Histogram,
}

/// Whether a wall span of `cat` feeds a series.
pub(crate) fn summarises_wall(cat: Category) -> bool {
    matches!(
        cat,
        Category::MpiWait | Category::MpiRecv | Category::FaultStall | Category::FaultRedeliver
    )
}

impl SpanSummary {
    /// Register rank `rank`'s series in `registry`; the per-source
    /// series cover a world of `size` ranks.
    pub(crate) fn new(registry: &Metrics, rank: usize, size: usize) -> Self {
        let rank = rank.to_string();
        let one = |name, help| registry.histogram(name, help, &[("rank", rank.clone())]);
        let per_src = |name, help| -> Vec<Histogram> {
            (0..size)
                .map(|src| {
                    let labels = [("rank", rank.clone()), ("src", src.to_string())];
                    registry.histogram(name, help, &labels)
                })
                .collect()
        };
        let transfer = |dir: &str| {
            registry.histogram(
                "advect_pcie_transfer_ns",
                "Scheduled PCIe transfer duration on the virtual timeline, nanoseconds",
                &[("rank", rank.clone()), ("dir", dir.to_string())],
            )
        };
        SpanSummary {
            wait: per_src(
                "advect_mpi_wait_ns",
                "Blocked time completing a receive, nanoseconds, per source rank",
            ),
            recv_latency: per_src(
                "advect_mpi_recv_latency_ns",
                "Receive latency from post to completion, nanoseconds, per source rank",
            ),
            stall: one(
                "advect_fault_stall_ns",
                "Duration of each bounded-wait expiry before the message arrived, nanoseconds",
            ),
            redeliver: one(
                "advect_fault_redeliver_latency_ns",
                "Total wait of receives that completed via redelivery, nanoseconds",
            ),
            kernel: one(
                "advect_gpu_kernel_ns",
                "Scheduled kernel duration on the virtual timeline, nanoseconds",
            ),
            h2d: transfer("h2d"),
            d2h: transfer("d2h"),
        }
    }

    /// Put a finished span's duration into its series (if it has one).
    pub(crate) fn observe(&self, s: &Span) {
        let series = match (s.axis, s.cat) {
            (Axis::Wall, Category::MpiWait) => self.wait.get(s.peer as usize),
            (Axis::Wall, Category::MpiRecv) => self.recv_latency.get(s.peer as usize),
            (Axis::Wall, Category::FaultStall) => Some(&self.stall),
            (Axis::Wall, Category::FaultRedeliver) => Some(&self.redeliver),
            (Axis::Virtual, Category::ComputeInterior | Category::Pack | Category::Unpack) => {
                Some(&self.kernel)
            }
            (Axis::Virtual, Category::PcieH2d) => Some(&self.h2d),
            (Axis::Virtual, Category::PcieD2h) => Some(&self.d2h),
            _ => None,
        };
        if let Some(h) = series {
            h.observe(match s.axis {
                Axis::Wall => s.wall_end_ns.saturating_sub(s.wall_start_ns),
                Axis::Virtual => (s.seconds() * 1e9) as u64,
            });
        }
    }
}
