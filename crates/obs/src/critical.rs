//! Critical-path extraction over a rank's span stream.
//!
//! The paper's Section V-E argument is an *attribution* claim: IV-I wins
//! because MPI and PCIe time is taken **off the critical path**, not
//! because any phase got cheaper. This module makes that claim checkable
//! structurally. For one [`Trace`] and one [`Axis`] it sweeps the span
//! boundaries in time order and, in every elementary interval, charges
//! the interval to the single most-binding active span:
//!
//! * **Priority by activeness** — a rank doing work is on the critical
//!   path ahead of a rank waiting for something: compute spans
//!   (interior, veneer, kernel issue, throttle) > staging (pack/unpack)
//!   and sends > PCIe transfers > passive MPI windows (in-flight
//!   receives, waits, barriers, allreduces, fault stalls).
//! * **Latest start breaks ties** — among equally binding spans the
//!   innermost (most recently opened) wins, so a blocking `mpi.wait` is
//!   charged in preference to the enclosing `mpi.recv` in-flight window
//!   that merely brackets it.
//!
//! Summing each span's charged time per [`Category`] yields the
//! `critical_path_breakdown`; spans that were charged *nothing* are the
//! **slack** report — work fully hidden under the critical path, which
//! is exactly the overlap the paper is after (a hidden `pcie.h2d` is a
//! transfer the run got for free). Intervals where no span is active at
//! all are reported as `idle`.

use crate::{busy::fmt_seconds, Axis, Category, Resource, Trace};
use std::collections::BTreeSet;

/// Charging priority: active work binds the critical path ahead of
/// passive waiting. See the module docs for the ordering rationale.
fn priority(cat: Category) -> u8 {
    match cat.resource() {
        Resource::Compute => 4,
        Resource::Staging => 3,
        Resource::Pcie => 2,
        Resource::Mpi => match cat {
            Category::MpiSend => 3,
            _ => 1,
        },
    }
}

fn cat_index(cat: Category) -> usize {
    Category::ALL
        .iter()
        .position(|c| *c == cat)
        .expect("category in taxonomy")
}

/// Critical-path attribution of one rank's trace on one axis.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The axis analysed.
    pub axis: Axis,
    /// The rank (or `usize::MAX` for an aggregate).
    pub rank: usize,
    /// First span start to last span end, seconds.
    pub makespan: f64,
    /// Seconds inside the makespan where no span was active at all.
    pub idle: f64,
    /// Seconds charged to each category, in [`Category::ALL`] order.
    pub attributed: [f64; Category::ALL.len()],
    /// Total seconds of spans charged *nothing* — work fully hidden
    /// under the critical path, per category.
    pub slack: [f64; Category::ALL.len()],
    /// Number of fully hidden spans per category.
    pub hidden_spans: [u64; Category::ALL.len()],
    /// Spans on this axis that entered the sweep.
    pub span_count: usize,
}

impl Default for CriticalPath {
    fn default() -> Self {
        CriticalPath {
            axis: Axis::Wall,
            rank: 0,
            makespan: 0.0,
            idle: 0.0,
            attributed: [0.0; Category::ALL.len()],
            slack: [0.0; Category::ALL.len()],
            hidden_spans: [0; Category::ALL.len()],
            span_count: 0,
        }
    }
}

impl CriticalPath {
    /// Seconds the critical path spends in `cat`.
    pub fn attributed_to(&self, cat: Category) -> f64 {
        self.attributed[cat_index(cat)]
    }

    /// Seconds of `cat` spans fully hidden under the critical path.
    pub fn slack_of(&self, cat: Category) -> f64 {
        self.slack[cat_index(cat)]
    }

    /// Fully hidden span count for `cat`.
    pub fn hidden_count(&self, cat: Category) -> u64 {
        self.hidden_spans[cat_index(cat)]
    }

    /// Total charged seconds (`makespan - idle` up to rounding).
    pub fn total_attributed(&self) -> f64 {
        self.attributed.iter().sum()
    }

    /// The category holding the largest share of the critical path, if
    /// anything was charged.
    pub fn dominant(&self) -> Option<Category> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in self.attributed.iter().enumerate() {
            if v > 0.0 && best.is_none_or(|(_, bv)| v > bv) {
                best = Some((i, v));
            }
        }
        best.map(|(i, _)| Category::ALL[i])
    }

    fn absorb(&mut self, other: &CriticalPath) {
        self.makespan += other.makespan;
        self.idle += other.idle;
        self.span_count += other.span_count;
        for i in 0..Category::ALL.len() {
            self.attributed[i] += other.attributed[i];
            self.slack[i] += other.slack[i];
            self.hidden_spans[i] += other.hidden_spans[i];
        }
    }
}

/// Extract the critical path of one trace on one axis.
pub fn critical_path(trace: &Trace, axis: Axis) -> CriticalPath {
    let mut cp = CriticalPath {
        axis,
        rank: trace.rank,
        ..CriticalPath::default()
    };
    // Positive-length spans on the requested axis, as (start, end, cat).
    let items: Vec<(f64, f64, Category)> = trace
        .spans
        .iter()
        .filter_map(|s| {
            let (a, b) = s.interval_on(axis)?;
            (b > a).then_some((a, b, s.cat))
        })
        .collect();
    cp.span_count = items.len();
    if items.is_empty() {
        return cp;
    }

    // Boundary events; at equal times closes run before opens so
    // intervals are half-open and zero-length overlap charges nothing.
    let mut events: Vec<(f64, bool, usize)> = Vec::with_capacity(items.len() * 2);
    for (i, &(a, b, _)) in items.iter().enumerate() {
        events.push((a, true, i));
        events.push((b, false, i));
    }
    events.sort_by(|x, y| {
        x.0.partial_cmp(&y.0)
            .expect("finite span time")
            .then(x.1.cmp(&y.1))
    });

    // Active set ordered by (priority, start, index): `next_back` is the
    // span the elementary interval is charged to. Starts are
    // non-negative on both axes, so the IEEE bit pattern orders them.
    let mut active: BTreeSet<(u8, u64, usize)> = BTreeSet::new();
    let key = |i: usize| {
        let (start, _, cat) = items[i];
        (priority(cat), start.max(0.0).to_bits(), i)
    };
    let mut contrib = vec![0.0f64; items.len()];
    let first = events[0].0;
    let mut prev = first;
    let mut last = first;
    for &(t, open, i) in &events {
        if t > prev {
            let dt = t - prev;
            match active.iter().next_back() {
                Some(&(_, _, winner)) => contrib[winner] += dt,
                None => cp.idle += dt,
            }
            prev = t;
        }
        last = last.max(t);
        if open {
            active.insert(key(i));
        } else {
            active.remove(&key(i));
        }
    }
    cp.makespan = last - first;

    for (i, &(a, b, cat)) in items.iter().enumerate() {
        let ci = cat_index(cat);
        cp.attributed[ci] += contrib[i];
        if contrib[i] == 0.0 {
            cp.slack[ci] += b - a;
            cp.hidden_spans[ci] += 1;
        }
    }
    cp
}

/// Per-rank critical paths plus an aggregate, over a world's traces.
#[derive(Debug, Clone)]
pub struct CriticalBreakdown {
    /// The axis analysed.
    pub axis: Axis,
    /// One entry per trace, in input order.
    pub ranks: Vec<CriticalPath>,
}

impl CriticalBreakdown {
    /// Sum across ranks (`rank == usize::MAX`). Makespans add, so
    /// shares read as fractions of total per-rank critical-path time.
    pub fn aggregate(&self) -> CriticalPath {
        let mut total = CriticalPath {
            axis: self.axis,
            rank: usize::MAX,
            ..CriticalPath::default()
        };
        for r in &self.ranks {
            total.absorb(r);
        }
        total
    }

    /// Dominant category of the aggregate.
    pub fn dominant(&self) -> Option<Category> {
        self.aggregate().dominant()
    }

    /// Render the aggregate attribution table as Markdown: one row per
    /// category that was either charged or hidden, plus idle.
    pub fn render_markdown(&self) -> String {
        let agg = self.aggregate();
        let total = agg.total_attributed();
        let axis = match self.axis {
            Axis::Wall => "wall",
            Axis::Virtual => "virtual",
        };
        let mut s = String::new();
        s.push_str(&format!(
            "### Critical path ({axis} axis, {} ranks)\n\n",
            self.ranks.len()
        ));
        s.push_str("| category | critical s | share | slack s | hidden spans |\n");
        s.push_str("|---|---|---|---|---|\n");
        for (i, cat) in Category::ALL.iter().enumerate() {
            if agg.attributed[i] == 0.0 && agg.slack[i] == 0.0 {
                continue;
            }
            let share = if total > 0.0 {
                agg.attributed[i] / total * 100.0
            } else {
                0.0
            };
            s.push_str(&format!(
                "| {} | {} | {share:.1}% | {} | {} |\n",
                cat.name(),
                fmt_seconds(agg.attributed[i]),
                fmt_seconds(agg.slack[i]),
                agg.hidden_spans[i],
            ));
        }
        s.push_str(&format!(
            "| _idle_ | {} | — | — | — |\n",
            fmt_seconds(agg.idle)
        ));
        s
    }
}

/// Critical paths of every trace in a world, on one axis.
pub fn critical_path_breakdown(traces: &[Trace], axis: Axis) -> CriticalBreakdown {
    CriticalBreakdown {
        axis,
        ranks: traces.iter().map(|t| critical_path(t, axis)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;

    fn trace(spans: Vec<Span>) -> Trace {
        Trace {
            rank: 0,
            spans,
            dropped: 0,
        }
    }

    #[test]
    fn serialized_spans_are_fully_attributed_with_idle_gap() {
        let t = trace(vec![
            Span::wall(Category::ComputeInterior, "c", 0, 0, 10),
            Span::wall(Category::MpiSend, "s", 0, 20, 25),
        ]);
        let cp = critical_path(&t, Axis::Wall);
        assert!((cp.makespan - 25e-9).abs() < 1e-15);
        assert!((cp.idle - 10e-9).abs() < 1e-15);
        assert!((cp.attributed_to(Category::ComputeInterior) - 10e-9).abs() < 1e-15);
        assert!((cp.attributed_to(Category::MpiSend) - 5e-9).abs() < 1e-15);
        assert_eq!(cp.dominant(), Some(Category::ComputeInterior));
        assert!((cp.total_attributed() - (cp.makespan - cp.idle)).abs() < 1e-15);
    }

    #[test]
    fn covered_span_is_fully_slack() {
        let t = trace(vec![
            Span::wall(Category::ComputeInterior, "c", 0, 0, 100),
            Span::wall(Category::MpiRecv, "r", 0, 20, 60),
        ]);
        let cp = critical_path(&t, Axis::Wall);
        assert!((cp.attributed_to(Category::ComputeInterior) - 100e-9).abs() < 1e-15);
        assert_eq!(cp.attributed_to(Category::MpiRecv), 0.0);
        assert!((cp.slack_of(Category::MpiRecv) - 40e-9).abs() < 1e-15);
        assert_eq!(cp.hidden_count(Category::MpiRecv), 1);
        assert_eq!(cp.hidden_count(Category::ComputeInterior), 0);
    }

    #[test]
    fn wait_inside_inflight_window_wins_the_tie() {
        // Same resource/priority: the later-started (innermost) span is
        // charged, so the blocking wait beats its bracketing recv.
        let t = trace(vec![
            Span::wall(Category::MpiRecv, "inflight", 0, 0, 100),
            Span::wall(Category::MpiWait, "wait", 0, 60, 100),
        ]);
        let cp = critical_path(&t, Axis::Wall);
        assert!((cp.attributed_to(Category::MpiRecv) - 60e-9).abs() < 1e-15);
        assert!((cp.attributed_to(Category::MpiWait) - 40e-9).abs() < 1e-15);
        assert_eq!(cp.hidden_count(Category::MpiWait), 0);
    }

    #[test]
    fn active_work_outranks_passive_windows() {
        // Pack (staging) and an in-flight recv overlap: the pack is
        // charged, the recv window only gets the uncovered remainder.
        let t = trace(vec![
            Span::wall(Category::MpiRecv, "inflight", 0, 0, 100),
            Span::wall(Category::Pack, "pack", 0, 0, 40),
        ]);
        let cp = critical_path(&t, Axis::Wall);
        assert!((cp.attributed_to(Category::Pack) - 40e-9).abs() < 1e-15);
        assert!((cp.attributed_to(Category::MpiRecv) - 60e-9).abs() < 1e-15);
        // Compute outranks PCIe outranks passive MPI.
        assert!(priority(Category::ComputeInterior) > priority(Category::PcieH2d));
        assert!(priority(Category::PcieH2d) > priority(Category::MpiWait));
        assert!(priority(Category::MpiSend) > priority(Category::MpiRecv));
    }

    #[test]
    fn axes_are_analysed_independently() {
        let t = trace(vec![
            Span::wall(Category::ComputeVeneer, "v", 0, 0, 50),
            Span::virtual_span(Category::PcieH2d, "h2d", 1, 0.0, 2.0),
            Span::virtual_span(Category::ComputeInterior, "k", 0, 0.0, 5.0),
        ]);
        let wall = critical_path(&t, Axis::Wall);
        assert_eq!(wall.span_count, 1);
        assert_eq!(wall.dominant(), Some(Category::ComputeVeneer));
        let virt = critical_path(&t, Axis::Virtual);
        assert_eq!(virt.span_count, 2);
        assert!((virt.makespan - 5.0).abs() < 1e-12);
        assert_eq!(virt.dominant(), Some(Category::ComputeInterior));
        assert!((virt.slack_of(Category::PcieH2d) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_yields_zeroes() {
        let cp = critical_path(&trace(vec![]), Axis::Wall);
        assert_eq!(cp.makespan, 0.0);
        assert_eq!(cp.idle, 0.0);
        assert_eq!(cp.span_count, 0);
        assert_eq!(cp.dominant(), None);
    }

    #[test]
    fn breakdown_aggregates_and_renders() {
        let traces = vec![
            trace(vec![Span::wall(Category::ComputeInterior, "c", 0, 0, 100)]),
            trace(vec![
                Span::wall(Category::ComputeInterior, "c", 0, 0, 60),
                Span::wall(Category::PcieH2d, "x", 0, 10, 30),
            ]),
        ];
        let bd = critical_path_breakdown(&traces, Axis::Wall);
        assert_eq!(bd.ranks.len(), 2);
        let agg = bd.aggregate();
        assert!((agg.attributed_to(Category::ComputeInterior) - 160e-9).abs() < 1e-15);
        assert!((agg.slack_of(Category::PcieH2d) - 20e-9).abs() < 1e-15);
        assert_eq!(bd.dominant(), Some(Category::ComputeInterior));
        let md = bd.render_markdown();
        assert!(md.contains("| compute.interior |"));
        assert!(md.contains("| pcie.h2d |"));
        assert!(md.contains("hidden spans"));
        assert!(!md.contains("mpi.send"), "all-zero rows are dropped");
    }
}
