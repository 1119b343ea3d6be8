//! Busy time over a span stream: interval unions, pairwise overlap, and
//! the per-rank phase table.
//!
//! The paper's overlap argument (Section V-E) is a statement about
//! *concurrency between resources*: during an advection step, how much of
//! the MPI in-flight time runs while compute is busy, and how much of the
//! PCIe transfer time runs while the GPU computes. These functions reduce
//! a [`Trace`] to exactly that: per-resource busy time (interval union),
//! pairwise concurrent time (union intersection), and an efficiency ratio
//! normalised by the scarcer resource. [`phase_breakdown`] answers the
//! paper's "where does a step spend its time" question with the same
//! unions, per category and rank.

use crate::{Axis, Category, Resource, Span, Trace};

/// Merge a set of `(start, end)` intervals into a disjoint, sorted union.
pub fn merge_intervals(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of a disjoint, sorted interval union.
pub fn union_seconds(iv: &[(f64, f64)]) -> f64 {
    iv.iter().map(|(s, e)| e - s).sum()
}

/// Intersection of two disjoint, sorted interval unions.
pub fn intersect(a: &[(f64, f64)], b: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if e > s {
            out.push((s, e));
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// The busy-interval union of one resource on one axis.
pub fn busy_intervals(spans: &[Span], resource: Resource, axis: Axis) -> Vec<(f64, f64)> {
    merge_intervals(
        spans
            .iter()
            .filter(|s| s.cat.resource() == resource)
            .filter_map(|s| s.interval_on(axis))
            .collect(),
    )
}

/// Measured concurrency between two resources on one rank.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairOverlap {
    /// Busy seconds of the first resource (union of its spans).
    pub busy_a: f64,
    /// Busy seconds of the second resource.
    pub busy_b: f64,
    /// Seconds during which both resources were busy simultaneously.
    pub both: f64,
    /// Span of the union of both resources (first start to last end).
    pub makespan: f64,
}

impl PairOverlap {
    /// Fraction of the scarcer resource's busy time that overlapped the
    /// other resource: 1.0 means the cheaper activity was fully hidden,
    /// 0.0 means strictly serialised. Zero when either side is idle.
    pub fn efficiency(&self) -> f64 {
        let scarcer = self.busy_a.min(self.busy_b);
        if scarcer <= 0.0 {
            0.0
        } else {
            self.both / scarcer
        }
    }

    /// Combined busy-time / makespan utilisation of the pair
    /// (Σ busy / makespan, >1.0 exactly when the resources overlap).
    pub fn utilization(&self) -> f64 {
        if self.makespan <= 0.0 {
            0.0
        } else {
            (self.busy_a + self.busy_b) / self.makespan
        }
    }

    /// Accumulate another rank's measurement into this one (makespan
    /// takes the max — ranks run concurrently).
    pub fn accumulate(&mut self, other: &PairOverlap) {
        self.busy_a += other.busy_a;
        self.busy_b += other.busy_b;
        self.both += other.both;
        self.makespan = self.makespan.max(other.makespan);
    }
}

/// Measure the concurrency between two resources in one rank's trace, on
/// the given axis.
pub fn pair_overlap(trace: &Trace, a: Resource, b: Resource, axis: Axis) -> PairOverlap {
    let ia = busy_intervals(&trace.spans, a, axis);
    let ib = busy_intervals(&trace.spans, b, axis);
    let both = union_seconds(&intersect(&ia, &ib));
    let all = merge_intervals(ia.iter().chain(ib.iter()).copied().collect());
    let makespan = match (all.first(), all.last()) {
        (Some(first), Some(last)) => last.1 - first.0,
        _ => 0.0,
    };
    PairOverlap {
        busy_a: union_seconds(&ia),
        busy_b: union_seconds(&ib),
        both,
        makespan,
    }
}

/// Aggregate [`pair_overlap`] over a set of per-rank traces.
pub fn pair_overlap_all(traces: &[Trace], a: Resource, b: Resource, axis: Axis) -> PairOverlap {
    let mut total = PairOverlap::default();
    for t in traces {
        total.accumulate(&pair_overlap(t, a, b, axis));
    }
    total
}

/// Busy seconds per category for one rank.
#[derive(Debug, Clone)]
pub struct RankBreakdown {
    /// The rank this row describes.
    pub rank: usize,
    /// Busy seconds, indexed in [`Category::ALL`] order.
    pub seconds: [f64; Category::ALL.len()],
}

impl RankBreakdown {
    /// Busy seconds for one category.
    pub fn get(&self, cat: Category) -> f64 {
        let idx = Category::ALL.iter().position(|c| *c == cat).unwrap();
        self.seconds[idx]
    }

    /// Sum over all categories (not a makespan — resources may overlap).
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }
}

/// The full table: one row per rank plus an aggregate.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Which clock the table was computed on.
    pub axis: Axis,
    /// Per-rank rows, in rank order.
    pub ranks: Vec<RankBreakdown>,
}

impl Breakdown {
    /// Column-wise sum over ranks.
    pub fn aggregate(&self) -> RankBreakdown {
        let mut agg = RankBreakdown {
            rank: usize::MAX,
            seconds: [0.0; Category::ALL.len()],
        };
        for row in &self.ranks {
            for (a, s) in agg.seconds.iter_mut().zip(row.seconds.iter()) {
                *a += s;
            }
        }
        agg
    }

    /// Render as a GitHub-flavoured markdown table; categories with no
    /// time anywhere are omitted to keep the table readable.
    pub fn render_markdown(&self) -> String {
        let agg = self.aggregate();
        let cols: Vec<usize> = (0..Category::ALL.len())
            .filter(|&i| agg.seconds[i] > 0.0)
            .collect();
        let row = |label: String, r: &RankBreakdown| {
            let cells: String = cols
                .iter()
                .map(|&i| format!(" {} |", fmt_seconds(r.seconds[i])))
                .collect();
            format!("| {label} |{cells} {} |\n", fmt_seconds(r.total()))
        };
        let names: String = cols
            .iter()
            .map(|&i| format!(" {} |", Category::ALL[i].name()))
            .collect();
        let mut out = format!(
            "| rank |{names} total |\n|---|{}---|\n",
            "---|".repeat(cols.len())
        );
        for r in &self.ranks {
            out.push_str(&row(r.rank.to_string(), r));
        }
        out.push_str(&row("**all**".into(), &agg));
        out
    }
}

/// Compute the per-category busy time for each rank on one axis.
pub fn phase_breakdown(traces: &[Trace], axis: Axis) -> Breakdown {
    let ranks = traces
        .iter()
        .map(|t| {
            let seconds = Category::ALL.map(|cat| {
                let spans = t.spans.iter().filter(|s| s.cat == cat);
                union_seconds(&merge_intervals(
                    spans.filter_map(|s| s.interval_on(axis)).collect(),
                ))
            });
            RankBreakdown {
                rank: t.rank,
                seconds,
            }
        })
        .collect();
    Breakdown { axis, ranks }
}

/// Seconds with a unit that keeps small values readable, shared by the
/// phase and critical-path tables.
pub(crate) fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_handles_overlaps_and_zero_length() {
        let m = merge_intervals(vec![(0.0, 1.0), (0.5, 2.0), (3.0, 3.0), (4.0, 5.0)]);
        assert_eq!(m, vec![(0.0, 2.0), (4.0, 5.0)]);
        assert!((union_seconds(&m) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn intersect_finds_common_windows() {
        let a = vec![(0.0, 2.0), (4.0, 6.0)];
        let b = vec![(1.0, 5.0)];
        assert_eq!(intersect(&a, &b), vec![(1.0, 2.0), (4.0, 5.0)]);
    }

    fn trace_with(spans: Vec<Span>) -> Trace {
        Trace {
            rank: 0,
            spans,
            dropped: 0,
        }
    }

    #[test]
    fn serialized_resources_have_zero_efficiency() {
        let t = trace_with(vec![
            Span::wall(Category::MpiRecv, "r", 0, 0, 1_000),
            Span::wall(Category::ComputeInterior, "c", 0, 1_000, 3_000),
        ]);
        let ov = pair_overlap(&t, Resource::Mpi, Resource::Compute, Axis::Wall);
        assert_eq!(ov.both, 0.0);
        assert_eq!(ov.efficiency(), 0.0);
        assert!((ov.makespan - 3e-6).abs() < 1e-12);
    }

    #[test]
    fn fully_hidden_comm_has_unit_efficiency() {
        let t = trace_with(vec![
            Span::wall(Category::MpiRecv, "r", 0, 1_000, 2_000),
            Span::wall(Category::ComputeInterior, "c", 1, 0, 4_000),
        ]);
        let ov = pair_overlap(&t, Resource::Mpi, Resource::Compute, Axis::Wall);
        assert!((ov.efficiency() - 1.0).abs() < 1e-12);
        assert!(ov.utilization() > 1.0);
    }

    #[test]
    fn virtual_axis_ignores_wall_spans() {
        let t = trace_with(vec![
            Span::wall(Category::PcieH2d, "h", 0, 0, 1_000),
            Span::virtual_span(Category::PcieH2d, "h", 0, 0.0, 1.0),
            Span::virtual_span(Category::ComputeInterior, "k", 1, 0.5, 2.0),
        ]);
        let ov = pair_overlap(&t, Resource::Pcie, Resource::Compute, Axis::Virtual);
        assert!((ov.busy_a - 1.0).abs() < 1e-12);
        assert!((ov.both - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accumulate_sums_busy_and_maxes_makespan() {
        let mut a = PairOverlap {
            busy_a: 1.0,
            busy_b: 2.0,
            both: 0.5,
            makespan: 3.0,
        };
        a.accumulate(&PairOverlap {
            busy_a: 1.0,
            busy_b: 1.0,
            both: 1.0,
            makespan: 2.0,
        });
        assert_eq!(a.busy_a, 2.0);
        assert_eq!(a.both, 1.5);
        assert_eq!(a.makespan, 3.0);
    }

    #[test]
    fn empty_trace_yields_finite_zeroes() {
        let p = pair_overlap(
            &trace_with(vec![]),
            Resource::Compute,
            Resource::Mpi,
            Axis::Wall,
        );
        assert_eq!(p.busy_a, 0.0);
        assert_eq!(p.busy_b, 0.0);
        assert_eq!(p.both, 0.0);
        assert_eq!(p.makespan, 0.0);
        // Zero busy / zero makespan must degrade to 0.0, never NaN.
        assert_eq!(p.efficiency(), 0.0);
        assert_eq!(p.utilization(), 0.0);
        let all = pair_overlap_all(&[], Resource::Compute, Resource::Mpi, Axis::Wall);
        assert_eq!(all.efficiency(), 0.0);
        assert_eq!(all.utilization(), 0.0);
    }

    #[test]
    fn one_sided_busy_time_keeps_ratios_finite() {
        // Compute busy, MPI never active: the scarcer resource has zero
        // busy time, so efficiency is 0.0 by definition (not 0/0).
        let t = trace_with(vec![Span::wall(Category::ComputeInterior, "c", 0, 0, 100)]);
        let p = pair_overlap(&t, Resource::Compute, Resource::Mpi, Axis::Wall);
        assert!(p.busy_a > 0.0);
        assert_eq!(p.busy_b, 0.0);
        assert_eq!(p.efficiency(), 0.0);
        assert!(p.efficiency().is_finite());
        assert!((p.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accumulate_over_mixed_axis_inputs() {
        // A wall-axis pair and a virtual-axis pair accumulate into one
        // report without poisoning each other's ratios.
        let wall = trace_with(vec![
            Span::wall(Category::ComputeInterior, "c", 0, 0, 100),
            Span::wall(Category::MpiSend, "s", 0, 50, 150),
        ]);
        let virt = trace_with(vec![
            Span::virtual_span(Category::ComputeInterior, "k", 0, 0.0, 4.0),
            Span::virtual_span(Category::PcieH2d, "x", 1, 1.0, 2.0),
        ]);
        let mut acc = pair_overlap(&wall, Resource::Compute, Resource::Mpi, Axis::Wall);
        acc.accumulate(&pair_overlap(
            &virt,
            Resource::Compute,
            Resource::Pcie,
            Axis::Virtual,
        ));
        assert!((acc.busy_a - (100e-9 + 4.0)).abs() < 1e-9);
        assert!((acc.both - (50e-9 + 1.0)).abs() < 1e-9);
        assert!(acc.makespan >= 4.0);
        assert!(acc.efficiency() > 0.0 && acc.efficiency() <= 1.0);
        assert!(acc.utilization() > 1.0, "overlapping pair exceeds 1.0");
        assert!(acc.utilization().is_finite());
        // Accumulating an all-zero report is the identity.
        let before = (acc.busy_a, acc.busy_b, acc.both, acc.makespan);
        acc.accumulate(&PairOverlap::default());
        assert_eq!(before, (acc.busy_a, acc.busy_b, acc.both, acc.makespan));
    }

    #[test]
    fn breakdown_unions_within_category_and_sums_across_ranks() {
        let t0 = Trace {
            rank: 0,
            spans: vec![
                Span::wall(Category::MpiSend, "s", 0, 0, 2_000),
                Span::wall(Category::MpiSend, "s", 0, 1_000, 3_000),
                Span::wall(Category::ComputeInterior, "c", 0, 0, 5_000),
            ],
            dropped: 0,
        };
        let t1 = Trace {
            rank: 1,
            spans: vec![Span::wall(Category::ComputeInterior, "c", 0, 0, 1_000)],
            dropped: 0,
        };
        let b = phase_breakdown(&[t0, t1], Axis::Wall);
        assert!((b.ranks[0].get(Category::MpiSend) - 3e-6).abs() < 1e-15);
        let agg = b.aggregate();
        assert!((agg.get(Category::ComputeInterior) - 6e-6).abs() < 1e-15);
        let md = b.render_markdown();
        assert!(md.contains("mpi.send"));
        assert!(md.contains("compute.interior"));
        // Idle categories are dropped from the table.
        assert!(!md.contains("pcie.h2d"));
        assert!(md.contains("**all**"));
    }
}
