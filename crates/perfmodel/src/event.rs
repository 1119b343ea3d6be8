//! A small discrete-event engine for composing per-step schedules.
//!
//! Each implementation's time step is a DAG of operations bound to
//! resources (GPU compute engine, PCIe copy engines, the NIC, the CPU
//! team). An operation starts when its dependencies have finished *and*
//! its resource is free; the step time is the makespan. This is how the
//! GPU-implementation models express "what overlaps what" without ad-hoc
//! `max()` algebra: bulk-synchronous scheduling chains everything on one
//! stream, the overlap implementations split the chains exactly as the
//! functional code in the `overlap` crate does.

/// Resources an operation can occupy. Operations on the same resource
/// serialize in submission order; `None` operations only wait for their
/// dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Res {
    /// The GPU's kernel engine.
    GpuCompute,
    /// PCIe host-to-device DMA engine.
    CopyH2D,
    /// PCIe device-to-host DMA engine (same as H2D when the part has one
    /// engine; the caller picks).
    CopyD2H,
    /// The node's network interface.
    Nic,
    /// The CPU thread team.
    Cpu,
    /// Pure dependency node (no resource).
    None,
}

/// Identifier of a scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpId(usize);

/// One operation: a duration on a resource after some dependencies.
#[derive(Debug, Clone)]
struct Op {
    dur: f64,
    res: Res,
    /// Phase tag (`"mpi"`, `"interior"`, …) for timeline export; `""`
    /// for untagged ops.
    tag: &'static str,
    deps: Vec<OpId>,
    start: f64,
    end: f64,
}

/// A per-step schedule under construction.
#[derive(Debug, Default)]
pub struct Schedule {
    ops: Vec<Op>,
    res_free: std::collections::HashMap<Res, f64>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an operation; returns its id. Operations are scheduled eagerly
    /// in submission order (list scheduling): start = max(resource free,
    /// dependencies' end).
    pub fn add(&mut self, res: Res, dur: f64, deps: &[OpId]) -> OpId {
        self.add_tagged(res, "", dur, deps)
    }

    /// Like [`Schedule::add`], carrying a phase tag the timeline export
    /// ([`Schedule::ops`]) preserves.
    pub fn add_tagged(&mut self, res: Res, tag: &'static str, dur: f64, deps: &[OpId]) -> OpId {
        assert!(dur >= 0.0, "durations must be non-negative");
        let dep_end = deps
            .iter()
            .map(|d| self.ops[d.0].end)
            .fold(0.0f64, f64::max);
        let res_free = if res == Res::None {
            0.0
        } else {
            *self.res_free.get(&res).unwrap_or(&0.0)
        };
        let start = dep_end.max(res_free);
        let end = start + dur;
        if res != Res::None {
            self.res_free.insert(res, end);
        }
        self.ops.push(Op {
            dur,
            res,
            tag,
            deps: deps.to_vec(),
            start,
            end,
        });
        OpId(self.ops.len() - 1)
    }

    /// The scheduled timeline: `(resource, tag, start, end)` per op, in
    /// submission order. This is the export the model-vs-measured
    /// divergence report aligns against real traces.
    pub fn ops(&self) -> Vec<(Res, &'static str, f64, f64)> {
        self.ops
            .iter()
            .map(|o| (o.res, o.tag, o.start, o.end))
            .collect()
    }

    /// Convenience: a chain of dependent operations on one resource.
    pub fn chain(&mut self, res: Res, durs: &[f64], mut after: Option<OpId>) -> Option<OpId> {
        for &d in durs {
            let deps: Vec<OpId> = after.into_iter().collect();
            after = Some(self.add(res, d, &deps));
        }
        after
    }

    /// Completion time of an operation.
    pub fn end_of(&self, id: OpId) -> f64 {
        self.ops[id.0].end
    }

    /// Makespan: when the last operation finishes.
    pub fn makespan(&self) -> f64 {
        self.ops.iter().map(|o| o.end).fold(0.0, f64::max)
    }

    /// Total busy time of a resource (for utilization reports).
    pub fn busy(&self, res: Res) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.res == res)
            .map(|o| o.dur)
            .sum()
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Validate internal consistency (each op starts no earlier than its
    /// deps end; resource serialization holds). Used by property tests.
    pub fn validate(&self) -> bool {
        let mut last_on: std::collections::HashMap<Res, f64> = Default::default();
        for op in &self.ops {
            for d in &op.deps {
                if self.ops[d.0].end > op.start + 1e-15 {
                    return false;
                }
            }
            if op.res != Res::None {
                let prev = *last_on.get(&op.res).unwrap_or(&0.0);
                if prev > op.start + 1e-15 {
                    return false;
                }
                last_on.insert(op.res, op.end);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_ops_on_different_resources_overlap() {
        let mut s = Schedule::new();
        s.add(Res::GpuCompute, 10.0, &[]);
        s.add(Res::CopyH2D, 7.0, &[]);
        assert_eq!(s.makespan(), 10.0);
        assert!(s.validate());
    }

    #[test]
    fn same_resource_serializes() {
        let mut s = Schedule::new();
        s.add(Res::GpuCompute, 10.0, &[]);
        s.add(Res::GpuCompute, 7.0, &[]);
        assert_eq!(s.makespan(), 17.0);
    }

    #[test]
    fn dependencies_are_honored() {
        let mut s = Schedule::new();
        let a = s.add(Res::CopyD2H, 5.0, &[]);
        let b = s.add(Res::Nic, 3.0, &[a]);
        let c = s.add(Res::CopyH2D, 2.0, &[b]);
        assert_eq!(s.end_of(c), 10.0);
        assert!(s.validate());
    }

    #[test]
    fn chain_builds_serial_pipeline() {
        let mut s = Schedule::new();
        let end = s.chain(Res::Cpu, &[1.0, 2.0, 3.0], None).unwrap();
        assert_eq!(s.end_of(end), 6.0);
    }

    #[test]
    fn overlap_vs_serial_schedules_differ() {
        // The essence of the paper: the same operations, chained vs split.
        let durs = [4.0f64, 6.0, 5.0];
        let mut serial = Schedule::new();
        let k = serial.add(Res::GpuCompute, 10.0, &[]);
        let d = serial.add(Res::CopyD2H, durs[0], &[k]);
        let n = serial.add(Res::Nic, durs[1], &[d]);
        serial.add(Res::CopyH2D, durs[2], &[n]);
        assert_eq!(serial.makespan(), 25.0);

        let mut overlapped = Schedule::new();
        overlapped.add(Res::GpuCompute, 10.0, &[]);
        let d = overlapped.add(Res::CopyD2H, durs[0], &[]);
        let n = overlapped.add(Res::Nic, durs[1], &[d]);
        overlapped.add(Res::CopyH2D, durs[2], &[n]);
        assert_eq!(overlapped.makespan(), 15.0);
    }

    #[test]
    fn tagged_ops_export_the_timeline() {
        let mut s = Schedule::new();
        let a = s.add_tagged(Res::Nic, "mpi", 3.0, &[]);
        s.add_tagged(Res::Cpu, "wall", 2.0, &[a]);
        let ops = s.ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0], (Res::Nic, "mpi", 0.0, 3.0));
        assert_eq!(ops[1], (Res::Cpu, "wall", 3.0, 5.0));
        // Untagged adds carry the empty tag.
        s.add(Res::Cpu, 1.0, &[]);
        assert_eq!(s.ops()[2].1, "");
    }

    #[test]
    fn busy_time_accumulates_per_resource() {
        let mut s = Schedule::new();
        s.add(Res::Nic, 1.0, &[]);
        s.add(Res::Nic, 2.0, &[]);
        s.add(Res::Cpu, 4.0, &[]);
        assert_eq!(s.busy(Res::Nic), 3.0);
        assert_eq!(s.busy(Res::Cpu), 4.0);
    }
}
