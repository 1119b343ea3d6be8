//! A small discrete-event engine for composing per-step schedules.
//!
//! Each implementation's time step is a DAG of operations bound to
//! resources (GPU compute engine, PCIe copy engines, the NIC); CPU work
//! is a resource-free op that only waits for its dependencies. An
//! operation starts when its dependencies have finished *and* its
//! resource is free; the step time is the makespan. This is how the
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
    /// Pure dependency node (no resource).
    None,
}

/// Identifier of a scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpId(usize);

/// One scheduled operation: its resource, dependencies and window.
#[derive(Debug, Clone)]
struct Op {
    res: Res,
    deps: Vec<OpId>,
    start: f64,
    end: f64,
}

/// A per-step schedule under construction.
#[derive(Debug, Default)]
pub struct Schedule {
    ops: Vec<Op>,
    /// When each resource is next free, indexed by `Res`; `None`, the
    /// last variant, has no slot.
    res_free: [f64; 4],
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
        assert!(dur >= 0.0, "durations must be non-negative");
        let dep_end = deps
            .iter()
            .map(|d| self.ops[d.0].end)
            .fold(0.0f64, f64::max);
        let free = self.res_free.get_mut(res as usize);
        let start = dep_end.max(free.as_deref().copied().unwrap_or(0.0));
        let end = start + dur;
        if let Some(free) = free {
            *free = end;
        }
        self.ops.push(Op {
            res,
            deps: deps.to_vec(),
            start,
            end,
        });
        OpId(self.ops.len() - 1)
    }

    /// Makespan: when the last operation finishes.
    pub fn makespan(&self) -> f64 {
        self.ops.iter().map(|o| o.end).fold(0.0, f64::max)
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
        s.add(Res::CopyH2D, 2.0, &[b]);
        assert_eq!(s.makespan(), 10.0);
        assert!(s.validate());
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
}
