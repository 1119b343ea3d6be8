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
//!
//! Tasks sharing a node run the same ops, so a [`Task`] records one
//! task's ops once and [`Task::replay`] adds them for each task through
//! [`Schedule::add`], the one way to add an op. Nothing here allocates.

/// Resources an operation can occupy. Operations on the same resource
/// serialize in submission order; `None` operations only wait for their
/// dependencies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
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
    #[default]
    None,
}

/// A scheduled operation, as its dependents see it: when it ends.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpId {
    /// Virtual time at which the operation finishes.
    pub end: f64,
}

/// A per-step schedule under construction. It keeps no list of ops:
/// each op's end travels in its [`OpId`], so adding one allocates
/// nothing.
#[derive(Debug, Default)]
pub struct Schedule {
    /// When each resource is next free, indexed by `Res`; `None`, the
    /// last variant, has no slot.
    res_free: [f64; 4],
    /// Operations added.
    len: usize,
    /// The latest end so far.
    makespan: f64,
}

impl Schedule {
    /// Add an operation; returns its id. Operations are scheduled eagerly
    /// in submission order (list scheduling): start = max(resource free,
    /// dependencies' end).
    pub fn add(&mut self, res: Res, dur: f64, deps: &[OpId]) -> OpId {
        assert!(dur >= 0.0, "durations must be non-negative");
        let dep_end = deps.iter().map(|d| d.end).fold(0.0f64, f64::max);
        let free = self.res_free.get_mut(res as usize);
        let start = dep_end.max(free.as_deref().copied().unwrap_or(0.0));
        let end = start + dur;
        if let Some(free) = free {
            *free = end;
        }
        self.len += 1;
        self.makespan = self.makespan.max(end);
        OpId { end }
    }

    /// Makespan: when the last operation finishes.
    pub fn makespan(&self) -> f64 {
        self.makespan
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Most ops one [`Task`] holds; IV-I's, the longest, has 11.
const TASK_OPS: usize = 12;

/// One task's ops, recorded once and replayed for every task that
/// shares a node: each op's resource, duration, and the indices of the
/// earlier ops of the task it waits for (at most two) with their count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Task {
    ops: [(Res, f64, [usize; 2], usize); TASK_OPS],
    len: usize,
}

impl Task {
    /// Record an operation waiting for `deps`, earlier ops of this task;
    /// returns its index within the task.
    pub fn add(&mut self, res: Res, dur: f64, deps: &[usize]) -> usize {
        assert!(deps.len() <= 2 && deps.iter().all(|&d| d < self.len));
        let mut ids = [0; 2];
        ids[..deps.len()].copy_from_slice(deps);
        self.ops[self.len] = (res, dur, ids, deps.len());
        self.len += 1;
        self.len - 1
    }

    /// The schedule of `k` copies of the task, one after another through
    /// one set of resources, op by op through [`Schedule::add`]. With
    /// `k > 1` each copy first holds [`Res::GpuCompute`] for `switch`:
    /// tasks sharing a device pay a context switch on its engine.
    pub fn replay(&self, k: usize, switch: f64) -> Schedule {
        let mut s = Schedule::default();
        for _ in 0..k {
            if k > 1 {
                s.add(Res::GpuCompute, switch, &[]);
            }
            let mut ids = [OpId::default(); TASK_OPS];
            for (i, &(res, dur, deps, n)) in self.ops[..self.len].iter().enumerate() {
                ids[i] = s.add(res, dur, &deps.map(|d| ids[d])[..n]);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{GpuImpl, GpuScenario};
    use crate::params::GPU_CONTEXT_SWITCH_S;

    #[test]
    fn independent_ops_on_different_resources_overlap() {
        let mut s = Schedule::default();
        s.add(Res::GpuCompute, 10.0, &[]);
        s.add(Res::CopyH2D, 7.0, &[]);
        assert_eq!(s.makespan(), 10.0);
    }

    #[test]
    fn same_resource_serializes() {
        let mut s = Schedule::default();
        s.add(Res::GpuCompute, 10.0, &[]);
        s.add(Res::GpuCompute, 7.0, &[]);
        assert_eq!(s.makespan(), 17.0);
    }

    #[test]
    fn dependencies_are_honored() {
        let mut s = Schedule::default();
        let a = s.add(Res::CopyD2H, 5.0, &[]);
        let b = s.add(Res::Nic, 3.0, &[a]);
        s.add(Res::CopyH2D, 2.0, &[b]);
        assert_eq!(s.makespan(), 10.0);
    }

    #[test]
    fn replay_equals_the_schedule_built_op_by_op() {
        // Every (machine, tasks per node, implementation, thickness) the
        // figures and claims visit, and more: Lens and Yona at every node
        // count, the Yona variants of ext02 (2 to 24 cores per GPU), every
        // thread count dividing a node, every thickness from 0 (1 for IV-I)
        // to 32. The oracle builds each task anew and adds its ops one by
        // one through `Schedule::add`, as the per-task loop did before the
        // replay.
        let variants = [1, 2, 3, 6, 12].map(|cores_per_socket| {
            let m = machine::yona();
            let cpu = machine::CpuModel {
                cores_per_socket,
                ..m.cpu
            };
            machine::Machine { nodes: 1, cpu, ..m }
        });
        for m in [machine::lens(), machine::yona()].iter().chain(&variants) {
            let per_node = m.cores_per_node();
            for nodes in 1..=m.nodes {
                for threads in (1..=per_node).filter(|t| per_node.is_multiple_of(*t)) {
                    for (im, thicknesses) in [
                        (GpuImpl::BulkSync, 0..=0),
                        (GpuImpl::Streams, 0..=0),
                        (GpuImpl::HybridBulkSync, 0..=32),
                        (GpuImpl::HybridOverlap, 1..=32),
                    ] {
                        for thickness in thicknesses {
                            let s = GpuScenario::new(m, nodes * per_node, threads)
                                .with_thickness(thickness);
                            let k = s.tasks_per_node();
                            let mut oracle = Schedule::default();
                            for _ in 0..k {
                                if k > 1 {
                                    oracle.add(Res::GpuCompute, GPU_CONTEXT_SWITCH_S, &[]);
                                }
                                let task = s.task(im).0;
                                let mut ids = Vec::new();
                                for &(res, dur, deps, n) in &task.ops[..task.len] {
                                    let deps: Vec<OpId> =
                                        deps[..n].iter().map(|&d| ids[d]).collect();
                                    ids.push(oracle.add(res, dur, &deps));
                                }
                            }
                            let replay = s.schedule(im);
                            assert_eq!(
                                (replay.makespan().to_bits(), replay.len()),
                                (oracle.makespan().to_bits(), oracle.len()),
                                "{} {nodes} nodes, {k} tasks/node, {im:?}, thickness {thickness}",
                                m.name
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn overlap_vs_serial_schedules_differ() {
        // The essence of the paper: the same operations, chained vs split.
        let durs = [4.0f64, 6.0, 5.0];
        let mut serial = Schedule::default();
        let k = serial.add(Res::GpuCompute, 10.0, &[]);
        let d = serial.add(Res::CopyD2H, durs[0], &[k]);
        let n = serial.add(Res::Nic, durs[1], &[d]);
        serial.add(Res::CopyH2D, durs[2], &[n]);
        assert_eq!(serial.makespan(), 25.0);

        let mut overlapped = Schedule::default();
        overlapped.add(Res::GpuCompute, 10.0, &[]);
        let d = overlapped.add(Res::CopyD2H, durs[0], &[]);
        let n = overlapped.add(Res::Nic, durs[1], &[d]);
        overlapped.add(Res::CopyH2D, durs[2], &[n]);
        assert_eq!(overlapped.makespan(), 15.0);
    }
}
