//! Task templates for the models' per-step schedules.
//!
//! Each implementation's time step is a DAG of operations on the node's
//! resources, composed on the list scheduler the simulated device runs
//! on ([`simgpu::event`]). Tasks sharing a node run the same ops, so a
//! [`Task`] records one task's ops once and [`Task::replay`] adds them
//! for each task through [`Schedule::add`], the one way to add an op,
//! charging the context switch that is the model's own policy. Nothing
//! here allocates.

pub use simgpu::event::OpId;
use simgpu::event::{Res, Schedule};

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
}
