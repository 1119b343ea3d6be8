//! Property-based tests (proptest) on the performance model's
//! invariants: the virtual-time event schedule and the monotonicity and
//! finiteness of the CPU and GPU models.

use perfmodel::event::{OpId, Task};
use perfmodel::{Res, Schedule};
use proptest::prelude::*;
use std::collections::HashMap;

const RESOURCES: [Res; 5] = [
    Res::GpuCompute,
    Res::CopyH2D,
    Res::CopyD2H,
    Res::Nic,
    Res::None,
];

/// One op of the reference scheduler: its resource, dependencies and
/// window.
struct RefOp {
    res: Res,
    deps: Vec<usize>,
    start: f64,
    end: f64,
}

/// The list scheduler `Schedule` replaced: it keeps every op with a copy
/// of its dependencies, so it can check itself afterwards.
#[derive(Default)]
struct Reference {
    ops: Vec<RefOp>,
    res_free: [f64; 4],
}

impl Reference {
    fn add(&mut self, res: Res, dur: f64, deps: &[usize]) -> usize {
        let dep_end = deps.iter().map(|&d| self.ops[d].end).fold(0.0f64, f64::max);
        let free = self.res_free.get_mut(res as usize);
        let start = dep_end.max(free.as_deref().copied().unwrap_or(0.0));
        let end = start + dur;
        if let Some(free) = free {
            *free = end;
        }
        self.ops.push(RefOp {
            res,
            deps: deps.to_vec(),
            start,
            end,
        });
        self.ops.len() - 1
    }

    fn makespan(&self) -> f64 {
        self.ops.iter().map(|o| o.end).fold(0.0, f64::max)
    }

    /// Each op starts no earlier than its deps end, and resource
    /// serialization holds.
    fn validate(&self) -> bool {
        let mut last_on: HashMap<Res, f64> = Default::default();
        for op in &self.ops {
            for &d in &op.deps {
                if self.ops[d].end > op.start + 1e-15 {
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

/// Up to two earlier ops, picked from `seed`, for op `i` of `n` before it.
fn pick_deps(seed: usize, i: usize, n: usize) -> Vec<usize> {
    match n {
        0 => Vec::new(),
        _ => vec![(seed + i) % n, (seed * 3 + i) % n],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn event_schedule_is_always_consistent(
        durs in prop::collection::vec(0.0f64..10.0, 1..20),
        seed in 0usize..1000,
    ) {
        let mut s = Schedule::default();
        let mut reference = Reference::default();
        let mut ids: Vec<OpId> = Vec::new();
        // Busy time of each resource but `None`.
        let mut busy = [0.0f64; 4];
        for (i, &d) in durs.iter().enumerate() {
            let r = (seed + i * 7) % RESOURCES.len();
            if r < busy.len() {
                busy[r] += d;
            }
            // Depend on up to two arbitrary earlier ops.
            let deps = pick_deps(seed, i, ids.len());
            let dep_ids: Vec<OpId> = deps.iter().map(|&d| ids[d]).collect();
            ids.push(s.add(RESOURCES[r], d, &dep_ids));
            let at = reference.add(RESOURCES[r], d, &deps);
            prop_assert_eq!(ids[i].end.to_bits(), reference.ops[at].end.to_bits());
        }
        prop_assert!(reference.validate());
        prop_assert_eq!(s.makespan().to_bits(), reference.makespan().to_bits());
        prop_assert_eq!(s.len(), reference.ops.len());
        // Makespan is at least the busiest resource and at most the sum.
        let sum: f64 = durs.iter().sum();
        prop_assert!(s.makespan() <= sum + 1e-9);
        for b in busy {
            prop_assert!(s.makespan() + 1e-9 >= b);
        }
    }

    #[test]
    fn task_replay_equals_the_reference_built_op_by_op(
        durs in prop::collection::vec(0.0f64..10.0, 1..12),
        seed in 0usize..1000,
        k in 1usize..5,
        switch in 0.0f64..2.0,
    ) {
        let mut task = Task::default();
        let mut ops = Vec::new();
        for (i, &d) in durs.iter().enumerate() {
            let res = RESOURCES[(seed + i * 7) % RESOURCES.len()];
            let deps = pick_deps(seed, i, i);
            task.add(res, d, &deps);
            ops.push((res, d, deps));
        }
        // Task by task, each after a context switch when there are
        // several, with every dependency offset to its task's ops.
        let mut reference = Reference::default();
        for _ in 0..k {
            if k > 1 {
                reference.add(Res::GpuCompute, switch, &[]);
            }
            let base = reference.ops.len();
            for (res, d, deps) in &ops {
                let deps: Vec<usize> = deps.iter().map(|&i| base + i).collect();
                reference.add(*res, *d, &deps);
            }
        }
        prop_assert!(reference.validate());
        let replay = task.replay(k, switch);
        prop_assert_eq!(replay.makespan().to_bits(), reference.makespan().to_bits());
        prop_assert_eq!(replay.len(), reference.ops.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cpu_model_times_are_positive_and_finite(
        exp in 0u32..11,
        tidx in 0usize..5,
    ) {
        use machine::jaguarpf;
        use perfmodel::cpu::{CpuImpl, CpuScenario};
        let m = jaguarpf();
        let cores = 12usize << exp;
        let t = m.thread_choices[tidx];
        prop_assume!(cores.is_multiple_of(t));
        let s = CpuScenario::new(&m, cores, t);
        for im in [CpuImpl::SingleTask, CpuImpl::BulkSync, CpuImpl::Nonblocking, CpuImpl::ThreadOverlap] {
            let step = s.step_time(im);
            prop_assert!(step.is_finite() && step > 0.0, "{im:?}: {step}");
        }
    }

    #[test]
    fn gpu_model_monotone_in_pcie_speed(
        nodes in 1usize..16,
        scale_idx in 0usize..4,
    ) {
        use machine::yona;
        use perfmodel::gpu::{GpuImpl, GpuScenario};
        let m = yona();
        let scales = [1.0f64, 2.0, 4.0, 8.0];
        let s0 = scales[scale_idx];
        let gf_at = |sc: f64| {
            GpuScenario::new(&m, nodes * 12, 12)
                .with_block((32, 8))
                .with_pcie_scale(sc)
                .gf(GpuImpl::BulkSync)
        };
        // Faster PCIe never hurts the bulk-synchronous implementation.
        prop_assert!(gf_at(s0 * 2.0) >= gf_at(s0) * 0.999);
    }

    #[test]
    fn more_nodes_never_reduce_total_gf_for_hybrid(
        nidx in 0usize..4,
    ) {
        use machine::yona;
        use perfmodel::sweep::best_gpu_gf;
        use perfmodel::gpu::GpuImpl;
        let m = yona();
        let nodes = [1usize, 2, 4, 8];
        let n = nodes[nidx];
        let a = best_gpu_gf(&m, GpuImpl::HybridOverlap, n * 12, (32, 8)).gf;
        let b = best_gpu_gf(&m, GpuImpl::HybridOverlap, n * 24, (32, 8)).gf;
        prop_assert!(b >= a * 0.999, "{n}->{} nodes: {a} -> {b}", 2 * n);
    }
}
