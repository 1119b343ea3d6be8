//! Property-based tests (proptest) on the performance model's
//! invariants: the virtual-time event schedule and the monotonicity and
//! finiteness of the CPU and GPU models.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn event_schedule_is_always_consistent(
        durs in prop::collection::vec(0.0f64..10.0, 1..20),
        seed in 0usize..1000,
    ) {
        use perfmodel::{Res, Schedule};
        let resources = [Res::GpuCompute, Res::CopyH2D, Res::CopyD2H, Res::Nic, Res::None];
        let mut s = Schedule::new();
        let mut ids = Vec::new();
        // Busy time of each resource but `None`.
        let mut busy = [0.0f64; 4];
        for (i, &d) in durs.iter().enumerate() {
            let r = (seed + i * 7) % resources.len();
            if r < busy.len() {
                busy[r] += d;
            }
            // Depend on up to two arbitrary earlier ops.
            let mut deps = Vec::new();
            if !ids.is_empty() {
                deps.push(ids[(seed + i) % ids.len()]);
                deps.push(ids[(seed * 3 + i) % ids.len()]);
            }
            ids.push(s.add(resources[r], d, &deps));
        }
        prop_assert!(s.validate());
        // Makespan is at least the busiest resource and at most the sum.
        let sum: f64 = durs.iter().sum();
        prop_assert!(s.makespan() <= sum + 1e-9);
        for b in busy {
            prop_assert!(s.makespan() + 1e-9 >= b);
        }
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
