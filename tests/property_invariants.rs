//! Property-based tests (proptest) on the core invariants: decomposition,
//! exchange planning, partitioning, packing, coefficients, and the
//! virtual-time engine.

use advect_core::coeffs::{Stencil27, Velocity};
use advect_core::field::{Field3, Range3};
use decomp::partition::{shell_and_core, thirds_along_z, BoxPartition};
use decomp::{Decomposition, ExchangePlan};
use proptest::prelude::*;

/// The simgpu crate's kernel tests, mounted here so the Tier-1 command
/// (`cargo test -q` at the root) runs them too.
#[path = "../crates/simgpu/tests/kernel_props.rs"]
mod simgpu_kernel_props;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coefficients_always_sum_to_one(
        cx in -2.0f64..2.0, cy in -2.0f64..2.0, cz in -2.0f64..2.0,
        nu in 0.01f64..1.5,
    ) {
        let s = Stencil27::new(Velocity::new(cx, cy, cz), nu);
        prop_assert!((s.sum() - 1.0).abs() < 1e-12);
        // And the transcribed Table I always agrees.
        let t = Stencil27::from_table_i(Velocity::new(cx, cy, cz), nu);
        for i in 0..27 {
            prop_assert!((s.a[i] - t.a[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn decomposition_partitions_any_grid(
        ntasks in 1usize..60,
        gx in 4usize..24, gy in 4usize..24, gz in 4usize..24,
    ) {
        // Feasibility: (1, 1, ntasks) always fits when ntasks <= gz
        // (prime counts larger than every dimension have no aligned split).
        prop_assume!(ntasks <= gz);
        let d = Decomposition::new(ntasks, (gx, gy, gz));
        let total: usize = d.subdomains.iter().map(|s| s.len()).sum();
        prop_assert_eq!(total, gx * gy * gz);
        prop_assert!(d.subdomains.iter().all(|s| !s.is_empty()));
        // Extents differ by at most one per dimension.
        for dim in 0..3 {
            let sizes: Vec<usize> = d.subdomains.iter()
                .map(|s| [s.extent.0, s.extent.1, s.extent.2][dim]).collect();
            prop_assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn exchange_plan_covers_halo_exactly_once(
        nx in 1usize..8, ny in 1usize..8, nz in 1usize..8,
    ) {
        let plan = ExchangePlan::new((nx, ny, nz), 1);
        let full = Range3::new(
            (-1, nx as i64 + 1), (-1, ny as i64 + 1), (-1, nz as i64 + 1));
        let interior = Range3::new((0, nx as i64), (0, ny as i64), (0, nz as i64));
        let mut covered = std::collections::HashMap::new();
        for phase in &plan.phases {
            for t in &phase.transfers {
                prop_assert_eq!(t.send_region.len(), t.recv_region.len());
                for p in t.recv_region.iter() {
                    *covered.entry(p).or_insert(0u32) += 1;
                }
            }
        }
        for p in full.iter() {
            let expected = u32::from(!interior.contains(p.0, p.1, p.2));
            prop_assert_eq!(covered.get(&p).copied().unwrap_or(0), expected,
                "point {:?}", p);
        }
    }

    #[test]
    fn shell_and_core_tiles_any_region(
        x0 in -3i64..3, w in 1i64..12,
        y0 in -3i64..3, h in 1i64..12,
        z0 in -3i64..3, d in 1i64..12,
        t in 0usize..8,
    ) {
        let region = Range3::new((x0, x0 + w), (y0, y0 + h), (z0, z0 + d));
        let (core, walls) = shell_and_core(region, t);
        let vol: usize = core.len() + walls.iter().map(|r| r.len()).sum::<usize>();
        prop_assert_eq!(vol, region.len());
        // Pairwise disjoint.
        let mut parts = vec![core];
        parts.extend(walls);
        for i in 0..parts.len() {
            for j in i + 1..parts.len() {
                prop_assert!(parts[i].intersect(&parts[j]).is_empty());
            }
        }
    }

    #[test]
    fn box_partition_is_consistent(
        nx in 3usize..20, ny in 3usize..20, nz in 3usize..20,
        t in 0usize..6,
    ) {
        let p = BoxPartition::new((nx, ny, nz), t);
        prop_assert_eq!(p.cpu_points() + p.gpu_points(), nx * ny * nz);
        // Deep interior + boundary ring tile the block.
        let ring: usize = p.gpu_boundary_ring.iter().map(|r| r.len()).sum();
        prop_assert_eq!(p.gpu_deep_interior.len() + ring, p.gpu_points());
        // The halo ring is exactly the one-point shell around the block.
        if !p.gpu_block.is_empty() {
            let grown = Range3::new(
                (p.gpu_block.x.0 - 1, p.gpu_block.x.1 + 1),
                (p.gpu_block.y.0 - 1, p.gpu_block.y.1 + 1),
                (p.gpu_block.z.0 - 1, p.gpu_block.z.1 + 1),
            );
            prop_assert_eq!(p.h2d_points(), grown.len() - p.gpu_points());
        }
    }

    #[test]
    fn thirds_cover_without_overlap(
        nx in 1usize..10, ny in 1usize..10, nz in 1usize..16,
    ) {
        let region = Range3::new((0, nx as i64), (0, ny as i64), (0, nz as i64));
        let thirds = thirds_along_z(region);
        let vol: usize = thirds.iter().map(|t| t.len()).sum();
        prop_assert_eq!(vol, region.len());
        prop_assert!(thirds[0].intersect(&thirds[1]).is_empty());
        prop_assert!(thirds[1].intersect(&thirds[2]).is_empty());
    }

    #[test]
    fn pack_unpack_roundtrips_any_region(
        nx in 2usize..8, ny in 2usize..8, nz in 2usize..8,
        x0 in 0i64..3, y0 in 0i64..3, z0 in 0i64..3,
        w in 1i64..4, h in 1i64..4, d in 1i64..4,
        seed in 0u64..1000,
    ) {
        let region = Range3::new(
            (x0 - 1, (x0 - 1 + w).min(nx as i64 + 1)),
            (y0 - 1, (y0 - 1 + h).min(ny as i64 + 1)),
            (z0 - 1, (z0 - 1 + d).min(nz as i64 + 1)),
        );
        prop_assume!(!region.is_empty());
        let mut f = Field3::new(nx, ny, nz, 1);
        f.fill_interior(|x, y, z| ((x * 31 + y * 7 + z) as u64 ^ seed) as f64);
        f.copy_periodic_halo();
        let mut buf = vec![0.0; region.len()];
        prop_assert_eq!(f.pack(region, &mut buf), region.len());
        let mut g = Field3::new(nx, ny, nz, 1);
        g.unpack(region, &buf);
        for (x, y, z) in region.iter() {
            prop_assert_eq!(g.at(x, y, z), f.at(x, y, z));
        }
    }

    #[test]
    fn stencil_is_region_decomposable(
        n in 4usize..10,
        cut_x in 1i64..3, cut_z in 1i64..3,
    ) {
        // Applying the stencil over an arbitrary 4-way split must equal a
        // single full application.
        let s = Stencil27::new(Velocity::new(0.9, -0.4, 0.7), 0.8);
        let mut src = Field3::new(n, n, n, 1);
        src.fill_interior(|x, y, z| ((x * 13 + y * 5 + z * 3) % 17) as f64);
        src.copy_periodic_halo();
        let mut full = Field3::new(n, n, n, 1);
        advect_core::stencil::apply_stencil_interior(&src, &mut full, &s);
        let mut split = Field3::new(n, n, n, 1);
        let n64 = n as i64;
        for r in [
            Range3::new((0, cut_x), (0, n64), (0, cut_z)),
            Range3::new((cut_x, n64), (0, n64), (0, cut_z)),
            Range3::new((0, cut_x), (0, n64), (cut_z, n64)),
            Range3::new((cut_x, n64), (0, n64), (cut_z, n64)),
        ] {
            advect_core::stencil::apply_stencil_region(&src, &mut split, &s, r);
        }
        prop_assert_eq!(full.max_abs_diff(&split), 0.0);
    }

    #[test]
    fn event_schedule_is_always_consistent(
        durs in prop::collection::vec(0.0f64..10.0, 1..20),
        seed in 0usize..1000,
    ) {
        use perfmodel::{Res, Schedule};
        let resources = [Res::GpuCompute, Res::CopyH2D, Res::CopyD2H, Res::Nic, Res::Cpu, Res::None];
        let mut s = Schedule::new();
        let mut ids = Vec::new();
        for (i, &d) in durs.iter().enumerate() {
            let res = resources[(seed + i * 7) % resources.len()];
            // Depend on up to two arbitrary earlier ops.
            let mut deps = Vec::new();
            if !ids.is_empty() {
                deps.push(ids[(seed + i) % ids.len()]);
                deps.push(ids[(seed * 3 + i) % ids.len()]);
            }
            ids.push(s.add(res, d, &deps));
        }
        prop_assert!(s.validate());
        // Makespan is at least the busiest resource and at most the sum.
        let sum: f64 = durs.iter().sum();
        prop_assert!(s.makespan() <= sum + 1e-9);
        for r in resources.iter().take(5) {
            prop_assert!(s.makespan() + 1e-9 >= s.busy(*r));
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

// ---------------------------------------------------------------------------
// Differential tests: the row-vectorized fast path must be *bit-identical*
// (`max_abs_diff == 0.0`, same backing storage) to the scalar per-point
// oracle at every stencil entry point, on irregular regions — including
// degenerate and empty ones — and non-cubic grids.

/// A pseudo-random but deterministic field on an `nx × ny × nz` grid.
fn seeded_field(nx: usize, ny: usize, nz: usize, seed: u64) -> Field3 {
    let mut f = Field3::new(nx, ny, nz, 1);
    f.fill_interior(|x, y, z| ((x * 31 + y * 7 + z * 3) as u64 ^ seed) as f64 * 0.125);
    f.copy_periodic_halo();
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn region_fast_path_is_bit_identical_to_scalar(
        nx in 3usize..11, ny in 3usize..11, nz in 3usize..11,
        x0 in 0i64..6, x1 in 0i64..12,
        y0 in 0i64..6, y1 in 0i64..12,
        z0 in 0i64..6, z1 in 0i64..12,
        seed in 0u64..1000,
    ) {
        use advect_core::stencil::{apply_stencil_region, apply_stencil_region_scalar};
        // Clamping keeps the region inside the interior; x0 >= x1 (etc.)
        // yields degenerate or empty regions, which must also agree.
        let region = Range3::new(
            (x0.min(nx as i64), x1.min(nx as i64)),
            (y0.min(ny as i64), y1.min(ny as i64)),
            (z0.min(nz as i64), z1.min(nz as i64)),
        );
        let s = Stencil27::new(Velocity::new(0.8, -0.3, 0.5), 0.7);
        let src = seeded_field(nx, ny, nz, seed);
        let mut fast = Field3::new(nx, ny, nz, 1);
        let mut scalar = Field3::new(nx, ny, nz, 1);
        apply_stencil_region(&src, &mut fast, &s, region);
        apply_stencil_region_scalar(&src, &mut scalar, &s, region);
        prop_assert_eq!(fast.max_abs_diff(&scalar), 0.0);
        prop_assert_eq!(fast.data(), scalar.data());
    }

    #[test]
    fn slab_fast_path_is_bit_identical_to_scalar(
        nx in 3usize..10, ny in 3usize..10, nz in 4usize..10,
        cut in 1i64..5,
        seed in 0u64..1000,
    ) {
        use advect_core::stencil::{apply_stencil_region_scalar, apply_stencil_slab_tiled};
        use advect_core::tile::TileSpec;
        prop_assume!(cut < nz as i64);
        let s = Stencil27::new(Velocity::new(-0.6, 0.9, 0.2), 0.4);
        let src = seeded_field(nx, ny, nz, seed);
        let region = src.interior_range();
        let mut fast = Field3::new(nx, ny, nz, 1);
        for slab in &mut fast.z_slabs_mut(&[cut]) {
            apply_stencil_slab_tiled(&src, slab, &s, region, TileSpec::host(nx + 2));
        }
        let mut scalar = Field3::new(nx, ny, nz, 1);
        apply_stencil_region_scalar(&src, &mut scalar, &s, region);
        prop_assert_eq!(fast.data(), scalar.data());
    }

    #[test]
    fn shared_and_cells_fast_paths_are_bit_identical_to_scalar(
        nx in 3usize..10, ny in 3usize..10, nz in 3usize..10,
        x0 in 0i64..4, w in 0i64..10,
        seed in 0u64..1000,
    ) {
        use advect_core::field::SharedField;
        use advect_core::stencil::{
            apply_stencil_cells_tiled, apply_stencil_region_scalar, apply_stencil_shared_tiled,
        };
        use advect_core::tile::TileSpec;
        // An x-irregular region (possibly empty when w == 0).
        let region = Range3::new(
            (x0.min(nx as i64), (x0 + w).min(nx as i64)),
            (0, ny as i64),
            (0, nz as i64),
        );
        let s = Stencil27::new(Velocity::new(0.3, 0.3, -0.9), 1.1);
        let mut src = seeded_field(nx, ny, nz, seed);
        let tile = TileSpec::host(nx + 2);
        let mut out = [(); 3].map(|()| Field3::new(nx, ny, nz, 1));
        apply_stencil_region_scalar(&src, &mut out[0], &s, region);
        {
            let sh = SharedField::new(&mut out[1]);
            apply_stencil_shared_tiled(&src, &sh, &s, region, tile);
        }
        {
            let ssh = SharedField::new(&mut src);
            let dsh = SharedField::new(&mut out[2]);
            apply_stencil_cells_tiled(&ssh, &dsh, &s, region, tile);
        }
        prop_assert_eq!(out[0].data(), out[1].data());
        prop_assert_eq!(out[0].data(), out[2].data());
    }

    #[test]
    fn simgpu_kernels_are_bit_identical_to_core_scalar(
        nx in 3usize..9, ny in 3usize..9, nz in 3usize..9,
        bx in 3usize..8, by in 3usize..8, bz in 3usize..5,
        seed in 0u64..1000,
    ) {
        use advect_core::stencil::apply_stencil_region_scalar;
        use simgpu::kernels::{
            run_stencil, run_stencil_3d, FieldDims, StencilLaunch, StencilLaunch3d,
        };
        let s = Stencil27::new(Velocity::new(1.0, 0.5, 0.25), 0.9);
        let src = seeded_field(nx, ny, nz, seed);
        let mut scalar = Field3::new(nx, ny, nz, 1);
        apply_stencil_region_scalar(&src, &mut scalar, &s, src.interior_range());
        // FieldDims with halo 1 lays the buffer out exactly like Field3,
        // so the host field maps to the device buffer byte for byte.
        let dims = FieldDims { nx, ny, nz, halo: 1 };
        prop_assert_eq!(dims.len(), src.data().len());
        let mut dst2 = vec![0.0f64; dims.len()];
        run_stencil(src.data(), &mut dst2, &s.a, &StencilLaunch {
            dims,
            region: dims.interior(),
            block: (bx, by),
            periodic: false,
        }, &mut Vec::new());
        let mut dst3 = vec![0.0f64; dims.len()];
        run_stencil_3d(src.data(), &mut dst3, &s.a, &StencilLaunch3d {
            dims,
            region: dims.interior(),
            block: (bx, by, bz),
            periodic: false,
        }, &mut Vec::new());
        for (x, y, z) in dims.interior().iter() {
            let want = scalar.at(x, y, z);
            prop_assert_eq!(dst2[dims.idx(x, y, z)], want, "2d kernel at {:?}", (x, y, z));
            prop_assert_eq!(dst3[dims.idx(x, y, z)], want, "3d kernel at {:?}", (x, y, z));
        }
    }
}

#[test]
fn distributed_exchange_equals_periodic_for_random_task_counts() {
    // Deterministic but broad: every task count up to 12 on an 8³ grid.
    use advect_core::field::Field3;
    use simmpi::World;
    let n = 8usize;
    let mut global = Field3::new(n, n, n, 1);
    global.fill_interior(|x, y, z| (x + 10 * y + 100 * z) as f64);
    global.copy_periodic_halo();
    // 11 is skipped: a prime count larger than every dimension of an 8³
    // grid has no axis-aligned decomposition.
    for ntasks in (1..=12).filter(|&t| t != 11) {
        let d = Decomposition::new(ntasks, (n, n, n));
        let dref = &d;
        let results = World::run(ntasks, move |comm| {
            let sub = dref.subdomains[comm.rank()];
            let mut local = Field3::new(sub.extent.0, sub.extent.1, sub.extent.2, 1);
            let (ox, oy, oz) = sub.offset;
            local.fill_interior(|x, y, z| {
                ((ox as i64 + x) + 10 * (oy as i64 + y) + 100 * (oz as i64 + z)) as f64
            });
            let plan = ExchangePlan::new(sub.extent, 1);
            let bufs = overlap::HaloBuffers::new(&plan, comm);
            overlap::halo::exchange_halos(&mut local, &plan, dref, comm.rank(), comm, &bufs);
            (comm.rank(), local)
        });
        for (rank, local) in results {
            let sub = d.subdomains[rank];
            for (x, y, z) in local.full_range().iter() {
                let gx = (sub.offset.0 as i64 + x).rem_euclid(n as i64);
                let gy = (sub.offset.1 as i64 + y).rem_euclid(n as i64);
                let gz = (sub.offset.2 as i64 + z).rem_euclid(n as i64);
                assert_eq!(local.at(x, y, z), global.at(gx, gy, gz), "ntasks {ntasks}");
            }
        }
    }
}
