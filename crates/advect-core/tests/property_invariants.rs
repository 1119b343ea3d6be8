//! Property-based tests (proptest) on the numerics' invariants: the
//! stencil coefficients, halo packing, region decomposability, and the
//! bit-identity of every fast stencil entry point with the scalar
//! per-point oracle.

use advect_core::coeffs::{Stencil27, Velocity};
use advect_core::field::{Field3, Range3};
use proptest::prelude::*;

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
}
