//! Differential property tests for the column path of the stencil sweep
//! (regions at most three points wide in x) and for the row-slice
//! `SharedField` pack/unpack.
//!
//! The column path stages neighbouring columns — halo columns included —
//! into scratch and scatters result columns back, so the comparison is
//! `data()` equality with the scalar oracle over the *whole* allocation:
//! a mis-staged halo value, a write outside the region, or a reordered
//! tap all show.

use advect_core::coeffs::{Stencil27, Velocity};
use advect_core::field::{Field3, Range3, SharedField};
use advect_core::stencil::{
    apply_stencil_cells_tiled, apply_stencil_region, apply_stencil_region_scalar,
    apply_stencil_shared_tiled, apply_stencil_slab_tiled,
};
use advect_core::tile::TileSpec;
use proptest::prelude::*;
use proptest::TestRng;

/// A field whose every value — halo included — is random, so a staged
/// column that reads the wrong halo point cannot agree by accident.
fn random_field(nx: usize, ny: usize, nz: usize, seed: u64) -> Field3 {
    let mut rng = TestRng::new(seed);
    let mut f = Field3::new(nx, ny, nz, 1);
    for v in f.data_mut() {
        *v = rng.next_f64() * 4.0 - 2.0;
    }
    f
}

/// A (possibly empty) sub-range of `0..n` from sampled offsets.
fn sub_range(n: usize, lo: usize, span: usize) -> (i64, i64) {
    let lo = lo.min(n) as i64;
    (lo, (lo + span as i64).min(n as i64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Widths 1..=3 at every x offset, heights from 1 to the full
    /// extent, on every view and under arbitrary tile shapes: each is
    /// the scalar oracle bit for bit. The full-extent variant touches
    /// all six faces, so the staged columns read the halo.
    #[test]
    fn thin_regions_match_the_scalar_oracle_on_every_view(
        nx in 1usize..8, ny in 1usize..10, nz in 1usize..8,
        y0 in 0usize..9, ys in 1usize..10,
        z0 in 0usize..7, zs in 1usize..8,
        ty in 1usize..12, tz in 1usize..12,
        cut in 1i64..7,
        seed in 0u64..u64::MAX,
    ) {
        let s = Stencil27::new(Velocity::new(0.8, -0.3, 0.5), 0.7);
        let mut src = random_field(nx, ny, nz, seed);
        let tile = TileSpec::new(ty, tz);
        let cuts: &[i64] = if cut < nz as i64 { &[cut] } else { &[] };
        let full = src.interior_range();
        for (y, z) in [
            (full.y, full.z),
            (sub_range(ny, y0.min(ny - 1), ys), sub_range(nz, z0.min(nz - 1), zs)),
            ((y0.min(ny - 1) as i64, y0.min(ny - 1) as i64 + 1), full.z),
        ] {
            for w in 1..=3usize.min(nx) {
                for x0 in 0..=(nx - w) as i64 {
                    let region = Range3::new((x0, x0 + w as i64), y, z);
                    let mut want = Field3::new(nx, ny, nz, 1);
                    apply_stencil_region_scalar(&src, &mut want, &s, region);

                    let mut plain = Field3::new(nx, ny, nz, 1);
                    apply_stencil_region(&src, &mut plain, &s, region);
                    prop_assert_eq!(plain.data(), want.data(), "plain {:?}", region);

                    let mut slabbed = Field3::new(nx, ny, nz, 1);
                    for slab in &mut slabbed.z_slabs_mut(cuts) {
                        apply_stencil_slab_tiled(&src, slab, &s, region, tile);
                    }
                    prop_assert_eq!(slabbed.data(), want.data(), "z-slab {:?}", region);

                    let mut shared = Field3::new(nx, ny, nz, 1);
                    apply_stencil_shared_tiled(
                        &src, &SharedField::new(&mut shared), &s, region, tile,
                    );
                    prop_assert_eq!(shared.data(), want.data(), "shared writer {:?}", region);

                    let mut cells = Field3::new(nx, ny, nz, 1);
                    apply_stencil_cells_tiled(
                        &SharedField::new(&mut src), &SharedField::new(&mut cells), &s, region, tile,
                    );
                    prop_assert_eq!(cells.data(), want.data(), "shared src+dst {:?}", region);
                }
            }
        }
    }

    /// `SharedField::pack_into` / `unpack` move exactly what
    /// `Field3::pack` / `unpack` move, on any region of the allocation —
    /// halo coordinates and empty regions included.
    #[test]
    fn shared_pack_and_unpack_match_field3(
        nx in 1usize..8, ny in 1usize..8, nz in 1usize..8,
        x0 in 0usize..10, xs in 0usize..10,
        y0 in 0usize..10, ys in 0usize..10,
        z0 in 0usize..10, zs in 0usize..10,
        seed in 0u64..u64::MAX,
    ) {
        // Sub-ranges of the halo'd extent `-1..n+1`.
        let shifted = |n: usize, lo: usize, span: usize| {
            let (a, b) = sub_range(n + 2, lo, span);
            (a - 1, b - 1)
        };
        let region = Range3::new(shifted(nx, x0, xs), shifted(ny, y0, ys), shifted(nz, z0, zs));
        let mut f = random_field(nx, ny, nz, seed);

        let mut want = vec![0.0; region.len()];
        prop_assert_eq!(f.pack(region, &mut want), region.len());
        let mut got = vec![0.0; region.len()];
        SharedField::new(&mut f).pack_into(region, &mut got);
        prop_assert_eq!(&got, &want, "pack {:?}", region);

        let payload = random_field(nx, ny, nz, !seed).pack_vec(region);
        let mut via_field = f.clone();
        via_field.unpack(region, &payload);
        SharedField::new(&mut f).unpack(region, &payload);
        prop_assert_eq!(f.data(), via_field.data(), "unpack {:?}", region);
    }
}
