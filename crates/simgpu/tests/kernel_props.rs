//! Differential tests of the functional kernels against the scalar
//! per-point oracle (`apply_stencil_region_scalar`), compared with
//! `to_bits`: the ring-staged z-march and the row-slice pack/unpack
//! must reproduce it exactly for any grid (down to
//! one point wide, narrower than a tile), any sub-region, any block shape
//! and both layouts, and must write nothing outside the launch region.

use advect_core::coeffs::{Stencil27, Velocity};
use advect_core::field::{Field3, Range3};
use advect_core::stencil::apply_stencil_region_scalar;
use proptest::prelude::*;
use simgpu::kernels::{run_pack, run_stencil, run_unpack, FieldDims, StencilLaunch};

/// Never produced by the stencil on finite input, so a surviving sentinel
/// proves a point was not written and a missing one that it was.
const SENTINEL: f64 = f64::from_bits(0x7ff8_dead_beef_0001);

/// The block shapes the runners and the paper use, plus the degenerate
/// one-thread tile.
const BLOCKS: [(usize, usize); 5] = [(3, 3), (4, 4), (16, 16), (32, 8), (34, 10)];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn periodic_field(nx: usize, ny: usize, nz: usize, seed: u64) -> Field3 {
    let mut f = Field3::new(nx, ny, nz, 1);
    f.fill_interior(|x, y, z| ((x * 31 + y * 7 + z * 3) as u64 ^ seed) as f64 * 0.125 - 3.0);
    f.copy_periodic_halo();
    f
}

/// Run the kernel on `region` in one layout and compare every value of
/// the destination buffer — region and surroundings — with the oracle.
/// `shared` is carried across calls so stale ring contents from earlier
/// launches (other blocks, other layouts) are part of what is tested.
fn check_launch(
    src: &Field3,
    region: Range3,
    block: (usize, usize),
    periodic: bool,
    shared: &mut Vec<f64>,
) {
    let (nx, ny, nz) = src.interior();
    let s = Stencil27::new(Velocity::new(1.0, 0.5, -0.25), 0.9);
    let mut want = Field3::new(nx, ny, nz, 1);
    want.data_mut().fill(SENTINEL);
    apply_stencil_region_scalar(src, &mut want, &s, region);

    // Halo layout: the device buffer is the host field byte for byte.
    // Periodic layout: halo-free, the interior packed x fastest.
    let halo = usize::from(!periodic);
    let dims = FieldDims { nx, ny, nz, halo };
    let image = |f: &Field3| {
        if periodic {
            f.pack_vec(f.interior_range())
        } else {
            f.data().to_vec()
        }
    };
    let (dev_src, want) = (image(src), bits(&image(&want)));
    assert_eq!(dev_src.len(), dims.len());

    let mut dst = vec![SENTINEL; dims.len()];
    let launch = StencilLaunch {
        dims,
        region,
        block,
        periodic,
    };
    run_stencil(&dev_src, &mut dst, &s.a, &launch, shared);
    assert_eq!(bits(&dst), want, "{launch:?}");
}

/// A (possibly empty) sub-range of `0..n`.
fn sub_range(n: usize, lo: usize, span: usize) -> (i64, i64) {
    let lo = lo.min(n) as i64;
    (lo, (lo + span as i64).min(n as i64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stencil_kernels_match_the_scalar_oracle_bitwise(
        nx in 1usize..40, ny in 1usize..12, nz in 1usize..7,
        x0 in 0usize..40, xs in 0usize..41,
        y0 in 0usize..12, ys in 0usize..13,
        z0 in 0usize..7, zs in 0usize..8,
        block in 0usize..5,
        seed in 0u64..1000,
    ) {
        let src = periodic_field(nx, ny, nz, seed);
        let region = Range3::new(sub_range(nx, x0, xs), sub_range(ny, y0, ys), sub_range(nz, z0, zs));
        let mut shared = Vec::new();
        for periodic in [false, true] {
            check_launch(&src, region, BLOCKS[block], periodic, &mut shared);
        }
    }

    #[test]
    fn simgpu_kernels_are_bit_identical_to_core_scalar(
        nx in 3usize..9, ny in 3usize..9, nz in 3usize..9,
        bx in 3usize..8, by in 3usize..8,
        seed in 0u64..1000,
    ) {
        let s = Stencil27::new(Velocity::new(1.0, 0.5, 0.25), 0.9);
        let src = periodic_field(nx, ny, nz, seed);
        let mut scalar = Field3::new(nx, ny, nz, 1);
        apply_stencil_region_scalar(&src, &mut scalar, &s, src.interior_range());
        // FieldDims with halo 1 lays the buffer out exactly like Field3,
        // so the host field maps to the device buffer byte for byte.
        let dims = FieldDims { nx, ny, nz, halo: 1 };
        prop_assert_eq!(dims.len(), src.data().len());
        let mut dst = vec![0.0f64; dims.len()];
        run_stencil(src.data(), &mut dst, &s.a, &StencilLaunch {
            dims,
            region: dims.interior(),
            block: (bx, by),
            periodic: false,
        }, &mut Vec::new());
        for (x, y, z) in dims.interior().iter() {
            prop_assert_eq!(dst[dims.idx(x, y, z)], scalar.at(x, y, z), "at {:?}", (x, y, z));
        }
    }
}

#[test]
fn every_face_slab_and_the_whole_interior_match_under_every_block() {
    // 35 wide: a full 32-wide tile of block (34, 10) plus a 3-wide one, a
    // 30- and a 5-wide tile of block (32, 8). The two small grids are
    // narrower than the tile of every block but (3, 3), and one has nz = 1.
    let mut shared = Vec::new();
    for (nx, ny, nz) in [(35, 9, 4), (5, 3, 1), (1, 1, 1)] {
        let src = periodic_field(nx, ny, nz, 7);
        let (ex, ey, ez) = (nx as i64, ny as i64, nz as i64);
        let regions = [
            Range3::new((0, ex), (0, ey), (0, ez)),
            Range3::new((0, 1), (0, ey), (0, ez)),
            Range3::new((ex - 1, ex), (0, ey), (0, ez)),
            Range3::new((0, ex), (0, 1), (0, ez)),
            Range3::new((0, ex), (ey - 1, ey), (0, ez)),
            Range3::new((0, ex), (0, ey), (0, 1)),
            Range3::new((0, ex), (0, ey), (ez - 1, ez)),
        ];
        for region in regions {
            for (bx, by) in BLOCKS {
                for periodic in [false, true] {
                    check_launch(&src, region, (bx, by), periodic, &mut shared);
                }
            }
        }
    }
}

#[test]
fn pack_unpack_roundtrip_on_empty_and_one_wide_regions() {
    let dims = FieldDims {
        nx: 5,
        ny: 4,
        nz: 3,
        halo: 1,
    };
    let field: Vec<f64> = (0..dims.len()).map(|i| i as f64 + 0.5).collect();
    let regions = [
        // Empty along one axis each, plus an inverted range.
        Range3::new((2, 2), (0, 4), (0, 3)),
        Range3::new((0, 5), (3, 3), (0, 3)),
        Range3::new((0, 5), (0, 4), (1, 1)),
        Range3::new((4, 1), (0, 4), (0, 3)),
        // One wide along each axis, at a face and reaching into the halo.
        Range3::new((4, 5), (0, 4), (0, 3)),
        Range3::new((0, 5), (0, 1), (0, 3)),
        Range3::new((0, 5), (0, 4), (2, 3)),
        Range3::new((-1, 0), (-1, 5), (-1, 4)),
        Range3::new((1, 2), (2, 3), (1, 2)),
        // The whole allocation.
        Range3::new((-1, 6), (-1, 5), (-1, 4)),
    ];
    for region in regions {
        // One spare slot past the end shows a pack that overran its count.
        let mut linear = vec![SENTINEL; region.len() + 1];
        assert_eq!(
            run_pack(&field, dims, region, &mut linear),
            region.len(),
            "{region:?}"
        );
        assert_eq!(linear[region.len()].to_bits(), SENTINEL.to_bits());
        for (i, (x, y, z)) in region.iter().enumerate() {
            assert_eq!(linear[i], field[dims.idx(x, y, z)], "{region:?}");
        }
        let mut back = vec![SENTINEL; dims.len()];
        assert_eq!(
            run_unpack(&mut back, dims, region, &linear[..region.len()]),
            region.len(),
            "{region:?}"
        );
        let mut want = vec![SENTINEL; dims.len()];
        for (x, y, z) in region.iter() {
            want[dims.idx(x, y, z)] = field[dims.idx(x, y, z)];
        }
        assert_eq!(bits(&back), bits(&want), "{region:?}");
    }
}
