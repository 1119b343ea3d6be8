//! Differential property tests for the cache-blocked (tiled) and pooled
//! stencil sweeps: every configuration — random grid sizes, region
//! shapes, tile sizes (including degenerate 1-wide tiles and tiles
//! larger than the region), and every `SweepPool` worker count — must be
//! **bit-identical** to the scalar per-point oracle
//! (`apply_stencil_region_scalar`). Tiling only permutes whole output
//! rows and pooling only distributes disjoint tiles, so no rounding
//! difference is tolerated: the comparison is `data()` equality, not an
//! epsilon.

use advect_core::coeffs::{Stencil27, Velocity};
use advect_core::field::{Field3, Range3};
use advect_core::simd::{accumulate_block_at, SimdLevel, TapBlock};
use advect_core::stencil::{
    apply_stencil_region_pooled, apply_stencil_region_scalar, apply_stencil_slab_tiled,
};
use advect_core::sweep::SweepPool;
use advect_core::tile::TileSpec;
use proptest::prelude::*;
use proptest::TestRng;

fn stencil(salt: usize) -> Stencil27 {
    let v = Velocity::new(
        1.0 + (salt % 5) as f64 * 0.3,
        0.5 - (salt % 3) as f64 * 0.1,
        0.25,
    );
    Stencil27::new(v, 0.9)
}

fn filled(n: usize, salt: usize) -> Field3 {
    let mut f = Field3::new(n, n, n, 1);
    f.fill_interior(|x, y, z| ((x * 13 + y * 7 + z * 3 + salt as i64) % 23) as f64 * 0.17 - 1.0);
    f.copy_periodic_halo();
    f
}

/// Clamp sampled offsets into a (possibly empty) sub-range of `0..n`.
fn sub_range(n: usize, lo: usize, span: usize) -> (i64, i64) {
    let lo = lo.min(n - 1) as i64;
    let hi = (lo + span as i64).min(n as i64);
    (lo, hi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The serially tiled sweep is the scalar oracle under any tile
    /// shape, from 1×1 (one row per tile) to tiles dwarfing the region.
    #[test]
    fn tiled_region_matches_scalar_oracle(
        n in 6usize..13,
        salt in 0usize..1000,
        x0 in 0usize..12, xs in 0usize..12,
        y0 in 0usize..12, ys in 0usize..12,
        z0 in 0usize..12, zs in 0usize..12,
        ty in 1usize..80, tz in 1usize..80,
    ) {
        let src = filled(n, salt);
        let s = stencil(salt);
        let region = Range3::new(sub_range(n, x0, xs), sub_range(n, y0, ys), sub_range(n, z0, zs));
        let mut want = Field3::new(n, n, n, 1);
        apply_stencil_region_scalar(&src, &mut want, &s, region);
        let mut got = Field3::new(n, n, n, 1);
        for slab in &mut got.z_slabs_mut(&[]) {
            apply_stencil_slab_tiled(&src, slab, &s, region, TileSpec::new(ty, tz));
        }
        prop_assert_eq!(got.data(), want.data(), "n {n} region {region:?} tile {ty}x{tz}");
    }

    /// The pooled sweep distributes disjoint tiles over a work-stealing
    /// queue; any worker count (including oversubscription) must still
    /// be the scalar oracle, bit for bit.
    #[test]
    fn pooled_region_matches_scalar_oracle_at_any_worker_count(
        n in 6usize..13,
        salt in 0usize..1000,
        x0 in 0usize..12, xs in 0usize..12,
        y0 in 0usize..12, ys in 0usize..12,
        z0 in 0usize..12, zs in 0usize..12,
        ty in 1usize..80, tz in 1usize..80,
        workers in 1usize..8,
    ) {
        let src = filled(n, salt);
        let s = stencil(salt);
        let region = Range3::new(sub_range(n, x0, xs), sub_range(n, y0, ys), sub_range(n, z0, zs));
        let mut want = Field3::new(n, n, n, 1);
        apply_stencil_region_scalar(&src, &mut want, &s, region);
        let pool = SweepPool::new(workers);
        let mut got = Field3::new(n, n, n, 1);
        apply_stencil_region_pooled(&src, &mut got, &s, region, TileSpec::new(ty, tz), &pool);
        prop_assert_eq!(
            got.data(),
            want.data(),
            "n {n} region {region:?} tile {ty}x{tz} workers {workers}"
        );
    }

    /// Every SIMD tier (portable chunked loop, 4-lane AVX, 8-lane
    /// AVX-512 — unavailable tiers fall back) produces bitwise the naive
    /// per-element accumulation on blocks of one to four rows at
    /// **every** row width through three 16-wide chunks (and 100, 128),
    /// i.e. every masked-tail length alone and behind full chunks, in a
    /// dense layout (outputs and tap windows packed back to back) and a
    /// strided one (gaps between windows and rows). Source and
    /// destination are exact-length allocations ending with the last tap
    /// window and the last output row, so a lane or a row past either
    /// would leave its allocation; the payloads mix in −0.0, subnormals
    /// and (at most one per output — which of two NaN payloads a sum
    /// keeps is operand-order dependent) payload-carrying NaNs.
    #[test]
    fn every_simd_level_matches_the_naive_accumulation(
        seed in 1u64..u64::MAX,
    ) {
        let mut rng = TestRng::new(seed);
        let coef: [f64; 27] = std::array::from_fn(|_| rng.next_f64() * 2.0 - 1.0);
        for rows in 1usize..=4 {
            for width in (0usize..=48).chain([100, 128]) {
                for strided in [false, true] {
                    let (gap, pitch) = if strided {
                        (1 + (rng.next_u64() % 7) as usize, width + 3)
                    } else {
                        (0, width)
                    };
                    let b = TapBlock {
                        rows,
                        w: width,
                        dst: gap,
                        dst_stride: width + gap,
                        taps: std::array::from_fn(|t| t * pitch),
                        src_stride: 27 * pitch + gap,
                    };
                    let src_len = (rows - 1) * b.src_stride + b.taps[26] + width;
                    let dst_len = b.dst + (rows - 1) * b.dst_stride + width;
                    let mut src: Box<[f64]> = (0..src_len)
                        .map(|_| match rng.next_u64() % 16 {
                            0 => -0.0,
                            1 => f64::from_bits(rng.next_u64() >> 12),
                            _ => rng.next_f64() * 4.0 - 2.0,
                        })
                        .collect();
                    // Tap windows are disjoint, so each source value feeds
                    // one output: poisoning one tap of an output leaves it
                    // exactly one NaN.
                    for r in 0..rows {
                        for x in (0..width).filter(|x| x % 4 == 1) {
                            let t = (rng.next_u64() % 27) as usize;
                            src[b.taps[t] + r * b.src_stride + x] =
                                f64::from_bits(0x7ff8_0000_0000_0000 | rng.next_u64() >> 13);
                        }
                    }

                    let mut want = vec![1.5f64.to_bits(); dst_len];
                    for r in 0..rows {
                        for x in 0..width {
                            let mut acc = 0.0f64;
                            for t in 0..27 {
                                acc += coef[t] * src[b.taps[t] + r * b.src_stride + x];
                            }
                            want[b.dst + r * b.dst_stride + x] = acc.to_bits();
                        }
                    }
                    for level in [SimdLevel::Portable, SimdLevel::F64x4, SimdLevel::F64x8] {
                        let mut got = vec![1.5f64; dst_len].into_boxed_slice();
                        accumulate_block_at(level, &mut got, &src, &b, &coef);
                        let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                        prop_assert_eq!(
                            &got, &want,
                            "level {:?} rows {} width {} strided {}", level, rows, width, strided
                        );
                    }
                }
            }
        }
    }

    /// Tiles cover the region exactly once regardless of shape: summing
    /// a count field through the tile iterator marks every region point
    /// once and nothing outside.
    #[test]
    fn tiles_partition_the_region(
        n in 1usize..20,
        y0 in 0usize..19, ys in 0usize..19,
        z0 in 0usize..19, zs in 0usize..19,
        ty in 1usize..24, tz in 1usize..24,
    ) {
        let region = Range3::new((0, n as i64), sub_range(n.max(1), y0, ys), sub_range(n.max(1), z0, zs));
        let mut seen = std::collections::HashMap::new();
        for t in TileSpec::new(ty, tz).tiles(region) {
            for y in t.y.0..t.y.1 {
                for z in t.z.0..t.z.1 {
                    prop_assert_eq!(t.x, region.x, "tiles must keep whole x rows");
                    *seen.entry((y, z)).or_insert(0u32) += 1;
                }
            }
        }
        let expect = ((region.y.1 - region.y.0).max(0) * (region.z.1 - region.z.0).max(0)) as usize;
        prop_assert_eq!(seen.len(), expect);
        prop_assert!(seen.values().all(|&c| c == 1), "a point was tiled twice");
    }
}
