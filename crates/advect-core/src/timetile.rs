//! Temporal blocking: fuse `k` Lax–Wendroff steps into one traversal.
//!
//! PR 6 made a single sweep fast; this module makes *multi-step* runs
//! fast by applying the stencil `k` times per grid traversal, so a
//! larger-than-LLC grid streams through memory once per `k` steps
//! instead of once per step (and skips the per-step interior copy and
//! halo refill entirely — fused traversals write a second field and
//! swap).
//!
//! ## Scheme: overlapped trapezoid tiles
//!
//! Each y×z [`TileSpec`] tile is processed to completion before the
//! next: sub-step `s ∈ 0..k` computes the tile *expanded* by
//! `e = k−1−s` points in x, y, and z, writing a private scratch
//! buffer; the final sub-step (`e = 0`) computes exactly the owned
//! tile and writes it to the destination field. The expanded "skirt"
//! points are recomputed redundantly by adjacent tiles, which is what
//! makes tiles independent: no inter-tile ordering, no wavefront
//! dependency — the [`SweepPool`] may run them in any order on any
//! worker and the result is identical.
//!
//! ## Why this is bit-identical to `k` straight steps
//!
//! Two ingredients, both inherited from PR 1/PR 6:
//!
//! 1. Every point, fused or not, is computed by the same fixed-order
//!    27-tap accumulation (`acc += a[t]·src[t]`, `t = 0..27`, no FMA),
//!    so a point's value depends only on its 27 source values — never
//!    on *where* or *when* it is computed.
//! 2. Sub-step 0 reads skirt sources from the periodic halo, whose
//!    values are exact bitwise copies of wrapped interior points; so a
//!    skirt result equals the wrapped interior result bitwise, and by
//!    induction every later sub-step reads sources bitwise-equal to
//!    what a straight step-at-a-time run (halo refill between steps)
//!    would read. Tile order is therefore a bit-neutral permutation of
//!    the same scalar operations — the same argument `deep_halo`'s
//!    depth-k exchange has relied on since PR 2, now applied within a
//!    node.
//!
//! The redundant-compute overhead is `Π((tᵢ+2ē)/tᵢ)` per dimension
//! (`ē` = mean expansion `(k−1)/2`), so fused traversals want much
//! larger tiles than the L2-resident single-sweep default:
//! [`tile_for_host`] budgets the two scratch buffers against the
//! detected last-level cache instead.

use crate::coeffs::Stencil27;
use crate::field::{Field3, Range3, SharedField};
use crate::sweep::SweepPool;
use crate::tile::TileSpec;

/// Parse an `ADVECT_TIME_TILE` value: the number of fused steps per
/// traversal, a positive integer.
pub fn parse_steps(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(k) if k >= 1 => Ok(k),
        _ => Err(format!(
            "ADVECT_TIME_TILE={v:?}: expected a positive integer (steps per traversal)"
        )),
    }
}

/// The `ADVECT_TIME_TILE` override, if set.
///
/// # Panics
///
/// On a malformed value — a mistyped knob must fail the run, not
/// silently measure the default configuration.
pub fn env_steps() -> Option<usize> {
    std::env::var("ADVECT_TIME_TILE")
        .ok()
        .map(|v| parse_steps(&v).unwrap_or_else(|e| panic!("{e}")))
}

/// Tile choice for a fused traversal of depth `steps` on this host:
/// `ADVECT_TILE` if set, else a square y×z tile sized so one worker's
/// two scratch buffers fit its share of half the detected LLC. For
/// `steps == 1` this is exactly [`TileSpec::host`] — the classic
/// L2-resident single-sweep heuristic.
pub fn tile_for_host(sx: usize, steps: usize, workers: usize) -> TileSpec {
    if let Some(t) = crate::tile::env_override() {
        return t;
    }
    if steps <= 1 {
        return TileSpec::host(sx);
    }
    tile_for_cache(
        crate::numa::host_llc_bytes() / 2 / workers.max(1),
        sx,
        steps,
    )
}

/// The LLC-budget heuristic behind [`tile_for_host`]: the largest
/// square y×z tile whose scratch pair — two buffers of
/// `(sx+2(k−1)) · (t+2(k−1))²` doubles — fits `cache_bytes`. Large
/// tiles amortize the skirt: at `t ≈ 10·(k−1)` the redundant-compute
/// factor stays under ~1.2× while the traversal still touches each
/// point once per `k` steps.
pub fn tile_for_cache(cache_bytes: usize, sx: usize, steps: usize) -> TileSpec {
    let skirt = 2 * (steps - 1);
    let per_plane = 2 * 8 * (sx + skirt);
    let planes = cache_bytes / per_plane.max(1);
    let t = (planes as f64).sqrt() as usize;
    let t = t.saturating_sub(skirt).max(4);
    TileSpec::new(t, t)
}

/// Advance `region` of `cur` by `steps` fused applications of the
/// stencil, writing the final values into the same region of `dst`.
///
/// Contract: `cur` holds valid source values to depth `steps` beyond
/// `region` in every direction (for the interior of a halo-`h` field
/// that means `steps ≤ h`, with the halo freshly filled), and `cur`
/// and `dst` share extents and halo width. `cur` is not modified;
/// `dst`'s region is fully overwritten and nothing outside it is
/// touched.
///
/// Tiles are farmed out over `pool` and each processed to completion
/// with per-worker scratch; the result is bit-identical to `steps`
/// straight sweeps (with halo refills between them) at any worker
/// count and any tile shape — see the module docs for why.
pub fn advance_pooled(
    cur: &Field3,
    dst: &mut Field3,
    s: &Stencil27,
    region: Range3,
    steps: usize,
    tile: TileSpec,
    pool: &SweepPool,
) {
    assert!(steps >= 1, "need at least one fused step");
    if region.is_empty() {
        return;
    }
    if steps == 1 {
        // One step needs no scratch: the classic pooled tiled sweep is
        // the same computation.
        crate::stencil::apply_stencil_region_pooled(cur, dst, s, region, tile, pool);
        return;
    }
    assert_eq!(cur.extents(), dst.extents(), "field extents must match");
    assert_eq!(cur.halo(), dst.halo(), "halo widths must match");
    let b = steps as i64;
    let full = cur.full_range();
    let needed = Range3::new(
        (region.x.0 - b, region.x.1 + b),
        (region.y.0 - b, region.y.1 + b),
        (region.z.0 - b, region.z.1 + b),
    );
    assert_eq!(
        needed.intersect(&full),
        needed,
        "time tile depth {steps} reads outside the allocation; \
         the field needs halo >= {steps}"
    );

    let e0 = steps - 1;
    let wx = (region.x.1 - region.x.0) as usize;
    let wy = (region.y.1 - region.y.0) as usize;
    let wz = (region.z.1 - region.z.0) as usize;
    // Scratch capacity for the largest (clamped) tile at maximum
    // expansion; edge tiles are smaller and reuse the same buffers
    // with their own strides.
    let cap = (wx + 2 * e0) * (tile.ty.min(wy) + 2 * e0) * (tile.tz.min(wz) + 2 * e0);

    let tiles: Vec<Range3> = tile.tiles(region).collect();
    let coef = s.a;
    let (cxs, cys, _) = cur.extents();
    let cur_offs = crate::stencil::tap_offsets(cxs, cys);
    let shared = SharedField::new(dst);
    pool.for_each_index_with(
        tiles.len(),
        || (vec![0.0f64; cap], vec![0.0f64; cap]),
        |(front, back), i| {
            fuse_tile(cur, &cur_offs, &shared, &coef, tiles[i], steps, front, back);
        },
    );
}

/// Run all `steps` sub-steps of one trapezoid tile: sub-step `s`
/// computes the tile expanded by `e0−s`, ping-ponging between the two
/// scratch buffers; the final sub-step writes the owned tile rows into
/// `out` (disjoint across tiles, so the shared write is race-free).
#[allow(clippy::too_many_arguments)]
fn fuse_tile(
    cur: &Field3,
    cur_offs: &[i64; 27],
    out: &SharedField<'_>,
    coef: &[f64; 27],
    t: Range3,
    steps: usize,
    front: &mut [f64],
    back: &mut [f64],
) {
    let e0 = (steps - 1) as i64;
    // Scratch covers the tile expanded by e0, x fastest.
    let (ox, oy, oz) = (t.x.0 - e0, t.y.0 - e0, t.z.0 - e0);
    let pxs = ((t.x.1 - t.x.0) + 2 * e0) as usize;
    let pys = ((t.y.1 - t.y.0) + 2 * e0) as usize;
    let scratch_offs = crate::stencil::tap_offsets(pxs, pys);
    let sidx = |x: i64, y: i64, z: i64| -> usize {
        ((x - ox) + (pxs as i64) * ((y - oy) + (pys as i64) * (z - oz))) as usize
    };

    let (mut src_buf, mut dst_buf) = (front, back);
    for sub in 0..steps {
        let e = e0 - sub as i64;
        let o = Range3::new(
            (t.x.0 - e, t.x.1 + e),
            (t.y.0 - e, t.y.1 + e),
            (t.z.0 - e, t.z.1 + e),
        );
        let w = (o.x.1 - o.x.0) as usize;
        let last = sub == steps - 1;
        for z in o.z.0..o.z.1 {
            for y in o.y.0..o.y.1 {
                // Sub-step 0 reads the (immutable) source field; later
                // sub-steps read the previous scratch generation. Both
                // stay in bounds: each sub-step shrinks the output by
                // one, so its depth-1 reads lie within what the
                // previous sub-step wrote (or within the field's halo).
                let dst_row: &mut [f64] = if last {
                    // SAFETY: e == 0 so this is an owned-tile row;
                    // tiles partition the region disjointly and whole
                    // rows belong to exactly one tile.
                    unsafe { out.row_mut(o.x.0, y, z, w) }
                } else {
                    let d0 = sidx(o.x.0, y, z);
                    &mut dst_buf[d0..d0 + w]
                };
                if sub == 0 {
                    let base = cur.idx(o.x.0, y, z) as i64;
                    fused_row(dst_row, cur.data(), base, cur_offs, coef);
                } else {
                    let base = sidx(o.x.0, y, z) as i64;
                    fused_row(dst_row, src_buf, base, &scratch_offs, coef);
                }
            }
        }
        if !last {
            std::mem::swap(&mut src_buf, &mut dst_buf);
        }
    }
}

/// One output row of one sub-step: the fixed-order 27-tap accumulation
/// against a strided source.
#[inline]
fn fused_row(dst_row: &mut [f64], src: &[f64], base: i64, offs: &[i64; 27], coef: &[f64; 27]) {
    let w = dst_row.len();
    let rows: [&[f64]; 27] = std::array::from_fn(|t| {
        let s0 = (base + offs[t]) as usize;
        &src[s0..s0 + w]
    });
    crate::stencil::accumulate_tap_rows(dst_row, &rows, coef);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeffs::Velocity;
    use crate::stencil::apply_stencil_region;

    fn filled(n: usize, halo: usize) -> Field3 {
        let mut f = Field3::new(n, n, n, halo);
        f.fill_interior(|x, y, z| ((x * 31 + y * 17 + z * 7) % 23) as f64 * 0.25 - 1.0);
        f
    }

    fn stencil() -> Stencil27 {
        Stencil27::new(Velocity::new(1.0, 0.5, 0.25), 0.9)
    }

    /// k straight sweeps with halo refills between them — the oracle
    /// every fused traversal must match bitwise.
    fn straight_steps(n: usize, halo: usize, steps: usize) -> Field3 {
        let s = stencil();
        let mut cur = filled(n, halo);
        let mut tmp = Field3::new(n, n, n, halo);
        for _ in 0..steps {
            cur.copy_periodic_halo();
            apply_stencil_region(&cur, &mut tmp, &s, cur.interior_range());
            cur.copy_interior_from(&tmp);
        }
        cur
    }

    fn fused(n: usize, halo: usize, steps: usize, tile: TileSpec, workers: usize) -> Field3 {
        let s = stencil();
        let mut cur = filled(n, halo);
        cur.copy_periodic_halo();
        let mut dst = Field3::new(n, n, n, halo);
        let pool = SweepPool::new(workers);
        advance_pooled(&cur, &mut dst, &s, cur.interior_range(), steps, tile, &pool);
        dst
    }

    fn assert_interior_bits_equal(a: &Field3, b: &Field3) {
        for (x, y, z) in a.interior_range().iter() {
            assert_eq!(
                a.at(x, y, z).to_bits(),
                b.at(x, y, z).to_bits(),
                "mismatch at ({x}, {y}, {z})"
            );
        }
    }

    #[test]
    fn fused_traversal_matches_straight_steps_bitwise() {
        for steps in [1usize, 2, 3, 4] {
            let oracle = straight_steps(10, steps, steps);
            for workers in [1usize, 3] {
                let got = fused(10, steps, steps, TileSpec::new(3, 2), workers);
                assert_interior_bits_equal(&got, &oracle);
            }
        }
    }

    #[test]
    fn degenerate_tiles_and_oversized_halos_are_fine() {
        // halo deeper than the fused depth, 1×1 tiles, more workers
        // than tiles in a dimension.
        let oracle = straight_steps(6, 4, 3);
        let got = fused(6, 4, 3, TileSpec::new(1, 1), 5);
        assert_interior_bits_equal(&got, &oracle);
        let got = fused(6, 4, 3, TileSpec::new(64, 64), 2);
        assert_interior_bits_equal(&got, &oracle);
    }

    #[test]
    #[should_panic(expected = "halo >= 3")]
    fn rejects_depth_beyond_the_halo() {
        fused(8, 1, 3, TileSpec::new(4, 4), 1);
    }

    #[test]
    fn steps_parse_is_strict() {
        assert_eq!(parse_steps("4"), Ok(4));
        assert_eq!(parse_steps(" 2 "), Ok(2));
        assert!(parse_steps("0").is_err());
        assert!(parse_steps("-1").is_err());
        assert!(parse_steps("4x2").is_err());
        assert!(parse_steps("").is_err());
    }

    #[test]
    fn cache_tile_grows_with_budget_and_shrinks_with_depth() {
        let small = tile_for_cache(2 * 1024 * 1024, 130, 4);
        let big = tile_for_cache(128 * 1024 * 1024, 130, 4);
        assert!(big.ty > small.ty);
        let shallow = tile_for_cache(32 * 1024 * 1024, 130, 2);
        let deep = tile_for_cache(32 * 1024 * 1024, 130, 8);
        assert!(shallow.ty >= deep.ty);
        assert!(deep.ty >= 4);
    }
}
