//! Cache blocking and thread partitioning for region sweeps.
//!
//! A 27-point sweep over a `(z, y)`-streamed region touches three source
//! z-planes per destination plane. Once a plane outgrows the private
//! cache (a 130²-plane of f64 is ~132 KiB; three of them overflow a
//! 512 KiB L2), every tap pass re-streams its operands from a farther
//! cache level. Blocking the sweep into y-bands whose three-plane
//! working set fits restores the reuse: each source row is read from L2
//! (up to nine times — three y-neighbors × three z-neighbors) instead of
//! from L3/DRAM.
//!
//! [`TileSpec`] carries the band sizes; [`TileSpec::for_cache`] derives
//! them from a cache size in bytes (the `machine` crate feeds Table II
//! cache parameters through this for modeled machines, and
//! [`TileSpec::host`] applies a typical per-core L2 budget for the
//! machine the benches actually run on). [`TileSpec::tiles`] enumerates
//! the tiles in a fixed deterministic order (z-major, then y), the order
//! the one sweep body visits them in; each tile writes a disjoint set of
//! output rows.

use crate::field::Range3;

/// Default per-core L2 working-set budget for the host heuristic, in
/// bytes: half of a conservative 512 KiB L2, leaving room for the
/// destination rows and everything else the core touches.
pub const HOST_L2_BUDGET_BYTES: usize = 256 * 1024;

/// Fallback y-band height when a heuristic degenerates (tiny caches or
/// enormous rows).
const MIN_TY: usize = 4;

/// Default z-band depth: z streams through the band, so `tz` sets how
/// many planes one tile spans, not the cache footprint.
const DEFAULT_TZ: usize = 16;

/// Cache-blocking specification for a region sweep: the sweep visits the
/// region in bands of `ty` consecutive y-rows by `tz` consecutive
/// z-planes (x always spans the full row — rows are the contiguous,
/// vectorized unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSpec {
    /// Rows of y per tile (≥ 1).
    pub ty: usize,
    /// Planes of z per tile (≥ 1).
    pub tz: usize,
}

impl TileSpec {
    /// A tile of explicit band sizes.
    pub fn new(ty: usize, tz: usize) -> Self {
        assert!(ty >= 1 && tz >= 1, "tile bands must be at least 1 wide");
        Self { ty, tz }
    }

    /// Bands sized so that three source planes of a `(ty + 2)`-row
    /// y-band of `sx`-wide rows fit in `cache_bytes`:
    /// `3 · (ty + 2) · sx · 8 ≤ cache_bytes`.
    pub fn for_cache(cache_bytes: usize, sx: usize) -> Self {
        let rows_budget = cache_bytes / (3 * sx.max(1) * std::mem::size_of::<f64>());
        let ty = rows_budget.saturating_sub(2).max(MIN_TY);
        Self { ty, tz: DEFAULT_TZ }
    }

    /// The host heuristic: [`TileSpec::for_cache`] at
    /// [`HOST_L2_BUDGET_BYTES`] for rows of allocated width `sx`.
    pub fn host(sx: usize) -> Self {
        Self::for_cache(HOST_L2_BUDGET_BYTES, sx)
    }

    /// Number of tiles covering `region`.
    pub fn count(&self, region: Range3) -> usize {
        let ny = (region.y.1 - region.y.0).max(0) as usize;
        let nz = (region.z.1 - region.z.0).max(0) as usize;
        if ny == 0 || nz == 0 {
            return 0;
        }
        ny.div_ceil(self.ty) * nz.div_ceil(self.tz)
    }

    /// The tiles covering `region`, in the fixed deterministic order
    /// (z-major, then y; x spans the region's full width). Tiles larger
    /// than the region clamp to it; an empty region yields no tiles.
    pub fn tiles(&self, region: Range3) -> impl Iterator<Item = Range3> + '_ {
        let ty = self.ty as i64;
        let tz = self.tz as i64;
        let empty = region.is_empty();
        (region.z.0..region.z.1)
            .step_by(self.tz)
            .flat_map(move |z0| {
                (region.y.0..region.y.1).step_by(self.ty).map(move |y0| {
                    Range3::new(
                        region.x,
                        (y0, (y0 + ty).min(region.y.1)),
                        (z0, (z0 + tz).min(region.z.1)),
                    )
                })
            })
            .filter(move |_| !empty)
    }
}

/// Evenly split the interior z-extent `nz` into cut points for a team of
/// `threads` (the threads-aware partitioner the overlap runners feed to
/// [`crate::field::Field3::z_slabs_mut`]): at most `threads` slabs, each
/// within one plane of the others, degenerate thin domains deduplicated.
pub fn z_cuts(nz: usize, threads: usize) -> Vec<i64> {
    let t = threads.min(nz).max(1);
    let mut cuts: Vec<i64> = (1..t)
        .map(|p| crate::team::split_static(0..nz, t, p).start as i64)
        .collect();
    cuts.dedup();
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_cover_region_exactly_once() {
        let spec = TileSpec::new(3, 5);
        let region = Range3::new((-1, 9), (0, 10), (2, 13));
        let mut seen = std::collections::HashSet::new();
        let mut count = 0;
        for tile in spec.tiles(region) {
            count += 1;
            assert_eq!(tile.x, region.x);
            for p in tile.iter() {
                assert!(seen.insert(p), "point {p:?} covered twice");
            }
        }
        assert_eq!(seen.len(), region.len());
        assert_eq!(count, spec.count(region));
    }

    #[test]
    fn degenerate_and_oversized_tiles() {
        let region = Range3::new((0, 4), (0, 4), (0, 4));
        // 1-wide bands: one tile per (y, z) pair.
        assert_eq!(TileSpec::new(1, 1).count(region), 16);
        // Tiles larger than the region clamp to one tile.
        let big = TileSpec::new(100, 100);
        let tiles: Vec<_> = big.tiles(region).collect();
        assert_eq!(tiles, vec![region]);
    }

    #[test]
    fn empty_region_has_no_tiles() {
        let spec = TileSpec::new(4, 4);
        let empty = Range3::new((0, 4), (2, 2), (0, 4));
        assert_eq!(spec.count(empty), 0);
        assert_eq!(spec.tiles(empty).count(), 0);
    }

    #[test]
    fn tile_order_is_z_major_deterministic() {
        let spec = TileSpec::new(2, 2);
        let region = Range3::new((0, 2), (0, 4), (0, 4));
        let tiles: Vec<_> = spec.tiles(region).collect();
        let again: Vec<_> = spec.tiles(region).collect();
        assert_eq!(tiles, again);
        // z advances slowest: first two tiles share z.
        assert_eq!(tiles[0].z, tiles[1].z);
        assert!(tiles[0].y.0 < tiles[1].y.0);
        assert!(tiles[0].z.1 <= tiles[2].z.1 && tiles[2].z.0 > tiles[0].z.0);
    }

    #[test]
    fn cache_heuristic_shrinks_with_row_width() {
        let narrow = TileSpec::for_cache(256 * 1024, 66);
        let wide = TileSpec::for_cache(256 * 1024, 514);
        assert!(narrow.ty > wide.ty);
        // Three planes of a (ty + 2)-band fit the budget.
        assert!(3 * (wide.ty + 2) * 514 * 8 <= 256 * 1024);
        assert!(wide.ty >= MIN_TY);
    }

    #[test]
    fn host_heuristic_blocks_the_bench_grid() {
        // 128³ + halo: full planes overflow the budget, so the heuristic
        // must split y into more than one band.
        let spec = TileSpec::host(130);
        assert!(spec.ty < 128, "128³ should be y-blocked, got {spec:?}");
        assert!(spec.ty >= MIN_TY && spec.tz >= 1);
    }

    #[test]
    fn z_cuts_partition_and_dedupe() {
        assert_eq!(z_cuts(8, 2), vec![4]);
        assert_eq!(z_cuts(9, 3), vec![3, 6]);
        assert!(z_cuts(4, 1).is_empty());
        // More threads than planes: at most nz slabs.
        assert_eq!(z_cuts(2, 8).len(), 1);
    }
}
