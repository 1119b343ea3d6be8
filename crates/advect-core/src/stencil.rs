//! The 27-point stencil kernel (Equation 2 of the paper).
//!
//! `apply_stencil_region` computes the new state over an arbitrary
//! sub-region of a field. Every implementation — serial, threaded,
//! partitioned-for-overlap, and the functional GPU kernels — funnels
//! through the same arithmetic, so all of them produce bit-identical
//! results (the operations are performed in the same order per point).
//!
//! # One body, one oracle
//!
//! Every entry point is a view (plain field, z-slab, shared writer,
//! shared source and writer, flat buffer — [`apply_stencil_flat`], the
//! body of `simgpu`'s functional stencil kernel) over **one** private
//! sweep body, which visits its region in cache-sized y/z tiles
//! ([`TileSpec`]) and computes each tile on one of two paths, both built
//! on the block kernel of [`crate::simd`] (`rows` output rows per call,
//! the row loop inside the vector body):
//!
//! * The **row path**: each z-plane of the tile is one
//!   [`accumulate_block`] call whose rows are the tile's x-rows, tap
//!   windows at fixed offsets from each row's own index.
//! * The **column path**, for tiles at most three points wide in x
//!   (the x-walls of an interior/boundary split, the CPU veneer of the
//!   hybrid runners): rows of one to three points are mostly masked
//!   tail, so the `w + 2` neighbouring columns are staged contiguously
//!   along y in a three-plane ring over z, and each staged plane is one
//!   call whose `w` rows are the y-contiguous output columns.
//!
//! The **scalar oracle** [`apply_stencil_region_scalar`] is the original
//! per-point loop, kept as the one reference the differential tests
//! compare every view, path and tile shape against.
//!
//! Bit-identity holds because each output element sees exactly the same
//! sequence of floating-point operations everywhere: start from `0.0`,
//! then add `coef[t] * src[...]` for taps `t = 0..27` in fixed order.
//! Both paths merely interchange the (point, tap) loops — lane-chunked in
//! the SIMD kernel — which never reorders the additions *within* one
//! output element (see the [`crate::simd`] module docs); tiling only
//! permutes the order in which whole tiles are produced.

use crate::coeffs::Stencil27;
use crate::field::{Field3, FieldDims, Range3, SharedField, ZSlabMut};
use crate::simd::{accumulate_block, accumulate_block_raw, level, rows_end, TapBlock};
use crate::tile::TileSpec;

/// Precompute the 27 flat-index offsets for an `(sx, sy)`-strided field,
/// in the fixed tap order (k slowest, i fastest). Tap `t` pairs with
/// coefficient `s.a[t]`: [`Stencil27`] stores its coefficients in this
/// same order.
#[inline]
pub(crate) fn tap_offsets(sx: usize, sy: usize) -> [i64; 27] {
    let stride_y = sx as i64;
    let stride_z = (sx * sy) as i64;
    let mut offs = [0i64; 27];
    let mut n = 0;
    for k in -1i64..=1 {
        for j in -1i64..=1 {
            for i in -1i64..=1 {
                offs[n] = i + j * stride_y + k * stride_z;
                n += 1;
            }
        }
    }
    offs
}

/// What a sweep reads: an x-fastest, halo'd allocation addressed by flat
/// index, so the 27 taps of a row are 27 windows at fixed offsets from
/// the row's own index.
trait TapSource {
    /// The allocation's layout.
    fn dims(&self) -> FieldDims;
    /// The whole allocation as a pointer and length. The sweep reads
    /// through it, checking bounds once per plane: a span of several rows
    /// holds points between them that another thread may be writing (the
    /// halo columns IV-D's master unpacks), so no slice may cover it.
    fn raw(&self) -> (*const f64, usize);
}

impl TapSource for SharedField<'_> {
    fn dims(&self) -> FieldDims {
        SharedField::dims(self)
    }
    fn raw(&self) -> (*const f64, usize) {
        let (p, len) = SharedField::raw(self);
        (p.cast_const(), len)
    }
}

/// A flat buffer laid out as `dims` — a [`Field3`]'s data, a device
/// buffer: read as a [`TapSource`] through `&[f64]`, written as a
/// [`RowSink`] through `&mut [f64]`.
struct Flat<T> {
    data: T,
    dims: FieldDims,
}

impl<'a> Flat<&'a [f64]> {
    fn of(field: &'a Field3) -> Self {
        Flat {
            data: field.data(),
            dims: field.dims(),
        }
    }
}

impl TapSource for Flat<&[f64]> {
    fn dims(&self) -> FieldDims {
        self.dims
    }
    fn raw(&self) -> (*const f64, usize) {
        (self.data.as_ptr(), self.data.len())
    }
}

/// What a sweep writes: x-rows of the region it was handed.
trait RowSink {
    /// The plane of rows starting at interior-relative `(x0, y0, z)`: a
    /// pointer to that point, the values from it to the end of the
    /// allocation, and the distance between rows. As for
    /// [`TapSource::raw`], the sweep writes through the pointer, checking
    /// bounds once per plane.
    fn plane_mut(&mut self, x0: i64, y0: i64, z: i64) -> (*mut f64, usize, usize);
}

impl RowSink for ZSlabMut<'_> {
    fn plane_mut(&mut self, x0: i64, y0: i64, z: i64) -> (*mut f64, usize, usize) {
        let i = self.idx(x0, y0, z);
        let rest = &mut self.data[i..];
        (rest.as_mut_ptr(), rest.len(), self.sx)
    }
}

impl RowSink for &SharedField<'_> {
    fn plane_mut(&mut self, x0: i64, y0: i64, z: i64) -> (*mut f64, usize, usize) {
        let (p, len) = SharedField::raw(self);
        let i = SharedField::index(self, x0, y0, z);
        assert!(i <= len, "plane start outside the field");
        // SAFETY: `i` is at most one past the end of the allocation.
        (unsafe { p.add(i) }, len - i, self.dims().strides().0)
    }
}

impl RowSink for Flat<&mut [f64]> {
    fn plane_mut(&mut self, x0: i64, y0: i64, z: i64) -> (*mut f64, usize, usize) {
        let i = self.dims.idx(x0, y0, z);
        let rest = &mut self.data[i..];
        (rest.as_mut_ptr(), rest.len(), self.dims.strides().0)
    }
}

/// Widest tile (in x) that takes the column path.
const THIN_W: usize = 3;

/// The one sweep body: Equation 2 over `region`, tile by tile, each tile
/// on the column path when it is thin in x and taller than wide (a
/// region thin in x *and* y has no long axis to stage along), on the
/// row path otherwise.
fn sweep<S: TapSource, D: RowSink>(
    src: &S,
    dst: &mut D,
    coef: &[f64; 27],
    region: Range3,
    tile: TileSpec,
) {
    for t in tile.tiles(region) {
        sweep_tile(src, dst, coef, t);
    }
}

fn sweep_tile<S: TapSource, D: RowSink>(src: &S, dst: &mut D, coef: &[f64; 27], t: Range3) {
    let w = (t.x.1 - t.x.0) as usize;
    let h = (t.y.1 - t.y.0) as usize;
    if w <= THIN_W && h > w {
        return sweep_columns(src, dst, coef, t);
    }
    let d = src.dims();
    let (sx, sy) = d.strides();
    let offs = tap_offsets(sx, sy);
    let (sp, slen) = src.raw();
    for z in t.z.0..t.z.1 {
        let base = d.idx(t.x.0, t.y.0, z) as i64;
        let (dp, dlen, dst_stride) = dst.plane_mut(t.x.0, t.y.0, z);
        let b = TapBlock {
            rows: h,
            w,
            dst: 0,
            dst_stride,
            taps: std::array::from_fn(|tap| (base + offs[tap]) as usize),
            src_stride: sx,
        };
        // SAFETY: the block reads exactly the points a stencil application
        // over this tile plane reads and writes exactly its points; each
        // view's contract keeps other threads off both for the sweep.
        unsafe { accumulate_block_raw(level(), (dp, dlen), (sp, slen), &b, coef) }
    }
}

/// The column path over one thin tile `r`, `w` wide and `h` tall.
///
/// Marches z through a three-slot ring of staged planes. A staged plane
/// holds the `w + 2` columns `x ∈ r.x.0 − 1 ..= r.x.1`, each contiguous
/// along `y ∈ r.y.0 − 1 ..= r.y.1`, so tap `(dz, dy, dx)` of output
/// column `c` is the length-`h` window starting at `dy` of column
/// `c + dx` in plane `z + dz − 1` — taps still in coefficient order
/// (plane slowest, then y, then x), hence bit-identical to the row path.
/// One block call per plane computes all `w` columns: its rows are the
/// columns, `ch` apart in the ring and `h` apart in `out`.
fn sweep_columns<S: TapSource, D: RowSink>(src: &S, dst: &mut D, coef: &[f64; 27], r: Range3) {
    let w = (r.x.1 - r.x.0) as usize;
    let h = (r.y.1 - r.y.0) as usize;
    let (cols, ch) = (w + 2, h + 2);
    let plane = cols * ch;
    let mut scratch = vec![0.0f64; 3 * plane + w * h];
    let (ring, out) = scratch.split_at_mut(3 * plane);
    let d = src.dims();
    let (sx, _) = d.strides();
    let (sp, slen) = src.raw();
    // Plane `z` lives in slot `(z - r.z.0 + 1) % 3`: a transpose of its
    // `h + 2` source rows, each `w + 2` wide.
    let stage = |ring: &mut [f64], k: usize, z: i64| {
        let slot = &mut ring[k % 3 * plane..][..plane];
        let i0 = d.idx(r.x.0 - 1, r.y.0 - 1, z);
        assert!(
            rows_end(i0, ch, sx, cols).is_some_and(|e| e <= slen),
            "staged plane outside the source"
        );
        for j in 0..ch {
            for c in 0..cols {
                // SAFETY: inside the rows checked above, which a stencil
                // over `r` reads; the view's contract keeps writers off.
                slot[c * ch + j] = unsafe { *sp.add(i0 + j * sx + c) };
            }
        }
    };
    stage(ring, 0, r.z.0 - 1);
    stage(ring, 1, r.z.0);
    for (k, z) in (r.z.0..r.z.1).enumerate() {
        stage(ring, k + 2, z + 1);
        let b = TapBlock {
            rows: w,
            w: h,
            dst: 0,
            dst_stride: h,
            taps: std::array::from_fn(|t| {
                let (dz, dy, dx) = (t / 9, t / 3 % 3, t % 3);
                (k + dz) % 3 * plane + dx * ch + dy
            }),
            src_stride: ch,
        };
        accumulate_block(out, ring, &b, coef);
        let (dp, dlen, stride) = dst.plane_mut(r.x.0, r.y.0, z);
        assert!(
            rows_end(0, h, stride, w).is_some_and(|e| e <= dlen),
            "column scatter outside the destination"
        );
        for j in 0..h {
            for c in 0..w {
                // SAFETY: inside the rows checked above, all points of `r`
                // this thread owns per the view's contract.
                unsafe { *dp.add(j * stride + c) = out[c * h + j] };
            }
        }
    }
}

/// Apply Equation 2 to `region` of `src`, writing into the same region of
/// `dst`. `src` must have valid halo/neighbor values for every point that
/// `region` touches (one point in every direction).
///
/// Visits the region in cache-sized tiles ([`TileSpec::host`]); tiling
/// only reorders whole tiles, so the result is bit-identical to the
/// untiled sweep.
///
/// Cost: 53 flops per point (27 multiplications + 26 additions), exactly
/// the count the paper uses to convert measured time into GF.
pub fn apply_stencil_region(src: &Field3, dst: &mut Field3, s: &Stencil27, region: Range3) {
    let dims = dst.dims();
    apply_stencil_flat(src.data(), src.dims(), dst.data_mut(), dims, &s.a, region);
}

/// Apply the stencil to the entire interior of `src`.
pub fn apply_stencil_interior(src: &Field3, dst: &mut Field3, s: &Stencil27) {
    let region = src.interior_range();
    apply_stencil_region(src, dst, s, region);
}

/// Apply Equation 2 to `region` of a flat buffer `src` laid out as
/// `src_dims`, writing the same region of `dst` laid out as `dst_dims` —
/// the body of [`apply_stencil_region`] and of the functional GPU
/// kernels (device buffers, staged chunks). The layouts share one
/// interior and may differ in halo width: `src` needs a halo for the
/// taps of `region`, `dst` may have none. Tiled with
/// [`TileSpec::host`].
pub fn apply_stencil_flat(
    src: &[f64],
    src_dims: FieldDims,
    dst: &mut [f64],
    dst_dims: FieldDims,
    coef: &[f64; 27],
    region: Range3,
) {
    assert_eq!(
        src.len(),
        src_dims.len(),
        "source is not laid out as {src_dims:?}"
    );
    assert_eq!(
        dst.len(),
        dst_dims.len(),
        "destination is not laid out as {dst_dims:?}"
    );
    assert_eq!(
        src_dims.interior(),
        dst_dims.interior(),
        "interiors must match"
    );
    assert!(
        src_dims.interior().covers(&region) && (region.is_empty() || src_dims.halo >= 1),
        "{region:?} and its taps must lie inside {src_dims:?}"
    );
    let src = Flat {
        data: src,
        dims: src_dims,
    };
    let mut dst = Flat {
        data: dst,
        dims: dst_dims,
    };
    let tile = TileSpec::host(src_dims.strides().0);
    sweep(&src, &mut dst, coef, region, tile);
}

/// Scalar per-point oracle: the reference implementation every view,
/// path and tile shape is differentially tested against.
pub fn apply_stencil_region_scalar(src: &Field3, dst: &mut Field3, s: &Stencil27, region: Range3) {
    assert_eq!(src.interior(), dst.interior(), "field sizes must match");
    let (sx, sy, _) = src.extents();
    let offs = tap_offsets(sx, sy);
    let coef = s.a;
    let sd = src.data();
    for z in region.z.0..region.z.1 {
        for y in region.y.0..region.y.1 {
            if region.x.1 <= region.x.0 {
                continue;
            }
            let row_src = src.idx(region.x.0, y, z) as i64;
            let row_dst = dst.idx(region.x.0, y, z);
            let w = (region.x.1 - region.x.0) as usize;
            let dd = dst.data_mut();
            for ix in 0..w {
                let base = row_src + ix as i64;
                // Accumulate the 27 taps in fixed order so all execution
                // strategies produce bit-identical sums.
                let mut acc = 0.0;
                for t in 0..27 {
                    acc += coef[t] * sd[(base + offs[t]) as usize];
                }
                dd[row_dst + ix] = acc;
            }
        }
    }
}

/// Apply Equation 2 to the part of `region` owned by a mutable z-slab of
/// the destination field. Used by the threaded steppers: each thread owns a
/// disjoint [`ZSlabMut`] so the writes are data-race-free by
/// construction.
pub fn apply_stencil_slab_tiled(
    src: &Field3,
    dst: &mut ZSlabMut<'_>,
    s: &Stencil27,
    region: Range3,
    tile: TileSpec,
) {
    let clipped = dst.owned_region(region);
    sweep(&Flat::of(src), dst, &s.a, clipped, tile);
}

/// Apply Equation 2 to `region`, writing through a [`SharedField`] so
/// that multiple threads with *disjoint* regions can fill one destination
/// field concurrently (the CPU walls of implementation IV-H).
pub fn apply_stencil_shared_tiled(
    src: &Field3,
    mut dst: &SharedField<'_>,
    s: &Stencil27,
    region: Range3,
    tile: TileSpec,
) {
    sweep(&Flat::of(src), &mut dst, &s.a, region, tile);
}

/// Apply Equation 2 reading *and* writing through [`SharedField`]s.
///
/// Used when the source field is concurrently mutated in a disjoint
/// region by another thread (implementation IV-D: the master exchanges
/// halos while workers compute interior points) — every access goes
/// through `UnsafeCell`, so the overlap is sound as long as the regions
/// stay disjoint, which the interior/boundary split guarantees.
pub fn apply_stencil_cells_tiled(
    src: &SharedField<'_>,
    mut dst: &SharedField<'_>,
    s: &Stencil27,
    region: Range3,
    tile: TileSpec,
) {
    sweep(src, &mut dst, &s.a, region, tile);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coeffs::Velocity;

    fn filled(n: usize, f: impl FnMut(i64, i64, i64) -> f64) -> Field3 {
        let mut fld = Field3::new(n, n, n, 1);
        fld.fill_interior(f);
        fld.copy_periodic_halo();
        fld
    }

    #[test]
    fn constant_field_is_preserved() {
        let s = Stencil27::new(Velocity::new(0.7, -0.4, 0.2), 0.9);
        let src = filled(6, |_, _, _| 3.25);
        let mut dst = Field3::new(6, 6, 6, 1);
        apply_stencil_interior(&src, &mut dst, &s);
        for (x, y, z) in dst.interior_range().iter() {
            assert!((dst.at(x, y, z) - 3.25).abs() < 1e-13);
        }
    }

    #[test]
    fn unit_courant_shifts_by_one_cell() {
        let s = Stencil27::at_max_stable_nu(Velocity::unit_diagonal());
        let src = filled(8, |x, y, z| (x + 10 * y + 100 * z) as f64);
        let mut dst = Field3::new(8, 8, 8, 1);
        apply_stencil_interior(&src, &mut dst, &s);
        // u_new(x) = u_old(x - 1) in every dimension (with wrap via halo).
        for (x, y, z) in dst.interior_range().iter() {
            let expect = src.at(x - 1, y - 1, z - 1);
            assert!(
                (dst.at(x, y, z) - expect).abs() < 1e-12,
                "at ({x},{y},{z}): got {} expected {expect}",
                dst.at(x, y, z)
            );
        }
    }

    #[test]
    fn region_application_matches_full() {
        let s = Stencil27::new(Velocity::new(1.0, 0.5, 0.25), 0.8);
        let src = filled(7, |x, y, z| ((x * 3 + y * 5 + z * 7) % 11) as f64);
        let mut full = Field3::new(7, 7, 7, 1);
        apply_stencil_interior(&src, &mut full, &s);
        // Apply in 4 disjoint regions; result must be identical.
        let mut piecewise = Field3::new(7, 7, 7, 1);
        let regions = [
            Range3::new((0, 7), (0, 7), (0, 2)),
            Range3::new((0, 7), (0, 7), (2, 5)),
            Range3::new((0, 3), (0, 7), (5, 7)),
            Range3::new((3, 7), (0, 7), (5, 7)),
        ];
        for r in regions {
            apply_stencil_region(&src, &mut piecewise, &s, r);
        }
        assert_eq!(full.max_abs_diff(&piecewise), 0.0);
    }

    #[test]
    fn empty_region_is_noop() {
        let s = Stencil27::new(Velocity::unit_diagonal(), 0.5);
        let src = filled(4, |x, _, _| x as f64);
        let mut dst = Field3::new(4, 4, 4, 1);
        apply_stencil_region(&src, &mut dst, &s, Range3::new((2, 2), (0, 4), (0, 4)));
        for (x, y, z) in dst.interior_range().iter() {
            assert_eq!(dst.at(x, y, z), 0.0);
        }
    }

    #[test]
    fn fast_path_matches_scalar_oracle_exactly() {
        let s = Stencil27::new(Velocity::new(0.37, -0.81, 0.59), 0.93);
        let src = filled(9, |x, y, z| {
            ((x * 37 + y * 91 + z * 13) % 17) as f64 * 0.193 - 1.1
        });
        // Irregular sub-regions, including empty and single-row ones.
        let regions = [
            src.interior_range(),
            Range3::new((1, 8), (2, 7), (0, 9)),
            Range3::new((0, 1), (0, 9), (4, 5)),
            Range3::new((3, 3), (0, 9), (0, 9)),
            Range3::new((2, 6), (8, 9), (1, 2)),
        ];
        for r in regions {
            let mut fast = Field3::new(9, 9, 9, 1);
            let mut scalar = Field3::new(9, 9, 9, 1);
            apply_stencil_region(&src, &mut fast, &s, r);
            apply_stencil_region_scalar(&src, &mut scalar, &s, r);
            assert_eq!(fast.max_abs_diff(&scalar), 0.0, "region {r:?}");
            assert_eq!(fast.data(), scalar.data(), "region {r:?} (incl. halo)");
        }
    }

    #[test]
    fn shared_writer_matches_direct_under_threads() {
        use crate::field::SharedField;
        use crate::team::{Schedule, ThreadTeam};
        use crate::tile::TileSpec;
        let s = Stencil27::new(Velocity::new(0.9, 0.4, -0.6), 0.85);
        let src = filled(10, |x, y, z| ((x * 5 + y * 3 + z) % 9) as f64);
        let mut direct = Field3::new(10, 10, 10, 1);
        apply_stencil_interior(&src, &mut direct, &s);
        let mut shared = Field3::new(10, 10, 10, 1);
        {
            let writer = SharedField::new(&mut shared);
            let team = ThreadTeam::new(4);
            let src_ref = &src;
            let s_ref = &s;
            team.parallel_for(0..10, Schedule::guided(), |zr| {
                let region = Range3::new((0, 10), (0, 10), (zr.start as i64, zr.end as i64));
                apply_stencil_shared_tiled(src_ref, &writer, s_ref, region, TileSpec::host(12));
            });
        }
        assert_eq!(direct.max_abs_diff(&shared), 0.0);
    }

    #[test]
    fn slab_shared_and_cells_views_match_scalar_oracle() {
        use crate::field::SharedField;
        use crate::tile::TileSpec;
        let s = Stencil27::new(Velocity::new(0.9, 0.2, -0.5), 0.77);
        let src = filled(8, |x, y, z| ((x * 5 + y * 11 + z * 3) % 7) as f64 * 0.31);
        // A row-path region and a column-path x-wall, host and tiny tiles.
        for region in [
            Range3::new((0, 8), (1, 8), (0, 7)),
            Range3::new((7, 8), (0, 8), (0, 8)),
        ] {
            let mut reference = Field3::new(8, 8, 8, 1);
            apply_stencil_region_scalar(&src, &mut reference, &s, region);
            for tile in [TileSpec::host(10), TileSpec::new(2, 3)] {
                let mut via_slab = Field3::new(8, 8, 8, 1);
                for slab in &mut via_slab.z_slabs_mut(&[3]) {
                    apply_stencil_slab_tiled(&src, slab, &s, region, tile);
                }
                assert_eq!(reference.data(), via_slab.data());

                let mut via_shared = Field3::new(8, 8, 8, 1);
                {
                    let writer = SharedField::new(&mut via_shared);
                    apply_stencil_shared_tiled(&src, &writer, &s, region, tile);
                }
                assert_eq!(reference.data(), via_shared.data());

                let mut src_cells = src.clone();
                let mut via_cells = Field3::new(8, 8, 8, 1);
                {
                    let sc = SharedField::new(&mut src_cells);
                    let dc = SharedField::new(&mut via_cells);
                    apply_stencil_cells_tiled(&sc, &dc, &s, region, tile);
                }
                assert_eq!(reference.data(), via_cells.data());
            }
        }
    }

    #[test]
    fn linearity_of_the_operator() {
        let s = Stencil27::new(Velocity::new(0.3, 0.9, -0.5), 0.7);
        let a = filled(5, |x, y, z| (x * x + y + z) as f64);
        let b = filled(5, |x, y, z| ((x + y * z) % 7) as f64);
        let mut combo = Field3::new(5, 5, 5, 1);
        combo.fill_interior(|x, y, z| 2.0 * a.at(x, y, z) - 3.0 * b.at(x, y, z));
        combo.copy_periodic_halo();
        let mut ra = Field3::new(5, 5, 5, 1);
        let mut rb = Field3::new(5, 5, 5, 1);
        let mut rc = Field3::new(5, 5, 5, 1);
        apply_stencil_interior(&a, &mut ra, &s);
        apply_stencil_interior(&b, &mut rb, &s);
        apply_stencil_interior(&combo, &mut rc, &s);
        for (x, y, z) in rc.interior_range().iter() {
            let expect = 2.0 * ra.at(x, y, z) - 3.0 * rb.at(x, y, z);
            assert!((rc.at(x, y, z) - expect).abs() < 1e-10);
        }
    }
}
