//! Three-dimensional scalar fields with halo (ghost) points.
//!
//! Storage is a single contiguous `Vec<f64>` with **x fastest** (the
//! Fortran-style layout the paper uses), so x-lines are contiguous in
//! memory. A field of interior size `nx × ny × nz` with halo width `h`
//! allocates `(nx+2h) × (ny+2h) × (nz+2h)` points; interior-relative
//! coordinates run from `-h` to `n+h-1` in each dimension.

/// Inclusive-exclusive 3-D index range in interior-relative coordinates.
///
/// `x` spans `x.0 .. x.1`, etc. Coordinates may extend into the halo
/// (negative, or ≥ the interior size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range3 {
    /// Half-open x range.
    pub x: (i64, i64),
    /// Half-open y range.
    pub y: (i64, i64),
    /// Half-open z range.
    pub z: (i64, i64),
}

impl Range3 {
    /// A new range from half-open per-dimension bounds.
    pub fn new(x: (i64, i64), y: (i64, i64), z: (i64, i64)) -> Self {
        Self { x, y, z }
    }

    /// Number of points in the range (0 if any dimension is empty).
    pub fn len(&self) -> usize {
        let dx = (self.x.1 - self.x.0).max(0) as usize;
        let dy = (self.y.1 - self.y.0).max(0) as usize;
        let dz = (self.z.1 - self.z.0).max(0) as usize;
        dx * dy * dz
    }

    /// Whether the range contains no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over `(x, y, z)` tuples, x fastest.
    pub fn iter(&self) -> impl Iterator<Item = (i64, i64, i64)> + '_ {
        let r = *self;
        (r.z.0..r.z.1).flat_map(move |z| {
            (r.y.0..r.y.1).flat_map(move |y| (r.x.0..r.x.1).map(move |x| (x, y, z)))
        })
    }

    /// Intersection of two ranges.
    pub fn intersect(&self, other: &Range3) -> Range3 {
        Range3::new(
            (self.x.0.max(other.x.0), self.x.1.min(other.x.1)),
            (self.y.0.max(other.y.0), self.y.1.min(other.y.1)),
            (self.z.0.max(other.z.0), self.z.1.min(other.z.1)),
        )
    }

    /// Whether a point lies inside this range.
    pub fn contains(&self, x: i64, y: i64, z: i64) -> bool {
        x >= self.x.0
            && x < self.x.1
            && y >= self.y.0
            && y < self.y.1
            && z >= self.z.0
            && z < self.z.1
    }
}

/// A 3-D scalar field with halo points, x-fastest contiguous storage.
///
/// ```
/// use advect_core::field::Field3;
/// let mut f = Field3::new(4, 4, 4, 1);
/// f.fill_interior(|x, y, z| (x + 10 * y + 100 * z) as f64);
/// f.copy_periodic_halo();
/// // Halo points wrap around the periodic domain:
/// assert_eq!(f.at(-1, 0, 0), f.at(3, 0, 0));
/// assert_eq!(f.at(4, 4, 4), f.at(0, 0, 0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    nx: usize,
    ny: usize,
    nz: usize,
    h: usize,
    sx: usize, // allocated x extent = nx + 2h
    sy: usize,
    sz: usize,
    data: Vec<f64>,
}

impl Field3 {
    /// Allocate a zero-filled field with the given interior size and halo
    /// width.
    pub fn new(nx: usize, ny: usize, nz: usize, halo: usize) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "interior dimensions must be positive"
        );
        let (sx, sy, sz) = (nx + 2 * halo, ny + 2 * halo, nz + 2 * halo);
        Self {
            nx,
            ny,
            nz,
            h: halo,
            sx,
            sy,
            sz,
            data: vec![0.0; sx * sy * sz],
        }
    }

    /// Interior size `(nx, ny, nz)`.
    pub fn interior(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Halo width.
    pub fn halo(&self) -> usize {
        self.h
    }

    /// Number of interior points.
    pub fn interior_len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// The interior as a [`Range3`].
    pub fn interior_range(&self) -> Range3 {
        Range3::new(
            (0, self.nx as i64),
            (0, self.ny as i64),
            (0, self.nz as i64),
        )
    }

    /// The full allocation (interior + halo) as a [`Range3`].
    pub fn full_range(&self) -> Range3 {
        let h = self.h as i64;
        Range3::new(
            (-h, self.nx as i64 + h),
            (-h, self.ny as i64 + h),
            (-h, self.nz as i64 + h),
        )
    }

    /// Flat index for interior-relative coordinates (may address halo).
    #[inline]
    pub fn idx(&self, x: i64, y: i64, z: i64) -> usize {
        let h = self.h as i64;
        debug_assert!(
            x >= -h && x < (self.nx + self.h) as i64,
            "x={x} out of range"
        );
        debug_assert!(
            y >= -h && y < (self.ny + self.h) as i64,
            "y={y} out of range"
        );
        debug_assert!(
            z >= -h && z < (self.nz + self.h) as i64,
            "z={z} out of range"
        );
        let ix = (x + h) as usize;
        let iy = (y + h) as usize;
        let iz = (z + h) as usize;
        ix + self.sx * (iy + self.sy * iz)
    }

    /// Value at interior-relative coordinates.
    #[inline]
    pub fn at(&self, x: i64, y: i64, z: i64) -> f64 {
        self.data[self.idx(x, y, z)]
    }

    /// Mutable value at interior-relative coordinates.
    #[inline]
    pub fn at_mut(&mut self, x: i64, y: i64, z: i64) -> &mut f64 {
        let i = self.idx(x, y, z);
        &mut self.data[i]
    }

    /// The contiguous x-row starting at interior-relative `(x0, y, z)`,
    /// spanning `w` points.
    #[inline]
    pub fn row(&self, x0: i64, y: i64, z: i64, w: usize) -> &[f64] {
        let i = self.idx(x0, y, z);
        &self.data[i..i + w]
    }

    /// Mutable contiguous x-row starting at `(x0, y, z)`, spanning `w`
    /// points.
    #[inline]
    pub fn row_mut(&mut self, x0: i64, y: i64, z: i64, w: usize) -> &mut [f64] {
        let i = self.idx(x0, y, z);
        &mut self.data[i..i + w]
    }

    /// Raw data slice (interior + halo, x fastest).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable data slice.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Allocated extents `(sx, sy, sz)` including halos.
    pub fn extents(&self) -> (usize, usize, usize) {
        (self.sx, self.sy, self.sz)
    }

    /// Fill the interior from a function of interior-relative coordinates.
    pub fn fill_interior(&mut self, mut f: impl FnMut(i64, i64, i64) -> f64) {
        for z in 0..self.nz as i64 {
            for y in 0..self.ny as i64 {
                for x in 0..self.nx as i64 {
                    *self.at_mut(x, y, z) = f(x, y, z);
                }
            }
        }
    }

    /// Copy the interior of `src` into the interior of `self`
    /// (the paper's Step 3, "copy the new state to the current state").
    pub fn copy_interior_from(&mut self, src: &Field3) {
        assert_eq!(self.interior(), src.interior(), "interior sizes must match");
        for z in 0..self.nz as i64 {
            for y in 0..self.ny as i64 {
                // x-lines are contiguous: copy as slices.
                let d0 = self.idx(0, y, z);
                let s0 = src.idx(0, y, z);
                let n = self.nx;
                self.data[d0..d0 + n].copy_from_slice(&src.data[s0..s0 + n]);
            }
        }
    }

    /// Copy a sub-region of the interior of `src` into the same region of
    /// `self`. Used by partitioned steppers that update regions piecewise.
    pub fn copy_region_from(&mut self, src: &Field3, region: Range3) {
        assert_eq!(self.interior(), src.interior());
        for z in region.z.0..region.z.1 {
            for y in region.y.0..region.y.1 {
                let n = (region.x.1 - region.x.0).max(0) as usize;
                if n == 0 {
                    continue;
                }
                let d0 = self.idx(region.x.0, y, z);
                let s0 = src.idx(region.x.0, y, z);
                self.data[d0..d0 + n].copy_from_slice(&src.data[s0..s0 + n]);
            }
        }
    }

    /// Pack a region into a contiguous buffer (x fastest). Returns the
    /// number of values written; `buf` must have length ≥ `region.len()`.
    pub fn pack(&self, region: Range3, buf: &mut [f64]) -> usize {
        let mut n = 0;
        for z in region.z.0..region.z.1 {
            for y in region.y.0..region.y.1 {
                let w = (region.x.1 - region.x.0).max(0) as usize;
                if w == 0 {
                    continue;
                }
                let s0 = self.idx(region.x.0, y, z);
                buf[n..n + w].copy_from_slice(&self.data[s0..s0 + w]);
                n += w;
            }
        }
        n
    }

    /// Pack a region into a freshly built vector (x fastest). Rows are
    /// appended with `extend_from_slice`, so — unlike `vec![0.0; len]`
    /// followed by [`Field3::pack`] — no value is written twice.
    pub fn pack_vec(&self, region: Range3) -> Vec<f64> {
        let mut out = Vec::with_capacity(region.len());
        let w = (region.x.1 - region.x.0).max(0) as usize;
        for z in region.z.0..region.z.1 {
            for y in region.y.0..region.y.1 {
                if w == 0 {
                    continue;
                }
                let s0 = self.idx(region.x.0, y, z);
                out.extend_from_slice(&self.data[s0..s0 + w]);
            }
        }
        out
    }

    /// Unpack a contiguous buffer into a region (inverse of [`Field3::pack`]).
    pub fn unpack(&mut self, region: Range3, buf: &[f64]) -> usize {
        let mut n = 0;
        for z in region.z.0..region.z.1 {
            for y in region.y.0..region.y.1 {
                let w = (region.x.1 - region.x.0).max(0) as usize;
                if w == 0 {
                    continue;
                }
                let d0 = self.idx(region.x.0, y, z);
                self.data[d0..d0 + w].copy_from_slice(&buf[n..n + w]);
                n += w;
            }
        }
        n
    }

    /// Fill all halo points from the opposite interior boundary, making the
    /// field periodic. Performed dimension-serialized (x, then y, then z)
    /// so that corner halos are filled correctly — the same well-established
    /// strategy the paper uses to reduce 26 neighbor exchanges to 6.
    pub fn copy_periodic_halo(&mut self) {
        let h = self.h as i64;
        let (nx, ny, nz) = (self.nx as i64, self.ny as i64, self.nz as i64);
        // x dimension: only interior y/z needed yet, but include already
        // filled ranges progressively. After x, x-halos valid for interior
        // y,z; we do full y range after y pass, etc. Easiest correct order:
        // x pass over interior y,z; y pass over extended x, interior z;
        // z pass over extended x and y.
        for z in 0..nz {
            for y in 0..ny {
                for g in 0..h {
                    *self.at_mut(-1 - g, y, z) = self.at(nx - 1 - g, y, z);
                    *self.at_mut(nx + g, y, z) = self.at(g, y, z);
                }
            }
        }
        for z in 0..nz {
            for g in 0..h {
                for x in -h..nx + h {
                    *self.at_mut(x, -1 - g, z) = self.at(x, ny - 1 - g, z);
                    *self.at_mut(x, ny + g, z) = self.at(x, g, z);
                }
            }
        }
        for g in 0..h {
            for y in -h..ny + h {
                for x in -h..nx + h {
                    *self.at_mut(x, y, -1 - g) = self.at(x, y, nz - 1 - g);
                    *self.at_mut(x, y, nz + g) = self.at(x, y, g);
                }
            }
        }
    }

    /// Split the field into mutable z-slabs at the given interior-z cut
    /// points, for data-race-free parallel writes. `cuts` must be strictly
    /// increasing interior z coordinates in `(0, nz)`; the returned slabs
    /// cover interior z ranges `[0, cuts[0])`, `[cuts[0], cuts[1])`, …,
    /// `[cuts[last], nz)`. The first and last slabs also carry the z-halo
    /// planes so the slab storage tiles the whole allocation.
    pub fn z_slabs_mut(&mut self, cuts: &[i64]) -> Vec<ZSlabMut<'_>> {
        let nz = self.nz as i64;
        let h = self.h as i64;
        for w in cuts.windows(2) {
            assert!(w[0] < w[1], "cuts must be strictly increasing");
        }
        if let (Some(&first), Some(&last)) = (cuts.first(), cuts.last()) {
            assert!(
                first > 0 && last < nz,
                "cuts must lie strictly inside (0, nz)"
            );
        }
        let plane = self.sx * self.sy;
        let mut bounds: Vec<(i64, i64)> = Vec::with_capacity(cuts.len() + 1);
        let mut prev = 0i64;
        for &c in cuts {
            bounds.push((prev, c));
            prev = c;
        }
        bounds.push((prev, nz));
        let mut slabs = Vec::with_capacity(bounds.len());
        let mut rest: &mut [f64] = &mut self.data;
        let mut consumed_planes = 0usize;
        let n_bounds = bounds.len();
        for (i, (z0, z1)) in bounds.into_iter().enumerate() {
            // Plane extents including halo planes on the outer slabs.
            let lo = if i == 0 { z0 - h } else { z0 };
            let hi = if i == n_bounds - 1 { z1 + h } else { z1 };
            let planes = (hi - lo) as usize;
            let (mine, tail) = rest.split_at_mut(planes * plane);
            rest = tail;
            consumed_planes += planes;
            slabs.push(ZSlabMut {
                z_lo: lo,
                z0,
                z1,
                data: mine,
                sx: self.sx,
                sy: self.sy,
                h: self.h,
            });
        }
        debug_assert_eq!(consumed_planes, self.sz);
        debug_assert!(rest.is_empty());
        slabs
    }

    /// Sum of all interior values (the discrete mass — conserved by the
    /// scheme on a periodic domain because the coefficients sum to 1).
    pub fn interior_sum(&self) -> f64 {
        let mut total = 0.0;
        for z in 0..self.nz as i64 {
            for y in 0..self.ny as i64 {
                let i0 = self.idx(0, y, z);
                total += self.data[i0..i0 + self.nx].iter().sum::<f64>();
            }
        }
        total
    }

    /// Maximum absolute difference over the interior between two fields.
    pub fn max_abs_diff(&self, other: &Field3) -> f64 {
        assert_eq!(self.interior(), other.interior());
        let mut m: f64 = 0.0;
        for z in 0..self.nz as i64 {
            for y in 0..self.ny as i64 {
                for x in 0..self.nx as i64 {
                    m = m.max((self.at(x, y, z) - other.at(x, y, z)).abs());
                }
            }
        }
        m
    }
}

/// A shared handle allowing multiple threads to access *disjoint* points
/// of one field concurrently — dynamic (guided) scheduling and
/// communication/computation overlap, where the regions a thread touches
/// are not known up front (implementation IV-D).
///
/// Built on the `&mut [T]` → `&[UnsafeCell<T>]` pattern: the exclusive
/// borrow of the field is converted into shared interior-mutable cells, so
/// every access goes through `UnsafeCell` and no reference-aliasing rules
/// are violated. The caller's contract is freedom from data races: a point
/// written by one thread must not be read or written by another without
/// synchronization. The schedulers in this workspace hand out disjoint
/// regions (e.g. halo writes vs. interior reads), which satisfies this.
pub struct SharedField<'a> {
    cells: &'a [std::cell::UnsafeCell<f64>],
    sx: usize,
    sy: usize,
    h: usize,
}

// SAFETY: concurrent access to *distinct* cells is well-defined; access to
// the same cell is excluded by the caller's partition contract.
unsafe impl Sync for SharedField<'_> {}

impl<'a> SharedField<'a> {
    /// Wrap a field for concurrent disjoint access.
    pub fn new(field: &'a mut Field3) -> Self {
        let (sx, sy, _) = field.extents();
        let h = field.halo();
        let data: &'a mut [f64] = field.data_mut();
        // SAFETY: UnsafeCell<f64> has the same layout as f64, and the
        // exclusive borrow guarantees no other access path exists.
        let cells = unsafe {
            std::slice::from_raw_parts(
                data.as_mut_ptr() as *const std::cell::UnsafeCell<f64>,
                data.len(),
            )
        };
        Self { cells, sx, sy, h }
    }

    /// Flat cell index for interior-relative coordinates.
    #[inline]
    pub(crate) fn index(&self, x: i64, y: i64, z: i64) -> usize {
        let h = self.h as i64;
        (x + h) as usize + self.sx * ((y + h) as usize + self.sy * (z + h) as usize)
    }

    /// Allocated `(sx, sy)` strides of the wrapped field (including
    /// halos). The x stride feeds the cache-blocking tile heuristic.
    pub fn strides(&self) -> (usize, usize) {
        (self.sx, self.sy)
    }

    /// A contiguous x-row as a shared slice, starting at interior-relative
    /// `(x0, y, z)` and spanning `w` points.
    ///
    /// # Safety
    ///
    /// No thread may write any of the `w` points while the returned slice
    /// lives: the exclusion must hold for the slice's whole lifetime, not
    /// just one access.
    #[inline]
    pub unsafe fn row(&self, x0: i64, y: i64, z: i64, w: usize) -> &[f64] {
        let cells = &self.cells[self.index(x0, y, z)..][..w];
        std::slice::from_raw_parts(std::cell::UnsafeCell::raw_get(cells.as_ptr()), w)
    }

    /// The whole allocation as a raw pointer and length, for stencil
    /// sweeps whose multi-row spans no slice may cover.
    pub(crate) fn raw(&self) -> (*mut f64, usize) {
        let cells = self.cells;
        (std::cell::UnsafeCell::raw_get(cells.as_ptr()), cells.len())
    }

    /// A contiguous x-row as an exclusive slice, starting at
    /// interior-relative `(x0, y, z)` and spanning `w` points.
    ///
    /// # Safety
    ///
    /// The caller must have exclusive access to the `w` points for the
    /// lifetime of the returned slice — no other thread (nor this one,
    /// through another handle) may read or write them.
    #[inline]
    #[allow(clippy::mut_from_ref)] // UnsafeCell interior mutability; see Safety.
    pub unsafe fn row_mut(&self, x0: i64, y: i64, z: i64, w: usize) -> &mut [f64] {
        let i = self.index(x0, y, z);
        let cells = &self.cells[i..i + w];
        std::slice::from_raw_parts_mut(std::cell::UnsafeCell::raw_get(cells.as_ptr()), w)
    }

    /// Pack a region into a caller-provided buffer (x fastest), one
    /// x-row slice at a time like [`Field3::pack`], reading through the
    /// shared cells. `buf` must have length `region.len()`.
    pub fn pack_into(&self, region: Range3, buf: &mut [f64]) {
        debug_assert_eq!(buf.len(), region.len());
        let w = (region.x.1 - region.x.0).max(0) as usize;
        if w == 0 {
            return;
        }
        let mut n = 0;
        for z in region.z.0..region.z.1 {
            for y in region.y.0..region.y.1 {
                // SAFETY: per the type's contract, no other thread writes
                // a point this thread packs.
                buf[n..n + w].copy_from_slice(unsafe { self.row(region.x.0, y, z, w) });
                n += w;
            }
        }
    }

    /// Unpack a buffer into a region (inverse of
    /// [`SharedField::pack_into`]), writing through the shared cells.
    pub fn unpack(&self, region: Range3, data: &[f64]) {
        debug_assert_eq!(data.len(), region.len());
        let w = (region.x.1 - region.x.0).max(0) as usize;
        if w == 0 {
            return;
        }
        let mut n = 0;
        for z in region.z.0..region.z.1 {
            for y in region.y.0..region.y.1 {
                // SAFETY: per the type's contract, no other thread reads
                // or writes a point this thread unpacks.
                unsafe { self.row_mut(region.x.0, y, z, w) }.copy_from_slice(&data[n..n + w]);
                n += w;
            }
        }
    }
}

/// Backwards-compatible alias: the write-only use of [`SharedField`].
pub type SharedWriter<'a> = SharedField<'a>;

/// A mutable, contiguous z-slab of a [`Field3`], produced by
/// [`Field3::z_slabs_mut`]. Covers interior z in `[z0, z1)` plus, on the
/// outermost slabs, the z-halo planes.
pub struct ZSlabMut<'a> {
    /// First z plane (interior-relative) physically present in `data`.
    z_lo: i64,
    /// First interior z this slab owns.
    pub z0: i64,
    /// One past the last interior z this slab owns.
    pub z1: i64,
    /// Contiguous backing storage for planes `z_lo ..` of the parent field.
    pub data: &'a mut [f64],
    /// Allocated x extent of the parent field (the row stride).
    pub(crate) sx: usize,
    sy: usize,
    h: usize,
}

impl ZSlabMut<'_> {
    /// Flat index into this slab's `data` for interior-relative parent
    /// coordinates. `z` must lie within the slab's physical planes.
    #[inline]
    pub fn idx(&self, x: i64, y: i64, z: i64) -> usize {
        let h = self.h as i64;
        debug_assert!(z >= self.z_lo, "z={z} below slab start {}", self.z_lo);
        let ix = (x + h) as usize;
        let iy = (y + h) as usize;
        let iz = (z - self.z_lo) as usize;
        let idx = ix + self.sx * (iy + self.sy * iz);
        debug_assert!(idx < self.data.len());
        idx
    }

    /// Mutable value at interior-relative parent coordinates.
    #[inline]
    pub fn at_mut(&mut self, x: i64, y: i64, z: i64) -> &mut f64 {
        let i = self.idx(x, y, z);
        &mut self.data[i]
    }

    /// Mutable contiguous x-row starting at interior-relative parent
    /// coordinates `(x0, y, z)`, spanning `w` points.
    #[inline]
    pub fn row_mut(&mut self, x0: i64, y: i64, z: i64, w: usize) -> &mut [f64] {
        let i = self.idx(x0, y, z);
        &mut self.data[i..i + w]
    }

    /// The interior range owned by this slab, clipped from `full`.
    pub fn owned_region(&self, full: Range3) -> Range3 {
        full.intersect(&Range3::new(full.x, full.y, (self.z0, self.z1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_layout_is_x_fastest() {
        let f = Field3::new(4, 3, 2, 1);
        assert_eq!(f.idx(1, 0, 0), f.idx(0, 0, 0) + 1);
        assert_eq!(f.idx(0, 1, 0), f.idx(0, 0, 0) + 6); // sx = 4+2
        assert_eq!(f.idx(0, 0, 1), f.idx(0, 0, 0) + 6 * 5); // sx*sy = 6*5
    }

    #[test]
    fn fill_and_read_back() {
        let mut f = Field3::new(3, 4, 5, 1);
        f.fill_interior(|x, y, z| (x + 10 * y + 100 * z) as f64);
        assert_eq!(f.at(2, 3, 4), (2 + 30 + 400) as f64);
        assert_eq!(f.at(0, 0, 0), 0.0);
    }

    #[test]
    fn periodic_halo_wraps_all_26_directions() {
        let mut f = Field3::new(4, 4, 4, 1);
        f.fill_interior(|x, y, z| (x + 10 * y + 100 * z) as f64);
        f.copy_periodic_halo();
        // Face
        assert_eq!(f.at(-1, 2, 2), f.at(3, 2, 2));
        assert_eq!(f.at(4, 2, 2), f.at(0, 2, 2));
        // Edge
        assert_eq!(f.at(-1, -1, 2), f.at(3, 3, 2));
        // Corner
        assert_eq!(f.at(-1, -1, -1), f.at(3, 3, 3));
        assert_eq!(f.at(4, 4, 4), f.at(0, 0, 0));
        assert_eq!(f.at(4, -1, 4), f.at(0, 3, 0));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mut f = Field3::new(5, 4, 3, 1);
        f.fill_interior(|x, y, z| (x * 7 + y * 13 + z * 29) as f64);
        let region = Range3::new((1, 4), (0, 4), (1, 3));
        let mut buf = vec![0.0; region.len()];
        let n = f.pack(region, &mut buf);
        assert_eq!(n, region.len());
        let mut g = Field3::new(5, 4, 3, 1);
        let m = g.unpack(region, &buf);
        assert_eq!(m, n);
        for (x, y, z) in region.iter() {
            assert_eq!(g.at(x, y, z), f.at(x, y, z));
        }
    }

    #[test]
    fn pack_vec_matches_pack() {
        let mut f = Field3::new(5, 4, 3, 1);
        f.fill_interior(|x, y, z| (x * 7 + y * 13 + z * 29) as f64);
        f.copy_periodic_halo();
        let region = Range3::new((-1, 4), (0, 4), (1, 3));
        let mut buf = vec![0.0; region.len()];
        f.pack(region, &mut buf);
        assert_eq!(f.pack_vec(region), buf);
    }

    #[test]
    fn pack_covers_halo_coordinates() {
        let mut f = Field3::new(4, 4, 4, 1);
        f.fill_interior(|x, y, z| (x + y + z) as f64);
        f.copy_periodic_halo();
        let region = Range3::new((-1, 0), (-1, 5), (-1, 5));
        let mut buf = vec![0.0; region.len()];
        assert_eq!(f.pack(region, &mut buf), 36);
    }

    #[test]
    fn copy_interior_preserves_halo_of_dest() {
        let mut a = Field3::new(3, 3, 3, 1);
        let mut b = Field3::new(3, 3, 3, 1);
        a.fill_interior(|_, _, _| 5.0);
        a.copy_periodic_halo();
        b.fill_interior(|_, _, _| 7.0);
        let halo_before = a.at(-1, -1, -1);
        a.copy_interior_from(&b);
        assert_eq!(a.at(1, 1, 1), 7.0);
        assert_eq!(a.at(-1, -1, -1), halo_before);
    }

    #[test]
    fn range3_len_iter_agree() {
        let r = Range3::new((-1, 3), (0, 2), (2, 5));
        assert_eq!(r.len(), 4 * 2 * 3);
        assert_eq!(r.iter().count(), r.len());
        let r_empty = Range3::new((3, 3), (0, 2), (2, 5));
        assert!(r_empty.is_empty());
        assert_eq!(r_empty.iter().count(), 0);
    }

    #[test]
    fn z_slabs_tile_the_allocation() {
        let mut f = Field3::new(4, 5, 9, 1);
        f.fill_interior(|x, y, z| (x + 10 * y + 100 * z) as f64);
        let total: usize = {
            let slabs = f.z_slabs_mut(&[3, 6]);
            assert_eq!(slabs.len(), 3);
            assert_eq!((slabs[0].z0, slabs[0].z1), (0, 3));
            assert_eq!((slabs[1].z0, slabs[1].z1), (3, 6));
            assert_eq!((slabs[2].z0, slabs[2].z1), (6, 9));
            slabs.iter().map(|s| s.data.len()).sum()
        };
        let (sx, sy, sz) = f.extents();
        assert_eq!(total, sx * sy * sz);
    }

    #[test]
    fn z_slab_indexing_matches_parent() {
        let mut f = Field3::new(3, 3, 8, 1);
        f.fill_interior(|x, y, z| (x + 10 * y + 100 * z) as f64);
        let probe = f.at(1, 2, 5);
        let mut slabs = f.z_slabs_mut(&[4]);
        // z=5 lives in the second slab.
        assert_eq!(slabs[1].data[slabs[1].idx(1, 2, 5)], probe);
        *slabs[1].at_mut(1, 2, 5) = -1.0;
        drop(slabs);
        assert_eq!(f.at(1, 2, 5), -1.0);
    }

    #[test]
    fn z_slabs_no_cuts_returns_whole_field() {
        let mut f = Field3::new(2, 2, 3, 1);
        let slabs = f.z_slabs_mut(&[]);
        assert_eq!(slabs.len(), 1);
        assert_eq!((slabs[0].z0, slabs[0].z1), (0, 3));
        assert_eq!(slabs[0].data.len(), 4 * 4 * 5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn z_slabs_rejects_unsorted_cuts() {
        let mut f = Field3::new(2, 2, 6, 1);
        let _ = f.z_slabs_mut(&[4, 2]);
    }

    #[test]
    fn row_accessors_match_point_access() {
        let mut f = Field3::new(5, 4, 3, 1);
        f.fill_interior(|x, y, z| (x + 10 * y + 100 * z) as f64);
        f.copy_periodic_halo();
        // Rows may start in the halo and span into it.
        let r = f.row(-1, 2, 1, 7);
        for (i, &v) in r.iter().enumerate() {
            assert_eq!(v, f.at(-1 + i as i64, 2, 1));
        }
        let row = f.row_mut(0, 1, 1, 5);
        row.copy_from_slice(&[9.0; 5]);
        assert_eq!(f.at(3, 1, 1), 9.0);
    }

    #[test]
    fn shared_field_rows_alias_the_field() {
        let mut f = Field3::new(4, 4, 4, 1);
        f.fill_interior(|x, y, z| (x + 10 * y + 100 * z) as f64);
        {
            let sh = SharedField::new(&mut f);
            // SAFETY: single-threaded test; no concurrent access.
            let r = unsafe { sh.row(0, 2, 3, 4) };
            assert_eq!(r, [320.0, 321.0, 322.0, 323.0]);
            let w = unsafe { sh.row_mut(1, 1, 1, 2) };
            w[0] = -5.0;
            w[1] = -6.0;
        }
        assert_eq!(f.at(1, 1, 1), -5.0);
        assert_eq!(f.at(2, 1, 1), -6.0);
    }

    #[test]
    fn z_slab_row_mut_writes_through() {
        let mut f = Field3::new(4, 4, 6, 1);
        f.fill_interior(|x, y, z| (x + 10 * y + 100 * z) as f64);
        {
            let mut slabs = f.z_slabs_mut(&[3]);
            let row = slabs[1].row_mut(0, 0, 4, 4);
            row.fill(7.5);
        }
        for x in 0..4 {
            assert_eq!(f.at(x, 0, 4), 7.5);
        }
    }

    #[test]
    fn range3_intersect() {
        let a = Range3::new((0, 10), (0, 10), (0, 10));
        let b = Range3::new((5, 15), (-5, 5), (2, 3));
        let i = a.intersect(&b);
        assert_eq!(i, Range3::new((5, 10), (0, 5), (2, 3)));
    }
}
