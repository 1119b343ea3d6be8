//! Functional kernel bodies.
//!
//! These execute the same arithmetic a CUDA Fortran kernel would, with the
//! same thread-block structure: a 2-D grid of `(bx, by)` thread blocks
//! tiles the x/y extent of the launch region; the interior threads of each
//! block compute while the edge ("halo") threads only perform memory
//! operations; the block marches along z reusing three staged planes —
//! the algorithm of Micikevicius (2009) the paper builds on.
//!
//! # Staging
//!
//! A block's shared memory is a ring of three `bx × by` plane slots. The
//! march loads planes `z₀-1` and `z₀` once, then each z step stages
//! **one** new plane (`z+1`, over the slot `z-2` vacated) and computes
//! plane `z` from the three resident slots — every source point of a
//! block's column is loaded from global memory once, not three times. A
//! staged plane is copied a contiguous x-row at a time: with halo storage
//! one slice copy per row; in the periodic (halo-free) layout y and z
//! wrap once per row and only the columns hanging over the x ends of the
//! domain wrap individually. The pack/unpack kernels move whole x-rows
//! the same way. Shared memory is allocated once per device, not per
//! launch. None of this is visible on the virtual timeline:
//! [`StencilLaunch::blocks`] and [`crate::timing`] charge the launch
//! shape, not the host-side execution.
//!
//! Because the tap order matches `advect_core::stencil`, the GPU kernels
//! produce **bit-identical** results to the CPU reference, which is how
//! the cross-implementation tests can require exact equality.

use advect_core::field::Range3;
use advect_core::simd::{accumulate_block, TapBlock};

/// Device-side field layout: interior extent plus halo width, x fastest —
/// identical to `advect_core::Field3` so host fields map 1:1 to buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldDims {
    /// Interior extent.
    pub nx: usize,
    /// Interior extent.
    pub ny: usize,
    /// Interior extent.
    pub nz: usize,
    /// Halo width (0 for the GPU-resident layout where periodicity is
    /// applied by wrap-around indexing in shared-memory loads).
    pub halo: usize,
}

impl FieldDims {
    /// Total allocation length.
    pub fn len(&self) -> usize {
        (self.nx + 2 * self.halo) * (self.ny + 2 * self.halo) * (self.nz + 2 * self.halo)
    }

    /// Whether the allocation is empty (never for valid dims).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of interior-relative coordinates (may address halo).
    #[inline]
    pub fn idx(&self, x: i64, y: i64, z: i64) -> usize {
        let h = self.halo as i64;
        let sx = self.nx + 2 * self.halo;
        let sy = self.ny + 2 * self.halo;
        debug_assert!(x >= -h && (x) < (self.nx + self.halo) as i64);
        debug_assert!(y >= -h && (y) < (self.ny + self.halo) as i64);
        debug_assert!(z >= -h && (z) < (self.nz + self.halo) as i64);
        (x + h) as usize + sx * ((y + h) as usize + sy * (z + h) as usize)
    }

    /// Flat index ranges of the contiguous x-rows of `region`, in pack
    /// order (y fastest, then z); nothing for an empty region.
    pub fn rows(&self, region: Range3) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let w = (region.x.1 - region.x.0).max(0) as usize;
        let ys = if w == 0 { (0, 0) } else { region.y };
        (region.z.0..region.z.1).flat_map(move |z| {
            (ys.0..ys.1).map(move |y| {
                let i = self.idx(region.x.0, y, z);
                i..i + w
            })
        })
    }

    /// The interior as a region.
    pub fn interior(&self) -> Range3 {
        Range3::new(
            (0, self.nx as i64),
            (0, self.ny as i64),
            (0, self.nz as i64),
        )
    }
}

/// Parameters of a stencil kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct StencilLaunch {
    /// Field layout shared by `src` and `dst`.
    pub dims: FieldDims,
    /// Region of points to update (interior-relative).
    pub region: Range3,
    /// Thread-block shape `(bx, by)`; the block's edge threads only load.
    pub block: (usize, usize),
    /// Wrap reads periodically (GPU-resident layout) instead of reading
    /// halo storage.
    pub periodic: bool,
}

impl StencilLaunch {
    /// Number of points updated.
    pub fn points(&self) -> usize {
        self.region.len()
    }

    /// Number of thread blocks launched: the compute tile of a `(bx, by)`
    /// block is `(bx-2) × (by-2)` (edge threads are halo loaders).
    pub fn blocks(&self) -> usize {
        let tile_x = self.block.0.saturating_sub(2).max(1);
        let tile_y = self.block.1.saturating_sub(2).max(1);
        let ex = (self.region.x.1 - self.region.x.0).max(0) as usize;
        let ey = (self.region.y.1 - self.region.y.0).max(0) as usize;
        ex.div_ceil(tile_x) * ey.div_ceil(tile_y)
    }
}

/// A kernel's source field: the global-memory buffer and how halo
/// threads address it.
struct Source<'a> {
    data: &'a [f64],
    dims: FieldDims,
    periodic: bool,
}

impl Source<'_> {
    /// Stage one (tile+halo) plane into a shared-memory slot: rows
    /// `y0-1 ..= y1` of plane `z`, columns `x0-1 ..= x1`, `sw` values
    /// apart.
    ///
    /// Every staged row is one contiguous slice of the source. With halo
    /// storage that is a single `copy_from_slice`; in the periodic layout
    /// `y` and `z` wrap once per row, the columns inside `0..nx` are
    /// copied as one slice and only the columns hanging over either end
    /// wrap individually.
    fn stage_plane(
        &self,
        slot: &mut [f64],
        sw: usize,
        (x0, x1): (i64, i64),
        (y0, y1): (i64, i64),
        z: i64,
    ) {
        let d = self.dims;
        let (gx0, gx1) = (x0 - 1, x1 + 1);
        let w = (gx1 - gx0) as usize;
        if !self.periodic {
            let plane = Range3::new((gx0, gx1), (y0 - 1, y1 + 1), (z, z + 1));
            for (out, row) in slot.chunks_mut(sw).zip(d.rows(plane)) {
                out[..w].copy_from_slice(&self.data[row]);
            }
            return;
        }
        let (nx, ny, nz) = (d.nx as i64, d.ny as i64, d.nz as i64);
        let wz = z.rem_euclid(nz);
        let lo = gx0.clamp(0, nx);
        let hi = gx1.clamp(lo, nx);
        let (a, b) = ((lo - gx0) as usize, (hi - gx0) as usize);
        for (out, gy) in slot.chunks_mut(sw).zip(y0 - 1..y1 + 1) {
            let r0 = d.idx(0, gy.rem_euclid(ny), wz);
            let row = &self.data[r0..r0 + d.nx];
            out[a..b].copy_from_slice(&row[lo as usize..hi as usize]);
            for (o, gx) in out[..a].iter_mut().zip(gx0..lo) {
                *o = row[gx.rem_euclid(nx) as usize];
            }
            for (o, gx) in out[b..w].iter_mut().zip(hi..gx1) {
                *o = row[gx.rem_euclid(nx) as usize];
            }
        }
    }
}

/// Execute the stencil kernel functionally: block-tiled, z-marching
/// through a three-slot ring of staged planes in `shared`.
///
/// `shared` is the block's shared memory, grown on first use to
/// `3 · bx · by` values and reused by every later launch (the device owns
/// one; see `Gpu::launch_stencil`).
pub fn run_stencil(
    src: &[f64],
    dst: &mut [f64],
    coeffs: &[f64; 27],
    p: &StencilLaunch,
    shared: &mut Vec<f64>,
) {
    let tile_x = p.block.0.saturating_sub(2).max(1) as i64;
    let tile_y = p.block.1.saturating_sub(2).max(1) as i64;
    let r = p.region;
    if r.is_empty() {
        return;
    }
    let d = p.dims;
    let source = Source {
        data: src,
        dims: d,
        periodic: p.periodic,
    };
    let sw = (tile_x + 2) as usize;
    let plane = sw * (tile_y + 2) as usize;
    if shared.len() < 3 * plane {
        shared.resize(3 * plane, 0.0);
    }
    let mut by0 = r.y.0;
    while by0 < r.y.1 {
        let by1 = (by0 + tile_y).min(r.y.1);
        let mut bx0 = r.x.0;
        while bx0 < r.x.1 {
            let bx1 = (bx0 + tile_x).min(r.x.1);
            let w = (bx1 - bx0) as usize;
            // Plane `z` lives in slot `(z - r.z.0 + 1) % 3`. The march
            // opens with the plane below the region and its first plane...
            let stage = |shared: &mut [f64], k: usize, z: i64| {
                let slot = &mut shared[k % 3 * plane..][..plane];
                source.stage_plane(slot, sw, (bx0, bx1), (by0, by1), z);
            };
            stage(shared, 0, r.z.0 - 1);
            stage(shared, 1, r.z.0);
            for (k, z) in (r.z.0..r.z.1).enumerate() {
                // ...and each step all threads (halo threads included)
                // load only plane z+1, over the slot plane z-2 vacated;
                // planes z-1 and z are reused from the previous step.
                stage(shared, k + 2, z + 1);
                // Plane z of the block is one call of the block kernel
                // the CPU sweep uses: its rows are the tile's x-rows, each
                // tap a window of the staged planes (tap order matches the
                // coefficient order: plane slowest, y, x fastest), so
                // results stay bit-identical to the scalar reference.
                // Row 0 (ly = 1, lx = 1) reads tap (dz, dy, dx) at row dy,
                // column dx of plane z + dz − 1.
                let b = TapBlock {
                    rows: (by1 - by0) as usize,
                    w,
                    dst: d.idx(bx0, by0, z),
                    dst_stride: d.nx + 2 * d.halo,
                    taps: std::array::from_fn(|t| {
                        let (dz, dy, dx) = (t / 9, t / 3 % 3, t % 3);
                        (k + dz) % 3 * plane + dy * sw + dx
                    }),
                    src_stride: sw,
                };
                accumulate_block(dst, shared, &b, coeffs);
            }
            bx0 = bx1;
        }
        by0 = by1;
    }
}

/// Pack a region of a device field into a linear buffer (x fastest), one
/// contiguous x-row at a time.
pub fn run_pack(field: &[f64], dims: FieldDims, region: Range3, out: &mut [f64]) -> usize {
    let mut n = 0;
    for row in dims.rows(region) {
        let w = row.len();
        out[n..n + w].copy_from_slice(&field[row]);
        n += w;
    }
    n
}

/// Unpack a linear buffer into a region of a device field (inverse of
/// [`run_pack`]).
pub fn run_unpack(field: &mut [f64], dims: FieldDims, region: Range3, data: &[f64]) -> usize {
    let mut n = 0;
    for row in dims.rows(region) {
        let w = row.len();
        field[row].copy_from_slice(&data[n..n + w]);
        n += w;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use advect_core::coeffs::{Stencil27, Velocity};
    use advect_core::field::Field3;
    use advect_core::stencil::apply_stencil_interior;

    fn device_field_from(f: &Field3) -> (Vec<f64>, FieldDims) {
        let (nx, ny, nz) = f.interior();
        (
            f.data().to_vec(),
            FieldDims {
                nx,
                ny,
                nz,
                halo: f.halo(),
            },
        )
    }

    #[test]
    fn gpu_stencil_matches_cpu_bitwise() {
        let s = Stencil27::new(Velocity::new(1.0, 0.5, 0.25), 0.9);
        let mut cur = Field3::new(9, 8, 7, 1);
        cur.fill_interior(|x, y, z| ((x * 31 + y * 17 + z * 7) % 13) as f64 * 0.37);
        cur.copy_periodic_halo();
        let mut cpu = Field3::new(9, 8, 7, 1);
        apply_stencil_interior(&cur, &mut cpu, &s);

        let (src, dims) = device_field_from(&cur);
        for block in [(4, 4), (3, 5), (16, 16), (32, 8)] {
            let mut dst = vec![0.0; dims.len()];
            run_stencil(
                &src,
                &mut dst,
                &s.a,
                &StencilLaunch {
                    dims,
                    region: dims.interior(),
                    block,
                    periodic: false,
                },
                &mut Vec::new(),
            );
            for (x, y, z) in dims.interior().iter() {
                assert_eq!(
                    dst[dims.idx(x, y, z)],
                    cpu.at(x, y, z),
                    "block {block:?} at ({x},{y},{z})"
                );
            }
        }
    }

    #[test]
    fn periodic_kernel_matches_halo_kernel() {
        // GPU-resident layout (halo = 0, wrap indexing) must equal the
        // halo-based result.
        let s = Stencil27::new(Velocity::new(0.8, -0.6, 0.4), 0.95);
        let mut cur = Field3::new(6, 6, 6, 1);
        cur.fill_interior(|x, y, z| ((x + 2 * y + 3 * z) % 5) as f64);
        cur.copy_periodic_halo();
        let mut cpu = Field3::new(6, 6, 6, 1);
        apply_stencil_interior(&cur, &mut cpu, &s);

        let dims = FieldDims {
            nx: 6,
            ny: 6,
            nz: 6,
            halo: 0,
        };
        let mut src = vec![0.0; dims.len()];
        for (x, y, z) in dims.interior().iter() {
            src[dims.idx(x, y, z)] = cur.at(x, y, z);
        }
        let mut dst = vec![0.0; dims.len()];
        run_stencil(
            &src,
            &mut dst,
            &s.a,
            &StencilLaunch {
                dims,
                region: dims.interior(),
                block: (4, 4),
                periodic: true,
            },
            &mut Vec::new(),
        );
        for (x, y, z) in dims.interior().iter() {
            assert_eq!(dst[dims.idx(x, y, z)], cpu.at(x, y, z), "at ({x},{y},{z})");
        }
    }

    #[test]
    fn sub_region_launch_only_touches_region() {
        let s = Stencil27::new(Velocity::unit_diagonal(), 0.5);
        let dims = FieldDims {
            nx: 6,
            ny: 6,
            nz: 6,
            halo: 1,
        };
        let src = vec![1.0; dims.len()];
        let mut dst = vec![-7.0; dims.len()];
        let region = Range3::new((2, 4), (2, 4), (2, 4));
        run_stencil(
            &src,
            &mut dst,
            &s.a,
            &StencilLaunch {
                dims,
                region,
                block: (8, 8),
                periodic: false,
            },
            &mut Vec::new(),
        );
        for (x, y, z) in dims.interior().iter() {
            if region.contains(x, y, z) {
                assert!((dst[dims.idx(x, y, z)] - 1.0).abs() < 1e-13);
            } else {
                assert_eq!(dst[dims.idx(x, y, z)], -7.0);
            }
        }
    }

    #[test]
    fn pack_unpack_roundtrip_on_device() {
        let dims = FieldDims {
            nx: 5,
            ny: 4,
            nz: 3,
            halo: 1,
        };
        let mut field = vec![0.0; dims.len()];
        for (i, v) in field.iter_mut().enumerate() {
            *v = i as f64;
        }
        let region = Range3::new((0, 5), (1, 3), (0, 3));
        let mut buf = vec![0.0; region.len()];
        assert_eq!(run_pack(&field, dims, region, &mut buf), region.len());
        let mut field2 = vec![0.0; dims.len()];
        assert_eq!(run_unpack(&mut field2, dims, region, &buf), region.len());
        for (x, y, z) in region.iter() {
            assert_eq!(field2[dims.idx(x, y, z)], field[dims.idx(x, y, z)]);
        }
    }

    #[test]
    fn block_count_accounts_for_halo_threads() {
        let launch = StencilLaunch {
            dims: FieldDims {
                nx: 64,
                ny: 64,
                nz: 64,
                halo: 1,
            },
            region: Range3::new((0, 64), (0, 64), (0, 64)),
            block: (34, 10),
            periodic: false,
        };
        // Tile is 32×8 ⇒ 2×8 = 16 blocks.
        assert_eq!(launch.blocks(), 16);
    }
}
