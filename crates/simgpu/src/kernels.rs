//! Functional kernel bodies.
//!
//! The stencil kernel executes the arithmetic of the paper's CUDA Fortran
//! kernel through `advect_core`'s one sweep ([`apply_stencil_flat`]), so
//! the GPU kernels produce **bit-identical** results to the CPU
//! reference, which is how the cross-implementation tests can require
//! exact equality.
//!
//! The kernel's thread-block structure — 2-D `(bx, by)` blocks tiling
//! x/y whose edge ("halo") threads only load, each marching z through
//! shared memory, the algorithm of Micikevicius (2009) the paper builds
//! on — changes no result, only time, so it is not executed: the time is
//! [`crate::timing`]'s, which prices the launch shape through
//! [`StencilLaunch::blocks`].
//!
//! # Layouts
//!
//! A halo-layout launch (IV-F..I) sweeps the device buffers directly. A
//! periodic launch (IV-E's halo-free layout) stages its z-range
//! [`CHUNK_PLANES`] planes at a time: the chunk and one plane either side,
//! wrapped in x, y and z, go into a halo'd scratch the device owns
//! (`(nx+2)(ny+2)(chunk+2)` values, not a copy of the field), and the
//! chunk is swept from there into the halo-free destination. The
//! pack/unpack kernels move whole x-rows.

pub use advect_core::field::FieldDims;
use advect_core::field::Range3;
use advect_core::stencil::apply_stencil_flat;

/// z-planes of a periodic launch staged and swept at a time.
pub const CHUNK_PLANES: usize = 8;

/// Parameters of a stencil kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct StencilLaunch {
    /// Field layout shared by `src` and `dst`.
    pub dims: FieldDims,
    /// Region of points to update (interior-relative).
    pub region: Range3,
    /// Thread-block shape `(bx, by)`; the block's edge threads only load.
    /// Priced by [`crate::timing`]; results do not depend on it.
    pub block: (usize, usize),
    /// Wrap reads periodically (the GPU-resident, halo-free layout)
    /// instead of reading halo storage.
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

/// Execute the stencil kernel functionally: `p.region` of `dst` from
/// `src`, both laid out as `p.dims`.
///
/// `scratch` holds a periodic launch's staged chunk, grown on first use
/// and reused by every later launch (the device owns one; see
/// `Gpu::launch_stencil`).
pub fn run_stencil(
    src: &[f64],
    dst: &mut [f64],
    coeffs: &[f64; 27],
    p: &StencilLaunch,
    scratch: &mut Vec<f64>,
) {
    let (d, r) = (p.dims, p.region);
    if !p.periodic {
        return apply_stencil_flat(src, d, dst, d, coeffs, r);
    }
    assert!(
        d.halo == 0 && d.interior().covers(&r),
        "a periodic launch of {r:?} needs a halo-free layout around it, not {d:?}"
    );
    if r.is_empty() {
        return;
    }
    let mut z0 = r.z.0;
    while z0 < r.z.1 {
        let z1 = (z0 + CHUNK_PLANES as i64).min(r.z.1);
        let chunk = FieldDims {
            nz: (z1 - z0) as usize,
            ..d
        };
        let staged = FieldDims { halo: 1, ..chunk };
        if scratch.len() < staged.len() {
            scratch.resize(staged.len(), 0.0);
        }
        let scratch = &mut scratch[..staged.len()];
        stage_wrapped(src, d, z0, staged, scratch);
        let out = &mut dst[d.idx(0, 0, z0)..][..chunk.len()];
        let region = Range3::new(r.x, r.y, (0, chunk.nz as i64));
        apply_stencil_flat(scratch, staged, out, chunk, coeffs, region);
        z0 = z1;
    }
}

/// Stage planes `z0 - 1 ..= z0 + staged.nz` of the halo-free periodic
/// field `src` (laid out as `d`) into `out` (laid out as `staged`): each
/// row wrapped in y and z, one slice copy, plus its two halo columns
/// wrapped in x.
fn stage_wrapped(src: &[f64], d: FieldDims, z0: i64, staged: FieldDims, out: &mut [f64]) {
    let (nx, ny, nz) = (d.nx, d.ny as i64, d.nz as i64);
    let rows = (-1..=staged.nz as i64).flat_map(|k| (-1..=ny).map(move |y| (y, z0 + k)));
    for (row, (y, z)) in out.chunks_exact_mut(nx + 2).zip(rows) {
        let i = d.idx(0, y.rem_euclid(ny), z.rem_euclid(nz));
        let line = &src[i..i + nx];
        row[1..=nx].copy_from_slice(line);
        row[0] = line[nx - 1];
        row[nx + 1] = line[0];
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

    #[test]
    fn gpu_stencil_matches_cpu_bitwise() {
        let s = Stencil27::new(Velocity::new(1.0, 0.5, 0.25), 0.9);
        let mut cur = Field3::new(9, 8, 7, 1);
        cur.fill_interior(|x, y, z| ((x * 31 + y * 17 + z * 7) % 13) as f64 * 0.37);
        cur.copy_periodic_halo();
        let mut cpu = Field3::new(9, 8, 7, 1);
        apply_stencil_interior(&cur, &mut cpu, &s);

        let (src, dims) = (cur.data(), cur.dims());
        for block in [(4, 4), (3, 5), (16, 16), (32, 8)] {
            let mut dst = vec![0.0; dims.len()];
            run_stencil(
                src,
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
