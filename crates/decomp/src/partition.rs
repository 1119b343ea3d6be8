//! Interior/boundary partitions used by the overlap implementations.
//!
//! * [`shell_and_core`] — split a region into a core and a 6-wall shell of
//!   given thickness. With thickness 1 this is the paper's
//!   interior/boundary split ("boundary points are those that touch halo
//!   points", Section IV-C/D). With larger thickness it is the CPU box of
//!   Figure 1.
//! * [`thirds_along_z`] — partition the interior into thirds along z, one
//!   third per communication dimension (Section IV-C).
//! * [`BoxPartition`] — the CPU-box / GPU-block decomposition of Figure 1
//!   with all the derived interface regions the hybrid implementations
//!   need (GPU halo ring, GPU inner boundary, per-dimension CPU walls).

use advect_core::field::Range3;

/// Wall index order: x-low, x-high, y-low, y-high, z-low, z-high.
pub const WALL_ORDER: [(usize, i32); 6] = [(0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1)];

/// Split `region` into a core (shrunk by `t` on every side) and six
/// disjoint walls that tile the rest. The x walls span the full y/z
/// extent, the y walls span the remaining x and full z, the z walls cover
/// the remaining center columns — so the union of core and walls is
/// exactly `region` with no overlaps, for any thickness (a thickness
/// larger than half the extent produces an empty core and clamped walls).
pub fn shell_and_core(region: Range3, t: usize) -> (Range3, [Range3; 6]) {
    let t = t as i64;
    let clamp_cut = |lo: i64, hi: i64| -> (i64, i64) {
        let l = (lo + t).min(hi);
        let r = (hi - t).max(l);
        (l, r)
    };
    let (xl, xr) = clamp_cut(region.x.0, region.x.1);
    let (yl, yr) = clamp_cut(region.y.0, region.y.1);
    let (zl, zr) = clamp_cut(region.z.0, region.z.1);
    let core = Range3::new((xl, xr), (yl, yr), (zl, zr));
    let walls = [
        // x walls: full y and z extent.
        Range3::new((region.x.0, xl), region.y, region.z),
        Range3::new((xr, region.x.1), region.y, region.z),
        // y walls: center x, full z.
        Range3::new((xl, xr), (region.y.0, yl), region.z),
        Range3::new((xl, xr), (yr, region.y.1), region.z),
        // z walls: center x and y.
        Range3::new((xl, xr), (yl, yr), (region.z.0, zl)),
        Range3::new((xl, xr), (yl, yr), (zr, region.z.1)),
    ];
    (core, walls)
}

/// Split a region into up-to-three z-chunks of near-equal size
/// (Section IV-C: "partition the interior points into thirds along the z
/// dimension", one third overlapped with each communication dimension).
pub fn thirds_along_z(region: Range3) -> [Range3; 3] {
    let z0 = region.z.0;
    let z1 = region.z.1;
    let n = (z1 - z0).max(0);
    let c1 = z0 + n / 3;
    let c2 = z0 + 2 * n / 3;
    [
        Range3::new(region.x, region.y, (z0, c1)),
        Range3::new(region.x, region.y, (c1, c2)),
        Range3::new(region.x, region.y, (c2, z1)),
    ]
}

/// The CPU-box / GPU-block partition of Figure 1.
///
/// The GPU computes an interior block; the CPU computes the enclosing box
/// whose wall thickness is the tunable load-balance parameter. Both
/// partitions also need one-point interface rings:
///
/// * the GPU needs the innermost CPU ring as halo (`gpu_halo_ring`),
/// * the CPU walls need the outermost GPU ring as "inner halo"
///   (`gpu_boundary_ring`), which the GPU computes in dedicated boundary
///   kernels and ships back each step.
/// ```
/// use decomp::BoxPartition;
/// // A 10³ subdomain with a 2-point CPU veneer:
/// let p = BoxPartition::new((10, 10, 10), 2);
/// assert_eq!(p.gpu_points(), 6 * 6 * 6);
/// assert_eq!(p.cpu_points() + p.gpu_points(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct BoxPartition {
    /// Local subdomain interior extent.
    pub extent: (usize, usize, usize),
    /// CPU wall thickness (0 = everything on the GPU).
    pub thickness: usize,
    /// The GPU's interior block.
    pub gpu_block: Range3,
    /// The six CPU walls tiling the box (order: [`WALL_ORDER`]).
    pub cpu_walls: [Range3; 6],
    /// The GPU block's outermost one-point shell — computed by the GPU
    /// boundary kernels, shipped to the CPU each step (6 walls + core of
    /// the block; only the walls are the ring).
    pub gpu_boundary_ring: [Range3; 6],
    /// The GPU block's deep interior (block minus the boundary ring) —
    /// computed by the GPU interior kernel.
    pub gpu_deep_interior: Range3,
    /// The innermost one-point shell of the CPU box (CPU points adjacent
    /// to the GPU block) — shipped to the GPU as halo each step.
    pub gpu_halo_ring: [Range3; 6],
}

impl BoxPartition {
    /// Build the partition for a subdomain of the given extent and CPU
    /// wall thickness.
    pub fn new(extent: (usize, usize, usize), thickness: usize) -> Self {
        let full = Range3::new(
            (0, extent.0 as i64),
            (0, extent.1 as i64),
            (0, extent.2 as i64),
        );
        let (gpu_block, cpu_walls) = shell_and_core(full, thickness);
        let (gpu_deep_interior, gpu_boundary_ring) = shell_and_core(gpu_block, 1);
        // The halo ring: the one-point shell just outside the GPU block.
        // For thickness ≥ 1 this is the innermost shell of the CPU box;
        // for thickness 0 (no CPU box — implementations IV-F/G) it is the
        // subdomain's MPI halo itself.
        let grown = Range3::new(
            (gpu_block.x.0 - 1, gpu_block.x.1 + 1),
            (gpu_block.y.0 - 1, gpu_block.y.1 + 1),
            (gpu_block.z.0 - 1, gpu_block.z.1 + 1),
        );
        let mut gpu_halo_ring = shell_and_core(grown, 1).1;
        if gpu_block.is_empty() {
            // No GPU block: no interface rings.
            gpu_halo_ring = [Range3::new((0, 0), (0, 0), (0, 0)); 6];
        }
        Self {
            extent,
            thickness,
            gpu_block,
            cpu_walls,
            gpu_boundary_ring,
            gpu_deep_interior,
            gpu_halo_ring,
        }
    }

    /// Number of points the CPU computes.
    pub fn cpu_points(&self) -> usize {
        self.cpu_walls.iter().map(|w| w.len()).sum()
    }

    /// Number of points the GPU computes.
    pub fn gpu_points(&self) -> usize {
        self.gpu_block.len()
    }

    /// Points shipped CPU→GPU per step (halo ring).
    pub fn h2d_points(&self) -> usize {
        self.gpu_halo_ring.iter().map(|r| r.len()).sum()
    }

    /// Points shipped GPU→CPU per step (boundary ring).
    pub fn d2h_points(&self) -> usize {
        self.gpu_boundary_ring.iter().map(|r| r.len()).sum()
    }

    /// The CPU walls of one dimension `(low, high)`, for the per-dimension
    /// overlap of implementation IV-I.
    pub fn cpu_walls_of_dim(&self, dim: usize) -> (Range3, Range3) {
        (self.cpu_walls[2 * dim], self.cpu_walls[2 * dim + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_tiles(region: Range3, parts: &[Range3]) {
        // Every point of `region` covered exactly once.
        let vol: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(vol, region.len(), "total volume mismatch");
        for (i, a) in parts.iter().enumerate() {
            for b in parts.iter().skip(i + 1) {
                assert!(a.intersect(b).is_empty(), "parts overlap: {a:?} vs {b:?}");
            }
            assert_eq!(a.intersect(&region).len(), a.len(), "part escapes region");
        }
    }

    #[test]
    fn shell_and_core_tile_for_thickness_one() {
        let region = Range3::new((0, 6), (0, 7), (0, 8));
        let (core, walls) = shell_and_core(region, 1);
        assert_eq!(core, Range3::new((1, 5), (1, 6), (1, 7)));
        let mut parts = vec![core];
        parts.extend(walls);
        assert_tiles(region, &parts);
    }

    #[test]
    fn shell_and_core_tile_for_many_thicknesses() {
        let region = Range3::new((0, 9), (0, 11), (0, 7));
        for t in 0..8 {
            let (core, walls) = shell_and_core(region, t);
            let mut parts = vec![core];
            parts.extend(walls);
            assert_tiles(region, &parts);
        }
    }

    #[test]
    fn thickness_zero_is_all_core() {
        let region = Range3::new((0, 5), (0, 5), (0, 5));
        let (core, walls) = shell_and_core(region, 0);
        assert_eq!(core, region);
        assert!(walls.iter().all(|w| w.is_empty()));
    }

    #[test]
    fn oversized_thickness_empties_core() {
        let region = Range3::new((0, 4), (0, 4), (0, 4));
        let (core, walls) = shell_and_core(region, 3);
        assert!(core.is_empty());
        let vol: usize = walls.iter().map(|w| w.len()).sum();
        assert_eq!(vol, 64);
    }

    #[test]
    fn thirds_tile_the_region() {
        for nz in 1..12 {
            let region = Range3::new((0, 4), (0, 4), (0, nz));
            let thirds = thirds_along_z(region);
            let vol: usize = thirds.iter().map(|t| t.len()).sum();
            assert_eq!(vol, region.len());
            // Near-equal: sizes differ by at most one z plane.
            let mut sizes: Vec<i64> = thirds.iter().map(|t| t.z.1 - t.z.0).collect();
            sizes.sort_unstable();
            assert!(sizes[2] - sizes[0] <= 1, "nz = {nz}: {sizes:?}");
        }
    }

    #[test]
    fn box_partition_tiles_subdomain() {
        for t in 0..5 {
            let p = BoxPartition::new((10, 9, 8), t);
            let full = Range3::new((0, 10), (0, 9), (0, 8));
            let mut parts = vec![p.gpu_block];
            parts.extend(p.cpu_walls);
            assert_tiles(full, &parts);
            assert_eq!(p.cpu_points() + p.gpu_points(), 720);
        }
    }

    #[test]
    fn gpu_block_ring_plus_deep_interior_tile_block() {
        let p = BoxPartition::new((12, 12, 12), 2);
        let mut parts = vec![p.gpu_deep_interior];
        parts.extend(p.gpu_boundary_ring);
        assert_tiles(p.gpu_block, &parts);
    }

    #[test]
    fn halo_ring_is_adjacent_cpu_points() {
        let p = BoxPartition::new((10, 10, 10), 2);
        // Ring points are inside the subdomain, outside the GPU block, and
        // within distance 1 of the block.
        let full = Range3::new((0, 10), (0, 10), (0, 10));
        for r in &p.gpu_halo_ring {
            for (x, y, z) in r.iter() {
                assert!(full.contains(x, y, z));
                assert!(!p.gpu_block.contains(x, y, z));
                let near_x = x >= p.gpu_block.x.0 - 1 && x < p.gpu_block.x.1 + 1;
                let near_y = y >= p.gpu_block.y.0 - 1 && y < p.gpu_block.y.1 + 1;
                let near_z = z >= p.gpu_block.z.0 - 1 && z < p.gpu_block.z.1 + 1;
                assert!(near_x && near_y && near_z, "({x},{y},{z}) not adjacent");
            }
        }
        // And the ring covers the whole one-point shell around the block.
        let expect: usize = {
            let grown = Range3::new(
                (p.gpu_block.x.0 - 1, p.gpu_block.x.1 + 1),
                (p.gpu_block.y.0 - 1, p.gpu_block.y.1 + 1),
                (p.gpu_block.z.0 - 1, p.gpu_block.z.1 + 1),
            );
            grown.len() - p.gpu_block.len()
        };
        assert_eq!(p.h2d_points(), expect);
    }

    #[test]
    fn thin_veneer_thickness_one() {
        // The paper's key configuration: a one-point CPU veneer.
        let p = BoxPartition::new((20, 20, 20), 1);
        assert_eq!(p.gpu_block, Range3::new((1, 19), (1, 19), (1, 19)));
        assert_eq!(p.cpu_points(), 20 * 20 * 20 - 18 * 18 * 18);
    }

    #[test]
    fn cpu_points_equal_the_shell_volume_on_the_paper_grid() {
        // The perf model sizes the CPU box as the shell n³ − (n − 2t)³ of
        // the paper's 420³ grid; the functional partition must agree.
        for t in [1usize, 2, 4] {
            let p = BoxPartition::new((420, 420, 420), t);
            assert_eq!(
                p.cpu_points(),
                420usize.pow(3) - (420 - 2 * t).pow(3),
                "thickness {t}"
            );
        }
    }

    #[test]
    fn all_cpu_when_thickness_huge() {
        let p = BoxPartition::new((6, 6, 6), 10);
        assert_eq!(p.gpu_points(), 0);
        assert_eq!(p.cpu_points(), 216);
        assert_eq!(p.h2d_points(), 0);
        assert_eq!(p.d2h_points(), 0);
    }

    #[test]
    fn thickness_zero_ring_is_the_mpi_halo() {
        // With no CPU box (implementations IV-F/G) the GPU's halo ring is
        // the subdomain's halo: every ring point lies outside the interior
        // and within distance 1 of it.
        let p = BoxPartition::new((5, 6, 7), 0);
        assert_eq!(p.gpu_block, Range3::new((0, 5), (0, 6), (0, 7)));
        let full = p.gpu_block;
        let expected = (7 * 8 * 9) - (5 * 6 * 7);
        assert_eq!(p.h2d_points(), expected);
        for r in &p.gpu_halo_ring {
            for (x, y, z) in r.iter() {
                assert!(!full.contains(x, y, z));
                assert!((-1..=5).contains(&x) && (-1..=6).contains(&y) && (-1..=7).contains(&z));
            }
        }
        // The boundary ring the GPU ships out is the subdomain's skin.
        assert_eq!(p.d2h_points(), 5 * 6 * 7 - 3 * 4 * 5);
    }

    #[test]
    fn wall_dim_accessor_matches_order() {
        let p = BoxPartition::new((10, 10, 10), 2);
        let (lo, hi) = p.cpu_walls_of_dim(0);
        assert_eq!(lo, p.cpu_walls[0]);
        assert_eq!(hi, p.cpu_walls[1]);
        let (lo, hi) = p.cpu_walls_of_dim(2);
        assert_eq!(lo, p.cpu_walls[4]);
        assert_eq!(hi, p.cpu_walls[5]);
    }
}
