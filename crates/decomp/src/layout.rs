//! Per-rank subdomain layout and the periodic process topology.

use crate::factor::factor3;

/// One task's subdomain of the global grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subdomain {
    /// Global offset of interior point (0, 0, 0).
    pub offset: (usize, usize, usize),
    /// Interior extent.
    pub extent: (usize, usize, usize),
}

impl Subdomain {
    /// Number of interior points.
    pub fn len(&self) -> usize {
        self.extent.0 * self.extent.1 * self.extent.2
    }

    /// Whether the subdomain is empty (never true for valid decompositions).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A full decomposition of a global grid over `ntasks` ranks.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Global grid extent.
    pub global: (usize, usize, usize),
    /// Process grid (px, py, pz).
    pub pgrid: (usize, usize, usize),
    /// Per-rank subdomains, indexed by rank.
    pub subdomains: Vec<Subdomain>,
}

impl Decomposition {
    /// Decompose `global` over `ntasks` ranks using the paper's algorithm:
    /// near-cubic process grid, block distribution with sizes differing by
    /// at most one point per dimension.
    pub fn new(ntasks: usize, global: (usize, usize, usize)) -> Self {
        let pgrid = factor3(ntasks, global);
        let subdomains = (0..ntasks)
            .map(|rank| {
                let (cx, cy, cz) = Self::coords_of(rank, pgrid);
                let (x, y, z) = (
                    block(global.0, pgrid.0, cx),
                    block(global.1, pgrid.1, cy),
                    block(global.2, pgrid.2, cz),
                );
                Subdomain {
                    offset: (x.0, y.0, z.0),
                    extent: (x.1, y.1, z.1),
                }
            })
            .collect();
        Self {
            global,
            pgrid,
            subdomains,
        }
    }

    /// Rank 0's extent in the decomposition [`Decomposition::new`] builds,
    /// without building the per-rank table. Rank 0 holds the first block
    /// of every dimension, so its subdomain is the largest.
    pub fn rank0_extent(ntasks: usize, global: (usize, usize, usize)) -> (usize, usize, usize) {
        let (px, py, pz) = factor3(ntasks, global);
        (
            block(global.0, px, 0).1,
            block(global.1, py, 0).1,
            block(global.2, pz, 0).1,
        )
    }

    /// Number of ranks.
    pub fn ntasks(&self) -> usize {
        self.subdomains.len()
    }

    /// Process-grid coordinates of a rank (x fastest).
    pub fn coords(&self, rank: usize) -> (usize, usize, usize) {
        Self::coords_of(rank, self.pgrid)
    }

    fn coords_of(rank: usize, (px, py, _pz): (usize, usize, usize)) -> (usize, usize, usize) {
        (rank % px, (rank / px) % py, rank / (px * py))
    }

    /// Rank of process-grid coordinates (periodic wrap applied).
    pub fn rank_of(&self, c: (isize, isize, isize)) -> usize {
        let (px, py, pz) = self.pgrid;
        let w = |v: isize, p: usize| -> usize { v.rem_euclid(p as isize) as usize };
        let (cx, cy, cz) = (w(c.0, px), w(c.1, py), w(c.2, pz));
        cx + px * (cy + py * cz)
    }

    /// The rank's neighbor in direction `dir ∈ {-1, +1}` of dimension
    /// `dim ∈ {0, 1, 2}` with periodic wrap. May be the rank itself.
    pub fn neighbor(&self, rank: usize, dim: usize, dir: i32) -> usize {
        let (cx, cy, cz) = self.coords(rank);
        let mut c = (cx as isize, cy as isize, cz as isize);
        match dim {
            0 => c.0 += dir as isize,
            1 => c.1 += dir as isize,
            2 => c.2 += dir as isize,
            _ => panic!("dimension must be 0, 1, or 2"),
        }
        self.rank_of(c)
    }
}

/// Offset and extent of block `i` when `g` points are split into `p`
/// blocks: the first `g mod p` blocks get one extra point.
fn block(g: usize, p: usize, i: usize) -> (usize, usize) {
    let (base, rem) = (g / p, g % p);
    (i * base + i.min(rem), base + usize::from(i < rem))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subdomains_partition_the_grid() {
        for ntasks in [1, 2, 3, 5, 8, 12, 27, 40] {
            let d = Decomposition::new(ntasks, (13, 11, 17));
            let total: usize = d.subdomains.iter().map(|s| s.len()).sum();
            assert_eq!(total, 13 * 11 * 17, "ntasks = {ntasks}");
            assert!(d.subdomains.iter().all(|s| !s.is_empty()));
        }
    }

    #[test]
    fn every_global_point_owned_exactly_once() {
        let contains = |s: &Subdomain, g: [usize; 3]| {
            let (o, e) = (<[usize; 3]>::from(s.offset), <[usize; 3]>::from(s.extent));
            (0..3).all(|d| g[d] >= o[d] && g[d] < o[d] + e[d])
        };
        let d = Decomposition::new(10, (7, 6, 5));
        for x in 0..7 {
            for y in 0..6 {
                for z in 0..5 {
                    let owners = d
                        .subdomains
                        .iter()
                        .filter(|s| contains(s, [x, y, z]))
                        .count();
                    assert_eq!(owners, 1, "point ({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn extents_differ_by_at_most_one() {
        let d = Decomposition::new(9, (420, 420, 420));
        for dim in 0..3 {
            let sizes: Vec<usize> = d
                .subdomains
                .iter()
                .map(|s| [s.extent.0, s.extent.1, s.extent.2][dim])
                .collect();
            let max = sizes.iter().max().unwrap();
            let min = sizes.iter().min().unwrap();
            assert!(max - min <= 1, "dim {dim}: {max} vs {min}");
        }
    }

    #[test]
    fn cubic_count_divisor_gives_identical_cubes() {
        // 27 tasks, 3 | 420 ⇒ every task has the same cubic subdomain.
        let d = Decomposition::new(27, (420, 420, 420));
        assert_eq!(d.pgrid, (3, 3, 3));
        for s in &d.subdomains {
            assert_eq!(s.extent, (140, 140, 140));
        }
    }

    #[test]
    fn rank_coords_roundtrip() {
        let d = Decomposition::new(24, (420, 420, 420));
        for rank in 0..24 {
            let c = d.coords(rank);
            assert_eq!(d.rank_of((c.0 as isize, c.1 as isize, c.2 as isize)), rank);
        }
    }

    #[test]
    fn neighbors_wrap_periodically() {
        let d = Decomposition::new(8, (8, 8, 8)); // 2×2×2
                                                  // In a 2-wide dimension, both neighbors are the same rank.
        let r = 0;
        assert_eq!(d.neighbor(r, 0, -1), d.neighbor(r, 0, 1));
        assert_ne!(d.neighbor(r, 0, 1), r);
    }

    #[test]
    fn single_task_is_its_own_neighbor() {
        let d = Decomposition::new(1, (8, 8, 8));
        for dim in 0..3 {
            assert_eq!(d.neighbor(0, dim, -1), 0);
            assert_eq!(d.neighbor(0, dim, 1), 0);
        }
    }

    #[test]
    fn rank0_extent_is_rank_zeros_and_the_largest() {
        for ntasks in [1, 2, 3, 4, 5, 8, 12, 27, 40] {
            let global = (13, 11, 17);
            let d = Decomposition::new(ntasks, global);
            let e = Decomposition::rank0_extent(ntasks, global);
            assert_eq!(e, d.subdomains[0].extent, "ntasks = {ntasks}");
            assert!(d.subdomains.iter().all(|s| s.len() <= e.0 * e.1 * e.2));
        }
    }
}
