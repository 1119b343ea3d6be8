//! Property-based tests (proptest) on the decomposition's invariants:
//! task grids, the six-phase exchange plan, and the interior/boundary
//! and CPU-box/GPU-block partitions.

use advect_core::field::Range3;
use decomp::partition::{shell_and_core, thirds_along_z, BoxPartition};
use decomp::{Decomposition, ExchangePlan};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decomposition_partitions_any_grid(
        ntasks in 1usize..60,
        gx in 4usize..24, gy in 4usize..24, gz in 4usize..24,
    ) {
        // Feasibility: (1, 1, ntasks) always fits when ntasks <= gz
        // (prime counts larger than every dimension have no aligned split).
        prop_assume!(ntasks <= gz);
        let d = Decomposition::new(ntasks, (gx, gy, gz));
        let total: usize = d.subdomains.iter().map(|s| s.len()).sum();
        prop_assert_eq!(total, gx * gy * gz);
        prop_assert!(d.subdomains.iter().all(|s| !s.is_empty()));
        // Extents differ by at most one per dimension.
        for dim in 0..3 {
            let sizes: Vec<usize> = d.subdomains.iter()
                .map(|s| [s.extent.0, s.extent.1, s.extent.2][dim]).collect();
            prop_assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn exchange_plan_covers_halo_exactly_once(
        nx in 1usize..8, ny in 1usize..8, nz in 1usize..8,
    ) {
        let plan = ExchangePlan::new((nx, ny, nz), 1);
        let full = Range3::new(
            (-1, nx as i64 + 1), (-1, ny as i64 + 1), (-1, nz as i64 + 1));
        let interior = Range3::new((0, nx as i64), (0, ny as i64), (0, nz as i64));
        let mut covered = std::collections::HashMap::new();
        for phase in &plan.phases {
            for t in &phase.transfers {
                prop_assert_eq!(t.send_region.len(), t.recv_region.len());
                for p in t.recv_region.iter() {
                    *covered.entry(p).or_insert(0u32) += 1;
                }
            }
        }
        for p in full.iter() {
            let expected = u32::from(!interior.contains(p.0, p.1, p.2));
            prop_assert_eq!(covered.get(&p).copied().unwrap_or(0), expected,
                "point {:?}", p);
        }
    }

    #[test]
    fn shell_and_core_tiles_any_region(
        x0 in -3i64..3, w in 1i64..12,
        y0 in -3i64..3, h in 1i64..12,
        z0 in -3i64..3, d in 1i64..12,
        t in 0usize..8,
    ) {
        let region = Range3::new((x0, x0 + w), (y0, y0 + h), (z0, z0 + d));
        let (core, walls) = shell_and_core(region, t);
        let vol: usize = core.len() + walls.iter().map(|r| r.len()).sum::<usize>();
        prop_assert_eq!(vol, region.len());
        // Pairwise disjoint.
        let mut parts = vec![core];
        parts.extend(walls);
        for i in 0..parts.len() {
            for j in i + 1..parts.len() {
                prop_assert!(parts[i].intersect(&parts[j]).is_empty());
            }
        }
    }

    #[test]
    fn box_partition_is_consistent(
        nx in 3usize..20, ny in 3usize..20, nz in 3usize..20,
        t in 0usize..6,
    ) {
        let p = BoxPartition::new((nx, ny, nz), t);
        prop_assert_eq!(p.cpu_points() + p.gpu_points(), nx * ny * nz);
        // Deep interior + boundary ring tile the block.
        let ring: usize = p.gpu_boundary_ring.iter().map(|r| r.len()).sum();
        prop_assert_eq!(p.gpu_deep_interior.len() + ring, p.gpu_points());
        // The halo ring is exactly the one-point shell around the block.
        if !p.gpu_block.is_empty() {
            let grown = Range3::new(
                (p.gpu_block.x.0 - 1, p.gpu_block.x.1 + 1),
                (p.gpu_block.y.0 - 1, p.gpu_block.y.1 + 1),
                (p.gpu_block.z.0 - 1, p.gpu_block.z.1 + 1),
            );
            prop_assert_eq!(p.h2d_points(), grown.len() - p.gpu_points());
        }
    }

    #[test]
    fn thirds_cover_without_overlap(
        nx in 1usize..10, ny in 1usize..10, nz in 1usize..16,
    ) {
        let region = Range3::new((0, nx as i64), (0, ny as i64), (0, nz as i64));
        let thirds = thirds_along_z(region);
        let vol: usize = thirds.iter().map(|t| t.len()).sum();
        prop_assert_eq!(vol, region.len());
        prop_assert!(thirds[0].intersect(&thirds[1]).is_empty());
        prop_assert!(thirds[1].intersect(&thirds[2]).is_empty());
    }
}
