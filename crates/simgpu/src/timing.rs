//! Virtual-time cost model for device operations.
//!
//! Durations come from the [`GpuSpec`] roofline (memory bandwidth against
//! double-precision peak) scaled by block-shape efficiency factors, and are
//! used both by the live device timeline (see [`crate::Gpu::timeline`])
//! and by the `perfmodel` crate when it regenerates Figures 7
//! and 8 (the GPU block-size sweeps):
//!
//! * **coalescing** — global loads are issued per half warp; an x extent of
//!   a full warp is ideal, a half warp costs extra transactions,
//!   non-multiples waste lanes;
//! * **halo-thread overhead** — a `(bx, by)` block computes only its
//!   `(bx-2) × (by-2)` interior tile ("the thread block includes threads
//!   associated with halo points that only perform memory operations");
//! * **occupancy** — resident warps per SM, limited by the per-SM thread
//!   budget, shared memory, and the 8-block cap, relative to the warps
//!   needed to hide memory latency;
//! * **register pressure** — blocks whose threads exceed the SM register
//!   file spill to local memory (the cliff that makes 32×12+ blocks slow
//!   on the C1060);
//! * **block synchronization** — the per-plane `syncthreads` cost grows
//!   with warps per block, favoring shorter blocks (why 32×8 edges out
//!   taller blocks on the C2050).
//!
//! The absolute scale (`stencil_base_efficiency`) is calibrated to the
//! paper's anchors: GPU-resident ≈ 86 GF on the C2050 at 32×8 (stated in
//! Section V-E) and ≈ 33 GF on the C1060 at 32×11.

use crate::kernels::StencilLaunch;
use crate::spec::GpuSpec;
use advect_core::flops::FLOPS_PER_POINT;

/// Bytes of global-memory traffic per updated point: one 8-byte read
/// (amortized by shared-memory reuse) plus one 8-byte write.
pub const BYTES_PER_POINT: f64 = 16.0;

/// Registers per thread of the double-precision 27-tap kernel (estimate;
/// drives the spill model).
pub const REGS_PER_THREAD: usize = 43;

/// Memory-coalescing efficiency of an x block extent.
pub fn coalescing_efficiency(spec: &GpuSpec, bx: usize) -> f64 {
    let w = spec.warp;
    if bx == 0 {
        return 0.05;
    }
    if bx.is_multiple_of(w) {
        1.0
    } else if bx.is_multiple_of(w / 2) {
        // Half-warp segments: each 16-lane transaction moves half a line.
        0.62
    } else {
        // Misaligned: partially filled transactions.
        0.62 * bx as f64 / (bx.div_ceil(w) * w) as f64
    }
}

/// Fraction of block threads that compute (the rest are halo loaders),
/// normalized so a comfortable tile (≈0.8) scores 1.
pub fn halo_thread_efficiency(block: (usize, usize)) -> f64 {
    let (bx, by) = block;
    let raw = if bx < 3 || by < 3 {
        0.25
    } else {
        ((bx - 2) * (by - 2)) as f64 / (bx * by) as f64
    };
    0.35 + 0.65 * raw / 0.8
}

/// Shared memory per block: one staged `(bx+3) × (by+2)` plane of f64
/// (front and back z planes live in registers, as in Micikevicius 2009);
/// the x extent is padded to avoid shared-memory bank conflicts.
pub fn shared_bytes_per_block(block: (usize, usize)) -> usize {
    (block.0 + 3) * (block.1 + 2) * 8
}

/// Penalty applied when a block's staging does not fit shared memory and
/// spills to global-memory staging.
pub fn smem_spill_factor(spec: &GpuSpec, block: (usize, usize)) -> f64 {
    if shared_bytes_per_block(block) > spec.smem_per_sm_bytes {
        0.6
    } else {
        1.0
    }
}

/// Resident blocks per SM, limited by threads, shared memory, and the
/// hardware cap of 8.
pub fn blocks_per_sm(spec: &GpuSpec, block: (usize, usize)) -> usize {
    let threads = block.0 * block.1;
    if threads == 0 || threads > spec.max_threads_per_block {
        return 0;
    }
    let by_threads = spec.max_threads_per_sm / threads;
    // A block whose staging exceeds shared memory still runs (spilled to
    // global staging, see `smem_spill_factor`), one block at a time.
    let by_smem = (spec.smem_per_sm_bytes / shared_bytes_per_block(block)).max(1);
    by_threads.min(by_smem).min(8)
}

/// Occupancy factor: resident warps per SM relative to the latency-hiding
/// requirement of the part.
pub fn occupancy_efficiency(spec: &GpuSpec, block: (usize, usize)) -> f64 {
    let blocks = blocks_per_sm(spec, block);
    if blocks == 0 {
        return 0.0;
    }
    let warps = (blocks * block.0 * block.1) as f64 / spec.warp as f64;
    (warps / spec.warps_needed as f64).min(1.0).sqrt()
}

/// Register-spill factor: 1.0 when the block's registers fit the SM file,
/// 0.5 once spilling to local memory sets in.
pub fn register_spill_factor(spec: &GpuSpec, block: (usize, usize)) -> f64 {
    if block.0 * block.1 * REGS_PER_THREAD > spec.regfile_per_sm {
        0.5
    } else {
        1.0
    }
}

/// Per-plane block synchronization cost factor (grows with warps/block).
pub fn sync_factor(spec: &GpuSpec, block: (usize, usize)) -> f64 {
    let warps_per_block = (block.0 * block.1) as f64 / spec.warp as f64;
    1.0 / (1.0 + spec.sync_cost_per_warp * warps_per_block)
}

/// Sustained rate (points/s) of the stencil kernel at a block shape.
pub fn stencil_points_per_second(spec: &GpuSpec, block: (usize, usize)) -> f64 {
    let eff = spec.stencil_base_efficiency
        * coalescing_efficiency(spec, block.0)
        * halo_thread_efficiency(block)
        * occupancy_efficiency(spec, block)
        * register_spill_factor(spec, block)
        * smem_spill_factor(spec, block)
        * sync_factor(spec, block);
    let mem_limit = spec.mem_bw_gbs * 1e9 / BYTES_PER_POINT;
    let flop_roof = spec.dp_gflops * 1e9 / FLOPS_PER_POINT as f64 * 0.85;
    (eff * mem_limit).min(flop_roof)
}

/// Duration of a stencil kernel launch.
pub fn stencil_kernel_time(spec: &GpuSpec, launch: &StencilLaunch) -> f64 {
    let pts = launch.points() as f64;
    if pts == 0.0 {
        return spec.launch_overhead_s;
    }
    // Thin launches (boundary faces) cannot fill the machine: scale the
    // rate by how many blocks exist relative to the SM count.
    let fill = (launch.blocks() as f64 / spec.sm_count as f64).clamp(0.1, 1.0);
    spec.launch_overhead_s + pts / (stencil_points_per_second(spec, launch.block) * fill)
}

/// Duration of a pack/unpack kernel (pure bandwidth, strided access).
pub fn pack_kernel_time(spec: &GpuSpec, points: usize) -> f64 {
    // Strided gather/scatter: ~25% of streaming bandwidth.
    spec.launch_overhead_s + points as f64 * 16.0 / (spec.mem_bw_gbs * 1e9 * 0.25)
}

/// Duration of a PCIe transfer of `points` f64 values.
pub fn pcie_time(spec: &GpuSpec, points: usize) -> f64 {
    spec.pcie_latency_s + points as f64 * 8.0 / (spec.pcie_bw_gbs * 1e9)
}

/// Duration of a full-device resident stencil pass: the periodic,
/// halo-free `grid³` launch of IV-E.
pub fn resident_kernel_time(spec: &GpuSpec, grid: usize, block: (usize, usize)) -> f64 {
    let launch = StencilLaunch {
        dims: crate::kernels::FieldDims {
            nx: grid,
            ny: grid,
            nz: grid,
            halo: 0,
        },
        region: advect_core::field::Range3::new(
            (0, grid as i64),
            (0, grid as i64),
            (0, grid as i64),
        ),
        block,
        periodic: true,
    };
    stencil_kernel_time(spec, &launch)
}

/// Achieved GF of a full-device resident stencil pass (the block-size
/// sweep of Figures 7 and 8).
pub fn resident_gigaflops(spec: &GpuSpec, grid: usize, block: (usize, usize)) -> f64 {
    let t = resident_kernel_time(spec, grid, block);
    (grid as f64).powi(3) * FLOPS_PER_POINT as f64 / t / 1e9
}

/// Global-memory bytes per point of a 3-D-block kernel: the staged
/// `(b+2)³` neighborhood is re-loaded per block (no z-march reuse),
/// plus the 8-byte write.
pub fn bytes_per_point_3d(block: (usize, usize, usize)) -> f64 {
    let (bx, by, bz) = block;
    let tile = (bx.max(1) * by.max(1) * bz.max(1)) as f64;
    let staged = ((bx + 2) * (by + 2) * (bz + 2)) as f64;
    8.0 * staged / tile + 8.0
}

/// Sustained rate (points/s) of the 3-D-block stencil variant the paper
/// rejected: same shape factors as the 2-D kernel but with the extra
/// global traffic of re-staging every z plane.
pub fn stencil_points_per_second_3d(spec: &GpuSpec, block: (usize, usize, usize)) -> f64 {
    let flat = (block.0, block.1 * block.2);
    let eff = spec.stencil_base_efficiency
        * coalescing_efficiency(spec, block.0)
        * halo_thread_efficiency(flat)
        * occupancy_efficiency(spec, flat)
        * register_spill_factor(spec, flat)
        * smem_spill_factor(spec, flat)
        * sync_factor(spec, flat);
    let mem_limit = spec.mem_bw_gbs * 1e9 / bytes_per_point_3d(block);
    let flop_roof = spec.dp_gflops * 1e9 / FLOPS_PER_POINT as f64 * 0.85;
    (eff * mem_limit).min(flop_roof)
}

/// Best 3-D block by exhaustive sweep (x warp-aligned, total threads
/// within the hardware limit).
pub fn best_block_3d(spec: &GpuSpec) -> ((usize, usize, usize), f64) {
    let mut best = ((0, 0, 0), 0.0f64);
    for bx in [16usize, 32, 64] {
        for by in 1..=16usize {
            for bz in 1..=16usize {
                if bx * by * bz > spec.max_threads_per_block {
                    continue;
                }
                let rate = stencil_points_per_second_3d(spec, (bx, by, bz));
                let gf = rate * FLOPS_PER_POINT as f64 / 1e9;
                if gf > best.1 {
                    best = ((bx, by, bz), gf);
                }
            }
        }
    }
    best
}

/// The best block shape for a spec by exhaustive sweep over warp-aligned
/// and half-warp x extents (the sweep of Figures 7 and 8).
pub fn best_block(spec: &GpuSpec, grid: usize) -> ((usize, usize), f64) {
    let mut best = ((0, 0), 0.0);
    for bx in [16usize, 32, 64, 128] {
        for by in 1..=spec.max_threads_per_block / bx {
            let gf = resident_gigaflops(spec, grid, (bx, by));
            if gf > best.1 {
                best = ((bx, by), gf);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_multiple_coalesces_best() {
        let spec = GpuSpec::tesla_c1060();
        assert_eq!(coalescing_efficiency(&spec, 32), 1.0);
        assert_eq!(coalescing_efficiency(&spec, 64), 1.0);
        assert!(coalescing_efficiency(&spec, 16) < 1.0);
        assert!(coalescing_efficiency(&spec, 20) < coalescing_efficiency(&spec, 16));
    }

    #[test]
    fn halo_efficiency_favors_square_ish_blocks() {
        assert!(halo_thread_efficiency((32, 11)) > halo_thread_efficiency((32, 4)));
        assert!(halo_thread_efficiency((128, 4)) < halo_thread_efficiency((32, 11)));
    }

    #[test]
    fn oversized_block_has_zero_occupancy() {
        let spec = GpuSpec::tesla_c1060();
        assert_eq!(occupancy_efficiency(&spec, (64, 9)), 0.0); // 576 > 512
        assert!(occupancy_efficiency(&spec, (32, 16)) > 0.0); // 512 ok
    }

    #[test]
    fn best_c1060_block_is_32x11() {
        // Fig. 7: "top performance coming from a block size of 32×11".
        let spec = GpuSpec::tesla_c1060();
        let ((bx, by), gf) = best_block(&spec, 420);
        assert_eq!(
            bx, 32,
            "best x extent should be the warp size, got {bx}×{by}"
        );
        assert_eq!(
            by, 11,
            "best block should be 32×11, got {bx}×{by} at {gf} GF"
        );
    }

    #[test]
    fn best_c2050_block_is_32x8() {
        // Fig. 8: "the best performance comes from an x block size of 32,
        // but with a slightly smaller y block size of 8".
        let spec = GpuSpec::tesla_c2050();
        let ((bx, by), gf) = best_block(&spec, 420);
        assert_eq!((bx, by), (32, 8), "got {bx}×{by} at {gf} GF");
    }

    #[test]
    fn c2050_resident_near_86_gf_at_32x8() {
        // Section V-E anchor: "the best GPU-resident performance on Yona
        // is 86 GF".
        let spec = GpuSpec::tesla_c2050();
        let gf = resident_gigaflops(&spec, 420, (32, 8));
        assert!((gf - 86.0).abs() < 6.0, "calibration drifted: {gf} GF");
    }

    #[test]
    fn c1060_resident_in_plausible_band() {
        let spec = GpuSpec::tesla_c1060();
        let gf = resident_gigaflops(&spec, 420, (32, 11));
        assert!(gf > 25.0 && gf < 45.0, "C1060 resident {gf} GF out of band");
    }

    #[test]
    fn register_spill_cliff_on_c1060() {
        let spec = GpuSpec::tesla_c1060();
        assert_eq!(register_spill_factor(&spec, (32, 11)), 1.0);
        assert_eq!(register_spill_factor(&spec, (32, 12)), 0.5);
    }

    #[test]
    fn two_d_blocks_beat_three_d_blocks() {
        // Section V-C: "We use two-dimensional blocks instead of three
        // because they allow better memory reuse in our test." Verify the
        // model agrees on both parts.
        for spec in [GpuSpec::tesla_c1060(), GpuSpec::tesla_c2050()] {
            let best2d = best_block(&spec, 420).1;
            let (b3, gf3_rate) = best_block_3d(&spec);
            // Convert the 3-D rate to the same whole-grid GF accounting.
            let gf3 = gf3_rate; // already GF per rate above
            assert!(
                best2d > gf3,
                "{}: 2-D {best2d} GF vs 3-D {gf3} GF at {b3:?}",
                spec.name
            );
        }
    }

    #[test]
    fn three_d_blocks_move_more_bytes_per_point() {
        assert!(bytes_per_point_3d((8, 8, 8)) > BYTES_PER_POINT);
        // Bigger blocks amortize halo loads better, but never reach the
        // z-march's reuse.
        assert!(bytes_per_point_3d((16, 8, 8)) < bytes_per_point_3d((8, 8, 4)));
        assert!(bytes_per_point_3d((16, 8, 8)) > BYTES_PER_POINT);
    }

    #[test]
    fn pcie_time_has_latency_floor() {
        let spec = GpuSpec::tesla_c1060();
        assert!(pcie_time(&spec, 0) >= spec.pcie_latency_s);
        let t1 = pcie_time(&spec, 1_000_000);
        let t2 = pcie_time(&spec, 2_000_000);
        assert!(t2 > t1 && t2 < 2.2 * t1);
    }

    #[test]
    fn thin_boundary_launch_slower_per_point() {
        use crate::kernels::{FieldDims, StencilLaunch};
        use advect_core::field::Range3;
        let spec = GpuSpec::tesla_c2050();
        let dims = FieldDims {
            nx: 128,
            ny: 128,
            nz: 128,
            halo: 1,
        };
        let full = StencilLaunch {
            dims,
            region: Range3::new((0, 128), (0, 128), (0, 128)),
            block: (32, 8),
            periodic: false,
        };
        let face = StencilLaunch {
            dims,
            region: Range3::new((0, 128), (0, 1), (0, 128)),
            block: (32, 8),
            periodic: false,
        };
        let t_full = stencil_kernel_time(&spec, &full) / full.points() as f64;
        let t_face = stencil_kernel_time(&spec, &face) / face.points() as f64;
        assert!(t_face > 2.0 * t_full, "face {t_face} vs full {t_full}");
    }
}
