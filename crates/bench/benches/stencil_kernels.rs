//! Real-computation benches of the stencil kernels: the serial CPU sweep,
//! the region/slab variants, and the functional GPU kernel at the paper's
//! block shapes (the wall-clock counterpart of Figures 7/8's model sweep).

use advect_core::coeffs::{Stencil27, Velocity};
use advect_core::field::Field3;
use advect_core::flops::FLOPS_PER_POINT;
use advect_core::stencil::{
    apply_stencil_interior, apply_stencil_region, apply_stencil_region_scalar,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use simgpu::kernels::{run_stencil, FieldDims, StencilLaunch};
use std::hint::black_box;
use std::time::Duration;

fn prepared(n: usize) -> (Field3, Field3, Stencil27) {
    let s = Stencil27::new(Velocity::new(1.0, 0.5, 0.25), 0.9);
    let mut src = Field3::new(n, n, n, 1);
    src.fill_interior(|x, y, z| ((x * 13 + y * 7 + z * 3) % 17) as f64 * 0.1);
    src.copy_periodic_halo();
    let dst = Field3::new(n, n, n, 1);
    (src, dst, s)
}

fn bench_cpu_stencil(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu_stencil");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for n in [32usize, 64] {
        let (src, mut dst, s) = prepared(n);
        g.throughput(Throughput::Elements((n as u64).pow(3) * FLOPS_PER_POINT));
        g.bench_function(format!("interior_{n}"), |b| {
            b.iter(|| apply_stencil_interior(black_box(&src), &mut dst, &s))
        });
        let shell = decomp::partition::shell_and_core(src.interior_range(), 1).1;
        g.bench_function(format!("boundary_shell_{n}"), |b| {
            b.iter(|| {
                for r in &shell {
                    apply_stencil_region(black_box(&src), &mut dst, &s, *r);
                }
            })
        });
    }
    g.finish();
}

fn bench_fast_vs_scalar(c: &mut Criterion) {
    // The headline comparison: row-vectorized fast path vs. the scalar
    // per-point oracle it is bit-identical to, on the full 128³ interior.
    let mut g = c.benchmark_group("fast_vs_scalar");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(3));
    let n = 128usize;
    let (src, mut dst, s) = prepared(n);
    let region = src.interior_range();
    g.throughput(Throughput::Elements((n as u64).pow(3) * FLOPS_PER_POINT));
    g.bench_function("fast_128", |b| {
        b.iter(|| apply_stencil_region(black_box(&src), &mut dst, &s, region))
    });
    g.bench_function("scalar_128", |b| {
        b.iter(|| apply_stencil_region_scalar(black_box(&src), &mut dst, &s, region))
    });
    g.finish();
}

fn bench_gpu_kernel_blocks(c: &mut Criterion) {
    // The functional SIMT kernel across the paper's interesting block
    // shapes: functional cost is roughly block-independent, which is why
    // the *timing model*, not the functional path, prices Figures 7/8.
    let mut g = c.benchmark_group("gpu_kernel_blocks");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    let n = 48usize;
    let dims = FieldDims {
        nx: n,
        ny: n,
        nz: n,
        halo: 0,
    };
    let s = Stencil27::new(Velocity::unit_diagonal(), 0.9);
    let mut src = vec![0.0f64; dims.len()];
    for (i, v) in src.iter_mut().enumerate() {
        *v = (i % 23) as f64 * 0.05;
    }
    let mut dst = vec![0.0f64; dims.len()];
    let mut shared = Vec::new();
    for block in [(16usize, 8usize), (32, 8), (32, 11), (64, 4)] {
        g.bench_function(format!("{}x{}", block.0, block.1), |b| {
            b.iter(|| {
                run_stencil(
                    black_box(&src),
                    &mut dst,
                    &s.a,
                    &StencilLaunch {
                        dims,
                        region: dims.interior(),
                        block,
                        periodic: true,
                    },
                    &mut shared,
                )
            })
        });
    }
    g.finish();
}

fn bench_halo_copy(c: &mut Criterion) {
    let mut g = c.benchmark_group("periodic_halo");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for n in [32usize, 64] {
        let (mut src, _, _) = prepared(n);
        g.bench_function(format!("copy_{n}"), |b| b.iter(|| src.copy_periodic_halo()));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_cpu_stencil,
    bench_fast_vs_scalar,
    bench_gpu_kernel_blocks,
    bench_halo_copy
);
criterion_main!(benches);
