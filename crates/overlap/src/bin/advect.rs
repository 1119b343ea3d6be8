//! `advect` — run the advection test case on the simulated substrates.
//!
//! ```text
//! advect --impl IV-I --grid 32 --steps 16 --tasks 8 --threads 2 \
//!        --thickness 2 --block 32x8 --gpu c2050 [--stats]
//! ```
//!
//! Runs the chosen implementation functionally, verifies it against the
//! serial reference bit-for-bit, and reports error norms against the
//! analytic solution plus substrate statistics.

use advect_core::{AdvectionProblem, SerialStepper, Velocity};
use overlap::{Impl, RunConfig};
use simgpu::GpuSpec;

#[derive(Debug)]
struct Args {
    implementation: String,
    grid: usize,
    steps: u64,
    tasks: usize,
    threads: usize,
    thickness: usize,
    block: (usize, usize),
    gpu: String,
    stats: bool,
    velocity: Velocity,
    nu: Option<f64>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            implementation: "IV-B".into(),
            grid: 24,
            steps: 8,
            tasks: 4,
            threads: 2,
            thickness: 2,
            block: (32, 8),
            gpu: "c2050".into(),
            stats: false,
            velocity: Velocity::unit_diagonal(),
            nu: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: advect [--impl IV-A..IV-I] [--grid N] [--steps N] [--tasks N]\n\
         \x20             [--threads N] [--thickness N] [--block WxH]\n\
         \x20             [--gpu c1060|c2050] [--velocity cx,cy,cz] [--nu F]\n\
         \x20             [--stats]\n\
         \n\
         implementations: IV-A single task, IV-B bulk-sync MPI, IV-C nonblocking,\n\
         IV-D thread overlap, IV-E GPU resident, IV-F GPU bulk-sync, IV-G GPU\n\
         streams, IV-H hybrid bulk-sync, IV-I hybrid full overlap"
    );
    std::process::exit(2)
}

fn parse() -> Args {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--impl" => a.implementation = val(),
            "--grid" => a.grid = val().parse().unwrap_or_else(|_| usage()),
            "--steps" => a.steps = val().parse().unwrap_or_else(|_| usage()),
            "--tasks" => a.tasks = val().parse().unwrap_or_else(|_| usage()),
            "--threads" => a.threads = val().parse().unwrap_or_else(|_| usage()),
            "--thickness" => a.thickness = val().parse().unwrap_or_else(|_| usage()),
            "--block" => {
                let v = val();
                let (x, y) = v.split_once('x').unwrap_or_else(|| usage());
                a.block = (
                    x.parse().unwrap_or_else(|_| usage()),
                    y.parse().unwrap_or_else(|_| usage()),
                );
            }
            "--gpu" => a.gpu = val(),
            "--velocity" => {
                let v = val();
                let parts: Vec<f64> = v.split(',').filter_map(|p| p.parse().ok()).collect();
                if parts.len() != 3 {
                    usage();
                }
                a.velocity = Velocity::new(parts[0], parts[1], parts[2]);
            }
            "--nu" => a.nu = Some(val().parse().unwrap_or_else(|_| usage())),
            "--stats" => a.stats = true,
            "-h" | "--help" => usage(),
            _ => {
                eprintln!("unknown flag: {flag}");
                usage();
            }
        }
    }
    a
}

fn impl_by_name(name: &str) -> Option<Impl> {
    Impl::ALL
        .into_iter()
        .find(|i| i.section().eq_ignore_ascii_case(name))
}

fn main() {
    let a = parse();
    let problem = AdvectionProblem {
        velocity: a.velocity,
        nu: a.nu.unwrap_or_else(|| a.velocity.max_stable_nu()),
        ..AdvectionProblem::paper_case(a.grid)
    };
    if !advect_core::is_stable(problem.velocity, problem.nu) {
        eprintln!(
            "warning: nu = {} is von-Neumann unstable for velocity ({}, {}, {})",
            problem.nu, a.velocity.cx, a.velocity.cy, a.velocity.cz
        );
    }
    let spec = match a.gpu.as_str() {
        "c1060" => GpuSpec::tesla_c1060(),
        "c2050" => GpuSpec::tesla_c2050(),
        other => {
            eprintln!("unknown GPU: {other}");
            usage();
        }
    };

    // Serial reference for verification.
    let mut reference = SerialStepper::new(problem);
    let t0 = std::time::Instant::now();
    reference.run(a.steps);
    let serial_s = t0.elapsed().as_secs_f64();

    let im = impl_by_name(&a.implementation).unwrap_or_else(|| {
        eprintln!("unknown implementation: {}", a.implementation);
        usage();
    });
    let cfg = RunConfig::new(problem, a.steps)
        .tasks(if im.uses_mpi() { a.tasks } else { 1 })
        .with_threads(a.threads)
        .with_block(a.block)
        .with_thickness(a.thickness.max(usize::from(im == Impl::HybridOverlap)));
    let t0 = std::time::Instant::now();
    let state = im.run(&cfg, Some(&spec));
    let elapsed = t0.elapsed().as_secs_f64();

    let diff = state.max_abs_diff(reference.state());
    let norms = problem.norms_after(&state, a.steps);
    println!("implementation : {} ({})", im.name(), im.section());
    println!(
        "problem        : {n}³ grid, velocity ({cx}, {cy}, {cz}), nu {nu}, {steps} steps",
        n = a.grid,
        cx = a.velocity.cx,
        cy = a.velocity.cy,
        cz = a.velocity.cz,
        nu = problem.nu,
        steps = a.steps
    );
    println!(
        "vs serial      : max|diff| = {diff:.3e} ({})",
        if diff == 0.0 { "bit-exact" } else { "MISMATCH" }
    );
    println!(
        "vs analytic    : L1 {:.3e}  L2 {:.3e}  Linf {:.3e}",
        norms.l1, norms.l2, norms.linf
    );
    println!("wall time      : {elapsed:.3}s (serial reference {serial_s:.3}s)");
    if a.stats {
        let points = (a.grid as u64).pow(3);
        println!(
            "throughput     : {:.3} GF functional (53 flops/point/step)",
            advect_core::flops::gigaflops(points, a.steps, elapsed)
        );
    }
    if diff != 0.0 {
        std::process::exit(1);
    }
}
