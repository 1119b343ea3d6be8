//! Watch the overlap happen on the simulated device's virtual timeline:
//! the same halo-update work issued bulk-synchronously (IV-F style), with
//! a second stream (IV-G style), and decoupled with async copies beside
//! the interior kernel (IV-I style). The Gantt charts show the copy
//! engines sliding under the compute engine as the schedule improves.
//!
//! The ASCII Gantt and the span tracer share one category taxonomy:
//! `Timeline::to_trace_events()` bridges the device timeline into
//! `obs` spans (`kernel.launch`, `pcie.h2d`, `pcie.d2h`), so the last
//! schedule is also written out as Chrome-trace JSON for Perfetto.
//!
//! ```text
//! cargo run --release -p simgpu --example device_timeline
//! ```

use advect_core::AdvectionProblem;
use simgpu::{FieldDims, Gpu, GpuSpec, StencilLaunch, Stream};

fn main() {
    let n = 96usize;
    let problem = AdvectionProblem::general_case(n);
    let stencil = problem.stencil();
    let dims = FieldDims {
        nx: n,
        ny: n,
        nz: n,
        halo: 1,
    };
    let interior =
        advect_core::field::Range3::new((1, n as i64 - 1), (1, n as i64 - 1), (1, n as i64 - 1));
    // Halo traffic per direction: a few MB, so the PCIe time is of the
    // same order as the kernel (one node of the 420-case is like this).
    let ring = 500_000usize;
    let mut host = vec![0.0f64; ring];

    let mut run = |mode: &str| -> (f64, f64, String, Vec<obs::Span>) {
        let gpu = Gpu::new(GpuSpec::tesla_c2050());
        gpu.set_constant(stencil.a);
        let cur = gpu.alloc(dims.len());
        let new = gpu.alloc(dims.len());
        let staging = gpu.alloc(ring);
        let staging2 = gpu.alloc(ring);
        let s1 = gpu.create_stream();
        let s2 = gpu.create_stream();
        gpu.sync_device();
        gpu.reset_clock();
        let launch = StencilLaunch {
            dims,
            region: interior,
            block: (32, 8),
            periodic: false,
        };
        match mode {
            // Everything chained on the default stream.
            "bulk-sync (IV-F style)" => {
                gpu.d2h(Stream::DEFAULT, staging, 0, &mut host);
                gpu.h2d(Stream::DEFAULT, &host, staging, 0);
                gpu.launch_stencil(Stream::DEFAULT, cur, new, launch);
            }
            // Interior first; halo traffic chained on a second stream
            // (one direction must wait for the other: the MPI between
            // them serializes the copy engines).
            "streams (IV-G style)" => {
                gpu.launch_stencil(Stream::DEFAULT, cur, new, launch);
                gpu.d2h(s1, staging, 0, &mut host);
                gpu.h2d(s1, &host, staging, 0);
            }
            // Decoupled: each direction on its own stream, no mutual
            // dependency — both DMA engines run beside the kernel.
            _ => {
                gpu.h2d(s1, &host, staging, 0);
                gpu.launch_stencil(Stream::DEFAULT, cur, new, launch);
                gpu.d2h(s2, staging2, 0, &mut host);
            }
        }
        let t = gpu.sync_device();
        let tl = gpu.timeline();
        (
            t,
            tl.concurrency(),
            tl.render_gantt(56),
            tl.to_trace_events(),
        )
    };

    let mut base = 0.0;
    let mut last_spans = Vec::new();
    for mode in [
        "bulk-sync (IV-F style)",
        "streams (IV-G style)",
        "full overlap (IV-I style)",
    ] {
        let (t, conc, gantt, spans) = run(mode);
        if base == 0.0 {
            base = t;
        }
        println!("== {mode} ==");
        print!("{gantt}");
        println!(
            "virtual step time {:.3} ms ({:.2}x vs bulk), concurrency {conc:.2}\n",
            t * 1e3,
            base / t
        );
        last_spans = spans;
    }

    // The same timeline, through the tracer bridge: the Gantt rows above
    // become `kernel.launch` / `pcie.h2d` / `pcie.d2h` spans on the
    // virtual axis of a Chrome trace (process "rank 0 (virtual)").
    let trace = obs::Trace {
        rank: 0,
        spans: last_spans,
        dropped: 0,
    };
    let path = "device_timeline_trace.json";
    std::fs::write(path, obs::chrome::chrome_trace(&[trace])).expect("write trace");
    println!("wrote {path} (full-overlap schedule) - load it at ui.perfetto.dev");
}
