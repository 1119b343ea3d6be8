//! Layer probes: one timed call (or a few) into each layer's public API
//! on the shapes the workload's ops use, run in the traced pass only.
//! Each probe is recorded as a span under one `op.probes` root, and its
//! result feeds the per-layer metrics; `*_share` metrics are probe time
//! × calls per op ÷ op time.

use crate::serve_load::{LiveServer, HOT_SHAPE};
use crate::stats::{median, quantile, slope_intercept};
use crate::trace::{SpanId, SpanLog};
use crate::workload::{Shape, DIRECT_LIMITS};
use advect_core::field::{Field3, Range3};
use advect_core::flops::FLOPS_PER_POINT;
use advect_core::stencil::apply_stencil_region;
use advect_core::stepper::{AdvectionProblem, ThreadedStepper};
use advect_core::sweep::SweepPool;
use advect_core::team::ThreadTeam;
use decomp::{BoxPartition, Decomposition, ExchangePlan};
use overlap::halo::exchange_halos;
use overlap::{HaloBuffers, Impl, MachineKind, RunLimits};
use perfmodel::{AnyImpl, GpuImpl, GpuScenario};
use serve::server::{Server, ServerConfig};
use simgpu::{FieldDims, Gpu, StencilLaunch, Stream};
use simmpi::World;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Ranks (and threads) every probe that needs a width uses: the
/// reference host's two cores.
const WIDTH: usize = 2;

/// Values in the bandwidth probes' messages and copies: 1 MiB.
const MIB_VALUES: usize = 131_072;

/// Probe results by metric name.
pub type Metrics = BTreeMap<String, f64>;

/// What the probes need to know about the workload.
pub struct ProbePlan<'a> {
    /// The run shape the ops use.
    pub shape: Shape,
    /// Implementations an op runs (empty when an op is not a round).
    pub round: &'a [Impl],
    /// Time budget of one probe; a probe repeats its call until the
    /// budget is spent (at least three times) and reports the median.
    pub budget: Duration,
    /// Tiny sizes everywhere (smoke runs and tests).
    pub smoke: bool,
}

/// Median seconds of `f` over as many calls as fit in `budget` (at
/// least three, after one untimed call).
fn median_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    samples_secs(budget, &mut f).1
}

/// Ascending samples of `f` plus their median.
fn samples_secs(budget: Duration, f: &mut impl FnMut()) -> (Vec<f64>, f64) {
    f();
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (started.elapsed() < budget && samples.len() < 100_000) {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite time"));
    let m = quantile(&samples, 0.5);
    (samples, m)
}

/// Medians of two alternated calls, so both see the same host epoch.
fn paired_median_secs(budget: Duration, a: impl FnMut(), b: impl FnMut()) -> (f64, f64) {
    let (ta, tb) = paired_samples(budget, a, b);
    (median(&ta), median(&tb))
}

/// Fastest of each of two alternated calls. For a small additive cost
/// read as the difference of two much larger times (rendering on top of
/// executing, the wire on top of a cache hit), the undisturbed runs are
/// the ones to compare: scheduling noise on either side is larger than
/// the difference itself.
fn paired_min_secs(budget: Duration, a: impl FnMut(), b: impl FnMut()) -> (f64, f64) {
    let (ta, tb) = paired_samples(budget, a, b);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    (min(&ta), min(&tb))
}

fn paired_samples(
    budget: Duration,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Vec<f64>, Vec<f64>) {
    a();
    b();
    let started = Instant::now();
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    while ta.len() < 3 || started.elapsed() < budget {
        let t0 = Instant::now();
        a();
        ta.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        b();
        tb.push(t0.elapsed().as_secs_f64());
    }
    (ta, tb)
}

/// Last-level cache size and array size of the bandwidth probe, bytes.
#[derive(Debug, Clone, Copy)]
pub struct StreamSizes {
    /// Detected last-level cache.
    pub llc_bytes: usize,
    /// Each of the three arrays.
    pub array_bytes: usize,
}

/// Array size for the triad: min(4 × LLC, 512 MiB), shrunk if the three
/// arrays would take more than half of the memory the host has free.
pub fn stream_sizes(smoke: bool) -> StreamSizes {
    let llc_bytes = advect_core::numa::host_llc_bytes();
    let mut array_bytes = (4 * llc_bytes).min(512 << 20);
    let available = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("MemAvailable:"))?
                .split_whitespace()
                .next()?
                .parse::<usize>()
                .ok()
        })
        .map(|kib| kib * 1024);
    if let Some(avail) = available {
        array_bytes = array_bytes.min(avail / 6);
    }
    if smoke {
        array_bytes = 1 << 20;
    }
    StreamSizes {
        llc_bytes,
        array_bytes,
    }
}

/// STREAM triad `a = b + s·c`, one thread, best of three passes, GB/s at
/// 24 bytes per element.
fn stream_triad_gbs(sizes: StreamSizes) -> f64 {
    let n = sizes.array_bytes / 8;
    let mut a = vec![0.5f64; n];
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + 3.0 * c;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    24.0 * n as f64 / best / 1e9
}

/// Independent accumulator chains in the FMA probe: enough to cover the
/// latency × issue-width product of current cores.
const FMA_CHAINS: usize = 10;
const FMA_ITERS: usize = 2_000_000;

/// One-thread fused-multiply-add peak in GF/s with the widest vector
/// unit the CPU reports; multiply + add where there is no FMA unit.
fn fma_peak_gf() -> f64 {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let (flops, sink) = fma_burst();
        black_box(sink);
        best = best.max(flops as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    best
}

fn fma_burst() -> (u64, f64) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f was just detected on this CPU.
            return unsafe { fma_burst_avx512() };
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: avx2 and fma were just detected on this CPU.
            return unsafe { fma_burst_avx2() };
        }
    }
    let mut acc = [1.0f64; FMA_CHAINS];
    let (m, a) = (black_box(0.999_999), black_box(1e-9));
    for _ in 0..FMA_ITERS {
        for v in acc.iter_mut() {
            *v = *v * m + a;
        }
    }
    ((FMA_ITERS * FMA_CHAINS * 2) as u64, acc.iter().sum())
}

/// # Safety
/// The CPU must support `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_burst_avx512() -> (u64, f64) {
    use std::arch::x86_64::*;
    let m = _mm512_set1_pd(black_box(0.999_999));
    let a = _mm512_set1_pd(black_box(1e-9));
    let mut acc = [_mm512_set1_pd(1.0); FMA_CHAINS];
    for _ in 0..FMA_ITERS {
        for v in acc.iter_mut() {
            *v = _mm512_fmadd_pd(*v, m, a);
        }
    }
    let mut sum = _mm512_setzero_pd();
    for v in acc {
        sum = _mm512_add_pd(sum, v);
    }
    (
        (FMA_ITERS * FMA_CHAINS * 8 * 2) as u64,
        _mm512_reduce_add_pd(sum),
    )
}

/// # Safety
/// The CPU must support `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_burst_avx2() -> (u64, f64) {
    use std::arch::x86_64::*;
    let m = _mm256_set1_pd(black_box(0.999_999));
    let a = _mm256_set1_pd(black_box(1e-9));
    let mut acc = [_mm256_set1_pd(1.0); FMA_CHAINS];
    for _ in 0..FMA_ITERS {
        for v in acc.iter_mut() {
            *v = _mm256_fmadd_pd(*v, m, a);
        }
    }
    let mut sum = _mm256_setzero_pd();
    for v in acc {
        sum = _mm256_add_pd(sum, v);
    }
    let mut lanes = [0.0f64; 4];
    // SAFETY: `lanes` holds exactly four f64, the width of the store.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), sum) };
    ((FMA_ITERS * FMA_CHAINS * 4 * 2) as u64, lanes.iter().sum())
}

/// A per-rank field of the shape's decomposition, filled and with its
/// periodic halo in place.
fn rank_field(extent: (usize, usize, usize)) -> Field3 {
    let mut f = Field3::new(extent.0, extent.1, extent.2, 1);
    f.fill_interior(|x, y, z| ((x * 13 + y * 7 + z * 3) % 17) as f64 * 0.1);
    f.copy_periodic_halo();
    f
}

/// Timings the share arithmetic needs, seconds.
pub struct LayerTimes {
    /// One stencil sweep of a rank's subdomain.
    pub kernel_rank_s: f64,
    /// One steady-state halo exchange.
    pub exchange_s: f64,
    /// `AdvectionProblem::initial_field` of the whole grid.
    pub init_s: f64,
}

/// Run every probe; `log` records one span per probe under `root`.
pub fn run_all(
    plan: &ProbePlan<'_>,
    log: &mut SpanLog,
    root: SpanId,
) -> (Metrics, LayerTimes, StreamSizes) {
    let mut m = Metrics::new();
    let budget = plan.budget;
    let shape = plan.shape;
    let n = shape.grid as usize;
    let problem = AdvectionProblem::general_case(n);
    let decomp = Decomposition::new(WIDTH, (n, n, n));
    let extent = decomp.subdomains[0].extent;
    let probe = |log: &mut SpanLog, name: &'static str, f: &mut dyn FnMut()| {
        log.span(name, Some(root), 0, f);
    };

    // harness: the machine's ceilings, measured in this very run.
    let sizes = stream_sizes(plan.smoke);
    probe(log, "probe.harness.stream", &mut || {
        m.insert("harness.stream_gbs".into(), stream_triad_gbs(sizes));
    });
    probe(log, "probe.harness.fma", &mut || {
        m.insert("harness.peak_gf".into(), fma_peak_gf());
    });

    // advect_core
    let mut times = LayerTimes {
        kernel_rank_s: 0.0,
        exchange_s: 0.0,
        init_s: 0.0,
    };
    probe(log, "probe.advect_core.stencil", &mut || {
        let src = rank_field(extent);
        let mut dst = Field3::new(extent.0, extent.1, extent.2, 1);
        let stencil = problem.stencil();
        let region = src.interior_range();
        times.kernel_rank_s = median_secs(budget, || {
            apply_stencil_region(black_box(&src), &mut dst, &stencil, region)
        });
        let gf = region.len() as f64 * FLOPS_PER_POINT as f64 / times.kernel_rank_s / 1e9;
        m.insert("advect_core.stencil_gf".into(), gf);
    });
    probe(log, "probe.advect_core.stepper", &mut || {
        let mut stepper = ThreadedStepper::new(problem, WIDTH);
        let t = median_secs(budget, || stepper.step());
        black_box(stepper.state().at(0, 0, 0));
        m.insert("advect_core.stepper_step_us".into(), t * 1e6);
        // Two threads each sweep about one rank's subdomain, so a perfect
        // stepper costs one rank-kernel per step.
        m.insert(
            "advect_core.stepper_over_kernel".into(),
            t / times.kernel_rank_s,
        );
    });
    probe(log, "probe.advect_core.init", &mut || {
        times.init_s = median_secs(budget, || {
            black_box(problem.initial_field());
        });
        m.insert("advect_core.init_ms".into(), times.init_s * 1e3);
    });
    probe(log, "probe.advect_core.team", &mut || {
        let team = ThreadTeam::new(WIDTH);
        let t = median_secs(budget, || {
            team.parallel(|ctx| {
                black_box(ctx.is_master());
            })
        });
        m.insert("advect_core.team_region_us".into(), t * 1e6);
    });
    probe(log, "probe.advect_core.sweep", &mut || {
        let pool = SweepPool::new(WIDTH);
        let t = median_secs(budget, || {
            pool.for_each_index(WIDTH, |i| {
                black_box(i);
            })
        });
        m.insert("advect_core.sweep_batch_us".into(), t * 1e6);
    });

    // decomp
    probe(log, "probe.decomp.plan", &mut || {
        let t = median_secs(budget, || {
            let d = Decomposition::new(WIDTH, (n, n, n));
            black_box(ExchangePlan::new(d.subdomains[0].extent, 1));
        });
        m.insert("decomp.plan_us".into(), t * 1e6);
        let sent = ExchangePlan::new(extent, 1).total_sent() * WIDTH;
        m.insert("decomp.halo_values_per_step".into(), sent as f64);
    });
    probe(log, "probe.decomp.partition", &mut || {
        let t = median_secs(budget, || {
            black_box(BoxPartition::new(extent, shape.thickness as usize));
        });
        m.insert("decomp.partition_us".into(), t * 1e6);
    });

    // simmpi
    probe(log, "probe.simmpi.world_launch", &mut || {
        let t = median_secs(budget, || {
            black_box(World::run(WIDTH, |comm| comm.rank()));
        });
        m.insert("simmpi.world_launch_us".into(), t * 1e6);
    });
    probe(log, "probe.simmpi.pingpong", &mut || {
        let trips = if plan.smoke { 50 } else { 2000 };
        let t = median_secs(budget, || {
            World::run(WIDTH, |comm| {
                let peer = 1 - comm.rank();
                for i in 0..trips {
                    if comm.rank() == 0 {
                        comm.send(peer, 7, vec![i as f64]);
                        black_box(comm.recv(peer, 7));
                    } else {
                        black_box(comm.recv(peer, 7));
                        comm.send(peer, 7, vec![i as f64]);
                    }
                }
            });
        });
        m.insert("simmpi.pingpong_us".into(), t / trips as f64 * 1e6);
    });
    probe(log, "probe.simmpi.bandwidth", &mut || {
        let messages = if plan.smoke { 4 } else { 64 };
        let t = median_secs(budget, || {
            World::run(WIDTH, |comm| {
                // A window of four messages in flight keeps the pool warm
                // without queueing the whole stream.
                for i in 0..messages {
                    if comm.rank() == 0 {
                        comm.send_pooled(1, 9, comm.lease(MIB_VALUES));
                        if i % 4 == 3 {
                            black_box(comm.recv(1, 10));
                        }
                    } else {
                        black_box(comm.recv(0, 9));
                        if i % 4 == 3 {
                            comm.send(0, 10, vec![0.0]);
                        }
                    }
                }
            });
        });
        let bytes = (messages * MIB_VALUES * 8) as f64;
        m.insert("simmpi.bandwidth_gbs".into(), bytes / t / 1e9);
    });
    probe(log, "probe.simmpi.barrier", &mut || {
        let rounds = if plan.smoke { 50 } else { 2000 };
        let t = median_secs(budget, || {
            World::run(WIDTH, |comm| {
                for _ in 0..rounds {
                    comm.barrier();
                }
            });
        });
        m.insert("simmpi.barrier_us".into(), t / rounds as f64 * 1e6);
    });

    // simgpu: the functional device's host-side speed.
    probe(log, "probe.simgpu", &mut || {
        let spec = MachineKind::parse(shape.machine)
            .ok()
            .and_then(|(kind, _)| kind.gpu_spec())
            .unwrap_or_else(simgpu::GpuSpec::tesla_c2050);
        let gpu = Gpu::new(spec);
        let dims = FieldDims {
            nx: n,
            ny: n,
            nz: n,
            halo: 0,
        };
        gpu.set_constant(problem.stencil().a);
        let (cur, new) = (gpu.alloc(dims.len()), gpu.alloc(dims.len()));
        gpu.upload_untimed(cur, &vec![0.25; dims.len()]);
        let block = (shape.block.0 as usize, shape.block.1 as usize);
        let t = median_secs(budget, || {
            gpu.launch_stencil(
                Stream::DEFAULT,
                cur,
                new,
                StencilLaunch {
                    dims,
                    region: dims.interior(),
                    block,
                    periodic: true,
                },
            );
            gpu.sync_device();
            gpu.reset_clock();
        });
        m.insert("simgpu.stencil_mpts".into(), dims.len() as f64 / t / 1e6);
        let face = Range3::new((0, n as i64), (0, n as i64), (0, 1));
        let staging = gpu.alloc(face.len());
        let t = median_secs(budget, || {
            gpu.launch_pack(Stream::DEFAULT, new, dims, face, staging, 0);
            gpu.sync_device();
            gpu.reset_clock();
        });
        m.insert("simgpu.pack_mpts".into(), face.len() as f64 / t / 1e6);
        let wire = gpu.alloc(MIB_VALUES);
        let mut host = vec![0.5f64; MIB_VALUES];
        let t = median_secs(budget, || {
            gpu.h2d(Stream::DEFAULT, &host, wire, 0);
            gpu.sync_device();
            gpu.reset_clock();
        });
        m.insert("simgpu.h2d_gbs".into(), (MIB_VALUES * 8) as f64 / t / 1e9);
        let t = median_secs(budget, || {
            gpu.d2h(Stream::DEFAULT, wire, 0, &mut host);
            gpu.sync_device();
            gpu.reset_clock();
        });
        m.insert("simgpu.d2h_gbs".into(), (MIB_VALUES * 8) as f64 / t / 1e9);
    });

    // overlap
    probe(log, "probe.overlap.canonicalize", &mut || {
        let params = shape.params(Impl::HybridOverlap, shape.steps);
        let t = median_secs(budget, || {
            black_box(black_box(&params).canonicalize(&DIRECT_LIMITS)).ok();
        });
        m.insert("overlap.canonicalize_us".into(), t * 1e6);
    });
    probe(log, "probe.overlap.exchange", &mut || {
        let exchanges = if plan.smoke { 4 } else { 32 };
        let dref = &decomp;
        let mut launches = Vec::new();
        let started = Instant::now();
        while launches.len() < 3 || started.elapsed() < budget {
            let per_rank = World::run(WIDTH, move |comm| {
                let sub = dref.subdomains[comm.rank()];
                let mut f = rank_field(sub.extent);
                let plan = ExchangePlan::new(sub.extent, 1);
                let bufs = HaloBuffers::new(&plan, comm);
                // Steady state: staging slots and mailbox paths warmed.
                exchange_halos(&mut f, &plan, dref, comm.rank(), comm, &bufs);
                comm.barrier();
                let t0 = Instant::now();
                for _ in 0..exchanges {
                    exchange_halos(&mut f, &plan, dref, comm.rank(), comm, &bufs);
                }
                let dt = t0.elapsed().as_secs_f64();
                black_box(f.at(0, 0, 0));
                dt / exchanges as f64
            });
            launches.push(median(&per_rank));
        }
        times.exchange_s = median(&launches);
        m.insert(
            "overlap.exchange_us_per_step".into(),
            times.exchange_s * 1e6,
        );
    });
    for im in Impl::ALL {
        probe(log, crate::direct::run_span(im), &mut || {
            // Implementations the op runs are probed on the op's shape;
            // the others on the small reference request, which keeps the
            // functional GPU runs off the CPU workloads' large grids.
            let at = if plan.round.is_empty() || plan.round.contains(&im) {
                shape
            } else {
                HOT_SHAPE
            };
            let key = |steps| {
                at.params(im, steps)
                    .canonicalize(&DIRECT_LIMITS)
                    .expect("probe shapes are valid requests")
            };
            let (once, twice) = (key(at.steps), key(2 * at.steps));
            let (t_s, t_2s) = paired_median_secs(
                2 * budget,
                || drop(black_box(once.execute())),
                || drop(black_box(twice.execute())),
            );
            let (step, fixed) = slope_intercept(at.steps, t_s, t_2s);
            let slug = im.slug();
            m.insert(format!("overlap.{slug}.run_ms"), t_s * 1e3);
            m.insert(format!("overlap.{slug}.step_us"), step * 1e6);
            m.insert(format!("overlap.{slug}.fixed_ms"), fixed * 1e3);
        });
    }

    // perfmodel: the Section V-E anchor scenario on one Yona node.
    probe(log, "probe.perfmodel", &mut || {
        let yona = machine::yona();
        let anchor = GpuScenario::new(&yona, 12, 6)
            .with_block((32, 8))
            .with_thickness(3);
        let t = median_secs(budget, || {
            black_box(
                black_box(&anchor)
                    .schedule(GpuImpl::HybridOverlap)
                    .makespan(),
            );
        });
        m.insert("perfmodel.schedule_eval_us".into(), t * 1e6);
        m.insert(
            "perfmodel.ops_per_schedule".into(),
            anchor.schedule(GpuImpl::HybridOverlap).len() as f64,
        );
        m.insert(
            "perfmodel.yona_hybrid_overlap_gf".into(),
            anchor.gf(GpuImpl::HybridOverlap),
        );
        let t = median_secs(budget, || {
            for im in AnyImpl::ALL {
                black_box(perfmodel::best_gf(&yona, im, 12, (32, 8)));
            }
        });
        m.insert("perfmodel.best_gf_sweep_ms".into(), t * 1e3);
    });

    // figures
    probe(log, "probe.figures", &mut || {
        let t = median_secs(budget, || {
            black_box(figures::all_figures());
        });
        m.insert("figures.all_figures_ms".into(), t * 1e3);
        let bytes: usize = figures::all_figures()
            .iter()
            .map(|f| f.to_json().len())
            .sum();
        m.insert("figures.json_bytes".into(), bytes as f64);
        let t = median_secs(budget, || {
            black_box(figures::report::evaluate_claims());
        });
        m.insert("figures.claims_ms".into(), t * 1e3);
        let claims = figures::report::evaluate_claims();
        let held = claims.iter().filter(|c| c.holds).count();
        m.insert("figures.claims_held".into(), held as f64);
        let t = median_secs(budget, || {
            black_box(figures::report::render_markdown(&claims));
        });
        m.insert("figures.render_ms".into(), t * 1e3);
    });

    // serve: a probe server of its own, default configuration. Requests
    // must fit the server's default limits, so workloads whose grid does
    // not are probed with the small reference request.
    let request_shape = {
        let limits = RunLimits::default();
        if shape.grid <= limits.max_grid && shape.steps <= limits.max_steps {
            shape
        } else {
            HOT_SHAPE
        }
    };
    let request = serve::protocol::Request {
        tenant: "probe".to_string(),
        params: overlap::RunParams {
            threads: 1,
            ..request_shape.params(Impl::BulkSync, request_shape.steps)
        },
        timeout_ms: None,
    };
    let line = serve::protocol::render_request(&request) + "\n";
    probe(log, "probe.serve.wire", &mut || {
        let t0 = Instant::now();
        let live = LiveServer::start(ServerConfig::default()).expect("probe server starts");
        let mut conn = live.connect().expect("probe client connects");
        let pong = conn.roundtrip("{\"cmd\":\"ping\"}\n").map(str::to_string);
        m.insert("serve.start_ms".into(), t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(
            pong.ok().as_deref(),
            Some("{\"status\":\"ok\",\"pong\":true}")
        );
        let t = median_secs(budget, || {
            black_box(conn.roundtrip("{\"cmd\":\"ping\"}\n").map(str::len).ok());
        });
        m.insert("serve.ping_rtt_us".into(), t * 1e6);
        // Fill the cache, then time hits over the wire and in-process.
        conn.roundtrip(&line).expect("probe request");
        let server = live.server();
        let (hits, hit) = samples_secs(budget, &mut || {
            black_box(server.run(&request).map(|r| r.cached).ok());
        });
        m.insert("serve.hit_us".into(), hit * 1e6);
        let (wire, direct) = paired_min_secs(
            budget,
            || {
                black_box(conn.roundtrip(&line).map(str::len).ok());
            },
            || {
                black_box(server.run(&request).map(|r| r.cached).ok());
            },
        );
        m.insert("serve.wire_us".into(), (wire - direct) * 1e6);
        m.insert("probe.hit_p99_ms".into(), quantile(&hits, 0.99) * 1e3);
        drop(conn);
        let t0 = Instant::now();
        live.shutdown().expect("probe server stops");
        m.insert("serve.shutdown_ms".into(), t0.elapsed().as_secs_f64() * 1e3);
    });
    probe(log, "probe.serve.parse", &mut || {
        let t = median_secs(budget, || {
            black_box(serve::protocol::parse_line(black_box(&line))).ok();
        });
        m.insert("serve.parse_us".into(), t * 1e6);
    });
    probe(log, "probe.serve.cold", &mut || {
        // Rendering and the cold path's queue + hand-off + insert cost
        // tens of microseconds on top of a run of milliseconds. They are
        // read off the one implementation that runs on the calling thread
        // alone: any other's thread start-up varies by more than that
        // from one run to the next.
        let request = serve::protocol::Request {
            params: overlap::RunParams {
                threads: 1,
                ..request_shape.params(Impl::SingleTask, request_shape.steps)
            },
            ..request.clone()
        };
        let key = request
            .params
            .canonicalize(&RunLimits::default())
            .expect("probe request is valid");
        let (execute, rendered) = paired_min_secs(
            budget,
            || drop(black_box(key.execute())),
            || drop(black_box(serve::artifact::execute_render(&key))),
        );
        m.insert("serve.render_us".into(), (rendered - execute) * 1e6);
        m.insert(
            "probe.artifact_bytes".into(),
            serve::artifact::render(&key).len() as f64,
        );
        // A cache that holds nothing makes every in-process run of the
        // same key a cold one: queue, hand-off, execute, render, insert.
        let uncached = Server::start(ServerConfig {
            cache_capacity: 0,
            ..ServerConfig::default()
        });
        let (cold, rendered) = paired_min_secs(
            budget,
            || drop(black_box(uncached.run(&request).map(|r| r.cached))),
            || drop(black_box(serve::artifact::execute_render(&key))),
        );
        uncached.shutdown();
        m.insert("serve.cold_overhead_us".into(), (cold - rendered) * 1e6);
    });

    // obs: the price of the program's own layers when a user turns them on.
    probe(log, "probe.obs", &mut || {
        let key = |trace, metrics| {
            overlap::RunParams {
                trace,
                metrics,
                ..shape.params(Impl::BulkSync, shape.steps)
            }
            .canonicalize(&DIRECT_LIMITS)
            .expect("probe shapes are valid requests")
        };
        let (off, traced, metered) = (key(false, false), key(true, false), key(false, true));
        let (t_off, t_on) = paired_median_secs(
            budget,
            || drop(black_box(off.execute())),
            || drop(black_box(traced.execute())),
        );
        m.insert("obs.trace_on_ratio".into(), t_on / t_off);
        let (t_off, t_on) = paired_median_secs(
            budget,
            || drop(black_box(off.execute())),
            || drop(black_box(metered.execute())),
        );
        m.insert("obs.metrics_on_ratio".into(), t_on / t_off);
    });

    (m, times, sizes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_come_from_at_least_three_calls() {
        let mut calls = 0;
        let t = median_secs(Duration::ZERO, || calls += 1);
        assert_eq!(calls, 4, "one warm-up plus three samples");
        assert!(t >= 0.0);
        let (a, b) = paired_median_secs(Duration::ZERO, || (), || ());
        assert!(a >= 0.0 && b >= 0.0);
    }

    #[test]
    fn machine_ceiling_probes_give_plausible_numbers() {
        assert!(fma_peak_gf() > 0.1);
        let gbs = stream_triad_gbs(stream_sizes(true));
        assert!(gbs > 0.05, "{gbs}");
    }
}
