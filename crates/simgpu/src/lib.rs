//! # simgpu
//!
//! A functional GPU simulator standing in for CUDA Fortran in the
//! reproduction of White & Dongarra (IPDPS 2011). See DESIGN.md for the
//! substitution argument; in short:
//!
//! * kernels execute **for real** through `advect_core`'s stencil sweep,
//!   producing bit-identical results to the CPU reference, while the
//!   paper's thread-block structure (2-D blocks tiling x/y, halo threads
//!   that only load, a z-march through shared memory) is what [`timing`]
//!   prices;
//! * **streams, events and synchronization** follow CUDA semantics,
//!   including a hazard checker that panics on cross-stream
//!   read-after-write without synchronization;
//! * a **virtual schedule** places each operation on the compute engine
//!   or a PCIe copy engine, so kernel/copy overlap — the heart of
//!   implementations IV-G and IV-I — is observable and measurable. Its
//!   list scheduler, [`event::Schedule`], is the one `perfmodel` builds
//!   its modelled steps on;
//! * hardware presets for the paper's **Tesla C1060 and C2050** with a
//!   calibrated roofline cost model ([`timing`]).
//!
//! The device's one instrumentation hook is an [`obs::Tracer`]
//! ([`Gpu::install_tracer`]) for host-side issue spans; while it is on,
//! the device also keeps each scheduled op's virtual span, which its
//! owner bridges into the same tracer ([`Gpu::virtual_spans`]). An
//! untraced device records nothing. This crate knows no metrics
//! registry: a metered run's kernel and PCIe histograms are the tracer's
//! summary of those virtual spans.

pub mod device;
pub mod event;
pub mod fault;
pub mod kernels;
pub mod spec;
pub mod timing;

pub use device::{Event, Gpu, GpuBuffer, GpuStats, Stream};
pub use fault::GpuFaultPlan;
pub use kernels::{FieldDims, StencilLaunch};
pub use spec::GpuSpec;

#[cfg(test)]
mod tests {
    use super::*;
    use advect_core::coeffs::{Stencil27, Velocity};
    use advect_core::field::Range3;
    use advect_core::stepper::{AdvectionProblem, SerialStepper};

    #[test]
    fn gpu_resident_stepping_matches_serial() {
        // The GPU-resident implementation core: halo-free layout, wrap
        // indexing, pointer flip per step.
        let problem = AdvectionProblem::general_case(10);
        let mut serial = SerialStepper::new(problem);
        serial.run(4);

        let gpu = Gpu::new(GpuSpec::tesla_c2050());
        let s = problem.stencil();
        gpu.set_constant(s.a);
        let n = problem.n;
        let dims = FieldDims {
            nx: n,
            ny: n,
            nz: n,
            halo: 0,
        };
        let init = problem.initial_field();
        let mut flat = vec![0.0; dims.len()];
        for (x, y, z) in dims.interior().iter() {
            flat[dims.idx(x, y, z)] = init.at(x, y, z);
        }
        let mut cur = gpu.alloc(dims.len());
        let mut new = gpu.alloc(dims.len());
        gpu.upload_untimed(cur, &flat);
        for _ in 0..4 {
            gpu.launch_stencil(
                Stream::DEFAULT,
                cur,
                new,
                StencilLaunch {
                    dims,
                    region: dims.interior(),
                    block: (32, 8),
                    periodic: true,
                },
            );
            std::mem::swap(&mut cur, &mut new);
        }
        gpu.sync_device();
        let result = gpu.read_untimed(cur, <[f64]>::to_vec);
        for (x, y, z) in dims.interior().iter() {
            assert_eq!(result[dims.idx(x, y, z)], serial.state().at(x, y, z));
        }
        assert_eq!(gpu.stats().stencil_launches, 4);
    }

    #[test]
    fn two_stream_overlap_shrinks_wallclock() {
        // A copy on stream 1 should overlap a kernel on stream 0.
        let gpu = Gpu::new(GpuSpec::tesla_c2050());
        gpu.set_constant(Stencil27::new(Velocity::unit_diagonal(), 1.0).a);
        let dims = FieldDims {
            nx: 96,
            ny: 96,
            nz: 96,
            halo: 0,
        };
        let a = gpu.alloc(dims.len());
        let b = gpu.alloc(dims.len());
        let host_buf_len = 500_000;
        let staging = gpu.alloc(host_buf_len);
        let mut host = vec![0.0; host_buf_len];
        let s1 = gpu.create_stream();

        // Serial: kernel then copy on the same stream.
        gpu.launch_stencil(
            Stream::DEFAULT,
            a,
            b,
            StencilLaunch {
                dims,
                region: dims.interior(),
                block: (32, 8),
                periodic: true,
            },
        );
        gpu.d2h(Stream::DEFAULT, staging, 0, &mut host);
        let serial_time = gpu.sync_device();

        gpu.reset_clock();
        // Overlapped: kernel on stream 0, independent copy on stream 1.
        gpu.launch_stencil(
            Stream::DEFAULT,
            a,
            b,
            StencilLaunch {
                dims,
                region: dims.interior(),
                block: (32, 8),
                periodic: true,
            },
        );
        gpu.d2h(s1, staging, 0, &mut host);
        let overlap_time = gpu.sync_device();
        assert!(
            overlap_time < 0.8 * serial_time,
            "overlap {overlap_time} not < 0.8 × serial {serial_time}"
        );
    }

    #[test]
    fn unsynchronized_cross_stream_read_panics() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let gpu = Gpu::new(GpuSpec::tesla_c2050());
            gpu.set_constant([0.0; 27]);
            let dims = FieldDims {
                nx: 8,
                ny: 8,
                nz: 8,
                halo: 0,
            };
            let a = gpu.alloc(dims.len());
            let b = gpu.alloc(dims.len());
            let s1 = gpu.create_stream();
            let launch = StencilLaunch {
                dims,
                region: dims.interior(),
                block: (8, 8),
                periodic: true,
            };
            // Stream 0 writes b; stream 1 reads b with no event/sync: bug.
            gpu.launch_stencil(Stream::DEFAULT, a, b, launch);
            gpu.launch_stencil(s1, b, a, launch);
        }));
        assert!(result.is_err(), "hazard not detected");
    }

    #[test]
    fn event_wait_establishes_order() {
        let gpu = Gpu::new(GpuSpec::tesla_c2050());
        gpu.set_constant([0.0; 27]);
        let dims = FieldDims {
            nx: 8,
            ny: 8,
            nz: 8,
            halo: 0,
        };
        let a = gpu.alloc(dims.len());
        let b = gpu.alloc(dims.len());
        let s1 = gpu.create_stream();
        let launch = StencilLaunch {
            dims,
            region: dims.interior(),
            block: (8, 8),
            periodic: true,
        };
        gpu.launch_stencil(Stream::DEFAULT, a, b, launch);
        let ev = gpu.record_event(Stream::DEFAULT);
        gpu.wait_event(s1, ev);
        gpu.launch_stencil(s1, b, a, launch); // ordered: no panic
        gpu.sync_device();
    }

    #[test]
    fn stream_sync_publishes_writes() {
        let gpu = Gpu::new(GpuSpec::tesla_c2050());
        gpu.set_constant([0.0; 27]);
        let dims = FieldDims {
            nx: 8,
            ny: 8,
            nz: 8,
            halo: 0,
        };
        let a = gpu.alloc(dims.len());
        let b = gpu.alloc(dims.len());
        let s1 = gpu.create_stream();
        let launch = StencilLaunch {
            dims,
            region: dims.interior(),
            block: (8, 8),
            periodic: true,
        };
        gpu.launch_stencil(s1, a, b, launch);
        gpu.sync_stream(s1);
        gpu.launch_stencil(Stream::DEFAULT, b, a, launch); // visible now
    }

    #[test]
    fn pack_unpack_through_device_roundtrips() {
        let gpu = Gpu::new(GpuSpec::tesla_c1060());
        gpu.set_constant([0.0; 27]);
        let dims = FieldDims {
            nx: 6,
            ny: 5,
            nz: 4,
            halo: 1,
        };
        let field = gpu.alloc(dims.len());
        let mut host = vec![0.0; dims.len()];
        for (i, v) in host.iter_mut().enumerate() {
            *v = i as f64 * 0.5;
        }
        gpu.upload_untimed(field, &host);
        let region = Range3::new((0, 6), (0, 5), (0, 1));
        let staging = gpu.alloc(region.len());
        gpu.launch_pack(Stream::DEFAULT, field, dims, region, staging, 0);
        let field2 = gpu.alloc(dims.len());
        gpu.launch_unpack(Stream::DEFAULT, field2, dims, region, staging, 0);
        gpu.sync_device();
        let out = gpu.read_untimed(field2, <[f64]>::to_vec);
        for (x, y, z) in region.iter() {
            assert_eq!(out[dims.idx(x, y, z)], host[dims.idx(x, y, z)]);
        }
    }

    #[test]
    fn d2h_h2d_move_data_and_count_stats() {
        let gpu = Gpu::new(GpuSpec::tesla_c1060());
        let buf = gpu.alloc(100);
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        gpu.h2d(Stream::DEFAULT, &data, buf, 0);
        let mut back = vec![0.0; 100];
        gpu.d2h(Stream::DEFAULT, buf, 0, &mut back);
        gpu.sync_device();
        assert_eq!(back, data);
        let st = gpu.stats();
        assert_eq!(st.h2d_transfers, 1);
        assert_eq!(st.d2h_transfers, 1);
        assert_eq!(st.h2d_points, 100);
    }

    #[test]
    fn oversized_block_rejected() {
        let gpu = Gpu::new(GpuSpec::tesla_c1060());
        gpu.set_constant([0.0; 27]);
        let dims = FieldDims {
            nx: 8,
            ny: 8,
            nz: 8,
            halo: 0,
        };
        let a = gpu.alloc(dims.len());
        let b = gpu.alloc(dims.len());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu.launch_stencil(
                Stream::DEFAULT,
                a,
                b,
                StencilLaunch {
                    dims,
                    region: dims.interior(),
                    block: (64, 9), // 576 > 512 on C1060
                    periodic: true,
                },
            );
        }));
        assert!(r.is_err());
    }

    #[test]
    fn device_memory_capacity_enforced() {
        let gpu = Gpu::new(GpuSpec::tesla_c2050());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // 3 GiB of f64 is ~400M values; ask for more.
            gpu.alloc(500_000_000);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn fault_plan_shifts_timeline_but_not_results() {
        let problem = AdvectionProblem::general_case(10);
        let dims = FieldDims {
            nx: 10,
            ny: 10,
            nz: 10,
            halo: 0,
        };
        let init = problem.initial_field();
        let mut flat = vec![0.0; dims.len()];
        for (x, y, z) in dims.interior().iter() {
            flat[dims.idx(x, y, z)] = init.at(x, y, z);
        }
        let run = |fault: GpuFaultPlan| {
            let gpu = Gpu::new(GpuSpec::tesla_c2050()).with_fault_plan(fault);
            gpu.set_constant(problem.stencil().a);
            let cur = gpu.alloc(dims.len());
            let new = gpu.alloc(dims.len());
            gpu.h2d(Stream::DEFAULT, &flat, cur, 0);
            for _ in 0..3 {
                gpu.launch_stencil(
                    Stream::DEFAULT,
                    cur,
                    new,
                    StencilLaunch {
                        dims,
                        region: dims.interior(),
                        block: (32, 8),
                        periodic: true,
                    },
                );
                let mut back = vec![0.0; dims.len()];
                gpu.d2h(Stream::DEFAULT, new, 0, &mut back);
            }
            let t = gpu.sync_device();
            (gpu.read_untimed(new, <[f64]>::to_vec), t)
        };
        let (clean, t_clean) = run(GpuFaultPlan::off());
        let (faulted, t_faulted) = run(GpuFaultPlan::chaos(3));
        assert_eq!(clean, faulted, "faults must never change results");
        assert!(
            t_faulted > t_clean,
            "chaos timeline {t_faulted} not slower than clean {t_clean}"
        );
    }

    #[test]
    fn trace_bridge_maps_engines_and_labels_to_categories() {
        let gpu = Gpu::new(GpuSpec::tesla_c2050());
        gpu.install_tracer(obs::Tracer::on(0, obs::Anchor::now()));
        gpu.set_constant([0.0; 27]);
        let dims = FieldDims {
            nx: 8,
            ny: 8,
            nz: 8,
            halo: 1,
        };
        let a = gpu.alloc(dims.len());
        let b = gpu.alloc(dims.len());
        let staging = gpu.alloc(64);
        let c = gpu.alloc(8);
        let s1 = gpu.create_stream();
        let s2 = gpu.create_stream();
        gpu.launch_stencil(
            Stream::DEFAULT,
            a,
            b,
            StencilLaunch {
                dims,
                region: dims.interior(),
                block: (8, 8),
                periodic: false,
            },
        );
        gpu.wait_event(s1, gpu.record_event(Stream::DEFAULT));
        let region = Range3::new((0, 8), (0, 8), (0, 1));
        gpu.launch_pack(s1, b, dims, region, staging, 0);
        gpu.h2d(s1, &[1.0; 8], a, 0);
        let mut host = [0.0; 8];
        gpu.d2h(s2, c, 0, &mut host);
        let spans = gpu.virtual_spans();
        let cats: Vec<obs::Category> = spans.iter().map(|s| s.cat).collect();
        assert_eq!(
            cats,
            vec![
                obs::Category::ComputeInterior,
                obs::Category::Pack,
                obs::Category::PcieH2d,
                obs::Category::PcieD2h,
            ]
        );
        for s in &spans {
            assert_eq!(s.axis, obs::Axis::Virtual);
        }
        assert_eq!(
            spans.iter().map(|s| s.tid).collect::<Vec<_>>(),
            [0, 1, 1, 2]
        );
        // The pack waits for the stencil; the two copies run on their own
        // engines, the D2H beside the pack as soon as the device starts.
        assert_eq!(spans[1].virt_start, spans[0].virt_end);
        assert_eq!(spans[2].virt_start, spans[1].virt_end);
        assert_eq!(spans[3].virt_start, 0.0);
        assert_eq!(gpu.sync_device(), spans[2].virt_end);
    }

    #[test]
    fn untraced_device_records_nothing() {
        let gpu = Gpu::new(GpuSpec::tesla_c2050());
        gpu.set_constant([0.0; 27]);
        let dims = FieldDims {
            nx: 8,
            ny: 8,
            nz: 8,
            halo: 0,
        };
        let a = gpu.alloc(dims.len());
        let b = gpu.alloc(dims.len());
        let data = vec![1.0; dims.len()];
        gpu.h2d(Stream::DEFAULT, &data, a, 0);
        gpu.launch_stencil(
            Stream::DEFAULT,
            a,
            b,
            StencilLaunch {
                dims,
                region: dims.interior(),
                block: (8, 8),
                periodic: true,
            },
        );
        let mut back = vec![0.0; dims.len()];
        gpu.d2h(Stream::DEFAULT, b, 0, &mut back);
        assert!(gpu.virtual_spans().is_empty(), "untraced ops were recorded");
        // The untraced ops were still scheduled: the traced one follows them.
        let t = gpu.sync_device();
        assert!(t > 0.0);
        gpu.install_tracer(obs::Tracer::on(0, obs::Anchor::now()));
        gpu.h2d(Stream::DEFAULT, &data, a, 0);
        let spans = gpu.virtual_spans();
        assert_eq!(spans.len(), 1, "one traced op, one span");
        assert_eq!(spans[0].cat, obs::Category::PcieH2d);
        assert_eq!(spans[0].virt_start, t);
    }

    #[test]
    fn copies_overlap_only_on_a_two_engine_part() {
        // An upload and a download on two streams: the C2050's two copy
        // engines run them side by side, the C1060's one engine in turn.
        for (spec, engines) in [(GpuSpec::tesla_c2050(), 2), (GpuSpec::tesla_c1060(), 1)] {
            let one = timing::pcie_time(&spec, 1000);
            let gpu = Gpu::new(spec);
            let (a, b) = (gpu.alloc(1000), gpu.alloc(1000));
            let s1 = gpu.create_stream();
            gpu.h2d(Stream::DEFAULT, &[1.0; 1000], a, 0);
            gpu.d2h(s1, b, 0, &mut [0.0; 1000]);
            let t = gpu.sync_device();
            assert_eq!(t, if engines == 2 { one } else { one + one });
            assert_eq!(gpu.stats().copy_busy, one + one);
        }
    }

    #[test]
    fn host_advance_delays_subsequent_ops() {
        let gpu = Gpu::new(GpuSpec::tesla_c2050());
        let buf = gpu.alloc(10);
        gpu.host_advance(1.0);
        let data = vec![0.0; 10];
        gpu.h2d(Stream::DEFAULT, &data, buf, 0);
        let t = gpu.sync_device();
        assert!(t > 1.0);
    }
}
