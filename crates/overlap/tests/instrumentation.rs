//! Instrumentation tests: verify *how* each implementation communicates —
//! message counts, traffic volumes, kernel launches, PCIe transfers — not
//! just what it computes. These pin the schedules the performance models
//! price.

use advect_core::stepper::AdvectionProblem;
use decomp::ExchangePlan;
use obs::{Axis, Category};
use overlap::{Impl, RunConfig, RunLimits, RunParams, RunReport};
use simgpu::GpuSpec;
use simmpi::FaultStats;

fn cfg(tasks: usize, steps: u64) -> RunConfig {
    RunConfig::new(AdvectionProblem::general_case(12), steps)
        .tasks(tasks)
        .with_threads(2)
        .with_block((8, 8))
        .with_thickness(1)
}

#[test]
fn bulk_sync_sends_six_messages_per_rank_per_step() {
    let steps = 4u64;
    let c = cfg(4, steps);
    let (_, report) = Impl::BulkSync.run_with_report(&c, None);
    for (rank, stats) in report.comm.iter().enumerate() {
        assert_eq!(stats.messages_sent, 6 * steps, "rank {rank}");
        assert_eq!(stats.messages_received, 6 * steps, "rank {rank}");
    }
    // Volume: each rank ships its exchange plan's total per step.
    let decomp = c.decomposition();
    let expected: u64 = (0..4)
        .map(|r| ExchangePlan::new(decomp.subdomains[r].extent, 1).total_sent() as u64)
        .sum();
    assert_eq!(report.total_values_sent(), expected * steps);
}

#[test]
fn nonblocking_moves_exactly_the_same_traffic_as_bulk_sync() {
    // The overlap is temporal, not volumetric: same messages, same bytes.
    let (_, bulk) = Impl::BulkSync.run_with_report(&cfg(4, 3), None);
    let (_, nonblocking) = Impl::Nonblocking.run_with_report(&cfg(4, 3), None);
    assert_eq!(bulk.total_messages(), nonblocking.total_messages());
    assert_eq!(bulk.total_values_sent(), nonblocking.total_values_sent());
}

#[test]
fn gpu_bulk_sync_moves_the_ring_every_step() {
    let steps = 3u64;
    let spec = GpuSpec::tesla_c2050();
    let c = cfg(2, steps);
    let (_, report) = Impl::GpuBulkSync.run_with_report(&c, Some(&spec));
    assert_eq!(report.gpu.len(), 2, "one device per rank");
    for stats in &report.gpu {
        // 6 boundary-ring faces out, 6 halo-ring faces in, per step.
        assert_eq!(stats.d2h_transfers, 6 * steps);
        assert_eq!(stats.h2d_transfers, 6 * steps);
        // 6 face kernels + 1 interior kernel per step.
        assert_eq!(stats.stencil_launches, 7 * steps);
        // 6 packs + 6 unpacks per step.
        assert_eq!(stats.pack_launches, 12 * steps);
    }
    // PCIe volume per rank per step: boundary ring + halo ring.
    let decomp = c.decomposition();
    let expected: u64 = (0..2)
        .map(|r| {
            let part = decomp::BoxPartition::new(decomp.subdomains[r].extent, 0);
            (part.d2h_points() + part.h2d_points()) as u64
        })
        .sum();
    assert_eq!(report.total_pcie_points(), expected * steps);
}

#[test]
fn gpu_streams_moves_identical_traffic_to_gpu_bulk_sync() {
    let spec = GpuSpec::tesla_c2050();
    let (_, f) = Impl::GpuBulkSync.run_with_report(&cfg(2, 3), Some(&spec));
    let (_, g) = Impl::GpuStreams.run_with_report(&cfg(2, 3), Some(&spec));
    assert_eq!(f.total_pcie_points(), g.total_pcie_points());
    assert_eq!(f.total_stencil_launches(), g.total_stencil_launches());
    assert_eq!(f.total_messages(), g.total_messages());
}

#[test]
fn hybrid_moves_less_pcie_than_gpu_only_for_thick_walls() {
    // A thicker CPU box shrinks the GPU block, so its interface rings —
    // and the PCIe traffic — shrink with it.
    let spec = GpuSpec::tesla_c2050();
    let thin = Impl::HybridBulkSync
        .run_with_report(&cfg(2, 2).with_thickness(1), Some(&spec))
        .1;
    let thick = Impl::HybridBulkSync
        .run_with_report(&cfg(2, 2).with_thickness(3), Some(&spec))
        .1;
    assert!(
        thick.total_pcie_points() < thin.total_pcie_points(),
        "thick {} vs thin {}",
        thick.total_pcie_points(),
        thin.total_pcie_points()
    );
}

#[test]
fn hybrid_overlap_pcie_traffic_is_ring_sized() {
    let steps = 2u64;
    let spec = GpuSpec::tesla_c2050();
    let c = cfg(2, steps).with_thickness(2);
    let (_, report) = Impl::HybridOverlap.run_with_report(&c, Some(&spec));
    let decomp = c.decomposition();
    let expected: u64 = (0..2)
        .map(|r| {
            let part = decomp::BoxPartition::new(decomp.subdomains[r].extent, 2);
            (part.d2h_points() + part.h2d_points()) as u64
        })
        .sum();
    assert_eq!(report.total_pcie_points(), expected * steps);
    // MPI traffic is the plain one-point exchange, independent of the box.
    let (_, cpu_only) = Impl::BulkSync.run_with_report(&cfg(2, steps), None);
    assert_eq!(report.total_values_sent(), cpu_only.total_values_sent());
}

#[test]
fn single_node_self_exchange_still_counts_messages() {
    // One task: all six messages are self-sends, still counted.
    let (_, report) = Impl::BulkSync.run_with_report(&cfg(1, 2), None);
    assert_eq!(report.comm[0].messages_sent, 12);
    assert_eq!(report.comm[0].messages_received, 12);
}

/// The metered series are the rank tracers' summary of spans the
/// substrates record anyway, so each one counts exactly the operations
/// the always-on counters count: one wait and one latency sample per
/// received message, one kernel sample per device launch, one transfer
/// sample per PCIe copy, one step sample per rank and step.
fn assert_metered_counts(slug: &str, report: &RunReport, tasks: usize, steps: u64) {
    let count = |name| report.metrics.histogram_snapshot(name).count;
    let received: u64 = report.comm.iter().map(|c| c.messages_received).sum();
    let packs: u64 = report.gpu.iter().map(|g| g.pack_launches).sum();
    let launches = report.total_stencil_launches() + packs;
    let copies = report.total_h2d_transfers() + report.total_d2h_transfers();
    assert_eq!(count("advect_mpi_wait_ns"), received, "{slug}: waits");
    assert_eq!(
        count("advect_mpi_recv_latency_ns"),
        received,
        "{slug}: latencies"
    );
    assert_eq!(count("advect_gpu_kernel_ns"), launches, "{slug}: kernels");
    assert_eq!(count("advect_pcie_transfer_ns"), copies, "{slug}: copies");
    assert_eq!(
        count("advect_step_ns"),
        tasks as u64 * steps,
        "{slug}: one step observation per rank and step"
    );
}

#[test]
fn traced_runs_carry_one_trace_per_rank_and_untraced_none() {
    // What the shared frame guarantees for every implementation: one
    // entry per rank in each per-rank report vector, one complete trace
    // per rank exactly when traced, the metered series counting exactly
    // what the substrate counters count, and nothing at all from an off
    // switch — the per-run form of a zero-cost-off check.
    let steps = 2u32;
    for im in Impl::ALL {
        let key = |trace: bool, metrics: bool| {
            RunParams {
                impl_slug: im.slug().to_string(),
                steps,
                tasks: 4,
                threads: 2,
                thickness: 1,
                trace,
                metrics,
                ..RunParams::default()
            }
            .canonicalize(&RunLimits::default())
            .expect("a valid request")
        };
        let tasks = key(false, false).tasks() as usize;
        let slug = im.slug();

        let (_, off) = key(false, false).execute();
        assert!(off.traces.is_empty(), "{slug}: untraced run recorded spans");
        assert!(!off.metrics.is_on(), "{slug}: unmetered run has a registry");
        assert_eq!(off.metrics.render_prometheus(), "", "{slug}");
        assert!(
            off.fault.iter().all(|f| *f == FaultStats::default()),
            "{slug}: fault-off run moved a fault counter: {:?}",
            off.fault
        );

        let (_, metered) = key(false, true).execute();
        assert!(
            metered.traces.is_empty(),
            "{slug}: a metrics-only run returned traces"
        );
        assert_metered_counts(slug, &metered, tasks, steps as u64);

        let (_, on) = key(true, true).execute();
        assert_metered_counts(slug, &on, tasks, steps as u64);
        assert_eq!(on.comm.len(), tasks, "{slug}: comm stats per rank");
        assert_eq!(on.fault.len(), tasks, "{slug}: fault stats per rank");
        let devices = if im.uses_gpu() { tasks } else { 0 };
        assert_eq!(on.gpu.len(), devices, "{slug}: device stats per rank");
        let mut ranks: Vec<usize> = on.traces.iter().map(|t| t.rank).collect();
        ranks.sort_unstable();
        let expect: Vec<usize> = (0..tasks).collect();
        assert_eq!(ranks, expect, "{slug}: one trace per rank");
        let prom = on.metrics.render_prometheus();
        assert!(prom.contains("advect_step_ns"), "{slug}: {prom}");
        if im.uses_mpi() {
            assert!(prom.contains("advect_mpi_wait_ns"), "{slug}: {prom}");
            assert!(
                !on.causal_graph().edges.is_empty(),
                "{slug}: traced run produced no causal edges"
            );
        }
        for t in &on.traces {
            assert_eq!(t.dropped, 0, "{slug} rank {}: spans dropped", t.rank);
            let has = |cat| t.spans.iter().any(|s| s.cat == cat);
            if im.uses_mpi() {
                assert!(
                    has(Category::MpiSend),
                    "{slug} rank {}: no mpi.send",
                    t.rank
                );
                assert!(has(Category::Pack), "{slug} rank {}: no pack spans", t.rank);
            }
            if !im.uses_gpu() {
                let rank = t.rank;
                assert!(
                    has(Category::ComputeInterior),
                    "{slug} rank {rank}: no compute"
                );
            }
        }
    }
}

#[test]
fn bulk_sync_has_exactly_zero_mpi_compute_overlap() {
    // Structural, not statistical: in IV-B every in-flight receive window
    // closes (wait returns) before the stencil block opens, on the same
    // thread, so the measured overlap is exactly zero however the ranks
    // are scheduled.
    let (_, report) = Impl::BulkSync.run_with_report(&cfg(4, 3).with_trace(true), None);
    let o = report.mpi_compute_overlap();
    assert!(o.busy_a > 0.0, "MPI busy time must be measured");
    assert!(o.busy_b > 0.0, "compute busy time must be measured");
    assert_eq!(o.both, 0.0, "IV-B must show no MPI\u{2194}compute overlap");
    assert_eq!(o.efficiency(), 0.0);
}

#[test]
fn nonblocking_and_thread_overlap_measure_real_mpi_compute_overlap() {
    // IV-C: the interior third is computed inside the posted-irecv
    // window of the same thread — overlap is structural there too.
    let (_, nb) = Impl::Nonblocking.run_with_report(&cfg(4, 3).with_trace(true), None);
    let o = nb.mpi_compute_overlap();
    assert!(o.both > 0.0, "IV-C overlap {o:?}");
    assert!(o.efficiency() > 0.0 && o.efficiency() <= 1.0);

    // IV-D: worker threads compute while the master drives the blocking
    // exchange; their spans are concurrent on the wall clock.
    let (_, to) = Impl::ThreadOverlap.run_with_report(&cfg(4, 3).with_trace(true), None);
    let o = to.mpi_compute_overlap();
    assert!(o.both > 0.0, "IV-D overlap {o:?}");
}

#[test]
fn hybrid_overlap_beats_bulk_sync_on_both_overlap_metrics() {
    // The paper's claim, measured rather than modeled: IV-I overlaps MPI
    // with CPU compute (wall clock) and PCIe with GPU compute (device
    // timeline); IV-B overlaps neither.
    let spec = GpuSpec::tesla_c2050();
    let (_, bulk) = Impl::BulkSync.run_with_report(&cfg(4, 3).with_trace(true), None);
    let (_, hybrid) = Impl::HybridOverlap.run_with_report(&cfg(4, 3).with_trace(true), Some(&spec));

    let mpi_bulk = bulk.mpi_compute_overlap();
    let mpi_hybrid = hybrid.mpi_compute_overlap();
    assert!(
        mpi_hybrid.both > mpi_bulk.both,
        "hybrid {mpi_hybrid:?} vs bulk {mpi_bulk:?}"
    );
    assert!(mpi_hybrid.efficiency() > mpi_bulk.efficiency());

    let pcie_bulk = bulk.pcie_compute_overlap();
    let pcie_hybrid = hybrid.pcie_compute_overlap();
    assert_eq!(pcie_bulk.both, 0.0, "IV-B has no PCIe traffic at all");
    assert!(
        pcie_hybrid.both > 0.0,
        "IV-I device timeline must overlap copies with kernels: {pcie_hybrid:?}"
    );
    assert!(pcie_hybrid.efficiency() > pcie_bulk.efficiency());
}

#[test]
fn hybrid_veneer_keeps_pcie_spans_shorter_than_interior_kernels() {
    // Figure 1's economics on the trace: the PCIe rings scale with the
    // GPU block's surface while the interior kernel scales with its
    // volume, so for a healthy veneer (thickness 1-3 on a subdomain big
    // enough to keep the deep interior non-empty) every individual PCIe
    // transfer is shorter than the longest interior kernel.
    let spec = GpuSpec::tesla_c2050();
    for thickness in [1usize, 2, 3] {
        let c = RunConfig::new(AdvectionProblem::general_case(20), 2)
            .tasks(2)
            .with_threads(2)
            .with_block((8, 8))
            .with_thickness(thickness)
            .with_trace(true);
        let (_, report) = Impl::HybridOverlap.run_with_report(&c, Some(&spec));
        let mut max_pcie: f64 = 0.0;
        let mut max_interior: f64 = 0.0;
        for t in &report.traces {
            for s in &t.spans {
                if s.axis != Axis::Virtual {
                    continue;
                }
                let d = s.virt_end - s.virt_start;
                match s.cat {
                    Category::PcieH2d | Category::PcieD2h => max_pcie = max_pcie.max(d),
                    Category::ComputeInterior => max_interior = max_interior.max(d),
                    _ => {}
                }
            }
        }
        assert!(max_pcie > 0.0, "thickness {thickness}: no PCIe spans");
        assert!(
            max_pcie < max_interior,
            "thickness {thickness}: PCIe {max_pcie:.3e} not shorter than \
             interior kernel {max_interior:.3e}"
        );
        assert!(
            report.pcie_compute_overlap().both > 0.0,
            "thickness {thickness}: no PCIe\u{2194}compute overlap"
        );
    }
}

#[test]
fn wait_time_and_peak_in_flight_are_surfaced() {
    // The aggregation helpers work without tracing: wait_ns and the
    // mailbox high-water mark are always-on counters.
    let (_, report) = Impl::BulkSync.run_with_report(&cfg(4, 3), None);
    assert!(report.traces.is_empty());
    assert!(
        report.total_wait_ns() > 0,
        "4-rank exchanges must block somewhere"
    );
    assert!(
        report.peak_bytes_in_flight() >= 8,
        "halo payloads must raise the mailbox high-water mark"
    );
    let per_rank_max = report
        .comm
        .iter()
        .map(|c| c.peak_bytes_in_flight)
        .max()
        .unwrap();
    assert_eq!(report.peak_bytes_in_flight(), per_rank_max);
}

#[test]
fn phase_breakdown_covers_recorded_categories() {
    let (_, report) = Impl::BulkSync.run_with_report(&cfg(4, 2).with_trace(true), None);
    let wall = report.phase_breakdown(Axis::Wall);
    let agg = wall.aggregate();
    assert!(agg.get(Category::ComputeInterior) > 0.0);
    assert!(agg.get(Category::MpiSend) > 0.0);
    assert!(agg.get(Category::Pack) > 0.0);
    assert_eq!(agg.get(Category::PcieH2d), 0.0, "no GPU in IV-B");
    let table = wall.render_markdown();
    assert!(table.contains("compute.interior"));
    assert!(table.contains("**all**"));
}

/// FNV-1a, 64-bit.
fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The device's virtual timeline, bit for bit: IV-E…IV-I traced at a
/// small uneven shape on a one-copy-engine part (Lens's C1060) and a
/// two-copy-engine part (Yona's C2050). Every virtual span's category,
/// label, track, start and end are hashed in each rank's trace order,
/// then each rank's scheduled compute and copy busy time. A change to the
/// device's scheduler that moves any unfaulted start or end fails here.
#[test]
fn device_virtual_timeline_matches_the_pinned_digest() {
    let mut digest = 0xcbf2_9ce4_8422_2325;
    for spec in [GpuSpec::tesla_c1060(), GpuSpec::tesla_c2050()] {
        for im in [
            Impl::GpuResident,
            Impl::GpuBulkSync,
            Impl::GpuStreams,
            Impl::HybridBulkSync,
            Impl::HybridOverlap,
        ] {
            let tasks = if im == Impl::GpuResident { 1 } else { 2 };
            let c = RunConfig::new(AdvectionProblem::general_case(13), 3)
                .tasks(tasks)
                .with_threads(2)
                .with_block((8, 8))
                .with_thickness(1)
                .with_trace(true);
            let (_, mut report) = im.run_with_report(&c, Some(&spec));
            report.traces.sort_by_key(|t| t.rank);
            assert_eq!(report.traces.len(), tasks, "{im:?} on {}", spec.name);
            for t in &report.traces {
                for s in t.spans.iter().filter(|s| s.axis == Axis::Virtual) {
                    digest = fnv1a64(digest, s.cat.name().as_bytes());
                    digest = fnv1a64(digest, s.label.as_bytes());
                    digest = fnv1a64(digest, &s.tid.to_le_bytes());
                    digest = fnv1a64(digest, &s.virt_start.to_bits().to_le_bytes());
                    digest = fnv1a64(digest, &s.virt_end.to_bits().to_le_bytes());
                }
            }
            for g in &report.gpu {
                digest = fnv1a64(digest, &g.compute_busy.to_bits().to_le_bytes());
                digest = fnv1a64(digest, &g.copy_busy.to_bits().to_le_bytes());
            }
        }
    }
    assert_eq!(
        digest, 0xd094_5c79_ba50_a45d,
        "device virtual timeline moved: digest {digest:#018x}"
    );
}
