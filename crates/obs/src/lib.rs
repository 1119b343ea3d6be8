//! # obs
//!
//! The observability substrate: one span stream per rank covering every
//! resource a step touches — CPU compute, MPI traffic, PCIe transfers,
//! kernel launches — so the overlap behaviour the paper's Section V-E
//! argues about is directly visible and machine-checkable instead of
//! being split across `CommStats` counters, the device Gantt chart, and
//! the perfmodel event engine.
//!
//! The pieces:
//!
//! * [`Tracer`] — a per-rank span recorder and the substrates' one
//!   instrumentation hook. It has up to two sinks: a span slab (traced
//!   runs; claiming a slot is one `fetch_add` into a pre-allocated ring,
//!   so worker threads, the communicating master thread, and the device
//!   simulator can all record into the same rank's stream concurrently)
//!   and a span summary (metered runs; each finished span's duration
//!   goes into its histogram in the run's [`registry`]). A disabled
//!   tracer ([`Tracer::off`]) is a `None` and records nothing — no
//!   buffer exists to allocate.
//! * [`Span`] — one operation with **dual timestamps**: wall-clock
//!   nanoseconds (measured against a shared [`Anchor`]) for spans recorded
//!   by real threads, or the simulator's virtual clock for spans bridged
//!   from the device timeline. [`Axis`] names which clock a span carries.
//! * [`Category`] — the shared taxonomy (`compute.interior`, `mpi.send`,
//!   `pcie.h2d`, …) every producer maps into, grouped into coarse
//!   [`Resource`] classes for overlap analysis.
//! * [`chrome`] — a Chrome-trace/Perfetto JSON exporter over a set of
//!   per-rank traces.
//! * [`busy`] — busy-time, utilization, pairwise **overlap efficiency**
//!   (how much of the scarcer resource's busy time ran concurrently with
//!   the other resource), and the per-rank phase-breakdown table
//!   mirroring the paper's "where does a step spend its time" analysis.
//! * [`registry`] — the runtime metrics registry: lock-free counters,
//!   gauges, and log-linear latency histograms with Prometheus-text and
//!   JSON exporters, following the same zero-cost-off contract as the
//!   tracer (an off registry is a `None`). The substrates never touch
//!   it: their series are filled by the tracer's span summary.
//! * [`critical`] — critical-path extraction: charges every instant of a
//!   trace to its most-binding span and reports the per-category
//!   attribution plus the slack (fully hidden) spans, turning the
//!   paper's "off the critical path" claim into a checkable table.
//! * [`json`] — the workspace's one JSON writer and parser (no
//!   `serde` offline), and [`validate`] — structural checks of the
//!   Chrome-trace and Prometheus documents the exporters above write.
//! * [`crew`] — not observability: the resident worker crew and the
//!   spin→yield→park wait that `advect-core`'s thread teams and
//!   `simmpi`'s blocking calls share. It lives here because `obs` is the
//!   one crate beneath both.

pub mod busy;
pub mod causal;
pub mod chrome;
pub mod crew;
pub mod critical;
pub mod json;
pub mod recorder;
pub mod registry;
mod summary;
pub mod validate;

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use summary::SpanSummary;

/// Default span capacity per tracer (spans beyond it are counted, not
/// recorded, so a runaway loop cannot grow memory without bound).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Sentinel for a span that carries no per-channel sequence number (every
/// span except the stamped `mpi.send`/`mpi.recv`/`mpi.wait` records).
pub const NO_SEQ: u64 = u64::MAX;

/// Sentinel for a span with no channel peer rank.
pub const NO_PEER: u32 = u32::MAX;

/// The span taxonomy shared by every producer (simmpi, simgpu, the
/// runners, the sweep engine) and every consumer (exporter, breakdown,
/// metrics, the device Gantt chart).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Interior stencil computation (CPU slabs or GPU interior kernels).
    ComputeInterior,
    /// CPU veneer/wall computation in the hybrid implementations.
    ComputeVeneer,
    /// Host-side packing of a send buffer.
    Pack,
    /// Host-side unpacking of a received buffer.
    Unpack,
    /// Point-to-point send call.
    MpiSend,
    /// A receive, from post to completion (the in-flight window).
    MpiRecv,
    /// The blocking portion of completing a receive.
    MpiWait,
    /// An allreduce collective.
    MpiAllreduce,
    /// A barrier.
    MpiBarrier,
    /// Host-to-device PCIe transfer.
    PcieH2d,
    /// Device-to-host PCIe transfer.
    PcieD2h,
    /// Host-side kernel-launch (issue) overhead.
    KernelLaunch,
    /// A bounded-wait timeout fired while completing a receive: the rank
    /// stalled past the configured limit and re-armed its wait.
    FaultStall,
    /// A dropped message was redelivered by the fault injector during
    /// this receive's wait window.
    FaultRedeliver,
    /// Injected straggler slowdown: the rank slept to model a slow node
    /// (compute stragglers and allreduce stragglers).
    FaultThrottle,
    /// Run-service request admission: parse, canonicalize, admit/reject.
    ServeAccept,
    /// Run-service queue wait: enqueue until a worker picked the job.
    ServeQueue,
    /// Run-service execution: a worker running the job's simulation.
    ServeExecute,
    /// Run-service artifact rendering and publication to waiters.
    ServeRender,
    /// Run-service response delivery: waiter wake-up through redemption.
    ServeRespond,
}

impl Category {
    /// All categories, in taxonomy order.
    pub const ALL: [Category; 20] = [
        Category::ComputeInterior,
        Category::ComputeVeneer,
        Category::Pack,
        Category::Unpack,
        Category::MpiSend,
        Category::MpiRecv,
        Category::MpiWait,
        Category::MpiAllreduce,
        Category::MpiBarrier,
        Category::PcieH2d,
        Category::PcieD2h,
        Category::KernelLaunch,
        Category::FaultStall,
        Category::FaultRedeliver,
        Category::FaultThrottle,
        Category::ServeAccept,
        Category::ServeQueue,
        Category::ServeExecute,
        Category::ServeRender,
        Category::ServeRespond,
    ];

    /// The exporter-visible dotted name.
    pub fn name(self) -> &'static str {
        match self {
            Category::ComputeInterior => "compute.interior",
            Category::ComputeVeneer => "compute.veneer",
            Category::Pack => "pack",
            Category::Unpack => "unpack",
            Category::MpiSend => "mpi.send",
            Category::MpiRecv => "mpi.recv",
            Category::MpiWait => "mpi.wait",
            Category::MpiAllreduce => "mpi.allreduce",
            Category::MpiBarrier => "mpi.barrier",
            Category::PcieH2d => "pcie.h2d",
            Category::PcieD2h => "pcie.d2h",
            Category::KernelLaunch => "kernel.launch",
            Category::FaultStall => "fault.stall",
            Category::FaultRedeliver => "fault.redeliver",
            Category::FaultThrottle => "fault.throttle",
            Category::ServeAccept => "serve.accept",
            Category::ServeQueue => "serve.queue",
            Category::ServeExecute => "serve.execute",
            Category::ServeRender => "serve.render",
            Category::ServeRespond => "serve.respond",
        }
    }

    /// The coarse resource class used for overlap analysis.
    pub fn resource(self) -> Resource {
        match self {
            // Service-track categories appear only on the request track
            // (never inside run traces), so their class assignment is by
            // activity kind: queue wait is passive like an MPI wait, the
            // rest are host-side work.
            Category::ComputeInterior
            | Category::ComputeVeneer
            | Category::KernelLaunch
            | Category::FaultThrottle
            | Category::ServeAccept
            | Category::ServeExecute
            | Category::ServeRender
            | Category::ServeRespond => Resource::Compute,
            Category::Pack | Category::Unpack => Resource::Staging,
            Category::MpiSend
            | Category::MpiRecv
            | Category::MpiWait
            | Category::MpiAllreduce
            | Category::MpiBarrier
            | Category::FaultStall
            | Category::FaultRedeliver
            | Category::ServeQueue => Resource::Mpi,
            Category::PcieH2d | Category::PcieD2h => Resource::Pcie,
        }
    }
}

/// Coarse resource classes for pairwise overlap analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Stencil computation (CPU or GPU) and kernel issue.
    Compute,
    /// Message passing, including in-flight receive windows.
    Mpi,
    /// PCIe copy engines.
    Pcie,
    /// Host-side pack/unpack staging.
    Staging,
}

impl Resource {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Resource::Compute => "compute",
            Resource::Mpi => "mpi",
            Resource::Pcie => "pcie",
            Resource::Staging => "staging",
        }
    }
}

/// Which clock a span's timestamps live on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Real wall-clock nanoseconds relative to the trace [`Anchor`].
    Wall,
    /// The simulator's virtual clock (seconds), as scheduled by the
    /// device timeline.
    Virtual,
}

/// One recorded operation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Taxonomy category.
    pub cat: Category,
    /// Free-form label ("halo.pack", "stencil", …).
    pub label: &'static str,
    /// Recording thread slot (wall spans) or device stream (virtual).
    pub tid: u32,
    /// Which clock the timestamps below live on.
    pub axis: Axis,
    /// Wall start, nanoseconds since the anchor (wall spans only).
    pub wall_start_ns: u64,
    /// Wall end, nanoseconds since the anchor (wall spans only).
    pub wall_end_ns: u64,
    /// Virtual start, seconds (virtual spans only).
    pub virt_start: f64,
    /// Virtual end, seconds (virtual spans only).
    pub virt_end: f64,
    /// Channel peer rank for stamped `mpi.*` spans ([`NO_PEER`] otherwise):
    /// the destination of a send, the source of a receive/wait.
    pub peer: u32,
    /// Channel tag for stamped `mpi.*` spans (0 otherwise).
    pub tag: u64,
    /// Per-`(src, tag)` delivery sequence number carried from the send
    /// through limbo into the matching receive ([`NO_SEQ`] when the span
    /// is not a stamped channel operation).
    pub seq: u64,
}

impl Span {
    /// A wall-clock span.
    pub fn wall(cat: Category, label: &'static str, tid: u32, start_ns: u64, end_ns: u64) -> Self {
        Span {
            cat,
            label,
            tid,
            axis: Axis::Wall,
            wall_start_ns: start_ns,
            wall_end_ns: end_ns,
            virt_start: 0.0,
            virt_end: 0.0,
            peer: NO_PEER,
            tag: 0,
            seq: NO_SEQ,
        }
    }

    /// A wall-clock span stamped with its message channel identity
    /// `(peer, tag, seq)` — the causal ID that lets [`causal`] match this
    /// span to the other end of the transfer.
    #[allow(clippy::too_many_arguments)]
    pub fn channel(
        cat: Category,
        label: &'static str,
        tid: u32,
        start_ns: u64,
        end_ns: u64,
        peer: u32,
        tag: u64,
        seq: u64,
    ) -> Self {
        Span {
            peer,
            tag,
            seq,
            ..Span::wall(cat, label, tid, start_ns, end_ns)
        }
    }

    /// A virtual-clock span (bridged from the device timeline).
    pub fn virtual_span(
        cat: Category,
        label: &'static str,
        stream: u32,
        start: f64,
        end: f64,
    ) -> Self {
        Span {
            cat,
            label,
            tid: stream,
            axis: Axis::Virtual,
            wall_start_ns: 0,
            wall_end_ns: 0,
            virt_start: start,
            virt_end: end,
            peer: NO_PEER,
            tag: 0,
            seq: NO_SEQ,
        }
    }

    /// Span duration in seconds on its own axis.
    pub fn seconds(&self) -> f64 {
        match self.axis {
            Axis::Wall => (self.wall_end_ns.saturating_sub(self.wall_start_ns)) as f64 * 1e-9,
            Axis::Virtual => (self.virt_end - self.virt_start).max(0.0),
        }
    }

    /// `(start, end)` in seconds on the given axis, if the span lives on
    /// that axis.
    pub fn interval_on(&self, axis: Axis) -> Option<(f64, f64)> {
        if self.axis != axis {
            return None;
        }
        Some(match axis {
            Axis::Wall => (
                self.wall_start_ns as f64 * 1e-9,
                self.wall_end_ns as f64 * 1e-9,
            ),
            Axis::Virtual => (self.virt_start, self.virt_end),
        })
    }
}

impl Default for Span {
    fn default() -> Self {
        Span::wall(Category::ComputeInterior, "", 0, 0, 0)
    }
}

/// One rank's collected span stream.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The recording rank.
    pub rank: usize,
    /// Recorded spans, in slot-claim order.
    pub spans: Vec<Span>,
    /// Spans that arrived after the slab filled (not recorded).
    pub dropped: u64,
}

/// The shared wall-clock origin for a world of tracers, so per-rank
/// timestamps are directly comparable in one exported trace file.
#[derive(Debug, Clone, Copy)]
pub struct Anchor(Instant);

impl Anchor {
    /// An anchor at the current instant.
    pub fn now() -> Self {
        Anchor(Instant::now())
    }

    /// Nanoseconds elapsed since the anchor.
    pub fn elapsed_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

impl Default for Anchor {
    fn default() -> Self {
        Anchor::now()
    }
}

/// The span slab: a pre-allocated ring the recording threads claim
/// slots of with one `fetch_add`.
struct Slab {
    next: AtomicUsize,
    dropped: AtomicU64,
    slots: Box<[UnsafeCell<Span>]>,
}

struct TracerInner {
    rank: usize,
    anchor: Anchor,
    /// Where spans are kept for the run's trace (traced runs only).
    slab: Option<Slab>,
    /// Where span durations become histogram observations (metered
    /// runs only).
    summary: Option<SpanSummary>,
}

// SAFETY: the slab's `UnsafeCell` slots are the only field that is not
// `Sync` on its own (`rank` and `anchor` are plain values, the slab's
// counters are atomics, the summary holds `Arc`s of atomic histogram
// cells). Each slot is written at most once, by the unique thread that
// claimed its index from `next`; readers ([`Tracer::finish`]) only run
// after every recording thread has quiesced (rank threads are joined by
// the world, team threads by each parallel section), which establishes
// the necessary happens-before via the joins.
unsafe impl Sync for TracerInner {}
unsafe impl Send for TracerInner {}

/// A per-rank span recorder — the one instrumentation hook the
/// substrates (`simmpi`, `simgpu`) and the runners record through.
///
/// A live tracer has up to two sinks: the span slab of a traced run
/// ([`Tracer::finish`] returns it) and the span summary of a metered
/// run, which puts each finished span's duration into its histogram in
/// the run's registry (the mapping is in the `summary` module). Cloning
/// is cheap (an `Arc` bump); all clones record into the same sinks, so a
/// rank's main thread, its compute workers, and the substrate layers
/// share one stream. The disabled tracer is a `None`: every method is a
/// no-op and nothing is allocated.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// The disabled tracer: records nothing, allocates nothing.
    pub const fn off() -> Self {
        Tracer { inner: None }
    }

    /// A tracing tracer for `rank`, timestamping against `anchor`, with
    /// the default span capacity.
    pub fn on(rank: usize, anchor: Anchor) -> Self {
        Self::with_capacity(rank, anchor, DEFAULT_CAPACITY)
    }

    /// A tracing tracer with an explicit span capacity.
    pub fn with_capacity(rank: usize, anchor: Anchor, capacity: usize) -> Self {
        Self::build(rank, anchor, Some(capacity), None)
    }

    /// Rank `rank`'s tracer in a world of `size` ranks: a span slab when
    /// `trace`, a span summary over `metrics` when that registry is on
    /// (its series are registered here, once), [`Tracer::off`] when
    /// neither. A metered run that is not traced allocates no slab.
    pub fn enabled(
        trace: bool,
        metrics: &registry::Metrics,
        rank: usize,
        size: usize,
        anchor: Anchor,
    ) -> Self {
        let summary = metrics
            .is_on()
            .then(|| SpanSummary::new(metrics, rank, size));
        if !trace && summary.is_none() {
            return Self::off();
        }
        Self::build(rank, anchor, trace.then_some(DEFAULT_CAPACITY), summary)
    }

    fn build(
        rank: usize,
        anchor: Anchor,
        capacity: Option<usize>,
        summary: Option<SpanSummary>,
    ) -> Self {
        let slab = capacity.map(|capacity| Slab {
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..capacity.max(1))
                .map(|_| UnsafeCell::new(Span::default()))
                .collect(),
        });
        Tracer {
            inner: Some(Arc::new(TracerInner {
                rank,
                anchor,
                slab,
                summary,
            })),
        }
    }

    /// Whether this tracer has a sink (a slab, a summary, or both).
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether a wall span of `cat` reaches a sink.
    fn records_wall(&self, cat: Category) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.slab.is_some() || summary::summarises_wall(cat))
    }

    /// Nanoseconds since the anchor (0 when off) — for callers that
    /// split a span across two call sites (e.g. irecv post → wait).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.anchor.elapsed_ns(),
            None => 0,
        }
    }

    /// Open a wall-clock span; it records itself when the guard drops.
    /// A span no sink takes reads no clock.
    #[must_use = "the span ends when the guard drops"]
    pub fn span(&self, cat: Category, label: &'static str) -> SpanGuard<'_> {
        let live = self.records_wall(cat);
        SpanGuard {
            tracer: live.then_some(self),
            cat,
            label,
            start_ns: if live { self.now_ns() } else { 0 },
        }
    }

    /// Record an explicit wall-clock span from timestamps obtained with
    /// [`Tracer::now_ns`].
    pub fn record_wall(&self, cat: Category, label: &'static str, start_ns: u64, end_ns: u64) {
        if self.records_wall(cat) {
            self.push(Span::wall(cat, label, thread_slot(), start_ns, end_ns));
        }
    }

    /// Record a wall-clock span stamped with its channel identity
    /// `(peer, tag, seq)` — the send/receive ends of a message record
    /// through this so [`causal`] can pair them.
    #[allow(clippy::too_many_arguments)]
    pub fn record_channel(
        &self,
        cat: Category,
        label: &'static str,
        start_ns: u64,
        end_ns: u64,
        peer: u32,
        tag: u64,
        seq: u64,
    ) {
        if self.records_wall(cat) {
            self.push(Span::channel(
                cat,
                label,
                thread_slot(),
                start_ns,
                end_ns,
                peer,
                tag,
                seq,
            ));
        }
    }

    /// Record a virtual-clock span (device-timeline bridge).
    pub fn record_virtual(
        &self,
        cat: Category,
        label: &'static str,
        stream: u32,
        start: f64,
        end: f64,
    ) {
        if self.inner.is_some() {
            self.push(Span::virtual_span(cat, label, stream, start, end));
        }
    }

    /// Append pre-built spans (e.g. `Timeline::to_trace_events`).
    pub fn absorb(&self, spans: &[Span]) {
        if self.inner.is_some() {
            for s in spans {
                self.push(*s);
            }
        }
    }

    fn push(&self, span: Span) {
        let Some(inner) = &self.inner else { return };
        if let Some(summary) = &inner.summary {
            summary.observe(&span);
        }
        let Some(slab) = &inner.slab else { return };
        let i = slab.next.fetch_add(1, Ordering::Relaxed);
        if i < slab.slots.len() {
            // SAFETY: index `i` was claimed exclusively by this thread's
            // fetch_add; no other writer touches this slot, and readers
            // wait for thread quiescence (see `TracerInner`'s Sync note).
            unsafe {
                *slab.slots[i].get() = span;
            }
        } else {
            slab.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Collect the recorded spans: `None` unless this tracer has a slab.
    /// Call only after every thread that recorded through this tracer
    /// (or a clone) has been joined.
    pub fn finish(&self) -> Option<Trace> {
        let inner = self.inner.as_ref()?;
        let slab = inner.slab.as_ref()?;
        let n = slab.next.load(Ordering::Acquire).min(slab.slots.len());
        let spans = (0..n)
            .map(|i| {
                // SAFETY: all writers have quiesced (caller contract).
                unsafe { *slab.slots[i].get() }
            })
            .collect();
        Some(Trace {
            rank: inner.rank,
            spans,
            dropped: slab.dropped.load(Ordering::Relaxed),
        })
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => f
                .debug_struct("Tracer")
                .field("rank", &inner.rank)
                .field(
                    "recorded",
                    &inner.slab.as_ref().map(|s| s.next.load(Ordering::Relaxed)),
                )
                .field("summary", &inner.summary.is_some())
                .finish(),
            None => f.write_str("Tracer(off)"),
        }
    }
}

/// RAII guard for an open wall-clock span (inert when no sink takes it).
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    cat: Category,
    label: &'static str,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(tracer) = self.tracer {
            tracer.record_wall(self.cat, self.label, self.start_ns, tracer.now_ns());
        }
    }
}

/// A small dense id for the current OS thread (Chrome-trace `tid`).
pub fn thread_slot() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static SLOT: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SLOT.with(|s| *s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_and_allocates_nothing() {
        let t = Tracer::off();
        {
            let _g = t.span(Category::MpiSend, "s");
        }
        t.record_wall(Category::Pack, "p", 0, 10);
        t.record_virtual(Category::PcieH2d, "h", 0, 0.0, 1.0);
        assert!(!t.is_on());
        assert!(t.finish().is_none());
        let unmetered = Tracer::enabled(false, &registry::Metrics::off(), 0, 2, Anchor::now());
        assert!(!unmetered.is_on());
    }

    #[test]
    fn metered_tracer_summarises_spans_without_a_slab() {
        let m = registry::Metrics::on();
        let t = Tracer::enabled(false, &m, 1, 2, Anchor::now());
        assert!(t.is_on());
        t.record_channel(Category::MpiWait, "wait", 10, 40, 0, 0, 0);
        t.record_channel(Category::MpiRecv, "inflight", 0, 40, 0, 0, 0);
        t.record_wall(Category::FaultStall, "bounded-wait", 5, 25);
        t.record_wall(Category::ComputeInterior, "c", 0, 100);
        t.absorb(&[
            Span::virtual_span(Category::ComputeInterior, "stencil", 0, 0.0, 2e-6),
            Span::virtual_span(Category::Pack, "pack", 0, 2e-6, 3e-6),
            Span::virtual_span(Category::PcieH2d, "h2d", 1, 0.0, 1e-6),
        ]);
        {
            let _g = t.span(Category::MpiBarrier, "unsummarised");
        }
        assert!(t.finish().is_none(), "a metrics-only tracer keeps no spans");
        let count = |name| m.histogram_snapshot(name).count;
        assert_eq!(count("advect_mpi_wait_ns"), 1);
        assert_eq!(m.histogram_snapshot("advect_mpi_wait_ns").sum, 30);
        assert_eq!(count("advect_mpi_recv_latency_ns"), 1);
        assert_eq!(count("advect_fault_stall_ns"), 1);
        assert_eq!(count("advect_fault_redeliver_latency_ns"), 0);
        assert_eq!(count("advect_gpu_kernel_ns"), 2);
        assert_eq!(count("advect_pcie_transfer_ns"), 1);
        let prom = m.render_prometheus();
        assert!(prom.contains("advect_mpi_wait_ns_count{rank=\"1\",src=\"0\"} 1"));
        assert!(prom.contains("advect_mpi_wait_ns_count{rank=\"1\",src=\"1\"} 0"));
    }

    #[test]
    fn on_tracer_records_every_span() {
        let t = Tracer::on(3, Anchor::now());
        for _ in 0..100 {
            let _g = t.span(Category::ComputeInterior, "c");
        }
        let trace = t.finish().unwrap();
        assert_eq!(trace.rank, 3);
        assert_eq!(trace.spans.len(), 100);
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn spans_beyond_capacity_are_counted_not_recorded() {
        let t = Tracer::with_capacity(0, Anchor::now(), 4);
        for _ in 0..10 {
            t.record_wall(Category::MpiSend, "s", 0, 1);
        }
        let trace = t.finish().unwrap();
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.dropped, 6);
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let t = Tracer::with_capacity(0, Anchor::now(), 4096);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let t = t.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        let _g = t.span(Category::ComputeInterior, "w");
                    }
                });
            }
        });
        let trace = t.finish().unwrap();
        assert_eq!(trace.spans.len(), 800);
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn guard_records_monotone_wall_interval() {
        let t = Tracer::on(0, Anchor::now());
        {
            let _g = t.span(Category::MpiWait, "w");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let trace = t.finish().unwrap();
        assert_eq!(trace.spans.len(), 1);
        let s = trace.spans[0];
        assert!(s.wall_end_ns > s.wall_start_ns);
        assert!(s.seconds() >= 1e-3);
        assert_eq!(s.axis, Axis::Wall);
    }

    #[test]
    fn category_names_are_stable_and_unique() {
        let mut names: Vec<&str> = Category::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Category::ALL.len());
        assert_eq!(Category::PcieH2d.name(), "pcie.h2d");
        assert_eq!(Category::ComputeVeneer.name(), "compute.veneer");
    }

    #[test]
    fn virtual_span_interval_lives_on_virtual_axis() {
        let s = Span::virtual_span(Category::PcieD2h, "d2h", 1, 0.5, 1.5);
        assert_eq!(s.interval_on(Axis::Wall), None);
        assert_eq!(s.interval_on(Axis::Virtual), Some((0.5, 1.5)));
        assert_eq!(s.seconds(), 1.0);
    }
}
