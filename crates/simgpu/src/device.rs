//! The simulated device: buffers, streams, events, hazards, and the
//! virtual schedule of its ops on the shared list scheduler.

use crate::event::{OpId, Res, Schedule};
use crate::fault::GpuFaultPlan;
use crate::kernels::{self, FieldDims, StencilLaunch};
use crate::spec::GpuSpec;
use crate::timing;
use advect_core::field::Range3;
use obs::{Category, Span, Tracer};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Handle to a device (global-memory) buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuBuffer(usize);

/// Handle to a CUDA-like stream. Stream 0 (the default stream) always
/// exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream(usize);

impl Stream {
    /// The default stream.
    pub const DEFAULT: Stream = Stream(0);
}

/// A recorded event: a point in a stream's history that other streams can
/// wait on (like `cudaEventRecord` / `cudaStreamWaitEvent`).
#[derive(Debug, Clone, Copy)]
pub struct Event {
    stream: usize,
    seq: u64,
    op: OpId,
}

/// Cumulative device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuStats {
    /// Stencil kernels launched.
    pub stencil_launches: u64,
    /// Pack/unpack kernels launched.
    pub pack_launches: u64,
    /// Host-to-device transfers.
    pub h2d_transfers: u64,
    /// Device-to-host transfers.
    pub d2h_transfers: u64,
    /// f64 values moved host→device.
    pub h2d_points: u64,
    /// f64 values moved device→host.
    pub d2h_points: u64,
    /// Grid points updated by stencil kernels.
    pub points_computed: u64,
    /// Virtual seconds the compute engine was busy.
    pub compute_busy: f64,
    /// Virtual seconds the copy engine(s) were busy.
    pub copy_busy: f64,
}

#[derive(Default)]
struct StreamState {
    /// The stream's last op; later ones on the stream wait for its end.
    last: OpId,
    seq: u64,
}

struct Inner {
    /// Every op since construction or the last reset, on the compute and
    /// copy engines.
    schedule: Schedule,
    /// The ops' virtual spans, recorded only while a tracer is on.
    spans: Vec<Span>,
    buffers: Vec<Vec<f64>>,
    /// Total f64 values allocated across `buffers`.
    used: usize,
    /// The stencil kernel's staged chunk, reused by every launch.
    scratch: Vec<f64>,
    constant: Option<[f64; 27]>,
    streams: Vec<StreamState>,
    /// visible[reader][writer]: highest op seq of `writer` whose effects
    /// `reader` is ordered after.
    visible: Vec<Vec<u64>>,
    last_write: Vec<Option<(usize, u64)>>,
    host_time: f64,
    stats: GpuStats,
    /// Ops scheduled so far — the counter seeding per-op fault jitter.
    fault_ops: u64,
}

/// A simulated GPU.
///
/// Functionally, every operation executes eagerly in host issue order, so
/// results are deterministic; a read-after-write **hazard checker** panics
/// when a stream consumes another stream's output without an intervening
/// event wait or synchronization — the class of bug missing CUDA stream
/// discipline causes on real hardware. In parallel, each operation is
/// added to a virtual [`Schedule`] on its engine (compute, or one of the
/// PCIe copy engines) after its stream's last op, the events the stream
/// waited on, and the host's last synchronization point, so overlap
/// behavior can be measured.
///
/// Methods take `&self`; the device is internally locked, so several host
/// threads (MPI tasks sharing one GPU, as in Section IV-F) may issue
/// operations concurrently.
pub struct Gpu {
    spec: GpuSpec,
    inner: Mutex<Inner>,
    fault: GpuFaultPlan,
    tracer: OnceLock<Tracer>,
}

impl Gpu {
    /// A new device with the given spec.
    pub fn new(spec: GpuSpec) -> Self {
        Self {
            spec,
            inner: Mutex::new(Inner {
                schedule: Schedule::default(),
                spans: Vec::new(),
                buffers: Vec::new(),
                used: 0,
                scratch: Vec::new(),
                constant: None,
                streams: vec![StreamState::default()],
                visible: vec![vec![0]],
                last_write: Vec::new(),
                host_time: 0.0,
                stats: GpuStats::default(),
                fault_ops: 0,
            }),
            fault: GpuFaultPlan::off(),
            tracer: OnceLock::new(),
        }
    }

    /// Install a span recorder, the device's only instrumentation hook:
    /// transfers record wall-clock `pcie.*` spans and kernel launches
    /// record `kernel.launch` spans (the host-side issue cost). The
    /// *scheduled* device time lives on the virtual axis: while the
    /// tracer is on, the device keeps each op's virtual span, and the
    /// owner bridges them into the same tracer ([`Gpu::virtual_spans`]),
    /// which is also where a metered run's kernel and transfer
    /// histograms come from. Idempotent; without an install, calls trace
    /// into the static no-op sink and no span is kept.
    pub fn install_tracer(&self, tracer: Tracer) {
        let _ = self.tracer.set(tracer);
    }

    /// The device's span recorder (no-op sink when none is installed).
    pub fn tracer(&self) -> &Tracer {
        static OFF: Tracer = Tracer::off();
        self.tracer.get().unwrap_or(&OFF)
    }

    /// Perturb the virtual timeline under `plan`: kernel launches start
    /// late by seeded jitter and PCIe copies run `pcie_slowdown`× longer.
    /// Functional results are unaffected — only scheduled times move.
    pub fn with_fault_plan(mut self, plan: GpuFaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// The device's hardware description.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The device state. Poison is absorbed: a panicked issuing thread
    /// leaves the state as it was, which the others may keep using.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Allocate a zero-filled device buffer of `len` f64 values.
    /// Panics if the allocation would exceed the device's memory capacity.
    pub fn alloc(&self, len: usize) -> GpuBuffer {
        let mut g = self.lock();
        assert!(
            g.used + len <= self.spec.capacity_f64(),
            "device out of memory: {} + {} > {} f64 ({})",
            g.used,
            len,
            self.spec.capacity_f64(),
            self.spec.name
        );
        g.used += len;
        g.buffers.push(vec![0.0; len]);
        g.last_write.push(None);
        GpuBuffer(g.buffers.len() - 1)
    }

    /// Load the 27 stencil coefficients into constant memory.
    pub fn set_constant(&self, coeffs: [f64; 27]) {
        self.lock().constant = Some(coeffs);
    }

    /// Create a new stream.
    pub fn create_stream(&self) -> Stream {
        let mut g = self.lock();
        g.streams.push(StreamState::default());
        let n = g.streams.len();
        for row in g.visible.iter_mut() {
            row.push(0);
        }
        g.visible.push(vec![0; n]);
        Stream(n - 1)
    }

    /// Add an op of `dur` seconds to the schedule after `stream`'s last
    /// op and the host's last synchronization point, on the engine `cat`
    /// names: copies on their direction's engine (a one-engine part runs
    /// D2H on the H2D engine), kernels on the compute engine. Its virtual
    /// span, of category `cat`, is kept only while the tracer is on.
    fn schedule(
        &self,
        g: &mut Inner,
        stream: usize,
        cat: Category,
        label: &'static str,
        mut dur: f64,
    ) {
        let res = match cat {
            Category::PcieH2d => Res::CopyH2D,
            Category::PcieD2h if self.spec.copy_engines > 1 => Res::CopyD2H,
            Category::PcieD2h => Res::CopyH2D,
            _ => Res::GpuCompute,
        };
        let host = OpId {
            start: g.host_time,
            end: g.host_time,
        };
        let mut after = [g.streams[stream].last, host];
        if !self.fault.is_off() {
            let op = g.fault_ops;
            g.fault_ops += 1;
            if res == Res::GpuCompute {
                // A late launch holds the kernel engine until it starts.
                after[0] = g.schedule.add(res, self.fault.launch_jitter(op), &after);
            } else {
                dur *= self.fault.pcie_slowdown.max(1.0);
            }
        }
        let op = g.schedule.add(res, dur, &after);
        g.streams[stream].last = op;
        g.streams[stream].seq += 1;
        if res == Res::GpuCompute {
            g.stats.compute_busy += dur;
        } else {
            g.stats.copy_busy += dur;
        }
        if self.tracer().is_on() {
            g.spans.push(Span::virtual_span(
                cat,
                label,
                stream as u32,
                op.start,
                op.end,
            ));
        }
    }

    fn check_read(&self, g: &Inner, stream: usize, buf: GpuBuffer, what: &str) {
        if let Some((w, seq)) = g.last_write[buf.0] {
            if w != stream && g.visible[stream][w] < seq {
                panic!(
                    "stream {stream} {what} reads buffer {} last written by stream {w} \
                     (op {seq}) without synchronization — missing event wait or stream sync",
                    buf.0
                );
            }
        }
    }

    fn note_write(&self, g: &mut Inner, stream: usize, buf: GpuBuffer) {
        let seq = g.streams[stream].seq;
        g.last_write[buf.0] = Some((stream, seq));
    }

    /// Asynchronous host→device copy on `stream`.
    pub fn h2d(&self, stream: Stream, host: &[f64], dst: GpuBuffer, dst_off: usize) {
        let _span = self.tracer().span(Category::PcieH2d, "h2d");
        let mut g = self.lock();
        let dur = timing::pcie_time(&self.spec, host.len());
        self.schedule(&mut g, stream.0, Category::PcieH2d, "h2d", dur);
        self.note_write(&mut g, stream.0, dst);
        g.stats.h2d_transfers += 1;
        g.stats.h2d_points += host.len() as u64;
        g.buffers[dst.0][dst_off..dst_off + host.len()].copy_from_slice(host);
    }

    /// Asynchronous device→host copy on `stream`.
    pub fn d2h(&self, stream: Stream, src: GpuBuffer, src_off: usize, host: &mut [f64]) {
        let _span = self.tracer().span(Category::PcieD2h, "d2h");
        let mut g = self.lock();
        self.check_read(&g, stream.0, src, "d2h");
        let dur = timing::pcie_time(&self.spec, host.len());
        self.schedule(&mut g, stream.0, Category::PcieD2h, "d2h", dur);
        g.stats.d2h_transfers += 1;
        g.stats.d2h_points += host.len() as u64;
        host.copy_from_slice(&g.buffers[src.0][src_off..src_off + host.len()]);
    }

    /// Upload without charging virtual time (initial state: the paper
    /// excludes the initial copy from its measurements).
    pub fn upload_untimed(&self, dst: GpuBuffer, data: &[f64]) {
        let mut g = self.lock();
        g.buffers[dst.0][..data.len()].copy_from_slice(data);
        g.last_write[dst.0] = None;
    }

    /// Read a buffer in place without charging virtual time (final state /
    /// verification): `f` borrows the buffer's contents while the device is
    /// locked, so it must not call back into the device. Call a sync first —
    /// the read is not ordered against in-flight streams.
    pub fn read_untimed<R>(&self, src: GpuBuffer, f: impl FnOnce(&[f64]) -> R) -> R {
        let g = self.lock();
        f(&g.buffers[src.0])
    }

    /// Launch the 27-point stencil kernel on `stream`, reading `src` and
    /// writing the launch region of `dst`. Coefficients come from constant
    /// memory ([`Gpu::set_constant`]).
    pub fn launch_stencil(&self, stream: Stream, src: GpuBuffer, dst: GpuBuffer, p: StencilLaunch) {
        assert!(
            p.block.0 * p.block.1 <= self.spec.max_threads_per_block,
            "block {:?} exceeds {} threads per block on {}",
            p.block,
            self.spec.max_threads_per_block,
            self.spec.name
        );
        let _span = self.tracer().span(Category::KernelLaunch, "stencil");
        let mut g = self.lock();
        let coeffs = g
            .constant
            .expect("constant memory not loaded: call set_constant");
        self.check_read(&g, stream.0, src, "stencil");
        let dur = timing::stencil_kernel_time(&self.spec, &p);
        self.schedule(&mut g, stream.0, Category::ComputeInterior, "stencil", dur);
        self.note_write(&mut g, stream.0, dst);
        g.stats.stencil_launches += 1;
        g.stats.points_computed += p.points() as u64;
        // Functional execution: split the buffers to run the kernel.
        let g = &mut *g;
        let (src_data, dst_data) = Self::two_buffers(&mut g.buffers, src.0, dst.0);
        kernels::run_stencil(src_data, dst_data, &coeffs, &p, &mut g.scratch);
    }

    /// Launch a pack kernel: gather `region` of `field` into the linear
    /// buffer `out` at `out_off`.
    pub fn launch_pack(
        &self,
        stream: Stream,
        field: GpuBuffer,
        dims: FieldDims,
        region: Range3,
        out: GpuBuffer,
        out_off: usize,
    ) {
        let _span = self.tracer().span(Category::KernelLaunch, "pack");
        let mut g = self.lock();
        self.check_read(&g, stream.0, field, "pack");
        let dur = timing::pack_kernel_time(&self.spec, region.len());
        self.schedule(&mut g, stream.0, Category::Pack, "pack", dur);
        self.note_write(&mut g, stream.0, out);
        g.stats.pack_launches += 1;
        let (fdata, odata) = Self::two_buffers(&mut g.buffers, field.0, out.0);
        kernels::run_pack(
            fdata,
            dims,
            region,
            &mut odata[out_off..out_off + region.len()],
        );
    }

    /// Launch an unpack kernel: scatter the linear buffer `input` at
    /// `in_off` into `region` of `field`.
    pub fn launch_unpack(
        &self,
        stream: Stream,
        field: GpuBuffer,
        dims: FieldDims,
        region: Range3,
        input: GpuBuffer,
        in_off: usize,
    ) {
        let _span = self.tracer().span(Category::KernelLaunch, "unpack");
        let mut g = self.lock();
        self.check_read(&g, stream.0, input, "unpack");
        let dur = timing::pack_kernel_time(&self.spec, region.len());
        self.schedule(&mut g, stream.0, Category::Unpack, "unpack", dur);
        self.note_write(&mut g, stream.0, field);
        g.stats.pack_launches += 1;
        let (idata, fdata) = Self::two_buffers(&mut g.buffers, input.0, field.0);
        kernels::run_unpack(fdata, dims, region, &idata[in_off..in_off + region.len()]);
    }

    fn two_buffers(buffers: &mut [Vec<f64>], a: usize, b: usize) -> (&[f64], &mut [f64]) {
        assert_ne!(a, b, "kernel source and destination must differ");
        if a < b {
            let (lo, hi) = buffers.split_at_mut(b);
            (&lo[a], &mut hi[0])
        } else {
            let (lo, hi) = buffers.split_at_mut(a);
            (&hi[0], &mut lo[b])
        }
    }

    /// Record an event on `stream` (like `cudaEventRecord`).
    pub fn record_event(&self, stream: Stream) -> Event {
        let g = self.lock();
        Event {
            stream: stream.0,
            seq: g.streams[stream.0].seq,
            op: g.streams[stream.0].last,
        }
    }

    /// Make `stream` wait for `event` (like `cudaStreamWaitEvent`):
    /// subsequent work on `stream` is ordered after — and sees — the
    /// event's stream's work up to the record point.
    pub fn wait_event(&self, stream: Stream, event: Event) {
        let mut g = self.lock();
        let v = &mut g.visible[stream.0][event.stream];
        *v = (*v).max(event.seq);
        let last = &mut g.streams[stream.0].last;
        last.end = last.end.max(event.op.end);
    }

    /// Block the host until `stream` completes; returns the virtual time.
    /// All of the stream's work becomes visible to every stream.
    pub fn sync_stream(&self, stream: Stream) -> f64 {
        let mut g = self.lock();
        let seq = g.streams[stream.0].seq;
        let t = g.streams[stream.0].last.end;
        for r in 0..g.visible.len() {
            let v = &mut g.visible[r][stream.0];
            *v = (*v).max(seq);
        }
        g.host_time = g.host_time.max(t);
        g.host_time
    }

    /// Block the host until the whole device is idle; returns the virtual
    /// time. Everything becomes visible everywhere.
    pub fn sync_device(&self) -> f64 {
        let mut g = self.lock();
        let n = g.streams.len();
        let t = g.host_time.max(g.schedule.makespan());
        for s in 0..n {
            let seq = g.streams[s].seq;
            for r in 0..n {
                let v = &mut g.visible[r][s];
                *v = (*v).max(seq);
            }
        }
        g.host_time = t;
        t
    }

    /// Advance host virtual time by `dt` seconds (models host-side work —
    /// e.g. MPI communication — between device calls). Operations issued
    /// afterwards cannot start before the new host time.
    pub fn host_advance(&self, dt: f64) -> f64 {
        let mut g = self.lock();
        g.host_time += dt;
        g.host_time
    }

    /// Reset all clocks to zero (keeps buffers and visibility). Used to
    /// exclude setup from measurements, as the paper does.
    pub fn reset_clock(&self) {
        let mut g = self.lock();
        g.host_time = 0.0;
        g.schedule = Schedule::default();
        for s in g.streams.iter_mut() {
            s.last = OpId::default();
        }
        g.stats.compute_busy = 0.0;
        g.stats.copy_busy = 0.0;
        g.spans.clear();
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> GpuStats {
        self.lock().stats
    }

    /// The virtual spans of the ops scheduled while the tracer was on
    /// (since construction or the last [`Gpu::reset_clock`]), in issue
    /// order, one track per stream. Each carries its op's category:
    /// copies `pcie.*` by direction, kernels by label (pack and unpack to
    /// their staging categories, the stencil to `compute.interior`).
    pub fn virtual_spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}
