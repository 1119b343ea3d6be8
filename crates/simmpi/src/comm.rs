//! The per-rank communicator handle.

use crate::collectives::{Barrier, ReduceSlots, ScalarSlots};
use crate::fault::{ns_to_duration, Delivery, FaultPlan, FaultStats};
use crate::mailbox::{Mailbox, Message};
use crate::pool::{BufferPool, PooledBuf};
use obs::{Category, Tracer};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Message tag (like MPI's integer tags).
pub type Tag = u64;

/// Shared world state across all ranks.
pub(crate) struct WorldInner {
    pub size: usize,
    pub mailboxes: Vec<Mailbox>,
    pub barrier: Barrier,
    pub reduce: ReduceSlots,
    pub scalar: ScalarSlots,
    pub pool: Arc<BufferPool>,
    pub plan: FaultPlan,
}

/// Per-rank traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Point-to-point messages posted by this rank.
    pub messages_sent: u64,
    /// Total f64 values in those messages.
    pub values_sent: u64,
    /// Point-to-point messages received by this rank.
    pub messages_received: u64,
    /// Total f64 values received.
    pub values_received: u64,
    /// Barrier invocations.
    pub barriers: u64,
    /// Message buffers this rank obtained by fresh heap allocation.
    pub buffers_allocated: u64,
    /// Message buffers this rank obtained by recycling — from the world's
    /// buffer pool or from persistent per-rank staging (halo-buffer
    /// slots). A warmed-up hot loop shows this growing while
    /// `buffers_allocated` stays flat.
    pub buffers_recycled: u64,
    /// Nanoseconds this rank spent blocked waiting for a matching message
    /// (inside `RecvRequest::wait`, which `recv` goes through). Distinguishes "the wire
    /// was slow" from "the receiver arrived late": an overlap
    /// implementation drives this toward zero by computing while the
    /// message is in flight.
    pub wait_ns: u64,
    /// High-water mark of bytes queued in this rank's mailbox — the peak
    /// volume that was in flight toward this rank at any instant.
    pub peak_bytes_in_flight: u64,
}

/// A rank's handle to the world: MPI's communicator analogue.
pub struct Comm {
    rank: usize,
    inner: Arc<WorldInner>,
    stats: Mutex<CommStats>,
    fault: Mutex<FaultStats>,
    allreduce_round: AtomicU64,
    tracer: OnceLock<Tracer>,
}

impl Comm {
    pub(crate) fn new(rank: usize, inner: Arc<WorldInner>) -> Self {
        Self {
            rank,
            inner,
            stats: Mutex::new(CommStats::default()),
            fault: Mutex::new(FaultStats::default()),
            allreduce_round: AtomicU64::new(0),
            tracer: OnceLock::new(),
        }
    }

    /// Install this rank's span recorder — the communicator's only
    /// instrumentation hook: every subsequent communication call records
    /// `mpi.*` / `fault.*` spans through it, and the tracer's sinks decide
    /// whether they become a trace, histogram observations, or both.
    /// Idempotent (first install wins). Without an install, calls trace
    /// into the static no-op sink.
    pub fn install_tracer(&self, tracer: Tracer) {
        let _ = self.tracer.set(tracer);
    }

    /// The rank's span recorder (the no-op sink when none is installed —
    /// one relaxed atomic load on this path, nothing else).
    pub fn tracer(&self) -> &Tracer {
        static OFF: Tracer = Tracer::off();
        self.tracer.get().unwrap_or(&OFF)
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Traffic counters accumulated so far. `peak_bytes_in_flight` is
    /// sampled from the mailbox high-water mark at call time.
    pub fn stats(&self) -> CommStats {
        let mut s = *self.stats.lock();
        s.peak_bytes_in_flight = self.inner.mailboxes[self.rank].peak_bytes() as u64;
        s
    }

    /// Fault-path observations accumulated so far. `delayed` and
    /// `redelivered` are sampled from this rank's mailbox decision
    /// counters at call time (like `peak_bytes_in_flight`); see
    /// [`FaultStats::deterministic_view`] for the replayable projection.
    pub fn fault_stats(&self) -> FaultStats {
        let mut f = *self.fault.lock();
        let (delayed, redelivered) = self.inner.mailboxes[self.rank].fault_counters();
        f.delayed = delayed;
        f.redelivered = redelivered;
        f
    }

    /// This rank's compute slowdown under the plan (1.0 = no straggling).
    pub fn compute_scale(&self) -> f64 {
        self.inner.plan.compute_scale(self.rank)
    }

    /// Start a straggler-throttled compute section. Returns the section
    /// start when this rank straggles under the plan, `None` (at zero
    /// cost) otherwise; pass the value to [`Comm::throttle_end`].
    pub fn throttle_start(&self) -> Option<Instant> {
        self.inner.plan.is_straggler(self.rank).then(Instant::now)
    }

    /// End a straggler-throttled compute section: sleeps the extra time a
    /// `compute_scale()`-times-slower rank would have needed and records
    /// it as a `fault.throttle` span. A `None` token is a no-op.
    pub fn throttle_end(&self, started: Option<Instant>) {
        if let Some(t0) = started {
            self.throttle_compute(t0.elapsed());
        }
    }

    /// Model straggler slowdown of a compute section that took `elapsed`:
    /// sleep the additional `(scale - 1) × elapsed` a straggler would
    /// have spent, recorded as a `fault.throttle` span.
    pub fn throttle_compute(&self, elapsed: Duration) {
        let scale = self.compute_scale();
        if scale <= 1.0 {
            return;
        }
        let extra = elapsed.mul_f64(scale - 1.0);
        let _span = self.tracer().span(Category::FaultThrottle, "straggler");
        std::thread::sleep(extra);
        self.fault.lock().compute_throttle_ns += extra.as_nanos() as u64;
    }

    /// Seeded straggler stall before an allreduce participates (results
    /// are unaffected: scalar slots fold in rank order regardless of
    /// arrival timing).
    fn allreduce_stall(&self) {
        if self.inner.plan.allreduce_jitter_ns == 0 {
            return;
        }
        let round = self.allreduce_round.fetch_add(1, Ordering::Relaxed);
        let stall = self.inner.plan.allreduce_stall_ns(self.rank, round);
        if stall > 0 {
            let _span = self
                .tracer()
                .span(Category::FaultThrottle, "allreduce.straggler");
            std::thread::sleep(ns_to_duration(stall));
            self.fault.lock().allreduce_stall_ns += stall;
        }
    }

    /// Blocking mailbox take, bounded when the plan sets a wait timeout:
    /// each expiry records a `fault.stall` span, counts a retry, and
    /// re-arms with exponential backoff (capped at 8× the base timeout).
    /// When the plan dropped the message taken (decided from its channel
    /// sequence number), the receive records a `fault.redeliver` span
    /// over its whole bounded wait. With no timeout configured this is a
    /// plain blocking take.
    fn take_with_faults(&self, src: usize, tag: Tag) -> (u64, Vec<f64>) {
        let mailbox = &self.inner.mailboxes[self.rank];
        let plan = &self.inner.plan;
        let timeout_ns = plan.wait_timeout_ns;
        if timeout_ns == 0 {
            return mailbox.take_matching(src, tag);
        }
        let tracer = self.tracer();
        let mut timeout = ns_to_duration(timeout_ns);
        let cap = ns_to_duration(timeout_ns.saturating_mul(8));
        let mut retries = 0u64;
        let stall_start = Instant::now();
        let stall_start_ns = tracer.now_ns();
        let taken = loop {
            let attempt_ns = tracer.now_ns();
            match mailbox.take_matching_timeout(src, tag, timeout) {
                Some(taken) => break taken,
                None => {
                    retries += 1;
                    tracer.record_wall(
                        Category::FaultStall,
                        "bounded-wait",
                        attempt_ns,
                        tracer.now_ns(),
                    );
                    timeout = timeout.saturating_mul(2).min(cap);
                }
            }
        };
        let stalled_ns = stall_start.elapsed().as_nanos() as u64;
        if let Delivery::Hold {
            redelivered: true, ..
        } = plan.classify(self.rank, src, tag, taken.0)
        {
            let now = tracer.now_ns();
            tracer.record_wall(Category::FaultRedeliver, "redelivered", stall_start_ns, now);
        }
        let mut f = self.fault.lock();
        f.retries += retries;
        f.max_stall_ns = f.max_stall_ns.max(stalled_ns);
        taken
    }

    fn check_rank(&self, rank: usize, what: &str) {
        assert!(
            rank < self.inner.size,
            "{what} rank {rank} out of range for world of size {}",
            self.inner.size
        );
    }

    /// Lease a message buffer of exactly `len` values from the world's
    /// buffer pool, recycling a retired buffer when one of the right
    /// capacity class is free. The lease returns to the pool on drop;
    /// [`Comm::send_pooled`] consumes it without a copy.
    pub fn lease(&self, len: usize) -> PooledBuf {
        let (buf, recycled) = self.inner.pool.lease(len);
        let mut s = self.stats.lock();
        if recycled {
            s.buffers_recycled += 1;
        } else {
            s.buffers_allocated += 1;
        }
        buf
    }

    /// Record a buffer reuse that bypassed the pool (persistent per-rank
    /// staging, e.g. halo-buffer slots, feeds this counter so steady-state
    /// allocation behavior stays observable through [`CommStats`]).
    pub fn note_buffer_recycled(&self) {
        self.stats.lock().buffers_recycled += 1;
    }

    /// Blocking buffered send: the payload is moved into the destination
    /// mailbox and the call returns (like `MPI_Bsend`).
    ///
    /// The message takes the next sequence number of its `(rank, tag)`
    /// channel at delivery; when this rank traces, the `mpi.send` span is
    /// stamped `(dest, tag, seq)` — the other half of the stamp appears
    /// on the matching receive, letting `obs::causal` pair the two ends.
    pub fn send(&self, dest: usize, tag: Tag, data: Vec<f64>) {
        self.check_rank(dest, "destination");
        let tracer = self.tracer();
        let start_ns = tracer.now_ns();
        {
            let mut s = self.stats.lock();
            s.messages_sent += 1;
            s.values_sent += data.len() as u64;
        }
        let seq = self.inner.mailboxes[dest].deliver(Message {
            src: self.rank,
            tag,
            data,
        });
        tracer.record_channel(
            Category::MpiSend,
            "send",
            start_ns,
            tracer.now_ns(),
            dest as u32,
            tag,
            seq,
        );
    }

    /// Send a pool-leased buffer: the buffer travels to the destination
    /// without recycling here; the destination's receive re-leases it, so
    /// it re-enters circulation there.
    pub fn send_pooled(&self, dest: usize, tag: Tag, buf: PooledBuf) {
        self.send(dest, tag, buf.into_vec());
    }

    /// Nonblocking send (like `MPI_Isend` with a buffered protocol): the
    /// message is posted immediately; the returned request is already
    /// complete but preserves the MPI call structure of the ported code.
    pub fn isend(&self, dest: usize, tag: Tag, data: Vec<f64>) -> SendRequest {
        self.send(dest, tag, data);
        SendRequest { _complete: true }
    }

    /// Blocking receive matching `(src, tag)`: a posted [`Comm::irecv`]
    /// waited on at once, so it records the same `mpi.wait` and
    /// `mpi.recv` spans. The payload is a pool lease: dropping it
    /// recycles the buffer into the world's pool.
    pub fn recv(&self, src: usize, tag: Tag) -> PooledBuf {
        self.irecv(src, tag).wait()
    }

    /// Nonblocking receive (like `MPI_Irecv`): returns a request that can
    /// be tested or waited on.
    pub fn irecv(&self, src: usize, tag: Tag) -> RecvRequest<'_> {
        self.check_rank(src, "source");
        RecvRequest {
            comm: self,
            src,
            tag,
            posted_ns: self.tracer().now_ns(),
        }
    }

    /// Wait for all receive requests, returning their payloads in order
    /// (like `MPI_Waitall`).
    pub fn waitall(&self, reqs: Vec<RecvRequest<'_>>) -> Vec<PooledBuf> {
        reqs.into_iter().map(|r| r.wait()).collect()
    }

    /// Number of retired buffers parked in the world's pool (diagnostic).
    pub fn pooled_buffers(&self) -> usize {
        self.inner.pool.free_buffers()
    }

    /// Block until every rank reaches the barrier.
    pub fn barrier(&self) {
        let _span = self.tracer().span(Category::MpiBarrier, "barrier");
        self.stats.lock().barriers += 1;
        self.inner.barrier.wait();
    }

    /// Global sum of one value per rank (allocation-free: scalar slots).
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        self.allreduce_stall();
        let _span = self.tracer().span(Category::MpiAllreduce, "sum");
        self.inner.scalar.exchange(self.rank, value).0
    }

    /// Global maximum of one value per rank (allocation-free).
    pub fn allreduce_max(&self, value: f64) -> f64 {
        self.allreduce_stall();
        let _span = self.tracer().span(Category::MpiAllreduce, "max");
        self.inner.scalar.exchange(self.rank, value).1
    }

    /// Gather each rank's vector to rank 0. Returns `Some(all)` on rank 0
    /// (indexed by rank) and `None` elsewhere.
    pub fn gather_to_root(&self, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        self.inner.reduce.gather(self.rank, data)
    }
}

/// Handle for a posted nonblocking send.
#[derive(Debug)]
pub struct SendRequest {
    _complete: bool,
}

impl SendRequest {
    /// Complete the send (a no-op under the buffered protocol).
    pub fn wait(self) {}
}

/// Handle for a posted nonblocking receive.
pub struct RecvRequest<'a> {
    comm: &'a Comm,
    src: usize,
    tag: Tag,
    /// Trace timestamp of the `irecv` post — the start of the in-flight
    /// window recorded as an `mpi.recv` span at completion.
    posted_ns: u64,
}

impl RecvRequest<'_> {
    /// Block until the matching message arrives; returns its payload as a
    /// pool lease (recycles into the world's pool on drop).
    ///
    /// Records two spans: `mpi.wait` for the blocking portion of this
    /// call, and `mpi.recv` for the whole in-flight window since the
    /// `irecv` post — so overlap metrics see exactly the interval an
    /// implementation could have hidden behind computation.
    pub fn wait(self) -> PooledBuf {
        let tracer = self.comm.tracer();
        let wait_start_ns = tracer.now_ns();
        let t0 = Instant::now();
        let (seq, data) = self.comm.take_with_faults(self.src, self.tag);
        let waited = t0.elapsed().as_nanos() as u64;
        let end_ns = tracer.now_ns();
        let src = self.src as u32;
        tracer.record_channel(
            Category::MpiWait,
            "wait",
            wait_start_ns,
            end_ns,
            src,
            self.tag,
            seq,
        );
        tracer.record_channel(
            Category::MpiRecv,
            "inflight",
            self.posted_ns,
            end_ns,
            src,
            self.tag,
            seq,
        );
        let mut s = self.comm.stats.lock();
        s.messages_received += 1;
        s.values_received += data.len() as u64;
        s.wait_ns += waited;
        drop(s);
        PooledBuf::attach(data, self.comm.inner.pool.clone())
    }
}

#[cfg(test)]
mod tests {
    use crate::{FaultPlan, FaultStats, World};

    /// Only a plan that perturbs delivery gives mailboxes a limbo: an
    /// off-plan world's stay plain through traffic, and each mailbox of
    /// a chaos world carries one.
    #[test]
    fn only_a_perturbing_plan_gives_mailboxes_a_limbo() {
        for (plan, armed) in [(FaultPlan::off(), false), (FaultPlan::chaos(1), true)] {
            let limbos = World::run_with_faults(3, plan, |comm| {
                let right = (comm.rank() + 1) % 3;
                let left = (comm.rank() + 2) % 3;
                let req = comm.irecv(left, 0);
                comm.send(right, 0, vec![1.0; 32]);
                req.wait();
                if !armed {
                    assert_eq!(comm.fault_stats(), FaultStats::default());
                }
                comm.inner.mailboxes[comm.rank].has_limbo()
            });
            assert_eq!(limbos, vec![armed; 3], "{plan:?}");
        }
    }
}
