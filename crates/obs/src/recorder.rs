//! Flight-recorder substrate: fixed-capacity rings for "what just
//! happened" evidence.
//!
//! The run service keeps an always-on recorder of recent request events
//! and the last few run traces, so an anomaly (deadline miss, straggler
//! flag) can dump a self-contained bundle without having had tracing
//! "turned on" beforehand. This module is the service-agnostic
//! substrate: a generic overwrite ring for small `Copy` records and a
//! trace ring for whole [`Trace`] sets. The request lifecycle schema on
//! top lives in `serve::reqtrace`.
//!
//! There is no off switch: both rings are allocated once, at a capacity
//! of at least one, and every operation records.
//!
//! The event ring is overwrite-on-wrap with a lock-free slot claim: a
//! writer claims a global index with one `fetch_add` and writes the slot
//! `index % capacity` under that slot's (uncontended) lock, tagging it
//! with the 1-based global sequence. Later claims win ties, so the
//! overwrite order is exactly claim order — sequential pushes produce a
//! bit-identical window regardless of how often the ring has wrapped,
//! which is what the wraparound-determinism test pins down.

use crate::Trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Slot<T> {
    /// 1-based global sequence of the value held, 0 = never written.
    seq: u64,
    value: T,
}

struct RingInner<T> {
    next: AtomicU64,
    slots: Box<[Mutex<Slot<T>>]>,
}

/// A fixed-capacity overwrite ring of small `Copy` records.
pub struct Ring<T: Copy + Default> {
    inner: Arc<RingInner<T>>,
}

impl<T: Copy + Default> Clone for Ring<T> {
    fn clone(&self) -> Self {
        Ring {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Copy + Default> Ring<T> {
    /// A ring holding the most recent `capacity` (≥ 1) records.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a recorder ring needs at least one slot");
        let slots: Box<[Mutex<Slot<T>>]> = (0..capacity)
            .map(|_| {
                Mutex::new(Slot {
                    seq: 0,
                    value: T::default(),
                })
            })
            .collect();
        Ring {
            inner: Arc::new(RingInner {
                next: AtomicU64::new(0),
                slots,
            }),
        }
    }

    /// Total records ever pushed (including overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.inner.next.load(Ordering::SeqCst)
    }

    /// Record one value, overwriting the oldest once full.
    pub fn push(&self, value: T) {
        let inner = &self.inner;
        let i = inner.next.fetch_add(1, Ordering::SeqCst);
        let cap = inner.slots.len() as u64;
        let mut slot = inner.slots[(i % cap) as usize].lock().unwrap();
        // A writer that claimed a later lap of this slot may have locked
        // it first; the later claim wins so overwrite order == claim
        // order even under adversarial scheduling.
        if i + 1 > slot.seq {
            slot.seq = i + 1;
            slot.value = value;
        }
    }

    /// The current window, oldest to newest. Records whose slot was
    /// overtaken by a concurrent writer mid-snapshot are skipped rather
    /// than torn.
    pub fn snapshot(&self) -> Vec<T> {
        let inner = &self.inner;
        let next = inner.next.load(Ordering::SeqCst);
        let cap = inner.slots.len() as u64;
        let lo = next.saturating_sub(cap);
        let mut out = Vec::with_capacity((next - lo) as usize);
        for i in lo..next {
            let slot = inner.slots[(i % cap) as usize].lock().unwrap();
            if slot.seq == i + 1 {
                out.push(slot.value);
            }
        }
        out
    }
}

/// One executed run kept for stitching: which request ran it, where its
/// `serve.execute` span sits on the service track, and the run's traces.
#[derive(Debug, Clone)]
pub struct StoredRun {
    /// Request id that executed the run.
    pub request_id: u64,
    /// Thread id of the request's `serve.execute` span on the service
    /// track (the stitch arrow's source track).
    pub exec_tid: u32,
    /// Service-anchor nanoseconds when execution started; run traces are
    /// rebased to this origin at export time.
    pub exec_start_ns: u64,
    /// The run's per-rank traces (the run's own anchor, ~0-based).
    pub traces: Vec<Trace>,
}

struct TraceSlots {
    entries: Vec<Option<StoredRun>>,
    next: usize,
}

/// A small ring of the last N traced runs.
#[derive(Clone)]
pub struct TraceRing {
    inner: Arc<Mutex<TraceSlots>>,
}

impl TraceRing {
    /// A ring keeping the `capacity` (≥ 1) most recent traced runs.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a trace ring needs at least one slot");
        TraceRing {
            inner: Arc::new(Mutex::new(TraceSlots {
                entries: vec![None; capacity],
                next: 0,
            })),
        }
    }

    /// Keep one traced run, evicting the oldest once full.
    pub fn store(&self, run: StoredRun) {
        let mut slots = self.inner.lock().unwrap();
        let cap = slots.entries.len();
        let at = slots.next % cap;
        slots.entries[at] = Some(run);
        slots.next += 1;
    }

    /// Stored runs, oldest to newest.
    pub fn snapshot(&self) -> Vec<StoredRun> {
        let slots = self.inner.lock().unwrap();
        let cap = slots.entries.len();
        let lo = slots.next.saturating_sub(cap);
        (lo..slots.next)
            .filter_map(|i| slots.entries[i % cap].clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, Span};

    #[test]
    fn ring_keeps_newest_window_in_push_order() {
        let r: Ring<u64> = Ring::with_capacity(4);
        for v in 0..3 {
            r.push(v);
        }
        assert_eq!(r.snapshot(), vec![0, 1, 2]);
        for v in 3..11 {
            r.push(v);
        }
        assert_eq!(r.snapshot(), vec![7, 8, 9, 10]);
        assert_eq!(r.pushed(), 11);
    }

    #[test]
    fn wraparound_is_deterministic_across_repeats() {
        // The overwrite order is claim order, so the same push sequence
        // yields a bit-identical window every time, however many laps
        // the ring has done.
        let runs: Vec<Vec<u64>> = (0..3)
            .map(|_| {
                let r: Ring<u64> = Ring::with_capacity(8);
                for v in 0..1000 {
                    r.push(v * 2654435761 % 977);
                }
                r.snapshot()
            })
            .collect();
        assert_eq!(runs[0].len(), 8);
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn concurrent_pushes_never_tear_and_keep_claim_order() {
        let r: Ring<u64> = Ring::with_capacity(16);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for v in 0..500u64 {
                        r.push(t * 1_000_000 + v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 16);
        assert_eq!(r.pushed(), 2000);
        // Every surviving value is one that was actually pushed.
        for v in snap {
            assert!(v % 1_000_000 < 500);
        }
    }

    #[test]
    fn trace_ring_evicts_oldest() {
        let t = TraceRing::with_capacity(2);
        for id in 0..3 {
            t.store(StoredRun {
                request_id: id,
                exec_tid: 1,
                exec_start_ns: id * 100,
                traces: vec![Trace {
                    rank: 0,
                    spans: vec![Span::wall(Category::ComputeInterior, "", 1, 0, 10)],
                    dropped: 0,
                }],
            });
        }
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].request_id, 1);
        assert_eq!(snap[1].request_id, 2);
        assert_eq!(snap[1].traces.len(), 1);
    }
}
