//! Per-rank mailboxes with MPI-style `(source, tag)` matching.
//!
//! Matching is indexed: each `(source, tag)` channel has its own FIFO
//! queue in a hash map, so `take_matching` is O(1) in the number of
//! queued messages instead of a linear scan under the mutex. Channel
//! queues persist once created (a halo exchange reuses the same six
//! channels every step), so the steady state allocates nothing.
//!
//! Each channel also counts its deliveries. The count is the message's
//! sequence number, and it serves twice: as the causal stamp the send
//! and receive spans carry, and as the `seq` the fault plan hashes. No
//! other per-message state exists, so nothing is allocated lazily.
//!
//! When a world runs under a [`crate::FaultPlan`] that perturbs delivery,
//! each mailbox carries a **limbo**: messages the plan holds (jitter,
//! reorder, drop-with-redelivery) wait there with a release deadline
//! before entering their channel queue. Per-channel FIFO is preserved —
//! a message never overtakes an earlier held message of its own channel —
//! while messages on other channels overtake freely, exactly the
//! reordering MPI's matching rules permit. Receivers flush due limbo
//! entries themselves (their condvar waits are bounded by the earliest
//! deadline), so no background thread is needed and a fault-free world
//! pays a single `Option` branch per delivery.
//!
//! The queues sit in an [`obs::crew::Monitor`]: a blocked receiver polls
//! the monitor's arrival counter without the lock (spin → yield) before
//! it sleeps, and a delivery issues the condvar's futex wake only when
//! a receiver is actually asleep. Waits with a deadline (limbo release,
//! the bounded-wait timeout) sleep on the condvar directly.

use crate::fault::{ns_to_duration, Delivery, FaultPlan};
use obs::crew::Monitor;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// A message in flight.
#[derive(Debug)]
pub(crate) struct Message {
    pub src: usize,
    pub tag: u64,
    pub data: Vec<f64>,
}

/// A held message waiting in limbo for its release deadline.
struct Held {
    src: usize,
    tag: u64,
    seq: u64,
    data: Vec<f64>,
    release_at: Instant,
}

/// Fault-injection state of one mailbox (present only when the plan
/// perturbs delivery).
struct Limbo {
    plan: FaultPlan,
    /// The owning rank (the destination every decision hash folds in).
    dst: usize,
    /// Held messages in arrival order; per-channel deadlines are
    /// monotone, so releasing due entries front-to-back preserves FIFO.
    held: VecDeque<Held>,
    /// Messages held by jitter/reorder decisions.
    delayed: u64,
    /// Messages dropped and redelivered.
    redelivered: u64,
}

/// One `(source, tag)` channel: its send counter and its FIFO of
/// matchable payloads, each carrying the sequence number it was
/// delivered with.
#[derive(Default)]
struct Channel {
    /// Deliveries so far; the next delivery gets this number. It is the
    /// causal stamp of the message and the `seq` the fault plan hashes.
    sent: u64,
    queue: VecDeque<(u64, Vec<f64>)>,
}

#[derive(Default)]
struct Channels {
    /// One channel per `(source, tag)`.
    channels: HashMap<(usize, u64), Channel>,
    /// Payload bytes currently queued across all channels (incl. limbo).
    bytes: usize,
    /// High-water mark of `bytes` — the peak volume that was in flight
    /// toward this rank at any instant.
    peak_bytes: usize,
    /// Fault-injection limbo; `None` in fault-free worlds.
    fault: Option<Box<Limbo>>,
}

impl Limbo {
    /// Classify the `seq`-th message of channel `(src, tag)` and hold it
    /// when the plan, or a held predecessor on its channel, says so.
    /// Returns the payload when it may be queued at once.
    fn admit(&mut self, src: usize, tag: u64, seq: u64, data: Vec<f64>) -> Option<Vec<f64>> {
        // Non-overtaking floor: a message must queue behind any held
        // predecessor of its own channel.
        let channel_floor = self
            .held
            .iter()
            .rev()
            .find(|h| h.src == src && h.tag == tag)
            .map(|h| h.release_at);
        let hold_until = match self.plan.classify(self.dst, src, tag, seq) {
            // A floor-forced hold is not a fault decision — it only
            // keeps FIFO behind a held peer — so it moves no counter.
            Delivery::Now => channel_floor,
            Delivery::Hold {
                delay_ns,
                redelivered,
            } => {
                if redelivered {
                    self.redelivered += 1;
                } else {
                    self.delayed += 1;
                }
                let at = Instant::now() + ns_to_duration(delay_ns);
                Some(channel_floor.map_or(at, |floor| at.max(floor)))
            }
        };
        let Some(release_at) = hold_until else {
            return Some(data);
        };
        self.held.push_back(Held {
            src,
            tag,
            seq,
            data,
            release_at,
        });
        None
    }
}

/// Move every due limbo entry into its channel queue; returns the
/// earliest remaining deadline, if any. `bytes` already counted
/// the held messages at delivery, so releasing moves no counters.
fn flush_due(c: &mut Channels) -> Option<Instant> {
    let Channels {
        channels, fault, ..
    } = c;
    let f = fault.as_deref_mut()?;
    if f.held.is_empty() {
        return None;
    }
    let now = Instant::now();
    let mut earliest: Option<Instant> = None;
    let mut i = 0;
    while i < f.held.len() {
        if f.held[i].release_at <= now {
            let h = f.held.remove(i).expect("index in range");
            channels
                .get_mut(&(h.src, h.tag))
                .expect("delivery opened the channel")
                .queue
                .push_back((h.seq, h.data));
        } else {
            let at = f.held[i].release_at;
            earliest = Some(earliest.map_or(at, |e| e.min(at)));
            i += 1;
        }
    }
    earliest
}

/// A rank's incoming-message queue.
///
/// Messages from the same `(source, tag)` are delivered in send order
/// (non-overtaking); messages on different channels may be consumed in any
/// order, exactly as MPI's matching rules allow.
#[derive(Default)]
pub(crate) struct Mailbox {
    channels: Monitor<Channels>,
}

impl Mailbox {
    /// A mailbox whose deliveries run through `plan`'s limbo.
    pub fn with_faults(plan: FaultPlan, dst: usize) -> Self {
        Self {
            channels: Monitor::new(Channels {
                fault: Some(Box::new(Limbo {
                    plan,
                    dst,
                    held: VecDeque::new(),
                    delayed: 0,
                    redelivered: 0,
                })),
                ..Channels::default()
            }),
        }
    }

    /// Deposit a message and wake any waiting receiver. Under a fault
    /// plan the message may instead enter limbo until its release
    /// deadline.
    ///
    /// The message gets the next sequence number of its `(src, tag)`
    /// channel. That number is what the fault plan classifies, it is
    /// returned so the sender can stamp its `mpi.send` span, and it rides
    /// with the payload (through limbo, if held) into the matching
    /// receive.
    pub fn deliver(&self, msg: Message) -> u64 {
        let Message { src, tag, data } = msg;
        let mut c = self.channels.lock();
        c.bytes += data.len() * std::mem::size_of::<f64>();
        c.peak_bytes = c.peak_bytes.max(c.bytes);
        let Channels {
            channels, fault, ..
        } = &mut *c;
        let channel = channels.entry((src, tag)).or_default();
        let seq = channel.sent;
        channel.sent += 1;
        let ready = match fault.as_deref_mut() {
            Some(f) => f.admit(src, tag, seq, data),
            None => Some(data),
        };
        if let Some(data) = ready {
            channel.queue.push_back((seq, data));
        }
        // Waiters are woken for held messages too: the hold changes the
        // earliest deadline their timed waits use.
        self.channels.notify(&mut c);
        seq
    }

    fn try_pop(c: &mut Channels, src: usize, tag: u64) -> Option<(u64, Vec<f64>)> {
        let (seq, data) = c
            .channels
            .get_mut(&(src, tag))
            .and_then(|ch| ch.queue.pop_front())?;
        c.bytes -= data.len() * std::mem::size_of::<f64>();
        Some((seq, data))
    }

    /// Block until a message matching `(src, tag)` is available and remove
    /// it, returning `(seq, payload)`. Same-channel messages are
    /// taken in arrival order.
    pub fn take_matching(&self, src: usize, tag: u64) -> (u64, Vec<f64>) {
        let mut c = self.channels.lock();
        loop {
            let next_due = flush_due(&mut c);
            if let Some(taken) = Self::try_pop(&mut c, src, tag) {
                return taken;
            }
            match next_due {
                Some(at) => {
                    let wait = at
                        .saturating_duration_since(Instant::now())
                        .max(Duration::from_micros(1));
                    c = self.channels.wait_for(c, wait);
                }
                None => c = self.channels.wait(c),
            }
        }
    }

    /// Like [`Mailbox::take_matching`], but give up after `timeout` of
    /// blocking without a match (the bounded-wait detection primitive).
    pub fn take_matching_timeout(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Option<(u64, Vec<f64>)> {
        let deadline = Instant::now() + timeout;
        let mut c = self.channels.lock();
        loop {
            let next_due = flush_due(&mut c);
            if let Some(taken) = Self::try_pop(&mut c, src, tag) {
                return Some(taken);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let mut wait = deadline - now;
            if let Some(at) = next_due {
                wait = wait.min(at.saturating_duration_since(now));
            }
            c = self
                .channels
                .wait_for(c, wait.max(Duration::from_micros(1)));
        }
    }

    /// High-water mark of payload bytes that were queued at once.
    pub fn peak_bytes(&self) -> usize {
        self.channels.lock().peak_bytes
    }

    /// Fault decision counters `(delayed, redelivered)`; zeros in
    /// fault-free worlds.
    pub fn fault_counters(&self) -> (u64, u64) {
        self.channels
            .lock()
            .fault
            .as_deref()
            .map_or((0, 0), |f| (f.delayed, f.redelivered))
    }

    /// Whether this mailbox carries a fault limbo.
    #[cfg(test)]
    pub fn has_limbo(&self) -> bool {
        self.channels.lock().fault.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, tag: u64, v: f64) -> Message {
        Message {
            src,
            tag,
            data: vec![v],
        }
    }

    /// Seeded producer delays in `spin_loop` iterations, cycling through
    /// magnitudes that land in the receiver's poll, yield and sleep phases.
    fn delays(rounds: u64) -> impl Iterator<Item = u64> {
        let mut x = 0xD1B5_4A32_D192_ED03u64;
        (0..rounds).map(move |r| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % [1, 8, 64, 512, 4096, 32_768, 262_144][(r % 7) as usize]
        })
    }

    fn spin(n: u64) {
        for _ in 0..n {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn take_matching_loses_no_wakeup_at_any_producer_delay() {
        // Ping-pong between two mailboxes; a lost wakeup hangs the test.
        let (a, b) = (Mailbox::default(), Mailbox::default());
        let rounds = 3000;
        std::thread::scope(|s| {
            let (a, b) = (&a, &b);
            s.spawn(move || {
                for (r, d) in delays(rounds).enumerate() {
                    let (seq, got) = b.take_matching(0, 7);
                    assert_eq!((seq, got), (r as u64, vec![r as f64]));
                    spin(d / 3);
                    // Traffic on another channel must not satisfy the wait,
                    // nor move this channel's count.
                    a.deliver(msg(1, 8, -1.0));
                    a.deliver(msg(1, 7, r as f64));
                }
            });
            for (r, d) in delays(rounds).enumerate() {
                spin(d);
                b.deliver(msg(0, 7, r as f64));
                let (seq, got) = a.take_matching(1, 7);
                assert_eq!((seq, got), (r as u64, vec![r as f64]));
            }
        });
        // The other channel's messages all wait on `a`; `b` is drained.
        for r in 0..rounds {
            assert_eq!(a.take_matching(1, 8), (r, vec![-1.0]));
        }
        assert!(b.take_matching_timeout(0, 7, Duration::ZERO).is_none());
    }

    #[test]
    fn timed_take_gives_up_no_earlier_than_its_deadline() {
        let mb = Mailbox::default();
        let timeout = Duration::from_millis(3);
        std::thread::scope(|s| {
            // Wake-ups for a channel nobody waits on must not cut it short.
            s.spawn(|| {
                for _ in 0..50 {
                    mb.deliver(msg(0, 99, 0.0));
                    spin(2000);
                }
            });
            let t0 = Instant::now();
            assert!(mb.take_matching_timeout(0, 1, timeout).is_none());
            assert!(t0.elapsed() >= timeout);
        });
        mb.deliver(msg(0, 1, 5.0));
        let got = mb.take_matching_timeout(0, 1, timeout);
        assert_eq!(got.map(|(_, d)| d), Some(vec![5.0]));
    }

    #[test]
    fn limbo_releases_each_channel_in_send_order() {
        for seed in [11, 12, 13, 14, 15] {
            let mb = Mailbox::with_faults(FaultPlan::chaos(seed), 1);
            for i in 0..60 {
                mb.deliver(msg(0, i % 3, i as f64));
            }
            for tag in 0..3u64 {
                let got: Vec<(u64, f64)> = (0..20)
                    .map(|_| {
                        let (seq, data) = mb.take_matching(0, tag);
                        (seq, data[0])
                    })
                    .collect();
                // Held messages keep the number they were delivered with.
                let want: Vec<(u64, f64)> = (0..20).map(|k| (k, (3 * k + tag) as f64)).collect();
                assert_eq!(got, want, "seed {seed} tag {tag}");
            }
            let (delayed, redelivered) = mb.fault_counters();
            assert!(delayed + redelivered > 0, "seed {seed} held nothing");
        }
    }
}
