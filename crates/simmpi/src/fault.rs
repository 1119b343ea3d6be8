//! Deterministic fault injection for the simulated comm stack.
//!
//! A [`FaultPlan`] perturbs the *timing* of message delivery — never the
//! content, never the per-channel order — so every run under any plan
//! remains bit-identical to the fault-free run while the overlap
//! machinery is exercised under adversarial schedules:
//!
//! * **latency jitter** — each message may be held in a per-mailbox limbo
//!   for a seeded duration before it becomes matchable;
//! * **reordering** — longer holds let messages on *other* `(source,
//!   tag)` channels overtake the held one, exactly the reordering MPI's
//!   matching rules permit (non-overtaking per channel is preserved: a
//!   held message blocks its channel's successors behind it);
//! * **drop with redelivery** — a "dropped" message is a long hold: the
//!   wire loses it, the transport redelivers it later, and receivers with
//!   bounded waits observe the stall and retry;
//! * **stragglers** — a seeded subset of ranks runs compute slower by a
//!   multiplicative factor, and stalls inside allreduce collectives.
//!
//! Every decision is a pure function of `(seed, destination, source,
//! tag, per-channel sequence number)` via a splitmix64 hash, so the fault
//! schedule — which messages are held, for how long, which ranks
//! straggle — replays exactly from the `u64` seed regardless of how the
//! OS schedules the rank threads. The sequence number is the mailbox's
//! channel counter, the same number the message's causal stamp carries,
//! so a receive can tell from the message it took whether that message
//! was dropped.

use std::time::Duration;

/// The splitmix64 finalizer: a fast, well-mixed 64-bit hash used to
/// derive every per-message and per-rank fault decision.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Fold a sequence of words into one hash (splitmix64 chaining).
fn mix(words: &[u64]) -> u64 {
    let mut h = 0u64;
    for &w in words {
        h = splitmix64(h ^ w);
    }
    h
}

/// Map a hash to the unit interval [0, 1).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// How the injector disposes of one delivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// Deliver immediately (subject to channel FIFO behind held peers).
    Now,
    /// Hold in limbo for `delay`; `redelivered` marks a drop-with-
    /// redelivery rather than plain jitter/reorder hold.
    Hold { delay_ns: u64, redelivered: bool },
}

/// A seeded, replayable fault-injection schedule for a world.
///
/// All knobs at their neutral values ([`FaultPlan::off`], the `Default`)
/// cost nothing: mailboxes carry no limbo and delivery takes the plain
/// path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Root seed every decision hash folds in.
    pub seed: u64,
    /// Maximum per-message delivery jitter in nanoseconds (uniform in
    /// `0..=jitter_ns`); 0 disables jitter.
    pub jitter_ns: u64,
    /// Probability a message is held long enough for other channels to
    /// overtake it.
    pub reorder_prob: f64,
    /// Hold duration of a reordered message, in nanoseconds.
    pub reorder_hold_ns: u64,
    /// Probability a message is dropped by the wire and redelivered by
    /// the transport after [`FaultPlan::redeliver_ns`].
    pub drop_prob: f64,
    /// Redelivery latency of a dropped message, in nanoseconds.
    pub redeliver_ns: u64,
    /// Probability each rank is a straggler.
    pub straggler_prob: f64,
    /// Multiplicative compute slowdown of straggler ranks (≥ 1.0).
    pub straggler_factor: f64,
    /// Maximum extra nanoseconds a straggler stalls inside each
    /// allreduce; 0 disables allreduce stragglers.
    pub allreduce_jitter_ns: u64,
    /// Bounded-wait limit for completing a receive, in nanoseconds: a
    /// wait exceeding it records a `fault.stall` span, counts a retry,
    /// and re-arms with exponential backoff. 0 waits unboundedly.
    pub wait_timeout_ns: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::off()
    }
}

impl FaultPlan {
    /// The neutral plan: no perturbation, no bounded waits, zero cost.
    pub const fn off() -> Self {
        Self {
            seed: 0,
            jitter_ns: 0,
            reorder_prob: 0.0,
            reorder_hold_ns: 0,
            drop_prob: 0.0,
            redeliver_ns: 0,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
            allreduce_jitter_ns: 0,
            wait_timeout_ns: 0,
        }
    }

    /// A moderate everything-on plan for soak sweeps: tens-of-microsecond
    /// jitter and holds, occasional drops with ~100 µs redelivery, a
    /// quarter of ranks straggling at 1.5×, and a bounded wait tight
    /// enough to fire on redeliveries.
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            jitter_ns: 40_000,
            reorder_prob: 0.25,
            reorder_hold_ns: 80_000,
            drop_prob: 0.05,
            redeliver_ns: 150_000,
            straggler_prob: 0.25,
            straggler_factor: 1.5,
            allreduce_jitter_ns: 20_000,
            wait_timeout_ns: 100_000,
        }
    }

    /// Replace the seed, keeping every rate/bound knob.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the delivery jitter bound.
    pub fn with_jitter_ns(mut self, ns: u64) -> Self {
        self.jitter_ns = ns;
        self
    }

    /// Set the reorder probability and hold duration.
    pub fn with_reorder(mut self, prob: f64, hold_ns: u64) -> Self {
        self.reorder_prob = prob;
        self.reorder_hold_ns = hold_ns;
        self
    }

    /// Set the drop probability and redelivery latency.
    pub fn with_drops(mut self, prob: f64, redeliver_ns: u64) -> Self {
        self.drop_prob = prob;
        self.redeliver_ns = redeliver_ns;
        self
    }

    /// Set the straggler probability and slowdown factor.
    pub fn with_stragglers(mut self, prob: f64, factor: f64) -> Self {
        self.straggler_prob = prob;
        self.straggler_factor = factor;
        self
    }

    /// Set the allreduce straggler stall bound.
    pub fn with_allreduce_jitter_ns(mut self, ns: u64) -> Self {
        self.allreduce_jitter_ns = ns;
        self
    }

    /// Set the bounded-wait limit for receive completion.
    pub fn with_wait_timeout_ns(mut self, ns: u64) -> Self {
        self.wait_timeout_ns = ns;
        self
    }

    /// Whether every knob is at its neutral value.
    pub fn is_off(&self) -> bool {
        !self.perturbs_delivery()
            && self.straggler_prob == 0.0
            && self.allreduce_jitter_ns == 0
            && self.wait_timeout_ns == 0
    }

    /// Whether message delivery needs the limbo machinery (jitter,
    /// reorder, or drop enabled).
    pub(crate) fn perturbs_delivery(&self) -> bool {
        self.jitter_ns > 0 || self.reorder_prob > 0.0 || self.drop_prob > 0.0
    }

    /// Whether `rank` is a straggler under this plan (pure in the seed).
    pub fn is_straggler(&self, rank: usize) -> bool {
        self.straggler_prob > 0.0
            && self.straggler_factor > 1.0
            && unit(mix(&[self.seed, 0x5742_4147, rank as u64])) < self.straggler_prob
    }

    /// The compute slowdown factor of `rank` (1.0 for non-stragglers).
    pub fn compute_scale(&self, rank: usize) -> f64 {
        if self.is_straggler(rank) {
            self.straggler_factor
        } else {
            1.0
        }
    }

    /// Nanoseconds `rank` stalls in its `round`-th allreduce (0 for
    /// non-stragglers or when allreduce jitter is off).
    pub(crate) fn allreduce_stall_ns(&self, rank: usize, round: u64) -> u64 {
        if self.allreduce_jitter_ns == 0 || !self.is_straggler(rank) {
            return 0;
        }
        mix(&[self.seed, 0x414c_4c52, rank as u64, round]) % (self.allreduce_jitter_ns + 1)
    }

    /// Classify the `seq`-th message on channel `(src, tag)` toward
    /// `dst`. Pure in `(seed, dst, src, tag, seq)`: the same world
    /// replayed with the same seed makes identical decisions no matter
    /// how its threads interleave.
    pub(crate) fn classify(&self, dst: usize, src: usize, tag: u64, seq: u64) -> Delivery {
        let h = mix(&[self.seed, dst as u64, src as u64, tag, seq]);
        if self.drop_prob > 0.0 && unit(splitmix64(h ^ 0x44524f50)) < self.drop_prob {
            return Delivery::Hold {
                delay_ns: self.redeliver_ns,
                redelivered: true,
            };
        }
        if self.reorder_prob > 0.0 && unit(splitmix64(h ^ 0x52454f52)) < self.reorder_prob {
            return Delivery::Hold {
                delay_ns: self.reorder_hold_ns,
                redelivered: false,
            };
        }
        if self.jitter_ns > 0 {
            let j = splitmix64(h ^ 0x4a495454) % (self.jitter_ns + 1);
            if j > 0 {
                return Delivery::Hold {
                    delay_ns: j,
                    redelivered: false,
                };
            }
        }
        Delivery::Now
    }
}

/// Per-rank fault-path observations, surfaced next to `CommStats`.
///
/// `delayed` and `redelivered` are decision counters — pure functions of
/// the seed and the traffic, so they replay exactly. `retries`,
/// `max_stall_ns`, and the two sleep accumulators are wall-clock
/// observations and vary run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages held in limbo by jitter or reorder decisions.
    pub delayed: u64,
    /// Messages dropped and redelivered.
    pub redelivered: u64,
    /// Bounded-wait timeouts that fired while completing receives.
    pub retries: u64,
    /// Longest blocked wait observed while completing a receive, in
    /// nanoseconds.
    pub max_stall_ns: u64,
    /// Nanoseconds slept to model straggler compute slowdown.
    pub compute_throttle_ns: u64,
    /// Nanoseconds stalled inside allreduce collectives.
    pub allreduce_stall_ns: u64,
}

impl FaultStats {
    /// The replay-deterministic projection: decision counters only, with
    /// the wall-clock observations zeroed. Two runs of the same seeded
    /// world compare equal under this view.
    pub fn deterministic_view(mut self) -> Self {
        self.retries = 0;
        self.max_stall_ns = 0;
        self.compute_throttle_ns = 0;
        self.allreduce_stall_ns = 0;
        self
    }
}

pub(crate) fn ns_to_duration(ns: u64) -> Duration {
    Duration::from_nanos(ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_is_pure_in_its_arguments() {
        let plan = FaultPlan::chaos(42);
        for seq in 0..50 {
            assert_eq!(plan.classify(1, 0, 7, seq), plan.classify(1, 0, 7, seq));
        }
        // Different seeds produce different schedules (overwhelmingly).
        let other = FaultPlan::chaos(43);
        let same = (0..200)
            .filter(|&s| plan.classify(1, 0, 7, s) == other.classify(1, 0, 7, s))
            .count();
        assert!(same < 200, "seed must steer the schedule");
    }

    #[test]
    fn off_plan_never_holds() {
        let plan = FaultPlan::off();
        assert!(plan.is_off());
        assert!(!plan.perturbs_delivery());
        for seq in 0..100 {
            assert_eq!(plan.classify(0, 1, 2, seq), Delivery::Now);
        }
        assert_eq!(plan.compute_scale(3), 1.0);
        assert_eq!(plan.allreduce_stall_ns(3, 9), 0);
    }

    #[test]
    fn chaos_plan_holds_messages() {
        // With jitter on, almost every message is held (for a short,
        // seeded duration); some holds must be drop-redeliveries.
        let plan = FaultPlan::chaos(7);
        let outcomes: Vec<_> = (0..200).map(|s| plan.classify(1, 0, 3, s)).collect();
        let held = outcomes.iter().filter(|&&d| d != Delivery::Now).count();
        assert!(held > 150, "chaos plan too tame: {held}/200 held");
        let dropped = outcomes
            .iter()
            .filter(|d| {
                matches!(
                    d,
                    Delivery::Hold {
                        redelivered: true,
                        ..
                    }
                )
            })
            .count();
        assert!((1..40).contains(&dropped), "drops: {dropped}/200");
    }

    #[test]
    fn reorder_only_plan_holds_some_and_delivers_some() {
        let plan = FaultPlan::off().with_reorder(0.25, 50_000);
        let held = (0..200)
            .filter(|&s| plan.classify(1, 0, 3, s) != Delivery::Now)
            .count();
        assert!((20..100).contains(&held), "held {held}/200 at p=0.25");
    }

    #[test]
    fn straggler_assignment_tracks_probability() {
        let plan = FaultPlan::off().with_stragglers(0.5, 2.0);
        let stragglers = (0..1000).filter(|&r| plan.is_straggler(r)).count();
        assert!((300..700).contains(&stragglers), "{stragglers}/1000");
        let all = FaultPlan::off().with_stragglers(1.0, 2.0);
        assert!(all.is_straggler(0) && all.is_straggler(1));
        assert_eq!(all.compute_scale(1), 2.0);
    }

    #[test]
    fn unit_stays_in_range() {
        for x in 0..1000u64 {
            let u = unit(splitmix64(x));
            assert!((0.0..1.0).contains(&u));
        }
    }
}
