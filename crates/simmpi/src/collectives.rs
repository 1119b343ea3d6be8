//! Shared state backing the collectives (barrier, allreduce, gather).
//!
//! The barrier is [`obs::crew::Barrier`] (sense-reversing, so reusable);
//! the reduction slots are generation-counted so back-to-back allreduces
//! cannot mix rounds. Every wait here is a [`Monitor`] wait: poll, yield,
//! then sleep, and a wake-up syscall only when somebody sleeps.
//! Scalar allreduces go through [`ScalarSlots`], which holds one `f64`
//! per rank and never allocates; the vector path ([`ReduceSlots`]) backs
//! `gather_to_root`.

pub(crate) use obs::crew::Barrier;
use obs::crew::Monitor;

/// Scalar allreduce slots: one `f64` per rank, fixed at world creation,
/// so `allreduce_sum`/`allreduce_max` never touch the heap (the vector
/// variant, [`ReduceSlots`], moves every rank's contribution to rank 0).
///
/// The last contributor folds the slots **in rank order** — the same
/// order the old vector path reduced in — so results stay bit-identical.
/// Both the sum and the max are computed in that single pass; callers
/// read whichever their collective asked for (all ranks call the same
/// collective in the same order, per MPI semantics).
pub(crate) struct ScalarSlots {
    n: usize,
    state: Monitor<ScalarState>,
}

struct ScalarState {
    /// One contribution slot per rank for the current round.
    slots: Vec<Option<f64>>,
    /// Whether a completed round's result is still being read.
    have_result: bool,
    sum: f64,
    max: f64,
    readers_left: usize,
    round: u64,
}

impl ScalarSlots {
    pub fn new(n: usize) -> Self {
        Self {
            n,
            state: Monitor::new(ScalarState {
                slots: vec![None; n],
                have_result: false,
                sum: 0.0,
                max: f64::NEG_INFINITY,
                readers_left: 0,
                round: 0,
            }),
        }
    }

    /// Contribute `value` for `rank`; once every rank has contributed,
    /// returns `(sum, max)` over all contributions. Rounds cannot
    /// interleave: a new round cannot start until every rank has read the
    /// previous result.
    pub fn exchange(&self, rank: usize, value: f64) -> (f64, f64) {
        let mut s = self.state.lock();
        while s.have_result && s.slots[rank].is_some() {
            s = self.state.wait(s);
        }
        while s.have_result {
            s = self.state.wait(s);
        }
        assert!(s.slots[rank].is_none(), "rank {rank} double-contributed");
        s.slots[rank] = Some(value);
        let filled = s.slots.iter().filter(|v| v.is_some()).count();
        if filled == self.n {
            let mut sum = 0.0;
            let mut max = f64::NEG_INFINITY;
            for v in s.slots.iter_mut() {
                let x = v.take().expect("filled");
                sum += x;
                max = max.max(x);
            }
            s.sum = sum;
            s.max = max;
            s.have_result = true;
            s.readers_left = self.n;
            s.round += 1;
            self.state.notify(&mut s);
        } else {
            let round = s.round;
            while s.round == round {
                s = self.state.wait(s);
            }
        }
        let out = (s.sum, s.max);
        s.readers_left -= 1;
        if s.readers_left == 0 {
            s.have_result = false;
            self.state.notify(&mut s);
        }
        out
    }
}

/// Per-rank contribution slots for the gather to rank 0.
pub(crate) struct ReduceSlots {
    n: usize,
    state: Monitor<SlotState>,
}

struct SlotState {
    /// One contribution slot per rank for the current round.
    slots: Vec<Option<Vec<f64>>>,
    /// Completed round's data (taken by rank 0), kept until all ranks
    /// have passed it.
    result: Option<Vec<Vec<f64>>>,
    readers_left: usize,
    round: u64,
}

impl ReduceSlots {
    pub fn new(n: usize) -> Self {
        Self {
            n,
            state: Monitor::new(SlotState {
                slots: vec![None; n],
                result: None,
                readers_left: 0,
                round: 0,
            }),
        }
    }

    /// Contribute `data` for `rank`; once all have arrived, rank 0 gets
    /// every rank's contribution (moved, not copied) and the others get
    /// `None`. Safe to call repeatedly; rounds cannot interleave because a
    /// new round cannot start until every rank has passed the previous
    /// result.
    pub fn gather(&self, rank: usize, data: Vec<f64>) -> Option<Vec<Vec<f64>>> {
        let mut s = self.state.lock();
        // Wait for the previous round to be fully drained.
        while s.result.is_some() && s.slots[rank].is_some() {
            s = self.state.wait(s);
        }
        // If a completed round is still being read and our slot is free,
        // we may be racing ahead into the next round: wait until the
        // result is consumed.
        while s.result.is_some() {
            s = self.state.wait(s);
        }
        assert!(s.slots[rank].is_none(), "rank {rank} double-contributed");
        s.slots[rank] = Some(data);
        let filled = s.slots.iter().filter(|v| v.is_some()).count();
        if filled == self.n {
            let gathered: Vec<Vec<f64>> = s
                .slots
                .iter_mut()
                .map(|v| v.take().expect("filled"))
                .collect();
            s.result = Some(gathered);
            s.readers_left = self.n;
            s.round += 1;
            self.state.notify(&mut s);
        } else {
            let round = s.round;
            while s.round == round {
                s = self.state.wait(s);
            }
        }
        let gathered = s.result.as_mut().expect("result present for this round");
        let out = (rank == 0).then(|| std::mem::take(gathered));
        s.readers_left -= 1;
        if s.readers_left == 0 {
            s.result = None;
            self.state.notify(&mut s);
        }
        out
    }
}
