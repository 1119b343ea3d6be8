//! The arithmetic behind every reported number: order statistics with
//! the ten-samples-beyond rule, the quietest-batch rule, run-to-run
//! spread, and the two-point fit that separates a runner's per-step cost
//! from its fixed cost.

/// Samples that must lie beyond a reported percentile for it to count.
pub const BEYOND: usize = 10;

/// Consecutive equal-count batches the throughput median is taken over.
pub const BATCHES: usize = 20;

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice, by nearest rank.
/// Panics on an empty slice: every caller has already checked for ops.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of an unsorted sample of finite values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    quantile(&v, 0.5)
}

/// Whether a sample of `n` supports reporting quantile `q`: at least
/// [`BEYOND`] samples must lie strictly beyond the reported rank.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - 1 - ((q * (n - 1) as f64).round() as usize).min(n - 1) >= BEYOND
}

/// Interquartile range over the median: the harness's own measure of how
/// wide the op-latency distribution of one run is.
pub fn iqr_share(sorted: &[u32]) -> f64 {
    let (p25, p50, p75) = (
        quantile(sorted, 0.25) as f64,
        quantile(sorted, 0.5) as f64,
        quantile(sorted, 0.75) as f64,
    );
    if p50 > 0.0 {
        (p75 - p25) / p50
    } else {
        0.0
    }
}

/// One of the [`BATCHES`] consecutive equal-count slices of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Median op latency within the batch, nanoseconds.
    pub median_ns: f64,
    /// 90th-percentile op latency within the batch, nanoseconds.
    pub p90_ns: f64,
    /// Closed-loop throughput within the batch, ops per second: each
    /// client's op count over the time it spent inside ops, summed over
    /// the clients (a closed-loop client starts its next op as soon as
    /// the previous one returns).
    pub ops_per_s: f64,
}

/// Cut a run into [`BATCHES`] consecutive equal-count batches. Each
/// client's latencies (completion order) are cut separately and batch
/// `k` is the union of every client's `k`-th slice, which the clients
/// ran at about the same time. Ops past the last whole batch are left
/// out; with fewer ops than batches the run is one batch.
pub fn batches(clients: &[Vec<u32>]) -> Vec<Batch> {
    let count = if clients.iter().all(|c| c.len() >= BATCHES) {
        BATCHES
    } else {
        1
    };
    (0..count)
        .filter_map(|k| {
            let mut ops: Vec<u32> = Vec::new();
            let mut rate = 0.0;
            for c in clients {
                let n = c.len() / count;
                let slice = &c[k * n..(k + 1) * n];
                let busy_ns: u64 = slice.iter().map(|&v| v as u64).sum();
                if busy_ns > 0 {
                    rate += slice.len() as f64 / (busy_ns as f64 / 1e9);
                }
                ops.extend_from_slice(slice);
            }
            if ops.is_empty() {
                return None;
            }
            ops.sort_unstable();
            Some(Batch {
                median_ns: quantile(&ops, 0.5) as f64,
                p90_ns: quantile(&ops, 0.9) as f64,
                ops_per_s: rate,
            })
        })
        .collect()
}

/// The three timing metrics of a run, each from the batch in which it
/// read best: `(median ns, p90 ns, ops/s)`.
///
/// The reference host is a shared virtual machine. Interference from its
/// neighbours arrives in bursts of several seconds that slow everything
/// by 30-50 % and can cover half of a run, so a statistic over the whole
/// run moves by 7-16 % from one run to the next with no change to the
/// program. Interference only ever adds time; the quietest of twenty
/// batches is the one that says most about the program and least about
/// the neighbours, and repeats to 3-7 %.
pub fn quietest(batches: &[Batch]) -> (f64, f64, f64) {
    let min = |f: fn(&Batch) -> f64| batches.iter().map(f).fold(f64::INFINITY, f64::min);
    (
        min(|b| b.median_ns),
        min(|b| b.p90_ns),
        batches.iter().map(|b| b.ops_per_s).fold(0.0, f64::max),
    )
}

/// Per-step and fixed cost of a runner from two timings: `t_s` for `s`
/// steps and `t_2s` for `2s` steps. Returns `(step, fixed)` in the unit
/// of the inputs: `step = (T(2S) − T(S)) / S`, `fixed = T(S) − S·step`.
pub fn slope_intercept(steps: u32, t_s: f64, t_2s: f64) -> (f64, f64) {
    let step = (t_2s - t_s) / steps as f64;
    (step, t_s - steps as f64 * step)
}

/// A total divided by the ops it was summed over (0 for no ops).
pub fn per_op(total: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total as f64 / ops as f64
    }
}

/// Relative spread of a set of run medians: (max − min) ÷ median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (hi - lo) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond rank 89; p99 has none.
        assert!(supports(100, 0.90));
        assert!(!supports(100, 0.99));
        assert!(!supports(90, 0.90), "rank 80 of 90 leaves only 9 beyond");
        assert!(supports(1000, 0.99));
        assert!(!supports(900, 0.99));
        assert!(!supports(12, 0.5) && supports(30, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&v, 0.5), 51);
        assert_eq!(quantile(&v, 0.9), 90);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn a_stalled_stretch_does_not_move_the_quietest_batch() {
        // 400 ops at 1 ms, except ops 100..250 at 1.5 ms (a burst that
        // covers more than a third of the run): the plain median holds,
        // but the plain p90 and the mean rate do not; the quietest batch
        // reads 1 ms and 1000 ops/s regardless.
        let lat: Vec<u32> = (0..400)
            .map(|i| {
                if (100..250).contains(&i) {
                    1_500_000
                } else {
                    1_000_000
                }
            })
            .collect();
        let b = batches(std::slice::from_ref(&lat));
        assert_eq!(b.len(), BATCHES);
        let (median, p90, rate) = quietest(&b);
        assert_eq!((median, p90), (1e6, 1e6));
        assert!((rate - 1000.0).abs() < 1e-9);
        let mut sorted = lat.clone();
        sorted.sort_unstable();
        assert_eq!(quantile(&sorted, 0.9), 1_500_000);
    }

    #[test]
    fn batches_sum_client_rates_and_tolerate_short_runs() {
        // Two clients at 25 µs per op: 40 000 ops/s each.
        let client = vec![25_000u32; 2000];
        let b = batches(&[client.clone(), client]);
        assert_eq!(b.len(), BATCHES);
        assert!((b[7].ops_per_s - 80_000.0).abs() < 1e-6);
        assert_eq!(b[7].median_ns, 25_000.0);
        // Fewer ops than batches: one batch over everything.
        let short = batches(&[vec![1_000_000u32, 3_000_000, 2_000_000]]);
        assert_eq!(short.len(), 1);
        assert_eq!(short[0].median_ns, 2_000_000.0);
        assert!((short[0].ops_per_s - 500.0).abs() < 1e-9);
        assert!(batches(&[Vec::new()]).is_empty());
    }

    #[test]
    fn slope_and_intercept_recover_a_linear_cost() {
        // T(n) = 3.0 + 0.25 n.
        let (step, fixed) = slope_intercept(8, 3.0 + 0.25 * 8.0, 3.0 + 0.25 * 16.0);
        assert!((step - 0.25).abs() < 1e-12);
        assert!((fixed - 3.0).abs() < 1e-12);
    }

    #[test]
    fn spread_and_iqr() {
        assert!((relative_spread(&[10.0, 11.0, 9.0]) - 0.2).abs() < 1e-12);
        assert_eq!(relative_spread(&[5.0]), 0.0);
        let v: Vec<u32> = (0..=100).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
