//! Causal message-flow analysis: send→recv edge matching, wait-blame
//! attribution, and straggler detection over stamped traces.
//!
//! Every simmpi message carries a causal ID `(src, dst, tag, seq)`: the
//! sender stamps its `mpi.send` span at delivery, the sequence number
//! rides with the payload (through fault limbo, which never reorders a
//! channel), and the matching `mpi.wait` span carries the same stamp on
//! the receiving rank. [`build`] pairs the two ends of every
//! transfer into a [`CausalGraph`]; [`blame`] converts the graph into a
//! per-rank blame matrix answering *whom did each wait actually wait
//! on*; [`detect_stragglers`] names the ranks whose outgoing blame is a
//! robust outlier — the trace-only straggler detection ROADMAP item 3
//! asks for before work can migrate off a slow rank.
//!
//! ## The blame rule
//!
//! A wait span `[w0, w1]` on rank `dst`, matched to a send that completed
//! at `s1` on rank `src`, was bounded by that send for
//! `min(w1, s1) − w0` nanoseconds (nothing if the message arrived before
//! the wait began). That *direct* charge can itself be a symptom: in a
//! ring, a rank that sends late because it was waiting on its own
//! neighbor would absorb blame that belongs upstream. [`blame`] therefore
//! chases each charged interval through the sender's *own* wait windows:
//! any portion of the charge during which the sender was blocked on a
//! third rank is reattributed to that rank (recursively, to a bounded
//! depth), so steady-state cascades collapse onto the root cause and a
//! single slow rank stands out even two hops away.

use crate::{Category, Trace, NO_PEER, NO_SEQ};
use std::collections::HashMap;

/// How many hops a charged interval is chased through upstream wait
/// windows before the remainder sticks where it is. Cascades longer than
/// this (rank count hops) do not occur in steady state.
const BLAME_CHASE_DEPTH: usize = 8;

/// One matched message transfer: the send span and the receive-side
/// blocked window that consumed it.
#[derive(Debug, Clone, Copy)]
pub struct CausalEdge {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Message tag.
    pub tag: u64,
    /// Per-`(src, tag)` delivery sequence number.
    pub seq: u64,
    /// Thread slot of the send span (Chrome-trace `tid`).
    pub send_tid: u32,
    /// Thread slot of the receive-side span.
    pub recv_tid: u32,
    /// Send span start, ns since the shared anchor.
    pub send_start_ns: u64,
    /// Send span end (the message was delivered no earlier than this).
    pub send_end_ns: u64,
    /// Start of the receive-side blocked window (the `mpi.wait` span).
    pub wait_start_ns: u64,
    /// End of the blocked window — the message had arrived by here.
    pub wait_end_ns: u64,
}

impl CausalEdge {
    /// Nanoseconds of the blocked window bounded by this edge's send:
    /// the portion of `[wait_start, wait_end]` that elapsed before the
    /// send completed. Zero when the message was already there.
    pub fn direct_blame_ns(&self) -> u64 {
        self.send_end_ns
            .min(self.wait_end_ns)
            .saturating_sub(self.wait_start_ns)
    }
}

/// The per-run causal event graph: every matched send→recv edge, plus
/// bookkeeping for stamps that found no partner.
#[derive(Debug, Clone, Default)]
pub struct CausalGraph {
    /// Number of ranks covered (max rank/peer seen + 1).
    pub ranks: usize,
    /// Matched transfers.
    pub edges: Vec<CausalEdge>,
    /// Stamped receive windows with no matching send span.
    pub unmatched_recvs: u64,
    /// Stamped send spans no receive window consumed.
    pub unmatched_sends: u64,
}

/// Build the causal graph from a run's per-rank traces.
///
/// Send spans are keyed by `(src, dst, tag, seq)`; the receive side of a
/// transfer is its `mpi.wait` span (every receive records one; the
/// `mpi.recv` in-flight window duplicates its stamp and is skipped).
pub fn build(traces: &[Trace]) -> CausalGraph {
    /// Causal key `(src, dst, tag, seq)` → the send span's
    /// `(tid, wall_start_ns, wall_end_ns)`.
    type PendingSends = HashMap<(usize, usize, u64, u64), (u32, u64, u64)>;
    let mut sends: PendingSends = HashMap::new();
    let mut ranks = 0usize;
    for t in traces {
        ranks = ranks.max(t.rank + 1);
        for s in &t.spans {
            if s.cat == Category::MpiSend && s.seq != NO_SEQ && s.peer != NO_PEER {
                ranks = ranks.max(s.peer as usize + 1);
                sends.insert(
                    (t.rank, s.peer as usize, s.tag, s.seq),
                    (s.tid, s.wall_start_ns, s.wall_end_ns),
                );
            }
        }
    }
    let mut edges = Vec::new();
    let mut unmatched_recvs = 0u64;
    for t in traces {
        for s in &t.spans {
            if s.cat != Category::MpiWait || s.seq == NO_SEQ || s.peer == NO_PEER {
                continue;
            }
            ranks = ranks.max(s.peer as usize + 1);
            let key = (s.peer as usize, t.rank, s.tag, s.seq);
            match sends.remove(&key) {
                Some((send_tid, send_start_ns, send_end_ns)) => edges.push(CausalEdge {
                    src: key.0,
                    dst: t.rank,
                    tag: s.tag,
                    seq: s.seq,
                    send_tid,
                    recv_tid: s.tid,
                    send_start_ns,
                    send_end_ns,
                    wait_start_ns: s.wall_start_ns,
                    wait_end_ns: s.wall_end_ns,
                }),
                None => unmatched_recvs += 1,
            }
        }
    }
    CausalGraph {
        ranks,
        edges,
        unmatched_recvs,
        unmatched_sends: sends.len() as u64,
    }
}

impl CausalGraph {
    /// Per-channel non-overtaking check: for every `(src, dst, tag)`
    /// channel, the matched sequence numbers are contiguous from 0 and
    /// the receive windows complete in sequence order — the graph-level
    /// restatement of MPI's ordering rule the mailbox enforces.
    pub fn non_overtaking(&self) -> bool {
        let mut chans: HashMap<(usize, usize, u64), Vec<(u64, u64)>> = HashMap::new();
        for e in &self.edges {
            chans
                .entry((e.src, e.dst, e.tag))
                .or_default()
                .push((e.seq, e.wait_end_ns));
        }
        chans.values_mut().all(|v| {
            v.sort_unstable();
            v.iter().enumerate().all(|(i, &(seq, _))| seq == i as u64)
                && v.windows(2).all(|w| w[0].1 <= w[1].1)
        })
    }

    /// Whether the happens-before relation induced by the graph —
    /// program order along each `(rank, thread)` track plus one
    /// send→recv edge per transfer — is acyclic. Always true for traces
    /// from a real execution; a cycle means the stamps were corrupted.
    pub fn hb_acyclic(&self) -> bool {
        // Node 2i = edge i's send event, node 2i+1 = its recv event.
        let n = self.edges.len() * 2;
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut tracks: HashMap<(usize, u32), Vec<(u64, usize)>> = HashMap::new();
        for (i, e) in self.edges.iter().enumerate() {
            adj[2 * i].push(2 * i + 1);
            tracks
                .entry((e.src, e.send_tid))
                .or_default()
                .push((e.send_start_ns, 2 * i));
            tracks
                .entry((e.dst, e.recv_tid))
                .or_default()
                .push((e.wait_end_ns, 2 * i + 1));
        }
        for events in tracks.values_mut() {
            events.sort_unstable();
            for w in events.windows(2) {
                adj[w[0].1].push(w[1].1);
            }
        }
        // Iterative three-color DFS.
        let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
        for start in 0..n {
            if color[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            color[start] = 1;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if *next < adj[node].len() {
                    let child = adj[node][*next];
                    *next += 1;
                    match color[child] {
                        0 => {
                            color[child] = 1;
                            stack.push((child, 0));
                        }
                        1 => return false,
                        _ => {}
                    }
                } else {
                    color[node] = 2;
                    stack.pop();
                }
            }
        }
        true
    }
}

/// One link's direct blame total.
#[derive(Debug, Clone, Copy)]
pub struct LinkBlame {
    /// Sending rank of the link.
    pub src: usize,
    /// Receiving rank of the link.
    pub dst: usize,
    /// Message tag of the link.
    pub tag: u64,
    /// Direct blame over all of the link's edges, nanoseconds.
    pub ns: u64,
}

/// Wait-blame attribution for one run.
#[derive(Debug, Clone, Default)]
pub struct Blame {
    /// Number of ranks.
    pub ranks: usize,
    /// `ns[dst][src]`: nanoseconds rank `dst` spent blocked whose root
    /// cause was rank `src`'s lateness (cascades chased upstream).
    pub ns: Vec<Vec<u64>>,
    /// Per-link *direct* blame (no upstream chasing), sorted descending —
    /// the specific channel whose late send bounded each wait.
    pub links: Vec<LinkBlame>,
}

/// Attribute every blocked window in the graph to its root-cause rank.
pub fn blame(g: &CausalGraph) -> Blame {
    let ranks = g.ranks;
    let mut ns = vec![vec![0u64; ranks]; ranks];
    // Each rank's wait windows with the rank they directly waited on,
    // sorted by start — the structure the upstream chase walks.
    let mut windows: Vec<Vec<(u64, u64, usize)>> = vec![Vec::new(); ranks];
    let mut link_ns: HashMap<(usize, usize, u64), u64> = HashMap::new();
    for e in &g.edges {
        windows[e.dst].push((e.wait_start_ns, e.wait_end_ns, e.src));
        let direct = e.direct_blame_ns();
        if direct > 0 {
            *link_ns.entry((e.src, e.dst, e.tag)).or_default() += direct;
        }
    }
    for w in &mut windows {
        w.sort_unstable();
    }
    // Chase one charged interval: portions where `cause` was itself
    // blocked on an upstream rank move to that rank; the rest sticks.
    fn charge(
        ns: &mut [Vec<u64>],
        windows: &[Vec<(u64, u64, usize)>],
        dst: usize,
        cause: usize,
        lo: u64,
        hi: u64,
        depth: usize,
    ) {
        if hi <= lo {
            return;
        }
        let mut cur = lo;
        if depth > 0 {
            for &(ws, we, upstream) in &windows[cause] {
                if we <= cur {
                    continue;
                }
                if ws >= hi {
                    break;
                }
                let s = ws.max(cur);
                let e = we.min(hi);
                if e <= s {
                    continue;
                }
                ns[dst][cause] += s - cur;
                charge(ns, windows, dst, upstream, s, e, depth - 1);
                cur = e;
                if cur >= hi {
                    break;
                }
            }
        }
        if cur < hi {
            ns[dst][cause] += hi - cur;
        }
    }
    for e in &g.edges {
        let hi = e.send_end_ns.min(e.wait_end_ns);
        charge(
            &mut ns,
            &windows,
            e.dst,
            e.src,
            e.wait_start_ns,
            hi,
            BLAME_CHASE_DEPTH,
        );
    }
    let mut links: Vec<LinkBlame> = link_ns
        .into_iter()
        .map(|((src, dst, tag), ns)| LinkBlame { src, dst, tag, ns })
        .collect();
    links.sort_by(|a, b| {
        b.ns.cmp(&a.ns)
            .then(a.src.cmp(&b.src))
            .then(a.dst.cmp(&b.dst))
    });
    Blame { ranks, ns, links }
}

impl Blame {
    /// Total blocked time charged to `src` by *other* ranks (the
    /// diagonal — self-sends — carries no straggler signal).
    pub fn outgoing_ns(&self, src: usize) -> u64 {
        (0..self.ranks)
            .filter(|&dst| dst != src)
            .map(|dst| self.ns[dst][src])
            .sum()
    }

    /// Total blocked time rank `dst` charged to other ranks.
    pub fn incoming_ns(&self, dst: usize) -> u64 {
        (0..self.ranks)
            .filter(|&src| src != dst)
            .map(|src| self.ns[dst][src])
            .sum()
    }

    /// Net blame: what `r` owes minus what it is owed, clamped at zero —
    /// the straggler-detection statistic. A genuinely slow rank owes
    /// much and is owed nothing (its peers' messages are long since
    /// there when it finally calls receive). A rank that merely *echoes*
    /// an upstream straggler's delay — late because its own inputs were
    /// late, in ways the window-based chase cannot always reattribute —
    /// is owed roughly as much as it owes, and nets out near zero.
    pub fn net_outgoing_ns(&self, r: usize) -> u64 {
        self.outgoing_ns(r).saturating_sub(self.incoming_ns(r))
    }

    /// Sum of all off-diagonal charges.
    pub fn total_ns(&self) -> u64 {
        (0..self.ranks).map(|src| self.outgoing_ns(src)).sum()
    }

    /// Render the matrix, per-rank totals, and top links as markdown.
    pub fn render_markdown(&self) -> String {
        let ms = |ns: u64| format!("{:.3}", ns as f64 * 1e-6);
        let mut out = String::new();
        out.push_str("| waiter \\ cause |");
        for src in 0..self.ranks {
            out.push_str(&format!(" r{src} |"));
        }
        out.push_str(" incoming ms |\n|---|");
        for _ in 0..=self.ranks {
            out.push_str("---|");
        }
        out.push('\n');
        for dst in 0..self.ranks {
            out.push_str(&format!("| r{dst} |"));
            for src in 0..self.ranks {
                out.push_str(&format!(" {} |", ms(self.ns[dst][src])));
            }
            out.push_str(&format!(" {} |\n", ms(self.incoming_ns(dst))));
        }
        out.push_str("| **outgoing ms** |");
        for src in 0..self.ranks {
            out.push_str(&format!(" {} |", ms(self.outgoing_ns(src))));
        }
        out.push_str(&format!(" {} |\n", ms(self.total_ns())));
        if !self.links.is_empty() {
            out.push_str("\nTop links by direct blame:\n\n");
            out.push_str("| link | tag | direct ms |\n|---|---|---|\n");
            for l in self.links.iter().take(10) {
                out.push_str(&format!(
                    "| r{} → r{} | {} | {} |\n",
                    l.src,
                    l.dst,
                    l.tag,
                    ms(l.ns)
                ));
            }
        }
        out
    }

    /// Render the matrix and totals as a JSON object.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"ranks\":");
        out.push_str(&self.ranks.to_string());
        out.push_str(",\"blame_ns\":[");
        for (dst, row) in self.ns.iter().enumerate() {
            if dst > 0 {
                out.push(',');
            }
            out.push('[');
            for (src, v) in row.iter().enumerate() {
                if src > 0 {
                    out.push(',');
                }
                out.push_str(&v.to_string());
            }
            out.push(']');
        }
        out.push_str("],\"outgoing_ns\":[");
        for src in 0..self.ranks {
            if src > 0 {
                out.push(',');
            }
            out.push_str(&self.outgoing_ns(src).to_string());
        }
        out.push_str("],\"links\":[");
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"src\":{},\"dst\":{},\"tag\":{},\"ns\":{}}}",
                l.src, l.dst, l.tag, l.ns
            ));
        }
        out.push_str("]}");
        out
    }
}

impl Blame {
    /// Cell-wise median of several blame matrices from repeated runs of
    /// the same configuration. Deterministic signal (a seeded straggler
    /// owes blame in every repeat) survives the median; scheduling noise
    /// (a rank descheduled in one unlucky run) is voted out. Per-link
    /// totals are not aggregated — the result is for detection, not
    /// rendering — so `links` is empty.
    pub fn median_of(samples: &[Blame]) -> Blame {
        let ranks = samples.first().map_or(0, |b| b.ranks);
        assert!(
            samples.iter().all(|b| b.ranks == ranks),
            "median_of: mismatched rank counts"
        );
        let mut ns = vec![vec![0u64; ranks]; ranks];
        for (dst, row) in ns.iter_mut().enumerate() {
            for (src, cell) in row.iter_mut().enumerate() {
                let vals: Vec<f64> = samples.iter().map(|b| b.ns[dst][src] as f64).collect();
                *cell = median(&vals) as u64;
            }
        }
        Blame {
            ranks,
            ns,
            links: Vec::new(),
        }
    }
}

/// Detector tuning: the minimum scale (ns) a baseline's spread is assumed
/// to have, so µs-level clean-run noise can never produce a huge z-score.
const SCALE_FLOOR_NS: f64 = 20_000.0;
/// Robust z-score threshold for flagging.
const Z_THRESHOLD: f64 = 4.0;
/// A flagged rank must exceed [`REL_RATIO`] times the baseline median
/// plus this absolute margin (ns) — a relative guard against
/// tightly-clustered clean runs where any scale estimate degenerates.
/// Half a millisecond: far above the net-blame asymmetry of symmetric
/// waits, far below the hundreds of milliseconds a throttled rank owes.
const ABS_MARGIN_NS: f64 = 500_000.0;
/// Relative multiple of the baseline median a candidate must clear.
/// Clean-run imbalance (whoever computed slowest this step eats the
/// barrier blame) stays within a few × the median; a throttled rank owes
/// an order of magnitude more.
const REL_RATIO: f64 = 6.0;

/// The straggler detector's output.
#[derive(Debug, Clone, Default)]
pub struct StragglerVerdict {
    /// Ranks flagged as stragglers, ascending.
    pub flagged: Vec<usize>,
    /// Per-rank robust z-score of net blame against the baseline
    /// cluster.
    pub scores: Vec<f64>,
    /// Per-rank outgoing blame, nanoseconds (raw, for reporting).
    pub outgoing_ns: Vec<u64>,
    /// Per-rank net blame (outgoing minus incoming, clamped at zero) —
    /// the statistic the detector actually tests.
    pub net_ns: Vec<u64>,
}

/// Flag ranks whose outgoing blame is a robust outlier.
///
/// Equivalent to [`detect_stragglers_with`] with no absolute floor —
/// suitable when the caller has no compute-scale anchor to offer.
pub fn detect_stragglers(b: &Blame) -> StragglerVerdict {
    detect_stragglers_with(b, 0.0)
}

/// Flag ranks whose net blame is a robust outlier, with an absolute
/// floor (ns) below which no rank is flagged.
///
/// The statistic is *net* blame ([`Blame::net_outgoing_ns`]): a rank
/// that is merely late because its own inputs were late owes roughly
/// what it is owed and nets out, while a genuinely slow rank owes
/// everything and is owed nothing.
///
/// The per-rank net blame is split at its largest sorted gap into a
/// baseline cluster and candidates; candidates are flagged when their
/// robust z-score against the baseline (median / MAD with a floored
/// scale) exceeds `Z_THRESHOLD` (4) *and* they clear a relative-plus-
/// absolute margin over the baseline median *and* they exceed
/// `floor_ns`. The gap split (rather than a plain z-score over all
/// ranks) keeps the detector exact when several ranks straggle at once —
/// a majority-contaminated MAD would otherwise swallow them.
///
/// `floor_ns` anchors the detector to the run's compute scale: clean-run
/// blame is bounded by per-step compute imbalance (at most a step or two
/// of compute lost to scheduling), while a throttled rank owes
/// `(factor − 1) ×` its whole compute budget. Callers with traces in
/// hand (e.g. `RunReport::stragglers`) pass a multiple of the smallest
/// per-rank compute-busy time, making the threshold scale-free across
/// grid sizes and machine speeds. When a floor is given it also fixes
/// the baseline/candidate partition — two stragglers throttled by very
/// different amounts would otherwise tear the largest sorted gap open
/// *between themselves* and bury the smaller one in the baseline.
pub fn detect_stragglers_with(b: &Blame, floor_ns: f64) -> StragglerVerdict {
    let n = b.ranks;
    let outgoing_ns: Vec<u64> = (0..n).map(|r| b.outgoing_ns(r)).collect();
    let net_ns: Vec<u64> = (0..n).map(|r| b.net_outgoing_ns(r)).collect();
    if n < 2 {
        return StragglerVerdict {
            flagged: Vec::new(),
            scores: vec![0.0; n],
            outgoing_ns,
            net_ns,
        };
    }
    let xs: Vec<f64> = net_ns.iter().map(|&v| v as f64).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).unwrap());
    // Partition the sorted values into baseline and candidates: at the
    // floor when one is given, else at the largest sorted gap. `split`
    // is the index of the last baseline entry in `order`.
    let split = if floor_ns > 0.0 {
        match order.iter().rposition(|&i| xs[i] <= floor_ns) {
            Some(k) => k,
            // Everything is above the floor: symmetric blame, nothing
            // stands out against anything — no baseline, no verdict.
            None => n - 1,
        }
    } else {
        let mut split = 0usize;
        let mut best_gap = -1.0f64;
        for k in 0..n - 1 {
            let gap = xs[order[k + 1]] - xs[order[k]];
            if gap > best_gap {
                best_gap = gap;
                split = k;
            }
        }
        split
    };
    let baseline: Vec<f64> = order[..=split].iter().map(|&i| xs[i]).collect();
    let med = median(&baseline);
    let mad = median(&baseline.iter().map(|x| (x - med).abs()).collect::<Vec<_>>());
    let scale = (1.4826 * mad).max(0.1 * med).max(SCALE_FLOOR_NS);
    let scores: Vec<f64> = xs.iter().map(|x| (x - med) / scale).collect();
    let flagged: Vec<usize> = order[split + 1..]
        .iter()
        .copied()
        .filter(|&r| scores[r] > Z_THRESHOLD && xs[r] > REL_RATIO * med + ABS_MARGIN_NS)
        .filter(|&r| xs[r] > floor_ns)
        .collect();
    let mut flagged = flagged;
    flagged.sort_unstable();
    StragglerVerdict {
        flagged,
        scores,
        outgoing_ns,
        net_ns,
    }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;

    fn trace(rank: usize, spans: Vec<Span>) -> Trace {
        Trace {
            rank,
            spans,
            dropped: 0,
        }
    }

    fn send(peer: usize, tag: u64, seq: u64, t0: u64, t1: u64) -> Span {
        Span::channel(Category::MpiSend, "send", 1, t0, t1, peer as u32, tag, seq)
    }

    fn wait(peer: usize, tag: u64, seq: u64, t0: u64, t1: u64) -> Span {
        Span::channel(Category::MpiWait, "wait", 1, t0, t1, peer as u32, tag, seq)
    }

    #[test]
    fn matches_send_to_wait_by_causal_id() {
        let g = build(&[
            trace(0, vec![send(1, 7, 0, 100, 120)]),
            trace(1, vec![wait(0, 7, 0, 50, 130)]),
        ]);
        assert_eq!(g.ranks, 2);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.unmatched_recvs, 0);
        assert_eq!(g.unmatched_sends, 0);
        let e = g.edges[0];
        assert_eq!((e.src, e.dst, e.tag, e.seq), (0, 1, 7, 0));
        // Blocked 50..120 on the late send (70 ns), not the full 80.
        assert_eq!(e.direct_blame_ns(), 70);
    }

    #[test]
    fn unmatched_ends_are_counted() {
        let g = build(&[
            trace(0, vec![send(1, 7, 0, 0, 10), send(1, 7, 1, 20, 30)]),
            trace(1, vec![wait(0, 7, 0, 0, 40), wait(0, 9, 0, 0, 5)]),
        ]);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.unmatched_sends, 1, "seq 1 was never received");
        assert_eq!(g.unmatched_recvs, 1, "tag 9 has no send");
    }

    #[test]
    fn early_send_charges_nothing() {
        let g = build(&[
            trace(0, vec![send(1, 0, 0, 0, 10)]),
            trace(1, vec![wait(0, 0, 0, 50, 60)]),
        ]);
        assert_eq!(g.edges[0].direct_blame_ns(), 0);
        let b = blame(&g);
        assert_eq!(b.total_ns(), 0);
        assert!(b.links.is_empty());
    }

    #[test]
    fn cascaded_blame_chases_to_root_cause() {
        // Rank 0 sends late to rank 1; rank 1's own send to rank 2 is
        // late *because* it sat in that wait. Rank 2's blocked time must
        // land on rank 0, not rank 1.
        let g = build(&[
            trace(0, vec![send(1, 0, 0, 0, 1_000)]),
            trace(
                1,
                vec![wait(0, 0, 0, 100, 1_010), send(2, 0, 0, 1_010, 1_020)],
            ),
            trace(2, vec![wait(1, 0, 0, 150, 1_030)]),
        ]);
        let b = blame(&g);
        // Rank 1 charged rank 0 for 0.1..1.0 µs directly (900 ns).
        assert_eq!(b.ns[1][0], 900);
        // Rank 2's window 150..1020: 150..1010 overlaps rank 1's wait on
        // rank 0 → reattributed; only 1010..1020 sticks on rank 1.
        assert_eq!(b.ns[2][0], 860);
        assert_eq!(b.ns[2][1], 10);
        assert_eq!(b.outgoing_ns(0), 1_760);
        // Direct links keep the unchased view.
        assert_eq!(b.links.len(), 2);
    }

    #[test]
    fn non_overtaking_holds_for_ordered_channels() {
        let g = build(&[
            trace(0, vec![send(1, 3, 0, 0, 10), send(1, 3, 1, 20, 30)]),
            trace(1, vec![wait(0, 3, 0, 0, 15), wait(0, 3, 1, 15, 35)]),
        ]);
        assert!(g.non_overtaking());
        assert!(g.hb_acyclic());
    }

    #[test]
    fn gapped_seq_fails_non_overtaking() {
        let g = build(&[
            trace(0, vec![send(1, 3, 1, 0, 10)]),
            trace(1, vec![wait(0, 3, 1, 0, 15)]),
        ]);
        assert!(!g.non_overtaking(), "seq must be contiguous from 0");
    }

    #[test]
    fn corrupted_timestamps_break_acyclicity() {
        // Two transfers in opposite directions whose spans claim each
        // send happened after the other's receive completed — a cycle no
        // real execution can produce.
        let g = CausalGraph {
            ranks: 2,
            edges: vec![
                CausalEdge {
                    src: 0,
                    dst: 1,
                    tag: 0,
                    seq: 0,
                    send_tid: 1,
                    recv_tid: 1,
                    send_start_ns: 100,
                    send_end_ns: 110,
                    wait_start_ns: 0,
                    wait_end_ns: 10,
                },
                CausalEdge {
                    src: 1,
                    dst: 0,
                    tag: 0,
                    seq: 0,
                    send_tid: 1,
                    recv_tid: 1,
                    send_start_ns: 50,
                    send_end_ns: 60,
                    wait_start_ns: 20,
                    wait_end_ns: 30,
                },
            ],
            unmatched_recvs: 0,
            unmatched_sends: 0,
        };
        assert!(!g.hb_acyclic());
    }

    #[test]
    fn detector_names_single_straggler() {
        // Rank 3 owes everyone ~2 ms; baseline owes µs-level noise.
        let mut b = Blame {
            ranks: 4,
            ns: vec![vec![0; 4]; 4],
            links: Vec::new(),
        };
        for dst in 0..3 {
            b.ns[dst][3] = 700_000;
            for src in 0..3 {
                if src != dst {
                    b.ns[dst][src] = 3_000;
                }
            }
        }
        let v = detect_stragglers(&b);
        assert_eq!(v.flagged, vec![3]);
    }

    #[test]
    fn detector_names_straggler_pair() {
        let mut b = Blame {
            ranks: 4,
            ns: vec![vec![0; 4]; 4],
            links: Vec::new(),
        };
        for dst in 0..4 {
            for src in [2usize, 3] {
                if src != dst {
                    b.ns[dst][src] = 500_000;
                }
            }
        }
        let v = detect_stragglers(&b);
        assert_eq!(v.flagged, vec![2, 3]);
    }

    #[test]
    fn detector_stays_quiet_on_clean_spread() {
        // Symmetric µs-level waits: nobody is an outlier even though the
        // values differ by 2×.
        let mut b = Blame {
            ranks: 4,
            ns: vec![vec![0; 4]; 4],
            links: Vec::new(),
        };
        let vals = [4_000u64, 6_000, 7_000, 9_000];
        for dst in 0..4 {
            for (src, &v) in vals.iter().enumerate() {
                if src != dst {
                    b.ns[dst][src] = v / 3;
                }
            }
        }
        let v = detect_stragglers(&b);
        assert!(v.flagged.is_empty(), "flagged {:?}", v.flagged);
    }

    #[test]
    fn detector_stays_quiet_on_uniform_heavy_waits() {
        // Everyone owes everyone ~the same large amount (a slow network,
        // not a straggler): no rank clears the relative margin.
        let mut b = Blame {
            ranks: 4,
            ns: vec![vec![0; 4]; 4],
            links: Vec::new(),
        };
        for dst in 0..4 {
            for src in 0..4 {
                if src != dst {
                    b.ns[dst][src] = 2_000_000 + (src as u64) * 20_000;
                }
            }
        }
        let v = detect_stragglers(&b);
        assert!(v.flagged.is_empty(), "flagged {:?}", v.flagged);
    }

    #[test]
    fn blame_renderers_are_well_formed() {
        let g = build(&[
            trace(0, vec![send(1, 0, 0, 0, 1_000)]),
            trace(1, vec![wait(0, 0, 0, 100, 1_010)]),
        ]);
        let b = blame(&g);
        let md = b.render_markdown();
        assert!(md.contains("| waiter \\ cause |"));
        assert!(md.contains("r0"));
        let json = b.render_json();
        assert!(crate::json::Value::parse(&json).is_ok());
        assert!(json.contains("\"blame_ns\""));
    }
}
