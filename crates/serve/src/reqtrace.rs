//! Request-scoped tracing: lifecycle events, the service track, SLO
//! burn accounting, and the anomaly dump bundle.
//!
//! Every submission gets a [`RequestId`] and a chain of lifecycle
//! events — `accepted → queued → dedup-joined | cache-hit | executing →
//! rendered → responded` (or `timed-out` / `rejected`) — recorded into
//! the flight recorder's event ring ([`obs::recorder::Ring`]) as plain
//! `Copy` records. [`service_trace`] turns a ring snapshot into one
//! [`obs::Trace`] on the dedicated service track (rank/pid
//! [`obs::chrome::SERVICE_PID`], one row per request id), which
//! [`obs::chrome::chrome_trace_stitched`] joins with the recorder's
//! stored run traces: the run is rebased to start where the request's
//! `serve.execute` span starts and a flow arrow connects the two, so a
//! single Perfetto export answers "why was *this* request slow?" —
//! queue wait, dedup fan-in, and the run's own compute/comm spans in
//! one view.
//!
//! Tenants appear in events as an FNV-1a hash, not a string: events
//! must stay `Copy` for the lock-free ring, and the hash is enough to
//! group rows; the structured log carries the readable names.
//!
//! [`SloTracker`] keeps per-second good/total buckets over a fixed
//! preallocated window and reports multiwindow burn rates: the rate at
//! which the error budget (`1 - target`) is being consumed over a fast
//! and a slow window. Both burning past the trigger is the classic
//! page-worthy signal and one of the four anomaly triggers.

use obs::chrome::{chrome_trace_stitched, SERVICE_PID};
use obs::recorder::StoredRun;
use obs::{Category, Span, Trace};
use std::sync::Mutex;
use std::time::Duration;

/// Identifies one submission for its whole lifetime (1-based,
/// process-local).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// Lifecycle stage of a request event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stage {
    /// Validated and admitted (span covers parse + canonicalize).
    #[default]
    Accepted,
    /// Served straight from the artifact cache.
    CacheHit,
    /// Joined an in-flight execution of the same key.
    DedupJoin,
    /// Sat in the tenant queue (span covers enqueue → worker pick).
    Queued,
    /// A worker ran the job (span covers the run + render).
    Executing,
    /// The artifact was published to cache and waiters.
    Rendered,
    /// A waiter redeemed the response.
    Responded,
    /// A waiter's deadline expired first.
    TimedOut,
    /// Refused: invalid, overloaded, or shutting down.
    Rejected,
}

impl Stage {
    /// Wire/export name.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Accepted => "accepted",
            Stage::CacheHit => "cache-hit",
            Stage::DedupJoin => "dedup-join",
            Stage::Queued => "queued",
            Stage::Executing => "executing",
            Stage::Rendered => "rendered",
            Stage::Responded => "responded",
            Stage::TimedOut => "timed-out",
            Stage::Rejected => "rejected",
        }
    }

    /// The obs taxonomy category this stage renders under.
    pub fn category(self) -> Category {
        match self {
            Stage::Accepted | Stage::CacheHit | Stage::DedupJoin | Stage::Rejected => {
                Category::ServeAccept
            }
            Stage::Queued => Category::ServeQueue,
            Stage::Executing => Category::ServeExecute,
            Stage::Rendered => Category::ServeRender,
            Stage::Responded | Stage::TimedOut => Category::ServeRespond,
        }
    }
}

/// One lifecycle event, sized for the lock-free ring. Instant stages
/// carry `start_ns == end_ns`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReqEvent {
    /// The owning request.
    pub id: u64,
    /// What happened.
    pub stage: Stage,
    /// FNV-1a hash of the tenant name (see module docs).
    pub tenant: u64,
    /// Service-anchor start, nanoseconds.
    pub start_ns: u64,
    /// Service-anchor end, nanoseconds.
    pub end_ns: u64,
}

/// FNV-1a over a tenant name, the fixed-size stand-in carried in events.
pub fn tenant_hash(name: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Build the service track from an event-ring snapshot: one wall span
/// per event, one thread row per request id (ids above `u32::MAX` fold,
/// which only merges display rows, never data).
pub fn service_trace(events: &[ReqEvent]) -> Trace {
    Trace {
        rank: SERVICE_PID as usize,
        spans: events
            .iter()
            .map(|e| {
                Span::wall(
                    e.stage.category(),
                    e.stage.as_str(),
                    e.id as u32,
                    e.start_ns,
                    e.end_ns.max(e.start_ns),
                )
            })
            .collect(),
        dropped: 0,
    }
}

/// What tripped a flight-recorder dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anomaly {
    /// A waiter's deadline expired.
    DeadlineMiss,
    /// Too many `Overloaded` rejections within one second.
    OverloadBurst,
    /// `obs::causal` flagged a straggler rank in an executed run.
    Straggler,
    /// Fast and slow SLO burn rates both crossed the trigger.
    SloBurn,
}

impl Anomaly {
    /// Every trigger kind, in dump/array order.
    pub const ALL: [Anomaly; 4] = [
        Anomaly::DeadlineMiss,
        Anomaly::OverloadBurst,
        Anomaly::Straggler,
        Anomaly::SloBurn,
    ];

    /// Wire/file-name slug.
    pub fn as_str(self) -> &'static str {
        match self {
            Anomaly::DeadlineMiss => "deadline_miss",
            Anomaly::OverloadBurst => "overload_burst",
            Anomaly::Straggler => "straggler",
            Anomaly::SloBurn => "slo_burn",
        }
    }

    /// Index into per-kind arrays.
    pub fn index(self) -> usize {
        Anomaly::ALL.iter().position(|a| *a == self).unwrap()
    }
}

/// SLO burn-rate configuration.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// A request slower than this is "bad".
    pub threshold: Duration,
    /// Availability target over the window (e.g. 0.99 ⇒ 1% budget).
    pub target: f64,
    /// Fast burn window, seconds.
    pub fast_window_s: u64,
    /// Slow burn window, seconds (also the bucket retention).
    pub slow_window_s: u64,
    /// Both windows burning at or above this rate trips [`Anomaly::SloBurn`].
    pub burn_trigger: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            threshold: Duration::from_millis(250),
            target: 0.99,
            fast_window_s: 60,
            slow_window_s: 300,
            burn_trigger: 10.0,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SloBucket {
    epoch_s: u64,
    total: u64,
    bad: u64,
}

/// Per-second good/total buckets with multiwindow burn-rate queries.
/// Fixed storage, allocated once at construction.
pub struct SloTracker {
    cfg: SloConfig,
    buckets: Mutex<Vec<SloBucket>>,
}

impl SloTracker {
    /// Preallocate buckets covering the slow window.
    pub fn new(cfg: SloConfig) -> Self {
        let n = (cfg.slow_window_s as usize + 8).max(16);
        SloTracker {
            cfg,
            buckets: Mutex::new(vec![SloBucket::default(); n]),
        }
    }

    /// Threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.cfg.threshold.as_nanos() as u64
    }

    /// The configured target.
    pub fn target(&self) -> f64 {
        self.cfg.target
    }

    /// Record one completed request at `now_s` (seconds on the service
    /// clock). Returns whether the request breached the threshold.
    pub fn observe(&self, now_s: u64, latency_ns: u64) -> bool {
        let bad = latency_ns > self.threshold_ns();
        let mut buckets = self.buckets.lock().unwrap();
        let n = buckets.len() as u64;
        let b = &mut buckets[(now_s % n) as usize];
        if b.epoch_s != now_s {
            *b = SloBucket {
                epoch_s: now_s,
                total: 0,
                bad: 0,
            };
        }
        b.total += 1;
        b.bad += bad as u64;
        bad
    }

    /// Burn rate over the trailing `window_s` seconds ending at `now_s`:
    /// bad-fraction divided by the error budget (`1 - target`). 1.0
    /// means the budget is being spent exactly as fast as allowed; 0
    /// when no data.
    pub fn burn(&self, now_s: u64, window_s: u64) -> f64 {
        let buckets = self.buckets.lock().unwrap();
        let lo = now_s.saturating_sub(window_s.saturating_sub(1));
        let (mut total, mut bad) = (0u64, 0u64);
        for b in buckets.iter() {
            if b.total > 0 && b.epoch_s >= lo && b.epoch_s <= now_s {
                total += b.total;
                bad += b.bad;
            }
        }
        if total == 0 {
            return 0.0;
        }
        let budget = (1.0 - self.cfg.target).max(1e-9);
        (bad as f64 / total as f64) / budget
    }

    /// Fast-window burn rate at `now_s`.
    pub fn fast_burn(&self, now_s: u64) -> f64 {
        self.burn(now_s, self.cfg.fast_window_s)
    }

    /// Slow-window burn rate at `now_s`.
    pub fn slow_burn(&self, now_s: u64) -> f64 {
        self.burn(now_s, self.cfg.slow_window_s)
    }

    /// Whether both windows are at or past the trigger.
    pub fn burning(&self, now_s: u64) -> bool {
        self.fast_burn(now_s) >= self.cfg.burn_trigger
            && self.slow_burn(now_s) >= self.cfg.burn_trigger
    }
}

/// Everything a dump bundle captures, pre-rendered where the caller
/// already has it.
pub struct BundleInput<'a> {
    /// Trigger slug (`deadline_miss`, …, or `manual`).
    pub kind: &'a str,
    /// 1-based dump sequence number.
    pub seq: u64,
    /// Service-clock capture time, nanoseconds.
    pub now_ns: u64,
    /// Event-ring snapshot, oldest to newest.
    pub events: &'a [ReqEvent],
    /// Trace-ring snapshot, oldest to newest.
    pub runs: &'a [StoredRun],
    /// Registry `render_json` document.
    pub metrics_json: &'a str,
    /// Blame matrix of the newest stored run, if any run was traced.
    pub blame_json: Option<&'a str>,
    /// `(fast_burn, slow_burn, threshold_ns, target)`.
    pub slo: (f64, f64, u64, f64),
    /// Server counter snapshot as a JSON object.
    pub stats_json: &'a str,
}

/// Render one self-contained anomaly bundle. The `trace` member is a
/// complete Chrome-trace document (the stitched export) and must pass
/// [`crate::validate::validate_chrome_trace`].
pub fn render_bundle(input: &BundleInput<'_>) -> String {
    let mut out = String::with_capacity(4096);
    out.push('{');
    out.push_str(&format!(
        "\"kind\":{},\"seq\":{},\"captured_at_ns\":{}",
        figures::json::escape(input.kind),
        input.seq,
        input.now_ns
    ));
    out.push_str(",\"request_events\":[");
    for (i, e) in input.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"stage\":\"{}\",\"tenant\":\"{:016x}\",\"start_ns\":{},\"end_ns\":{}}}",
            e.id,
            e.stage.as_str(),
            e.tenant,
            e.start_ns,
            e.end_ns
        ));
    }
    out.push(']');
    let service = service_trace(input.events);
    out.push_str(",\"trace\":");
    out.push_str(chrome_trace_stitched(&service, input.runs).trim_end());
    out.push_str(",\"metrics\":");
    out.push_str(input.metrics_json.trim_end());
    match input.blame_json {
        Some(b) => {
            out.push_str(",\"blame\":");
            out.push_str(b.trim_end());
        }
        None => out.push_str(",\"blame\":null"),
    }
    let (fast, slow, threshold_ns, target) = input.slo;
    out.push_str(&format!(
        ",\"slo\":{{\"fast_burn\":{fast:.3},\"slow_burn\":{slow:.3},\"threshold_ns\":{threshold_ns},\"target\":{target}}}"
    ));
    out.push_str(",\"stats\":");
    out.push_str(input.stats_json.trim_end());
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use figures::json::Value;

    #[test]
    fn tenant_hash_is_stable_and_distinguishes() {
        assert_eq!(tenant_hash("alice"), tenant_hash("alice"));
        assert_ne!(tenant_hash("alice"), tenant_hash("bob"));
    }

    #[test]
    fn service_trace_maps_stages_to_categories() {
        let events = [
            ReqEvent {
                id: 3,
                stage: Stage::Accepted,
                tenant: 1,
                start_ns: 0,
                end_ns: 100,
            },
            ReqEvent {
                id: 3,
                stage: Stage::Queued,
                tenant: 1,
                start_ns: 100,
                end_ns: 900,
            },
            ReqEvent {
                id: 3,
                stage: Stage::Responded,
                tenant: 1,
                start_ns: 950,
                end_ns: 950,
            },
        ];
        let t = service_trace(&events);
        assert_eq!(t.rank, SERVICE_PID as usize);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].cat, Category::ServeAccept);
        assert_eq!(t.spans[1].cat, Category::ServeQueue);
        assert_eq!(t.spans[1].tid, 3);
        assert_eq!(t.spans[2].cat, Category::ServeRespond);
    }

    #[test]
    fn slo_burn_rates_scale_with_bad_fraction() {
        let slo = SloTracker::new(SloConfig {
            threshold: Duration::from_millis(1),
            target: 0.99,
            fast_window_s: 10,
            slow_window_s: 60,
            burn_trigger: 10.0,
        });
        // 100 requests in second 5, 20 bad ⇒ bad fraction 0.2 ⇒ burn 20x.
        for i in 0..100u64 {
            let bad = i < 20;
            let breached = slo.observe(5, if bad { 2_000_000 } else { 10_000 });
            assert_eq!(breached, bad);
        }
        let fast = slo.fast_burn(5);
        assert!((fast - 20.0).abs() < 1e-9, "fast={fast}");
        assert!(slo.burning(5));
        // Outside the fast window the fast burn decays to zero.
        assert_eq!(slo.fast_burn(30), 0.0);
        assert!(!slo.burning(30));
        // Still inside the slow window.
        assert!(slo.slow_burn(30) > 0.0);
    }

    #[test]
    fn slo_buckets_reset_on_lap() {
        let slo = SloTracker::new(SloConfig {
            threshold: Duration::from_millis(1),
            target: 0.9,
            fast_window_s: 4,
            slow_window_s: 8,
            burn_trigger: 10.0,
        });
        slo.observe(1, 5_000_000);
        let n = 16; // preallocation floor
        slo.observe(1 + n, 1_000); // same slot, later epoch: resets
        assert_eq!(slo.fast_burn(1 + n), 0.0);
    }

    #[test]
    fn bundle_renders_parseable_json() {
        let events = [ReqEvent {
            id: 1,
            stage: Stage::Accepted,
            tenant: tenant_hash("anon"),
            start_ns: 10,
            end_ns: 20,
        }];
        let input = BundleInput {
            kind: "manual",
            seq: 1,
            now_ns: 1_000,
            events: &events,
            runs: &[],
            metrics_json: "{\n  \"metrics\": [\n\n  ]\n}\n",
            blame_json: None,
            slo: (0.0, 0.0, 250_000_000, 0.99),
            stats_json: "{\"requests\":1}",
        };
        let bundle = render_bundle(&input);
        let v = Value::parse(&bundle).expect("bundle parses");
        assert_eq!(v["kind"].as_str(), Some("manual"));
        assert_eq!(v["blame"], Value::Null);
        assert!(v["trace"]["traceEvents"].as_array().is_some());
        assert_eq!(v["request_events"].as_array().map(|a| a.len()), Some(1));
        assert_eq!(v["slo"]["threshold_ns"], Value::Number(250_000_000.0));
    }

    #[test]
    fn anomaly_indices_round_trip() {
        for (i, a) in Anomaly::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
        }
        assert_eq!(Anomaly::DeadlineMiss.as_str(), "deadline_miss");
    }
}
