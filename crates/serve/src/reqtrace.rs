//! Request-scoped tracing: lifecycle events, the service track, and
//! the anomaly dump bundle.
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

use obs::chrome::{chrome_trace_stitched, SERVICE_PID};
use obs::recorder::StoredRun;
use obs::{Category, Span, Trace};

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
    /// `obs::causal` flagged a straggler rank in an executed run.
    Straggler,
}

impl Anomaly {
    /// Every trigger kind, in dump/array order.
    pub const ALL: [Anomaly; 2] = [Anomaly::DeadlineMiss, Anomaly::Straggler];

    /// Wire/file-name slug.
    pub fn as_str(self) -> &'static str {
        match self {
            Anomaly::DeadlineMiss => "deadline_miss",
            Anomaly::Straggler => "straggler",
        }
    }

    /// Index into per-kind arrays.
    pub fn index(self) -> usize {
        Anomaly::ALL.iter().position(|a| *a == self).unwrap()
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
            stats_json: "{\"requests\":1}",
        };
        let bundle = render_bundle(&input);
        let v = Value::parse(&bundle).expect("bundle parses");
        assert_eq!(v["kind"].as_str(), Some("manual"));
        assert_eq!(v["blame"], Value::Null);
        assert!(v["trace"]["traceEvents"].as_array().is_some());
        assert_eq!(v["request_events"].as_array().map(|a| a.len()), Some(1));
    }

    #[test]
    fn anomaly_indices_round_trip() {
        for (i, a) in Anomaly::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
        }
        assert_eq!(Anomaly::DeadlineMiss.as_str(), "deadline_miss");
    }
}
