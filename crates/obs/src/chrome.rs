//! Chrome-trace / Perfetto JSON export.
//!
//! Emits the JSON object format (`{"traceEvents": [...]}`) with complete
//! ("X") events, loadable in `ui.perfetto.dev` or `chrome://tracing`.
//! Wall-clock spans from rank *r* appear under process *r* (one track per
//! recording thread); virtual-clock spans bridged from the device
//! timeline appear under process `1000 + r` (one track per stream), so
//! the host's real timing and the simulator's scheduled timing sit side
//! by side without pretending they share a clock.
//!
//! Stamped message transfers additionally become **flow events** (`ph`
//! `"s"`/`"f"`): one arrow per matched send→recv edge of the causal
//! graph, starting inside the sender's `mpi.send` slice and binding to
//! the end (`"bp":"e"`) of the receiver's wait slice — in Perfetto, the
//! arrow you follow to see whom a wait was waiting on.
//!
//! [`chrome_trace_stitched`] additionally renders the run *service*
//! view: the request-lifecycle track (process [`SERVICE_PID`], one row
//! per request id) plus the flight recorder's stored runs, each rebased
//! so its first wall span starts at the moment the owning request's
//! `serve.execute` span began, with a stitch flow arrow from that span
//! into the run. Each stored run gets its own process-id block so causal
//! matching and track timestamps from different runs never collide.

use crate::json::escape;
use crate::recorder::StoredRun;
use crate::{causal, Axis, Trace};

/// Process-id offset for virtual-axis (device-timeline) tracks.
pub const VIRTUAL_PID_OFFSET: u64 = 1000;

/// Process id of the service request-lifecycle track in stitched
/// exports (above any plausible rank or `1000 + rank` virtual pid).
pub const SERVICE_PID: u64 = 2000;

/// Stored run *k* renders its rank-`r` wall track at pid
/// `RUN_PID_STRIDE * (k + 1) + r` (virtual adds [`VIRTUAL_PID_OFFSET`]).
pub const RUN_PID_STRIDE: u64 = 10_000;

/// Flow-id base for request→run stitch arrows, disjoint from the
/// per-run causal-edge id blocks.
pub const STITCH_FLOW_BASE: u64 = 1 << 32;

/// Flow-id block size reserved per stored run for its causal edges.
const RUN_FLOW_STRIDE: u64 = 1_000_000;

fn fmt_us(us: f64) -> String {
    // Chrome-trace timestamps are microseconds; three decimals keeps
    // nanosecond resolution without float noise.
    format!("{us:.3}")
}

struct Event {
    name: String,
    cat: &'static str,
    /// `"X"` complete event, `"s"` flow start, `"f"` flow finish.
    ph: &'static str,
    pid: u64,
    tid: u64,
    ts_us: f64,
    dur_us: f64,
    /// Flow id linking an `"s"`/`"f"` pair; unused for `"X"`.
    id: u64,
}

/// Emit one trace's spans. Wall spans go to `wall_pid` shifted forward
/// by `shift_ns`; virtual spans go to `virt_pid` on their own clock.
/// Returns whether each axis appeared.
fn push_span_events(
    events: &mut Vec<Event>,
    t: &Trace,
    wall_pid: u64,
    virt_pid: u64,
    shift_ns: u64,
) -> (bool, bool) {
    let mut has_wall = false;
    let mut has_virt = false;
    for s in &t.spans {
        let (pid, ts_us, dur_us) = match s.axis {
            Axis::Wall => {
                has_wall = true;
                (
                    wall_pid,
                    (s.wall_start_ns + shift_ns) as f64 / 1e3,
                    s.wall_end_ns.saturating_sub(s.wall_start_ns) as f64 / 1e3,
                )
            }
            Axis::Virtual => {
                has_virt = true;
                (
                    virt_pid,
                    s.virt_start * 1e6,
                    (s.virt_end - s.virt_start).max(0.0) * 1e6,
                )
            }
        };
        let name = if s.label.is_empty() {
            s.cat.name().to_string()
        } else {
            format!("{} ({})", s.cat.name(), s.label)
        };
        events.push(Event {
            name,
            cat: s.cat.name(),
            ph: "X",
            pid,
            tid: s.tid as u64,
            ts_us,
            dur_us,
            id: 0,
        });
    }
    (has_wall, has_virt)
}

/// Emit one flow arrow per matched causal edge of `traces`. Ranks map
/// to pids via `wall_pid_of`; ids start at `flow_base + 1` (1-based so
/// 0 can mean "no id"); wall timestamps shift with the owning run.
fn push_causal_flows(
    events: &mut Vec<Event>,
    traces: &[Trace],
    wall_pid_of: &dyn Fn(usize) -> u64,
    flow_base: u64,
    shift_ns: u64,
) {
    for (i, e) in causal::build(traces).edges.iter().enumerate() {
        let id = flow_base + i as u64 + 1;
        events.push(Event {
            name: "msg".to_string(),
            cat: "flow",
            ph: "s",
            pid: wall_pid_of(e.src),
            tid: e.send_tid as u64,
            ts_us: (e.send_start_ns + shift_ns) as f64 / 1e3,
            dur_us: 0.0,
            id,
        });
        events.push(Event {
            name: "msg".to_string(),
            cat: "flow",
            ph: "f",
            pid: wall_pid_of(e.dst),
            tid: e.recv_tid as u64,
            ts_us: (e.wait_end_ns + shift_ns) as f64 / 1e3,
            dur_us: 0.0,
            id,
        });
    }
}

/// Sort, serialise, wrap. Shared tail of both exporters.
fn serialise(mut events: Vec<Event>, meta: Vec<String>) -> String {
    // Sort by (pid, tid, ts) so each track's timestamps are monotone in
    // file order — the property the CI smoke check validates. The sort is
    // stable, so an "s" flow event at a send's start timestamp stays
    // after the "X" slice it binds into.
    events.sort_by(|a, b| {
        (a.pid, a.tid)
            .cmp(&(b.pid, b.tid))
            .then(a.ts_us.partial_cmp(&b.ts_us).unwrap())
    });
    let mut lines: Vec<String> = meta;
    lines.extend(events.iter().map(|e| match e.ph {
        "s" => format!(
            "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"s\",\"id\":{},\"pid\":{},\"tid\":{},\"ts\":{}}}",
            escape(&e.name),
            e.cat,
            e.id,
            e.pid,
            e.tid,
            fmt_us(e.ts_us)
        ),
        "f" => format!(
            "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"pid\":{},\"tid\":{},\"ts\":{}}}",
            escape(&e.name),
            e.cat,
            e.id,
            e.pid,
            e.tid,
            fmt_us(e.ts_us)
        ),
        _ => format!(
            "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{}}}",
            escape(&e.name),
            e.cat,
            e.pid,
            e.tid,
            fmt_us(e.ts_us),
            fmt_us(e.dur_us)
        ),
    }));
    // One line, no internal newlines: the document gets embedded raw in
    // run artifacts and anomaly bundles, which travel over the
    // line-delimited wire protocol — a stray '\n' would truncate the
    // response mid-trace and desynchronize the connection.
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str(&lines.join(","));
    out.push_str("]}");
    out
}

fn process_name(pid: u64, name: &str) -> String {
    format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":{}}}}}",
        escape(name)
    )
}

/// Serialise per-rank traces to a Chrome-trace JSON string.
pub fn chrome_trace(traces: &[Trace]) -> String {
    let mut events: Vec<Event> = Vec::new();
    let mut meta: Vec<String> = Vec::new();
    for t in traces {
        let wall_pid = t.rank as u64;
        let virt_pid = VIRTUAL_PID_OFFSET + t.rank as u64;
        let (has_wall, has_virt) = push_span_events(&mut events, t, wall_pid, virt_pid, 0);
        if has_wall {
            meta.push(process_name(wall_pid, &format!("rank {} (wall)", t.rank)));
        }
        if has_virt {
            meta.push(process_name(
                virt_pid,
                &format!("rank {} (device, virtual)", t.rank),
            ));
        }
    }
    push_causal_flows(&mut events, traces, &|rank| rank as u64, 0, 0);
    serialise(events, meta)
}

/// Earliest wall-span start in a run's traces, if any wall span exists.
fn first_wall_start_ns(traces: &[Trace]) -> Option<u64> {
    traces
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| s.axis == Axis::Wall)
        .map(|s| s.wall_start_ns)
        .min()
}

/// Serialise the service request track plus stored runs into one
/// stitched Chrome-trace document.
///
/// The stitching rule: a stored run's wall spans are shifted forward by
/// `exec_start_ns - min(wall span start)`, so the run's timeline begins
/// exactly where the owning request's `serve.execute` span begins on the
/// shared service clock; one flow arrow (ids from [`STITCH_FLOW_BASE`])
/// connects the execute span to the end of the run's first wall span.
/// Run *k* renders in its own pid block (`RUN_PID_STRIDE * (k+1)`) and
/// causal flow-id block, so several stored runs — which all use ranks
/// `0..tasks` and ~0-based clocks internally — never collide on a track
/// or an edge id.
pub fn chrome_trace_stitched(service: &Trace, runs: &[StoredRun]) -> String {
    let mut events: Vec<Event> = Vec::new();
    let mut meta: Vec<String> = Vec::new();
    let (has_service, _) = push_span_events(&mut events, service, SERVICE_PID, SERVICE_PID, 0);
    if has_service {
        meta.push(process_name(SERVICE_PID, "service (requests)"));
        // One named row per request id.
        let mut tids: Vec<u64> = service.spans.iter().map(|s| s.tid as u64).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            meta.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{SERVICE_PID},\"tid\":{tid},\"args\":{{\"name\":\"req {tid}\"}}}}"
            ));
        }
    }
    for (k, run) in runs.iter().enumerate() {
        let pid_base = RUN_PID_STRIDE * (k as u64 + 1);
        let shift_ns = first_wall_start_ns(&run.traces)
            .map(|first| run.exec_start_ns.saturating_sub(first))
            .unwrap_or(0);
        for t in &run.traces {
            let wall_pid = pid_base + t.rank as u64;
            let virt_pid = pid_base + VIRTUAL_PID_OFFSET + t.rank as u64;
            let (has_wall, has_virt) =
                push_span_events(&mut events, t, wall_pid, virt_pid, shift_ns);
            if has_wall {
                meta.push(process_name(
                    wall_pid,
                    &format!("req {} rank {} (wall)", run.request_id, t.rank),
                ));
            }
            if has_virt {
                meta.push(process_name(
                    virt_pid,
                    &format!("req {} rank {} (device, virtual)", run.request_id, t.rank),
                ));
            }
        }
        push_causal_flows(
            &mut events,
            &run.traces,
            &|rank| pid_base + rank as u64,
            k as u64 * RUN_FLOW_STRIDE,
            shift_ns,
        );
        // The stitch arrow: from the execute span's start on the service
        // track to the end of the run's first wall span.
        let first = run
            .traces
            .iter()
            .flat_map(|t| t.spans.iter().map(|s| (t.rank, s)))
            .filter(|(_, s)| s.axis == Axis::Wall)
            .min_by_key(|(_, s)| (s.wall_start_ns, s.wall_end_ns));
        if let Some((rank, span)) = first {
            let id = STITCH_FLOW_BASE + k as u64;
            events.push(Event {
                name: "run".to_string(),
                cat: "flow",
                ph: "s",
                pid: SERVICE_PID,
                tid: run.exec_tid as u64,
                ts_us: run.exec_start_ns as f64 / 1e3,
                dur_us: 0.0,
                id,
            });
            events.push(Event {
                name: "run".to_string(),
                cat: "flow",
                ph: "f",
                pid: pid_base + rank as u64,
                tid: span.tid as u64,
                ts_us: (span.wall_end_ns + shift_ns) as f64 / 1e3,
                dur_us: 0.0,
                id,
            });
        }
    }
    serialise(events, meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_chrome_trace;
    use crate::{Category, Span};

    #[test]
    fn export_separates_axes_and_orders_tracks() {
        let t = Trace {
            rank: 2,
            spans: vec![
                Span::wall(Category::MpiSend, "halo", 7, 2_000, 5_000),
                Span::wall(Category::ComputeInterior, "", 7, 0, 1_000),
                Span::virtual_span(Category::PcieH2d, "halo", 1, 0.5, 1.5),
            ],
            dropped: 0,
        };
        let json = chrome_trace(&[t]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"cat\":\"mpi.send\""));
        assert!(json.contains("\"cat\":\"pcie.h2d\""));
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("\"pid\":1002"));
        assert!(json.contains("rank 2 (wall)"));
        assert!(json.contains("rank 2 (device, virtual)"));
        // Within the wall track the compute span (ts 0) precedes the send
        // (ts 2): monotone in file order.
        let compute = json.find("compute.interior").unwrap();
        let send = json.find("mpi.send (halo)").unwrap();
        assert!(compute < send);
        // Unlabelled spans use the bare category name.
        assert!(json.contains("\"name\":\"compute.interior\""));
        assert!(validate_chrome_trace(&json).is_ok());
    }

    #[test]
    fn stamped_transfers_become_flow_arrows() {
        let t0 = Trace {
            rank: 0,
            spans: vec![Span::channel(
                Category::MpiSend,
                "send",
                1,
                2_000,
                3_000,
                1,
                7,
                0,
            )],
            dropped: 0,
        };
        let t1 = Trace {
            rank: 1,
            spans: vec![Span::channel(
                Category::MpiWait,
                "wait",
                1,
                1_000,
                4_000,
                0,
                7,
                0,
            )],
            dropped: 0,
        };
        let json = chrome_trace(&[t0, t1]);
        assert!(json.contains("\"ph\":\"s\",\"id\":1,\"pid\":0,\"tid\":1,\"ts\":2.000"));
        assert!(
            json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":1,\"pid\":1,\"tid\":1,\"ts\":4.000")
        );
        // The "s" event stays after the X slice it binds into (stable
        // sort at equal ts).
        let slice = json.find("\"cat\":\"mpi.send\"").unwrap();
        let flow_s = json.find("\"ph\":\"s\"").unwrap();
        assert!(slice < flow_s);
        assert!(validate_chrome_trace(&json).is_ok());
    }

    #[test]
    fn unstamped_spans_emit_no_flows() {
        let t = Trace {
            rank: 0,
            spans: vec![Span::wall(Category::MpiSend, "send", 1, 0, 10)],
            dropped: 0,
        };
        let json = chrome_trace(&[t]);
        assert!(!json.contains("\"ph\":\"s\""));
        assert!(!json.contains("\"ph\":\"f\""));
    }

    #[test]
    fn stitched_export_rebases_runs_and_draws_the_stitch_arrow() {
        let service = Trace {
            rank: SERVICE_PID as usize,
            spans: vec![
                Span::wall(Category::ServeAccept, "accepted", 7, 1_000, 2_000),
                Span::wall(Category::ServeQueue, "queued", 7, 2_000, 10_000),
                Span::wall(Category::ServeExecute, "executing", 7, 10_000, 50_000),
            ],
            dropped: 0,
        };
        let run = StoredRun {
            request_id: 7,
            exec_tid: 7,
            exec_start_ns: 10_000,
            traces: vec![Trace {
                rank: 0,
                // The run's own clock starts near zero; rebasing must
                // land it at the execute span's start.
                spans: vec![Span::wall(
                    Category::ComputeInterior,
                    "stencil",
                    1,
                    200,
                    5_200,
                )],
                dropped: 0,
            }],
        };
        let json = chrome_trace_stitched(&service, &[run]);
        assert!(json.contains("service (requests)"));
        assert!(json.contains("\"name\":\"req 7\""));
        assert!(json.contains("req 7 rank 0 (wall)"));
        // 200ns span start rebased to 10_000ns → ts 10.000us on pid 10000.
        assert!(
            json.contains("\"ph\":\"X\",\"pid\":10000,\"tid\":1,\"ts\":10.000"),
            "{json}"
        );
        // Stitch arrow: s at execute start on the service track, f bound
        // to the end of the run's first wall span.
        let sid = STITCH_FLOW_BASE;
        assert!(json.contains(&format!(
            "\"ph\":\"s\",\"id\":{sid},\"pid\":{SERVICE_PID},\"tid\":7,\"ts\":10.000"
        )));
        assert!(json.contains(&format!(
            "\"ph\":\"f\",\"bp\":\"e\",\"id\":{sid},\"pid\":10000,\"tid\":1,\"ts\":15.000"
        )));
        assert!(validate_chrome_trace(&json).is_ok());
    }

    #[test]
    fn stitched_runs_get_disjoint_pid_blocks() {
        let service = Trace {
            rank: SERVICE_PID as usize,
            spans: vec![Span::wall(Category::ServeExecute, "executing", 1, 0, 100)],
            dropped: 0,
        };
        let mk = |id: u64, start: u64| StoredRun {
            request_id: id,
            exec_tid: 1,
            exec_start_ns: start,
            traces: vec![Trace {
                rank: 0,
                spans: vec![Span::wall(Category::ComputeInterior, "", 1, 0, 50)],
                dropped: 0,
            }],
        };
        let json = chrome_trace_stitched(&service, &[mk(1, 0), mk(2, 60)]);
        assert!(json.contains("\"pid\":10000"));
        assert!(json.contains("\"pid\":20000"));
        assert!(json.contains("req 1 rank 0 (wall)"));
        assert!(json.contains("req 2 rank 0 (wall)"));
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        let label = "a\"b\\c\nd\t\u{1}";
        let t = Trace {
            rank: 0,
            spans: vec![Span::wall(Category::MpiSend, label, 1, 0, 10)],
            dropped: 0,
        };
        let json = chrome_trace(&[t]);
        assert!(!json.bytes().any(|b| b < 0x20), "{json}");
        let doc = crate::json::Value::parse(&json).expect("export parses");
        let name = format!("mpi.send ({label})");
        let events = doc["traceEvents"].as_array().unwrap();
        assert!(events.iter().any(|e| e["name"] == name.as_str()));
    }
}
