//! The wire protocol: line-delimited JSON.
//!
//! Each request is one JSON object on one line; each response is one
//! JSON object on one line. A run request:
//!
//! ```json
//! {"tenant":"alice","impl":"bulk_sync","grid":12,"steps":3,"tasks":4}
//! ```
//!
//! Optional fields: `threads`, `block` (`[bx, by]`), `thickness`,
//! `machine` (`cpu`/`lens`/`yona`/`jaguarpf`/`hopper_ii`), `fault_seed`,
//! `trace`, `metrics`, `timeout_ms`. Control commands use `cmd`:
//! `{"cmd":"ping"}`, `{"cmd":"metrics"}` (server self-metrics as
//! Prometheus text), `{"cmd":"events"}` (the structured event log),
//! `{"cmd":"health"}` (liveness + recorder summary),
//! `{"cmd":"dump"}` (an on-demand flight-recorder bundle), and
//! `{"cmd":"shutdown"}` (drain and exit).
//!
//! Responses: `{"status":"ok","cached":false,"artifact":{...}}` or
//! `{"status":"error","error":"..."}`. The `artifact` object is rendered
//! once per execution, so identical canonicalized requests receive
//! byte-identical artifact bytes (see [`crate::artifact`]).

use figures::json::{self, Value};
use overlap::RunParams;

/// A parsed run request: who is asking, for what, and how long they
/// will wait.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Tenant id for fairness accounting (default `"anon"`).
    pub tenant: String,
    /// The raw run shape; canonicalization happens in the server.
    pub params: RunParams,
    /// Per-request deadline override, milliseconds.
    pub timeout_ms: Option<u64>,
}

/// One decoded protocol line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Execute (or fetch from cache) a run.
    Run(Request),
    /// Render the server's self-metrics as Prometheus text.
    Metrics,
    /// The structured event log's retained lines.
    Events,
    /// Liveness + flight-recorder summary.
    Health,
    /// An on-demand flight-recorder bundle.
    Dump,
    /// Liveness probe.
    Ping,
    /// Drain in-flight runs and stop the server.
    Shutdown,
}

/// Every `cmd` value the protocol understands, in the order listed by
/// the unknown-command error.
pub const SUPPORTED_CMDS: [&str; 7] = [
    "run", "metrics", "events", "health", "dump", "ping", "shutdown",
];

fn get_u32(v: &Value, key: &str, default: u32) -> Result<u32, String> {
    match &v[key] {
        Value::Null => Ok(default),
        Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => Ok(*n as u32),
        other => Err(format!(
            "field {key:?} must be a non-negative integer, got {other}"
        )),
    }
}

fn get_bool(v: &Value, key: &str) -> Result<bool, String> {
    match &v[key] {
        Value::Null => Ok(false),
        Value::Bool(b) => Ok(*b),
        other => Err(format!("field {key:?} must be a boolean, got {other}")),
    }
}

/// Parse one protocol line into a [`Command`].
pub fn parse_line(line: &str) -> Result<Command, String> {
    let v = Value::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    if !matches!(v, Value::Object(_)) {
        return Err("request must be a JSON object".to_string());
    }
    match &v["cmd"] {
        Value::Null => {}
        Value::String(c) => match c.as_str() {
            "run" => {}
            "metrics" => return Ok(Command::Metrics),
            "events" => return Ok(Command::Events),
            "health" => return Ok(Command::Health),
            "dump" => return Ok(Command::Dump),
            "ping" => return Ok(Command::Ping),
            "shutdown" => return Ok(Command::Shutdown),
            other => {
                return Err(format!(
                    "unknown cmd {other:?}; supported: {}",
                    SUPPORTED_CMDS.join(", ")
                ))
            }
        },
        other => return Err(format!("field \"cmd\" must be a string, got {other}")),
    }
    let tenant = match &v["tenant"] {
        Value::Null => "anon".to_string(),
        Value::String(t) if !t.is_empty() => t.clone(),
        other => {
            return Err(format!(
                "field \"tenant\" must be a non-empty string, got {other}"
            ))
        }
    };
    let impl_slug = match &v["impl"] {
        Value::String(s) => s.clone(),
        Value::Null => return Err("run request needs an \"impl\" field".to_string()),
        other => return Err(format!("field \"impl\" must be a string, got {other}")),
    };
    let defaults = RunParams::default();
    let block = match &v["block"] {
        Value::Null => defaults.block,
        Value::Array(a) if a.len() == 2 => {
            let parse = |item: &Value| -> Result<u32, String> {
                match item {
                    Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u32),
                    other => Err(format!("block entries must be integers, got {other}")),
                }
            };
            (parse(&a[0])?, parse(&a[1])?)
        }
        other => return Err(format!("field \"block\" must be [bx, by], got {other}")),
    };
    let fault_seed = match &v["fault_seed"] {
        Value::Null => None,
        Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        other => {
            return Err(format!(
                "field \"fault_seed\" must be an integer, got {other}"
            ))
        }
    };
    let machine = match &v["machine"] {
        Value::Null => String::new(),
        Value::String(m) => m.clone(),
        other => return Err(format!("field \"machine\" must be a string, got {other}")),
    };
    let timeout_ms = match &v["timeout_ms"] {
        Value::Null => None,
        Value::Number(n) if *n > 0.0 && n.fract() == 0.0 => Some(*n as u64),
        other => {
            return Err(format!(
                "field \"timeout_ms\" must be a positive integer, got {other}"
            ))
        }
    };
    let params = RunParams {
        impl_slug,
        grid: get_u32(&v, "grid", defaults.grid)?,
        steps: get_u32(&v, "steps", defaults.steps)?,
        tasks: get_u32(&v, "tasks", defaults.tasks)?,
        threads: get_u32(&v, "threads", defaults.threads)?,
        block,
        thickness: get_u32(&v, "thickness", defaults.thickness)?,
        machine,
        fault_seed,
        trace: get_bool(&v, "trace")?,
        metrics: get_bool(&v, "metrics")?,
    };
    Ok(Command::Run(Request {
        tenant,
        params,
        timeout_ms,
    }))
}

/// Render a run request as a protocol line (used by `load_gen` and
/// tests; the inverse of [`parse_line`] for `Command::Run`).
pub fn render_request(req: &Request) -> String {
    let p = &req.params;
    let mut out = format!(
        "{{\"tenant\":{},\"impl\":{},\"grid\":{},\"steps\":{},\"tasks\":{},\"threads\":{},\"block\":[{},{}],\"thickness\":{}",
        json::escape(&req.tenant),
        json::escape(&p.impl_slug),
        p.grid,
        p.steps,
        p.tasks,
        p.threads,
        p.block.0,
        p.block.1,
        p.thickness,
    );
    if !p.machine.is_empty() {
        out.push_str(&format!(",\"machine\":{}", json::escape(&p.machine)));
    }
    if let Some(seed) = p.fault_seed {
        out.push_str(&format!(",\"fault_seed\":{seed}"));
    }
    if p.trace {
        out.push_str(",\"trace\":true");
    }
    if p.metrics {
        out.push_str(",\"metrics\":true");
    }
    if let Some(ms) = req.timeout_ms {
        out.push_str(&format!(",\"timeout_ms\":{ms}"));
    }
    out.push('}');
    out
}

/// Render an ok response line around an already-rendered artifact.
pub fn render_ok(cached: bool, artifact: &str) -> String {
    format!("{{\"status\":\"ok\",\"cached\":{cached},\"artifact\":{artifact}}}")
}

/// Render an error response line.
pub fn render_error(message: &str) -> String {
    format!(
        "{{\"status\":\"error\",\"error\":{}}}",
        json::escape(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_round_trips() {
        let req = Request {
            tenant: "alice".into(),
            params: RunParams {
                impl_slug: "hybrid_overlap".into(),
                grid: 16,
                steps: 4,
                tasks: 4,
                threads: 2,
                block: (16, 4),
                thickness: 2,
                machine: "yona".into(),
                fault_seed: Some(42),
                trace: true,
                metrics: true,
            },
            timeout_ms: Some(2500),
        };
        let line = render_request(&req);
        match parse_line(&line).unwrap() {
            Command::Run(parsed) => assert_eq!(parsed, req),
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn defaults_fill_optional_fields() {
        match parse_line("{\"impl\":\"bulk_sync\"}").unwrap() {
            Command::Run(req) => {
                assert_eq!(req.tenant, "anon");
                assert_eq!(req.params.grid, RunParams::default().grid);
                assert_eq!(req.timeout_ms, None);
                assert!(!req.params.trace);
            }
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn control_commands_parse() {
        assert_eq!(parse_line("{\"cmd\":\"ping\"}").unwrap(), Command::Ping);
        assert_eq!(
            parse_line("{\"cmd\":\"metrics\"}").unwrap(),
            Command::Metrics
        );
        assert_eq!(parse_line("{\"cmd\":\"events\"}").unwrap(), Command::Events);
        assert_eq!(parse_line("{\"cmd\":\"health\"}").unwrap(), Command::Health);
        assert_eq!(parse_line("{\"cmd\":\"dump\"}").unwrap(), Command::Dump);
        assert_eq!(
            parse_line("{\"cmd\":\"shutdown\"}").unwrap(),
            Command::Shutdown
        );
    }

    #[test]
    fn unknown_cmd_error_names_it_and_lists_supported() {
        let err = parse_line("{\"cmd\":\"reboot\"}").unwrap_err();
        assert!(err.contains("\"reboot\""), "{err}");
        for cmd in SUPPORTED_CMDS {
            assert!(err.contains(cmd), "error should list {cmd:?}: {err}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("[1,2]").is_err());
        assert!(parse_line("{\"cmd\":\"reboot\"}").is_err());
        assert!(parse_line("{}").unwrap_err().contains("impl"));
        assert!(parse_line("{\"impl\":\"bulk_sync\",\"grid\":-3}").is_err());
        assert!(parse_line("{\"impl\":\"bulk_sync\",\"block\":[8]}").is_err());
        assert!(parse_line("{\"impl\":\"bulk_sync\",\"timeout_ms\":0}").is_err());
        assert!(parse_line("{\"impl\":\"bulk_sync\",\"tenant\":\"\"}").is_err());
    }
}
