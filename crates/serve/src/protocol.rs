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

/// JSON numbers parse to `f64`, which holds every integer below 2^53
/// exactly and no longer tells 2^53 from 2^53 + 1: above this bound two
/// different seeds on the wire would read as one.
const MAX_EXACT_INT: f64 = ((1u64 << 53) - 1) as f64;

/// An optional integer field in `min..=2^53 − 1` (`None` when absent).
fn get_u64(v: &Value, key: &str, min: f64) -> Result<Option<u64>, String> {
    match &v[key] {
        Value::Null => Ok(None),
        Value::Number(n) if *n >= min && n.fract() == 0.0 && *n <= MAX_EXACT_INT => {
            Ok(Some(*n as u64))
        }
        other => Err(format!(
            "field {key:?} must be an integer in {min}..=2^53-1, got {other}"
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
    let fault_seed = get_u64(&v, "fault_seed", 0.0)?;
    let machine = match &v["machine"] {
        Value::Null => String::new(),
        Value::String(m) => m.clone(),
        other => return Err(format!("field \"machine\" must be a string, got {other}")),
    };
    let timeout_ms = get_u64(&v, "timeout_ms", 1.0)?;
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

    #[test]
    fn integers_past_f64_precision_are_rejected_not_rounded() {
        let run = |field: &str, n: u64| {
            parse_line(&format!("{{\"impl\":\"bulk_sync\",\"{field}\":{n}}}"))
        };
        let top = (1u64 << 53) - 1;
        match run("fault_seed", top).unwrap() {
            Command::Run(req) => assert_eq!(req.params.fault_seed, Some(top)),
            other => panic!("expected run, got {other:?}"),
        }
        // 2^53 + 1 parses to the same f64 as 2^53: both must be refused,
        // or two seeds would share one cache entry.
        for n in [1u64 << 53, (1 << 53) + 1, u64::MAX] {
            assert!(run("fault_seed", n).unwrap_err().contains("2^53"), "{n}");
            assert!(run("timeout_ms", n).unwrap_err().contains("2^53"), "{n}");
        }
    }

    /// Characters a tenant name must survive on the wire: quotes,
    /// backslashes, newlines and other control characters, non-ASCII.
    const TEXT: [char; 14] = [
        'a', 'Z', '7', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', 'é', '漢', '🚀', '/',
    ];

    /// Fragments (split at `|`) that steer arbitrary lines into every
    /// parser branch.
    const FRAGMENTS: &str =
        "{|}|[|]|:|,|\"|\\|\\u12|0|-1.5e3|1e400|9007199254740993|true|nul| |\n|\
                             \"cmd\"|\"impl\"|\"fault_seed\"|\"block\"|\"run\"|é|\u{0}";

    fn text(indices: &[usize]) -> String {
        indices.iter().map(|&i| TEXT[i]).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn rendered_requests_parse_back_to_themselves(
            tenant in proptest::collection::vec(0usize..TEXT.len(), 1..12),
            slug in proptest::collection::vec(0usize..TEXT.len(), 0..8),
            machine in proptest::collection::vec(0usize..TEXT.len(), 0..6),
            sizes in proptest::collection::vec(0u32..u32::MAX, 7..8),
            flags in 0u8..16,
            seed in 0u64..(1 << 53),
            timeout in 1u64..(1 << 53),
        ) {
            let req = Request {
                tenant: text(&tenant),
                params: RunParams {
                    impl_slug: text(&slug),
                    grid: sizes[0],
                    steps: sizes[1],
                    tasks: sizes[2],
                    threads: sizes[3],
                    block: (sizes[4], sizes[5]),
                    thickness: sizes[6],
                    machine: text(&machine),
                    fault_seed: (flags & 1 != 0).then_some(seed),
                    trace: flags & 2 != 0,
                    metrics: flags & 4 != 0,
                },
                timeout_ms: (flags & 8 != 0).then_some(timeout),
            };
            let line = render_request(&req);
            proptest::prop_assert!(!line.contains('\n'), "raw newline in {line:?}");
            proptest::prop_assert_eq!(parse_line(&line), Ok(Command::Run(req)));
        }

        #[test]
        fn parse_line_never_panics(
            fragments in proptest::collection::vec(0usize..24, 0..48),
            chars in proptest::collection::vec(0u32..0x11_0000, 0..32),
        ) {
            let pieces: Vec<&str> = FRAGMENTS.split('|').collect();
            let line: String = fragments.iter().map(|&i| pieces[i]).collect();
            let _ = parse_line(&line);
            let noise: String = chars.iter().filter_map(|&c| char::from_u32(c)).collect();
            let _ = parse_line(&noise);
            let _ = parse_line(&format!("{line}{noise}"));
        }
    }
}
