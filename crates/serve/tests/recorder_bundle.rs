//! The flight-recorder bundle must be self-contained and loadable: its
//! embedded stitched trace has to pass the same structural validator
//! (`serve::validate::validate_chrome_trace`) the per-run Chrome exports are held
//! to — per-track monotone timestamps, terminated flow chains, matched
//! begin/end pairs.

use figures::json::Value;
use overlap::RunParams;
use serve::server::{Server, ServerConfig};
use serve::validate::validate_chrome_trace;
use serve::Request;

fn request(impl_slug: &str, seed: u64, trace: bool) -> Request {
    Request {
        tenant: "bundle".to_string(),
        params: RunParams {
            impl_slug: impl_slug.into(),
            grid: 10,
            steps: 2,
            tasks: 2,
            trace,
            fault_seed: Some(seed),
            ..RunParams::default()
        },
        timeout_ms: None,
    }
}

#[test]
fn manual_dump_bundle_round_trips_the_trace_validator() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    // Two traced runs (stored in the trace ring, stitched into the
    // export) plus an untraced one (request events only).
    server.run(&request("nonblocking", 11, true)).unwrap();
    server.run(&request("bulk_sync", 12, true)).unwrap();
    server.run(&request("bulk_sync", 13, false)).unwrap();

    let bundle = server.dump_json();
    let v = Value::parse(&bundle).expect("bundle is valid JSON");
    assert_eq!(v["kind"].as_str(), Some("manual"));
    assert!(
        v["request_events"]
            .as_array()
            .is_some_and(|a| !a.is_empty()),
        "bundle carries the request timeline"
    );
    assert!(v["metrics"].as_array().is_some() || matches!(v["metrics"], Value::Object(_)));

    // The embedded trace is a complete Chrome document: re-render it
    // and push it through the full validator.
    let trace_doc = v["trace"].to_string();
    let check = validate_chrome_trace(&trace_doc).expect("stitched trace validates");
    assert!(check.complete_events > 0, "{check:?}");
    assert!(
        check.flow_start_events >= 1 && check.flow_finish_events >= 1,
        "stitch arrows survive the round trip: {check:?}"
    );

    // The live export (what `{"cmd":"dump"}` feeds from) validates too.
    let live = server.stitched_trace();
    validate_chrome_trace(&live).expect("live stitched export validates");
    server.shutdown();
}
