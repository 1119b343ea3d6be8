//! Service-observability behavior: request lifecycle events in the
//! flight recorder, stitched trace exports, concurrent metrics
//! rendering under load, and exactly-one-bundle-per-anomaly-trigger —
//! all through the in-process API, no sockets.

use overlap::RunParams;
use serve::reqtrace::{Anomaly, Stage};
use serve::server::{ServeError, Server, ServerConfig};
use serve::Request;
use std::time::{Duration, Instant};

fn cheap(tenant: &str, seed: u64) -> Request {
    Request {
        tenant: tenant.to_string(),
        params: RunParams {
            impl_slug: "bulk_sync".into(),
            grid: 8,
            steps: 1,
            tasks: 2,
            fault_seed: Some(seed),
            ..RunParams::default()
        },
        timeout_ms: None,
    }
}

fn traced(tenant: &str, seed: u64) -> Request {
    Request {
        tenant: tenant.to_string(),
        params: RunParams {
            impl_slug: "nonblocking".into(),
            grid: 10,
            steps: 2,
            tasks: 2,
            trace: true,
            fault_seed: Some(seed),
            ..RunParams::default()
        },
        timeout_ms: None,
    }
}

fn stages_for(server: &Server, id: u64) -> Vec<Stage> {
    server
        .recorded_events()
        .into_iter()
        .filter(|e| e.id == id)
        .map(|e| e.stage)
        .collect()
}

#[test]
fn executed_requests_record_the_full_lifecycle_chain() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let ticket = server.submit(&cheap("alice", 1)).unwrap();
    let id = ticket.request_id().0;
    ticket.wait().expect("run succeeds");
    let stages = stages_for(&server, id);
    for want in [
        Stage::Accepted,
        Stage::Queued,
        Stage::Executing,
        Stage::Rendered,
        Stage::Responded,
    ] {
        assert!(stages.contains(&want), "missing {want:?} in {stages:?}");
    }
    let at = |stage| stages.iter().position(|s| *s == stage);
    assert!(
        at(Stage::Rendered) < at(Stage::Responded),
        "rendered must be recorded before responded: {stages:?}"
    );
    // A repeat of the same key is a cache hit: a distinct request id,
    // and a short accepted → cache-hit chain with no execution stages.
    let ticket = server.submit(&cheap("alice", 1)).unwrap();
    let hit_id = ticket.request_id().0;
    assert_ne!(hit_id, id, "every submission gets its own request id");
    ticket.wait().expect("cache hit succeeds");
    let stages = stages_for(&server, hit_id);
    assert!(stages.contains(&Stage::CacheHit), "{stages:?}");
    assert!(!stages.contains(&Stage::Executing), "{stages:?}");
    server.shutdown();
}

#[test]
fn stitched_export_carries_the_service_track_and_run_spans() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    server
        .run(&traced("alice", 3))
        .expect("traced run succeeds");
    let doc = server.stitched_trace();
    assert!(
        doc.contains("service (requests)"),
        "export names the service track"
    );
    // The executed run's trace was stored and rebased into its own pid
    // block, with the stitch arrow drawn from the execute span.
    assert!(doc.contains("\"pid\":10000"), "run pid block present");
    assert!(doc.contains("\"ph\":\"s\""), "stitch flow start present");
    assert!(doc.contains("\"ph\":\"f\""), "stitch flow finish present");
    server.shutdown();
}

#[test]
fn metrics_render_concurrently_with_executing_load() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    std::thread::scope(|scope| {
        let srv = &server;
        let load = scope.spawn(move || {
            for seed in 0..24u64 {
                srv.run(&cheap("load", 500 + seed)).expect("load succeeds");
            }
        });
        // Hammer both renderers while the load is in flight; the
        // registry must stay internally consistent (no panics, both
        // formats parse/shape correctly every time).
        for _ in 0..50 {
            let text = srv.metrics_text();
            assert!(text.contains("serve_requests_total"), "{text}");
            let json = srv.metrics_json();
            obs::json::Value::parse(&json).expect("metrics JSON parses under load");
            let events = srv.events_json();
            obs::json::Value::parse(&events).expect("events JSON parses under load");
            let health = srv.health_json();
            obs::json::Value::parse(&health).expect("health JSON parses under load");
        }
        load.join().expect("load thread");
    });
    server.shutdown();
}

#[test]
fn deadline_miss_dumps_exactly_one_bundle_per_trigger() {
    let dir = std::env::temp_dir().join(format!("serve_dump_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServerConfig {
        workers: 1,
        dump_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    // Occupy the worker, then submit two doomed requests: both miss
    // their deadline, but the cooldown admits exactly one bundle.
    let blocker = Request {
        tenant: "z".into(),
        params: RunParams {
            impl_slug: "bulk_sync".into(),
            grid: 32,
            steps: 16,
            tasks: 2,
            ..RunParams::default()
        },
        timeout_ms: None,
    };
    let blocker_ticket = server.submit(&blocker).unwrap();
    let pick = Instant::now() + Duration::from_secs(60);
    while server.queue_depth() > 0 {
        assert!(Instant::now() < pick, "worker never picked the blocker");
        std::thread::yield_now();
    }
    for seed in [70, 71] {
        let mut doomed = cheap("a", seed);
        doomed.timeout_ms = Some(1);
        let ticket = server.submit(&doomed).unwrap();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::Timeout);
    }
    blocker_ticket.wait().expect("blocker succeeds");
    assert_eq!(
        server.anomaly_dumps(Anomaly::DeadlineMiss),
        1,
        "cooldown admits exactly one bundle for the burst"
    );
    let bundles: Vec<_> = std::fs::read_dir(&dir)
        .expect("dump dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("dump_deadline_miss_"))
        .collect();
    assert_eq!(bundles.len(), 1, "one bundle file on disk: {bundles:?}");
    let body = std::fs::read_to_string(dir.join(&bundles[0])).unwrap();
    let v = obs::json::Value::parse(&body).expect("bundle parses");
    assert_eq!(v["kind"].as_str(), Some("deadline_miss"));
    assert!(v["request_events"]
        .as_array()
        .is_some_and(|a| !a.is_empty()));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
