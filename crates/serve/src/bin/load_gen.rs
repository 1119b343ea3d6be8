//! Closed-loop load generator for the run server.
//!
//! Spawns N tenant threads, each issuing a deterministic mix of
//! requests back-to-back (closed loop: one outstanding request per
//! tenant). A configurable fraction draws from a small shared pool of
//! hot keys — the same keys across tenants, which is what exercises the
//! cache and in-flight dedup — and the rest are unique cold keys.
//!
//! Reports requests/s and p50/p95/p99 latency — aggregate and per
//! tenant — the server's cache-hit count, and whether every repeated
//! key returned byte-identical artifact bytes. `--check` turns the
//! report into a gate: exit 0 iff cache hits > 0, byte-identity holds,
//! no request errored, and the **worst tenant's** p99 is within budget
//! (per-tenant gating catches a fairness regression that aggregate p99
//! averages away).
//!
//! Anomaly inducers for the recorder-smoke CI job: each issues one
//! engineered request after the main load and records whether the
//! expected trigger fired.
//!
//! * `--induce-deadline-miss` — a cold run with `timeout_ms=1`; the
//!   expected outcome is a `deadline exceeded` error (which trips the
//!   server's `deadline_miss` anomaly dump).
//! * `--induce-straggler SEED` — a traced chaos run whose seed is known
//!   to throttle one rank (the server flags it and dumps a `straggler`
//!   bundle). Single-run detection is a statistical verdict on measured
//!   busy times, so any one seed can miss on a noisy box; the inducer
//!   checks the server's event log after each attempt and falls back to
//!   alternate known-throttling seeds until one is flagged. Seed 38 at
//!   the inducer shape (nonblocking, grid 32, steps 8, 4 ranks) is the
//!   most reliable on the reference box.
//!
//! ```text
//! load_gen [--addr HOST:PORT | --in-process] [--tenants N]
//!          [--requests N] [--dup-fraction F] [--p99-budget-ms MS]
//!          [--workers N] [--out FILE] [--check] [--shutdown]
//!          [--induce-deadline-miss] [--induce-straggler SEED]
//! ```

use obs::json::{self, Value};
use overlap::{RunLimits, RunParams};
use serve::protocol::{render_request, Request};
use serve::server::{Server, ServerConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The hot pool: few distinct keys shared by every tenant, so
/// duplicates collide across tenants.
fn hot_request(tenant: &str, pick: u64) -> Request {
    let shapes = [
        ("bulk_sync", 10, 2, 2),
        ("nonblocking", 10, 2, 2),
        ("bulk_sync", 12, 1, 4),
    ];
    let (impl_slug, grid, steps, tasks) = shapes[(pick as usize) % shapes.len()];
    Request {
        tenant: tenant.to_string(),
        params: RunParams {
            impl_slug: impl_slug.into(),
            grid,
            steps,
            tasks,
            threads: 1,
            ..RunParams::default()
        },
        timeout_ms: None,
    }
}

/// Cold keys: unique per (tenant, sequence) via the fault seed, which
/// is part of the canonical key.
fn cold_request(tenant: &str, tenant_idx: u64, seq: u64) -> Request {
    Request {
        tenant: tenant.to_string(),
        params: RunParams {
            impl_slug: "bulk_sync".into(),
            grid: 8,
            steps: 1,
            tasks: 2,
            threads: 1,
            fault_seed: Some(1 + tenant_idx * 100_000 + seq),
            ..RunParams::default()
        },
        timeout_ms: None,
    }
}

enum Client {
    InProcess(Arc<Server>),
    Tcp(BufReader<TcpStream>),
}

impl Client {
    fn connect(addr: Option<&str>, server: Option<&Arc<Server>>) -> Result<Client, String> {
        match (addr, server) {
            (Some(addr), _) => {
                let stream =
                    TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                let _ = stream.set_nodelay(true);
                Ok(Client::Tcp(BufReader::new(stream)))
            }
            (None, Some(server)) => Ok(Client::InProcess(Arc::clone(server))),
            _ => Err("no server".into()),
        }
    }

    /// Issue one run; returns `(cached, artifact_bytes)`.
    fn run(&mut self, req: &Request) -> Result<(bool, String), String> {
        match self {
            Client::InProcess(server) => {
                let resp = server.run(req).map_err(|e| e.to_string())?;
                Ok((resp.cached, (*resp.artifact).clone()))
            }
            Client::Tcp(reader) => {
                let line = Self::roundtrip(reader, &render_request(req))?;
                // Keep the artifact's exact bytes (no reparse/reprint):
                // everything between `"artifact":` and the final `}`.
                let v = Value::parse(&line).map_err(|e| format!("bad response: {e}"))?;
                match v["status"].as_str() {
                    Some("ok") => {}
                    _ => {
                        return Err(v["error"].as_str().unwrap_or("unknown error").to_string());
                    }
                }
                let cached = v["cached"].as_bool().unwrap_or(false);
                let start = line
                    .find("\"artifact\":")
                    .ok_or_else(|| "response missing artifact".to_string())?;
                let artifact = line[start + "\"artifact\":".len()..line.len() - 1].to_string();
                Ok((cached, artifact))
            }
        }
    }

    fn roundtrip(reader: &mut BufReader<TcpStream>, line: &str) -> Result<String, String> {
        let stream = reader.get_mut();
        stream
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|_| stream.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        reader
            .read_line(&mut response)
            .map_err(|e| format!("recv: {e}"))?;
        if response.is_empty() {
            return Err("connection closed".into());
        }
        Ok(response.trim_end().to_string())
    }

    fn cache_hits(&mut self) -> Result<u64, String> {
        let text = match self {
            Client::InProcess(server) => return Ok(server.stats().cache_hits),
            Client::Tcp(reader) => {
                let line = Self::roundtrip(reader, "{\"cmd\":\"metrics\"}")?;
                let v = Value::parse(&line).map_err(|e| format!("bad metrics: {e}"))?;
                v["metrics"].as_str().unwrap_or("").to_string()
            }
        };
        for metrics_line in text.lines() {
            if let Some(rest) = metrics_line.strip_prefix("serve_cache_hits_total") {
                if let Ok(v) = rest.trim().parse::<f64>() {
                    return Ok(v as u64);
                }
            }
        }
        Err("serve_cache_hits_total not in metrics".into())
    }

    /// Has the server flagged a straggler yet? In process that is the
    /// anomaly trigger count; over the wire it is a `straggler` entry in
    /// the structured event log.
    fn straggler_flagged(&mut self) -> bool {
        match self {
            Client::InProcess(server) => {
                server.anomaly_dumps(serve::reqtrace::Anomaly::Straggler) >= 1
            }
            Client::Tcp(reader) => Self::roundtrip(reader, "{\"cmd\":\"events\"}")
                .is_ok_and(|line| line.contains("\"event\":\"straggler\"")),
        }
    }

    fn shutdown(&mut self) {
        match self {
            Client::InProcess(server) => server.shutdown(),
            Client::Tcp(reader) => {
                let _ = Self::roundtrip(reader, "{\"cmd\":\"shutdown\"}");
            }
        }
    }
}

struct Sample {
    tag: String,
    artifact: String,
    latency_ns: u64,
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn quantile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e6
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: load_gen [--addr HOST:PORT | --in-process] [--tenants N] [--requests N] \
             [--dup-fraction F] [--p99-budget-ms MS] [--workers N] [--out FILE] [--check] [--shutdown]"
        );
        return;
    }
    let addr: Option<String> = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let tenants: usize = parse_flag(&args, "--tenants", 4);
    let requests: usize = parse_flag(&args, "--requests", 25);
    let dup_fraction: f64 = parse_flag(&args, "--dup-fraction", 0.5);
    let p99_budget_ms: f64 = parse_flag(&args, "--p99-budget-ms", 5000.0);
    let check = args.iter().any(|a| a == "--check");
    let send_shutdown = args.iter().any(|a| a == "--shutdown");
    let induce_deadline_miss = args.iter().any(|a| a == "--induce-deadline-miss");
    let induce_straggler: Option<u64> = args
        .iter()
        .position(|a| a == "--induce-straggler")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    let out: Option<String> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let server = if addr.is_none() {
        Some(Server::start(ServerConfig {
            workers: parse_flag(&args, "--workers", 2),
            ..ServerConfig::default()
        }))
    } else {
        None
    };

    let started = Instant::now();
    let mut threads = Vec::new();
    for t in 0..tenants {
        let addr = addr.clone();
        let server = server.clone();
        let tenant = format!("tenant-{t}");
        threads.push(std::thread::spawn(move || {
            let mut client =
                Client::connect(addr.as_deref(), server.as_ref()).expect("client connects");
            let mut rng = Lcg(0x9e37_79b9 ^ (t as u64) << 17);
            let mut samples = Vec::with_capacity(requests);
            let mut errors = Vec::new();
            for i in 0..requests {
                let dup = (rng.next() % 1000) as f64 / 1000.0 < dup_fraction;
                let req = if dup {
                    hot_request(&tenant, rng.next())
                } else {
                    cold_request(&tenant, t as u64, i as u64)
                };
                let tag = req
                    .params
                    .canonicalize(&RunLimits::default())
                    .expect("generated requests are valid")
                    .tag();
                let t0 = Instant::now();
                match client.run(&req) {
                    Ok((_cached, artifact)) => samples.push(Sample {
                        tag,
                        artifact,
                        latency_ns: t0.elapsed().as_nanos() as u64,
                    }),
                    Err(e) => errors.push(format!("{tenant}#{i} {tag}: {e}")),
                }
            }
            (tenant, samples, errors)
        }));
    }
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    let mut per_tenant: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for th in threads {
        let (tenant, s, e) = th.join().expect("tenant thread");
        per_tenant
            .entry(tenant)
            .or_default()
            .extend(s.iter().map(|x| x.latency_ns));
        samples.extend(s);
        errors.extend(e);
    }
    let wall_s = started.elapsed().as_secs_f64();

    // Byte-identity: every repeated key must have returned exactly one
    // distinct artifact byte string.
    let mut by_key: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for s in &samples {
        by_key.entry(&s.tag).or_default().insert(&s.artifact);
    }
    let split_keys: Vec<&str> = by_key
        .iter()
        .filter(|(_, set)| set.len() > 1)
        .map(|(k, _)| *k)
        .collect();
    let identity_ok = split_keys.is_empty();

    let mut latencies: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    latencies.sort_unstable();
    let rps = samples.len() as f64 / wall_s.max(1e-9);
    let p50 = quantile_ms(&latencies, 0.50);
    let p95 = quantile_ms(&latencies, 0.95);
    let p99 = quantile_ms(&latencies, 0.99);

    // Per-tenant tails, and the tenant whose p99 is worst — the number
    // `--check` gates, because a fairness regression shows up as one
    // tenant's tail blowing out while the aggregate stays flat.
    let mut tenant_stats: Vec<(String, usize, f64, f64, f64)> = Vec::new();
    for (tenant, lats) in &mut per_tenant {
        lats.sort_unstable();
        tenant_stats.push((
            tenant.clone(),
            lats.len(),
            quantile_ms(lats, 0.50),
            quantile_ms(lats, 0.95),
            quantile_ms(lats, 0.99),
        ));
    }
    let (worst_tenant, worst_p99) = tenant_stats
        .iter()
        .max_by(|a, b| a.4.total_cmp(&b.4))
        .map(|(t, _, _, _, p99)| (t.clone(), *p99))
        .unwrap_or_default();

    let mut client = Client::connect(addr.as_deref(), server.as_ref()).expect("client connects");

    // Induced anomalies: one engineered request per flag, issued after
    // the main load so they cannot disturb the latency numbers.
    let mut induced: Vec<(&str, bool, String)> = Vec::new();
    if induce_deadline_miss {
        // Cold (unique seed) and heavy enough that a 1ms deadline
        // always expires while the worker is still executing.
        let req = Request {
            tenant: "inducer".to_string(),
            params: RunParams {
                impl_slug: "bulk_sync".into(),
                grid: 24,
                steps: 16,
                tasks: 4,
                threads: 1,
                fault_seed: Some(0xdead_11fe),
                ..RunParams::default()
            },
            timeout_ms: Some(1),
        };
        let (ok, detail) = match client.run(&req) {
            Err(e) if e.contains("deadline") => (true, e),
            Ok(_) => (false, "completed before the 1ms deadline".to_string()),
            Err(e) => (false, e),
        };
        induced.push(("deadline_miss", ok, detail));
    }
    if let Some(seed) = induce_straggler {
        // Traced chaos runs: the server inspects each report's straggler
        // verdict and dumps a bundle when a rank is flagged. Detection is
        // statistical (robust z-score over measured busy times), so one
        // seed can miss under scheduler noise; try the requested seed
        // first, then alternates with independently verified throttle
        // schedules, stopping at the first run the server flags. Distinct
        // seeds mean distinct cache keys, so every attempt executes; the
        // anomaly cooldown keeps the dump count at one regardless of how
        // many attempts trip.
        let mut attempts = vec![seed];
        attempts.extend([38, 22, 27, 9].iter().filter(|&&s| s != seed));
        let mut ok = false;
        let mut detail = String::new();
        for s in attempts {
            let req = Request {
                tenant: "inducer".to_string(),
                params: RunParams {
                    impl_slug: "nonblocking".into(),
                    grid: 32,
                    steps: 8,
                    tasks: 4,
                    threads: 1,
                    trace: true,
                    fault_seed: Some(s),
                    ..RunParams::default()
                },
                timeout_ms: None,
            };
            match client.run(&req) {
                Ok(_) if client.straggler_flagged() => {
                    ok = true;
                    detail = format!("flagged on traced chaos run, seed {s}");
                    break;
                }
                Ok(_) => detail = format!("seed {s} ran but no rank was flagged"),
                Err(e) => detail = format!("seed {s}: {e}"),
            }
        }
        induced.push(("straggler", ok, detail));
    }

    let cache_hits = client.cache_hits().unwrap_or(0);
    if send_shutdown || addr.is_none() {
        client.shutdown();
    }

    let per_tenant_json = tenant_stats
        .iter()
        .map(|(t, n, p50, p95, p99)| {
            format!(
                "{}:{{\"n\":{n},\"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{}}}",
                json::escape(t),
                json::number(*p50),
                json::number(*p95),
                json::number(*p99),
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let induced_json = induced
        .iter()
        .map(|(kind, ok, detail)| {
            format!(
                "{{\"kind\":\"{kind}\",\"ok\":{ok},\"detail\":{}}}",
                json::escape(detail)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let report = format!(
        "{{\"tenants\":{tenants},\"requests_per_tenant\":{requests},\"dup_fraction\":{},\
         \"completed\":{},\"errors\":{},\"wall_seconds\":{},\"rps\":{},\
         \"p50_ms\":{},\"p95_ms\":{},\"p99_ms\":{},\"p99_budget_ms\":{},\
         \"per_tenant\":{{{per_tenant_json}}},\
         \"worst_tenant\":{},\"worst_tenant_p99_ms\":{},\
         \"induced\":[{induced_json}],\
         \"cache_hits\":{cache_hits},\"distinct_keys\":{},\"identity_ok\":{identity_ok},\
         \"split_keys\":[{}]}}",
        json::number(dup_fraction),
        samples.len(),
        errors.len(),
        json::number(wall_s),
        json::number(rps),
        json::number(p50),
        json::number(p95),
        json::number(p99),
        json::number(p99_budget_ms),
        json::escape(&worst_tenant),
        json::number(worst_p99),
        by_key.len(),
        split_keys
            .iter()
            .map(|k| json::escape(k))
            .collect::<Vec<_>>()
            .join(","),
    );
    println!("{report}");
    for e in errors.iter().take(5) {
        eprintln!("load_gen error: {e}");
    }
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, format!("{report}\n")) {
            eprintln!("load_gen: write {path}: {e}");
        }
    }
    if check {
        let mut failures = Vec::new();
        if !errors.is_empty() {
            failures.push(format!("{} requests errored", errors.len()));
        }
        if cache_hits == 0 {
            failures.push("no cache hits".to_string());
        }
        if !identity_ok {
            failures.push(format!("split artifacts for keys: {split_keys:?}"));
        }
        if worst_p99 > p99_budget_ms {
            failures.push(format!(
                "worst tenant {worst_tenant} p99 {worst_p99:.1}ms over budget {p99_budget_ms:.1}ms"
            ));
        }
        for (kind, ok, detail) in &induced {
            if !ok {
                failures.push(format!("induced {kind} did not trip: {detail}"));
            }
        }
        if !failures.is_empty() {
            eprintln!("load_gen --check FAILED: {}", failures.join("; "));
            std::process::exit(1);
        }
        eprintln!("load_gen --check passed");
    }
}
