//! The two workloads that drive the run server over loopback TCP from
//! two closed-loop clients (two tenants, one connection each):
//! `serve_cold`, where every request is a distinct canonical `RunKey`,
//! and `serve_hot`, where sixteen pre-filled keys are drawn again and
//! again. The server runs in-process (`serve::tcp::serve` on port 0,
//! default `ServerConfig`) but is only ever spoken to through its
//! socket.

use crate::trace::SpanLog;
use crate::workload::{
    clamp_ns, pretouched, serial_checksums, BlockResult, Finish, Shape, Stop, Workload,
};
use overlap::{Impl, RunKey, RunLimits, RunParams};
use serve::protocol::{render_request, Request};
use serve::server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients: two tenants, one connection each.
pub const CLIENTS: usize = 2;

/// The shape of the hot keys' smaller half, and the request the
/// workloads without a run shape of their own probe the layers with.
pub const HOT_SHAPE: Shape = Shape {
    grid: 16,
    steps: 8,
    block: (8, 8),
    thickness: 2,
    machine: "",
};

/// A request in the middle of the cold key space (grid 8..=20, steps
/// 1..=48), for the layer probes of `serve_cold`.
pub const COLD_SHAPE: Shape = Shape {
    grid: 14,
    steps: 24,
    ..HOT_SHAPE
};

/// Cost strata the cold key space is cut into. Every window of this many
/// consecutive requests holds one key of each stratum, so the mix of
/// cheap and dear requests is the same for every seed and for however
/// many requests a timed block gets through.
const STRATA: usize = 24;

/// Latency slots reserved per client per second of a timed hot block
/// (about three times the reference host's rate).
const HOT_CAP_PER_SECOND: f64 = 100_000.0;

/// SplitMix64: the harness's only random source, seeded from `--seed`.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle<T>(items: &mut [T], rng: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix(rng) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The in-process server behind its TCP front end.
pub struct LiveServer {
    server: Arc<Server>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    addr: SocketAddr,
}

impl LiveServer {
    /// Start the server and its accept loop on an ephemeral port.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Self> {
        let server = Server::start(cfg);
        let (tx, rx) = std::sync::mpsc::channel();
        let for_thread = Arc::clone(&server);
        let thread = std::thread::Builder::new()
            .name("bench-serve-accept".to_string())
            .spawn(move || {
                serve::tcp::serve(for_thread, "127.0.0.1:0", move |addr| {
                    let _ = tx.send(addr);
                })
            })?;
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(addr) => Ok(Self {
                server,
                thread,
                addr,
            }),
            Err(_) => {
                // Bind failed: the thread has returned the error.
                server.shutdown();
                Err(thread
                    .join()
                    .ok()
                    .and_then(Result::err)
                    .unwrap_or_else(|| std::io::Error::other("server did not report its address")))
            }
        }
    }

    /// A new client connection.
    pub fn connect(&self) -> std::io::Result<Conn> {
        Conn::open(self.addr)
    }

    /// The server handle, for counters and in-process probes.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Ask the server to stop over the wire and wait until its accept
    /// loop, connection threads and workers have all ended. Callers drop
    /// their connections first, or each costs one read-timeout tick.
    pub fn shutdown(self) -> std::io::Result<()> {
        let asked = self
            .connect()
            .and_then(|mut c| c.roundtrip("{\"cmd\":\"shutdown\"}\n").map(|_| ()));
        if asked.is_err() {
            // The accept loop cannot be told to stop; stop the workers at
            // least, and report.
            self.server.shutdown();
            return asked;
        }
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("accept loop panicked"))?
    }
}

/// One client connection: strict request/response, one line each way.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Longer than the server's default 30 s deadline: a stuck request
        // comes back as a timeout error line, not as a hung harness.
        stream.set_read_timeout(Some(Duration::from_secs(40)))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::with_capacity(1024),
        })
    }

    /// Send one request line (newline included).
    pub fn send(&mut self, request: &str) -> std::io::Result<()> {
        self.writer.write_all(request.as_bytes())
    }

    /// Receive one response line, without its newline.
    pub fn recv(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end_matches('\n'))
    }

    /// Send and receive.
    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<&str> {
        self.send(request)?;
        self.recv()
    }
}

/// The unsigned integer after `"<field>":` in a response line.
pub fn field_u64(line: &str, field: &str) -> Option<u64> {
    let at = line.find(&format!("\"{field}\":"))? + field.len() + 3;
    let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
    line[at..at + digits].parse().ok()
}

/// The checksum a response line carries.
pub fn response_checksum(line: &str) -> Option<u64> {
    let at = line.find("\"checksum\":\"")? + 12;
    u64::from_str_radix(line.get(at..at + 16)?, 16).ok()
}

/// One cold request: the line on the wire and what must come back.
#[derive(Debug, Clone)]
pub struct ColdRequest {
    /// Canonical key, kept to prove the sequence has no duplicates.
    pub key: RunKey,
    /// The rendered request line, newline included.
    pub line: String,
    /// Serial-reference checksum of (grid, steps).
    pub want: u64,
    /// Stencil flops this request's run performs.
    pub flops: u64,
}

/// The axes of the cold key space.
#[derive(Debug, Clone, Copy)]
pub struct ColdSpace {
    /// Grid edges, inclusive.
    pub grids: (u32, u32),
    /// Step counts, inclusive.
    pub steps: (u32, u32),
    /// Cost strata (a divisor-friendly count; remainders are dropped).
    pub strata: usize,
}

impl ColdSpace {
    /// The benchmark's space: nine implementations × grid 8..=20 × steps
    /// 1..=48 × tasks {1, 2}, 9984 distinct keys after canonicalization.
    pub const FULL: ColdSpace = ColdSpace {
        grids: (8, 20),
        steps: (1, 48),
        strata: STRATA,
    };
    /// A few dozen tiny keys for `--smoke` and the tests.
    pub const SMOKE: ColdSpace = ColdSpace {
        grids: (8, 10),
        steps: (1, 3),
        strata: 4,
    };
}

/// The cold request sequence for `seed`: a permutation without
/// repetition of every distinct canonical key in `space`, stratified by
/// cost (steps × grid³) so any window of `space.strata` consecutive
/// requests has the same mix. Position `i` belongs to tenant `i % 2`.
pub fn cold_requests(seed: u64, space: ColdSpace) -> Vec<ColdRequest> {
    let limits = RunLimits::default();
    let mut distinct: BTreeMap<RunKey, RunParams> = BTreeMap::new();
    for im in Impl::ALL {
        for grid in space.grids.0..=space.grids.1 {
            for steps in space.steps.0..=space.steps.1 {
                for tasks in [1, 2] {
                    let params = RunParams {
                        impl_slug: im.slug().to_string(),
                        grid,
                        steps,
                        tasks,
                        threads: 1,
                        block: (8, 8),
                        thickness: 2,
                        ..RunParams::default()
                    };
                    let key = params
                        .canonicalize(&limits)
                        .expect("every point of the cold space is a valid request");
                    distinct.entry(key).or_insert(params);
                }
            }
        }
    }
    let sums: BTreeMap<u32, Vec<u64>> = (space.grids.0..=space.grids.1)
        .map(|g| (g, serial_checksums(g, space.steps.1)))
        .collect();
    let mut by_cost: Vec<(u64, RunKey, RunParams)> = distinct
        .into_iter()
        .map(|(k, p)| (k.steps() as u64 * (k.grid() as u64).pow(3), k, p))
        .collect();
    by_cost.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let per_stratum = by_cost.len() / space.strata;
    let mut rng = seed ^ 0xc01d_c01d_c01d_c01d;
    let mut strata: Vec<Vec<(u64, RunKey, RunParams)>> = Vec::with_capacity(space.strata);
    let mut rest = by_cost.into_iter();
    for _ in 0..space.strata {
        let mut s: Vec<_> = rest.by_ref().take(per_stratum).collect();
        shuffle(&mut s, &mut rng);
        strata.push(s);
    }
    let mut order: Vec<usize> = (0..space.strata).collect();
    let mut out = Vec::with_capacity(per_stratum * space.strata);
    for _ in 0..per_stratum {
        shuffle(&mut order, &mut rng);
        for &s in &order {
            let (_, key, params) = strata[s].pop().expect("strata are equally long");
            let want = sums[&key.grid()][key.steps() as usize - 1];
            let flops =
                advect_core::flops::total_flops((key.grid() as u64).pow(3), key.steps() as u64);
            let line = render_request(&Request {
                tenant: format!("tenant-{}", out.len() % CLIENTS),
                params,
                timeout_ms: None,
            }) + "\n";
            out.push(ColdRequest {
                key,
                line,
                want,
                flops,
            });
        }
    }
    out
}

/// The sixteen hot keys: all nine implementations at grid 16 and the
/// first seven at grid 20, eight steps each.
fn hot_params(smoke: bool) -> Vec<RunParams> {
    let (small, large, steps) = if smoke { (8, 10, 2) } else { (16, 20, 8) };
    let shape = |grid| Shape {
        grid,
        steps,
        ..HOT_SHAPE
    };
    Impl::ALL
        .iter()
        .map(|&im| (im, small))
        .chain(Impl::ALL.iter().take(7).map(|&im| (im, large)))
        .map(|(im, grid)| RunParams {
            threads: 1,
            ..shape(grid).params(im, steps)
        })
        .collect()
}

/// What the clients send and expect.
enum Traffic {
    /// Distinct keys; client `c` walks positions `c, c + 2, …`.
    Cold {
        requests: Vec<ColdRequest>,
        next: [usize; CLIENTS],
    },
    /// Sixteen keys drawn by a per-client LCG.
    Hot {
        /// Request lines per client (the tenant differs).
        lines: [Vec<String>; CLIENTS],
        /// The whole cached response line per key, recorded at pre-fill.
        want: Vec<String>,
        rng: [u64; CLIENTS],
    },
}

/// A serve workload after set-up.
pub struct ServeLoad {
    live: LiveServer,
    conns: Vec<Conn>,
    traffic: Traffic,
    /// Requests sent so far, warm-up and pre-fill included.
    sent: u64,
    /// Requests that did not come back right.
    failed: u64,
    /// Requests set-up sent only to warm the server up.
    warmup: u64,
}

impl ServeLoad {
    /// Start a server with `cfg` and connect both clients; no request is
    /// sent yet.
    fn start(cfg: ServerConfig, traffic: Traffic) -> std::io::Result<Self> {
        let live = LiveServer::start(cfg)?;
        let conns = (0..CLIENTS)
            .map(|_| live.connect())
            .collect::<std::io::Result<_>>()?;
        Ok(Self {
            live,
            conns,
            traffic,
            sent: 0,
            failed: 0,
            warmup: 0,
        })
    }

    /// `serve_cold` on `cfg`, before any warm-up.
    pub fn cold_unwarmed(cfg: ServerConfig, seed: u64, space: ColdSpace) -> std::io::Result<Self> {
        Self::start(
            cfg,
            Traffic::Cold {
                requests: cold_requests(seed, space),
                next: std::array::from_fn(|c| c),
            },
        )
    }

    /// Set up `serve_cold`: generate and render the key sequence, compute
    /// the serial references, start the server, and warm up with the
    /// first two windows of requests (which the timed blocks then skip).
    pub fn setup_cold(seed: u64, smoke: bool) -> std::io::Result<Self> {
        let space = if smoke {
            ColdSpace::SMOKE
        } else {
            ColdSpace::FULL
        };
        let mut w = Self::cold_unwarmed(ServerConfig::default(), seed, space)?;
        let mut off: Vec<SpanLog> = (0..CLIENTS)
            .map(|c| SpanLog::new(false, Instant::now(), c as u32))
            .collect();
        let warm = w.run_block(Stop::Ops(space.strata), &mut off);
        assert_eq!(warm.failed, 0, "cold warm-up request failed");
        w.warmup = warm.attempted();
        Ok(w)
    }

    /// Set up `serve_hot`: start the server, execute each hot key once
    /// (checked against the serial reference) and once more to record
    /// the cached response line every later hit must equal.
    pub fn setup_hot(seed: u64, smoke: bool) -> std::io::Result<Self> {
        let params = hot_params(smoke);
        let lines: [Vec<String>; CLIENTS] = std::array::from_fn(|c| {
            params
                .iter()
                .map(|p| {
                    render_request(&Request {
                        tenant: format!("tenant-{c}"),
                        params: p.clone(),
                        timeout_ms: None,
                    }) + "\n"
                })
                .collect()
        });
        let mut seed_state = seed ^ 0x0707_0707_0707_0707;
        let rng = std::array::from_fn(|_| splitmix(&mut seed_state));
        let mut w = Self::start(
            ServerConfig::default(),
            Traffic::Hot {
                lines,
                want: Vec::new(),
                rng,
            },
        )?;
        let Traffic::Hot { lines, want, .. } = &mut w.traffic else {
            unreachable!("constructed as hot above");
        };
        for (p, line) in params.iter().zip(&lines[0]) {
            let reference = crate::workload::serial_checksum(p.grid, p.steps);
            let cold = w.conns[0].roundtrip(line)?;
            assert!(
                cold.starts_with("{\"status\":\"ok\",\"cached\":false,")
                    && response_checksum(cold) == Some(reference),
                "pre-fill of {} answered {cold}",
                p.impl_slug
            );
            let hit = w.conns[0].roundtrip(line)?;
            assert!(
                hit.starts_with("{\"status\":\"ok\",\"cached\":true,")
                    && response_checksum(hit) == Some(reference),
                "cached re-read of {} answered {hit}",
                p.impl_slug
            );
            want.push(hit.to_string());
            w.sent += 2;
        }
        Ok(w)
    }

    fn is_cold(&self) -> bool {
        matches!(self.traffic, Traffic::Cold { .. })
    }
}

/// One client's share of a block.
struct ClientBlock {
    lat: Vec<u32>,
    failed: u64,
    counters: crate::workload::Counters,
    artifact_bytes: u64,
}

impl Workload for ServeLoad {
    fn clients(&self) -> usize {
        CLIENTS
    }

    fn run_block(&mut self, stop: Stop, logs: &mut [SpanLog]) -> BlockResult {
        let cap = match (&self.traffic, stop) {
            (_, Stop::Ops(n)) => n,
            (Traffic::Hot { .. }, Stop::Seconds(s)) => (s * HOT_CAP_PER_SECOND) as usize,
            (Traffic::Cold { requests, .. }, Stop::Seconds(_)) => requests.len() / CLIENTS,
        };
        let epoch = Instant::now();
        // Op ids keep counting across blocks: each op has one root span.
        let first_op = self.sent;
        let traffic = &self.traffic;
        let parts: Vec<ClientBlock> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(logs.iter_mut())
                .enumerate()
                .map(|(c, (conn, log))| {
                    scope.spawn(move || {
                        let mut part = ClientBlock {
                            lat: pretouched(cap),
                            failed: 0,
                            counters: Default::default(),
                            artifact_bytes: 0,
                        };
                        let (mut next, mut rng) = match traffic {
                            Traffic::Cold { next, .. } => (next[c], 0),
                            Traffic::Hot { rng, .. } => (0, rng[c]),
                        };
                        while !stop.reached(part.lat.len(), epoch, CLIENTS) && part.lat.len() < cap
                        {
                            let (line, cold) = match traffic {
                                Traffic::Cold { requests, .. } => {
                                    let Some(r) = requests.get(next) else { break };
                                    next += CLIENTS;
                                    (r.line.as_str(), Some(r))
                                }
                                Traffic::Hot { lines, .. } => {
                                    rng = rng
                                        .wrapping_mul(6_364_136_223_846_793_005)
                                        .wrapping_add(1_442_695_040_888_963_407);
                                    next = (rng >> 33) as usize % lines[c].len();
                                    (lines[c][next].as_str(), None)
                                }
                            };
                            let op = first_op + (part.lat.len() * CLIENTS + c + 1) as u64;
                            let root = log.open("op.request", None, op);
                            let t0 = Instant::now();
                            let sent =
                                log.span("serve.wire.send", Some(root), op, || conn.send(line));
                            let recv = log.open("serve.wire.recv", Some(root), op);
                            let response = sent.and_then(|()| conn.recv());
                            let ns = t0.elapsed().as_nanos() as u64;
                            log.close(recv);
                            let verify = log.open("harness.verify", Some(root), op);
                            let ok = match (&response, cold, traffic) {
                                (Ok(resp), Some(r), _) => {
                                    part.artifact_bytes += resp.len() as u64;
                                    part.counters.flops += r.flops;
                                    // What the artifact says the run did.
                                    let read = |f| field_u64(resp, f).unwrap_or(0);
                                    part.counters.messages += read("messages");
                                    part.counters.values += read("values_sent");
                                    part.counters.launches += read("stencil_launches");
                                    part.counters.pcie_points +=
                                        read("h2d_points") + read("d2h_points");
                                    resp.starts_with("{\"status\":\"ok\",\"cached\":false,")
                                        && response_checksum(resp) == Some(r.want)
                                }
                                (Ok(resp), None, Traffic::Hot { want, .. }) => {
                                    part.artifact_bytes += resp.len() as u64;
                                    *resp == want[next]
                                }
                                _ => false,
                            };
                            log.close(verify);
                            log.close(root);
                            part.failed += !ok as u64;
                            part.lat.push(clamp_ns(ns));
                        }
                        (part, next, rng)
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(c, h)| {
                    let (part, next, rng) = h.join().expect("client thread panicked");
                    (c, part, next, rng)
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .map(|(c, part, next, rng)| {
            // Hand each client's cursor back for the next block.
            match &mut self.traffic {
                Traffic::Cold { next: n, .. } => n[c] = next,
                Traffic::Hot { rng: r, .. } => r[c] = rng,
            }
            part
        })
        .collect();

        let mut out = BlockResult::default();
        for part in parts {
            out.failed += part.failed;
            out.counters.merge(&part.counters);
            out.artifact_bytes += part.artifact_bytes;
            out.lat_ns.push(part.lat);
        }
        self.sent += out.attempted();
        self.failed += out.failed;
        out
    }

    fn probe_shape(&self) -> Shape {
        if self.is_cold() {
            COLD_SHAPE
        } else {
            HOT_SHAPE
        }
    }

    fn round(&self) -> &[Impl] {
        &[]
    }

    fn runs_per_op(&self) -> (f64, f64) {
        // A cold request is one run; seven of the nine implementations
        // exchange halos. A hot request runs nothing.
        if self.is_cold() {
            (1.0, 7.0 / 9.0)
        } else {
            (0.0, 0.0)
        }
    }

    fn execute_sample(&self) -> Vec<RunKey> {
        match &self.traffic {
            // The last window: one key of every cost stratum, and the
            // least likely to be requested in this run.
            Traffic::Cold { requests, .. } => {
                let window = requests.len().min(STRATA);
                requests[requests.len() - window..]
                    .iter()
                    .map(|r| r.key.clone())
                    .collect()
            }
            Traffic::Hot { .. } => Vec::new(),
        }
    }

    fn finish(self: Box<Self>) -> Finish {
        let ServeLoad {
            live,
            conns,
            traffic,
            sent,
            failed,
            warmup,
            ..
        } = *self;
        let stats = live.server().stats();
        // Close the client sockets first so the connection threads end at
        // once instead of at their next read-timeout tick.
        drop(conns);
        let mut violations = Vec::new();
        if let Err(e) = live.shutdown() {
            violations.push(format!("server shutdown: {e}"));
        }
        // With failed requests the counts cannot be expected to line up;
        // the failures themselves are already reported.
        if failed == 0 {
            match traffic {
                Traffic::Cold { .. } => {
                    if stats.executions != sent || stats.cache_hits != 0 {
                        violations.push(format!(
                            "serve_cold: {} executions and {} cache hits for {sent} distinct requests",
                            stats.executions, stats.cache_hits
                        ));
                    }
                }
                Traffic::Hot { want, .. } => {
                    if stats.executions != want.len() as u64 {
                        violations.push(format!(
                            "serve_hot: {} executions for {} hot keys",
                            stats.executions,
                            want.len()
                        ));
                    }
                }
            }
        }
        Finish {
            server: Some(stats),
            warmup_requests: warmup,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn cold_sequences_never_repeat_a_canonical_key() {
        for seed in 1..=3 {
            let requests = cold_requests(seed, ColdSpace::FULL);
            assert_eq!(requests.len(), 9984, "seed {seed}");
            let keys: BTreeSet<&RunKey> = requests.iter().map(|r| &r.key).collect();
            assert_eq!(keys.len(), requests.len(), "seed {seed} repeats a key");
        }
    }

    #[test]
    fn cold_sequences_depend_on_the_seed_but_not_their_mix() {
        let a = cold_requests(1, ColdSpace::FULL);
        let b = cold_requests(2, ColdSpace::FULL);
        assert_eq!(
            a.iter().map(|r| &r.line).collect::<Vec<_>>(),
            cold_requests(1, ColdSpace::FULL)
                .iter()
                .map(|r| &r.line)
                .collect::<Vec<_>>()
        );
        assert!(a.iter().zip(&b).any(|(x, y)| x.key != y.key));
        // Every window of STRATA requests does the same stencil work to
        // within the width of one stratum, whatever the seed.
        let window = |r: &[ColdRequest], i: usize| -> u64 {
            r[i * STRATA..(i + 1) * STRATA]
                .iter()
                .map(|q| q.flops)
                .sum()
        };
        let (lo, hi) = (0..a.len() / STRATA)
            .flat_map(|i| [window(&a, i), window(&b, i)])
            .fold((u64::MAX, 0), |(lo, hi), w| (lo.min(w), hi.max(w)));
        assert!((hi as f64) < lo as f64 * 1.35, "windows span {lo}..{hi}");
    }

    #[test]
    fn response_fields_parse() {
        let line = "{\"status\":\"ok\",\"cached\":false,\"artifact\":{\"checksum\":\"00000000000000ff\",\"messages\":48,\"values_sent\":1200,\"gpu\":{\"stencil_launches\":6,\"h2d_points\":10,\"d2h_points\":12}}}";
        assert_eq!(response_checksum(line), Some(255));
        assert_eq!(field_u64(line, "messages"), Some(48));
        assert_eq!(field_u64(line, "d2h_points"), Some(12));
        assert_eq!(field_u64(line, "absent"), None);
        assert_eq!(response_checksum("{\"status\":\"error\"}"), None);
    }

    #[test]
    fn a_refused_request_lands_in_failed() {
        // A server that can queue nothing refuses every cold request.
        let cfg = ServerConfig {
            queue_capacity: 0,
            ..ServerConfig::default()
        };
        let mut w = ServeLoad::cold_unwarmed(cfg, 1, ColdSpace::SMOKE).unwrap();
        let mut logs: Vec<SpanLog> = (0..CLIENTS)
            .map(|c| SpanLog::new(false, Instant::now(), c as u32))
            .collect();
        let block = w.run_block(Stop::Ops(3), &mut logs);
        assert_eq!(block.attempted(), 6);
        assert_eq!(block.failed, 6, "every refusal is a failed op");
        let finish = Box::new(w).finish();
        assert_eq!(finish.server.unwrap().rejects, 6);
        assert!(finish.violations.is_empty(), "{:?}", finish.violations);
    }

    #[test]
    fn hot_requests_hit_the_cache_and_match_byte_for_byte() {
        let mut w = ServeLoad::setup_hot(1, true).unwrap();
        let mut logs: Vec<SpanLog> = (0..CLIENTS)
            .map(|c| SpanLog::new(true, Instant::now(), c as u32))
            .collect();
        let block = w.run_block(Stop::Ops(50), &mut logs);
        assert_eq!((block.attempted(), block.failed), (100, 0));
        crate::trace::check_structure(&logs).unwrap();
        let finish = Box::new(w).finish();
        let stats = finish.server.unwrap();
        assert_eq!(stats.executions, 16);
        assert_eq!(stats.cache_hits, 100 + 16);
        assert!(finish.violations.is_empty(), "{:?}", finish.violations);
    }
}
