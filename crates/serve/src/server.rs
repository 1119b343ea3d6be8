//! The in-process run server: bounded queue, fixed worker pool,
//! per-tenant round-robin fairness, in-flight dedup, request-keyed LRU
//! cache, timeouts, and graceful drain.
//!
//! ## Scheduling
//!
//! Queued jobs live in per-tenant FIFO queues. Workers pick the next
//! job round-robin across tenant ids (cursor over the sorted tenant
//! map), skipping tenants already at their running cap — so a tenant
//! flooding the queue gets at most its fair share of workers, and other
//! tenants' requests overtake the flood rather than waiting behind it.
//! The aggregate queue is bounded; submissions past the bound are
//! rejected immediately with [`ServeError::Overloaded`] (dedup joins
//! and cache hits never count against the bound).
//!
//! ## Dedup and caching
//!
//! Both are keyed by the canonicalized [`RunKey`]. A submission whose
//! key is already queued or running joins that execution's waiter list;
//! the single execution's rendered artifact is handed to every waiter
//! and stored in the LRU cache, so identical requests always receive
//! byte-identical bytes.
//!
//! ## Timeouts and shutdown
//!
//! A waiter that times out abandons its ticket; if it was the last
//! waiter and the job had not started, the job is cancelled in place
//! (removed from the queue). A running job is never interrupted — the
//! worker finishes, caches the artifact, and the pool stays reusable.
//! [`Server::shutdown`] stops accepting work, wakes the workers, lets
//! them drain every queued and running job, and joins them.
//!
//! ## Observability
//!
//! Every submission gets a request id and a lifecycle event chain in
//! the always-on flight recorder (see [`crate::reqtrace`]): `accepted →
//! queued → executing → rendered → responded`, with `cache-hit`,
//! `dedup-join`, `timed-out`, and `rejected` branches. Traced runs park
//! their spans in a small trace ring. On an anomaly — a deadline miss or
//! a straggler flag — the server dumps a self-contained JSON bundle
//! (request timeline stitched to run traces, metrics, blame matrix) to
//! `dump_dir`, at most once per kind per cooldown. Notable transitions
//! also land in the structured event log ([`crate::log`]), queryable via
//! `{"cmd":"events"}`.

use crate::artifact;
use crate::cache::LruCache;
use crate::log::{Level, Log};
use crate::protocol::Request;
use crate::reqtrace::{self, Anomaly, BundleInput, ReqEvent, RequestId, Stage};
use obs::recorder::{Ring, StoredRun, TraceRing};
use obs::registry::{Counter, Gauge, Histogram, Metrics};
use overlap::{RunKey, RunLimits};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Max jobs from one tenant running concurrently.
const TENANT_MAX_RUNNING: usize = 1;
/// Deadline applied when a request carries no `timeout_ms`.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);
/// Flight-recorder event ring capacity.
const RECORDER_CAPACITY: usize = 256;
/// Traced runs kept for stitching.
const TRACE_RING_CAPACITY: usize = 4;
/// Structured-log ring capacity.
const LOG_CAPACITY: usize = 256;
/// Minimum spacing between dumps of the same anomaly kind.
const ANOMALY_COOLDOWN: Duration = Duration::from_secs(60);

/// Server settings.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing runs.
    pub workers: usize,
    /// Aggregate bound on queued (not yet running) jobs.
    pub queue_capacity: usize,
    /// Artifacts held in the LRU cache.
    pub cache_capacity: usize,
    /// Tee log lines to stderr (for `serve_run` in a terminal).
    pub log_stderr: bool,
    /// Where anomaly bundles are written; `None` keeps them queryable
    /// via `{"cmd":"dump"}` only.
    pub dump_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 128,
            log_stderr: false,
            dump_dir: None,
        }
    }
}

/// Why a request did not produce an artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request failed validation or canonicalization.
    Invalid(String),
    /// The queue is full; try again later.
    Overloaded,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The waiter's deadline expired first.
    Timeout,
    /// The run itself panicked (a bug; the worker survives).
    Failed(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Invalid(m) => write!(f, "invalid request: {m}"),
            ServeError::Overloaded => write!(f, "overloaded: queue full"),
            ServeError::ShuttingDown => write!(f, "shutting down"),
            ServeError::Timeout => write!(f, "deadline exceeded"),
            ServeError::Failed(m) => write!(f, "run failed: {m}"),
        }
    }
}

/// A completed request: the rendered artifact and whether it came from
/// the cache without touching the pool.
#[derive(Debug, Clone)]
pub struct Response {
    /// `true` when served from the LRU cache.
    pub cached: bool,
    /// The rendered artifact (shared bytes — identical keys get the
    /// same allocation).
    pub artifact: Arc<String>,
}

/// Counters snapshot for tests and load reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Run requests accepted for processing (valid ones).
    pub requests: u64,
    /// Requests served straight from the cache.
    pub cache_hits: u64,
    /// Requests that joined an in-flight execution.
    pub dedup_joins: u64,
    /// Executions actually performed by workers.
    pub executions: u64,
    /// Submissions rejected (queue full or shutting down).
    pub rejects: u64,
    /// Waiters whose deadline expired.
    pub timeouts: u64,
}

enum PendState {
    Waiting,
    Done(Result<Arc<String>, ServeError>),
}

/// One execution's rendezvous: every deduplicated waiter blocks on the
/// condvar; the worker publishes exactly once.
struct Pending {
    tenant: String,
    state: Mutex<PendState>,
    cv: Condvar,
    /// Live tickets. The last waiter to abandon a still-queued job
    /// cancels it.
    waiters: Mutex<usize>,
}

impl Pending {
    fn new(tenant: String) -> Self {
        Self {
            tenant,
            state: Mutex::new(PendState::Waiting),
            cv: Condvar::new(),
            waiters: Mutex::new(1),
        }
    }

    fn publish(&self, result: Result<Arc<String>, ServeError>) {
        *self.state.lock() = PendState::Done(result);
        self.cv.notify_all();
    }
}

struct Job {
    key: RunKey,
    pending: Arc<Pending>,
    /// Request id of the submission that created (not joined) this job.
    req_id: u64,
    /// Tenant hash carried into recorder events.
    tenant_hash: u64,
    /// Service-clock nanoseconds at enqueue, for the queue-wait span.
    enqueued_ns: u64,
}

struct Sched {
    /// Queued jobs, FIFO per tenant.
    queues: BTreeMap<String, VecDeque<Job>>,
    /// Aggregate queued count (bounded by `queue_capacity`).
    queued: usize,
    /// Jobs running right now, per tenant (bounded by
    /// `TENANT_MAX_RUNNING`).
    running: HashMap<String, usize>,
    /// Round-robin cursor: the tenant served last.
    cursor: Option<String>,
    /// Every queued or running key, for dedup joins.
    inflight: HashMap<RunKey, Arc<Pending>>,
    cache: LruCache,
    shutdown: bool,
}

struct SelfMetrics {
    requests: Counter,
    cache_hits: Counter,
    dedup_joins: Counter,
    executions: Counter,
    rejects: Counter,
    timeouts: Counter,
    queue_depth: Gauge,
    latency: Histogram,
    /// Enqueue → worker-pick wait, milliseconds. Distinct from
    /// end-to-end `latency`: queue wait is the signal round-robin
    /// fairness actually controls.
    queue_wait: Histogram,
    /// One counter per [`Anomaly`] kind, labelled by `kind`.
    anomalies: Vec<Counter>,
}

/// Request-scoped tracing + flight-recorder state, allocated once at
/// server start.
struct ServiceObs {
    anchor: obs::Anchor,
    next_id: AtomicU64,
    events: Ring<ReqEvent>,
    traces: TraceRing,
    log: Log,
    /// Service-clock ns of the last dump per anomaly kind (0 = never),
    /// claimed by CAS so concurrent triggers produce exactly one dump.
    last_dump_ns: [AtomicU64; Anomaly::ALL.len()],
    /// Dumps produced per anomaly kind.
    dumps: [AtomicU64; Anomaly::ALL.len()],
    dump_seq: AtomicU64,
}

struct Inner {
    cfg: ServerConfig,
    /// Per-request validation bounds.
    limits: RunLimits,
    sched: Mutex<Sched>,
    /// Wakes workers when work or a tenant slot appears, and the
    /// drain-waiter at shutdown.
    work_cv: Condvar,
    registry: Metrics,
    metrics: SelfMetrics,
    obs: ServiceObs,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        self.obs.anchor.elapsed_ns()
    }

    /// Record one lifecycle event into the flight recorder.
    fn record(&self, id: u64, stage: Stage, tenant: u64, start_ns: u64, end_ns: u64) {
        self.obs.events.push(ReqEvent {
            id,
            stage,
            tenant,
            start_ns,
            end_ns,
        });
    }

    fn stats_snapshot(&self) -> ServerStats {
        let m = &self.metrics;
        ServerStats {
            requests: m.requests.get(),
            cache_hits: m.cache_hits.get(),
            dedup_joins: m.dedup_joins.get(),
            executions: m.executions.get(),
            rejects: m.rejects.get(),
            timeouts: m.timeouts.get(),
        }
    }

    fn stats_json(&self) -> String {
        let s = self.stats_snapshot();
        format!(
            "{{\"requests\":{},\"cache_hits\":{},\"dedup_joins\":{},\"executions\":{},\"rejects\":{},\"timeouts\":{}}}",
            s.requests, s.cache_hits, s.dedup_joins, s.executions, s.rejects, s.timeouts
        )
    }

    /// Close out one request: record its terminal event.
    fn finish_request(&self, id: u64, tenant: u64, stage: Stage) {
        let now = self.now_ns();
        self.record(id, stage, tenant, now, now);
    }

    /// Dump a bundle for `kind` unless one was produced within the
    /// cooldown. The per-kind CAS guarantees exactly one dump per
    /// trigger even when several threads observe the anomaly at once.
    fn trigger_anomaly(&self, kind: Anomaly, blame_json: Option<String>) {
        let now = self.now_ns().max(1);
        let slot = &self.obs.last_dump_ns[kind.index()];
        let last = slot.load(Ordering::SeqCst);
        let cooldown = ANOMALY_COOLDOWN.as_nanos() as u64;
        if last != 0 && now.saturating_sub(last) < cooldown {
            return;
        }
        if slot
            .compare_exchange(last, now, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        self.obs.dumps[kind.index()].fetch_add(1, Ordering::Relaxed);
        self.metrics.anomalies[kind.index()].inc();
        let seq = self.obs.dump_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let bundle = self.render_dump(kind.as_str(), seq, blame_json);
        let path = match &self.cfg.dump_dir {
            Some(dir) => {
                let path = dir.join(format!("dump_{}_{seq:04}.json", kind.as_str()));
                match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &bundle)) {
                    Ok(()) => Some(path.display().to_string()),
                    Err(e) => {
                        self.obs.log.event(Level::Error, "dump_write_failed", |f| {
                            f.str("kind", kind.as_str())
                                .str("path", &path.display().to_string())
                                .str("error", &e.to_string());
                        });
                        None
                    }
                }
            }
            None => None,
        };
        self.obs.log.event(Level::Warn, "anomaly_dump", |f| {
            f.str("kind", kind.as_str()).num("seq", seq);
            if let Some(p) = &path {
                f.str("path", p);
            }
        });
    }

    /// Render a bundle from the recorder's current contents. Falls back
    /// to the newest stored run's blame matrix when the trigger did not
    /// carry one.
    fn render_dump(&self, kind: &str, seq: u64, blame_json: Option<String>) -> String {
        let events = self.obs.events.snapshot();
        let runs = self.obs.traces.snapshot();
        let blame = blame_json.or_else(|| {
            runs.last()
                .map(|r| obs::causal::blame(&obs::causal::build(&r.traces)).render_json())
        });
        reqtrace::render_bundle(&BundleInput {
            kind,
            seq,
            now_ns: self.now_ns(),
            events: &events,
            runs: &runs,
            metrics_json: &self.registry.render_json(),
            blame_json: blame.as_deref(),
            stats_json: &self.stats_json(),
        })
    }
}

/// The run server. Cloneable handle semantics come from wrapping in
/// [`Arc`] (see [`Server::start`]).
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// A claim on a submitted request; redeem with [`Ticket::wait`].
pub struct Ticket {
    inner: Arc<Inner>,
    pending: Arc<Pending>,
    key: RunKey,
    submitted: Instant,
    deadline: Duration,
    /// Already-resolved response (cache hit) — no waiting needed.
    ready: Option<Response>,
    redeemed: bool,
    req_id: u64,
    tenant_hash: u64,
}

impl Server {
    /// Start the server: spawn `cfg.workers` worker threads and return
    /// the handle. Shut down explicitly with [`Server::shutdown`];
    /// dropping without it leaks the workers parked on the condvar
    /// until process exit.
    pub fn start(cfg: ServerConfig) -> Arc<Server> {
        let registry = Metrics::on();
        let metrics = SelfMetrics {
            requests: registry.counter(
                "serve_requests_total",
                "Run requests accepted (validated) by the server",
                &[],
            ),
            cache_hits: registry.counter(
                "serve_cache_hits_total",
                "Requests served from the artifact cache",
                &[],
            ),
            dedup_joins: registry.counter(
                "serve_dedup_joins_total",
                "Requests that joined an in-flight execution",
                &[],
            ),
            executions: registry.counter(
                "serve_executions_total",
                "Runs executed by the worker pool",
                &[],
            ),
            rejects: registry.counter(
                "serve_rejects_total",
                "Submissions rejected: queue full or shutting down",
                &[],
            ),
            timeouts: registry.counter(
                "serve_timeouts_total",
                "Waiters whose deadline expired",
                &[],
            ),
            queue_depth: registry.gauge(
                "serve_queue_depth",
                "Jobs queued and not yet running",
                &[],
            ),
            latency: registry.histogram(
                "serve_request_latency_ns",
                "End-to-end request latency (submit to artifact)",
                &[],
            ),
            queue_wait: registry.histogram(
                "serve_queue_wait_ms",
                "Enqueue to worker-pick wait (the fairness signal)",
                &[],
            ),
            anomalies: Anomaly::ALL
                .iter()
                .map(|a| {
                    registry.counter(
                        "serve_anomaly_dumps_total",
                        "Flight-recorder dumps by trigger kind",
                        &[("kind", a.as_str().to_string())],
                    )
                })
                .collect(),
        };
        let obs_state = ServiceObs {
            anchor: obs::Anchor::now(),
            next_id: AtomicU64::new(0),
            events: Ring::with_capacity(RECORDER_CAPACITY),
            traces: TraceRing::with_capacity(TRACE_RING_CAPACITY),
            log: Log::new(LOG_CAPACITY, cfg.log_stderr),
            last_dump_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            dumps: std::array::from_fn(|_| AtomicU64::new(0)),
            dump_seq: AtomicU64::new(0),
        };
        let workers = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            sched: Mutex::new(Sched {
                queues: BTreeMap::new(),
                queued: 0,
                running: HashMap::new(),
                cursor: None,
                inflight: HashMap::new(),
                cache: LruCache::new(cfg.cache_capacity),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            registry,
            metrics,
            obs: obs_state,
            limits: RunLimits::default(),
            cfg,
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Arc::new(Server {
            inner,
            workers: Mutex::new(handles),
        })
    }

    /// Validate, canonicalize, and submit a request. Returns a ticket
    /// immediately; cache hits resolve without touching the pool.
    pub fn submit(&self, req: &Request) -> Result<Ticket, ServeError> {
        let t0 = self.inner.now_ns();
        let req_id = self.inner.obs.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let tenant_hash = reqtrace::tenant_hash(&req.tenant);
        let key = match req.params.canonicalize(&self.inner.limits) {
            Ok(key) => key,
            Err(msg) => {
                let now = self.inner.now_ns();
                self.inner
                    .record(req_id, Stage::Rejected, tenant_hash, t0, now);
                self.inner.obs.log.event(Level::Warn, "invalid", |f| {
                    f.num("id", req_id)
                        .str("tenant", &req.tenant)
                        .str("error", &msg);
                });
                return Err(ServeError::Invalid(msg));
            }
        };
        let deadline = req
            .timeout_ms
            .map(Duration::from_millis)
            .unwrap_or(DEFAULT_DEADLINE);
        let submitted = Instant::now();
        let m = &self.inner.metrics;
        let mut sched = self.inner.sched.lock();
        if let Some(hit) = sched.cache.get(&key) {
            drop(sched);
            m.requests.inc();
            m.cache_hits.inc();
            let now = self.inner.now_ns();
            self.inner
                .record(req_id, Stage::Accepted, tenant_hash, t0, now);
            self.inner
                .record(req_id, Stage::CacheHit, tenant_hash, now, now);
            return Ok(Ticket {
                inner: Arc::clone(&self.inner),
                pending: Arc::new(Pending::new(req.tenant.clone())),
                key,
                submitted,
                deadline,
                ready: Some(Response {
                    cached: true,
                    artifact: hit,
                }),
                redeemed: false,
                req_id,
                tenant_hash,
            });
        }
        if let Some(pending) = sched.inflight.get(&key).cloned() {
            *pending.waiters.lock() += 1;
            drop(sched);
            m.requests.inc();
            m.dedup_joins.inc();
            let now = self.inner.now_ns();
            self.inner
                .record(req_id, Stage::Accepted, tenant_hash, t0, now);
            self.inner
                .record(req_id, Stage::DedupJoin, tenant_hash, now, now);
            return Ok(Ticket {
                inner: Arc::clone(&self.inner),
                pending,
                key,
                submitted,
                deadline,
                ready: None,
                redeemed: false,
                req_id,
                tenant_hash,
            });
        }
        if sched.shutdown {
            drop(sched);
            m.rejects.inc();
            let now = self.inner.now_ns();
            self.inner
                .record(req_id, Stage::Rejected, tenant_hash, t0, now);
            self.inner.obs.log.event(Level::Warn, "shutting_down", |f| {
                f.num("id", req_id).str("tenant", &req.tenant);
            });
            return Err(ServeError::ShuttingDown);
        }
        if sched.queued >= self.inner.cfg.queue_capacity {
            let queued = sched.queued;
            drop(sched);
            m.rejects.inc();
            let now = self.inner.now_ns();
            self.inner
                .record(req_id, Stage::Rejected, tenant_hash, t0, now);
            self.inner.obs.log.event(Level::Warn, "overloaded", |f| {
                f.num("id", req_id)
                    .str("tenant", &req.tenant)
                    .num("queued", queued as u64);
            });
            return Err(ServeError::Overloaded);
        }
        let enqueued_ns = self.inner.now_ns();
        let pending = Arc::new(Pending::new(req.tenant.clone()));
        sched.inflight.insert(key.clone(), Arc::clone(&pending));
        sched
            .queues
            .entry(req.tenant.clone())
            .or_default()
            .push_back(Job {
                key: key.clone(),
                pending: Arc::clone(&pending),
                req_id,
                tenant_hash,
                enqueued_ns,
            });
        sched.queued += 1;
        m.queue_depth.set(sched.queued as i64);
        drop(sched);
        m.requests.inc();
        self.inner
            .record(req_id, Stage::Accepted, tenant_hash, t0, enqueued_ns);
        self.inner.work_cv.notify_all();
        Ok(Ticket {
            inner: Arc::clone(&self.inner),
            pending,
            key,
            submitted,
            deadline,
            ready: None,
            redeemed: false,
            req_id,
            tenant_hash,
        })
    }

    /// Submit and block until the artifact (or error) is ready — the
    /// one-call path TCP handlers use.
    pub fn run(&self, req: &Request) -> Result<Response, ServeError> {
        self.submit(req)?.wait()
    }

    /// Stop accepting work, drain every queued and running job, and
    /// join the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut sched = self.inner.sched.lock();
            sched.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        let handles: Vec<_> = self.workers.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Server self-metrics as Prometheus text.
    pub fn metrics_text(&self) -> String {
        self.inner.registry.render_prometheus()
    }

    /// Server self-metrics as a JSON document (histograms carry
    /// p50/p95/p99/p999).
    pub fn metrics_json(&self) -> String {
        self.inner.registry.render_json()
    }

    /// The structured event log's retained lines as a JSON array
    /// (`{"cmd":"events"}`).
    pub fn events_json(&self) -> String {
        self.inner.obs.log.render_json_array()
    }

    /// Liveness + recorder summary as a JSON object
    /// (`{"cmd":"health"}`).
    pub fn health_json(&self) -> String {
        let now = self.inner.now_ns();
        let dumps = Anomaly::ALL
            .iter()
            .map(|a| {
                format!(
                    "\"{}\":{}",
                    a.as_str(),
                    self.inner.obs.dumps[a.index()].load(Ordering::Relaxed)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"uptime_s\":{:.1},\"queue_depth\":{},\"stats\":{},\
             \"recorder\":{{\"events_recorded\":{},\"dumps\":{{{}}}}},\
             \"log_dropped\":{}}}",
            now as f64 / 1e9,
            self.queue_depth(),
            self.inner.stats_json(),
            self.inner.obs.events.pushed(),
            dumps,
            self.inner.obs.log.dropped(),
        )
    }

    /// Render a flight-recorder bundle on demand (`{"cmd":"dump"}`).
    /// Bypasses the anomaly cooldown and writes no file; `kind` is
    /// `"manual"`.
    pub fn dump_json(&self) -> String {
        let seq = self.inner.obs.dump_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.render_dump("manual", seq, None)
    }

    /// Flight-recorder event snapshot, oldest to newest (tests, tools).
    pub fn recorded_events(&self) -> Vec<ReqEvent> {
        self.inner.obs.events.snapshot()
    }

    /// The stitched Chrome-trace document for the recorder's current
    /// contents: service track + stored runs with flow arrows.
    pub fn stitched_trace(&self) -> String {
        let events = self.inner.obs.events.snapshot();
        let runs = self.inner.obs.traces.snapshot();
        obs::chrome::chrome_trace_stitched(&reqtrace::service_trace(&events), &runs)
    }

    /// Dumps produced so far for one anomaly kind.
    pub fn anomaly_dumps(&self, kind: Anomaly) -> u64 {
        self.inner.obs.dumps[kind.index()].load(Ordering::Relaxed)
    }

    /// The structured event log handle (TCP front end logs through it).
    pub(crate) fn log(&self) -> &Log {
        &self.inner.obs.log
    }

    /// Counter snapshot for tests and load reports.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats_snapshot()
    }

    /// Number of cached artifacts right now.
    pub fn cache_len(&self) -> usize {
        self.inner.sched.lock().cache.len()
    }

    /// Jobs queued and not yet picked by a worker.
    pub fn queue_depth(&self) -> usize {
        self.inner.sched.lock().queued
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("key", &self.key)
            .field("ready", &self.ready.is_some())
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// The canonicalized key this ticket is waiting on.
    pub fn key(&self) -> &RunKey {
        &self.key
    }

    /// The request id assigned at submission (the service-track row this
    /// request's lifecycle spans render under).
    pub fn request_id(&self) -> RequestId {
        RequestId(self.req_id)
    }

    /// Block until the artifact is ready or the deadline expires.
    pub fn wait(mut self) -> Result<Response, ServeError> {
        self.redeemed = true;
        if let Some(ready) = self.ready.take() {
            let latency = self.submitted.elapsed().as_nanos() as u64;
            self.inner.metrics.latency.observe(latency);
            self.inner
                .finish_request(self.req_id, self.tenant_hash, Stage::Responded);
            return Ok(ready);
        }
        let deadline = self.submitted + self.deadline;
        let mut state = self.pending.state.lock();
        loop {
            if let PendState::Done(result) = &*state {
                let result = result.clone();
                drop(state);
                let latency = self.submitted.elapsed().as_nanos() as u64;
                self.inner.metrics.latency.observe(latency);
                self.inner
                    .finish_request(self.req_id, self.tenant_hash, Stage::Responded);
                return result.map(|artifact| Response {
                    cached: false,
                    artifact,
                });
            }
            let now = Instant::now();
            if now >= deadline {
                drop(state);
                self.abandon();
                self.inner.metrics.timeouts.inc();
                self.inner
                    .finish_request(self.req_id, self.tenant_hash, Stage::TimedOut);
                self.inner.obs.log.event(Level::Warn, "deadline_miss", |f| {
                    f.num("id", self.req_id)
                        .str("key", &self.key.tag())
                        .float("deadline_ms", self.deadline.as_secs_f64() * 1e3);
                });
                self.inner.trigger_anomaly(Anomaly::DeadlineMiss, None);
                return Err(ServeError::Timeout);
            }
            self.pending
                .cv
                .wait_for(&mut state, deadline.duration_since(now));
        }
    }

    /// Drop this waiter's claim; if it was the last waiter and the job
    /// has not started, cancel the job in place.
    fn abandon(&self) {
        // Take the scheduler lock before touching the waiter count:
        // dedup joins increment under the same lock, so "last waiter"
        // and "job still queued" are decided atomically.
        let mut sched = self.inner.sched.lock();
        let last = {
            let mut waiters = self.pending.waiters.lock();
            *waiters -= 1;
            *waiters == 0
        };
        if !last {
            return;
        }
        let queue_has_job = sched
            .queues
            .get(&self.pending.tenant)
            .is_some_and(|q| q.iter().any(|j| Arc::ptr_eq(&j.pending, &self.pending)));
        if queue_has_job {
            if let Some(q) = sched.queues.get_mut(&self.pending.tenant) {
                q.retain(|j| !Arc::ptr_eq(&j.pending, &self.pending));
            }
            sched.queued -= 1;
            sched.inflight.remove(&self.key);
            self.inner.metrics.queue_depth.set(sched.queued as i64);
        }
        // A running job is left alone: the worker finishes and caches.
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if !self.redeemed && self.ready.is_none() {
            self.abandon();
        }
    }
}

/// Pick the next runnable job: round-robin over tenant ids starting
/// after the cursor, skipping tenants at their running cap.
fn pick_next(sched: &mut Sched) -> Option<Job> {
    let tenants: Vec<String> = sched.queues.keys().cloned().collect();
    if tenants.is_empty() {
        return None;
    }
    let start = match &sched.cursor {
        Some(cur) => tenants.iter().position(|t| t > cur).unwrap_or(0),
        None => 0,
    };
    for offset in 0..tenants.len() {
        let tenant = &tenants[(start + offset) % tenants.len()];
        let running = sched.running.get(tenant).copied().unwrap_or(0);
        if running >= TENANT_MAX_RUNNING {
            continue;
        }
        let queue = sched.queues.get_mut(tenant)?;
        if let Some(job) = queue.pop_front() {
            if queue.is_empty() {
                sched.queues.remove(tenant);
            }
            sched.queued -= 1;
            *sched.running.entry(tenant.clone()).or_insert(0) += 1;
            sched.cursor = Some(tenant.clone());
            return Some(job);
        }
        sched.queues.remove(tenant);
    }
    None
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut sched = inner.sched.lock();
            loop {
                if let Some(job) = pick_next(&mut sched) {
                    inner.metrics.queue_depth.set(sched.queued as i64);
                    break job;
                }
                if sched.shutdown {
                    return;
                }
                inner.work_cv.wait(&mut sched);
            }
        };
        let picked_ns = inner.now_ns();
        inner
            .metrics
            .queue_wait
            .observe(picked_ns.saturating_sub(job.enqueued_ns) / 1_000_000);
        inner.record(
            job.req_id,
            Stage::Queued,
            job.tenant_hash,
            job.enqueued_ns,
            picked_ns,
        );
        let exec_start = picked_ns;
        let outcome = catch_unwind(AssertUnwindSafe(|| artifact::execute_render(&job.key)));
        let exec_end = inner.now_ns();
        inner.record(
            job.req_id,
            Stage::Executing,
            job.tenant_hash,
            exec_start,
            exec_end,
        );
        let result = match outcome {
            Ok((artifact, report)) => {
                if !report.traces.is_empty() {
                    // A traced run: check for stragglers before the
                    // traces move into the ring.
                    let verdict = report.stragglers();
                    let blame = if verdict.flagged.is_empty() {
                        None
                    } else {
                        Some(report.blame().render_json())
                    };
                    inner.obs.traces.store(StoredRun {
                        request_id: job.req_id,
                        exec_tid: job.req_id as u32,
                        exec_start_ns: exec_start,
                        traces: report.traces,
                    });
                    if let Some(blame) = blame {
                        inner.obs.log.event(Level::Warn, "straggler", |f| {
                            f.num("id", job.req_id)
                                .str("key", &job.key.tag())
                                .str("ranks", &format!("{:?}", verdict.flagged));
                        });
                        inner.trigger_anomaly(Anomaly::Straggler, Some(blame));
                    }
                }
                inner.obs.log.event(Level::Info, "executed", |f| {
                    f.num("id", job.req_id)
                        .str("tenant", &job.pending.tenant)
                        .str("key", &job.key.tag())
                        .float("ms", (exec_end.saturating_sub(exec_start)) as f64 / 1e6);
                });
                Ok(Arc::new(artifact))
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "run panicked".to_string());
                inner.obs.log.event(Level::Error, "run_panicked", |f| {
                    f.num("id", job.req_id)
                        .str("key", &job.key.tag())
                        .str("error", &msg);
                });
                Err(ServeError::Failed(msg))
            }
        };
        inner.metrics.executions.inc();
        {
            let mut sched = inner.sched.lock();
            if let Some(n) = sched.running.get_mut(&job.pending.tenant) {
                *n -= 1;
                if *n == 0 {
                    sched.running.remove(&job.pending.tenant);
                }
            }
            sched.inflight.remove(&job.key);
            if let Ok(artifact) = &result {
                sched.cache.insert(job.key.clone(), Arc::clone(artifact));
            }
        }
        // Record before publishing: a woken waiter stamps `Responded`,
        // which the lifecycle chain orders after `Rendered`.
        inner.record(
            job.req_id,
            Stage::Rendered,
            job.tenant_hash,
            exec_end,
            inner.now_ns(),
        );
        job.pending.publish(result);
        // A tenant slot freed and maybe new work is eligible.
        inner.work_cv.notify_all();
    }
}
