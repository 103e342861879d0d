//! The service itself: configuration, worker pool, endpoint dispatch,
//! and lifecycle around the event loop.
//!
//! Threading model: [`Server::start`] binds the one listener (with a
//! 1024-deep accept backlog, see [`poller::bind_listener`]), opens one
//! [`Poller`] per event loop, loads the snapshot catalog, and spawns one
//! supervisor thread that owns a `std::thread::scope`. Inside the
//! scope, `workers` scoped threads pop jobs from a [`BoundedQueue`] and
//! compute responses (simulate, render, page), while `loops` scoped
//! threads each run an independent readiness event loop with its own
//! poller and connection table (the supervisor thread runs loop 0
//! itself). Loop 0 owns the listener; with more than one loop it
//! round-robins accepted sockets to its peers through per-loop inboxes.
//! The run cache, single-flight map, and snapshot catalog are shared
//! behind one `Arc`, so cached bodies are byte-identical regardless of
//! which loop serves them. A full queue is the load-shed signal: the
//! event loop answers `503` + `Retry-After` with `Connection: close`
//! instead of queueing unboundedly.
//!
//! Shutdown flips the shared stop flag and rings every loop's waker:
//! each loop stops accepting, flushes every in-flight response
//! (`Connection: close`), and exits; the queue is closed, workers drain,
//! the scope joins, and the final metrics report is returned.

use std::fmt::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use dcf_core::StudyOptions;
use dcf_obs::json::write_string;
use dcf_obs::{MetricsRegistry, RunReport};
use dcf_sim::{RunOptions, Scenario};
use dcf_trace::{ComponentClass, FailureType, FotCategory, FotColumns};

use crate::cache::{scenario_hash, CacheKey, ResponseCache, RunArtifacts, RunEntry};
use crate::catalog::{Catalog, ReloadSummary};
use crate::event_loop::{EventLoop, ReplayStream};
use crate::gzip;
use crate::http::{Request, Response};
use crate::poller::{self, Poller, Waker};
use crate::queue::BoundedQueue;
use crate::sections::{self, Obj, RunIdentity};

/// Default `Retry-After` seconds on overload responses.
pub(crate) const RETRY_AFTER_SECS: u32 = 1;
/// Per-request deadline, measured from parse. Requests still queued past
/// it are answered `503` without being served.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);
/// Cap on `limit` for paged ticket reads.
const MAX_PAGE: usize = 1000;
/// Default page size for `/trace/{digest}/fots`.
const DEFAULT_PAGE: usize = 100;

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8620` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads computing responses.
    pub workers: usize,
    /// LRU response-cache capacity in run entries.
    pub cache_entries: usize,
    /// Bounded request-queue depth; requests beyond it are shed with
    /// `503` + `Retry-After` and `Connection: close`.
    pub queue_depth: usize,
    /// Test hook: artificial delay inserted into each simulation compute,
    /// used by the integration suite to saturate the queue deterministically.
    pub compute_delay: Duration,
    /// Metrics sink for request counters and spans.
    pub metrics: MetricsRegistry,
    /// Optional catalog directory of `.dcfsnap` files, each served under
    /// its file stem (see [`crate::catalog`]).
    pub catalog: Option<String>,
    /// Maximum concurrently open connections; beyond it new connections
    /// are answered `503` and closed.
    pub max_connections: usize,
    /// Keep-alive idle timeout: connections with no request activity for
    /// this long are closed by the sweep.
    pub idle_timeout: Duration,
    /// Event-loop (poller thread) count; `0` = one per available core.
    pub loops: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8620".to_string(),
            workers: 4,
            cache_entries: 8,
            queue_depth: 64,
            compute_delay: Duration::ZERO,
            metrics: MetricsRegistry::disabled(),
            catalog: None,
            max_connections: 12_000,
            idle_timeout: Duration::from_secs(10),
            loops: 1,
        }
    }
}

impl ServeConfig {
    /// Sets the bind address.
    #[must_use]
    pub fn addr(mut self, addr: &str) -> Self {
        self.addr = addr.to_string();
        self
    }

    /// Sets the worker-thread count (min 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the response-cache capacity (min 1 run entry).
    #[must_use]
    pub fn cache_entries(mut self, entries: usize) -> Self {
        self.cache_entries = entries.max(1);
        self
    }

    /// Sets the request-queue depth (min 1).
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Sets the metrics sink.
    #[must_use]
    pub fn metrics(mut self, metrics: &MetricsRegistry) -> Self {
        self.metrics = metrics.clone();
        self
    }

    /// Serves a catalog directory of `.dcfsnap` files (see
    /// [`crate::catalog`]).
    #[must_use]
    pub fn catalog(mut self, dir: &str) -> Self {
        self.catalog = Some(dir.to_string());
        self
    }

    /// Sets the concurrent-connection cap (min 8).
    #[must_use]
    pub fn max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(8);
        self
    }

    /// Sets the keep-alive idle timeout.
    #[must_use]
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the event-loop count (`0` = one per available core).
    #[must_use]
    pub fn loops(mut self, loops: usize) -> Self {
        self.loops = loops;
        self
    }
}

/// One parsed request handed from an event loop to the worker pool.
#[derive(Debug)]
pub(crate) struct Job {
    /// Event loop owning the connection; the completion routes back to
    /// this loop's completion list and waker.
    pub(crate) loop_id: usize,
    /// Connection token the response routes back to.
    pub(crate) token: u64,
    /// The parsed request.
    pub(crate) request: Request,
    /// When the request was parsed; the deadline is measured from here.
    pub(crate) received_at: Instant,
    /// Whether the client asked to keep the connection open.
    pub(crate) keep_alive: bool,
}

/// One computed response on its way back to the event loop.
#[derive(Debug)]
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) response: Response,
    pub(crate) keep_alive: bool,
}

/// Per-event-loop mailboxes: the lanes through which workers (and the
/// accepting loop 0) reach one specific loop.
pub(crate) struct LoopShared {
    /// Responses computed by workers, drained by this loop.
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Rings this loop out of its wait (completion ready, inbox handoff,
    /// shutdown).
    pub(crate) waker: Waker,
    /// Accepted sockets handed off by the acceptor (loop 0); the loop
    /// adopts them on wake.
    pub(crate) inbox: Mutex<Vec<TcpStream>>,
}

/// State shared between the event loops, the worker pool, and the
/// [`Server`] handle.
pub(crate) struct Shared {
    pub(crate) cache: ResponseCache,
    pub(crate) metrics: MetricsRegistry,
    pub(crate) compute_delay: Duration,
    /// Name-addressed pinned snapshot entries (`--catalog`).
    pub(crate) catalog: Option<Catalog>,
    /// One mailbox set per event loop, indexed by `Job::loop_id`.
    pub(crate) loops: Vec<LoopShared>,
    /// Graceful-shutdown flag.
    pub(crate) stop: AtomicBool,
}

/// A running query service. Dropping without [`Server::shutdown`] still
/// drains gracefully (the drop handler joins the supervisor); call
/// `shutdown` to also receive the final metrics report.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    metrics: MetricsRegistry,
    backend: &'static str,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener, loads the catalog, and spawns the supervisor
    /// (event loop) + worker threads.
    ///
    /// # Errors
    ///
    /// Propagates bind/poller failures from the OS and catalog load
    /// failures (a corrupt snapshot fails startup; see
    /// [`Catalog::open`]).
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let loops = match config.loops {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let metrics = config.metrics.clone();

        let listener = poller::bind_listener(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let mut listener = Some(listener);

        let cache = ResponseCache::new(config.cache_entries);
        let catalog = match &config.catalog {
            Some(dir) => Some(Catalog::open(dir, &cache, &config.metrics)?),
            None => None,
        };

        let mut backend = "";
        let mut lanes = Vec::with_capacity(loops);
        let mut loop_parts = Vec::with_capacity(loops);
        for _ in 0..loops {
            let poller = Poller::new(None)?;
            backend = poller.backend_name();
            let (waker, waker_rx) = Waker::pair()?;
            lanes.push(LoopShared {
                completions: Mutex::new(Vec::new()),
                waker,
                inbox: Mutex::new(Vec::new()),
            });
            loop_parts.push((poller, waker_rx));
        }

        let shared = Arc::new(Shared {
            cache,
            metrics: config.metrics.clone(),
            compute_delay: config.compute_delay,
            catalog,
            loops: lanes,
            stop: AtomicBool::new(false),
        });
        metrics.set_gauge("serve.loops", loops as f64);
        let queue = Arc::new(BoundedQueue::<Job>::new(config.queue_depth));
        let workers = config.workers.max(1);
        // Each loop polices its share of the connection budget.
        let per_loop_conns = config.max_connections.max(8).div_ceil(loops);
        let idle_timeout = config.idle_timeout;

        let mut event_loops = Vec::with_capacity(loops);
        for (loop_id, (poller, waker_rx)) in loop_parts.into_iter().enumerate() {
            event_loops.push(EventLoop::new(
                loop_id,
                poller,
                // Loop 0 takes the listener; its peers only adopt.
                listener.take(),
                waker_rx,
                Arc::clone(&queue),
                Arc::clone(&shared),
                per_loop_conns,
                idle_timeout,
            )?);
        }

        let loop_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("dcf-serve".to_string())
            .spawn(move || {
                std::thread::scope(|s| {
                    for _ in 0..workers {
                        let queue = Arc::clone(&queue);
                        let shared = Arc::clone(&loop_shared);
                        s.spawn(move || worker_loop(&shared, &queue));
                    }
                    let mut event_loops = event_loops;
                    let first = event_loops.remove(0);
                    let peers: Vec<_> = event_loops
                        .into_iter()
                        .map(|event_loop| s.spawn(move || event_loop.run()))
                        .collect();
                    first.run();
                    for peer in peers {
                        let _ = peer.join();
                    }
                    // Every loop exited with every accepted request
                    // answered; close the queue so workers drain and join.
                    queue.close();
                });
            })?;

        Ok(Server {
            addr,
            shared,
            metrics,
            backend,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with a `:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The poller backend this build uses (`"epoll"` or `"scan"`).
    pub fn poller_backend(&self) -> &'static str {
        self.backend
    }

    /// Rescans the snapshot catalog (the SIGHUP handler calls this; so
    /// does `POST /catalog/reload`).
    ///
    /// # Errors
    ///
    /// `Unsupported` when the server has no catalog directory; otherwise
    /// propagates scan/decode failures (see [`Catalog::reload`]).
    pub fn reload_catalog(&self) -> std::io::Result<ReloadSummary> {
        match &self.shared.catalog {
            Some(catalog) => catalog.reload(&self.shared.cache),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "no catalog configured (start the service with --catalog DIR)",
            )),
        }
    }

    /// Graceful shutdown: stop accepting, flush every in-flight
    /// response, join all threads, and return the final metrics snapshot.
    pub fn shutdown(mut self) -> RunReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        for lane in &self.shared.loops {
            lane.waker.wake();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        self.metrics.report("dcf-serve")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for lane in &self.shared.loops {
            lane.waker.wake();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Worker thread body: pop, enforce the queued-time deadline, dispatch,
/// hand the completion back to the owning loop, ring that loop's waker.
fn worker_loop(shared: &Shared, queue: &BoundedQueue<Job>) {
    while let Some(job) = queue.pop() {
        let _span = shared.metrics.worker_phase("serve.request");
        let (response, keep_alive) = if job.received_at.elapsed() > REQUEST_DEADLINE {
            shared.metrics.add("serve.timeouts", 1);
            (
                Response::overloaded("request deadline exceeded while queued", RETRY_AFTER_SECS),
                false,
            )
        } else {
            let response = dispatch(shared, &job.request);
            if response.status >= 500 {
                shared.metrics.add("serve.errors", 1);
            }
            (response, job.keep_alive)
        };
        let lane = &shared.loops[job.loop_id];
        lane.completions
            .lock()
            .expect("completions poisoned")
            .push(Completion {
                token: job.token,
                response,
                keep_alive,
            });
        lane.waker.wake();
    }
}

fn dispatch(shared: &Shared, request: &Request) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        // Liveness and metrics stay unversioned: they describe the
        // process, not the API.
        ("GET", ["healthz"]) => {
            let mut obj = Obj::new();
            obj.str("status", "ok");
            Response::ok(obj.finish())
        }
        ("GET", ["metrics"]) => {
            let _span = shared.metrics.worker_phase("serve.report.metrics");
            Response::ok(shared.metrics.report("dcf-serve").to_json())
        }
        ("GET", ["v1", "catalog"]) => handle_catalog(shared),
        ("POST", ["v1", "catalog", "reload"]) => handle_catalog_reload(shared),
        ("POST", ["v1", "simulate"]) => handle_simulate(shared, request),
        ("GET", ["v1", "report", section]) => handle_report(shared, request, section),
        ("GET", ["v1", "trace", digest, "fots"]) => handle_fots(shared, request, digest),
        ("GET", ["v1", "replay", scenario]) => handle_replay(shared, request, scenario),
        ("GET", _) | ("POST", _) => Response::error(404, "unknown endpoint"),
        _ => Response::error(405, "unsupported method"),
    }
}

fn handle_catalog(shared: &Shared) -> Response {
    match &shared.catalog {
        Some(catalog) => Response::ok(catalog.render_listing()),
        None => Response::error(
            404,
            "no catalog configured (start the service with --catalog DIR)",
        ),
    }
}

fn handle_catalog_reload(shared: &Shared) -> Response {
    let Some(catalog) = &shared.catalog else {
        return Response::error(
            404,
            "no catalog configured (start the service with --catalog DIR)",
        );
    };
    match catalog.reload(&shared.cache) {
        Ok(summary) => {
            let mut obj = Obj::new();
            obj.uint("added", summary.added as u64)
                .uint("removed", summary.removed as u64)
                .uint("total", summary.total as u64);
            Response::ok(obj.finish())
        }
        Err(e) => Response::error(500, &format!("catalog reload failed: {e}")),
    }
}

/// The raw `(scenario name, seed, threads)` triple of a request, before
/// the scenario is resolved (catalog snapshot names address preloaded
/// traces and never simulate).
struct RawParams {
    scenario: String,
    seed: u64,
    threads: usize,
}

impl RawParams {
    /// Reads the triple from a JSON object body. An absent field takes
    /// its default; a present one of the wrong type is a 400 with the
    /// query path's message, never a silent default.
    fn from_body(body: &[u8]) -> Result<Self, Response> {
        if body.is_empty() {
            return Ok(Self {
                scenario: "small".into(),
                seed: 0,
                threads: 0,
            });
        }
        let text =
            std::str::from_utf8(body).map_err(|_| Response::error(400, "body is not UTF-8"))?;
        let value = dcf_obs::json::parse(text)
            .map_err(|e| Response::error(400, &format!("invalid JSON body: {e}")))?;
        if value.entries().is_none() {
            return Err(Response::error(400, "body must be a JSON object"));
        }
        let scenario = match value.get("scenario") {
            None => "small",
            Some(v) => v
                .as_str()
                .ok_or_else(|| Response::error(400, "scenario must be a string"))?,
        };
        let uint = |name: &str, message: &str| match value.get(name) {
            None => Ok(0),
            Some(v) => v.as_u64().ok_or_else(|| Response::error(400, message)),
        };
        Ok(Self {
            scenario: scenario.to_string(),
            seed: uint("seed", "seed must be an unsigned integer")?,
            threads: uint("threads", "threads must be an unsigned integer")? as usize,
        })
    }

    fn from_query(request: &Request) -> Result<Self, Response> {
        let scenario = request
            .query_value("scenario")
            .unwrap_or("small")
            .to_string();
        let seed = match request.query_value("seed") {
            None => 0,
            Some(raw) => raw
                .parse()
                .map_err(|_| Response::error(400, "seed must be an unsigned integer"))?,
        };
        let threads = match request.query_value("threads") {
            None => 0,
            Some(raw) => raw
                .parse()
                .map_err(|_| Response::error(400, "threads must be an unsigned integer"))?,
        };
        Ok(Self {
            scenario,
            seed,
            threads,
        })
    }
}

/// The `(scenario, seed, threads)` triple addressed by a request.
struct RunParams {
    /// A built-in scenario and its [`scenario_hash`].
    scenario: &'static (Scenario, u64),
    seed: u64,
    threads: usize,
}

impl RunParams {
    fn resolve(name: &str, seed: u64, threads: usize) -> Result<Self, Response> {
        // Each built-in config is hashed once, not on every request.
        static BUILT_IN: OnceLock<Vec<(Scenario, u64)>> = OnceLock::new();
        let scenario = BUILT_IN
            .get_or_init(|| {
                Scenario::names()
                    .filter_map(Scenario::by_name)
                    .map(|s| {
                        let hash = scenario_hash(&s.config);
                        (s, hash)
                    })
                    .collect()
            })
            .iter()
            .find(|(s, _)| s.name == name)
            .ok_or_else(|| {
                let names: Vec<_> = Scenario::names().collect();
                Response::error(
                    400,
                    &format!(
                        "unknown scenario {name:?} (expected {} or a catalog snapshot name)",
                        names.join("|")
                    ),
                )
            })?;
        Ok(Self {
            scenario,
            seed,
            threads,
        })
    }

    fn cache_key(&self) -> CacheKey {
        CacheKey {
            scenario_hash: self.scenario.1,
            seed: self.seed,
            threads: self.threads,
        }
    }
}

/// Resolves a raw request triple to its run entry: a pinned catalog
/// snapshot when the name matches one (always a cache hit), a cached or
/// freshly computed simulation otherwise.
fn run_entry_for(shared: &Shared, raw: &RawParams) -> Result<(Arc<RunEntry>, bool), Response> {
    if let Some(catalog) = &shared.catalog {
        if let Some(entry) = catalog.get(&raw.scenario) {
            shared.metrics.add("serve.cache.hits", 1);
            return Ok((entry, true));
        }
    }
    if raw.scenario == "snapshot" {
        return Err(Response::error(
            404,
            "no snapshot preloaded (start the service with --catalog DIR holding snapshot.dcfsnap)",
        ));
    }
    let params = RunParams::resolve(&raw.scenario, raw.seed, raw.threads)?;
    run_entry(shared, &params)
}

/// Looks up (or computes, single-flight) the run for `params`.
fn run_entry(shared: &Shared, params: &RunParams) -> Result<(Arc<RunEntry>, bool), Response> {
    let key = params.cache_key();
    let entry = shared.cache.entry(params.scenario.0.name, key);
    let hit = entry.run.get().is_some();
    shared.metrics.add(
        if hit {
            "serve.cache.hits"
        } else {
            "serve.cache.misses"
        },
        1,
    );
    let result = entry.run.get_or_init(|| {
        let _span = shared.metrics.worker_phase("serve.simulate");
        if !shared.compute_delay.is_zero() {
            std::thread::sleep(shared.compute_delay);
        }
        let options = RunOptions::new()
            .metrics(&shared.metrics)
            .threads(params.threads);
        params
            .scenario
            .0
            .clone()
            .seed(params.seed)
            .simulate(&options)
            .map(|trace| Arc::new(RunArtifacts::new(trace)))
            .map_err(|e| e.to_string())
    });
    match result {
        Ok(artifacts) => {
            shared.cache.register_digest(&artifacts.digest, key);
            Ok((Arc::clone(&entry), hit))
        }
        Err(message) => Err(Response::error(500, message)),
    }
}

fn handle_simulate(shared: &Shared, request: &Request) -> Response {
    let params = match RawParams::from_body(&request.body) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let (entry, hit) = match run_entry_for(shared, &params) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    let artifacts = match entry.run.get() {
        Some(Ok(a)) => a,
        _ => return Response::error(500, "run entry lost"),
    };
    let mut obj = Obj::new();
    obj.str("scenario", &entry.scenario)
        .uint("seed", entry.seed)
        .uint("threads", entry.threads as u64)
        .str("digest", &artifacts.digest)
        .uint("total_fots", artifacts.trace.len() as u64)
        .str("cache", if hit { "hit" } else { "miss" });
    Response::ok(obj.finish())
}

fn handle_report(shared: &Shared, request: &Request, section: &str) -> Response {
    let Some(&section) = sections::SECTIONS.iter().find(|&&s| s == section) else {
        return Response::error(
            404,
            &format!(
                "unknown report section {section:?} (expected one of {})",
                sections::SECTIONS.join("|")
            ),
        );
    };
    let params = match RawParams::from_query(request) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let (entry, _hit) = match run_entry_for(shared, &params) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    let cached_body = entry
        .sections
        .lock()
        .expect("sections poisoned")
        .get(section)
        .cloned();
    if let Some(body) = cached_body {
        shared.metrics.add("serve.section.cached", 1);
        return section_response(shared, &entry, section, &body, request.accept_gzip);
    }
    let artifacts = match entry.run.get() {
        Some(Ok(a)) => Arc::clone(a),
        _ => return Response::error(500, "run entry lost"),
    };
    let _span = shared
        .metrics
        .worker_phase(&format!("serve.report.{section}"));
    let study_threads = entry.threads.max(1);
    let report =
        artifacts.report(&StudyOptions::with_threads(study_threads).metrics(&shared.metrics));
    let id = RunIdentity {
        scenario: &entry.scenario,
        seed: entry.seed,
        threads: entry.threads,
        digest: &artifacts.digest,
    };
    let body = sections::render(section, id, report).expect("section name pre-validated");
    let body: Arc<str> = entry
        .sections
        .lock()
        .expect("sections poisoned")
        .entry(section)
        .or_insert_with(|| Arc::from(body.as_str()))
        .clone();
    section_response(shared, &entry, section, &body, request.accept_gzip)
}

/// Wraps a rendered section body for the wire: identity by default, the
/// entry's cached gzip render when the client accepts it (compressed
/// once per section per run, then shared by every loop).
fn section_response(
    shared: &Shared,
    entry: &RunEntry,
    section: &'static str,
    body: &str,
    accept_gzip: bool,
) -> Response {
    if !accept_gzip {
        return Response::ok(body.to_string());
    }
    let cached = entry
        .gzip_sections
        .lock()
        .expect("gzip sections poisoned")
        .get(section)
        .cloned();
    let bytes = match cached {
        Some(bytes) => bytes,
        None => {
            let _span = shared.metrics.worker_phase("serve.gzip.encode");
            let encoded: Arc<[u8]> = gzip::gzip(body.as_bytes()).into();
            entry
                .gzip_sections
                .lock()
                .expect("gzip sections poisoned")
                .entry(section)
                .or_insert_with(|| Arc::clone(&encoded))
                .clone()
        }
    };
    if bytes.len() >= body.len() {
        // Tiny aggregates can come out larger framed than plain; the
        // cache still remembers the render so the size check is cheap.
        return Response::ok(body.to_string());
    }
    shared.metrics.add("serve.gzip.responses", 1);
    Response::ok_gzip(bytes.to_vec())
}

fn handle_fots(shared: &Shared, request: &Request, digest: &str) -> Response {
    let Some(entry) = shared.cache.lookup_digest(digest) else {
        return Response::error(404, "unknown trace digest (run /v1/simulate first)");
    };
    let artifacts = match entry.run.get() {
        Some(Ok(a)) => Arc::clone(a),
        _ => return Response::error(500, "run entry lost"),
    };
    let offset = match request.query_value("offset") {
        None => 0usize,
        Some(raw) => match raw.parse() {
            Ok(n) => n,
            Err(_) => return Response::error(400, "offset must be an unsigned integer"),
        },
    };
    let limit = match request.query_value("limit") {
        None => DEFAULT_PAGE,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n.min(MAX_PAGE),
            Err(_) => return Response::error(400, "limit must be an unsigned integer"),
        },
    };
    let trace = &artifacts.trace;
    let total = trace.len();
    let start = offset.min(total);
    let end = start.saturating_add(limit).min(total);

    let mut body = String::with_capacity(96 + (end - start) * PAGE_ROW_BYTES);
    body.push('{');
    write_string(&mut body, "digest");
    body.push(':');
    write_string(&mut body, digest);
    let _ = write!(
        body,
        ",\"offset\":{start},\"limit\":{limit},\"total\":{total},\"fots\":["
    );
    let cols = trace.columns();
    for row in start..end {
        if row > start {
            body.push(',');
        }
        write_page_row(&mut body, cols, row);
    }
    body.push_str("]}");
    if request.accept_gzip {
        // Pages are query-dependent, so they compress per request
        // instead of landing in the per-section cache.
        let _span = shared.metrics.worker_phase("serve.gzip.encode");
        let encoded = gzip::gzip(body.as_bytes());
        if encoded.len() < body.len() {
            shared.metrics.add("serve.gzip.responses", 1);
            return Response::ok_gzip(encoded);
        }
    }
    Response::ok(body)
}

/// About the length of one ticket object on a page, for sizing it.
const PAGE_ROW_BYTES: usize = 180;

/// Appends ticket row `row` as a page object, straight from the typed
/// columns (positions equal row indices): the names and device path the
/// ticket view carries, in its key order, with nothing allocated.
fn write_page_row(out: &mut String, cols: &FotColumns, row: usize) {
    let class = ComponentClass::ALL[usize::from(cols.classes()[row])];
    let _ = write!(
        out,
        "{{\"id\":{},\"server\":{},\"data_center\":{},\"product_line\":{},\"device\":",
        cols.ids()[row],
        cols.servers()[row],
        cols.data_centers()[row],
        cols.product_lines()[row],
    );
    write_string(out, class.name());
    // Device paths are ASCII letters, digits and `_`: nothing to escape.
    out.push_str(",\"device_path\":\"");
    dcf_trace::write_device_path(out, class, cols.device_slots()[row]);
    out.push_str("\",\"failure_type\":");
    write_string(
        out,
        FailureType::ALL[usize::from(cols.failure_types()[row])].name(),
    );
    let _ = write!(
        out,
        ",\"error_time_secs\":{},\"category\":",
        cols.error_secs(row)
    );
    write_string(
        out,
        FotCategory::ALL[usize::from(cols.categories()[row])].name(),
    );
    out.push('}');
}

/// `GET /v1/replay/{scenario}?speed=N[&seed=..&threads=..]` — streams
/// the run's replay feed (FOT tickets, inline online detections, final
/// summary) as chunked NDJSON. `speed` is simulated days per wall
/// second; `0` (the default) streams with no pacing. The event sequence
/// is precomputed and cached per run, so the bytes on the wire are
/// identical at every speed; the event loop formats each ticket line
/// from the run's trace as the line comes due and the connection has
/// room, since the cached sequence keeps only their rows.
fn handle_replay(shared: &Shared, request: &Request, scenario: &str) -> Response {
    let speed = match request.query_value("speed") {
        None => 0.0,
        Some(raw) => match raw.parse::<f64>() {
            Ok(s) if s.is_finite() && s >= 0.0 => s,
            _ => {
                return Response::error(
                    400,
                    "speed must be a finite non-negative number (simulated days per wall second; 0 = no pacing)",
                )
            }
        },
    };
    let mut raw = match RawParams::from_query(request) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    raw.scenario = scenario.to_string();
    let (entry, _hit) = match run_entry_for(shared, &raw) {
        Ok(pair) => pair,
        Err(resp) => return resp,
    };
    let artifacts = match entry.run.get() {
        Some(Ok(a)) => Arc::clone(a),
        _ => return Response::error(500, "run entry lost"),
    };
    let outcome = artifacts.replay(|| {
        let _span = shared.metrics.worker_phase("serve.replay.build");
        dcf_core::replay::replay(&artifacts.trace, &dcf_core::replay::ReplayConfig::default())
    });
    shared.metrics.add("serve.replay.streams", 1);
    shared
        .metrics
        .add("serve.replay.events", outcome.events.len() as u64 + 1);
    let ms_per_sim_sec = if speed > 0.0 {
        1000.0 / (speed * dcf_trace::SECS_PER_DAY as f64)
    } else {
        0.0
    };
    let outcome = Arc::clone(outcome);
    Response::stream(ReplayStream::new(artifacts, outcome, ms_per_sim_sec))
}
