//! The `spp serve` / `spp dispatch` HTTP service: a shared solve-cache
//! server, a solve endpoint, and a pull-based work dispatcher — all over
//! the engine's existing seams.
//!
//! One [`Server`] carries up to two independent **roles**:
//!
//! * **cache** (`spp serve --cache-dir`): the `/cache/*` key space and
//!   `POST /solve` over a [`DiskCache`];
//! * **dispatcher** (`spp dispatch`): a [`WorkQueue`] behind the
//!   `/work/*` endpoints — `spp work` pullers lease instance-file
//!   chunks, execute them through the engine pipeline, and report
//!   portable cells back; expired leases are requeued so a killed
//!   worker loses nothing, and completion is idempotent (a chunk
//!   completes once; late and duplicate completions are acknowledged,
//!   never double-counted).
//!
//! A process may serve both (a dispatcher that also hosts the shared
//! cache is the one-machine-per-role topology collapsed onto one).
//! Requests for a role the server does not carry are clean 404s.
//!
//! ## Endpoints
//!
//! | method & path | body | meaning |
//! |---|---|---|
//! | `GET /cache/<digest>-<solver>-<config-fp>` | — | fetch one `spp-cache-entry` document (404 when absent or damaged) |
//! | `PUT /cache/<digest>-<solver>-<config-fp>` | `spp-cache-entry` JSON | publish one entry (write-atomic; 400 unless the body's embedded key maps to exactly this name) |
//! | `POST /solve?solver=<name>[&epsilon=..&k=..&shelf_r=..&strict=..&budget_ms=..&improve_seed=..&improve_streams=..&improve_envelope=..]` | `spp-instance` JSON | consult the cache, solve on miss (running the anytime portfolio when `budget_ms > 0`, capped by `--max-budget-ms` / `--max-improve-streams`), return an `spp-solve-report` document |
//! | `POST /work/lease` | — | lease the next chunk (`spp-work-lease`: grant `work`, `wait`, or `done`) |
//! | `POST /work/complete` | `spp-work-complete` JSON | report a lease's cells (200 also for duplicates; 409 for unknown leases; 400 for cells that don't match the chunk) |
//! | `GET /work/status` | — | queue progress as `spp-work-status` JSON (jobs, chunks, requeues, done) |
//! | `GET /work/report` | — | the merged `spp-merged-report` once every chunk completed (409 before) |
//! | `GET /stats` | — | uptime, per-endpoint request counters, cache + queue stats as `spp-serve-stats` JSON |
//!
//! The path component of `/cache/…` is exactly
//! [`CacheKey::file_name`](spp_engine::CacheKey::file_name) minus its
//! `.json` extension, so the HTTP key space and the on-disk key space are
//! the same space. A GET validates the stored entry (parse + embedded key
//! must reproduce the file name) before serving — a damaged file is 404,
//! never bytes that could be mistaken for an entry; a PUT validates the
//! same invariant before writing, so no client can plant a mis-filed
//! entry. All writes go through
//! [`write_entry_atomic`](spp_engine::cache::write_entry_atomic): the
//! temp-file + `rename` discipline that makes concurrent writers (local
//! `DiskCache` users and HTTP PUTs alike) safe on one directory.
//!
//! ## Execution model
//!
//! Two I/O modes share one request path ([`IoMode`], `--io-mode`):
//!
//! * **blocking** (default): a fixed pool of [`spp_par::run_workers`]
//!   threads all block in `accept` on one listener; each serves one
//!   **connection** at a time — persistent HTTP/1.1, many requests per
//!   accepted socket — so at most `workers` connections (and hence at
//!   most `workers` concurrent solves) are in flight: the
//!   bounded-worker-pool contract, now paying TCP setup once per
//!   conversation instead of once per request. The idle wait is sliced
//!   so shutdown stays prompt even with idle keep-alive clients
//!   attached, and shrinks under pool pressure.
//! * **event** (Linux): one event-loop thread ([`crate::event`]) owns
//!   the listener and every *idle* connection via epoll; the same-sized
//!   worker pool only ever touches connections with readable bytes, so
//!   thousands of parked keep-alive clients cost zero workers and
//!   worker count sizes to CPU, not to connection count. Workers serve
//!   at most [`ServeConfig::turn_requests`] pipelined requests per
//!   readiness turn before re-parking the connection, so one greedy
//!   pipeliner cannot starve the ready queue.
//!
//! In both modes a connection is closed when the client asks
//! (`Connection: close`, or HTTP/1.0 without keep-alive), when its
//! request budget ([`ServeConfig::keepalive_requests`]) is spent, when
//! it sits idle past [`ServeConfig::idle_timeout`], when a started
//! request fails to complete within [`ServeConfig::header_timeout`]
//! (408 — the slowloris guard), or when a handler panics (the panic
//! costs one 500 response and that connection, never a pool worker).
//! Solves flow through the engine's one cache-consulting
//! [`execute_cells`] pipeline, exactly like `spp batch`.
//!
//! Errors are structured: every 4xx/5xx body is an `spp-serve-error`
//! JSON document naming the problem (parse errors keep the field + line
//! detail of `spp_core::json`).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spp_core::hist::AtomicHist;
use spp_core::json;
use spp_engine::cache::{entry_parse, write_entry_atomic};
use spp_engine::work::{complete_parse, grant_to_json, status_to_json};
use spp_engine::{
    execute_cells, BatchJob, CacheStats, DiskCache, ParamError, Registry, SolveCache, SolveConfig,
    SolveRequest, WorkQueue,
};

use crate::event::{self, EventConn, EventHooks, EventShared};
use crate::http::{self, HttpError, RecvBuf, Request};

/// Default cap on `PUT /cache` and `POST /solve` bodies (8 MiB — roughly
/// a 60 000-item instance, far beyond anything the suite generates).
pub const DEFAULT_MAX_BODY: usize = 8 * 1024 * 1024;

/// Default per-connection request budget: after this many requests the
/// server answers the next one with `Connection: close`. High enough to
/// amortize TCP setup to nothing, low enough that one greedy client
/// cannot monopolize a pool worker forever.
pub const DEFAULT_KEEPALIVE_REQUESTS: u64 = 1000;

/// Default keep-alive idle timeout: a connection with no next request
/// within this window is closed and its worker returns to `accept`.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Default server-side cap on `POST /solve?budget_ms=`: one request must
/// not pin a pool worker in the anytime loop for longer than this —
/// larger asks are a 400, not a queued-behind-you stall for every other
/// client of that worker.
pub const DEFAULT_MAX_BUDGET_MS: u64 = 10_000;

/// Default server-side cap on `POST /solve?improve_streams=`: each
/// stream is a full budget's worth of compute, so the portfolio width a
/// request may ask for is bounded the same way the budget itself is.
pub const DEFAULT_MAX_IMPROVE_STREAMS: u64 = 16;

/// Granularity of the idle wait: workers re-check the shutdown flag
/// between slices, bounding shutdown latency even with idle keep-alive
/// clients attached.
const IDLE_SLICE: Duration = Duration::from_millis(200);

/// Idle grace under pool pressure: when no worker is left blocking in
/// `accept` (every one is serving a connection), each connection's idle
/// wait shrinks to this, so an idle keep-alive client frees its worker
/// for the backlog instead of starving new connections for the full
/// idle timeout. With spare workers the full timeout applies — reuse is
/// only traded away when it is actually contended.
const PRESSURED_IDLE: Duration = Duration::from_millis(200);

/// Backoff after a failed `accept` (fd exhaustion, transient kernel
/// errors): without it a persistent failure spins every worker hot.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Default whole-message deadline, armed when the first byte of a
/// request arrives: request line, headers, and body must all complete
/// within it or the request is answered 408 and the connection closed.
/// The slowloris guard — a byte-at-a-time client cannot pin a worker
/// past this budget, because trickling never resets the clock.
pub const DEFAULT_HEADER_TIMEOUT: Duration = Duration::from_secs(10);

/// Default cap on pipelined requests one connection may have served per
/// event-mode readiness turn before its worker re-parks it (fairness:
/// a heavy pipeliner rotates to the ready-queue tail instead of holding
/// its worker until the keep-alive budget runs out).
pub const DEFAULT_TURN_REQUESTS: u64 = 8;

/// How `spp serve` waits for request bytes — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// Platform default: blocking, unless the `SPP_IO_MODE=event`
    /// environment opt-in is set on a platform that supports it.
    Auto,
    /// One pool worker per in-flight connection, blocking reads.
    Blocking,
    /// epoll multiplexer + worker pool (Linux; elsewhere this silently
    /// resolves to blocking — the automatic fallback).
    Event,
}

impl IoMode {
    /// Parse a `--io-mode` flag value.
    pub fn parse(s: &str) -> Result<IoMode, String> {
        match s {
            "auto" => Ok(IoMode::Auto),
            "blocking" => Ok(IoMode::Blocking),
            "event" => Ok(IoMode::Event),
            other => Err(format!(
                "unknown io mode {other:?}; expected auto, blocking, or event"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            IoMode::Auto => "auto",
            IoMode::Blocking => "blocking",
            IoMode::Event => "event",
        }
    }

    /// The mode a server actually runs: `Auto` consults the
    /// `SPP_IO_MODE` environment opt-in, and `Event` falls back to
    /// `Blocking` where epoll does not exist.
    fn resolve(self) -> IoMode {
        let event_available = event::SUPPORTED;
        match self {
            IoMode::Event if event_available => IoMode::Event,
            IoMode::Event | IoMode::Blocking => IoMode::Blocking,
            IoMode::Auto => {
                let opted_in = std::env::var("SPP_IO_MODE").is_ok_and(|v| v == "event");
                if event_available && opted_in {
                    IoMode::Event
                } else {
                    IoMode::Blocking
                }
            }
        }
    }
}

/// Server configuration (the `spp serve` / `spp dispatch` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (`:0` picks a free port).
    pub addr: String,
    /// Worker-pool size; `0` means `available_parallelism`.
    pub workers: usize,
    /// Request-body limit in bytes.
    pub max_body: usize,
    /// Directory of the backing [`DiskCache`]; `None` disables the cache
    /// role (`/cache/*` and `/solve` answer 404) — a dispatcher-only
    /// process.
    pub cache_dir: Option<PathBuf>,
    /// Refuse `PUT /cache` and skip write-back after `/solve` misses.
    pub readonly: bool,
    /// Requests served per connection before the server closes it
    /// (`0` is treated as `1`: every connection serves at least one).
    pub keepalive_requests: u64,
    /// How long a connection may sit idle between requests before the
    /// server closes it.
    pub idle_timeout: Duration,
    /// Shared bearer token (`--token-file`): when set, the mutating /
    /// expensive endpoints (`PUT /cache/*`, `POST /solve`,
    /// `POST /work/*`) require `Authorization: Bearer <token>` and
    /// answer 401 otherwise. `None` leaves the server open — the
    /// single-machine and trusted-network default.
    pub token: Option<String>,
    /// How connections wait for request bytes (`--io-mode`).
    pub io_mode: IoMode,
    /// Whole-message parse deadline, armed at a request's first byte
    /// (the slowloris guard; see [`DEFAULT_HEADER_TIMEOUT`]).
    pub header_timeout: Duration,
    /// Event-mode fairness cap: pipelined requests served per readiness
    /// turn before the connection re-parks.
    pub turn_requests: u64,
    /// Upper bound accepted for `POST /solve?budget_ms=` (`--max-budget-ms`);
    /// requests asking for more are rejected with 400 instead of pinning
    /// a pool worker in the anytime loop.
    pub max_budget_ms: u64,
    /// Upper bound accepted for `POST /solve?improve_streams=`
    /// (`--max-improve-streams`); wider portfolios are a 400.
    pub max_improve_streams: u64,
}

impl ServeConfig {
    /// A cache-role config (the historical `spp serve` shape).
    pub fn new(cache_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            max_body: DEFAULT_MAX_BODY,
            cache_dir: Some(cache_dir.into()),
            readonly: false,
            keepalive_requests: DEFAULT_KEEPALIVE_REQUESTS,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            token: None,
            io_mode: IoMode::Auto,
            header_timeout: DEFAULT_HEADER_TIMEOUT,
            turn_requests: DEFAULT_TURN_REQUESTS,
            max_budget_ms: DEFAULT_MAX_BUDGET_MS,
            max_improve_streams: DEFAULT_MAX_IMPROVE_STREAMS,
        }
    }

    /// A config with no cache role; pair with
    /// [`Server::bind_with_work`] for a dispatcher-only process.
    pub fn without_cache() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            max_body: DEFAULT_MAX_BODY,
            cache_dir: None,
            readonly: false,
            keepalive_requests: DEFAULT_KEEPALIVE_REQUESTS,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            token: None,
            io_mode: IoMode::Auto,
            header_timeout: DEFAULT_HEADER_TIMEOUT,
            turn_requests: DEFAULT_TURN_REQUESTS,
            max_budget_ms: DEFAULT_MAX_BUDGET_MS,
            max_improve_streams: DEFAULT_MAX_IMPROVE_STREAMS,
        }
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1)
    }
}

/// Failures to *stand up* the service (per-request failures are HTTP
/// responses, never process errors).
#[derive(Debug)]
pub enum ServeError {
    Bind { addr: String, err: String },
    Cache(spp_engine::CacheError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, err } => write!(f, "cannot bind {addr}: {err}"),
            ServeError::Cache(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-endpoint request counts — the dispatcher (and cache server) is
/// observable from `/stats` alone, no log scraping. Every routed request
/// increments exactly one field, whatever its response status.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointCounters {
    /// `GET /cache/<key>`.
    pub cache_get: u64,
    /// `PUT /cache/<key>`.
    pub cache_put: u64,
    /// `POST /solve`.
    pub solve: u64,
    /// `GET /stats`.
    pub stats: u64,
    /// `POST /work/lease`.
    pub work_lease: u64,
    /// `POST /work/complete`.
    pub work_complete: u64,
    /// `GET /work/status`.
    pub work_status: u64,
    /// `GET /work/report`.
    pub work_report: u64,
    /// Anything else (404/405 paths).
    pub other: u64,
}

/// Lifetime request counters, all monotonically increasing. `/stats`
/// reports them next to the cache handle's own [`CacheStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeCounters {
    /// Requests accepted (whatever their outcome).
    pub requests: u64,
    /// Connections accepted (each may carry many requests).
    pub connections_accepted: u64,
    /// Requests served on an already-used connection — request 2..n of a
    /// keep-alive conversation. `requests − keepalive_reuses` is the
    /// number of connections that carried at least one request.
    pub keepalive_reuses: u64,
    /// `accept` failures survived (each also costs a short backoff).
    pub accept_failures: u64,
    /// Most requests any single (finished or ongoing) connection served.
    pub max_requests_per_connection: u64,
    /// `GET /cache` that returned an entry.
    pub cache_get_hits: u64,
    /// `GET /cache` that returned 404 (absent or damaged).
    pub cache_get_misses: u64,
    /// Accepted `PUT /cache` writes.
    pub cache_puts: u64,
    /// `/solve` requests that invoked a solver (cache miss).
    pub solves: u64,
    /// `/solve` requests answered from the cache.
    pub solve_cache_hits: u64,
    /// Rounds the anytime improvement loop ran across all fresh
    /// `/solve` misses (0 unless clients pass `budget_ms=`).
    pub improve_iterations: u64,
    /// Portfolio streams run across all fresh `/solve` misses (equals
    /// `improve_iterations`'s denominator: rounds-per-stream is
    /// `iterations / streams`).
    pub improve_streams: u64,
    /// Decodes abandoned against the shared cross-stream envelope (0
    /// unless clients pass `improve_envelope=true`).
    pub improve_envelope_prunes: u64,
    /// Fresh `/solve` misses whose anytime loop strictly beat the seed
    /// placement.
    pub improved_cells: u64,
    /// Total makespan removed by improvement across fresh `/solve`
    /// misses (sum of `seed − improved`, in strip-height units).
    pub improve_total_gain: f64,
    /// Responses with a 4xx/5xx status — excluding `GET /cache` misses,
    /// which are protocol-normal 404s already counted as
    /// `cache_get_misses`, and pre-completion `GET /work/report` polls
    /// (a protocol-normal 409 while workers are still pulling).
    pub errors: u64,
    /// Requests by endpoint.
    pub endpoints: EndpointCounters,
}

#[derive(Default)]
struct AtomicCounters {
    requests: AtomicU64,
    connections_accepted: AtomicU64,
    keepalive_reuses: AtomicU64,
    accept_failures: AtomicU64,
    max_requests_per_connection: AtomicU64,
    cache_get_hits: AtomicU64,
    cache_get_misses: AtomicU64,
    cache_puts: AtomicU64,
    solves: AtomicU64,
    solve_cache_hits: AtomicU64,
    improve_iterations: AtomicU64,
    improve_streams: AtomicU64,
    improve_envelope_prunes: AtomicU64,
    improved_cells: AtomicU64,
    /// f64 bit pattern, accumulated via CAS ([`AtomicCounters::add_gain`]).
    improve_total_gain_bits: AtomicU64,
    errors: AtomicU64,
    ep_cache_get: AtomicU64,
    ep_cache_put: AtomicU64,
    ep_solve: AtomicU64,
    ep_stats: AtomicU64,
    ep_work_lease: AtomicU64,
    ep_work_complete: AtomicU64,
    ep_work_status: AtomicU64,
    ep_work_report: AtomicU64,
    ep_other: AtomicU64,
}

impl AtomicCounters {
    /// Accumulate improvement gain: f64 addition over an atomic bit
    /// pattern (compare-exchange loop — gains arrive from many pool
    /// workers at once and locks have no place on the request path).
    fn add_gain(&self, gain: f64) {
        if gain <= 0.0 {
            return;
        }
        let mut cur = self.improve_total_gain_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + gain).to_bits();
            match self.improve_total_gain_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn snapshot(&self) -> ServeCounters {
        ServeCounters {
            requests: self.requests.load(Ordering::Relaxed),
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            keepalive_reuses: self.keepalive_reuses.load(Ordering::Relaxed),
            accept_failures: self.accept_failures.load(Ordering::Relaxed),
            max_requests_per_connection: self.max_requests_per_connection.load(Ordering::Relaxed),
            cache_get_hits: self.cache_get_hits.load(Ordering::Relaxed),
            cache_get_misses: self.cache_get_misses.load(Ordering::Relaxed),
            cache_puts: self.cache_puts.load(Ordering::Relaxed),
            solves: self.solves.load(Ordering::Relaxed),
            solve_cache_hits: self.solve_cache_hits.load(Ordering::Relaxed),
            improve_iterations: self.improve_iterations.load(Ordering::Relaxed),
            improve_streams: self.improve_streams.load(Ordering::Relaxed),
            improve_envelope_prunes: self.improve_envelope_prunes.load(Ordering::Relaxed),
            improved_cells: self.improved_cells.load(Ordering::Relaxed),
            improve_total_gain: f64::from_bits(
                self.improve_total_gain_bits.load(Ordering::Relaxed),
            ),
            errors: self.errors.load(Ordering::Relaxed),
            endpoints: EndpointCounters {
                cache_get: self.ep_cache_get.load(Ordering::Relaxed),
                cache_put: self.ep_cache_put.load(Ordering::Relaxed),
                solve: self.ep_solve.load(Ordering::Relaxed),
                stats: self.ep_stats.load(Ordering::Relaxed),
                work_lease: self.ep_work_lease.load(Ordering::Relaxed),
                work_complete: self.ep_work_complete.load(Ordering::Relaxed),
                work_status: self.ep_work_status.load(Ordering::Relaxed),
                work_report: self.ep_work_report.load(Ordering::Relaxed),
                other: self.ep_other.load(Ordering::Relaxed),
            },
        }
    }
}

struct State {
    cache: Option<DiskCache>,
    /// The dispatcher role: the engine's lease queue behind a mutex
    /// (every `/work/*` request takes it briefly; chunk execution happens
    /// in the workers' processes, never under this lock).
    work: Option<Mutex<WorkQueue>>,
    registry: Registry,
    counters: AtomicCounters,
    /// Per-request service latency (route + response write, excluding
    /// idle waits between requests), in nanoseconds. `/stats` reports its
    /// quantiles in microseconds.
    latency: AtomicHist,
    max_body: usize,
    keepalive_requests: u64,
    idle_timeout: Duration,
    /// Whole-message parse deadline (the slowloris guard).
    header_timeout: Duration,
    /// Event-mode per-readiness-turn pipelining cap.
    turn_requests: u64,
    /// Largest `budget_ms=` a `/solve` request may ask for.
    max_budget_ms: u64,
    /// Largest `improve_streams=` a `/solve` request may ask for.
    max_improve_streams: u64,
    /// The resolved I/O mode this server runs (never `Auto`).
    io_mode: IoMode,
    /// Event-loop shared state; `Some` exactly when `io_mode` is Event.
    event: Option<Arc<EventShared>>,
    token: Option<String>,
    /// Workers currently blocked in `accept` — connection loops consult
    /// this to shrink their idle grace when the pool is saturated.
    accepting: AtomicU64,
    started: Instant,
    shutdown: AtomicBool,
}

/// A bound-but-not-yet-running service. [`Server::run`] blocks the
/// calling thread on the worker pool; [`Server::spawn`] runs it on a
/// background thread and returns a [`ServerHandle`] for shutdown —
/// the in-process form the tests and `HttpCache` agreement suite use.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    workers: usize,
    state: Arc<State>,
}

impl Server {
    /// Bind the listener and open the cache directory (cache role only —
    /// the historical `spp serve` shape).
    pub fn bind(config: &ServeConfig) -> Result<Server, ServeError> {
        Server::bind_with_work(config, None)
    }

    /// Bind with an optional dispatcher role: pass a [`WorkQueue`] and
    /// the server additionally speaks `/work/lease`, `/work/complete`,
    /// `/work/status` and `/work/report`. With `config.cache_dir` also
    /// set, one process serves both roles (queue + shared cache).
    pub fn bind_with_work(
        config: &ServeConfig,
        work: Option<WorkQueue>,
    ) -> Result<Server, ServeError> {
        if config.cache_dir.is_none() && work.is_none() {
            return Err(ServeError::Bind {
                addr: config.addr.clone(),
                err: "server has no role: no cache directory and no work queue".into(),
            });
        }
        let listener = TcpListener::bind(&config.addr).map_err(|e| ServeError::Bind {
            addr: config.addr.clone(),
            err: e.to_string(),
        })?;
        let addr = listener.local_addr().map_err(|e| ServeError::Bind {
            addr: config.addr.clone(),
            err: e.to_string(),
        })?;
        let cache = match &config.cache_dir {
            Some(dir) => {
                // A read-only server over a missing directory would answer
                // every request 404/500 forever; refuse at startup like
                // the CLI does.
                if config.readonly && !dir.is_dir() {
                    return Err(ServeError::Cache(spp_engine::CacheError::Io {
                        path: dir.display().to_string(),
                        err: "read-only cache directory does not exist".into(),
                    }));
                }
                Some(DiskCache::new(dir, config.readonly).map_err(ServeError::Cache)?)
            }
            None => None,
        };
        let io_mode = config.io_mode.resolve();
        let event = match io_mode {
            IoMode::Event => Some(Arc::new(EventShared::new().map_err(|e| {
                ServeError::Bind {
                    addr: config.addr.clone(),
                    err: format!("cannot set up the event loop: {e}"),
                }
            })?)),
            _ => None,
        };
        Ok(Server {
            listener,
            addr,
            workers: config.effective_workers(),
            state: Arc::new(State {
                cache,
                work: work.map(Mutex::new),
                registry: Registry::builtin(),
                counters: AtomicCounters::default(),
                latency: AtomicHist::new(),
                max_body: config.max_body,
                keepalive_requests: config.keepalive_requests.max(1),
                idle_timeout: config.idle_timeout.max(Duration::from_millis(1)),
                header_timeout: config.header_timeout.max(Duration::from_millis(1)),
                turn_requests: config.turn_requests.max(1),
                max_budget_ms: config.max_budget_ms,
                max_improve_streams: config.max_improve_streams,
                io_mode,
                event,
                token: config.token.clone(),
                accepting: AtomicU64::new(0),
                started: Instant::now(),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The I/O mode this server will actually run (`Auto` already
    /// resolved against the platform and the `SPP_IO_MODE` opt-in).
    pub fn io_mode(&self) -> IoMode {
        self.state.io_mode
    }

    /// The actually bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serve until [`ServerHandle::shutdown`] flips the flag. Blocks on a
    /// fixed [`spp_par::run_workers`] pool: concurrency — connections and
    /// solves alike — is bounded at `workers` by construction.
    pub fn run(self) {
        let state = &self.state;
        let listener = &self.listener;
        if let Some(shared) = &state.event {
            run_event(listener, state, shared, self.workers);
            return;
        }
        spp_par::run_workers(self.workers, |_| loop {
            if state.shutdown.load(Ordering::Relaxed) {
                break;
            }
            state.accepting.fetch_add(1, Ordering::Relaxed);
            let accepted = listener.accept();
            state.accepting.fetch_sub(1, Ordering::Relaxed);
            match accepted {
                Ok((stream, _)) => {
                    if state.shutdown.load(Ordering::Relaxed) {
                        break; // wake-up poke, not a request
                    }
                    state
                        .counters
                        .connections_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    // Last-resort unwind guard: per-request panics are
                    // already caught inside the connection loop, but a
                    // panic in the loop's own plumbing must still cost
                    // one connection, not one pool worker.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        handle_connection(&stream, state);
                    }));
                }
                // Transient accept failures (peer reset mid-handshake,
                // fd pressure): keep the worker alive, but back off —
                // a persistent failure must not spin every worker hot.
                Err(_) => {
                    state
                        .counters
                        .accept_failures
                        .fetch_add(1, Ordering::Relaxed);
                    if state.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
            }
        });
    }

    /// Run on a background thread; the returned handle stops the pool.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let workers = self.workers;
        let state = Arc::clone(&self.state);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            workers,
            state,
            thread,
        }
    }
}

/// Handle to a running [`Server::spawn`] instance.
pub struct ServerHandle {
    addr: SocketAddr,
    workers: usize,
    state: Arc<State>,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// `host:port` authority string for clients.
    pub fn authority(&self) -> String {
        self.addr.to_string()
    }

    /// Base URL for [`HttpCache::new`](crate::HttpCache::new).
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Counter snapshot (the same numbers `/stats` reports).
    pub fn counters(&self) -> ServeCounters {
        self.state.counters.snapshot()
    }

    /// Stop accepting, wake every worker, and join the pool.
    pub fn shutdown(self) {
        self.state.shutdown.store(true, Ordering::Relaxed);
        match &self.state.event {
            // Event mode: the self-pipe wakes the loop, the condvar
            // broadcast wakes the pool — no TCP pokes needed.
            Some(shared) => shared.initiate_shutdown(),
            // Blocking mode: one poke per worker, so each blocked
            // accept returns once, sees the flag, and exits.
            None => {
                for _ in 0..self.workers {
                    let _ = TcpStream::connect(self.addr);
                }
            }
        }
        let _ = self.thread.join();
    }
}

/// Event-mode service: one multiplexer thread (accept + parked
/// connections + idle deadlines) and `workers` pool threads that only
/// ever touch connections with readable bytes. The scope joins
/// everything before returning, and the loop always broadcasts shutdown
/// on exit so no worker can be left asleep.
fn run_event(listener: &TcpListener, state: &State, shared: &Arc<EventShared>, workers: usize) {
    let counters = &state.counters;
    let on_accept = || {
        counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
    };
    let on_accept_error = || {
        counters.accept_failures.fetch_add(1, Ordering::Relaxed);
    };
    let on_retire = |served: u32| {
        counters
            .max_requests_per_connection
            .fetch_max(u64::from(served), Ordering::Relaxed);
    };
    std::thread::scope(|scope| {
        let loop_shared = Arc::clone(shared);
        scope.spawn(move || {
            let hooks = EventHooks {
                on_accept: &on_accept,
                on_accept_error: &on_accept_error,
                on_retire: &on_retire,
            };
            let result = event::run_event_loop(listener, &loop_shared, state.idle_timeout, hooks);
            // Whatever ended the loop — shutdown or an epoll failure —
            // the pool must not be left blocked on the ready queue.
            loop_shared.initiate_shutdown();
            if let Err(e) = result {
                if !state.shutdown.load(Ordering::Relaxed) {
                    eprintln!("spp-serve: event loop failed: {e}");
                }
            }
        });
        for _ in 0..workers {
            let worker_shared = Arc::clone(shared);
            scope.spawn(move || {
                while let Some(conn) = worker_shared.next_ready() {
                    event_serve(conn, state, &worker_shared);
                }
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

const ERROR_FORMAT: &str = "spp-serve-error";
const STATS_FORMAT: &str = "spp-serve-stats";
const SOLVE_FORMAT: &str = "spp-solve-report";

fn error_body(status: u16, msg: &str) -> String {
    format!(
        "{{\n  \"format\": \"{ERROR_FORMAT}\",\n  \"status\": {status},\n  \"error\": \"{}\"\n}}\n",
        json::escape(msg)
    )
}

/// The outcome every handler reduces to.
struct Reply {
    status: u16,
    content_type: &'static str,
    body: String,
    /// 4xx that is part of the protocol's happy path (a cache-GET miss):
    /// not an `errors` counter event.
    expected: bool,
}

impl Reply {
    fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            body,
            expected: false,
        }
    }

    fn error(status: u16, msg: &str) -> Reply {
        Reply::json(status, error_body(status, msg))
    }
}

/// Wait for the next request at a connection boundary, slicing the idle
/// wait so the worker re-checks the shutdown flag every [`IDLE_SLICE`].
/// Returns [`HttpError::Idle`] once the full idle budget (or shutdown)
/// expires with no byte received; any arriving byte hands off to the
/// normal request parse, bounded by the whole-message
/// [`State::header_timeout`] deadline.
fn read_request_idle(
    stream: &TcpStream,
    buf: &mut RecvBuf,
    state: &State,
) -> Result<Request, HttpError> {
    let mut waited = Duration::ZERO;
    loop {
        // Under pool pressure (no worker left in `accept`), this
        // connection's idle grace shrinks so its worker can drain the
        // backlog; re-checked each slice so relief applies immediately.
        let budget = if state.accepting.load(Ordering::Relaxed) == 0 {
            state.idle_timeout.min(PRESSURED_IDLE)
        } else {
            state.idle_timeout
        };
        let remaining = budget.saturating_sub(waited);
        if remaining.is_zero() || state.shutdown.load(Ordering::Relaxed) {
            return Err(HttpError::Idle);
        }
        let slice = remaining.min(IDLE_SLICE);
        stream
            .set_read_timeout(Some(slice))
            .map_err(|e| HttpError::Io(e.to_string()))?;
        match http::read_request(
            stream,
            buf,
            state.max_body,
            Some(state.header_timeout),
            false,
        ) {
            Err(HttpError::Idle) => waited += slice,
            other => return other,
        }
    }
}

/// Final response for a request that failed to parse (or to arrive
/// within its deadline); the connection always closes after — framing
/// can't be trusted past a malformed message.
fn protocol_error_close(stream: &TcpStream, e: HttpError, state: &State) {
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    state.counters.errors.fetch_add(1, Ordering::Relaxed);
    let reply = match e {
        HttpError::LengthRequired => Reply::error(411, "Content-Length header required"),
        HttpError::TooLarge { limit } => {
            Reply::error(413, &format!("request body exceeds the {limit}-byte limit"))
        }
        HttpError::Deadline => Reply::error(408, "request not completed within the deadline"),
        HttpError::Bad(msg) => Reply::error(400, &msg),
        HttpError::Io(_) | HttpError::Closed | HttpError::Idle => unreachable!(),
    };
    let _ = http::write_response_conn(stream, reply.status, reply.content_type, &reply.body, true);
}

/// Route one parsed request and write its response. `served` is this
/// request's 1-based ordinal on its connection (keep-alive accounting
/// and the request budget). Returns whether the connection must close.
fn respond(stream: &TcpStream, request: &Request, served: u64, state: &State) -> bool {
    if served > 1 {
        state
            .counters
            .keepalive_reuses
            .fetch_add(1, Ordering::Relaxed);
    }
    state.counters.requests.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    // A panicking handler (a solver bug on some input) must cost one
    // 500 response and this connection, not a pool worker — an
    // uncaught unwind here would silently shrink the pool to zero
    // over time.
    let (reply, panicked) =
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(request, state))) {
            Ok(reply) => (reply, false),
            Err(_) => (
                Reply::error(500, "internal error while handling the request"),
                true,
            ),
        };
    if reply.status >= 400 && !reply.expected {
        state.counters.errors.fetch_add(1, Ordering::Relaxed);
    }
    let close = request.close
        || panicked
        || served >= state.keepalive_requests
        || state.shutdown.load(Ordering::Relaxed);
    // RFC 9110 §11.6.1: a 401 must name the authentication scheme it
    // expects.
    let extra: &[(&str, &str)] = if reply.status == 401 {
        &[("WWW-Authenticate", "Bearer")]
    } else {
        &[]
    };
    let written = http::write_response_headers(
        stream,
        reply.status,
        reply.content_type,
        &reply.body,
        close,
        extra,
    );
    state
        .latency
        .record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    close || written.is_err()
}

/// Serve one accepted connection (blocking mode): many requests per
/// socket, bounded by the request budget, the idle timeout, the
/// client's own `Connection` header, and shutdown. The [`RecvBuf`]
/// lives as long as the connection — a per-request buffer would drop
/// read-ahead bytes of a pipelined next request on the floor.
fn handle_connection(stream: &TcpStream, state: &State) {
    if stream.set_write_timeout(Some(http::IO_TIMEOUT)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut buf = RecvBuf::new();
    let mut served: u64 = 0;
    loop {
        let request = match read_request_idle(stream, &mut buf, state) {
            Ok(request) => request,
            // Clean end of the conversation: peer closed at a boundary,
            // idle budget spent, or shutdown. Nothing owed.
            Err(HttpError::Closed | HttpError::Idle) => break,
            // Peer broke mid-message (disconnect, stall): no one is
            // listening for a response.
            Err(HttpError::Io(_)) => break,
            // Protocol errors (and blown deadlines) get a final
            // response, then the connection closes.
            Err(e) => {
                protocol_error_close(stream, e, state);
                break;
            }
        };
        served += 1;
        if respond(stream, &request, served, state) {
            break;
        }
    }
    state
        .counters
        .max_requests_per_connection
        .fetch_max(served, Ordering::Relaxed);
}

/// What a worker does with a connection after one readiness turn.
enum Turn {
    /// Return it to the event loop (idle, or the per-turn cap).
    Park(EventConn),
    /// Done with it; the payload is its served-request count.
    Close(u32),
}

/// One event-mode service turn under a panic guard: park outcomes go
/// back to the loop, closes record `max_requests_per_connection` (the
/// loop does the same for connections it retires itself).
fn event_serve(conn: EventConn, state: &State, shared: &EventShared) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve_turn(conn, state, shared)
    })) {
        Ok(Turn::Park(conn)) => shared.park(conn),
        Ok(Turn::Close(served)) => {
            state
                .counters
                .max_requests_per_connection
                .fetch_max(u64::from(served), Ordering::Relaxed);
        }
        // The connection was lost to the unwind (already closed by its
        // Drop); per-request panics were caught inside `respond`, so
        // this only fires on turn-plumbing bugs.
        Err(_) => {}
    }
}

/// Serve one readiness turn of an event-mode connection: requests are
/// parsed and answered exactly like blocking mode, but a boundary with
/// nothing readable parks the connection instead of holding the worker,
/// and at most [`State::turn_requests`] pipelined requests are served
/// before yielding it back to the ready-queue rotation.
fn serve_turn(mut conn: EventConn, state: &State, shared: &EventShared) -> Turn {
    if conn.served == 0 {
        // First time a worker touches this connection.
        if conn
            .stream
            .set_write_timeout(Some(http::IO_TIMEOUT))
            .is_err()
        {
            return Turn::Close(conn.served);
        }
        let _ = conn.stream.set_nodelay(true);
    }
    let mut turn_served: u64 = 0;
    loop {
        if state.shutdown.load(Ordering::Relaxed) {
            return Turn::Close(conn.served);
        }
        // Boundary probe on the non-blocking socket. The moment a first
        // byte arrives, `read_request` flips the socket back to
        // blocking and arms the whole-message deadline, so the rest of
        // the parse — and the response write — run exactly like
        // blocking mode.
        let request = match http::read_request(
            &conn.stream,
            &mut conn.buf,
            state.max_body,
            Some(state.header_timeout),
            true,
        ) {
            Ok(request) => request,
            // Nothing readable at the boundary: hand the connection
            // back to epoll instead of holding this worker.
            Err(HttpError::Idle) => {
                shared
                    .counters
                    .eagain_retries
                    .fetch_add(1, Ordering::Relaxed);
                return Turn::Park(conn);
            }
            // Clean close at a boundary, or a peer broken mid-message.
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => return Turn::Close(conn.served),
            Err(e) => {
                protocol_error_close(&conn.stream, e, state);
                return Turn::Close(conn.served);
            }
        };
        conn.served = conn.served.saturating_add(1);
        turn_served += 1;
        if respond(&conn.stream, &request, u64::from(conn.served), state) {
            return Turn::Close(conn.served);
        }
        // Back to non-blocking for the next boundary probe.
        if conn.stream.set_nonblocking(true).is_err() {
            return Turn::Close(conn.served);
        }
        if turn_served >= state.turn_requests {
            // Fairness: yield. With pipelined bytes still buffered the
            // loop requeues this connection at the ready-queue tail;
            // otherwise it parks in epoll like any idle connection.
            return Turn::Park(conn);
        }
    }
}

/// Whether this request may use a token-gated endpoint. A server
/// without a configured token is open; with one, the request must carry
/// `Authorization: Bearer <token>` matching it (constant-time compare —
/// response timing must not leak how much of a guess was right).
fn authorized(request: &Request, state: &State) -> bool {
    let Some(expected) = &state.token else {
        return true;
    };
    request
        .authorization
        .as_deref()
        .and_then(crate::auth::bearer_token)
        .is_some_and(|presented| {
            crate::auth::constant_time_eq(presented.as_bytes(), expected.as_bytes())
        })
}

fn unauthorized() -> Reply {
    Reply::error(
        401,
        "missing or invalid bearer token; send Authorization: Bearer <token>",
    )
}

fn route(request: &Request, state: &State) -> Reply {
    let count = |c: &AtomicU64| {
        c.fetch_add(1, Ordering::Relaxed);
    };
    let ep = &state.counters;
    // Mutating / expensive endpoints sit behind the bearer-token gate;
    // read-only endpoints (cache GET, stats, work status/report) stay
    // open so health checks and dashboards need no credential plumbing.
    let protected = matches!(
        (request.method.as_str(), request.path.as_str()),
        ("PUT", path) if path.starts_with("/cache/")
    ) || matches!(
        (request.method.as_str(), request.path.as_str()),
        ("POST", "/solve" | "/work/lease" | "/work/complete")
    );
    if protected && !authorized(request, state) {
        count(&ep.ep_other);
        return unauthorized();
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/stats") => {
            count(&ep.ep_stats);
            stats_reply(state)
        }
        ("GET", path) if path.starts_with("/cache/") => {
            count(&ep.ep_cache_get);
            cache_get(&path["/cache/".len()..], state)
        }
        ("PUT", path) if path.starts_with("/cache/") => {
            count(&ep.ep_cache_put);
            cache_put(&path["/cache/".len()..], &request.body, state)
        }
        ("POST", "/solve") => {
            count(&ep.ep_solve);
            solve(request, state)
        }
        ("POST", "/work/lease") => {
            count(&ep.ep_work_lease);
            work_lease(state)
        }
        ("POST", "/work/complete") => {
            count(&ep.ep_work_complete);
            work_complete(&request.body, state)
        }
        ("GET", "/work/status") => {
            count(&ep.ep_work_status);
            work_status(state)
        }
        ("GET", "/work/report") => {
            count(&ep.ep_work_report);
            work_report(state)
        }
        ("GET" | "PUT" | "POST" | "DELETE" | "HEAD", _) => {
            count(&ep.ep_other);
            Reply::error(
                404,
                &format!(
                    "no such endpoint {} {}; this server speaks GET/PUT /cache/<key>, POST /solve, \
                     POST /work/lease, POST /work/complete, GET /work/status, GET /work/report, \
                     GET /stats",
                    request.method, request.path
                ),
            )
        }
        _ => {
            count(&ep.ep_other);
            Reply::error(405, &format!("method {} not supported", request.method))
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatcher role (`/work/*`)
// ---------------------------------------------------------------------------

/// The work queue, or the 404 every `/work/*` endpoint answers on a
/// server without the dispatcher role.
fn work_queue_of(state: &State) -> Result<&Mutex<WorkQueue>, Reply> {
    state.work.as_ref().ok_or_else(|| {
        Reply::error(
            404,
            "this server has no dispatcher role (start it as `spp dispatch` to serve a work queue)",
        )
    })
}

fn work_lease(state: &State) -> Reply {
    let work = match work_queue_of(state) {
        Ok(work) => work,
        Err(reply) => return reply,
    };
    let mut queue = work.lock().expect("work queue mutex poisoned");
    let deadline = queue.timeout().map(|t| t.as_secs());
    let grant = queue.lease(Instant::now());
    Reply::json(200, grant_to_json(&grant, deadline))
}

fn work_complete(body: &str, state: &State) -> Reply {
    let work = match work_queue_of(state) {
        Ok(work) => work,
        Err(reply) => return reply,
    };
    let (lease_id, start, cells) = match complete_parse(body) {
        Ok(parsed) => parsed,
        Err(e) => return Reply::error(400, &format!("body is not a work completion: {e}")),
    };
    let mut queue = work.lock().expect("work queue mutex poisoned");
    if !queue.knows_lease(lease_id) {
        // A lease this queue never granted (e.g. a worker outliving a
        // dispatcher restart): the worker's state is stale, not merely
        // malformed — 409 so it can tell the difference.
        return Reply::error(409, &format!("unknown lease id {lease_id}"));
    }
    match queue.complete(lease_id, start, &cells) {
        Ok(()) => Reply::json(
            200,
            "{\n  \"format\": \"spp-work-accepted\",\n  \"accepted\": true\n}\n".into(),
        ),
        Err(e) => Reply::error(400, &e.to_string()),
    }
}

fn work_status(state: &State) -> Reply {
    let work = match work_queue_of(state) {
        Ok(work) => work,
        Err(reply) => return reply,
    };
    let mut queue = work.lock().expect("work queue mutex poisoned");
    Reply::json(200, status_to_json(&queue.status(Instant::now())))
}

fn work_report(state: &State) -> Reply {
    let work = match work_queue_of(state) {
        Ok(work) => work,
        Err(reply) => return reply,
    };
    let mut queue = work.lock().expect("work queue mutex poisoned");
    match queue.merged() {
        Some(merged) => Reply::json(200, merged.to_json()),
        None => {
            let status = queue.status(Instant::now());
            Reply {
                // Polling for the report before the batch finishes is
                // protocol-normal (the thin batch client does exactly
                // that), not an error-counter event.
                expected: true,
                ..Reply::error(
                    409,
                    &format!(
                        "batch not complete: {} of {} chunks done",
                        status.completed_chunks, status.chunks
                    ),
                )
            }
        }
    }
}

/// A `/cache/` path component is exactly a cache entry's file stem:
/// lowercase digest hex, registry solver name, config fingerprint hex,
/// dash-joined. Anything else — in particular separators or dots that
/// could escape the cache directory — is rejected before touching the
/// filesystem.
fn valid_key_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 256
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
}

/// The disk cache, or the 404 every cache-role endpoint answers on a
/// server without one (a dispatcher-only process).
fn cache_of(state: &State) -> Result<&DiskCache, Reply> {
    state.cache.as_ref().ok_or_else(|| {
        Reply::error(
            404,
            "this server has no cache role (start it with --cache-dir to serve one)",
        )
    })
}

fn cache_get(name: &str, state: &State) -> Reply {
    let cache = match cache_of(state) {
        Ok(c) => c,
        Err(reply) => return reply,
    };
    if !valid_key_name(name) {
        return Reply::error(400, &format!("invalid cache key {name:?}"));
    }
    let file_name = format!("{name}.json");
    let path = cache.dir().join(&file_name);
    let miss = |state: &State| {
        state
            .counters
            .cache_get_misses
            .fetch_add(1, Ordering::Relaxed);
        Reply {
            expected: true,
            ..Reply::error(404, &format!("no cache entry {name}"))
        }
    };
    let Ok(text) = std::fs::read_to_string(&path) else {
        return miss(state);
    };
    // Serve only a complete entry that maps back to this name — a
    // damaged or mis-filed file is indistinguishable from absent, the
    // same trust model as DiskCache::get.
    match entry_parse(&text) {
        Ok((key, _)) if key.file_name() == file_name => {
            state
                .counters
                .cache_get_hits
                .fetch_add(1, Ordering::Relaxed);
            Reply::json(200, text)
        }
        _ => miss(state),
    }
}

fn cache_put(name: &str, body: &str, state: &State) -> Reply {
    let cache = match cache_of(state) {
        Ok(c) => c,
        Err(reply) => return reply,
    };
    if !valid_key_name(name) {
        return Reply::error(400, &format!("invalid cache key {name:?}"));
    }
    if cache.is_readonly() {
        return Reply::error(403, "cache is read-only");
    }
    let file_name = format!("{name}.json");
    let (key, _cell) = match entry_parse(body) {
        Ok(parsed) => parsed,
        Err(e) => return Reply::error(400, &format!("body is not a cache entry: {e}")),
    };
    if key.file_name() != file_name {
        return Reply::error(
            400,
            &format!(
                "entry key maps to {:?}, not to the requested name {:?}",
                key.file_name(),
                file_name
            ),
        );
    }
    // Store the canonical serialization (== the validated body for every
    // entry our own tools produce).
    match write_entry_atomic(cache.dir(), &file_name, body) {
        Ok(()) => {
            state.counters.cache_puts.fetch_add(1, Ordering::Relaxed);
            Reply {
                status: 204,
                content_type: "application/json",
                body: String::new(),
                expected: false,
            }
        }
        Err(e) => Reply::error(500, &e.to_string()),
    }
}

/// The 400 reply to a rejected `/solve` parameter: `param` names it next
/// to the human-readable `error`.
fn param_reply(e: &ParamError) -> Reply {
    Reply::json(
        400,
        format!(
            "{{\n  \"format\": \"{ERROR_FORMAT}\",\n  \"status\": 400,\n  \
             \"param\": \"{}\",\n  \"error\": \"{}\"\n}}\n",
            json::escape(&e.param),
            json::escape(&e.message)
        ),
    )
}

/// Parse `/solve` query params into a solver name + [`SolveConfig`],
/// through the same [`SolveConfig::set`]/[`SolveConfig::check`] as the
/// CLI's solve flags. Unknown keys are rejected by name (the same
/// strictness as the instance-file schema: a typo'd knob must not
/// silently run defaults), and so are repeated keys — last-one-wins would
/// make `budget_ms=0&budget_ms=5000` mean whatever the client least
/// expects. The server's caps come after the solvers' domain.
fn solve_params(
    request: &Request,
    max_budget_ms: u64,
    max_improve_streams: u64,
) -> Result<(String, SolveConfig), ParamError> {
    let mut solver: Option<String> = None;
    let mut config = SolveConfig::default();
    let mut seen: Vec<String> = Vec::new();
    for (k, v) in request.query_pairs() {
        if seen.iter().any(|s| s == k) {
            return Err(ParamError::new(
                k,
                format!("duplicate query parameter {k:?}"),
            ));
        }
        seen.push(k.to_string());
        if k == "solver" {
            solver = Some(v.to_string());
        } else {
            config.set(k, v)?;
        }
    }
    config.check()?;
    if config.budget_ms > max_budget_ms {
        return Err(ParamError::new(
            "budget_ms",
            format!(
                "budget_ms {} exceeds this server's cap of {max_budget_ms} ms",
                config.budget_ms
            ),
        ));
    }
    if config.improve_streams > max_improve_streams {
        return Err(ParamError::new(
            "improve_streams",
            format!(
                "improve_streams {} exceeds this server's cap of {max_improve_streams}",
                config.improve_streams
            ),
        ));
    }
    let solver = solver.ok_or_else(|| {
        ParamError::new("solver", "missing required query parameter solver=<name>")
    })?;
    Ok((solver, config))
}

fn solve(request: &Request, state: &State) -> Reply {
    let cache = match cache_of(state) {
        Ok(c) => c,
        Err(reply) => return reply,
    };
    let (solver_name, config) =
        match solve_params(request, state.max_budget_ms, state.max_improve_streams) {
            Ok(p) => p,
            Err(e) => return param_reply(&e),
        };
    let solver = match state.registry.get_or_err(&solver_name) {
        Ok(s) => s,
        Err(e) => return Reply::error(400, &e.to_string()),
    };
    let prec = match spp_gen::fileio::from_json(&request.body) {
        Ok(p) => p,
        Err(e) => return Reply::error(400, &format!("body is not an spp-instance: {e}")),
    };
    let solve_request = SolveRequest::new(prec).with_config(config.clone());
    let jobs = [BatchJob::new("http", solve_request)];
    let solvers = vec![solver];
    // The engine's one pipeline: cache get → solve on miss → atomic put.
    let outcomes = match execute_cells(&jobs, &solvers, Some(cache)) {
        Ok(o) => o,
        Err(e) => return Reply::error(500, &e.to_string()),
    };
    let cell = &outcomes[0];
    let digest = cell
        .digest
        .expect("execute_cells computes digests whenever a cache is attached");
    if cell.from_cache {
        state
            .counters
            .solve_cache_hits
            .fetch_add(1, Ordering::Relaxed);
    } else {
        state.counters.solves.fetch_add(1, Ordering::Relaxed);
        // Improvement accounting belongs to fresh solves only: a cache
        // hit re-serves a result, it doesn't re-run the anytime loop.
        if cell.improve_rounds > 0 {
            state
                .counters
                .improve_iterations
                .fetch_add(cell.improve_rounds, Ordering::Relaxed);
        }
        if cell.improve_streams > 0 {
            state
                .counters
                .improve_streams
                .fetch_add(cell.improve_streams, Ordering::Relaxed);
        }
        if cell.improve_prunes > 0 {
            state
                .counters
                .improve_envelope_prunes
                .fetch_add(cell.improve_prunes, Ordering::Relaxed);
        }
        if let Some(seed) = cell.improved_from {
            state
                .counters
                .improved_cells
                .fetch_add(1, Ordering::Relaxed);
            state.counters.add_gain((seed - cell.makespan).max(0.0));
        }
    }
    // The report carries exactly the portable cell fields — deterministic
    // and byte-stable whether the cell was solved or served ("cached" is
    // informational, like ShardRuntime). Placements stay a local-CLI
    // concern: the cache can never reproduce them, and a service answer
    // that changes shape between cold and warm would break the engine's
    // byte-identity contract.
    let mut body = String::new();
    {
        use std::fmt::Write as _;
        body.push_str("{\n");
        let _ = writeln!(body, "  \"format\": \"{SOLVE_FORMAT}\",");
        let _ = writeln!(body, "  \"version\": 1,");
        let _ = writeln!(body, "  \"solver\": \"{}\",", json::escape(&solver_name));
        let _ = writeln!(body, "  \"instance\": \"{digest}\",");
        let _ = writeln!(
            body,
            "  \"config\": \"{}\",",
            json::escape(&config.signature())
        );
        let _ = writeln!(body, "  \"status\": \"{}\",", cell.status.as_str());
        let _ = writeln!(body, "  \"makespan\": {:.17e},", cell.makespan);
        let _ = writeln!(body, "  \"lb\": {:.17e},", cell.combined_lb);
        // Both a fresh improved solve and its later cache hits carry the
        // seed makespan, so this line is warm/cold byte-stable too.
        if let Some(seed) = cell.improved_from {
            let _ = writeln!(body, "  \"improved_from\": {seed:.17e},");
        }
        let _ = writeln!(body, "  \"cached\": {}", cell.from_cache);
        body.push_str("}\n");
    }
    Reply::json(200, body)
}

fn stats_reply(state: &State) -> Reply {
    let c = state.counters.snapshot();
    let mut body = String::new();
    {
        use std::fmt::Write as _;
        body.push_str("{\n");
        let _ = writeln!(body, "  \"format\": \"{STATS_FORMAT}\",");
        let _ = writeln!(body, "  \"version\": 1,");
        let _ = writeln!(
            body,
            "  \"uptime_secs\": {},",
            state.started.elapsed().as_secs()
        );
        let _ = writeln!(body, "  \"requests\": {},", c.requests);
        let _ = writeln!(body, "  \"cache_get_hits\": {},", c.cache_get_hits);
        let _ = writeln!(body, "  \"cache_get_misses\": {},", c.cache_get_misses);
        let _ = writeln!(body, "  \"cache_puts\": {},", c.cache_puts);
        let _ = writeln!(body, "  \"solves\": {},", c.solves);
        let _ = writeln!(body, "  \"solve_cache_hits\": {},", c.solve_cache_hits);
        // `rounds_per_stream` is derived (iterations over streams) so
        // operators can read search throughput without dividing.
        let rounds_per_stream = if c.improve_streams > 0 {
            c.improve_iterations as f64 / c.improve_streams as f64
        } else {
            0.0
        };
        let _ = writeln!(
            body,
            "  \"improve\": {{\"iterations\": {}, \"streams\": {}, \
             \"rounds_per_stream\": {:.17e}, \"improved_cells\": {}, \
             \"envelope_prunes\": {}, \"total_gain\": {:.17e}}},",
            c.improve_iterations,
            c.improve_streams,
            rounds_per_stream,
            c.improved_cells,
            c.improve_envelope_prunes,
            c.improve_total_gain
        );
        let _ = writeln!(body, "  \"errors\": {},", c.errors);
        let _ = writeln!(
            body,
            "  \"connections_accepted\": {},",
            c.connections_accepted
        );
        let _ = writeln!(body, "  \"keepalive_reuses\": {},", c.keepalive_reuses);
        let _ = writeln!(body, "  \"accept_failures\": {},", c.accept_failures);
        let _ = writeln!(
            body,
            "  \"max_requests_per_connection\": {},",
            c.max_requests_per_connection
        );
        let _ = writeln!(body, "  \"io_mode\": \"{}\",", state.io_mode.name());
        if let Some(shared) = &state.event {
            let ev = shared.counters.snapshot();
            let _ = writeln!(
                body,
                "  \"event\": {{\"parked_connections\": {}, \"wakeups\": {}, \
                 \"readiness_batches\": {}, \"eagain_retries\": {}, \"timer_expiries\": {}}},",
                ev.parked_connections,
                ev.wakeups,
                ev.readiness_batches,
                ev.eagain_retries,
                ev.timer_expiries
            );
        }
        let _ = writeln!(
            body,
            "  \"mean_requests_per_connection\": {:.2},",
            if c.connections_accepted == 0 {
                0.0
            } else {
                c.requests as f64 / c.connections_accepted as f64
            }
        );
        let lat = state.latency.snapshot();
        let us = |q: f64| lat.quantile(q) / 1000.0;
        let _ = writeln!(
            body,
            "  \"latency_us\": {{\"count\": {}, \"p50\": {:.1}, \"p95\": {:.1}, \
             \"p99\": {:.1}, \"p999\": {:.1}}},",
            lat.count(),
            us(0.50),
            us(0.95),
            us(0.99),
            us(0.999)
        );
        let ep = c.endpoints;
        let _ = writeln!(
            body,
            "  \"endpoints\": {{\"cache_get\": {}, \"cache_put\": {}, \"solve\": {}, \
             \"stats\": {}, \"work_lease\": {}, \"work_complete\": {}, \"work_status\": {}, \
             \"work_report\": {}, \"other\": {}}},",
            ep.cache_get,
            ep.cache_put,
            ep.solve,
            ep.stats,
            ep.work_lease,
            ep.work_complete,
            ep.work_status,
            ep.work_report,
            ep.other
        );
        if let Some(work) = &state.work {
            let s = work
                .lock()
                .expect("work queue mutex poisoned")
                .status(Instant::now());
            let _ = writeln!(body, "  \"work_jobs\": {},", s.jobs);
            let _ = writeln!(body, "  \"work_chunks\": {},", s.chunks);
            let _ = writeln!(body, "  \"work_completed_chunks\": {},", s.completed_chunks);
            let _ = writeln!(body, "  \"work_leases\": {},", s.leases);
            let _ = writeln!(body, "  \"work_requeued\": {},", s.requeued);
            let _ = writeln!(body, "  \"work_done\": {},", s.done);
        }
        match &state.cache {
            Some(cache) => {
                let dir = match spp_engine::cache::dir_stats(cache.dir()) {
                    Ok(d) => d,
                    Err(e) => return Reply::error(500, &e.to_string()),
                };
                let stats: CacheStats = cache.stats();
                let _ = writeln!(
                    body,
                    "  \"solve_cache\": \"{}\",",
                    json::escape(&stats.to_string())
                );
                let _ = writeln!(body, "  \"entries\": {},", dir.entries);
                let _ = writeln!(body, "  \"corrupt\": {},", dir.corrupt);
                let _ = writeln!(body, "  \"bytes\": {},", dir.bytes);
                let _ = writeln!(body, "  \"instances\": {},", dir.instances);
                let _ = writeln!(body, "  \"configs\": {}", dir.configs);
            }
            None => {
                let _ = writeln!(body, "  \"cache_role\": false");
            }
        }
        body.push_str("}\n");
    }
    Reply::json(200, body)
}
