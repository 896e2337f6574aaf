//! In-repo load generator for the serving layer — the measurement half
//! of "serves heavy traffic": `spp bench serve` drives a target endpoint
//! with N concurrent clients and reports RPS plus latency quantiles from
//! a [`Hist`], so every serving change has a
//! number to diff against (`BENCH_SERVE.json`).
//!
//! Two transport modes, deliberately the two paths production code can
//! take:
//!
//! * [`Mode::Keepalive`] — each client thread reuses one persistent
//!   connection via [`http::pooled_roundtrip`], the pooled exchange
//!   `HttpCache` and `RemoteLease` ride (without their token and retry,
//!   so every failure is counted);
//! * [`Mode::Close`] — one connection per request
//!   ([`http::roundtrip`]), the pre-keep-alive behavior, kept as the
//!   baseline that keep-alive must beat.
//!
//! Two pacing disciplines:
//!
//! * **closed loop** (no `rate`): each client fires its next request the
//!   moment the previous response lands — measures the server's maximum
//!   sustainable throughput at this concurrency;
//! * **open loop** (`rate` = target RPS across all clients): requests
//!   are fired on a fixed schedule regardless of response times, and
//!   latency is measured from the *scheduled* send time — the standard
//!   correction for coordinated omission, so a stalled server shows up
//!   as tail latency instead of silently slowing the load down.

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use spp_core::hist::Hist;

use crate::http;

/// Transport discipline under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One pooled persistent connection per client thread.
    Keepalive,
    /// A fresh connection (and full TCP setup/teardown) per request.
    Close,
}

impl Mode {
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Keepalive => "keepalive",
            Mode::Close => "close",
        }
    }
}

/// When the run stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Run for a fixed wall-clock window.
    Duration(Duration),
    /// Run until this many requests completed (across all clients).
    Requests(u64),
}

/// The request every client repeats.
#[derive(Debug, Clone)]
pub struct Target {
    pub method: String,
    pub path_and_query: String,
    pub body: String,
}

/// One load-generation run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// `host:port` of the server under test.
    pub authority: String,
    /// Concurrent client threads (each with its own connection in
    /// keep-alive mode).
    pub clients: usize,
    pub mode: Mode,
    pub target: Target,
    pub stop: Stop,
    /// Open-loop target rate in requests/second across all clients;
    /// `None` runs closed-loop (back to back).
    pub rate: Option<f64>,
    /// Idle keep-alive connections opened *alongside* the active
    /// clients: each connects, never sends a byte, and holds its socket
    /// until the measured run ends. RPS-vs-idle-count shows what a
    /// parked connection costs the server's event loop.
    pub idle_clients: usize,
}

/// What a run measured.
pub struct BenchResult {
    /// Requests that completed with a transport-level response.
    pub requests: u64,
    /// Transport failures plus responses with status ≥ 400.
    pub errors: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// `requests / wall_s`.
    pub rps: f64,
    /// Latency of successful requests, in nanoseconds.
    pub hist: Hist,
    /// Idle connections that were actually open when measurement began.
    pub idle_connected: u64,
    /// Idle connections that failed to connect within
    /// [`IDLE_CONNECT_TIMEOUT`] — a server whose accept backlog stays
    /// full shows its degradation here first.
    pub idle_errors: u64,
}

impl BenchResult {
    /// Latency quantile in milliseconds.
    pub fn latency_ms(&self, q: f64) -> f64 {
        self.hist.quantile(q) / 1e6
    }
}

/// Claim one unit of remaining work; `false` once the count is spent.
fn claim(remaining: &AtomicU64) -> bool {
    remaining
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

/// Per-connection budget for standing up the idle fleet. Long enough
/// to survive one SYN retransmit (the whole fleet arrives as a burst,
/// so a briefly overflowing accept backlog is normal), short enough
/// that a server whose backlog is *persistently* drowned reports idle
/// errors instead of stalling the whole benchmark.
pub const IDLE_CONNECT_TIMEOUT: Duration = Duration::from_millis(2500);

/// Threads used to stand the idle fleet up (and hold it).
const IDLE_HOLDER_THREADS: usize = 8;

/// Open and hold one holder thread's share of the idle fleet until
/// `done`; sockets stay connected and silent the whole time.
fn hold_idle_connections(
    authority: &str,
    share: usize,
    connected: &AtomicU64,
    errors: &AtomicU64,
    done: &AtomicBool,
) {
    let addr = authority.to_socket_addrs().ok().and_then(|mut a| a.next());
    let mut held = Vec::with_capacity(share);
    for _ in 0..share {
        // A 1 ms ramp per connection keeps eight holder threads from
        // landing the entire fleet as one SYN spike.
        std::thread::sleep(Duration::from_millis(1));
        let stream = addr
            .ok_or(())
            .and_then(|a| TcpStream::connect_timeout(&a, IDLE_CONNECT_TIMEOUT).map_err(|_| ()));
        match stream {
            Ok(s) => {
                held.push(s);
                connected.fetch_add(1, Ordering::Relaxed);
            }
            Err(()) => {
                errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    while !done.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(held);
}

/// Run one load-generation configuration to completion.
pub fn run_bench(cfg: &BenchConfig) -> BenchResult {
    let clients = cfg.clients.max(1);
    let remaining: Option<AtomicU64> = match cfg.stop {
        Stop::Requests(n) => Some(AtomicU64::new(n)),
        Stop::Duration(_) => None,
    };
    let errors = AtomicU64::new(0);
    let requests = AtomicU64::new(0);
    // Per-thread schedule for open loop: the fleet-wide rate divides
    // evenly across clients, and client `i` is phase-shifted so request
    // arrivals interleave instead of bursting every period.
    let interval = cfg
        .rate
        .filter(|r| *r > 0.0)
        .map(|r| Duration::from_secs_f64(clients as f64 / r));
    let merged = Mutex::new(Hist::new());

    let done = AtomicBool::new(false);
    let idle_connected = AtomicU64::new(0);
    let idle_errors = AtomicU64::new(0);
    let mut wall_s = 0.0;
    std::thread::scope(|fleet| {
        // Stand up the idle fleet first and let it settle, so the
        // measured window sees a steady parked population rather than a
        // connect storm.
        if cfg.idle_clients > 0 {
            let holders = IDLE_HOLDER_THREADS.min(cfg.idle_clients);
            for h in 0..holders {
                let share =
                    cfg.idle_clients / holders + usize::from(h < cfg.idle_clients % holders);
                let authority = &cfg.authority;
                let (connected, errs, done) = (&idle_connected, &idle_errors, &done);
                fleet.spawn(move || hold_idle_connections(authority, share, connected, errs, done));
            }
            while idle_connected.load(Ordering::Relaxed) + idle_errors.load(Ordering::Relaxed)
                < cfg.idle_clients as u64
            {
                std::thread::sleep(Duration::from_millis(2));
            }
        }

        let started = Instant::now();
        let deadline = match cfg.stop {
            Stop::Duration(d) => Some(started + d),
            Stop::Requests(_) => None,
        };
        std::thread::scope(|scope| {
            for idx in 0..clients {
                let remaining = remaining.as_ref();
                let errors = &errors;
                let requests = &requests;
                let merged = &merged;
                let cfg = &*cfg;
                scope.spawn(move || {
                    let mut hist = Hist::new();
                    let phase = interval.map(|iv| iv.mul_f64(idx as f64 / clients as f64));
                    let mut fired: u32 = 0;
                    loop {
                        // Scheduled send time (open loop) or "now" (closed).
                        let scheduled = match (interval, phase) {
                            (Some(iv), Some(phase)) => {
                                let at = started + phase + iv * fired;
                                if deadline.is_some_and(|d| at >= d) {
                                    break;
                                }
                                let now = Instant::now();
                                if at > now {
                                    std::thread::sleep(at - now);
                                }
                                at
                            }
                            _ => {
                                if deadline.is_some_and(|d| Instant::now() >= d) {
                                    break;
                                }
                                Instant::now()
                            }
                        };
                        if let Some(remaining) = remaining {
                            if !claim(remaining) {
                                break;
                            }
                        }
                        fired += 1;
                        let outcome = match cfg.mode {
                            Mode::Keepalive => http::pooled_roundtrip(
                                &cfg.authority,
                                &cfg.target.method,
                                &cfg.target.path_and_query,
                                &cfg.target.body,
                            ),
                            Mode::Close => http::roundtrip(
                                &cfg.authority,
                                &cfg.target.method,
                                &cfg.target.path_and_query,
                                &cfg.target.body,
                            ),
                        };
                        match outcome {
                            Ok(response) if response.status < 400 => {
                                requests.fetch_add(1, Ordering::Relaxed);
                                let nanos = scheduled.elapsed().as_nanos().min(u64::MAX as u128);
                                hist.record(nanos as u64);
                            }
                            Ok(_) => {
                                requests.fetch_add(1, Ordering::Relaxed);
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    // Leave nothing pooled past the run: the next run (or
                    // mode) starts from a cold connection state.
                    http::pool_evict(&cfg.authority);
                    merged
                        .lock()
                        .expect("bench hist mutex poisoned")
                        .merge(&hist);
                });
            }
        });
        wall_s = started.elapsed().as_secs_f64();
        // Measurement over: release the idle holders.
        done.store(true, Ordering::Release);
    });
    let requests = requests.load(Ordering::Relaxed);
    BenchResult {
        requests,
        errors: errors.load(Ordering::Relaxed),
        wall_s,
        rps: if wall_s > 0.0 {
            requests as f64 / wall_s
        } else {
            0.0
        },
        hist: merged.into_inner().expect("bench hist mutex poisoned"),
        idle_connected: idle_connected.load(Ordering::Relaxed),
        idle_errors: idle_errors.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server};

    fn stats_target() -> Target {
        Target {
            method: "GET".into(),
            path_and_query: "/stats".into(),
            body: String::new(),
        }
    }

    fn cache_server(tag: &str) -> crate::server::ServerHandle {
        let dir = std::env::temp_dir().join(format!("spp_bench_mod_{tag}_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let mut config = ServeConfig::new(&dir);
        config.workers = 2;
        Server::bind(&config)
            .expect("bind bench test server")
            .spawn()
    }

    #[test]
    fn closed_loop_request_count_is_exact_and_error_free() {
        let server = cache_server("closed");
        let cfg = BenchConfig {
            authority: server.authority(),
            clients: 3,
            mode: Mode::Keepalive,
            target: stats_target(),
            stop: Stop::Requests(30),
            rate: None,
            idle_clients: 0,
        };
        let result = run_bench(&cfg);
        assert_eq!(result.requests, 30);
        assert_eq!(result.errors, 0);
        assert_eq!(result.hist.count(), 30);
        assert!(result.rps > 0.0);
        assert!(result.latency_ms(0.99) >= result.latency_ms(0.50));
        // Keep-alive actually reused connections: fewer connections than
        // requests, and the server saw the reuses.
        let counters = server.counters();
        assert!(
            counters.keepalive_reuses > 0,
            "no reuse recorded: {counters:?}"
        );
        assert!(counters.connections_accepted < 30 + 1);
        server.shutdown();
    }

    #[test]
    fn close_mode_opens_one_connection_per_request() {
        let server = cache_server("close_mode");
        let cfg = BenchConfig {
            authority: server.authority(),
            clients: 2,
            mode: Mode::Close,
            target: stats_target(),
            stop: Stop::Requests(10),
            rate: None,
            idle_clients: 0,
        };
        let result = run_bench(&cfg);
        assert_eq!(result.requests, 10);
        assert_eq!(result.errors, 0);
        let counters = server.counters();
        assert_eq!(counters.keepalive_reuses, 0, "{counters:?}");
        assert!(counters.connections_accepted >= 10);
        server.shutdown();
    }

    #[test]
    fn open_loop_respects_duration_and_schedule() {
        let server = cache_server("open");
        let cfg = BenchConfig {
            authority: server.authority(),
            clients: 2,
            mode: Mode::Keepalive,
            target: stats_target(),
            stop: Stop::Duration(Duration::from_millis(300)),
            rate: Some(100.0),
            idle_clients: 0,
        };
        let result = run_bench(&cfg);
        // ~30 scheduled arrivals in 300ms at 100 rps; the exact count
        // depends on phase, but it must be bounded by the schedule, not
        // by server speed.
        assert!(result.requests > 0, "no requests completed");
        assert!(
            result.requests <= 40,
            "open loop overshot the schedule: {}",
            result.requests
        );
        assert_eq!(result.errors, 0);
        server.shutdown();
    }

    #[test]
    fn unreachable_server_counts_errors_not_requests() {
        let cfg = BenchConfig {
            authority: "127.0.0.1:1".into(),
            clients: 1,
            mode: Mode::Close,
            target: stats_target(),
            stop: Stop::Requests(3),
            rate: None,
            idle_clients: 0,
        };
        let result = run_bench(&cfg);
        assert_eq!(result.requests, 0);
        assert_eq!(result.errors, 3);
        assert_eq!(result.hist.count(), 0);
    }

    #[test]
    fn idle_fleet_is_held_through_the_measured_run() {
        let server = cache_server("idle_fleet");
        let cfg = BenchConfig {
            authority: server.authority(),
            clients: 1,
            mode: Mode::Keepalive,
            target: stats_target(),
            stop: Stop::Requests(5),
            rate: None,
            idle_clients: 3,
        };
        let result = run_bench(&cfg);
        assert_eq!(result.idle_connected, 3, "idle fleet failed to stand up");
        assert_eq!(result.idle_errors, 0);
        // The idle connections must not have produced requests — only
        // the active client's traffic is measured.
        assert_eq!(result.requests, 5);
        assert_eq!(result.errors, 0);
        server.shutdown();
    }
}
