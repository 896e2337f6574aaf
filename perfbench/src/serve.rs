//! `serve-hit` and `serve-miss`: closed-loop HTTP load on an in-process
//! `spp serve` with a disk cache.
//!
//! The server runs with `ServeConfig` defaults and `workers = nproc`.
//! Load comes from [`CLIENTS`] threads, each holding one keep-alive
//! connection through `spp_serve::http::pooled_roundtrip` (the transport
//! `HttpCache` and `spp work` use) and sending its next request only when
//! the previous reply has arrived. One operation is two requests on one
//! instance: `serve-hit` reads the entry with `GET /cache/<key>` and then
//! asks `POST /solve` (a cache hit); `serve-miss` sends `POST /solve`
//! under a cache key never sent before (a miss that solves and writes the
//! entry) and then reads the new entry back with `GET /cache/<key>`.

use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use spp_core::json;
use spp_core::InstanceDigest;
use spp_engine::cache::entry_parse;
use spp_engine::{
    CacheKey, CachedCell, Capabilities, CellStatus, DiskCache, Registry, SolveCache, SolveConfig,
    SolveRequest, Solver,
};
use spp_gen::fileio;
use spp_gen::suite::{suite, FAMILIES};
use spp_serve::http::{self, HttpError, Response};
use spp_serve::{IoMode, ServeConfig, ServeCounters, Server, ServerHandle};

use crate::stats::{self, now_ns};
use crate::trace::{self, Span, Tracer};
use crate::{repeated_setup, Checks, Report, RunConfig, Scratch, CLIENTS, OFFLINE_SOLVERS};

/// Items per `serve-hit` instance.
pub(crate) const HIT_N: usize = 64;
/// Suite instances generated for `serve-hit`; duplicates are dropped.
pub(crate) const HIT_COUNT: usize = 320;
/// Items per `serve-miss` instance.
pub(crate) const MISS_N: usize = 200;
/// Operations of the traced window whose layer calls are replayed.
const REPLAY_HIT: usize = 2_000;
const REPLAY_MISS: usize = 400;

/// The offline registry entries, their flags and built solvers.
pub(crate) struct Rotation {
    entries: Vec<(&'static str, Capabilities, Box<dyn Solver>)>,
}

impl Rotation {
    pub(crate) fn new() -> Result<Rotation, String> {
        let registry = Registry::builtin();
        let entries = OFFLINE_SOLVERS
            .iter()
            .map(|&name| {
                let entry = registry
                    .entry(name)
                    .ok_or_else(|| format!("registry has no solver {name:?}"))?;
                Ok((name, entry.capabilities, entry.build()))
            })
            .collect::<Result<_, String>>()?;
        Ok(Rotation { entries })
    }

    /// The entries that honor every constraint family `req` carries and
    /// accept its shape, in registry order.
    fn accepting(&self, req: &SolveRequest) -> Result<Vec<&'static str>, String> {
        let accepting: Vec<&'static str> = self
            .entries
            .iter()
            .filter(|(_, caps, solver)| {
                (!req.has_precedence() || caps.precedence)
                    && (!req.has_release() || caps.release)
                    && (!caps.uniform_height_only || req.prec.inst.uniform_height().is_some())
                    && solver.check(req).is_ok()
            })
            .map(|(name, _, _)| *name)
            .collect();
        if accepting.is_empty() {
            return Err("no offline solver accepts a generated instance".into());
        }
        Ok(accepting)
    }

    /// The `turn`-th (cyclically) of the entries that accept `req`.
    pub(crate) fn pick(&self, req: &SolveRequest, turn: usize) -> Result<&'static str, String> {
        let accepting = self.accepting(req)?;
        Ok(accepting[turn % accepting.len()])
    }

    pub(crate) fn solver(&self, name: &str) -> &dyn Solver {
        self.entries
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, s)| s.as_ref())
            .expect("rotation names come from the rotation")
    }
}

/// The in-process server under test.
struct Service {
    handle: Option<ServerHandle>,
    authority: String,
    io_mode: IoMode,
    workers: usize,
    cache_dir: PathBuf,
}

impl Service {
    fn start(cache_dir: PathBuf) -> Result<Service, String> {
        let mut config = ServeConfig::new(&cache_dir);
        config.workers = crate::host_cores();
        let server = Server::bind(&config).map_err(|e| format!("bind: {e}"))?;
        let io_mode = server.io_mode();
        let handle = server.spawn();
        Ok(Service {
            authority: handle.authority(),
            handle: Some(handle),
            io_mode,
            workers: config.workers,
            cache_dir,
        })
    }

    fn counters(&self) -> ServeCounters {
        self.handle.as_ref().expect("server is running").counters()
    }

    fn call(&self, method: &str, path: &str, body: &str) -> Result<Response, HttpError> {
        http::pooled_roundtrip(&self.authority, method, path, body)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        http::pool_evict(&self.authority);
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// The fields of an `spp-solve-report` the checks use.
struct SolveReply {
    instance: String,
    status: String,
    makespan: f64,
    lb: f64,
    cached: bool,
}

fn parse_solve_reply(body: &str) -> Result<SolveReply, String> {
    let doc = json::parse(body).map_err(|e| format!("reply is not JSON: {}", e.msg))?;
    let obj = json::as_obj(&doc, "$").map_err(|e| e.to_string())?;
    let field = |k: &str| json::get_field(obj, &doc, k).map_err(|e| e.to_string());
    let text = |k: &str| -> Result<String, String> {
        json::as_str(field(k)?, k)
            .map(str::to_string)
            .map_err(|e| e.to_string())
    };
    let num =
        |k: &str| -> Result<f64, String> { json::as_num(field(k)?, k).map_err(|e| e.to_string()) };
    let cached = match field("cached")?.json {
        json::Json::Bool(b) => b,
        _ => return Err("cached is not a bool".into()),
    };
    Ok(SolveReply {
        instance: text("instance")?,
        status: text("status")?,
        makespan: num("makespan")?,
        lb: num("lb")?,
        cached,
    })
}

/// A solved, fresh reply: status solved, not cached, makespan ≥ lb.
fn check_fresh(reply: &Result<Response, HttpError>) -> Result<SolveReply, String> {
    let response = reply.as_ref().map_err(|e| format!("POST /solve: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "POST /solve: status {}: {}",
            response.status, response.body
        ));
    }
    let parsed = parse_solve_reply(&response.body)?;
    if parsed.status != "solved" || parsed.cached || parsed.makespan < parsed.lb * (1.0 - 1e-12) {
        return Err(format!("POST /solve: unexpected reply {}", response.body));
    }
    Ok(parsed)
}

/// The cache key a `/solve` reply for instance `digest` is filed under.
fn cache_key(digest: &str, solver: &str, config: &SolveConfig) -> Result<CacheKey, String> {
    let digest = InstanceDigest::parse(digest).ok_or_else(|| format!("bad digest {digest:?}"))?;
    Ok(CacheKey::new(digest, solver, config))
}

fn get_path(key: &CacheKey) -> String {
    format!("/cache/{}", key.file_name().trim_end_matches(".json"))
}

/// A GET reply holding a valid entry filed under `key`.
fn check_entry(reply: &Result<Response, HttpError>, key: &CacheKey) -> Result<CachedCell, String> {
    let response = reply.as_ref().map_err(|e| format!("GET /cache: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET {}: status {}", get_path(key), response.status));
    }
    match entry_parse(&response.body) {
        Ok((k, cell)) if k == *key && cell.status == CellStatus::Solved => Ok(cell),
        Ok(_) => Err(format!(
            "GET {}: entry filed under another key",
            get_path(key)
        )),
        Err(e) => Err(format!("GET {}: {e}", get_path(key))),
    }
}

/// One operation as a client saw it (latencies in ns).
#[derive(Clone, Copy)]
struct OpSample {
    latency: u64,
    get: u64,
    solve: u64,
    ratio: f64,
    body_bytes: usize,
    entry_bytes: usize,
}

/// The operations of one measured window, stored compactly (12 bytes an
/// operation) so that memory does not grow much with throughput.
#[derive(Default)]
struct Window {
    wall_ns: u64,
    latency: Vec<u32>,
    get: Vec<u32>,
    solve: Vec<u32>,
    ratio_sum: f64,
    body_bytes: u64,
    entry_bytes: u64,
}

fn ns32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

impl Window {
    fn ops(&self) -> usize {
        self.latency.len()
    }

    fn rate(&self) -> f64 {
        self.ops() as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    fn add(&mut self, s: &OpSample) {
        self.latency.push(ns32(s.latency));
        self.get.push(ns32(s.get));
        self.solve.push(ns32(s.solve));
        self.ratio_sum += s.ratio;
        self.body_bytes += s.body_bytes as u64;
        self.entry_bytes += s.entry_bytes as u64;
    }

    fn merge(&mut self, other: Window) {
        self.latency.extend(other.latency);
        self.get.extend(other.get);
        self.solve.extend(other.solve);
        self.ratio_sum += other.ratio_sum;
        self.body_bytes += other.body_bytes;
        self.entry_bytes += other.entry_bytes;
    }

    /// Quantile `q` of a latency column, in ms.
    fn ms(column: &[u32], q: f64) -> f64 {
        let mut v: Vec<f64> = column.iter().map(|&ns| f64::from(ns) / 1e6).collect();
        stats::quantile(&mut v, q)
    }

    fn mean_per_op(&self, total: u64) -> f64 {
        total as f64 / self.ops().max(1) as f64
    }
}

/// Closed-loop load from [`CLIENTS`] threads: `warmup_ns` of load, then a
/// measured window of `measure_ns` holding every operation started in it.
fn closed_loop(
    warmup_ns: u64,
    measure_ns: u64,
    op: &(dyn Fn(usize, u64) -> Option<OpSample> + Sync),
) -> Window {
    let from = now_ns() + warmup_ns;
    let end = from + measure_ns;
    let parts: Vec<Window> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut kept = Window::default();
                    let mut k = 0u64;
                    loop {
                        let start = now_ns();
                        if start >= end {
                            break;
                        }
                        if let Some(sample) = op(c, k) {
                            if start >= from {
                                kept.add(&sample);
                            }
                        }
                        k += 1;
                    }
                    kept
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut window = Window {
        wall_ns: measure_ns,
        ..Window::default()
    };
    for part in parts {
        window.merge(part);
    }
    window
}

/// How long the serve workloads load the server before measuring: their
/// throughput rises over the first seconds of load.
fn warmup_ns(seconds: f64) -> u64 {
    (seconds.min(4.0) * 1e9) as u64
}

/// The end-to-end metrics of a measured window.
fn report_end_to_end(report: &mut Report, w: &Window) {
    let get_p50 = Window::ms(&w.get, 0.5);
    let solve_p50 = Window::ms(&w.solve, 0.5);
    report.set("ops_per_s", w.rate());
    report.set("p50_ms", Window::ms(&w.latency, 0.5));
    report.set("p99_ms", Window::ms(&w.latency, 0.99));
    report.set("get_p50_ms", get_p50);
    report.set("solve_p50_ms", solve_p50);
    report.set("makespan_ratio", w.ratio_sum / w.ops().max(1) as f64);
    report.info("samples", w.ops());
    report.info(
        "samples_beyond_p99",
        w.ops() - (w.ops() as f64 * 0.99).ceil() as usize,
    );
    report.info("requests_per_s", 2.0 * w.rate());
    report.info(
        "solve_get_ratio",
        if get_p50 > 0.0 {
            solve_p50 / get_p50
        } else {
            0.0
        },
    );
}

fn report_config(report: &mut Report, service: &Service, n: usize) {
    report.info("client_threads", CLIENTS);
    report.info("server_workers", service.workers);
    report.info_str("io_mode", service.io_mode.name());
    report.info("instance_n", n);
}

/// The traced half of a serve run: spans, the operations whose layer
/// calls were replayed, and what the server counted meanwhile.
struct ServeTrace {
    spans: Vec<Span>,
    replayed_groups: HashSet<u64>,
    before: ServeCounters,
    after: ServeCounters,
    traced: Window,
    untraced_ops_per_s: f64,
    per_solver: BTreeMap<&'static str, Vec<f64>>,
}

fn report_serve_layers(report: &mut Report, t: &mut ServeTrace) {
    let spans = &t.spans;
    for (metric, name) in [
        ("serve.request_us", "serve.request"),
        ("fileio.parse_us", "fileio.parse"),
        ("fileio.digest_us", "fileio.digest"),
        ("cache.get_us", "cache.get"),
        ("cache.read_us", "cache.read"),
        ("cache.put_us", "cache.put"),
        ("engine.solve_us", "engine.solve"),
        ("engine.lower_bounds_us", "engine.lower_bounds"),
        ("engine.validate_us", "engine.validate"),
    ] {
        trace::report_median_us(report, metric, spans, name);
    }
    report.set(
        "serve.connections_accepted",
        (t.after.connections_accepted - t.before.connections_accepted) as f64,
    );
    report.set(
        "serve.keepalive_reuses",
        (t.after.keepalive_reuses - t.before.keepalive_reuses) as f64,
    );
    report.set(
        "fileio.body_bytes",
        t.traced.mean_per_op(t.traced.body_bytes),
    );
    report.set(
        "cache.entry_bytes",
        t.traced.mean_per_op(t.traced.entry_bytes),
    );
    for (solver, times) in &mut t.per_solver {
        report.set(&format!("engine.solve_us.{solver}"), stats::median(times));
    }
    trace::report_self_times(report, spans, &t.replayed_groups, t.replayed_groups.len());
    report.set(
        "trace.overhead_share",
        1.0 - t.traced.rate() / t.untraced_ops_per_s.max(f64::MIN_POSITIVE),
    );
    report.info("spans", spans.len());
    report.info("replayed_ops", t.replayed_groups.len());
}

fn group_id(client: usize, k: u64) -> u64 {
    ((client as u64) << 40) | k
}

// ---------------------------------------------------------------------------
// serve-hit
// ---------------------------------------------------------------------------

struct HitItem {
    body: String,
    solve_path: String,
    get_path: String,
    key: CacheKey,
    /// The cold reply captured at set-up, with `"cached": true`.
    hit_reply: String,
    /// The entry text, checked with `entry_parse` at set-up.
    entry: String,
    ratio: f64,
}

struct HitFixture {
    service: Service,
    items: Vec<HitItem>,
}

impl HitFixture {
    /// Generate the suite, start a server on an empty cache, and fill the
    /// cache with one cold `/solve` per distinct instance.
    fn setup(
        seed: u64,
        rotation: &Rotation,
        cache_dir: PathBuf,
        checks: &Checks,
    ) -> Result<HitFixture, String> {
        let service = Service::start(cache_dir)?;
        let mut seen = HashSet::new();
        let mut items = Vec::new();
        for (i, sc) in suite(seed, HIT_N, HIT_COUNT).into_iter().enumerate() {
            let body = fileio::to_json(&sc.prec);
            // Deterministic families repeat; keep distinct content only.
            if !seen.insert(InstanceDigest::of_canonical_json(&body)) {
                continue;
            }
            let solver = rotation.pick(&SolveRequest::new(sc.prec), i / FAMILIES.len())?;
            let solve_path = format!("/solve?solver={solver}");
            checks.attempt();
            let cold = service.call("POST", &solve_path, &body);
            let reply = check_fresh(&cold)?;
            let cold = cold.expect("checked above").body;
            let key = cache_key(&reply.instance, solver, &SolveConfig::default())?;
            let get_path = get_path(&key);
            checks.attempt();
            let got = service.call("GET", &get_path, "");
            let cell = check_entry(&got, &key)?;
            if cell.makespan.to_bits() != reply.makespan.to_bits() {
                return Err(format!(
                    "GET {get_path}: entry makespan differs from the reply"
                ));
            }
            let hit_reply = cold.replacen("\"cached\": false", "\"cached\": true", 1);
            if hit_reply == cold {
                return Err(format!("POST {solve_path}: reply has no \"cached\": false"));
            }
            items.push(HitItem {
                body,
                solve_path,
                get_path,
                key,
                hit_reply,
                entry: got.expect("checked above").body,
                ratio: reply.makespan / reply.lb,
            });
        }
        http::pool_evict(&service.authority);
        Ok(HitFixture { service, items })
    }

    /// One operation: GET the entry, then POST /solve the instance; both
    /// replies must match what set-up captured byte for byte (the solve
    /// reply except for `"cached": true`).
    fn op(
        &self,
        checks: &Checks,
        tracer: Option<(&Tracer, &Mutex<Vec<HitReplay>>)>,
        c: usize,
        k: u64,
    ) -> Option<OpSample> {
        let n = self.items.len();
        let idx = (c * n / CLIENTS + k as usize) % n;
        let item = &self.items[idx];
        checks.attempt();
        let t0 = now_ns();
        let got = self.service.call("GET", &item.get_path, "");
        let t1 = now_ns();
        if !checks.expect(
            got.as_ref()
                .is_ok_and(|r| r.status == 200 && r.body == item.entry),
            || {
                format!(
                    "GET {}: {:?}",
                    item.get_path,
                    got.as_ref().map(|r| r.status)
                )
            },
        ) {
            return None;
        }
        let t2 = now_ns();
        let solved = self.service.call("POST", &item.solve_path, &item.body);
        let t3 = now_ns();
        if !checks.expect(
            solved
                .as_ref()
                .is_ok_and(|r| r.status == 200 && r.body == item.hit_reply),
            || {
                format!(
                    "POST {}: reply differs from the cold reply",
                    item.solve_path
                )
            },
        ) {
            return None;
        }
        if let Some((tracer, replays)) = tracer {
            let group = group_id(c, k);
            let get_span = tracer.record("serve.request", group, 0, (t0, t1), false);
            let solve_span = tracer.record("serve.request", group, 0, (t2, t3), false);
            let mut replays = replays.lock().expect("replay list poisoned");
            if replays.len() < REPLAY_HIT {
                replays.push(HitReplay {
                    group,
                    idx,
                    get_span,
                    solve_span,
                });
            }
        }
        Some(OpSample {
            latency: t3 - t0,
            get: t1 - t0,
            solve: t3 - t2,
            ratio: item.ratio,
            body_bytes: item.body.len(),
            entry_bytes: item.entry.len(),
        })
    }
}

struct HitReplay {
    group: u64,
    idx: usize,
    get_span: u64,
    solve_span: u64,
}

pub(crate) fn run_hit(cfg: &RunConfig) -> Result<Report, String> {
    let scratch = Scratch::new(&cfg.root, "serve-hit")?;
    let rotation = Rotation::new()?;
    let checks = Checks::default();
    let (fx, setup_s) = repeated_setup(|rep| {
        HitFixture::setup(
            cfg.seed,
            &rotation,
            scratch.sub(&format!("cache-{rep}")),
            &checks,
        )
    })?;
    // Tracing splits the window into an untraced and a traced half.
    let measured = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let measure_ns = (measured * 1e9) as u64;
    let untraced = closed_loop(warmup_ns(cfg.seconds), measure_ns, &|c, k| {
        fx.op(&checks, None, c, k)
    });
    let mut serve_trace = None;
    if cfg.trace {
        let tracer = Tracer::new();
        let replays = Mutex::new(Vec::new());
        let before = fx.service.counters();
        let traced = closed_loop(0, measure_ns, &|c, k| {
            fx.op(&checks, Some((&tracer, &replays)), c, k)
        });
        let after = fx.service.counters();
        // Replay, per sampled operation, the layer calls the server made:
        // the GET's entry read, and the /solve's parse, digest and lookup.
        let cache = DiskCache::new(&fx.service.cache_dir, true).map_err(|e| e.to_string())?;
        let replays = replays.into_inner().expect("replay list poisoned");
        for r in &replays {
            let item = &fx.items[r.idx];
            let (read, _, _) =
                tracer.replay("cache.read", r.group, r.get_span, || cache.get(&item.key));
            checks.expect(read.is_some(), || {
                format!("replayed read of {} missed", item.get_path)
            });
            let (prec, _, _) = tracer.replay("fileio.parse", r.group, r.solve_span, || {
                fileio::from_json(&item.body)
            });
            let prec = prec.map_err(|e| e.to_string())?;
            tracer.replay("fileio.digest", r.group, r.solve_span, || {
                fileio::digest(&prec)
            });
            let (hit, _, _) =
                tracer.replay("cache.get", r.group, r.solve_span, || cache.get(&item.key));
            checks.expect(hit.is_some(), || {
                format!("replayed lookup of {} missed", item.get_path)
            });
        }
        serve_trace = Some(ServeTrace {
            spans: tracer.into_spans(),
            replayed_groups: replays.iter().map(|r| r.group).collect(),
            before,
            after,
            untraced_ops_per_s: untraced.rate(),
            traced,
            per_solver: BTreeMap::new(),
        });
    }
    let mut report = Report::new(checks);
    match serve_trace.as_mut() {
        Some(t) => {
            report_serve_layers(&mut report, t);
            trace::write_run_spans(cfg, &t.spans);
        }
        None => {
            report_end_to_end(&mut report, &untraced);
            report.set("setup_s", setup_s);
        }
    }
    report_config(&mut report, &fx.service, HIT_N);
    report.info("instances", fx.items.len());
    Ok(report)
}

// ---------------------------------------------------------------------------
// serve-miss
// ---------------------------------------------------------------------------

/// An instance of a client's pool and the offline solvers that accept it.
struct PoolItem {
    body: String,
    /// Rotation turn of the instance's first pass.
    turn: usize,
    accepting: Vec<&'static str>,
}

/// `serve-miss` chunk `j`: `suite(mix(seed, j), MISS_N, 8)` without the
/// seed-independent `skyline-adversary` family.
fn chunk_items(seed: u64, chunk: u64, rotation: &Rotation) -> Result<Vec<PoolItem>, String> {
    let chunk_seed = spp_core::hash::splitmix_mix(seed ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut items = Vec::new();
    for (i, sc) in suite(chunk_seed, MISS_N, FAMILIES.len())
        .into_iter()
        .enumerate()
    {
        if FAMILIES[i] == "skyline-adversary" {
            continue;
        }
        items.push(PoolItem {
            body: fileio::to_json(&sc.prec),
            turn: chunk as usize,
            accepting: rotation.accepting(&SolveRequest::new(sc.prec))?,
        });
    }
    Ok(items)
}

/// Chunks each client's pool holds.
const MISS_POOL_CHUNKS: u64 = 16;

/// What one `serve-miss` request sends.
struct Job<'a> {
    body: &'a str,
    solver: &'static str,
    config: SolveConfig,
}

impl Job<'_> {
    fn solve_path(&self) -> String {
        format!(
            "/solve?solver={}&improve_seed={}",
            self.solver, self.config.improve_seed
        )
    }
}

struct MissFixture {
    service: Service,
    /// Client `c`'s pool holds chunks `c`, `c + CLIENTS`, `c + 2·CLIENTS`,
    /// …, so no instance goes to two clients.
    pools: Vec<Vec<PoolItem>>,
    /// Operations each client has started in this run.
    started: Vec<AtomicU64>,
}

impl MissFixture {
    /// Start a server on an empty cache and generate every client's pool.
    fn setup(seed: u64, rotation: &Rotation, cache_dir: PathBuf) -> Result<MissFixture, String> {
        let service = Service::start(cache_dir)?;
        let mut pools = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS as u64 {
            let mut pool = Vec::new();
            for m in 0..MISS_POOL_CHUNKS {
                pool.extend(chunk_items(seed, c + m * CLIENTS as u64, rotation)?);
            }
            pools.push(pool);
        }
        Ok(MissFixture {
            service,
            pools,
            started: (0..CLIENTS).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Client `c`'s `n`-th request. Pass `p = n / pool size` over the pool
    /// sends each instance with `improve_seed = p` to the next solver that
    /// accepts it. The seed is part of the cache key but changes nothing
    /// at `budget_ms = 0`, so every request is a miss that solves.
    fn job(&self, c: usize, n: u64) -> Job<'_> {
        let pool = &self.pools[c];
        let item = &pool[(n % pool.len() as u64) as usize];
        let pass = n / pool.len() as u64;
        Job {
            body: &item.body,
            solver: item.accepting[(item.turn + pass as usize) % item.accepting.len()],
            config: SolveConfig {
                improve_seed: pass,
                ..SolveConfig::default()
            },
        }
    }

    /// One operation: POST /solve a new (instance, improve_seed) pair
    /// (must be a fresh solve), then GET the entry it wrote (must hold the
    /// same makespan).
    fn op(
        &self,
        checks: &Checks,
        tracer: Option<(&Tracer, &Mutex<Vec<MissReplay>>)>,
        c: usize,
    ) -> Option<OpSample> {
        checks.attempt();
        let n = self.started[c].fetch_add(1, Ordering::Relaxed);
        let job = self.job(c, n);
        let solve_path = job.solve_path();
        let t0 = now_ns();
        let solved = self.service.call("POST", &solve_path, job.body);
        let t1 = now_ns();
        let checked = check_fresh(&solved)
            .and_then(|reply| Ok((cache_key(&reply.instance, job.solver, &job.config)?, reply)));
        let (key, reply) = match checked {
            Ok(ok) => ok,
            Err(e) => {
                checks.fail(e);
                return None;
            }
        };
        let t2 = now_ns();
        let got = self.service.call("GET", &get_path(&key), "");
        let t3 = now_ns();
        match check_entry(&got, &key) {
            Ok(cell) if cell.makespan.to_bits() == reply.makespan.to_bits() => {}
            Ok(_) => {
                checks.fail(format!(
                    "GET {}: entry makespan differs from the reply",
                    get_path(&key)
                ));
                return None;
            }
            Err(e) => {
                checks.fail(e);
                return None;
            }
        }
        let sample = OpSample {
            latency: t3 - t0,
            get: t3 - t2,
            solve: t1 - t0,
            ratio: reply.makespan / reply.lb,
            body_bytes: job.body.len(),
            entry_bytes: got.map_or(0, |r| r.body.len()),
        };
        if let Some((tracer, replays)) = tracer {
            let group = group_id(c, n);
            let solve_span = tracer.record("serve.request", group, 0, (t0, t1), false);
            let get_span = tracer.record("serve.request", group, 0, (t2, t3), false);
            let mut replays = replays.lock().expect("replay list poisoned");
            if replays.len() < REPLAY_MISS {
                replays.push(MissReplay {
                    group,
                    client: c,
                    n,
                    key,
                    makespan: reply.makespan,
                    solve_span,
                    get_span,
                });
            }
        }
        Some(sample)
    }
}

struct MissReplay {
    group: u64,
    client: usize,
    n: u64,
    key: CacheKey,
    makespan: f64,
    solve_span: u64,
    get_span: u64,
}

/// Replay the server's layer calls for each sampled miss: parse, digest,
/// lookup (a miss, on a scratch cache), solve (with its lower bounds and
/// validation), the best-so-far write, and the read-back.
fn replay_misses(
    tracer: &Tracer,
    replays: &[MissReplay],
    fx: &MissFixture,
    rotation: &Rotation,
    scratch: &DiskCache,
    checks: &Checks,
) -> Result<BTreeMap<&'static str, Vec<f64>>, String> {
    let served = DiskCache::new(&fx.service.cache_dir, true).map_err(|e| e.to_string())?;
    let mut per_solver: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in replays {
        let g = r.group;
        let job = fx.job(r.client, r.n);
        let (prec, _, _) = tracer.replay("fileio.parse", g, r.solve_span, || {
            fileio::from_json(job.body)
        });
        let prec = prec.map_err(|e| e.to_string())?;
        let (digest, _, _) =
            tracer.replay("fileio.digest", g, r.solve_span, || fileio::digest(&prec));
        let key = CacheKey::new(digest, job.solver, &job.config);
        checks.expect(key == r.key, || {
            "replayed digest differs from the served one".into()
        });
        let (miss, _, _) = tracer.replay("cache.get", g, r.solve_span, || scratch.get(&key));
        checks.expect(miss.is_none(), || {
            "replayed lookup of a new instance hit".into()
        });
        let req = SolveRequest::new(prec).with_config(job.config.clone());
        let solver = rotation.solver(job.solver);
        let (outcome, solve_span, solve_ns) =
            tracer.replay("engine.solve", g, r.solve_span, || {
                spp_engine::solve(solver, &req)
            });
        per_solver
            .entry(job.solver)
            .or_default()
            .push(solve_ns as f64 / 1e3);
        let solved = match outcome {
            Ok(solved) => solved,
            Err(e) => {
                checks.fail(format!("replayed solve failed: {e}"));
                continue;
            }
        };
        tracer.replay("engine.lower_bounds", g, solve_span, || {
            spp_engine::solver::lower_bounds(&req.prec)
        });
        if let Some(d) = solved.phase("validate") {
            let at = now_ns();
            tracer.record(
                "engine.validate",
                g,
                solve_span,
                (at, at + d.as_nanos() as u64),
                true,
            );
        }
        checks.expect(solved.validation.passed(), || {
            format!("replayed {} solve failed validation", job.solver)
        });
        checks.expect(solved.makespan.to_bits() == r.makespan.to_bits(), || {
            format!(
                "replayed {} solve differs from the served makespan",
                job.solver
            )
        });
        let cell = CachedCell {
            status: CellStatus::Solved,
            makespan: solved.makespan,
            combined_lb: solved.bounds.combined,
            improved_from: None,
        };
        let (put, _, _) = tracer.replay("cache.put", g, r.solve_span, || {
            scratch.put_best(&key, &cell)
        });
        put.map_err(|e| e.to_string())?;
        let (read, _, _) = tracer.replay("cache.read", g, r.get_span, || served.get(&key));
        checks.expect(read.is_some(), || "replayed read-back missed".into());
    }
    Ok(per_solver)
}

pub(crate) fn run_miss(cfg: &RunConfig) -> Result<Report, String> {
    let scratch = Scratch::new(&cfg.root, "serve-miss")?;
    let rotation = Rotation::new()?;
    let checks = Checks::default();
    let (fx, setup_s) = repeated_setup(|rep| {
        MissFixture::setup(cfg.seed, &rotation, scratch.sub(&format!("cache-{rep}")))
    })?;
    // Tracing splits the window into an untraced and a traced half.
    let measured = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let measure_ns = (measured * 1e9) as u64;
    let untraced = closed_loop(warmup_ns(cfg.seconds), measure_ns, &|c, _| {
        fx.op(&checks, None, c)
    });
    let mut serve_trace = None;
    if cfg.trace {
        let tracer = Tracer::new();
        let replays = Mutex::new(Vec::new());
        let before = fx.service.counters();
        let traced = closed_loop(0, measure_ns, &|c, _| {
            fx.op(&checks, Some((&tracer, &replays)), c)
        });
        let after = fx.service.counters();
        let replays = replays.into_inner().expect("replay list poisoned");
        let scratch_cache =
            DiskCache::new(&scratch.sub("replay-cache"), false).map_err(|e| e.to_string())?;
        let per_solver = replay_misses(&tracer, &replays, &fx, &rotation, &scratch_cache, &checks)?;
        serve_trace = Some(ServeTrace {
            spans: tracer.into_spans(),
            replayed_groups: replays.iter().map(|r| r.group).collect(),
            before,
            after,
            untraced_ops_per_s: untraced.rate(),
            traced,
            per_solver,
        });
    }
    let mut report = Report::new(checks);
    match serve_trace.as_mut() {
        Some(t) => {
            report_serve_layers(&mut report, t);
            trace::write_run_spans(cfg, &t.spans);
        }
        None => {
            report_end_to_end(&mut report, &untraced);
            report.set("setup_s", setup_s);
        }
    }
    report_config(&mut report, &fx.service, MISS_N);
    report.info(
        "pool_instances",
        fx.pools.iter().map(Vec::len).sum::<usize>(),
    );
    report.info(
        "pool_passes",
        fx.started
            .iter()
            .zip(&fx.pools)
            .map(|(n, pool)| n.load(Ordering::Relaxed).div_ceil(pool.len() as u64))
            .max()
            .unwrap_or(0),
    );
    Ok(report)
}
