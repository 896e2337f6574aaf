//! In-process tests of the `spp serve` service: endpoint contracts,
//! error paths, and the property that justifies `HttpCache` — the HTTP
//! backend agrees cell-for-cell with a local `DiskCache` on the same
//! workload (mirroring the memory/disk agreement test in
//! `spp-engine/tests/cache_correctness.rs`).

use spp_engine::cache::{entry_parse, entry_to_json, CacheKey, CachedCell};
use spp_engine::{
    execute_cells, BatchJob, CellStatus, DiskCache, Registry, ShardPlan, SolveCache, SolveConfig,
    SolveRequest, Solver,
};
use spp_serve::http::roundtrip;
use spp_serve::{HttpCache, ServeConfig, Server};
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spp_serve_test_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn solvers(names: &[&str]) -> Vec<Box<dyn Solver>> {
    let registry = Registry::builtin();
    names.iter().map(|n| registry.get(n).unwrap()).collect()
}

fn key(tag: &str) -> CacheKey {
    CacheKey {
        digest: spp_core::InstanceDigest::of_canonical_json(tag),
        solver: "nfdh".into(),
        config_sig: SolveConfig::default().signature(),
    }
}

fn cell(makespan: f64) -> CachedCell {
    CachedCell {
        status: CellStatus::Solved,
        makespan,
        combined_lb: makespan / 2.0,
        improved_from: None,
    }
}

fn start(tag: &str, readonly: bool) -> (spp_serve::ServerHandle, PathBuf) {
    let dir = tmp(tag);
    if readonly {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut config = ServeConfig::new(&dir);
    config.workers = 4;
    config.readonly = readonly;
    let server = Server::bind(&config).unwrap();
    (server.spawn(), dir)
}

#[test]
fn cache_endpoints_roundtrip_and_validate() {
    let (server, dir) = start("cache_endpoints", false);
    let authority = server.authority();
    let k = key("a");
    let stem = k.file_name();
    let stem = stem.strip_suffix(".json").unwrap();
    let body = entry_to_json(&k, &cell(4.5));

    // Missing entry: 404 with a structured error body.
    let r = roundtrip(&authority, "GET", &format!("/cache/{stem}"), "").unwrap();
    assert_eq!(r.status, 404);
    assert!(r.body.contains("spp-serve-error"), "{}", r.body);

    // PUT publishes; GET returns the exact bytes.
    let r = roundtrip(&authority, "PUT", &format!("/cache/{stem}"), &body).unwrap();
    assert_eq!(r.status, 204, "{}", r.body);
    let r = roundtrip(&authority, "GET", &format!("/cache/{stem}"), "").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, body);
    // And the entry landed as a real DiskCache-servable file.
    let local = DiskCache::new(&dir, true).unwrap();
    assert_eq!(local.get(&k), Some(cell(4.5)));

    // A PUT whose body is keyed to a different name is refused — no
    // client can plant a mis-filed entry.
    let other = key("b");
    let r = roundtrip(
        &authority,
        "PUT",
        &format!("/cache/{stem}"),
        &entry_to_json(&other, &cell(1.0)),
    )
    .unwrap();
    assert_eq!(r.status, 400);
    // Garbage bodies are refused too.
    let r = roundtrip(&authority, "PUT", &format!("/cache/{stem}"), "junk").unwrap();
    assert_eq!(r.status, 400);
    // Path traversal and non-key names never reach the filesystem.
    for bad in ["..", "a.json", "x/y", "UPPER", ""] {
        let r = roundtrip(&authority, "GET", &format!("/cache/{bad}"), "").unwrap();
        assert!(
            r.status == 400 || r.status == 404,
            "{bad:?} gave {}",
            r.status
        );
    }
    // Damaged on-disk entries are 404, never served.
    std::fs::write(dir.join(k.file_name()), "garbage").unwrap();
    let r = roundtrip(&authority, "GET", &format!("/cache/{stem}"), "").unwrap();
    assert_eq!(r.status, 404);

    // Unknown endpoints and bad methods are named.
    let r = roundtrip(&authority, "GET", "/nope", "").unwrap();
    assert_eq!(r.status, 404);
    let r = roundtrip(&authority, "PATCH", "/cache/abc", "").unwrap();
    assert_eq!(r.status, 405);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `PUT /cache` keeps the best-so-far rule: a worse entry after a
/// better one is accepted (204) but the better one stays served.
#[test]
fn a_worse_put_never_replaces_a_better_entry() {
    let (server, dir) = start("put_best_raw", false);
    let authority = server.authority();
    let k = key("best-raw");
    let name = k.file_name();
    let path = format!("/cache/{}", name.strip_suffix(".json").unwrap());
    let better = entry_to_json(&k, &cell(2.0));
    for body in [better.clone(), entry_to_json(&k, &cell(3.0))] {
        let r = roundtrip(&authority, "PUT", &path, &body).unwrap();
        assert_eq!(r.status, 204, "{}", r.body);
    }
    let r = roundtrip(&authority, "GET", &path, "").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, better, "a worse PUT replaced a better entry");
    assert_eq!(server.counters().cache_puts, 2, "both PUTs are accepted");

    // A strictly better entry still replaces it.
    let best = entry_to_json(&k, &cell(1.0));
    assert_eq!(
        roundtrip(&authority, "PUT", &path, &best).unwrap().status,
        204
    );
    assert_eq!(roundtrip(&authority, "GET", &path, "").unwrap().body, best);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `HttpCache` relies on the trait's default `put_best` (a plain PUT):
/// the server's rule is what keeps the better entry.
#[test]
fn http_cache_put_best_keeps_the_better_entry() {
    let (server, dir) = start("put_best_http", false);
    let http = HttpCache::new(&server.url(), false, None).unwrap();
    let k = key("best-http");
    http.put_best(&k, &cell(1.5)).unwrap();
    http.put_best(&k, &cell(4.0)).unwrap();
    assert_eq!(http.get(&k), Some(cell(1.5)));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn readonly_server_refuses_puts_but_serves_gets() {
    let seed_dir = tmp("readonly_seed");
    let seeder = DiskCache::new(&seed_dir, false).unwrap();
    seeder.put(&key("a"), &cell(2.0)).unwrap();

    let mut config = ServeConfig::new(&seed_dir);
    config.workers = 2;
    config.readonly = true;
    let server = Server::bind(&config).unwrap().spawn();
    let authority = server.authority();
    let stem_owned = key("a").file_name();
    let stem = stem_owned.strip_suffix(".json").unwrap();

    let r = roundtrip(&authority, "GET", &format!("/cache/{stem}"), "").unwrap();
    assert_eq!(r.status, 200);
    let r = roundtrip(
        &authority,
        "PUT",
        &format!("/cache/{stem}"),
        &entry_to_json(&key("a"), &cell(2.0)),
    )
    .unwrap();
    assert_eq!(r.status, 403);

    // An HttpCache client pointed at a read-only server still works as a
    // read-through cache (its own puts error loudly unless it too is
    // read-only).
    let client = HttpCache::new(&server.url(), true, None).unwrap();
    assert_eq!(client.get(&key("a")), Some(cell(2.0)));
    assert!(client.put(&key("b"), &cell(1.0)).is_ok()); // no-op
    assert!(client.get(&key("b")).is_none());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&seed_dir);
}

#[test]
fn solve_endpoint_solves_then_serves_from_cache() {
    let (server, dir) = start("solve", false);
    let authority = server.authority();
    let inst = spp_core::Instance::from_dims(&[(0.5, 1.0), (0.4, 0.7), (0.9, 0.2)]).unwrap();
    let prec = spp_dag::PrecInstance::unconstrained(inst);
    let body = spp_gen::fileio::to_json(&prec);

    let cold = roundtrip(&authority, "POST", "/solve?solver=nfdh", &body).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert!(cold.body.contains("\"format\": \"spp-solve-report\""));
    assert!(cold.body.contains("\"cached\": false"));
    assert!(cold.body.contains("\"status\": \"solved\""));

    let warm = roundtrip(&authority, "POST", "/solve?solver=nfdh", &body).unwrap();
    assert_eq!(warm.status, 200);
    assert!(warm.body.contains("\"cached\": true"));
    // Identical apart from the informational cached flag.
    assert_eq!(
        cold.body.replace("\"cached\": false", "\"cached\": true"),
        warm.body
    );
    // The portable fields agree bit-for-bit with a local engine solve.
    let report = spp_engine::solve(
        solvers(&["nfdh"])[0].as_ref(),
        &SolveRequest::new(spp_gen::fileio::from_json(&body).unwrap()),
    )
    .unwrap();
    assert!(cold.body.contains(&format!("{:.17e}", report.makespan)));

    // Config params key separate cells; unknown/malformed ones are named.
    let tighter = roundtrip(&authority, "POST", "/solve?solver=nfdh&epsilon=0.25", &body).unwrap();
    assert_eq!(tighter.status, 200);
    assert!(tighter.body.contains("\"cached\": false"));
    for (bad, needle) in [
        ("/solve", "solver"),                        // missing solver
        ("/solve?solver=not-a-solver", "unknown"),   // unknown solver
        ("/solve?solver=nfdh&wat=1", "wat"),         // unknown param
        ("/solve?solver=nfdh&epsilon=x", "epsilon"), // malformed value
        // Out-of-domain knobs are 400s, never solver-side assertion
        // panics that would kill a pool worker.
        ("/solve?solver=aptas&epsilon=0", "epsilon"),
        ("/solve?solver=aptas&epsilon=-1", "epsilon"),
        ("/solve?solver=aptas&k=0", "k"),
        ("/solve?solver=online-shelf&shelf_r=1.5", "shelf_r"),
    ] {
        let r = roundtrip(&authority, "POST", bad, &body).unwrap();
        assert_eq!(r.status, 400, "{bad}");
        assert!(r.body.contains(needle), "{bad}: {}", r.body);
    }
    // A malformed instance body names field and line.
    let r = roundtrip(&authority, "POST", "/solve?solver=nfdh", "{\"format\": 3}").unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body.contains("format"), "{}", r.body);

    // /stats reflects it all.
    let r = roundtrip(&authority, "GET", "/stats", "").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"format\": \"spp-serve-stats\""));
    assert!(r.body.contains("\"solves\": 2"), "{}", r.body);
    assert!(r.body.contains("\"solve_cache_hits\": 1"), "{}", r.body);
    assert!(r.body.contains("\"entries\": 2"), "{}", r.body);
    let counters = server.counters();
    assert_eq!(counters.solves, 2);
    assert_eq!(counters.solve_cache_hits, 1);
    assert!(counters.errors >= 9);

    // ε = 1e-9 is in /solve's domain, but its ⌈3/ε⌉·K width groups would
    // hold this worker for minutes: the solver refuses it up front, well
    // inside the client's read timeout.
    let r = roundtrip(
        &authority,
        "POST",
        "/solve?solver=aptas&epsilon=1e-9",
        &body,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"status\": \"unsupported\""), "{}", r.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The anytime surface of `POST /solve`: a budgeted request runs the
/// improvement loop, reports `improved_from`, and shows up in the
/// `/stats` improvement counters; the cached entry keeps the improved
/// result so warm replies stay byte-identical; and every malformed
/// budget parameter — including the classic `budget-ms` typo for
/// `budget_ms` — is a structured 400 naming the offending parameter.
#[test]
fn budgeted_solve_improves_and_rejects_bad_budget_params() {
    let (server, dir) = start("solve_budget", false);
    let authority = server.authority();
    // Four half-width items whose NFDH shelf seed wastes height: shelves
    // give 1.5, while the improvement decode's first (identity-order)
    // skyline pass packs the two columns as 1.0+0.45 / 0.55+0.5 = 1.45.
    // The gain arrives in round 0, so any positive budget finds it —
    // the assertion never races the wall clock.
    let inst =
        spp_core::Instance::from_dims(&[(0.5, 1.0), (0.5, 0.55), (0.5, 0.5), (0.5, 0.45)]).unwrap();
    let prec = spp_dag::PrecInstance::unconstrained(inst);
    let body = spp_gen::fileio::to_json(&prec);

    let path = "/solve?solver=nfdh&budget_ms=2000";
    let cold = roundtrip(&authority, "POST", path, &body).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert!(cold.body.contains("\"cached\": false"));
    assert!(
        cold.body.contains("\"improved_from\": 1.5"),
        "{}",
        cold.body
    );
    assert!(
        cold.body.contains("\"makespan\": 1.44999999999999996e0"),
        "{}",
        cold.body
    );

    // Warm: the improved entry is served back, byte-identical apart from
    // the informational cached flag — improved_from included.
    let warm = roundtrip(&authority, "POST", path, &body).unwrap();
    assert_eq!(warm.status, 200);
    assert!(warm.body.contains("\"cached\": true"));
    assert_eq!(
        cold.body.replace("\"cached\": false", "\"cached\": true"),
        warm.body
    );

    // /stats carries the improvement counters.
    let r = roundtrip(&authority, "GET", "/stats", "").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"improved_cells\": 1"), "{}", r.body);
    let counters = server.counters();
    assert_eq!(counters.improved_cells, 1);
    assert!(counters.improve_iterations >= 1);
    assert!(counters.improve_total_gain > 0.04);

    // Malformed budget parameters are structured 400s that name the
    // parameter in a machine-readable field.
    for (bad, param) in [
        ("/solve?solver=nfdh&budget-ms=100", "budget-ms"), // typo'd name
        ("/solve?solver=nfdh&budget_ms=abc", "budget_ms"), // malformed value
        ("/solve?solver=nfdh&budget_ms=-5", "budget_ms"),  // bad domain
        ("/solve?solver=nfdh&budget_ms=999999999", "budget_ms"), // over the server cap
        ("/solve?solver=nfdh&budget_ms=5&budget_ms=9", "budget_ms"), // duplicate
        ("/solve?solver=nfdh&improve_seed=x", "improve_seed"), // malformed seed
        ("/solve?solver=nfdh&improve_streams=0", "improve_streams"), // zero-width portfolio
        ("/solve?solver=nfdh&improve_streams=x", "improve_streams"), // malformed width
        ("/solve?solver=nfdh&improve_streams=-2", "improve_streams"), // bad domain
        ("/solve?solver=nfdh&improve_streams=9999", "improve_streams"), // over the server cap
        (
            "/solve?solver=nfdh&improve_envelope=maybe",
            "improve_envelope",
        ), // not a bool
    ] {
        let r = roundtrip(&authority, "POST", bad, &body).unwrap();
        assert_eq!(r.status, 400, "{bad}: {}", r.body);
        assert!(
            r.body.contains(&format!("\"param\": \"{param}\"")),
            "{bad}: {}",
            r.body
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The portfolio surface of `POST /solve`: `improve_streams=K` runs K
/// search streams, the `/stats` improve object reports the stream count
/// and derived rounds-per-stream, and the result is byte-identical to a
/// re-solve at the same width (deterministic reduction).
#[test]
fn portfolio_solve_reports_streams_in_stats() {
    let (server, dir) = start("solve_portfolio", false);
    let authority = server.authority();
    let inst =
        spp_core::Instance::from_dims(&[(0.5, 1.0), (0.5, 0.55), (0.5, 0.5), (0.5, 0.45)]).unwrap();
    let prec = spp_dag::PrecInstance::unconstrained(inst);
    let body = spp_gen::fileio::to_json(&prec);

    let path = "/solve?solver=nfdh&budget_ms=2000&improve_streams=4";
    let cold = roundtrip(&authority, "POST", path, &body).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert!(cold.body.contains("\"cached\": false"));
    assert!(
        cold.body.contains("improve_streams=4"),
        "config signature must carry the width: {}",
        cold.body
    );

    // Same width again: the signature-keyed cache replays it.
    let warm = roundtrip(&authority, "POST", path, &body).unwrap();
    assert!(warm.body.contains("\"cached\": true"));
    assert_eq!(
        cold.body.replace("\"cached\": false", "\"cached\": true"),
        warm.body
    );

    let r = roundtrip(&authority, "GET", "/stats", "").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.body.contains("\"streams\": 4"), "{}", r.body);
    assert!(r.body.contains("\"envelope_prunes\": 0"), "{}", r.body);
    let counters = server.counters();
    assert_eq!(counters.improve_streams, 4);
    assert!(counters.improve_iterations >= 4, "every stream rounds");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Keep-alive contract, happy path: one socket serves many requests, and
/// the server counts the reuse.
#[test]
fn keepalive_serves_many_requests_per_socket() {
    let (server, dir) = start("keepalive_reuse", false);
    let mut conn = spp_serve::http::Conn::connect(&server.authority()).unwrap();
    for i in 1..=5u64 {
        let r = conn.call("GET", "/stats", "", None).unwrap();
        assert_eq!(r.status, 200);
        assert!(!r.close, "request {i} should leave the connection open");
        assert_eq!(conn.requests(), i);
    }
    let counters = server.counters();
    assert_eq!(counters.connections_accepted, 1);
    assert_eq!(counters.keepalive_reuses, 4);
    // The per-connection maximum is recorded when the connection ends;
    // close ours and give the server a moment to notice the EOF.
    drop(conn);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        if server.counters().max_requests_per_connection == 5 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never recorded the closed connection: {:?}",
            server.counters()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Budget exhaustion: the N-th response on a connection advertises
/// `Connection: close` and the socket really closes — the next call on
/// it fails while a fresh connection keeps working.
#[test]
fn keepalive_budget_exhaustion_closes_with_connection_close() {
    let dir = tmp("keepalive_budget");
    let mut config = ServeConfig::new(&dir);
    config.workers = 2;
    config.keepalive_requests = 3;
    let server = Server::bind(&config).unwrap().spawn();
    let authority = server.authority();

    let mut conn = spp_serve::http::Conn::connect(&authority).unwrap();
    for i in 1..=3u64 {
        let r = conn.call("GET", "/stats", "", None).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(
            r.close,
            i == 3,
            "only the budget-exhausting response closes"
        );
    }
    assert!(
        conn.call("GET", "/stats", "", None).is_err(),
        "the socket must really be closed after the budget"
    );
    let r = roundtrip(&authority, "GET", "/stats", "").unwrap();
    assert_eq!(r.status, 200);
    let counters = server.counters();
    assert_eq!(counters.max_requests_per_connection, 3);
    assert_eq!(counters.errors, 0, "budget closes are not errors");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Idle timeout: a connection with no request in flight is closed
/// cleanly (EOF, no bytes) once its idle budget elapses.
#[test]
fn keepalive_idle_timeout_closes_cleanly() {
    use std::io::Read as _;
    let dir = tmp("keepalive_idle");
    let mut config = ServeConfig::new(&dir);
    config.workers = 2;
    config.idle_timeout = std::time::Duration::from_millis(100);
    let server = Server::bind(&config).unwrap().spawn();
    let authority = server.authority();

    let mut conn = spp_serve::http::Conn::connect(&authority).unwrap();
    let r = conn.call("GET", "/stats", "", None).unwrap();
    assert_eq!(r.status, 200);
    assert!(!r.close);
    // Sit idle past the budget: the server's close shows up as a clean
    // EOF — zero bytes, not a mid-message reset.
    let mut stream = conn.into_stream();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 64];
    assert_eq!(stream.read(&mut buf).unwrap(), 0, "expected clean EOF");
    // The pool worker is free again: a fresh connection is served.
    let r = roundtrip(&authority, "GET", "/stats", "").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(server.counters().errors, 0, "idle closes are not errors");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An HTTP/1.1 client sending `Connection: close` is honored: the
/// response advertises close and the socket ends after one exchange.
#[test]
fn explicit_connection_close_on_http11_is_honored() {
    use std::io::{Read as _, Write as _};
    let (server, dir) = start("explicit_close", false);

    let mut stream = std::net::TcpStream::connect(server.authority()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap(); // EOF terminates: server closed
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(
        raw.to_ascii_lowercase().contains("connection: close"),
        "{raw}"
    );
    // One-shot roundtrip() rides the same contract.
    let r = roundtrip(&server.authority(), "GET", "/stats", "").unwrap();
    assert!(r.close);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client dying mid-request (headers promise a body that never comes)
/// must not poison a pool worker: every worker stays serviceable.
#[test]
fn mid_request_disconnect_does_not_poison_workers() {
    use std::io::Write as _;
    let dir = tmp("mid_request_disconnect");
    let mut config = ServeConfig::new(&dir);
    config.workers = 2;
    let server = Server::bind(&config).unwrap().spawn();
    let authority = server.authority();

    // More broken connections than workers, so every worker sees at
    // least one mid-message EOF.
    for _ in 0..6 {
        let mut stream = std::net::TcpStream::connect(&authority).unwrap();
        stream
            .write_all(b"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\npartial")
            .unwrap();
        drop(stream); // vanish before sending the rest of the body
    }
    // All workers still answer, on fresh and on persistent connections.
    for _ in 0..4 {
        let r = roundtrip(&authority, "GET", "/stats", "").unwrap();
        assert_eq!(r.status, 200);
    }
    let mut conn = spp_serve::http::Conn::connect(&authority).unwrap();
    assert_eq!(conn.call("GET", "/stats", "", None).unwrap().status, 200);
    assert_eq!(conn.call("GET", "/stats", "", None).unwrap().status, 200);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The backend-agreement property, network edition: the HTTP cache and a
/// local disk cache produce bit-identical cells over the same suite
/// workload, and a warm rerun through HTTP invokes zero solvers.
#[test]
fn http_and_disk_backends_agree() {
    let suite_dir = tmp("agree_suite");
    spp_gen::suite::write_suite(&suite_dir, 11, 10, 8).unwrap();
    let mut jobs = Vec::new();
    let plan = ShardPlan::from_dir(&suite_dir, 1).unwrap();
    for path in plan.paths() {
        let prec = spp_gen::fileio::read_path(path).unwrap();
        jobs.push(BatchJob::new(
            path.file_stem().unwrap().to_string_lossy().into_owned(),
            SolveRequest::new(prec),
        ));
    }
    let solvers = solvers(&["nfdh", "ffdh"]);

    let (server, server_dir) = start("agree_server", false);
    let http = HttpCache::new(&server.url(), false, None).unwrap();
    let disk_dir = tmp("agree_disk");
    let disk = DiskCache::new(&disk_dir, false).unwrap();

    for cache in [&http as &dyn SolveCache, &disk as &dyn SolveCache] {
        execute_cells(&jobs, &solvers, Some(cache)).unwrap();
        let warm = execute_cells(&jobs, &solvers, Some(cache)).unwrap();
        assert!(warm.iter().all(|c| c.from_cache));
        assert!(warm.iter().all(|c| c.solve_time.is_zero()));
    }
    assert_eq!(http.stats().misses, 16, "16 cold misses, then all hits");
    assert_eq!(http.stats().writes, 16);

    let from_http = execute_cells(&jobs, &solvers, Some(&http)).unwrap();
    let from_disk = execute_cells(&jobs, &solvers, Some(&disk)).unwrap();
    for (a, b) in from_http.iter().zip(&from_disk) {
        assert_eq!(a.solver, b.solver);
        assert_eq!(a.status, b.status);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.combined_lb.to_bits(), b.combined_lb.to_bits());
    }

    // The server's directory is a plain DiskCache directory: every entry
    // the HTTP clients published is locally servable, byte-canonical.
    for scanned in spp_engine::cache::scan_dir(&server_dir).unwrap() {
        let (k, c) = scanned.entry.expect("HTTP-published entry is valid");
        let text = std::fs::read_to_string(&scanned.path).unwrap();
        assert_eq!(text, entry_to_json(&k, &c));
        assert!(entry_parse(&text).is_ok());
    }

    server.shutdown();
    for d in [suite_dir, server_dir, disk_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}
