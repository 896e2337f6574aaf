//! In-process tests of the cache fleet: `ShardedCache` over real
//! `spp serve` nodes agrees cell-for-cell with a local `DiskCache`,
//! node loss degrades to misses (never errors), read-repair repopulates
//! a primary, and every mutating endpoint enforces the bearer token.

use std::path::PathBuf;

use spp_core::hash::{Fnv1a, HashRing};
use spp_engine::cache::{entry_to_json, CacheKey, CachedCell};
use spp_engine::{
    execute_cells, BatchJob, CellStatus, DiskCache, Registry, ShardPlan, SolveCache, SolveConfig,
    SolveRequest, Solver, WorkQueue, WorkSource,
};
use spp_serve::http::{roundtrip, Client};
use spp_serve::{HttpCache, RemoteLease, ServeConfig, Server, ServerHandle, ShardedCache};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spp_sharded_test_{tag}"));
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

/// Start one cache node, optionally requiring `token`.
fn start_node(tag: &str, token: Option<&str>) -> (ServerHandle, PathBuf) {
    let dir = tmp(tag);
    let mut config = ServeConfig::new(&dir);
    config.workers = 2;
    config.token = token.map(String::from);
    (Server::bind(&config).unwrap().spawn(), dir)
}

/// The suite workload every agreement test runs: jobs from a generated
/// instance directory.
fn suite_jobs(dir: &std::path::Path, seed: u64, n: usize, count: usize) -> Vec<BatchJob> {
    spp_gen::suite::write_suite(dir, seed, n, count).unwrap();
    let plan = ShardPlan::from_dir(dir, 1).unwrap();
    plan.paths()
        .iter()
        .map(|path| {
            let prec = spp_gen::fileio::read_path(path).unwrap();
            BatchJob::new(
                path.file_stem().unwrap().to_string_lossy().into_owned(),
                SolveRequest::new(prec),
            )
        })
        .collect()
}

/// Count the cache-entry files a node has on disk.
fn entries_on_disk(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .map(|it| it.filter_map(Result::ok).count())
        .unwrap_or(0)
}

/// The backend-agreement property, fleet edition: a two-node
/// `ShardedCache` (R = 2) produces bit-identical cells to a local
/// `DiskCache` over the same workload, a warm rerun invokes zero
/// solvers, and with R = N every entry lands on every node.
#[test]
fn sharded_and_disk_backends_agree() {
    let suite = tmp("agree_suite");
    let jobs = suite_jobs(&suite, 11, 10, 8);
    let solvers = solvers(&["nfdh", "ffdh"]);

    let (node_a, dir_a) = start_node("agree_a", None);
    let (node_b, dir_b) = start_node("agree_b", None);
    let sharded = ShardedCache::new(&[node_a.url(), node_b.url()], 2, false, None).unwrap();
    let disk_dir = tmp("agree_disk");
    let disk = DiskCache::new(&disk_dir, false).unwrap();

    for cache in [&sharded as &dyn SolveCache, &disk as &dyn SolveCache] {
        execute_cells(&jobs, &solvers, Some(cache)).unwrap();
        let warm = execute_cells(&jobs, &solvers, Some(cache)).unwrap();
        assert!(warm.iter().all(|c| c.from_cache));
        assert!(warm.iter().all(|c| c.solve_time.is_zero()));
    }
    assert_eq!(sharded.stats().misses, 16, "16 cold misses, then all hits");
    assert_eq!(sharded.stats().writes, 16);
    assert_eq!(sharded.stats().rejected, 0);
    assert_eq!(sharded.degraded_puts(), 0);

    let from_fleet = execute_cells(&jobs, &solvers, Some(&sharded)).unwrap();
    let from_disk = execute_cells(&jobs, &solvers, Some(&disk)).unwrap();
    for (a, b) in from_fleet.iter().zip(&from_disk) {
        assert_eq!(a.solver, b.solver);
        assert_eq!(a.status, b.status);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.combined_lb.to_bits(), b.combined_lb.to_bits());
    }

    // R = N = 2: every replica set is {A, B}, so both directories hold
    // the full key space — that is the redundancy `--replication 2` buys.
    assert_eq!(entries_on_disk(&dir_a), 16);
    assert_eq!(entries_on_disk(&dir_b), 16);

    node_a.shutdown();
    node_b.shutdown();
    for d in [suite, dir_a, dir_b, disk_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// Losing a node mid-fleet degrades to cache misses, never to errors:
/// the run completes, its cells are bit-identical to an uncached run,
/// and puts aimed at the dead node are absorbed, not surfaced.
#[test]
fn node_loss_degrades_to_misses_never_errors() {
    let suite = tmp("loss_suite");
    let jobs = suite_jobs(&suite, 17, 10, 8);
    let solvers = solvers(&["nfdh", "ffdh"]);

    let (node_a, dir_a) = start_node("loss_a", None);
    let (node_b, dir_b) = start_node("loss_b", None);
    // R = 1 so the key space is partitioned: losing a node must actually
    // cost misses (with R = 2 the survivor would hide the loss).
    let sharded = ShardedCache::new(&[node_a.url(), node_b.url()], 1, false, None).unwrap();

    let cold = execute_cells(&jobs, &solvers, Some(&sharded)).unwrap();
    let on_a = entries_on_disk(&dir_a);
    let on_b = entries_on_disk(&dir_b);
    assert_eq!(on_a + on_b, 16, "R = 1 partitions the key space");
    assert!(on_a > 0 && on_b > 0, "both nodes own keys ({on_a}/{on_b})");

    // Kill node B. The warm rerun must complete with zero hard errors:
    // B's keys recompute (misses) and their re-puts degrade to no-ops,
    // while A's keys still hit.
    node_b.shutdown();
    let after_loss = execute_cells(&jobs, &solvers, Some(&sharded)).unwrap();
    let hits = after_loss.iter().filter(|c| c.from_cache).count();
    assert_eq!(hits, on_a, "surviving node's keys still hit");
    assert_eq!(
        sharded.degraded_puts() as usize,
        on_b,
        "every re-put aimed at the dead node is absorbed"
    );
    for (a, b) in cold.iter().zip(&after_loss) {
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.status, b.status);
    }

    node_a.shutdown();
    for d in [suite, dir_a, dir_b] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// A hit found on a non-primary replica is re-put to the primary, so an
/// entry displaced by churn (here: seeded only on the secondary, as if
/// the primary's disk was wiped) migrates back to where gets look first.
#[test]
fn read_repair_repopulates_the_primary() {
    let (node_a, dir_a) = start_node("repair_a", None);
    let (node_b, dir_b) = start_node("repair_b", None);
    let urls = [node_a.url(), node_b.url()];
    let sharded = ShardedCache::new(&urls, 2, false, None).unwrap();

    // Recompute the placement the cache uses (same labels, same hash) to
    // learn which node is the key's primary.
    let k = key("repair-me");
    let ring = HashRing::new(&[urls[0].as_str(), urls[1].as_str()]);
    let order = ring.successors(Fnv1a::hash(k.file_name().as_bytes()), 2);
    let (primary, secondary) = (order[0], order[1]);

    // Seed the entry on the secondary only.
    let nodes = [
        HttpCache::new(&urls[0], false, None).unwrap(),
        HttpCache::new(&urls[1], false, None).unwrap(),
    ];
    nodes[secondary].put(&k, &cell(3.5)).unwrap();
    assert!(nodes[primary].get(&k).is_none(), "primary starts cold");

    // The sharded get walks primary (miss) then secondary (hit) — and
    // repairs the primary on the way out.
    assert_eq!(sharded.get(&k), Some(cell(3.5)));
    assert_eq!(sharded.read_repairs(), 1);
    assert_eq!(sharded.stats().hits, 1);
    assert_eq!(
        nodes[primary].get(&k),
        Some(cell(3.5)),
        "read-repair re-put the entry to the primary"
    );

    // Warm get: first probe hits, no further repair.
    assert_eq!(sharded.get(&k), Some(cell(3.5)));
    assert_eq!(sharded.read_repairs(), 1);

    // A read-only fleet client never repairs.
    let ro = ShardedCache::new(&urls, 2, true, None).unwrap();
    assert_eq!(ro.get(&key("ro-miss")), None);
    assert_eq!(ro.read_repairs(), 0);

    node_a.shutdown();
    node_b.shutdown();
    for d in [dir_a, dir_b] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// With R = 2 every replica applies the server's best-so-far rule: a
/// worse put after a better one leaves the better entry on both nodes,
/// and a strictly better one replaces it on both.
#[test]
fn both_replicas_keep_the_better_entry() {
    let (node_a, dir_a) = start_node("best_a", None);
    let (node_b, dir_b) = start_node("best_b", None);
    let urls = [node_a.url(), node_b.url()];
    let sharded = ShardedCache::new(&urls, 2, false, None).unwrap();
    let nodes = [
        HttpCache::new(&urls[0], false, None).unwrap(),
        HttpCache::new(&urls[1], false, None).unwrap(),
    ];
    let k = key("best-on-both");

    sharded.put_best(&k, &cell(2.0)).unwrap();
    sharded.put_best(&k, &cell(5.0)).unwrap();
    for (url, node) in urls.iter().zip(&nodes) {
        assert_eq!(node.get(&k), Some(cell(2.0)), "{url} took the worse entry");
    }
    sharded.put_best(&k, &cell(1.5)).unwrap();
    for (url, node) in urls.iter().zip(&nodes) {
        assert_eq!(node.get(&k), Some(cell(1.5)), "{url} kept the worse entry");
    }

    node_a.shutdown();
    node_b.shutdown();
    for d in [dir_a, dir_b] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// Every mutating cache endpoint requires the bearer token: missing,
/// wrong, and wrong-scheme credentials are 401 with `WWW-Authenticate`;
/// the right token (also via `HttpCache`/`ShardedCache`) is accepted;
/// read-only endpoints stay open.
#[test]
fn cache_endpoints_enforce_the_bearer_token() {
    use std::io::{Read as _, Write as _};
    let (server, dir) = start_node("authn", Some("fleet-secret"));
    let authority = server.authority();
    let k = key("authn");
    let stem_owned = k.file_name();
    let stem = stem_owned.strip_suffix(".json").unwrap();
    let path = format!("/cache/{stem}");
    let body = entry_to_json(&k, &cell(2.0));

    // Missing and wrong credentials: 401 with the structured error body.
    for token in [None, Some("wrong-secret"), Some("")] {
        let client = Client::new(&server.url(), token.map(String::from)).unwrap();
        let r = client.call("PUT", &path, &body).unwrap();
        assert_eq!(r.status, 401, "token {token:?}");
        assert!(r.body.contains("spp-serve-error"), "{}", r.body);
        let r = client.call("POST", "/solve?solver=nfdh", "{}").unwrap();
        assert_eq!(r.status, 401, "token {token:?}");
    }

    // The 401 carries `WWW-Authenticate: Bearer` on the wire, and a
    // non-Bearer scheme is refused no matter its contents.
    let mut stream = std::net::TcpStream::connect(&authority).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(
            format!(
                "PUT {path} HTTP/1.1\r\nHost: x\r\nAuthorization: Basic fleet-secret\r\n\
                 Content-Length: 0\r\nConnection: close\r\n\r\n"
            )
            .as_bytes(),
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 401 Unauthorized"), "{raw}");
    assert!(raw.contains("WWW-Authenticate: Bearer"), "{raw}");

    // The right token is accepted on every protected endpoint.
    let trusted = Client::new(&server.url(), Some("fleet-secret".into())).unwrap();
    let r = trusted.call("PUT", &path, &body).unwrap();
    assert_eq!(r.status, 204, "{}", r.body);
    // Reads stay open — a fleet's dashboards and read-through clients
    // need no credential.
    let r = roundtrip(&authority, "GET", &path, "").unwrap();
    assert_eq!(r.status, 200);
    let r = roundtrip(&authority, "GET", "/stats", "").unwrap();
    assert_eq!(r.status, 200);

    // The client stacks carry the token end to end.
    let http = HttpCache::new(&server.url(), false, Some("fleet-secret".into())).unwrap();
    assert!(http.put(&key("via-http"), &cell(1.0)).is_ok());
    let sharded =
        ShardedCache::new(&[server.url()], 1, false, Some("fleet-secret".into())).unwrap();
    assert!(sharded.put(&key("via-sharded"), &cell(1.0)).is_ok());
    assert_eq!(sharded.get(&key("via-sharded")), Some(cell(1.0)));

    // A tokenless client's put against a token'd fleet is a *loud*
    // rejection (live server saying no), not a silent degrade.
    let anon = ShardedCache::new(&[server.url()], 1, false, None).unwrap();
    assert!(anon.put(&key("anon"), &cell(1.0)).is_err());
    assert_eq!(anon.stats().rejected, 1);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The dispatcher's mutating work endpoints enforce the same token;
/// a `RemoteLease` built with the token satisfies it, status stays open.
#[test]
fn work_endpoints_enforce_the_bearer_token() {
    let suite = tmp("work_authn_suite");
    spp_gen::suite::write_suite(&suite, 5, 8, 2).unwrap();
    let plan = ShardPlan::from_dir(&suite, 1).unwrap();
    let queue = WorkQueue::new(
        plan.paths().to_vec(),
        vec!["nfdh".into()],
        SolveConfig::default(),
        spp_engine::work::chunk_ranges(plan.len(), 1),
        None,
    );
    let config = ServeConfig {
        token: Some("fleet-secret".into()),
        ..ServeConfig::default()
    };
    let server = Server::bind_with_work(&config, Some(queue))
        .unwrap()
        .spawn();
    let authority = server.authority();

    let wrong = Client::new(&server.url(), Some("wrong".into())).unwrap();
    for path in ["/work/lease", "/work/complete"] {
        let r = roundtrip(&authority, "POST", path, "").unwrap();
        assert_eq!(r.status, 401, "{path} without token");
        let r = wrong.call("POST", path, "").unwrap();
        assert_eq!(r.status, 401, "{path} with wrong token");
    }
    // Reads stay open.
    let r = roundtrip(&authority, "GET", "/work/status", "").unwrap();
    assert_eq!(r.status, 200);

    // A token'd worker leases fine; a tokenless one fails loudly.
    let anon = RemoteLease::new(&server.url(), None).unwrap();
    assert!(anon.lease().is_err());
    let trusted = RemoteLease::new(&server.url(), Some("fleet-secret".into())).unwrap();
    assert!(trusted.lease().is_ok());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&suite);
}
