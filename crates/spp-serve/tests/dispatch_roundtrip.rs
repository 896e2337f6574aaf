//! In-process tests of the dispatcher role: `RemoteLease` pullers drain
//! a served `WorkQueue` through the engine's one pull loop, the merged
//! report is byte-identical to a local `run_sharded`, expired leases
//! requeue, and completion stays idempotent over the wire.

use std::path::PathBuf;
use std::time::Duration;

use spp_engine::work::{execute_lease, pull_work};
use spp_engine::{
    run_sharded, LeaseGrant, Registry, ShardPlan, SolveConfig, Solver, WorkQueue, WorkSource,
};
use spp_serve::http::roundtrip;
use spp_serve::{RemoteLease, ServeConfig, Server};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spp_dispatch_test_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn solvers(names: &[&str]) -> Vec<Box<dyn Solver>> {
    let registry = Registry::builtin();
    names.iter().map(|n| registry.get(n).unwrap()).collect()
}

const ALGOS: [&str; 3] = ["nfdh", "ffdh", "greedy"];

fn queue_over(suite: &std::path::Path, lease_files: usize, timeout: Option<Duration>) -> WorkQueue {
    let plan = ShardPlan::from_dir(suite, 1).unwrap();
    WorkQueue::new(
        plan.paths().to_vec(),
        ALGOS.iter().map(|s| s.to_string()).collect(),
        SolveConfig::default(),
        spp_engine::work::chunk_ranges(plan.len(), lease_files),
        timeout,
    )
}

/// Run one `spp work`-shaped puller against a dispatcher URL: resolve
/// the solver names each lease names, execute through the engine
/// pipeline, report back.
fn pull_remote(url: &str) {
    let source = RemoteLease::new(url, None).unwrap();
    let registry = Registry::builtin();
    let execute = |lease: &spp_engine::WorkLease| {
        let solvers: Vec<Box<dyn Solver>> = lease
            .solvers
            .iter()
            .map(|n| registry.get(n).expect("dispatcher names a known solver"))
            .collect();
        execute_lease(lease, &solvers, None)
    };
    pull_work(&source, &execute, Duration::from_millis(20)).unwrap();
}

#[test]
fn remote_pullers_reproduce_the_local_run_byte_for_byte() {
    let suite = tmp("equiv");
    spp_gen::suite::write_suite(&suite, 23, 10, 9).unwrap();

    // Reference: the in-process sharded driver over the same files.
    let reference = run_sharded(
        &ShardPlan::from_dir(&suite, 3).unwrap(),
        &solvers(&ALGOS),
        &SolveConfig::default(),
        None,
        None,
    )
    .unwrap();

    // Dispatcher with 2-file leases, no cache role.
    let server = Server::bind_with_work(&ServeConfig::default(), Some(queue_over(&suite, 2, None)))
        .unwrap()
        .spawn();
    let url = server.url();

    // Before anyone completes anything the report poll is a clean 409.
    let authority = server.authority();
    let r = roundtrip(&authority, "GET", "/work/report", "").unwrap();
    assert_eq!(r.status, 409, "{}", r.body);

    // Three concurrent pullers drain the queue.
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| pull_remote(&url));
        }
    });

    let remote = RemoteLease::new(&url, None).unwrap();
    let status = remote.progress().unwrap();
    assert!(status.done);
    assert_eq!(status.jobs, 9);
    assert_eq!(status.requeued, 0);
    assert_eq!(remote.lease().unwrap(), LeaseGrant::Done);

    // The dispatcher's merged report is byte-identical to the local run.
    let merged = remote.fetch_report().unwrap();
    assert_eq!(merged.cells, reference.cells);
    assert_eq!(merged.render_table(), reference.render_table());
    assert_eq!(merged.render_cells(), reference.render_cells());

    // /stats shows the dispatcher role: uptime, per-endpoint counters
    // with lease/complete included, queue progress; no cache role.
    let stats = roundtrip(&authority, "GET", "/stats", "").unwrap();
    assert_eq!(stats.status, 200);
    for needle in [
        "\"uptime_secs\":",
        "\"work_lease\":",
        "\"work_complete\":",
        "\"work_done\": true",
        "\"work_requeued\": 0",
        "\"cache_role\": false",
    ] {
        assert!(
            stats.body.contains(needle),
            "missing {needle}: {}",
            stats.body
        );
    }
    // And the cache endpoints answer a clean 404 on this role-less server.
    let r = roundtrip(&authority, "GET", "/cache/abc", "").unwrap();
    assert_eq!(r.status, 404);
    assert!(r.body.contains("no cache role"), "{}", r.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&suite);
}

#[test]
fn expired_leases_requeue_and_duplicate_completions_are_acknowledged() {
    let suite = tmp("requeue");
    spp_gen::suite::write_suite(&suite, 5, 8, 4).unwrap();
    let timeout = Duration::from_millis(300);
    let server = Server::bind_with_work(
        &ServeConfig::default(),
        Some(queue_over(&suite, 1, Some(timeout))),
    )
    .unwrap()
    .spawn();
    let url = server.url();
    let remote = RemoteLease::new(&url, None).unwrap();

    // A doomed worker takes one lease and never completes it.
    let LeaseGrant::Work(abandoned) = remote.lease().unwrap() else {
        panic!("expected work");
    };

    // Its lease expires; a surviving puller then drains everything,
    // including the requeued chunk.
    std::thread::sleep(timeout + Duration::from_millis(50));
    pull_remote(&url);
    let status = remote.progress().unwrap();
    assert!(status.done, "{status:?}");
    assert_eq!(status.requeued, 1, "{status:?}");

    // The doomed worker completes late anyway: its cells match the
    // chunk, so the dispatcher acknowledges the duplicate (200), and
    // nothing is double-counted in the merged report.
    let registry = Registry::builtin();
    let late_solvers: Vec<Box<dyn Solver>> = abandoned
        .solvers
        .iter()
        .map(|n| registry.get(n).unwrap())
        .collect();
    let (cells, _) = execute_lease(&abandoned, &late_solvers, None).unwrap();
    remote
        .complete(abandoned.id, abandoned.start, &cells)
        .unwrap();
    assert_eq!(remote.progress().unwrap().duplicates, 1);
    let merged = remote.fetch_report().unwrap();
    assert_eq!(merged.cells.len(), 4 * ALGOS.len());

    // A lease id the dispatcher never granted is a 409, distinct from a
    // malformed body's 400.
    let bogus = spp_engine::work::complete_to_json(999, 0, &[]);
    let r = roundtrip(&server.authority(), "POST", "/work/complete", &bogus).unwrap();
    assert_eq!(r.status, 409, "{}", r.body);
    let r = roundtrip(&server.authority(), "POST", "/work/complete", "junk").unwrap();
    assert_eq!(r.status, 400, "{}", r.body);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&suite);
}

#[test]
fn dispatcher_and_cache_roles_compose_in_one_server() {
    let suite = tmp("bothroles_suite");
    spp_gen::suite::write_suite(&suite, 31, 8, 4).unwrap();
    let cache_dir = tmp("bothroles_cache");
    let mut config = ServeConfig::new(&cache_dir);
    config.workers = 4;
    let server = Server::bind_with_work(&config, Some(queue_over(&suite, 2, None)))
        .unwrap()
        .spawn();
    let url = server.url();

    // A worker that leases from the server AND publishes its cells into
    // the same server's cache — the collapsed one-process topology.
    let source = RemoteLease::new(&url, None).unwrap();
    let cache = spp_serve::HttpCache::new(&url, false, None).unwrap();
    let registry = Registry::builtin();
    let execute = |lease: &spp_engine::WorkLease| {
        let solvers: Vec<Box<dyn Solver>> = lease
            .solvers
            .iter()
            .map(|n| registry.get(n).unwrap())
            .collect();
        execute_lease(lease, &solvers, Some(&cache))
    };
    pull_work(&source, &execute, Duration::from_millis(20)).unwrap();

    assert!(source.progress().unwrap().done);
    let merged = source.fetch_report().unwrap();
    assert_eq!(merged.cells.len(), 4 * ALGOS.len());
    // Every cell the workers computed landed in the shared cache.
    assert_eq!(
        spp_engine::cache::dir_stats(&cache_dir).unwrap().entries,
        merged.cells.len()
    );

    server.shutdown();
    for d in [suite, cache_dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}
