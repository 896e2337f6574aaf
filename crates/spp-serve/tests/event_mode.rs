//! Integration tests of the default server's epoll event loop (Linux
//! only): pipelined bytes buffered before a park survive the resume, a
//! heavy pipeliner cannot starve other clients past the per-turn cap,
//! idle connections cost zero workers, the slowloris guard closes
//! trickling clients with a 408, and `/stats` exposes the event-loop
//! counters.
#![cfg(target_os = "linux")]

use spp_serve::http::{read_response, RecvBuf, Response};
use spp_serve::{ServeConfig, Server, ServerHandle};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spp_event_test_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_event(tag: &str, tune: impl FnOnce(&mut ServeConfig)) -> ServerHandle {
    let dir = tmp(tag);
    let mut config = ServeConfig::new(&dir);
    config.workers = 4;
    tune(&mut config);
    Server::bind(&config).unwrap().spawn()
}

fn connect(authority: &str) -> TcpStream {
    let stream = TcpStream::connect(authority).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn send_stats_requests(stream: &mut TcpStream, n: usize) {
    let one = "GET /stats HTTP/1.1\r\nhost: bench\r\n\r\n";
    let burst = one.repeat(n);
    stream.write_all(burst.as_bytes()).unwrap();
    stream.flush().unwrap();
}

/// Three requests written in one TCP segment against a server whose
/// per-turn cap is 1: the connection parks after every response with
/// the rest of the burst still in its userspace `RecvBuf`, so each
/// resume must pick up exactly where the buffer left off.
#[test]
fn pipelined_bytes_buffered_before_park_survive_resume() {
    let server = start_event("pipeline_park", |c| {
        c.turn_requests = 1;
        c.keepalive_requests = 64;
    });
    let mut stream = connect(&server.authority());
    send_stats_requests(&mut stream, 3);
    let mut buf = RecvBuf::new();
    for i in 0..3 {
        let r = read_response(&stream, &mut buf).unwrap();
        assert_eq!(r.status, 200, "pipelined response {i}");
        assert!(r.body.contains("\"io_mode\": \"event\""), "{}", r.body);
    }
    drop(stream);
    server.shutdown();
}

/// With one worker and a per-turn cap of 2, a client that pipelines
/// ten requests must not monopolize the worker: a second client's
/// single request is answered while the pipeliner is still being
/// drained in capped turns.
#[test]
fn heavy_pipeliner_cannot_starve_a_second_client() {
    let server = start_event("fairness", |c| {
        c.workers = 1;
        c.turn_requests = 2;
        c.keepalive_requests = 64;
    });
    let authority = server.authority();

    let mut heavy = connect(&authority);
    send_stats_requests(&mut heavy, 10);

    let mut light = connect(&authority);
    light
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    send_stats_requests(&mut light, 1);
    let started = Instant::now();
    let mut light_buf = RecvBuf::new();
    let r = read_response(&light, &mut light_buf).unwrap();
    assert_eq!(r.status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "second client starved for {:?}",
        started.elapsed()
    );

    // The pipeliner still gets everything it asked for.
    let mut heavy_buf = RecvBuf::new();
    for i in 0..10 {
        let r = read_response(&heavy, &mut heavy_buf).unwrap();
        assert_eq!(r.status, 200, "pipelined response {i}");
    }
    drop(heavy);
    drop(light);
    server.shutdown();
}

/// The tentpole property in miniature: connections that never send a
/// byte park on the event loop, so a single-worker server stays fully
/// responsive behind a crowd of idle clients.
#[test]
fn idle_connections_cost_zero_workers() {
    let server = start_event("idle_free", |c| {
        c.workers = 1;
        c.idle_timeout = Duration::from_secs(30);
    });
    let authority = server.authority();

    let idle: Vec<TcpStream> = (0..20).map(|_| connect(&authority)).collect();
    // Let the loop accept and park the whole fleet.
    std::thread::sleep(Duration::from_millis(100));

    let mut live = connect(&authority);
    send_stats_requests(&mut live, 1);
    let mut buf = RecvBuf::new();
    let r = read_response(&live, &mut buf).unwrap();
    assert_eq!(r.status, 200);
    let parked = stat_u64(&r.body, "parked_connections");
    assert!(parked >= 20, "expected the idle fleet parked, got {parked}");

    drop(idle);
    drop(live);
    server.shutdown();
}

/// Slowloris guard: a client trickling an incomplete request header is
/// closed with `408 Request Timeout` once the whole-message deadline
/// expires — it cannot hold a worker hostage byte by byte.
#[test]
fn trickling_client_gets_408_in_event_mode() {
    let server = start_event("slowloris_event", |c| {
        c.header_timeout = Duration::from_millis(300);
    });
    let authority = server.authority();
    let mut trickler = connect(&authority);
    // A few bytes inside the deadline window, then silence: the clock
    // armed at the first byte keeps running (the http-layer unit test
    // proves trickling never resets it) and expires mid-header.
    for &b in b"GET " {
        trickler.write_all(&[b]).unwrap();
        trickler.flush().unwrap();
        std::thread::sleep(Duration::from_millis(40));
    }
    let mut buf = RecvBuf::new();
    let r = read_response(&trickler, &mut buf).unwrap();
    assert_eq!(r.status, 408, "{}", r.body);
    assert!(r.close, "a timed-out connection must be closed");

    // A well-behaved client on the same server is unaffected.
    let mut fine = connect(&authority);
    send_stats_requests(&mut fine, 1);
    let mut fine_buf = RecvBuf::new();
    assert_eq!(read_response(&fine, &mut fine_buf).unwrap().status, 200);
    server.shutdown();
}

/// `/stats` reports the event-loop counters, and they move: serving
/// keep-alive requests with a think-time gap forces park/resume cycles
/// that show up as wakeups, readiness batches, and parse retries.
#[test]
fn stats_exposes_live_event_counters() {
    let server = start_event("stats_counters", |c| {
        c.keepalive_requests = 64;
    });
    let mut stream = connect(&server.authority());
    let mut buf = RecvBuf::new();
    let mut last = Response {
        status: 0,
        body: String::new(),
        close: false,
    };
    for _ in 0..3 {
        send_stats_requests(&mut stream, 1);
        last = read_response(&stream, &mut buf).unwrap();
        assert_eq!(last.status, 200);
        // Idle gap: the connection parks and must be woken by epoll.
        std::thread::sleep(Duration::from_millis(30));
    }
    assert!(
        last.body.contains("\"io_mode\": \"event\""),
        "{}",
        last.body
    );
    assert!(stat_u64(&last.body, "wakeups") > 0, "{}", last.body);
    assert!(
        stat_u64(&last.body, "readiness_batches") > 0,
        "{}",
        last.body
    );
    assert!(stat_u64(&last.body, "eagain_retries") > 0, "{}", last.body);
    for gauge in ["parked_connections", "timer_expiries"] {
        // Present even when zero.
        let _ = stat_u64(&last.body, gauge);
    }
    drop(stream);
    server.shutdown();
}

/// Extract `"name": <n>` from the `/stats` JSON body.
fn stat_u64(body: &str, name: &str) -> u64 {
    let tag = format!("\"{name}\": ");
    let at = body
        .find(&tag)
        .unwrap_or_else(|| panic!("no {name:?} in {body}"));
    body[at + tag.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {name:?} in {body}"))
}
