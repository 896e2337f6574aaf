//! # spp-serve — the HTTP front end of the solve engine
//!
//! Turns the single-machine batch driver into a multi-machine system
//! using the two seams the engine already has:
//!
//! * the **[`SolveCache`](spp_engine::SolveCache) trait** — [`HttpCache`]
//!   is a network-backed implementation, so any `spp batch --cache-url`
//!   worker on any machine shares one cache server's directory through
//!   the same get-before-solve / put-on-miss pipeline as a local
//!   `--cache-dir` run (byte-identical output, zero solver invocations
//!   when warm);
//! * the **cache-entry wire format** — the server's `GET`/`PUT
//!   /cache/<key>` speak the existing `spp-cache-entry` JSON documents
//!   unchanged, with the on-disk file-name schema as the URL key space.
//!
//! On top of those, `POST /solve` answers one-off solve requests
//! (an `spp-instance` body, solver + config as query params) straight
//! from the shared cache, invoking a solver only on miss.
//!
//! Since PR 5 the same server also carries the **dispatcher role**: the
//! engine's [`WorkSource`](spp_engine::WorkSource) seam goes over the
//! wire as `POST /work/lease` / `POST /work/complete` /
//! `GET /work/status` / `GET /work/report`, with [`RemoteLease`] as the
//! client side — a fleet of `spp work` pullers drains one queue, leases
//! expired by a killed worker are requeued, and the merged report is
//! byte-identical to a single-process `spp batch`.
//!
//! Everything is `std`-only (`TcpListener`/`TcpStream`), matching the
//! workspace's no-crates.io constraint: [`http`] is a minimal HTTP/1.1
//! message layer — persistent keep-alive connections with
//! `Content-Length` framing, one head reader and one writer for requests
//! and responses alike — [`server`] the service (per-connection request
//! budget, idle timeout, connection counters and latency quantiles in
//! `/stats`), [`client`] the `SolveCache` adapter, [`work_client`] the
//! `WorkSource` adapter, and [`bench`](mod@bench) the `spp bench serve`
//! load generator that measures the whole stack (RPS + latency
//! histograms, keep-alive vs close). Both adapters talk through one
//! [`http::Client`]: a base URL and the fleet's bearer token, whose calls
//! ride a per-thread pooled connection and get one bounded retry.
//! Connections are served by the [`event`] module's epoll multiplexer,
//! so the server runs on Linux only: idle keep-alive connections park in
//! epoll, not on a thread, and a fixed worker pool — bounded by
//! construction, no thread per connection — waits there for connections
//! with readable bytes.
//!
//! ## Deployment sketch
//!
//! ```text
//!   machine 0:  spp dispatch --input-dir suite/ --algos nfdh,dc-nfdh \
//!                            --cache-dir /var/spp-cache --addr 0.0.0.0:8080
//!   machine 1…N:  spp work --dispatcher-url http://host:8080 \
//!                          --cache-url http://host:8080
//!   anywhere:   spp batch --dispatcher-url http://host:8080   # byte-identical table
//! ```

//! ## Scaling the cache horizontally
//!
//! [`ShardedCache`] consistent-hashes every cache key across N such
//! servers (64 virtual ring points per node, replication factor R with
//! read-repair), so a fleet shares one logical cache bigger than any
//! single disk — same wire format, same byte-identical-output contract,
//! and node loss degrades to cache misses, never to errors. [`auth`]
//! adds the fleet's shared-secret bearer-token gate (`--token-file`):
//! mutating endpoints require `Authorization: Bearer <token>`,
//! compared in constant time.

pub mod auth;
pub mod bench;
pub mod client;
pub mod event;
pub mod http;
pub mod server;
pub mod sharded;
pub mod work_client;

pub use client::HttpCache;
pub use server::{
    EndpointCounters, IoMode, ServeConfig, ServeCounters, ServeError, Server, ServerHandle,
};
pub use sharded::ShardedCache;
pub use work_client::RemoteLease;
