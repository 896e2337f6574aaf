//! `HttpCache` — the network backend of the engine's [`SolveCache`]
//! trait, speaking the `spp serve` cache protocol.
//!
//! Attach it wherever a `DiskCache` goes (`spp batch --cache-url …`) and
//! every worker process on every machine shares one cache through the
//! same trait seam, with the same trust model:
//!
//! * `get` is infallible — a network failure, a 404, or an entry whose
//!   embedded key does not match the request is simply a **miss** (the
//!   pipeline recomputes; nothing wrong is ever served);
//! * `put` reports real failures — a user who pointed a run at a cache
//!   server should hear that it is unreachable rather than silently
//!   paying full solve cost on every "warm" rerun.
//!
//! The client re-validates every fetched entry against the *requested*
//! key (digest, solver, full config signature), so a confused or
//! malicious server — or a config-fingerprint collision — degrades to
//! recomputation, exactly like a damaged file in a `DiskCache` directory.
//!
//! Transient transport faults get **one bounded retry**
//! ([`http::roundtrip_retry_auth`]): a reset connection or timeout on `get`
//! or `put` sleeps briefly and tries once more before the usual
//! degradation applies (cold-cache miss on `get`, loud error on `put`),
//! so a momentarily busy server does not turn a warm run cold.
//!
//! Transport is **pooled keep-alive**: each calling thread reuses one
//! persistent connection per server ([`http::pooled_roundtrip`]), so a
//! warm batch run pays TCP setup once per thread, not once per cell. A
//! pooled socket the server closed in the meantime (idle timeout,
//! request budget) is replaced transparently — that race is expected,
//! not a fault, and does not consume the bounded retry.

use std::sync::atomic::{AtomicU64, Ordering};

use spp_engine::cache::{entry_parse, entry_to_json};
use spp_engine::{CacheError, CacheKey, CacheStats, CachedCell, SolveCache};

use crate::http;

/// A [`SolveCache`] served over HTTP by `spp serve`.
pub struct HttpCache {
    /// `host:port` of the server.
    authority: String,
    /// Base URL as given (for error messages).
    url: String,
    readonly: bool,
    /// Bearer token attached to every request (`Authorization: Bearer …`)
    /// when the server requires one.
    token: Option<String>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    rejected: AtomicU64,
}

impl HttpCache {
    /// Parse a base URL of the form `http://host:port` (a trailing slash
    /// is tolerated; any path prefix, scheme other than `http`, or
    /// missing port is an error — explicit beats guessed for a cache
    /// that silently degrades to misses on any mismatch).
    pub fn new(url: &str, readonly: bool) -> Result<HttpCache, CacheError> {
        let authority = http::parse_base_url(url).map_err(|err| CacheError::Io {
            path: url.to_string(),
            err: format!("cache {err}"),
        })?;
        Ok(HttpCache {
            authority,
            url: url.to_string(),
            readonly,
            token: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        })
    }

    /// Attach a bearer token sent with every request — required when the
    /// server runs with `--token-file`.
    pub fn with_token(mut self, token: Option<String>) -> HttpCache {
        self.token = token;
        self
    }

    /// The base URL this client targets.
    pub fn url(&self) -> &str {
        &self.url
    }

    /// True iff `put` never writes.
    pub fn is_readonly(&self) -> bool {
        self.readonly
    }

    fn path_for(key: &CacheKey) -> String {
        let file_name = key.file_name();
        let stem = file_name.strip_suffix(".json").unwrap_or(&file_name);
        format!("/cache/{stem}")
    }

    /// `put` with the failure mode kept apart: the fan-out backend
    /// ([`ShardedCache`](crate::ShardedCache)) tolerates an *unreachable*
    /// replica (node loss degrades to misses) but must surface a live
    /// server *refusing* a write (4xx/5xx — a config or auth problem
    /// that silence would hide).
    pub fn put_classified(&self, key: &CacheKey, cell: &CachedCell) -> PutOutcome {
        if self.readonly {
            return PutOutcome::Written;
        }
        let body = entry_to_json(key, cell);
        let response = match http::roundtrip_retry_auth(
            &self.authority,
            "PUT",
            &Self::path_for(key),
            &body,
            self.token.as_deref(),
        ) {
            Ok(r) => r,
            Err(e) => {
                return PutOutcome::Unreachable(CacheError::Io {
                    path: self.url.clone(),
                    err: e.to_string(),
                })
            }
        };
        match response.status {
            204 | 200 => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                PutOutcome::Written
            }
            status => PutOutcome::Rejected(CacheError::Io {
                path: self.url.clone(),
                err: format!("PUT rejected with HTTP {status}: {}", response.body.trim()),
            }),
        }
    }
}

/// Outcome of [`HttpCache::put_classified`].
pub enum PutOutcome {
    /// The entry was accepted (or the client is read-only: contractual
    /// no-op).
    Written,
    /// A live server refused the write (non-2xx response).
    Rejected(CacheError),
    /// The server could not be reached (connect/timeout/transport), even
    /// after the bounded retry.
    Unreachable(CacheError),
}

impl SolveCache for HttpCache {
    fn get(&self, key: &CacheKey) -> Option<CachedCell> {
        let miss = |rejected: bool| {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if rejected {
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
            None
        };
        let response = match http::roundtrip_retry_auth(
            &self.authority,
            "GET",
            &Self::path_for(key),
            "",
            self.token.as_deref(),
        ) {
            Ok(r) => r,
            Err(_) => return miss(false), // unreachable server = cold cache
        };
        if response.status != 200 {
            return miss(false);
        }
        match entry_parse(&response.body) {
            // Same rule as DiskCache: serve only when the *embedded* key
            // matches the request, so server confusion and fingerprint
            // collisions degrade to recomputation.
            Ok((entry_key, cell)) if entry_key == *key => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(cell)
            }
            _ => miss(true),
        }
    }

    fn put(&self, key: &CacheKey, cell: &CachedCell) -> Result<(), CacheError> {
        match self.put_classified(key, cell) {
            PutOutcome::Written => Ok(()),
            PutOutcome::Rejected(e) | PutOutcome::Unreachable(e) => Err(e),
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing_accepts_host_port_only() {
        assert!(HttpCache::new("http://127.0.0.1:8080", false).is_ok());
        assert!(HttpCache::new("http://localhost:8080/", false).is_ok());
        for bad in [
            "127.0.0.1:8080",            // no scheme
            "https://127.0.0.1:8080",    // wrong scheme
            "http://127.0.0.1",          // no port
            "http://127.0.0.1:x",        // bad port
            "http://127.0.0.1:80/cache", // path prefix
            "http://",                   // empty authority
        ] {
            assert!(HttpCache::new(bad, false).is_err(), "{bad} accepted");
        }
    }

    /// A stub cache server whose first `fail_first` connections are
    /// accepted and immediately closed (the transient-fault shape: a
    /// reset/overloaded peer), after which it serves `conns` requests
    /// properly: `entry_body` for GETs, 204 for PUTs.
    fn flaky_stub(entry_body: String, fail_first: usize, conns: usize) -> std::net::SocketAddr {
        use std::io::{BufRead as _, BufReader, Read as _};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for n in 0..conns {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                if n < fail_first {
                    drop(stream); // close before answering: transient fault
                    continue;
                }
                let mut reader = BufReader::new(&stream);
                let mut request_line = String::new();
                if reader.read_line(&mut request_line).is_err() {
                    continue;
                }
                let method = request_line.split(' ').next().unwrap_or("").to_string();
                let mut content_length = 0usize;
                loop {
                    let mut header = String::new();
                    if reader.read_line(&mut header).is_err() || header.trim().is_empty() {
                        break;
                    }
                    if let Some((name, value)) = header.trim().split_once(':') {
                        if name.eq_ignore_ascii_case("content-length") {
                            content_length = value.trim().parse().unwrap_or(0);
                        }
                    }
                }
                let mut body = vec![0u8; content_length];
                let _ = reader.read_exact(&mut body);
                let (status, reply) = if method == "GET" {
                    (200, entry_body.as_str())
                } else {
                    (204, "")
                };
                let _ = http::write_response(&stream, status, "application/json", reply);
            }
        });
        addr
    }

    #[test]
    fn transient_failures_are_retried_once_then_degrade() {
        let k = CacheKey {
            digest: spp_core::InstanceDigest::of_canonical_json("retry"),
            solver: "nfdh".into(),
            config_sig: spp_engine::SolveConfig::default().signature(),
        };
        let c = CachedCell {
            status: spp_engine::CellStatus::Solved,
            makespan: 2.5,
            combined_lb: 1.25,
            improved_from: None,
        };
        let body = entry_to_json(&k, &c);

        // First connection dies, the retry lands: the get is a HIT, not
        // a cold-cache miss.
        let addr = flaky_stub(body.clone(), 1, 2);
        let cache = HttpCache::new(&format!("http://{addr}"), false).unwrap();
        assert_eq!(cache.get(&k), Some(c));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 0);

        // Same for put: one flaky accept, then the write succeeds.
        let addr = flaky_stub(body.clone(), 1, 2);
        let cache = HttpCache::new(&format!("http://{addr}"), false).unwrap();
        assert!(cache.put(&k, &c).is_ok());
        assert_eq!(cache.stats().writes, 1);

        // Both attempts failing degrades as documented: get is a miss,
        // put is a loud error — the retry budget is bounded.
        let addr = flaky_stub(body, 2, 2);
        let cache = HttpCache::new(&format!("http://{addr}"), false).unwrap();
        assert_eq!(cache.get(&k), None);
        assert_eq!(cache.stats().misses, 1);
        let addr = flaky_stub(String::new(), 2, 2);
        let cache = HttpCache::new(&format!("http://{addr}"), false).unwrap();
        assert!(cache.put(&k, &c).is_err());
    }

    #[test]
    fn unreachable_server_is_a_cold_cache_not_an_error() {
        // Reserved TEST-NET address: connect fails fast.
        let cache = HttpCache::new("http://127.0.0.1:1", false).unwrap();
        let key = CacheKey {
            digest: spp_core::InstanceDigest::of_canonical_json("x"),
            solver: "nfdh".into(),
            config_sig: "sig".into(),
        };
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().rejected, 0);
        // put, by contrast, surfaces the failure.
        let cell = CachedCell {
            status: spp_engine::CellStatus::Solved,
            makespan: 1.0,
            combined_lb: 1.0,
            improved_from: None,
        };
        assert!(cache.put(&key, &cell).is_err());
        // …unless the client is read-only, where put is a contractual no-op.
        let ro = HttpCache::new("http://127.0.0.1:1", true).unwrap();
        assert!(ro.put(&key, &cell).is_ok());
        assert_eq!(ro.stats().writes, 0);
    }
}
