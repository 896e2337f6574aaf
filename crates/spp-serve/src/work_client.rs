//! `RemoteLease` — the network implementation of the engine's
//! [`WorkSource`] trait, speaking the `spp dispatch` work protocol.
//!
//! An `spp work` process runs the engine's pull loop
//! ([`pull_work`](spp_engine::pull_work)) over a `RemoteLease`: lease a
//! chunk of instance files, execute its cells with the same
//! [`execute_lease`](spp_engine::execute_lease) an in-process
//! `run_sharded` shard runs (through whatever [`SolveCache`] the worker
//! attached), report the portable rows back. The dispatcher cannot tell
//! one puller from another — which is the point of the seam.
//!
//! Trust and failure model — every dispatcher call goes through one
//! [`http::Client`], which carries the fleet's bearer token:
//!
//! * calls ride this thread's **pooled keep-alive connection** — a
//!   worker's whole lease/execute/complete loop is one TCP
//!   conversation, and a pooled socket the dispatcher closed between
//!   calls (idle timeout, request budget) is replaced transparently;
//! * every call gets **one bounded retry** before its error stands — a
//!   dispatcher mid-GC or briefly saturated does not kill a worker;
//! * a persistent transport failure is a loud [`WorkError`] — a worker
//!   that cannot reach its dispatcher must say so and exit nonzero, not
//!   spin silently (the dispatcher requeues its outstanding lease at the
//!   deadline, so nothing is lost);
//! * completion is idempotent server-side — the queue remembers every
//!   granted lease id, so a retried completion whose first attempt was
//!   applied lands on the duplicate-ack path — which makes retrying
//!   `POST /work/complete` safe by construction;
//! * `POST /work/lease` is deliberately retried too, although a grant is
//!   not idempotent: if the first attempt's *response* is lost after the
//!   dispatcher granted a lease, that grant is simply orphaned and
//!   requeued at its deadline — exactly the killed-worker path the
//!   system already absorbs (and a cache hit on re-run). The cost of the
//!   rare orphan (one inflated `requeued` count) is much smaller than a
//!   worker dying on every transient blip of a busy dispatcher.
//!
//! [`SolveCache`]: spp_engine::SolveCache
//! [`WorkSource`]: spp_engine::WorkSource

use spp_engine::sharding::MergedReport;
use spp_engine::work::{complete_to_json, grant_parse, status_parse};
use spp_engine::{CellRow, LeaseGrant, WorkError, WorkSource, WorkStatus};

use crate::http;

/// A [`WorkSource`] served over HTTP by an `spp dispatch` process.
pub struct RemoteLease {
    client: http::Client,
}

impl RemoteLease {
    /// A work client of `url` (`http://host:port`, the same rules as the
    /// cache client: no path, explicit port). `token` is sent with every
    /// dispatcher call — required when the dispatcher runs with
    /// `--token-file`.
    pub fn new(url: &str, token: Option<String>) -> Result<RemoteLease, WorkError> {
        let client = http::Client::new(url, token).map_err(|err| WorkError::Protocol {
            context: url.to_string(),
            err: format!("dispatcher {err}"),
        })?;
        Ok(RemoteLease { client })
    }

    fn call(&self, method: &str, path: &str, body: &str) -> Result<http::Response, WorkError> {
        self.client
            .call(method, path, body)
            .map_err(|e| WorkError::Protocol {
                context: format!("{} {path}", self.client.url()),
                err: e.to_string(),
            })
    }

    fn expect_200(&self, path: &str, response: http::Response) -> Result<String, WorkError> {
        if response.status != 200 {
            return Err(WorkError::Protocol {
                context: format!("{} {path}", self.client.url()),
                err: format!("HTTP {}: {}", response.status, response.body.trim()),
            });
        }
        Ok(response.body)
    }

    /// The merged report, once the dispatcher reports every chunk
    /// complete (`Err` with the dispatcher's 409 message before that) —
    /// what the thin `spp batch --dispatcher-url` client renders.
    pub fn fetch_report(&self) -> Result<MergedReport, WorkError> {
        let body = self.call("GET", "/work/report", "")?;
        let body = self.expect_200("/work/report", body)?;
        MergedReport::parse(&body).map_err(|e| WorkError::Protocol {
            context: format!("{} /work/report", self.client.url()),
            err: e.to_string(),
        })
    }
}

impl WorkSource for RemoteLease {
    fn lease(&self) -> Result<LeaseGrant, WorkError> {
        let response = self.call("POST", "/work/lease", "")?;
        let body = self.expect_200("/work/lease", response)?;
        grant_parse(&body)
    }

    fn complete(&self, lease_id: u64, start: usize, cells: &[CellRow]) -> Result<(), WorkError> {
        let body = complete_to_json(lease_id, start, cells);
        let response = self.call("POST", "/work/complete", &body)?;
        self.expect_200("/work/complete", response).map(|_| ())
    }

    fn progress(&self) -> Result<WorkStatus, WorkError> {
        let response = self.call("GET", "/work/status", "")?;
        let body = self.expect_200("/work/status", response)?;
        status_parse(&body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parsing_matches_the_cache_client_rules() {
        assert!(RemoteLease::new("http://127.0.0.1:8080", None).is_ok());
        assert!(RemoteLease::new("http://localhost:9000/", None).is_ok());
        for bad in [
            "127.0.0.1:8080",
            "https://127.0.0.1:8080",
            "http://127.0.0.1",
            "http://127.0.0.1:x",
            "http://127.0.0.1:80/work",
            "http://",
        ] {
            assert!(RemoteLease::new(bad, None).is_err(), "{bad} accepted");
        }
        let Err(err) = RemoteLease::new("http://127.0.0.1", None) else {
            panic!("a URL without a port was accepted");
        };
        assert_eq!(
            err.to_string(),
            "http://127.0.0.1: dispatcher URL must name a port (http://host:port)"
        );
    }

    #[test]
    fn unreachable_dispatcher_is_a_loud_error() {
        let remote = RemoteLease::new("http://127.0.0.1:1", None).unwrap();
        let err = remote.lease().unwrap_err();
        assert!(matches!(err, WorkError::Protocol { .. }), "{err:?}");
        assert!(remote.progress().is_err());
        assert!(remote.complete(1, 0, &[]).is_err());
        assert!(remote.fetch_report().is_err());
    }
}
