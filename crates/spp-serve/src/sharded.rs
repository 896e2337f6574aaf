//! `ShardedCache` — one logical [`SolveCache`] spread across N
//! `spp serve --cache-dir` nodes by consistent hashing.
//!
//! The cache outgrew one disk (and one server's worker pool) before it
//! outgrew its wire format, so this backend adds **zero** new protocol:
//! every node is a stock cache server, and the fan-out lives entirely on
//! the client side of the [`SolveCache`] seam. Placement comes from
//! [`spp_core::hash::HashRing`]: each node's URL contributes 64 virtual
//! points, a key's FNV-1a hash (over its canonical file-name form — the
//! same string that names the entry on disk and in the URL space) walks
//! the ring, and the first R distinct nodes met are its replica set.
//! Adding a node therefore moves only ~1/N of the key space; the rest of
//! the fleet's warm entries stay exactly where they are.
//!
//! **Replication & read-repair.** `put` writes the entry to all R
//! replicas, each of which keeps the better of the entry and what it
//! holds (the server's best-so-far rule). `get` tries them in ring order and returns the first hit; a
//! hit found on a non-primary replica is re-put to the primary
//! (best-effort), so a key displaced by node churn — or recomputed while
//! its primary was down — migrates back to where future gets look first.
//!
//! **Node loss degrades, never errors.** An unreachable replica is
//! skipped on `get` (the next replica may hit; a full walk with no hit
//! is an ordinary miss — identical to [`HttpCache`]'s cold-cache
//! semantics) and tolerated on `put` as long as the entry landed on at
//! least one replica. Even *zero* reachable replicas only degrades the
//! put to a no-op (counted in [`ShardedCache::degraded_puts`]): a batch
//! run keeps producing byte-identical output on a dead fleet, it just
//! stops being warm. The one loud failure is a **live** replica
//! *refusing* a write (4xx/5xx — auth or config breakage): silence there
//! would hide a misconfiguration behind an eternally cold cache.

use std::sync::atomic::{AtomicU64, Ordering};

use spp_core::hash::{Fnv1a, HashRing};
use spp_engine::{CacheError, CacheKey, CacheStats, CachedCell, SolveCache};

use crate::client::{HttpCache, PutOutcome};

/// Default replication factor for `--cache-urls` fleets: each entry on
/// two nodes, so any single node loss leaves the whole key space warm.
pub const DEFAULT_REPLICATION: usize = 2;

/// A [`SolveCache`] consistent-hashed across N `spp serve` cache nodes.
pub struct ShardedCache {
    nodes: Vec<HttpCache>,
    ring: HashRing,
    /// Effective replication factor (clamped to `1..=nodes.len()`).
    replication: usize,
    readonly: bool,
    // Logical counters for the *sharded* view: one get is one hit or one
    // miss here no matter how many replicas were probed (the per-node
    // clients keep their own transport-level tallies).
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    rejected: AtomicU64,
    read_repairs: AtomicU64,
    degraded_puts: AtomicU64,
}

impl ShardedCache {
    /// Build the ring over `urls` (each `http://host:port`, each an
    /// `spp serve --cache-dir` node). `replication` is clamped to
    /// `1..=urls.len()`; `token` is attached to every request to every
    /// node (one shared secret per fleet).
    pub fn new(
        urls: &[String],
        replication: usize,
        readonly: bool,
        token: Option<String>,
    ) -> Result<ShardedCache, CacheError> {
        if urls.is_empty() {
            return Err(CacheError::Io {
                path: "--cache-urls".into(),
                err: "cache requires at least one URL".into(),
            });
        }
        let nodes = urls
            .iter()
            .map(|url| HttpCache::new(url, readonly, token.clone()))
            .collect::<Result<Vec<_>, CacheError>>()?;
        // Two ring positions backed by one server would silently halve
        // the real replication factor — refuse.
        for (i, a) in nodes.iter().enumerate() {
            for b in &nodes[i + 1..] {
                if a.url().trim_end_matches('/') == b.url().trim_end_matches('/') {
                    return Err(CacheError::Io {
                        path: a.url().to_string(),
                        err: "duplicate cache URL: each ring node must be a distinct server".into(),
                    });
                }
            }
        }
        let labels: Vec<&str> = urls.iter().map(String::as_str).collect();
        Ok(ShardedCache {
            ring: HashRing::new(&labels),
            replication: replication.clamp(1, nodes.len()),
            nodes,
            readonly,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            read_repairs: AtomicU64::new(0),
            degraded_puts: AtomicU64::new(0),
        })
    }

    /// Number of nodes on the ring.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Effective replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Hits served from a non-primary replica that were re-put to the
    /// primary.
    pub fn read_repairs(&self) -> u64 {
        self.read_repairs.load(Ordering::Relaxed)
    }

    /// Puts that reached no replica at all (every one unreachable) and
    /// were absorbed as no-ops instead of failing the run.
    pub fn degraded_puts(&self) -> u64 {
        self.degraded_puts.load(Ordering::Relaxed)
    }

    /// The key's replica set: indices into `self.nodes`, primary first.
    fn replicas(&self, key: &CacheKey) -> Vec<usize> {
        let hash = Fnv1a::hash(key.file_name().as_bytes());
        self.ring.successors(hash, self.replication)
    }
}

impl SolveCache for ShardedCache {
    fn get(&self, key: &CacheKey) -> Option<CachedCell> {
        let replicas = self.replicas(key);
        for (rank, &node) in replicas.iter().enumerate() {
            // An unreachable / cold / damaged replica is None here —
            // HttpCache already folds every failure mode into a miss —
            // so the walk simply continues to the next replica.
            if let Some(cell) = self.nodes[node].get(key) {
                if rank > 0 && !self.readonly {
                    // Read-repair: the primary was missing this entry
                    // (node churn, wiped disk, or it was down when the
                    // entry was computed). Re-put it so future gets hit
                    // on the first probe; best-effort — the repair
                    // failing must not turn a *hit* into anything else.
                    if matches!(
                        self.nodes[replicas[0]].put_classified(key, &cell),
                        PutOutcome::Written
                    ) {
                        self.read_repairs.fetch_add(1, Ordering::Relaxed);
                    }
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(cell);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    fn put(&self, key: &CacheKey, cell: &CachedCell) -> Result<(), CacheError> {
        if self.readonly {
            return Ok(());
        }
        let mut written = 0usize;
        let mut rejection: Option<CacheError> = None;
        for &node in &self.replicas(key) {
            match self.nodes[node].put_classified(key, cell) {
                PutOutcome::Written => written += 1,
                // Node loss: tolerated — the surviving replicas carry
                // the entry (or, with none left, the run degrades to a
                // cold cache, never to an error).
                PutOutcome::Unreachable(_) => {}
                PutOutcome::Rejected(e) => rejection = Some(e),
            }
        }
        if written == 0 {
            if let Some(e) = rejection {
                // Every replica failed and at least one was a *live*
                // server saying no: that is a misconfiguration (bad
                // token, readonly server, body mismatch), not node loss.
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
            self.degraded_puts.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
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

    fn urls(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("http://127.0.0.1:{}", 40000 + i))
            .collect()
    }

    #[test]
    fn construction_validates_urls_and_clamps_replication() {
        assert!(ShardedCache::new(&[], 2, false, None).is_err());
        assert!(ShardedCache::new(&["nonsense".into()], 2, false, None).is_err());
        let dup = vec![
            "http://127.0.0.1:40000".into(),
            "http://127.0.0.1:40000/".into(),
        ];
        assert!(ShardedCache::new(&dup, 2, false, None).is_err());

        let cache = ShardedCache::new(&urls(3), 0, false, None).unwrap();
        assert_eq!(cache.replication(), 1, "R=0 clamps up");
        let cache = ShardedCache::new(&urls(3), 9, false, None).unwrap();
        assert_eq!(cache.replication(), 3, "R>N clamps down");
        assert_eq!(cache.nodes(), 3);
    }

    #[test]
    fn replica_sets_are_stable_and_distinct() {
        let cache = ShardedCache::new(&urls(4), 2, false, None).unwrap();
        for i in 0..50 {
            let key = CacheKey {
                digest: spp_core::InstanceDigest::of_canonical_json(&format!("inst-{i}")),
                solver: "nfdh".into(),
                config_sig: "sig".into(),
            };
            let a = cache.replicas(&key);
            assert_eq!(a.len(), 2);
            assert_ne!(a[0], a[1]);
            assert_eq!(a, cache.replicas(&key), "placement must be deterministic");
        }
    }

    #[test]
    fn dead_fleet_degrades_to_cold_cache_not_errors() {
        // Ports in the reserved low range: connect fails fast, nothing
        // listens. get = miss, put = tolerated no-op.
        let dead = vec!["http://127.0.0.1:1".into(), "http://127.0.0.1:2".into()];
        let cache = ShardedCache::new(&dead, 2, false, None).unwrap();
        let key = CacheKey {
            digest: spp_core::InstanceDigest::of_canonical_json("dead"),
            solver: "nfdh".into(),
            config_sig: "sig".into(),
        };
        let cell = CachedCell {
            status: spp_engine::CellStatus::Solved,
            makespan: 1.0,
            combined_lb: 0.5,
            improved_from: None,
        };
        assert_eq!(cache.get(&key), None);
        assert!(cache.put(&key, &cell).is_ok(), "node loss must not error");
        assert_eq!(cache.degraded_puts(), 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().writes, 0);
    }
}
