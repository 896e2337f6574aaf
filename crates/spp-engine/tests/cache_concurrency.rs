//! Concurrency safety of the shared `DiskCache` directory — the property
//! the multi-machine topology (shard workers + one shared cache, possibly
//! through `spp serve`) stands on:
//!
//! **a reader of a live cache key never observes a partial entry** —
//! every `get` returns either `None` (key not yet published) or a fully
//! valid cell, and once a key has been published, concurrent same-key
//! writers can never make it transiently unreadable.
//!
//! Against the pre-fix `DiskCache::put` (a bare `std::fs::write` to the
//! live path, which truncates before writing), these tests fail: a reader
//! scheduled inside the truncate-write window sees an empty or
//! half-written file, entry validation rejects it, and a key that *was*
//! warm turns into a miss — i.e. a recompute storm exactly when many
//! workers share the cache. With the temp-file + `rename` fix, the live
//! name always points at a complete entry and every read hits.

use spp_engine::cache::{entry_parse, entry_to_json, write_entry_atomic, CacheKey, CachedCell};
use spp_engine::{CellStatus, DiskCache, SolveCache, SolveConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spp_cache_concurrency_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(tag: &str) -> CacheKey {
    CacheKey {
        digest: spp_core::InstanceDigest::of_canonical_json(tag),
        solver: "nfdh".into(),
        config_sig: SolveConfig::default().signature(),
    }
}

fn cell() -> CachedCell {
    CachedCell {
        status: CellStatus::Solved,
        makespan: 12.5,
        combined_lb: 6.25,
        improved_from: None,
    }
}

const WRITERS: usize = 4;
const READERS: usize = 4;
const ROUNDS: usize = 400;

/// N threads hammer `put` on one key while readers `get` it: once the key
/// is published, no reader may ever see a miss (which is what a torn
/// write degrades to) — only the fully valid cell.
#[test]
fn concurrent_same_key_writers_never_make_a_published_key_unreadable() {
    let dir = tmp("hammer");
    let writer = DiskCache::new(&dir, false).unwrap();
    let k = key("hammer");
    let c = cell();
    writer.put(&k, &c).unwrap(); // publish once before the storm

    let reader = DiskCache::new(&dir, false).unwrap();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            scope.spawn(|| {
                let mine = DiskCache::new(&dir, false).unwrap();
                for _ in 0..ROUNDS {
                    mine.put(&k, &c).unwrap();
                }
            });
        }
        for _ in 0..READERS {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    match reader.get(&k) {
                        Some(got) => assert_eq!(got, c, "reader saw a different cell"),
                        None => {
                            // Record the failure before the panic so the
                            // stats assertion below also trips.
                            panic!("published key turned unreadable mid-write");
                        }
                    }
                }
            });
        }
        // Let readers overlap the whole write storm, then stop them; the
        // scope joins the writers (who run to completion) either way.
        std::thread::sleep(std::time::Duration::from_millis(300));
        done.store(true, Ordering::Relaxed);
    });

    let stats = reader.stats();
    assert_eq!(stats.rejected, 0, "a reader observed a partial entry");
    assert_eq!(stats.misses, 0, "a published key turned into a miss");
    assert!(stats.hits > 0, "readers never actually read");

    // After the storm the live file is byte-exact and no temp debris
    // survived the renames.
    let text = std::fs::read_to_string(dir.join(k.file_name())).unwrap();
    assert_eq!(text, entry_to_json(&k, &c));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same property at the raw-file level, without `DiskCache::get`'s
/// forgiving miss semantics in the loop: every successful read of the
/// live path must parse as a complete entry. A truncate-then-write `put`
/// fails this within a handful of rounds.
#[test]
fn raw_reads_of_the_live_path_always_parse() {
    let dir = tmp("raw");
    let cache = DiskCache::new(&dir, false).unwrap();
    let k = key("raw");
    let c = cell();
    let path = dir.join(k.file_name());
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _ in 0..WRITERS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    cache.put(&k, &c).unwrap();
                }
            });
        }
        for _ in 0..READERS {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    // NotFound before first publication is fine; any text
                    // we do read must be a complete entry.
                    if let Ok(text) = std::fs::read_to_string(&path) {
                        let parsed = entry_parse(&text);
                        assert!(
                            parsed.is_ok(),
                            "raw read returned a partial entry ({} bytes): {:?}",
                            text.len(),
                            parsed.unwrap_err()
                        );
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        done.store(true, Ordering::Relaxed);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent *distinct*-key writers through the shared helper: all keys
/// land, each exactly once, no temp debris.
#[test]
fn concurrent_distinct_key_writers_all_publish() {
    let dir = tmp("distinct");
    std::fs::create_dir_all(&dir).unwrap();
    let keys: Vec<CacheKey> = (0..32).map(|i| key(&format!("k{i}"))).collect();
    std::thread::scope(|scope| {
        for k in &keys {
            let dir = &dir;
            scope.spawn(move || {
                let text = entry_to_json(k, &cell());
                write_entry_atomic(dir, &k.file_name(), &text).unwrap();
            });
        }
    });
    let scanned = spp_engine::cache::scan_dir(&dir).unwrap();
    assert_eq!(scanned.len(), 32);
    for s in scanned {
        let (k, c) = s.entry.expect("every concurrent write is a valid entry");
        assert!(keys.contains(&k));
        assert_eq!(c, cell());
    }
    let gc = spp_engine::cache::gc_dir(&dir, None).unwrap();
    assert_eq!((gc.kept, gc.removed.len()), (32, 0), "temp debris leaked");
    let _ = std::fs::remove_dir_all(&dir);
}
