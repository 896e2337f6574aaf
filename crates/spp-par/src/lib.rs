//! # spp-par — minimal parallelism over std scoped threads
//!
//! The workspace's allowed dependency set does not include `rayon`, so this
//! crate provides the primitives the rest of the workspace needs, built on
//! [`std::thread::scope`] (scoped threads, so borrowed data crosses the
//! spawn boundary safely):
//!
//! * [`par_map`] — map a function over a slice with a bounded number of
//!   worker threads (used by the experiment harness and the engine's batch
//!   executor to sweep instances);
//! * [`run_workers`] — a fixed-size pool of long-lived workers (used by
//!   the anytime portfolio search's streams);
//! * [`retry`] — bounded retry with a fixed inter-attempt delay, for
//!   transient faults at process seams (HTTP cache round trips, work
//!   dispatcher calls).
//!
//! A solve runs on the thread that calls it — only an anytime portfolio
//! search spreads its streams over [`run_workers`] — so the size of the
//! pool that calls solves bounds the solve threads. `par_map` never
//! spawns more workers than items and falls back to a sequential map for
//! tiny inputs; results are *identical* either way — callers must only
//! pass deterministic closures. `par_map` in particular returns results in
//! input order regardless of which worker computed what.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Parallel map over a slice: applies `f` to every element, preserving
/// order. Spawns at most `min(items, cores)` workers; falls back to a
/// sequential map for tiny inputs.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let workers = cores.min(items.len());
    if workers <= 1 || items.len() < 4 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    // Each worker claims indices from the shared counter and returns its
    // (index, result) pairs; the pairs are then scattered back into input
    // order, so the output is deterministic however work was distributed.
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut acc = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        acc.push((i, f(&items[i])));
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map: worker panicked"))
            .collect()
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for part in parts {
        for (i, r) in part {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("par_map: slot never filled"))
        .collect()
}

/// Call `f` up to `attempts` times, sleeping `delay` between attempts,
/// until it returns `Ok`. The bounded-retry primitive for transient
/// faults at process seams (a reset connection to the cache server, a
/// dispatcher mid-restart): one quick retry usually rides out the blip,
/// and the *bounded* budget keeps a hard failure loud instead of
/// becoming an unbounded hang. The final error is returned unchanged.
///
/// `attempts` is clamped to at least 1; `f` receives the 0-based attempt
/// index (callers can log or vary behavior on retries).
pub fn retry<T, E>(
    attempts: usize,
    delay: std::time::Duration,
    mut f: impl FnMut(usize) -> Result<T, E>,
) -> Result<T, E> {
    let attempts = attempts.max(1);
    let mut last = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(delay);
        }
        match f(attempt) {
            Ok(v) => return Ok(v),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("attempts >= 1 ran the closure at least once"))
}

/// Run `workers` long-lived worker threads, each calling `f(worker_index)`,
/// and block until all of them return. The fixed-size pool primitive for
/// long-lived loops (e.g. anytime search streams): concurrency is
/// bounded by construction, and a panicking worker propagates after the
/// others finish instead of being silently lost.
pub fn run_workers(workers: usize, f: impl Fn(usize) + Sync) {
    let workers = workers.max(1);
    if workers == 1 {
        f(0);
        return;
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let f = &f;
                scope.spawn(move || f(i))
            })
            .collect();
        for h in handles {
            h.join().expect("run_workers: worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let ys = par_map(&xs, |&x| x * x);
        for (i, y) in ys.iter().enumerate() {
            assert_eq!(*y, (i * i) as u64);
        }
    }

    #[test]
    fn par_map_tiny_input() {
        let xs = [1, 2, 3];
        assert_eq!(par_map(&xs, |&x| x + 1), vec![2, 3, 4]);
        let empty: [i32; 0] = [];
        assert!(par_map(&empty, |&x| x).is_empty());
    }

    #[test]
    fn par_map_matches_sequential_on_random_work() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let xs: Vec<f64> = (0..500).map(|_| rng.gen_range(0.0..1.0)).collect();
        let seq: Vec<f64> = xs.iter().map(|x| (x * 17.0).sin()).collect();
        let par = par_map(&xs, |x| (x * 17.0).sin());
        assert_eq!(seq, par);
    }

    #[test]
    fn retry_returns_first_success_and_last_error() {
        use std::time::Duration;
        // Immediate success: one call, no sleeping.
        let calls = AtomicUsize::new(0);
        let r: Result<u32, &str> = retry(3, Duration::ZERO, |_| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(7)
        });
        assert_eq!(r, Ok(7));
        assert_eq!(calls.load(Ordering::SeqCst), 1);

        // Succeeds on the second attempt.
        let r: Result<u32, String> = retry(3, Duration::ZERO, |attempt| {
            if attempt == 0 {
                Err("transient".to_string())
            } else {
                Ok(attempt as u32)
            }
        });
        assert_eq!(r, Ok(1));

        // Exhausted attempts return the last error, and the budget is
        // respected exactly.
        let calls = AtomicUsize::new(0);
        let r: Result<u32, usize> = retry(3, Duration::ZERO, |attempt| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(attempt)
        });
        assert_eq!(r, Err(2));
        assert_eq!(calls.load(Ordering::SeqCst), 3);

        // attempts = 0 clamps to one call, not a panic.
        let r: Result<u32, &str> = retry(0, Duration::ZERO, |_| Err("x"));
        assert_eq!(r, Err("x"));
    }

    #[test]
    fn run_workers_runs_every_index_and_bounds_the_pool() {
        let seen = std::sync::Mutex::new(Vec::new());
        run_workers(5, |i| {
            seen.lock().unwrap().push(i);
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        // workers = 0 clamps to one inline call, not a panic.
        let count = AtomicUsize::new(0);
        run_workers(0, |_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }
}
