//! The one cell-execution pipeline behind every batch mode.
//!
//! A **cell** is an `(instance, solver, config)` triple; everything the
//! engine runs at scale — `spp batch --families` over in-memory jobs,
//! [`execute_lease`](crate::work::execute_lease) over instance files (each
//! shard, local lease and dispatched chunk), warm resumes of either — is a
//! list of cells fed through [`execute_cells`]: look the cell up in the
//! [`SolveCache`] (if one is attached), invoke
//! the solver only on a miss, write the portable outcome back, and
//! return deterministically ordered results. There is no second
//! execution path: attaching a cache dir *is* resume, and a warm rerun
//! is bounded by I/O, not solver time.
//!
//! Cells run in parallel over `spp_par::par_map` with deterministic
//! result ordering (job-major, then solver input order).
//! [`cell_rows`](crate::work::cell_rows) reduces the outcomes to the
//! portable rows of a [`MergedReport`](crate::sharding::MergedReport),
//! whose [`summary`](crate::sharding::MergedReport::summary) is the one
//! per-solver aggregate.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;

use spp_core::InstanceDigest;

use crate::cache::{CacheError, CacheKey, CachedCell, SolveCache};
use crate::report::SolveReport;
use crate::request::SolveRequest;
use crate::solver::{solve, EngineError, Solver};

/// Outcome class of one cell — the portable classification shared by
/// batch results, shard reports, and cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// A report with passing (or skipped) validation.
    Solved,
    /// The engine refused the request (capability/model mismatch).
    Unsupported,
    /// The placement failed validation — a solver bug.
    Invalid,
}

impl CellStatus {
    /// Stable on-disk token (shard reports, cache entries).
    pub fn as_str(&self) -> &'static str {
        match self {
            CellStatus::Solved => "solved",
            CellStatus::Unsupported => "unsupported",
            CellStatus::Invalid => "invalid",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "solved" => Some(CellStatus::Solved),
            "unsupported" => Some(CellStatus::Unsupported),
            "invalid" => Some(CellStatus::Invalid),
            _ => None,
        }
    }
}

/// A job label or solver name, shared: clones point at one allocation,
/// so every cell of a job (or of a solver) carries the name without a
/// `String` of its own, in one pointer's width. It derefs, displays,
/// debugs and compares exactly like `str`.
#[derive(Clone, PartialEq, Eq)]
pub struct Name(Arc<String>);

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Arc::new(s.to_owned()))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::new(s))
    }
}

/// Comparisons with `&str` and `String`, in both directions.
macro_rules! name_eq {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Name {
            fn eq(&self, other: &$t) -> bool {
                **self == **other
            }
        }
        impl PartialEq<Name> for $t {
            fn eq(&self, other: &Name) -> bool {
                **self == **other
            }
        }
    )*};
}
name_eq!(&str, String);

/// One instance to be solved (by every solver passed to the executor).
pub struct BatchJob {
    /// Caller-chosen label (e.g. `"layered/seed=7"`), echoed in results.
    pub label: Name,
    pub request: SolveRequest,
}

impl BatchJob {
    pub fn new(label: impl Into<Name>, request: SolveRequest) -> Self {
        BatchJob {
            label: label.into(),
            request,
        }
    }
}

/// Outcome of one executed cell.
///
/// The portable fields (`status`, `makespan`, `combined_lb`) are always
/// present and deterministic — byte-stable across cold and warm runs.
/// Of a fresh solve's [`SolveReport`] only the counters callers read
/// outlive the cell: its placement, phases and bounds are dropped in the
/// worker as soon as the cell is classified and written back.
pub struct CellOutcome {
    /// Index into the jobs slice.
    pub job: usize,
    /// The job's label.
    pub label: Name,
    /// The solver's name.
    pub solver: Name,
    pub status: CellStatus,
    /// Height of the packing (0 for unsupported cells).
    pub makespan: f64,
    /// Combined lower bound of the request (0 for unsupported cells).
    pub combined_lb: f64,
    /// True iff the cell was served from the cache.
    pub from_cache: bool,
    /// Seed makespan recorded when the anytime loop strictly improved
    /// this cell (fresh solve or cached entry alike); `None` otherwise.
    pub improved_from: Option<f64>,
    /// Canonical digest of the job's instance — present iff a cache was
    /// attached (the cache-less path never computes content addresses).
    /// Lets consumers (e.g. the `spp serve` solve endpoint) reuse the
    /// digest instead of re-serializing the instance to recompute it.
    pub digest: Option<InstanceDigest>,
    /// Wall time the solver spent on this cell
    /// ([`SolveReport::total_time`]); zero for cache hits and refusals.
    pub solve_time: Duration,
    /// The fresh solve's [`SolveReport::improve_rounds`]; zero for cache
    /// hits and refusals, like the two counters below.
    pub improve_rounds: u64,
    /// [`SolveReport::improve_streams`].
    pub improve_streams: u64,
    /// [`SolveReport::improve_prunes`].
    pub improve_prunes: u64,
}

/// Classify a solve outcome into the portable cell fields
/// `(status, makespan, combined lower bound)`.
///
/// This is the **one** definition of the Solved / Invalid / Unsupported
/// rule: the executor uses it to produce cells and cache entries (which
/// the aggregates count), and `spp cache verify` uses it to re-classify
/// fresh solves — so the classification can never drift between what
/// the cache stores and what a verifier recomputes.
pub fn classify_outcome(outcome: &Result<SolveReport, EngineError>) -> (CellStatus, f64, f64) {
    match outcome {
        Ok(report) => {
            let status =
                if report.validation.passed() || report.validation == crate::Validation::Skipped {
                    CellStatus::Solved
                } else {
                    CellStatus::Invalid
                };
            (status, report.makespan, report.bounds.combined)
        }
        Err(_) => (CellStatus::Unsupported, 0.0, 0.0),
    }
}

/// Execute every `(job, solver)` cell, in parallel, consulting `cache`
/// before each solve and writing portable outcomes back on miss.
///
/// The result order is deterministic — job-major, then solver in input
/// order — regardless of scheduling, because `par_map` scatters results
/// back into input order.
///
/// Cache semantics:
/// * a hit yields the stored portable fields and **no solver call** —
///   `from_cache` is set, and `solve_time` and the improve counters are
///   zero;
/// * a miss solves, then stores the cell unless its placement failed
///   validation ([`CellStatus::Invalid`] marks a solver bug; caching it
///   would keep serving the bug after a fix);
/// * a failed cache *write* aborts the run (the caller asked for
///   durability it is not getting); a damaged cache *entry* is silently
///   a miss — recomputed and overwritten, never served.
pub fn execute_cells(
    jobs: &[BatchJob],
    solvers: &[Box<dyn Solver>],
    cache: Option<&dyn SolveCache>,
) -> Result<Vec<CellOutcome>, CacheError> {
    // Canonical digests, one per job (not per cell), computed only when a
    // cache is attached — the cache-less path never pays for canonical
    // serialization it would not use.
    let digests: Option<Vec<InstanceDigest>> =
        cache.map(|_| spp_par::par_map(jobs, |job| spp_gen::fileio::digest(&job.request.prec)));
    let names: Vec<Name> = solvers.iter().map(|s| Name::from(s.name())).collect();
    let cells: Vec<(usize, usize)> = (0..jobs.len())
        .flat_map(|j| (0..solvers.len()).map(move |s| (j, s)))
        .collect();
    let outcomes: Vec<Result<CellOutcome, CacheError>> = spp_par::par_map(&cells, |&(j, s)| {
        let job = &jobs[j];
        let solver = &solvers[s];
        let key = digests
            .as_ref()
            .map(|d| CacheKey::new(d[j], solver.name(), &job.request.config));
        if let (Some(cache), Some(key)) = (cache, &key) {
            if let Some(cell) = cache.get(key) {
                return Ok(CellOutcome {
                    job: j,
                    label: job.label.clone(),
                    solver: names[s].clone(),
                    status: cell.status,
                    makespan: cell.makespan,
                    combined_lb: cell.combined_lb,
                    from_cache: true,
                    improved_from: cell.improved_from,
                    digest: Some(key.digest),
                    solve_time: Duration::ZERO,
                    improve_rounds: 0,
                    improve_streams: 0,
                    improve_prunes: 0,
                });
            }
        }
        let outcome = solve(solver.as_ref(), &job.request);
        let (status, makespan, combined_lb) = classify_outcome(&outcome);
        let improved_from = match &outcome {
            Ok(report) if report.improved() => Some(report.seed_makespan),
            _ => None,
        };
        let (solve_time, improve_rounds, improve_streams, improve_prunes) = match &outcome {
            Ok(r) => (
                r.total_time(),
                r.improve_rounds,
                r.improve_streams,
                r.improve_prunes,
            ),
            Err(_) => (Duration::ZERO, 0, 0, 0),
        };
        if let (Some(cache), Some(key)) = (cache, &key) {
            if status != CellStatus::Invalid {
                // Best-so-far publish: a concurrent (or previous) writer
                // holding a better makespan for this key is never
                // clobbered by a worse fresh result; the reverse always
                // overwrites.
                cache.put_best(
                    key,
                    &CachedCell {
                        status,
                        makespan,
                        combined_lb,
                        improved_from,
                    },
                )?;
            }
        }
        Ok(CellOutcome {
            job: j,
            label: job.label.clone(),
            solver: names[s].clone(),
            status,
            makespan,
            combined_lb,
            from_cache: false,
            improved_from,
            digest: key.as_ref().map(|k| k.digest),
            solve_time,
            improve_rounds,
            improve_streams,
            improve_prunes,
        })
    });
    outcomes.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MemoryCache;
    use crate::registry::Registry;
    use crate::sharding::{MergedReport, SolverSummary};
    use crate::work::cell_rows;
    use spp_core::Instance;

    fn jobs(n: usize) -> Vec<BatchJob> {
        (0..n)
            .map(|i| {
                let w = 0.2 + 0.6 * (i as f64 / n as f64);
                let inst = Instance::from_dims(&[(w, 1.0), (0.5, 0.5), (0.3, 0.8)]).unwrap();
                BatchJob::new(format!("job{i}"), SolveRequest::unconstrained(inst))
            })
            .collect()
    }

    fn solvers(names: &[&str]) -> Vec<Box<dyn Solver>> {
        let registry = Registry::builtin();
        names.iter().map(|n| registry.get(n).unwrap()).collect()
    }

    /// The batch's per-solver aggregates, computed the way every `spp
    /// batch` mode computes them.
    fn summary(solvers: &[Box<dyn Solver>], outcomes: Vec<CellOutcome>) -> Vec<SolverSummary> {
        let (cells, _) = cell_rows(outcomes, 0);
        let solvers = solvers.iter().map(|s| s.name().to_string()).collect();
        MergedReport { solvers, cells }.summary()
    }

    #[test]
    fn deterministic_order_and_aggregates() {
        let solvers = solvers(&["nfdh", "ffdh", "skyline"]);
        let js = jobs(20);
        let results = execute_cells(&js, &solvers, None).unwrap();
        assert_eq!(results.len(), 60);
        // Job-major, solver order within each job.
        assert_eq!(results[0].solver, "nfdh");
        assert_eq!(results[1].solver, "ffdh");
        assert_eq!(results[2].solver, "skyline");
        assert_eq!(results[3].job, 1);
        // Two identical runs agree cell-for-cell.
        let again = execute_cells(&js, &solvers, None).unwrap();
        for (a, b) in results.iter().zip(&again) {
            assert!(!a.from_cache && !b.from_cache, "cache-less cells solve");
            assert_eq!(a.status, b.status);
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        }
        // Aggregates: every cell solved, sensible ratios.
        let summary = summary(&solvers, results);
        assert_eq!(summary.len(), 3);
        for s in &summary {
            assert_eq!(s.solved, 20, "{} solved {}", s.solver, s.solved);
            assert_eq!(s.unsupported, 0);
            assert_eq!(s.invalid, 0);
            assert!(s.mean_ratio >= 1.0 - 1e-9, "{}", s.solver);
            assert!(s.max_ratio >= s.mean_ratio - 1e-12);
            assert!(s.total_makespan > 0.0);
        }
    }

    #[test]
    fn unsupported_cells_are_counted_not_fatal() {
        let registry = Registry::builtin();
        // aptas refuses narrow items (width < 1/K with default K = 8 only
        // when w < 1/8; use 0.05 to trip it).
        let inst = Instance::from_dims(&[(0.05, 0.5), (0.5, 0.5)]).unwrap();
        let js = vec![BatchJob::new("narrow", SolveRequest::unconstrained(inst))];
        let solvers = vec![
            registry.get("aptas").unwrap(),
            registry.get("nfdh").unwrap(),
        ];
        let results = execute_cells(&js, &solvers, None).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].status, CellStatus::Unsupported);
        assert_eq!(results[0].solve_time, Duration::ZERO);
        assert_eq!(results[1].status, CellStatus::Solved);
        let summary = summary(&solvers, results);
        assert_eq!(summary[0].unsupported, 1);
        assert_eq!(summary[1].solved, 1);
    }

    #[test]
    fn warm_cache_run_is_identical_with_zero_solver_invocations() {
        let solvers = solvers(&["nfdh", "ffdh", "greedy"]);
        let js = jobs(8);
        let cache = MemoryCache::new();

        let cold = execute_cells(&js, &solvers, Some(&cache)).unwrap();
        assert!(cold.iter().all(|c| !c.from_cache));
        assert_eq!(cache.stats().writes, 24);

        let warm = execute_cells(&js, &solvers, Some(&cache)).unwrap();
        assert!(warm.iter().all(|c| c.from_cache), "every cell a hit");
        assert!(
            warm.iter().all(|c| c.solve_time == Duration::ZERO),
            "no solver was invoked on the warm run"
        );
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.job, b.job);
            assert_eq!(a.solver, b.solver);
            assert_eq!(a.status, b.status);
            // Bit-identical, not approximately equal.
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
            assert_eq!(a.combined_lb.to_bits(), b.combined_lb.to_bits());
        }
        assert_eq!(cache.stats().hits, 24);
    }

    #[test]
    fn unsupported_cells_are_cached_too() {
        let inst = Instance::from_dims(&[(0.05, 0.5), (0.5, 0.5)]).unwrap();
        let js = vec![BatchJob::new("narrow", SolveRequest::unconstrained(inst))];
        let solvers = solvers(&["aptas"]);
        let cache = MemoryCache::new();
        let cold = execute_cells(&js, &solvers, Some(&cache)).unwrap();
        assert_eq!(cold[0].status, CellStatus::Unsupported);
        let warm = execute_cells(&js, &solvers, Some(&cache)).unwrap();
        assert_eq!(warm[0].status, CellStatus::Unsupported);
        assert!(warm[0].from_cache, "refusals are deterministic: cacheable");
    }

    #[test]
    fn config_changes_miss_the_cache() {
        let solvers = solvers(&["nfdh"]);
        let js = jobs(3);
        let cache = MemoryCache::new();
        execute_cells(&js, &solvers, Some(&cache)).unwrap();

        // Same instances, different epsilon: every cell recomputes.
        let mut other: Vec<BatchJob> = jobs(3);
        for j in &mut other {
            j.request.config.epsilon = 0.25;
        }
        let outcomes = execute_cells(&other, &solvers, Some(&cache)).unwrap();
        assert!(outcomes.iter().all(|c| !c.from_cache));
        assert_eq!(cache.len(), 6);
    }

    #[test]
    fn equal_content_shares_cache_cells_across_jobs() {
        // Two jobs with identical instances (different labels) collapse
        // onto one content-addressed entry — the label is not part of the
        // key. (Both cells may still solve when scheduled concurrently,
        // so the assertion is on the entry count, not the hit count.)
        let inst = Instance::from_dims(&[(0.5, 1.0), (0.4, 0.7)]).unwrap();
        let js = vec![
            BatchJob::new("first", SolveRequest::unconstrained(inst.clone())),
            BatchJob::new("second", SolveRequest::unconstrained(inst)),
        ];
        let cache = MemoryCache::new();
        let outcomes = execute_cells(&js, &solvers(&["nfdh"]), Some(&cache)).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 2);
        assert_eq!(cache.len(), 1, "one content-addressed entry");
        assert_eq!(
            outcomes[0].makespan.to_bits(),
            outcomes[1].makespan.to_bits()
        );
    }
}
