//! `batch-anytime`: in-process `run_sharded` batches with anytime search
//! run to convergence, and no HTTP.
//!
//! A batch is the suite files written at set-up plus the checked-in
//! `micro_n512.json`, times the solvers `skyline`, `dc-nfdh` and
//! `combined-greedy`. Every batch starts on a fresh `DiskCache`, so every
//! cell is a miss. The improvement budget is far above any cell's
//! convergence time, so each stream stops on convergence and the result
//! is a pure function of (digest, seed, streams): the time measured is
//! search compute, and the makespans must repeat exactly.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use spp_core::hash::Fnv1a;
use spp_core::InstanceDigest;
use spp_engine::cache::entry_to_json;
use spp_engine::{
    run_sharded, CacheError, CacheKey, CacheStats, CachedCell, CellStatus, DiskCache, MergedReport,
    Registry, ShardPlan, SolveCache, SolveConfig, SolveRequest, Solver,
};
use spp_gen::fileio;

use crate::stats::{self, now_ns};
use crate::trace::{self, Tracer};
use crate::{repeated_setup, Checks, Report, RunConfig, Scratch};

/// Items per suite instance.
pub(crate) const BATCH_N: usize = 128;
/// Suite instances written at set-up (duplicates are dropped).
pub(crate) const BATCH_COUNT: usize = 48;
/// Shards of the plan: one, the `spp batch` default, so `run_sharded`
/// drains a single lease with one puller and a batch is one lease.
const SHARDS: usize = 1;
pub(crate) const SOLVERS: [&str; 3] = ["skyline", "dc-nfdh", "combined-greedy"];
const IMPROVE_STREAMS: u64 = 2;
/// Each cell runs its streams on its own thread: the batch executor
/// already runs one cell per core, and results do not depend on it.
const IMPROVE_WORKERS: u64 = 1;
const IMPROVE_SEED: u64 = 1;
/// Far above any cell's convergence time (micro_n512 converges in about
/// 60 ms per stream), so no stream ever stops on the deadline.
const BUDGET_MS: u64 = 600_000;
/// The checked-in instance every batch includes, relative to the checkout.
const MICRO: &str = "crates/spp-bench/data/micro_n512.json";

struct BatchFixture {
    plan: ShardPlan,
    solvers: Vec<Box<dyn Solver>>,
    config: SolveConfig,
    /// Job index (plan order) of each instance digest.
    job_of: HashMap<InstanceDigest, usize>,
    /// Budget-0 makespan of cell `job * SOLVERS.len() + solver`.
    seed_makespan: Vec<f64>,
    micro_job: usize,
}

fn read(path: &Path) -> Result<spp_dag::PrecInstance, String> {
    fileio::read_path(path).map_err(|e| e.to_string())
}

impl BatchFixture {
    /// Write the suite, build the plan, and solve every cell once with
    /// budget 0 for the seed makespans the batch results are checked
    /// against.
    fn setup(cfg: &RunConfig, scratch: &Scratch, rep: usize) -> Result<BatchFixture, String> {
        let dir = scratch.sub(&format!("suite-{rep}"));
        let written = spp_gen::suite::write_suite(&dir, cfg.seed, BATCH_N, BATCH_COUNT)
            .map_err(|e| e.to_string())?;
        let micro = cfg.root.join(MICRO);
        let mut seen = HashSet::new();
        let mut paths = Vec::new();
        for path in written.into_iter().chain([micro.clone()]) {
            // Deterministic families repeat; keep distinct content only.
            if seen.insert(fileio::digest(&read(&path)?)) {
                paths.push(path);
            } else {
                std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
        let plan = ShardPlan::new(paths, SHARDS).map_err(|e| e.to_string())?;
        let registry = Registry::builtin();
        let solvers = SOLVERS
            .iter()
            .map(|name| registry.get_or_err(name).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let config = SolveConfig {
            budget_ms: BUDGET_MS,
            improve_seed: IMPROVE_SEED,
            improve_streams: IMPROVE_STREAMS,
            improve_workers: IMPROVE_WORKERS,
            ..SolveConfig::default()
        };
        let one_shot = SolveConfig {
            budget_ms: 0,
            ..config.clone()
        };
        let mut job_of = HashMap::new();
        let mut seed_makespan = Vec::new();
        let mut micro_job = 0;
        for (job, path) in plan.paths().iter().enumerate() {
            let prec = read(path)?;
            job_of.insert(fileio::digest(&prec), job);
            if *path == micro {
                micro_job = job;
            }
            let req = SolveRequest::new(prec).with_config(one_shot.clone());
            for solver in &solvers {
                let report = spp_engine::solve(solver.as_ref(), &req).map_err(|e| e.to_string())?;
                seed_makespan.push(report.makespan);
            }
        }
        Ok(BatchFixture {
            plan,
            solvers,
            config,
            job_of,
            seed_makespan,
            micro_job,
        })
    }

    fn cells(&self) -> usize {
        self.plan.len() * SOLVERS.len()
    }
}

/// One cell as the cache seam saw it: the engine looks the cell up, then
/// solves, improves and validates, then writes it back — all on one
/// thread, so the lookup's timestamps wait in a thread-local for the write.
#[derive(Clone, Copy)]
struct CellSample {
    job: usize,
    solver: usize,
    get: (u64, u64),
    put: (u64, u64),
    entry_bytes: usize,
}

impl CellSample {
    fn latency(&self) -> u64 {
        self.put.1 - self.get.0
    }
}

thread_local! {
    static LOOKUP: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

/// A `DiskCache` that times each cell's lookup and write-back.
struct TimedCache<'a> {
    inner: DiskCache,
    fx: &'a BatchFixture,
    cells: Mutex<Vec<CellSample>>,
}

impl SolveCache for TimedCache<'_> {
    fn get(&self, key: &CacheKey) -> Option<CachedCell> {
        let start = now_ns();
        let found = self.inner.get(key);
        LOOKUP.with(|l| l.set(Some((start, now_ns()))));
        found
    }

    fn put(&self, key: &CacheKey, cell: &CachedCell) -> Result<(), CacheError> {
        self.inner.put(key, cell)
    }

    fn put_best(&self, key: &CacheKey, cell: &CachedCell) -> Result<(), CacheError> {
        let start = now_ns();
        let stored = self.inner.put_best(key, cell);
        let put = (start, now_ns());
        let job = self.fx.job_of.get(&key.digest).copied();
        let solver = SOLVERS.iter().position(|s| *s == key.solver);
        if let (Some(get), Some(job), Some(solver)) = (LOOKUP.with(Cell::take), job, solver) {
            self.cells
                .lock()
                .expect("cell samples poisoned")
                .push(CellSample {
                    job,
                    solver,
                    get,
                    put,
                    entry_bytes: entry_to_json(key, cell).len(),
                });
        }
        stored
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

struct BatchRun {
    wall: (u64, u64),
    cells: Vec<CellSample>,
    merged: MergedReport,
}

impl BatchRun {
    fn cells_per_s(&self) -> f64 {
        self.merged.cells.len() as f64 * 1e9 / (self.wall.1 - self.wall.0) as f64
    }
}

/// One batch on a fresh cache directory, removed afterwards.
fn run_batch(fx: &BatchFixture, scratch: &Scratch, idx: usize) -> Result<BatchRun, String> {
    let dir = scratch.sub(&format!("cache-{idx}"));
    let cache = TimedCache {
        inner: DiskCache::new(&dir, false).map_err(|e| e.to_string())?,
        fx,
        cells: Mutex::new(Vec::new()),
    };
    let start = now_ns();
    let merged = run_sharded(&fx.plan, &fx.solvers, &fx.config, Some(&cache), None)
        .map_err(|e| e.to_string())?;
    let wall = (start, now_ns());
    let _ = std::fs::remove_dir_all(&dir);
    Ok(BatchRun {
        wall,
        cells: cache.cells.into_inner().expect("cell samples poisoned"),
        merged,
    })
}

/// Check every cell (solved, no worse than its seed makespan) and that
/// the makespan fingerprint equals the first batch's. Returns the mean
/// makespan / lower bound.
fn check_batch(
    fx: &BatchFixture,
    run: &BatchRun,
    checks: &Checks,
    fingerprint: &mut Option<u64>,
) -> f64 {
    checks.expect(run.merged.cells.len() == fx.cells(), || {
        format!(
            "batch has {} cells, expected {}",
            run.merged.cells.len(),
            fx.cells()
        )
    });
    let mut h = Fnv1a::new();
    let mut ratios = Vec::with_capacity(run.merged.cells.len());
    for cell in &run.merged.cells {
        checks.attempt();
        let seed = SOLVERS
            .iter()
            .position(|s| *s == cell.solver)
            .and_then(|s| fx.seed_makespan.get(cell.job * SOLVERS.len() + s));
        checks.expect(
            cell.status == CellStatus::Solved && seed.is_some_and(|&seed| cell.makespan <= seed),
            || {
                format!(
                    "cell {} {} is {:?} at {} (seed {seed:?})",
                    cell.label, cell.solver, cell.status, cell.makespan
                )
            },
        );
        h.write(&cell.makespan.to_bits().to_le_bytes());
        ratios.push(cell.ratio());
    }
    let fp = h.finish();
    match fingerprint {
        None => *fingerprint = Some(fp),
        Some(first) => {
            checks.expect(*first == fp, || {
                format!("makespan fingerprint {fp:016x} differs from {first:016x}")
            });
        }
    }
    stats::mean(&ratios)
}

/// Batches back to back until `end` (at least one), each checked.
fn batches_until(
    fx: &BatchFixture,
    scratch: &Scratch,
    next: &mut usize,
    end: u64,
    checks: &Checks,
    fingerprint: &mut Option<u64>,
) -> Result<(Vec<BatchRun>, f64), String> {
    let mut runs = Vec::new();
    loop {
        let run = run_batch(fx, scratch, *next)?;
        *next += 1;
        let ratio = check_batch(fx, &run, checks, fingerprint);
        runs.push(run);
        if now_ns() >= end {
            return Ok((runs, ratio));
        }
    }
}

fn median_rate(runs: &[BatchRun]) -> f64 {
    let mut rates: Vec<f64> = runs.iter().map(BatchRun::cells_per_s).collect();
    stats::median(&mut rates)
}

pub(crate) fn run(cfg: &RunConfig) -> Result<Report, String> {
    let scratch = Scratch::new(&cfg.root, "batch-anytime")?;
    let checks = Checks::default();
    let (fx, setup_s) = repeated_setup(|rep| BatchFixture::setup(cfg, &scratch, rep))?;
    let mut fingerprint = None;
    let mut next = 0;
    let start = now_ns();
    let warmup = ((cfg.seconds * 0.2).min(1.0) * 1e9) as u64;
    batches_until(
        &fx,
        &scratch,
        &mut next,
        start + warmup,
        &checks,
        &mut fingerprint,
    )?;
    let measured = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (untraced, ratio) = batches_until(
        &fx,
        &scratch,
        &mut next,
        now_ns() + (measured * 1e9) as u64,
        &checks,
        &mut fingerprint,
    )?;
    let traced = if cfg.trace {
        let end = now_ns() + (measured * 1e9) as u64;
        Some(batches_until(&fx, &scratch, &mut next, end, &checks, &mut fingerprint)?.0)
    } else {
        None
    };
    let mut report = match traced {
        Some(traced) => report_layers(cfg, &fx, &untraced, &traced, checks)?,
        None => {
            let mut report = Report::new(checks);
            let cells: Vec<&CellSample> = untraced.iter().flat_map(|r| &r.cells).collect();
            let mut op: Vec<f64> = cells.iter().map(|c| c.latency() as f64 / 1e6).collect();
            let mut get: Vec<f64> = cells
                .iter()
                .map(|c| (c.get.1 - c.get.0) as f64 / 1e6)
                .collect();
            let mut solve: Vec<f64> = cells
                .iter()
                .map(|c| (c.put.1 - c.get.1) as f64 / 1e6)
                .collect();
            report.set("ops_per_s", median_rate(&untraced));
            report.set("p50_ms", stats::median(&mut op));
            report.set("p99_ms", stats::quantile(&mut op, 0.99));
            report.set("get_p50_ms", stats::median(&mut get));
            report.set("solve_p50_ms", stats::median(&mut solve));
            report.set("makespan_ratio", ratio);
            report.set("setup_s", setup_s);
            report.info("batches", untraced.len());
            report.info("samples", cells.len());
            report.info(
                "samples_beyond_p99",
                cells.len() - (cells.len() as f64 * 0.99).ceil() as usize,
            );
            report
        }
    };
    report.info("cells_per_batch", fx.cells());
    report.info("instance_files", fx.plan.len());
    report.info("instance_n", BATCH_N);
    report.info_str("extra_instance", MICRO);
    report.info("shards", SHARDS);
    report.info("improve_streams", IMPROVE_STREAMS);
    report.info("improve_workers", IMPROVE_WORKERS);
    report.info("improve_seed", IMPROVE_SEED);
    report.info_str("fingerprint", &format!("{:016x}", fingerprint.unwrap_or(0)));
    Ok(report)
}

/// Per-layer metrics from the traced batches, with the first traced
/// batch's cells replayed for the one-shot solve and improvement spans.
fn report_layers(
    cfg: &RunConfig,
    fx: &BatchFixture,
    untraced: &[BatchRun],
    traced: &[BatchRun],
    checks: Checks,
) -> Result<Report, String> {
    let tracer = Tracer::new();
    let sample = &traced[0];
    let group = 1;
    // One shard: the batch is a single lease.
    let batch_span = tracer.record("work.batch", group, 0, sample.wall, false);
    let mut cell_span = HashMap::new();
    for c in &sample.cells {
        let id = tracer.record("engine.cell", group, batch_span, (c.get.0, c.put.1), false);
        tracer.record("cache.get", group, id, c.get, false);
        tracer.record("cache.put", group, id, c.put, false);
        cell_span.insert((c.job, c.solver), id);
    }

    let mut per_solver: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut rounds, mut improvements, mut improve_ns) = (0u64, 0u64, 0u64);
    let (mut micro_rounds, mut micro_ns) = (0u64, 0u64);
    let one_shot = SolveConfig {
        budget_ms: 0,
        ..fx.config.clone()
    };
    for (job, path) in fx.plan.paths().iter().enumerate() {
        // `execute_lease` reads and digests every file before the first
        // cell; that time stays in the batch's self time (`work.self_us`).
        let prec = read(path)?;
        let digest = fileio::digest(&prec);
        let req = SolveRequest::new(prec).with_config(one_shot.clone());
        for (s, solver) in fx.solvers.iter().enumerate() {
            let parent = cell_span.get(&(job, s)).copied().unwrap_or(0);
            let (seed, solve_span, solve_ns) = tracer.replay("engine.solve", group, parent, || {
                spp_engine::solve(solver.as_ref(), &req)
            });
            let seed = seed.map_err(|e| e.to_string())?;
            per_solver
                .entry(SOLVERS[s])
                .or_default()
                .push(solve_ns as f64 / 1e3);
            tracer.replay("engine.lower_bounds", group, solve_span, || {
                spp_engine::solver::lower_bounds(&req.prec)
            });
            if let Some(d) = seed.phase("validate") {
                let at = now_ns();
                tracer.record(
                    "engine.validate",
                    group,
                    solve_span,
                    (at, at + d.as_nanos() as u64),
                    true,
                );
            }
            checks.expect(seed.validation.passed(), || {
                format!(
                    "replayed {} solve of {} failed validation",
                    SOLVERS[s],
                    path.display()
                )
            });
            // The engine's own improvement call, made directly: same seed
            // placement, seed derivation and portfolio width.
            let portfolio = spp_pack::PortfolioConfig {
                streams: fx.config.improve_streams as usize,
                workers: fx.config.improve_workers as usize,
                share_envelope: fx.config.improve_envelope,
                seed: digest.as_u64() ^ fx.config.improve_seed,
                budget: Some(Duration::from_millis(fx.config.budget_ms)),
                ..spp_pack::PortfolioConfig::default()
            };
            let (outcome, _, ns) = tracer.replay("improve.run", group, parent, || {
                spp_pack::improve_parallel(&req.prec, &seed.placement, &portfolio)
            });
            let served = sample
                .merged
                .cells
                .get(job * SOLVERS.len() + s)
                .map(|c| c.makespan);
            let replayed = outcome.placement.height(&req.prec.inst);
            checks.expect(
                outcome.converged && served.is_some_and(|m| m.to_bits() == replayed.to_bits()),
                || {
                    format!(
                        "replayed improvement of {} {} gives {replayed}, batch gave {served:?}",
                        path.display(),
                        SOLVERS[s]
                    )
                },
            );
            rounds += outcome.rounds;
            improvements += outcome.improvements;
            improve_ns += ns;
            if job == fx.micro_job {
                micro_rounds += outcome.rounds;
                micro_ns += ns;
            }
        }
    }

    let mut report = Report::new(checks);
    let spans = tracer.into_spans();
    let cells: Vec<&CellSample> = traced.iter().flat_map(|r| &r.cells).collect();
    let us = |v: Vec<u64>| -> Vec<f64> { stats::ns_to_us(&v) };
    for (metric, name) in [
        ("engine.solve_us", "engine.solve"),
        ("engine.lower_bounds_us", "engine.lower_bounds"),
        ("engine.validate_us", "engine.validate"),
        ("improve.us", "improve.run"),
    ] {
        trace::report_median_us(&mut report, metric, &spans, name);
    }
    report.set(
        "cache.get_us",
        stats::median(&mut us(cells.iter().map(|c| c.get.1 - c.get.0).collect())),
    );
    report.set(
        "cache.put_us",
        stats::median(&mut us(cells.iter().map(|c| c.put.1 - c.put.0).collect())),
    );
    let entry: Vec<f64> = cells.iter().map(|c| c.entry_bytes as f64).collect();
    report.set("cache.entry_bytes", stats::mean(&entry));
    for (solver, times) in &mut per_solver {
        report.set(&format!("engine.solve_us.{solver}"), stats::median(times));
    }
    report.set("improve.rounds", rounds as f64);
    report.set(
        "improve.rounds_per_s",
        rounds as f64 * 1e9 / improve_ns.max(1) as f64,
    );
    report.set(
        "improve.improvements_per_round",
        improvements as f64 / rounds.max(1) as f64,
    );
    report.set(
        "improve.micro_n512.rounds_per_s",
        micro_rounds as f64 * 1e9 / micro_ns.max(1) as f64,
    );
    report.set(
        "work.lease_us",
        stats::median(&mut us(traced
            .iter()
            .map(|r| r.wall.1 - r.wall.0)
            .collect())),
    );
    // Σ cell time / (wall × cell workers): the executor runs one cell per
    // core, so the rest is cores left idle, e.g. behind the last cell.
    let busy: u64 = cells.iter().map(|c| c.latency()).sum();
    let wall: u64 = traced.iter().map(|r| r.wall.1 - r.wall.0).sum();
    let workers = crate::host_cores().min(fx.cells());
    report.set(
        "work.busy_share",
        busy as f64 / (wall as f64 * workers as f64),
    );
    trace::report_self_times(
        &mut report,
        &spans,
        &HashSet::from([group]),
        sample.cells.len(),
    );
    report.set(
        "trace.overhead_share",
        1.0 - median_rate(traced) / median_rate(untraced),
    );
    report.info("spans", spans.len());
    report.info("traced_batches", traced.len());
    trace::write_run_spans(cfg, &spans);
    Ok(report)
}
