//! Pull-based work distribution: the [`WorkSource`] seam.
//!
//! Everything the engine runs at scale is a list of instance files whose
//! cells flow through [`execute_cells`]. The unit of work is a
//! [`WorkLease`] (a contiguous range of global job indices plus the
//! instance files backing them, the solver names to run, and the
//! [`SolveConfig`] knobs), and [`execute_lease`] is the one way a lease's
//! cells are computed:
//!
//! * in process, `run_sharded` and `run_shard` execute pre-assigned shard
//!   leases ([`ShardPlan::lease`](crate::sharding::ShardPlan::lease)) on
//!   the calling thread;
//! * across processes, a [`WorkSource`] hands out leases, accepts
//!   completed portable [`CellRow`]s back, and reports progress;
//!   [`pull_work`] is the loop every `spp work` puller runs against it:
//!   lease → execute → complete, until the source is drained;
//! * [`WorkQueue`] is the lease manager the `spp-serve` dispatcher holds
//!   behind `POST /work/lease` / `POST /work/complete` /
//!   `GET /work/status` (its `RemoteLease` client implements the trait
//!   over HTTP): fixed chunks handed out on demand, **expired leases
//!   requeued** (a killed worker loses nothing), completion
//!   **idempotent** (a chunk completes once; late or duplicate
//!   completions are acknowledged, never double-counted);
//! * one structural check of a chunk's cells (`check_chunk`) runs on
//!   every queue completion, so a broken worker cannot corrupt the merged
//!   report, and in [`merge_reports`](crate::sharding::merge_reports) on
//!   every static shard report.
//!
//! Pull-based leasing is the classic fix for shard imbalance across
//! machines: per-cell cost here spans microsecond shelf heuristics to the
//! APTAS LP, so any static `--shard-index` split leaves workers idle
//! while one grinds. With leases, a fast worker simply pulls more chunks.
//!
//! Determinism: chunks partition the global (sorted) job order and the
//! merged cells are concatenated in chunk order, so the merged report is
//! **byte-identical** to a single-process run over the same inputs — no
//! matter how many workers pulled, in what order they finished, or how
//! often a lease expired and was re-run (cells are deterministic, and a
//! re-run under a shared [`SolveCache`] is a cache hit).

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::batch::{execute_cells, BatchJob, CellOutcome, Name};
use crate::cache::{CacheError, SolveCache};
use crate::codec::{self, Doc, Family};
use crate::request::{SolveConfig, SolveRequest};
use crate::sharding::{label_for, CellRow, MergedReport, ShardRuntime};
use crate::solver::Solver;

/// Failures of batch execution, from planning through the work seam to
/// merging. Per-cell solver refusals are *not* errors (they are
/// `Unsupported` rows); these abort a worker, reject a completion, or
/// refuse a plan or merge.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkError {
    /// Filesystem failure.
    Io { path: String, err: String },
    /// An instance file failed to parse (message names field and line).
    Load { path: String, err: String },
    /// The plan parameters are unusable (zero shards, bad index, no
    /// input files).
    BadPlan(String),
    /// Two sides disagree: unknown lease, mismatched cells, malformed
    /// report or wire document, inconsistent shard reports, unreachable
    /// dispatcher.
    Protocol { context: String, err: String },
}

impl WorkError {
    pub(crate) fn protocol(context: &str, err: impl std::fmt::Display) -> Self {
        WorkError::Protocol {
            context: context.to_string(),
            err: err.to_string(),
        }
    }
}

impl std::fmt::Display for WorkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkError::Io { path, err } => write!(f, "{path}: {err}"),
            WorkError::Load { path, err } => write!(f, "{path}: {err}"),
            WorkError::BadPlan(msg) => write!(f, "bad shard plan: {msg}"),
            WorkError::Protocol { context, err } => write!(f, "{context}: {err}"),
        }
    }
}

impl std::error::Error for WorkError {}

impl From<CacheError> for WorkError {
    fn from(e: CacheError) -> Self {
        match e {
            CacheError::Io { path, err } => WorkError::Io { path, err },
        }
    }
}

/// One leased unit of work: chunk `index` of the source's partition,
/// covering global jobs `start..start + paths.len()`, to be run by the
/// named solvers under the given config.
///
/// The lease carries everything a worker needs: a freshly started
/// `spp work` puller knows nothing about the batch until its first lease
/// arrives.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkLease {
    /// Lease id — unique per grant, *not* per chunk: a requeued chunk is
    /// re-granted under a fresh id.
    pub id: u64,
    /// Chunk ordinal in the source's partition (shard index, for a
    /// shard-shaped partition).
    pub index: usize,
    /// First global job index of the chunk.
    pub start: usize,
    /// Instance files, in global order: `paths[i]` is job `start + i`.
    pub paths: Vec<PathBuf>,
    /// Registry names of the solvers to run on every job.
    pub solvers: Vec<String>,
    /// Solve knobs (cells computed under other knobs would not merge).
    pub config: SolveConfig,
}

impl WorkLease {
    /// Number of jobs in the lease.
    pub fn jobs(&self) -> usize {
        self.paths.len()
    }
}

/// What a [`WorkSource::lease`] call can answer.
#[derive(Debug, Clone, PartialEq)]
pub enum LeaseGrant {
    /// Here is work.
    Work(WorkLease),
    /// Nothing to hand out right now, but the batch is not finished —
    /// outstanding leases may yet expire and requeue. Poll again.
    Wait,
    /// Every chunk is completed; stop pulling.
    Done,
}

/// Progress snapshot of a work source (the `/work/status` document).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkStatus {
    /// Total jobs (instance files) in the batch.
    pub jobs: usize,
    /// Total chunks in the partition.
    pub chunks: usize,
    /// Chunks whose cells have been accepted.
    pub completed_chunks: usize,
    /// Chunks waiting to be leased.
    pub pending: usize,
    /// Chunks currently leased out.
    pub outstanding: usize,
    /// Leases granted so far (requeued chunks count once per grant).
    pub leases: u64,
    /// Chunks that were requeued after their lease expired.
    pub requeued: u64,
    /// Completions acknowledged but not stored (chunk already complete).
    pub duplicates: u64,
    /// True iff every chunk is completed.
    pub done: bool,
}

/// Where cells come from and where their results go — the seam between
/// the execution core and any distribution topology.
///
/// Implementations must be shareable across worker threads. A worker
/// that fails just stops: the dispatcher requeues its lease at the
/// deadline.
pub trait WorkSource: Sync {
    /// Ask for the next lease.
    fn lease(&self) -> Result<LeaseGrant, WorkError>;

    /// Report a completed lease with its portable cells (global job
    /// indices). Idempotent: completing an already-complete chunk is
    /// acknowledged, never double-counted.
    fn complete(&self, lease_id: u64, start: usize, cells: &[CellRow]) -> Result<(), WorkError>;

    /// Progress snapshot.
    fn progress(&self) -> Result<WorkStatus, WorkError>;
}

// ---------------------------------------------------------------------------
// The lease manager
// ---------------------------------------------------------------------------

struct Outstanding {
    chunk: usize,
    deadline: Option<Instant>,
}

/// The lease manager behind the `spp-serve` dispatcher: a fixed
/// partition of the (sorted) job list into chunks, handed out on demand,
/// requeued on expiry, completed idempotently.
///
/// Every method takes `now` explicitly so expiry is testable without
/// real clocks; callers pass `Instant::now()`.
pub struct WorkQueue {
    paths: Vec<PathBuf>,
    solvers: Vec<String>,
    config: SolveConfig,
    /// `None` = leases never expire.
    timeout: Option<Duration>,
    chunks: Vec<Range<usize>>,
    pending: VecDeque<usize>,
    outstanding: HashMap<u64, Outstanding>,
    /// Retired lease ids → chunk: every id that was granted and is no
    /// longer outstanding (expired *or* completed). A late completion
    /// from a presumed-dead worker is still valid work (cells are
    /// deterministic), so it is accepted if the chunk is still open; a
    /// *retried* completion whose first attempt was applied but whose
    /// response was lost finds its id here and gets the duplicate ack —
    /// which is what makes `complete` idempotent over a lossy transport.
    retired: HashMap<u64, usize>,
    cells: Vec<Option<Vec<CellRow>>>,
    next_lease: u64,
    leases: u64,
    requeued: u64,
    duplicates: u64,
}

/// Split `n` jobs into chunks of at most `chunk` jobs each.
pub fn chunk_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    (0..n.div_ceil(chunk))
        .map(|i| i * chunk..((i + 1) * chunk).min(n))
        .collect()
}

/// The one structural check of a chunk's cells: exactly `paths` ×
/// `solvers`, in (job-major, solver input) order, numbered from the
/// chunk's first global job `start`, each labelled with its file's stem.
/// [`WorkQueue::complete`] runs it on every completion and
/// [`merge_reports`](crate::sharding::merge_reports) on every shard
/// report, so a truncated, reordered or hand-edited chunk is rejected
/// rather than folded into the aggregates.
pub(crate) fn check_chunk(
    paths: &[PathBuf],
    start: usize,
    solvers: &[String],
    cells: &[CellRow],
) -> Result<(), String> {
    if cells.len() != paths.len() * solvers.len() {
        return Err(format!(
            "{} cells, expected {} jobs x {} solvers",
            cells.len(),
            paths.len(),
            solvers.len()
        ));
    }
    for (idx, c) in cells.iter().enumerate() {
        let job = idx / solvers.len();
        let want_job = start + job;
        let want_solver = &solvers[idx % solvers.len()];
        let want_label = label_for(&paths[job]);
        if c.job != want_job || &c.solver != want_solver || c.label != want_label {
            return Err(format!(
                "cell {idx} is (job {}, {}, {:?}), expected (job {want_job}, {want_solver}, {want_label:?})",
                c.job, c.solver, c.label
            ));
        }
    }
    Ok(())
}

impl WorkQueue {
    /// A queue over `paths` (global job order), partitioned into the
    /// given chunks (which must cover `0..paths.len()` contiguously —
    /// empty chunks are allowed, mirroring empty shards of an
    /// over-split plan).
    pub fn new(
        paths: Vec<PathBuf>,
        solvers: Vec<String>,
        config: SolveConfig,
        chunks: Vec<Range<usize>>,
        timeout: Option<Duration>,
    ) -> Self {
        debug_assert_eq!(
            chunks.iter().map(|r| r.len()).sum::<usize>(),
            paths.len(),
            "chunks must partition the job list"
        );
        let pending = (0..chunks.len()).collect();
        let cells = chunks.iter().map(|_| None).collect();
        WorkQueue {
            paths,
            solvers,
            config,
            timeout,
            chunks,
            pending,
            outstanding: HashMap::new(),
            retired: HashMap::new(),
            cells,
            next_lease: 1,
            leases: 0,
            requeued: 0,
            duplicates: 0,
        }
    }

    /// Lease timeout (what a grant should advertise as its deadline).
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// Move expired leases back to the pending queue.
    fn expire(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, o)| o.deadline.is_some_and(|d| d <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let o = self.outstanding.remove(&id).expect("id came from the map");
            self.retired.insert(id, o.chunk);
            if self.cells[o.chunk].is_none() {
                self.pending.push_back(o.chunk);
                self.requeued += 1;
            }
        }
    }

    /// Hand out the next chunk, requeuing expired leases first.
    pub fn lease(&mut self, now: Instant) -> LeaseGrant {
        self.expire(now);
        let Some(chunk) = self.pending.pop_front() else {
            return if self.done() {
                LeaseGrant::Done
            } else {
                LeaseGrant::Wait
            };
        };
        let id = self.next_lease;
        self.next_lease += 1;
        self.leases += 1;
        self.outstanding.insert(
            id,
            Outstanding {
                chunk,
                deadline: self.timeout.and_then(|t| now.checked_add(t)),
            },
        );
        let range = self.chunks[chunk].clone();
        LeaseGrant::Work(WorkLease {
            id,
            index: chunk,
            start: range.start,
            paths: self.paths[range].to_vec(),
            solvers: self.solvers.clone(),
            config: self.config.clone(),
        })
    }

    /// Accept a completed lease. The cells must pass `check_chunk`
    /// against the chunk's files, so a confused worker is rejected — its
    /// chunk stays open and requeues at the deadline.
    pub fn complete(
        &mut self,
        lease_id: u64,
        start: usize,
        cells: &[CellRow],
    ) -> Result<(), WorkError> {
        let bad = |err: String| WorkError::Protocol {
            context: format!("complete lease {lease_id}"),
            err,
        };
        let chunk = self
            .outstanding
            .get(&lease_id)
            .map(|o| o.chunk)
            .or_else(|| self.retired.get(&lease_id).copied())
            .ok_or_else(|| bad("unknown lease id".into()))?;
        let range = self.chunks[chunk].clone();
        if start != range.start {
            return Err(bad(format!(
                "lease covers jobs starting at {}, completion claims {start}",
                range.start
            )));
        }
        if self.cells[chunk].is_some() {
            // Already completed (by a requeued twin, or a transport-level
            // retry of the completion that stored the cells): acknowledge,
            // drop the duplicate, retire the lease.
            if self.outstanding.remove(&lease_id).is_some() {
                self.retired.insert(lease_id, chunk);
            }
            self.duplicates += 1;
            return Ok(());
        }
        let paths = &self.paths[range.clone()];
        check_chunk(paths, range.start, &self.solvers, cells).map_err(bad)?;
        self.cells[chunk] = Some(cells.to_vec());
        self.outstanding.remove(&lease_id);
        // Remember the id: if this completion's *response* is lost, the
        // worker's retry must land on the duplicate-ack path above, not
        // on "unknown lease".
        self.retired.insert(lease_id, chunk);
        Ok(())
    }

    /// True iff this queue ever granted `lease_id` (still outstanding,
    /// or retired by expiry or completion). A dispatcher uses it to tell
    /// a stale worker (unknown lease — e.g. one that outlived a
    /// dispatcher restart) from a malformed completion.
    pub fn knows_lease(&self, lease_id: u64) -> bool {
        self.outstanding.contains_key(&lease_id) || self.retired.contains_key(&lease_id)
    }

    /// True iff every chunk has accepted cells.
    pub fn done(&self) -> bool {
        self.cells.iter().all(Option::is_some)
    }

    /// Progress snapshot. Takes `now` because observation must see the
    /// same expiry the next lease call would apply: a dead worker's
    /// lease past its deadline reports as a *requeue*, not as healthy
    /// "outstanding" forever (nobody may be calling `lease` while an
    /// operator watches `/work/status`).
    pub fn status(&mut self, now: Instant) -> WorkStatus {
        self.expire(now);
        WorkStatus {
            jobs: self.paths.len(),
            chunks: self.chunks.len(),
            completed_chunks: self.cells.iter().filter(|c| c.is_some()).count(),
            pending: self.pending.len(),
            outstanding: self.outstanding.len(),
            leases: self.leases,
            requeued: self.requeued,
            duplicates: self.duplicates,
            done: self.done(),
        }
    }

    /// The merged report — `None` until [`Self::done`]. Chunks
    /// concatenate in partition order, which is global job order, so the
    /// result is byte-identical to a single-process run.
    pub fn merged(&self) -> Option<MergedReport> {
        if !self.done() {
            return None;
        }
        let cells = self
            .cells
            .iter()
            .flat_map(|c| c.as_ref().expect("done() checked every chunk").iter())
            .cloned()
            .collect();
        Some(MergedReport {
            solvers: self.solvers.clone(),
            cells,
        })
    }
}

// ---------------------------------------------------------------------------
// Lease execution and the pull loop
// ---------------------------------------------------------------------------

/// Load a lease's instance files and run every (instance, solver) cell
/// through the engine's one cache-consulting pipeline
/// ([`execute_cells`]), reducing to globally indexed portable rows plus
/// the runtime facts (CPU time, cache hits).
///
/// `solvers` must be the resolved instances of `lease.solvers` in the
/// same order (`run_sharded` passes its own handles; `spp work` resolves
/// the names through the registry).
pub fn execute_lease(
    lease: &WorkLease,
    solvers: &[Box<dyn Solver>],
    cache: Option<&dyn SolveCache>,
) -> Result<(Vec<CellRow>, ShardRuntime), WorkError> {
    let labels: Vec<Name> = lease.paths.iter().map(|p| label_for(p).into()).collect();
    execute_labeled(lease, &labels, solvers, cache)
}

/// [`execute_lease`] with the jobs' labels given, one per path: a
/// [`ShardPlan`](crate::sharding::ShardPlan) keeps them, so every run of
/// the plan shares one allocation per label.
pub(crate) fn execute_labeled(
    lease: &WorkLease,
    labels: &[Name],
    solvers: &[Box<dyn Solver>],
    cache: Option<&dyn SolveCache>,
) -> Result<(Vec<CellRow>, ShardRuntime), WorkError> {
    debug_assert_eq!(labels.len(), lease.paths.len(), "one label per path");
    let mut jobs = Vec::with_capacity(lease.paths.len());
    for (path, label) in lease.paths.iter().zip(labels) {
        let prec = spp_gen::fileio::read_path(path).map_err(|e| match e {
            spp_gen::fileio::FileIoError::Io { path, err } => WorkError::Io { path, err },
            other => WorkError::Load {
                path: path.display().to_string(),
                err: other.to_string(),
            },
        })?;
        jobs.push(BatchJob::new(
            label.clone(),
            SolveRequest::new(prec).with_config(lease.config.clone()),
        ));
    }
    let outcomes = execute_cells(&jobs, solvers, cache)?;
    Ok(cell_rows(outcomes, lease.start))
}

/// Reduce executed cells to portable rows, numbering jobs from the
/// global index `start`, plus the runtime facts (CPU time, cache hits).
pub fn cell_rows(outcomes: Vec<CellOutcome>, start: usize) -> (Vec<CellRow>, ShardRuntime) {
    let mut runtime = ShardRuntime {
        cpu_time: Duration::ZERO,
        cache_hits: 0,
    };
    let cells = outcomes
        .into_iter()
        .map(|c| {
            runtime.cpu_time += c.solve_time;
            if c.from_cache {
                runtime.cache_hits += 1;
            }
            CellRow {
                job: start + c.job,
                label: c.label,
                solver: c.solver,
                status: c.status,
                makespan: c.makespan,
                combined_lb: c.combined_lb,
            }
        })
        .collect();
    (cells, runtime)
}

/// What one worker's pull loop did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PullStats {
    /// Leases executed and completed.
    pub leases: u64,
    /// Cells reported back.
    pub cells: u64,
    /// `Wait` responses slept through.
    pub waits: u64,
}

/// How [`pull_work`] turns one lease into cells — usually a thin closure
/// over [`execute_lease`] that supplies resolved solvers and a cache.
pub type LeaseExecutor<'a> =
    dyn Fn(&WorkLease) -> Result<(Vec<CellRow>, ShardRuntime), WorkError> + Sync + 'a;

/// Called by `run_sharded`, on the thread that called it, after each
/// shard's lease is executed, with the lease, its cells and how they were
/// obtained — the streaming progress hook.
pub type LeaseObserver<'a> = dyn Fn(&WorkLease, &[CellRow], &ShardRuntime) + 'a;

/// The one worker loop: lease → execute → complete, until the source is
/// drained. `Wait` grants sleep `poll` and retry. An execute error is
/// returned and its chunk stays open: a dispatcher requeues it at the
/// lease deadline, so the next puller re-runs it.
///
/// Every `spp work` process runs exactly this loop over a `RemoteLease`;
/// the dispatcher cannot tell one puller from another.
pub fn pull_work(
    source: &dyn WorkSource,
    execute: &LeaseExecutor<'_>,
    poll: Duration,
) -> Result<PullStats, WorkError> {
    let mut stats = PullStats::default();
    loop {
        match source.lease()? {
            LeaseGrant::Done => return Ok(stats),
            LeaseGrant::Wait => {
                stats.waits += 1;
                std::thread::sleep(poll);
            }
            LeaseGrant::Work(lease) => {
                let (cells, _) = execute(&lease)?;
                source.complete(lease.id, lease.start, &cells)?;
                stats.leases += 1;
                stats.cells += cells.len() as u64;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Wire formats (`spp-work-*` documents)
// ---------------------------------------------------------------------------

const LEASE_FORMAT: &str = "spp-work-lease";
const COMPLETE_FORMAT: &str = "spp-work-complete";
const STATUS_FORMAT: &str = "spp-work-status";

/// Serialize a grant as an `spp-work-lease` document (the
/// `POST /work/lease` response body).
pub fn grant_to_json(grant: &LeaseGrant, deadline_secs: Option<u64>) -> String {
    use std::fmt::Write as _;
    let mut out = codec::begin(LEASE_FORMAT, Family::Wire);
    match grant {
        LeaseGrant::Wait => {
            let _ = writeln!(out, "  \"grant\": \"wait\"");
        }
        LeaseGrant::Done => {
            let _ = writeln!(out, "  \"grant\": \"done\"");
        }
        LeaseGrant::Work(lease) => {
            let _ = writeln!(out, "  \"grant\": \"work\",");
            let _ = writeln!(out, "  \"lease\": {},", lease.id);
            let _ = writeln!(out, "  \"index\": {},", lease.index);
            let _ = writeln!(out, "  \"start\": {},", lease.start);
            codec::write_strings(
                &mut out,
                "paths",
                lease.paths.iter().map(|p| p.display().to_string()),
            );
            codec::write_strings(&mut out, "solvers", &lease.solvers);
            let config = &lease.config;
            let _ = writeln!(out, "  \"epsilon\": {:.17e},", config.epsilon);
            let _ = writeln!(out, "  \"k\": {},", config.k);
            let _ = writeln!(out, "  \"shelf_r\": {:.17e},", config.shelf_r);
            let _ = writeln!(out, "  \"strict\": {},", config.strict);
            let _ = writeln!(out, "  \"validate\": {},", config.validate);
            let _ = writeln!(out, "  \"budget_ms\": {},", config.budget_ms);
            let _ = writeln!(out, "  \"improve_seed\": {},", config.improve_seed);
            let _ = writeln!(out, "  \"improve_streams\": {},", config.improve_streams);
            let _ = writeln!(out, "  \"improve_envelope\": {},", config.improve_envelope);
            let _ = writeln!(out, "  \"deadline_secs\": {}", deadline_secs.unwrap_or(0));
        }
    }
    out.push_str("}\n");
    out
}

/// Parse an `spp-work-lease` document.
pub fn grant_parse(text: &str) -> Result<LeaseGrant, WorkError> {
    let doc = Doc::open(text, "work lease", LEASE_FORMAT, Family::Wire)?;
    match doc.str("grant")? {
        "wait" => Ok(LeaseGrant::Wait),
        "done" => Ok(LeaseGrant::Done),
        "work" => {
            let config = SolveConfig {
                epsilon: doc.num("epsilon")?,
                k: doc.u64("k")? as usize,
                shelf_r: doc.num("shelf_r")?,
                strict: doc.bool("strict")?,
                validate: doc.bool("validate")?,
                // Absent on pre-anytime leases: one-shot solving.
                budget_ms: doc.u64_or("budget_ms", 0)?,
                improve_seed: doc.u64_or("improve_seed", 0)?,
                // Absent on pre-portfolio leases: one stream, no shared
                // envelope (the pre-portfolio behavior).
                improve_streams: doc.u64_or("improve_streams", 1)?,
                improve_envelope: doc.bool_or("improve_envelope", false)?,
                // Execution detail, never serialized: each worker picks
                // its own parallelism.
                improve_workers: 0,
            };
            Ok(LeaseGrant::Work(WorkLease {
                id: doc.u64("lease")?,
                index: doc.u64("index")? as usize,
                start: doc.u64("start")? as usize,
                paths: doc
                    .strings("paths")?
                    .into_iter()
                    .map(PathBuf::from)
                    .collect(),
                solvers: doc.strings("solvers")?,
                config,
            }))
        }
        other => Err(WorkError::protocol(
            "work lease",
            format!("unknown grant kind {other:?}"),
        )),
    }
}

/// Serialize a completion as an `spp-work-complete` document (the
/// `POST /work/complete` request body).
pub fn complete_to_json(lease_id: u64, start: usize, cells: &[CellRow]) -> String {
    use std::fmt::Write as _;
    let mut out = codec::begin(COMPLETE_FORMAT, Family::Wire);
    let _ = writeln!(out, "  \"lease\": {lease_id},");
    let _ = writeln!(out, "  \"start\": {start},");
    codec::end_with_cells(out, cells)
}

/// Parse an `spp-work-complete` document into `(lease id, start, cells)`.
pub fn complete_parse(text: &str) -> Result<(u64, usize, Vec<CellRow>), WorkError> {
    let doc = Doc::open(text, "work completion", COMPLETE_FORMAT, Family::Wire)?;
    let cells = doc.cells()?;
    Ok((doc.u64("lease")?, doc.u64("start")? as usize, cells))
}

/// Serialize a status snapshot as an `spp-work-status` document (the
/// `GET /work/status` response body).
pub fn status_to_json(status: &WorkStatus) -> String {
    use std::fmt::Write as _;
    let mut out = codec::begin(STATUS_FORMAT, Family::Wire);
    let _ = writeln!(out, "  \"jobs\": {},", status.jobs);
    let _ = writeln!(out, "  \"chunks\": {},", status.chunks);
    let _ = writeln!(out, "  \"completed_chunks\": {},", status.completed_chunks);
    let _ = writeln!(out, "  \"pending\": {},", status.pending);
    let _ = writeln!(out, "  \"outstanding\": {},", status.outstanding);
    let _ = writeln!(out, "  \"leases\": {},", status.leases);
    let _ = writeln!(out, "  \"requeued\": {},", status.requeued);
    let _ = writeln!(out, "  \"duplicates\": {},", status.duplicates);
    let _ = writeln!(out, "  \"done\": {}", status.done);
    out.push_str("}\n");
    out
}

/// Parse an `spp-work-status` document.
pub fn status_parse(text: &str) -> Result<WorkStatus, WorkError> {
    let doc = Doc::open(text, "work status", STATUS_FORMAT, Family::Wire)?;
    Ok(WorkStatus {
        jobs: doc.u64("jobs")? as usize,
        chunks: doc.u64("chunks")? as usize,
        completed_chunks: doc.u64("completed_chunks")? as usize,
        pending: doc.u64("pending")? as usize,
        outstanding: doc.u64("outstanding")? as usize,
        leases: doc.u64("leases")?,
        requeued: doc.u64("requeued")?,
        duplicates: doc.u64("duplicates")?,
        done: doc.bool("done")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::CellStatus;

    fn paths(n: usize) -> Vec<PathBuf> {
        (0..n)
            .map(|i| PathBuf::from(format!("i{i:02}.json")))
            .collect()
    }

    fn queue(n: usize, chunk: usize, timeout: Option<Duration>) -> WorkQueue {
        WorkQueue::new(
            paths(n),
            vec!["nfdh".into(), "ffdh".into()],
            SolveConfig::default(),
            chunk_ranges(n, chunk),
            timeout,
        )
    }

    fn rows_for(lease: &WorkLease) -> Vec<CellRow> {
        let mut cells = Vec::new();
        for (i, path) in lease.paths.iter().enumerate() {
            for solver in &lease.solvers {
                cells.push(CellRow {
                    job: lease.start + i,
                    label: label_for(path).into(),
                    solver: solver.as_str().into(),
                    status: CellStatus::Solved,
                    makespan: (lease.start + i) as f64 + 1.0,
                    combined_lb: 1.0,
                });
            }
        }
        cells
    }

    fn take(q: &mut WorkQueue, now: Instant) -> WorkLease {
        match q.lease(now) {
            LeaseGrant::Work(l) => l,
            other => panic!("expected work, got {other:?}"),
        }
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        assert_eq!(chunk_ranges(10, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(chunk_ranges(8, 4), vec![0..4, 4..8]);
        assert_eq!(chunk_ranges(3, 5), vec![0..3]);
        assert!(chunk_ranges(0, 4).is_empty());
        // chunk 0 clamps to 1 instead of dividing by zero.
        assert_eq!(chunk_ranges(2, 0), vec![0..1, 1..2]);
    }

    #[test]
    fn lease_complete_drain() {
        let mut q = queue(5, 2, None);
        let now = Instant::now();
        let mut leases = Vec::new();
        while let LeaseGrant::Work(l) = q.lease(now) {
            leases.push(l);
        }
        assert_eq!(leases.len(), 3);
        assert_eq!(leases[0].start, 0);
        assert_eq!(leases[2].paths.len(), 1);
        // Not done until completions arrive; the queue says Wait.
        assert_eq!(q.lease(now), LeaseGrant::Wait);
        for l in &leases {
            q.complete(l.id, l.start, &rows_for(l)).unwrap();
        }
        assert!(q.done());
        assert_eq!(q.lease(now), LeaseGrant::Done);
        let merged = q.merged().unwrap();
        assert_eq!(merged.cells.len(), 10);
        // Global order: job-major, solver input order.
        for (i, c) in merged.cells.iter().enumerate() {
            assert_eq!(c.job, i / 2);
            assert_eq!(c.solver, if i % 2 == 0 { "nfdh" } else { "ffdh" });
        }
        let s = q.status(now);
        assert_eq!((s.leases, s.requeued, s.duplicates), (3, 0, 0));
    }

    #[test]
    fn expired_lease_requeues_and_late_completion_is_accepted() {
        let mut q = queue(2, 2, Some(Duration::from_secs(10)));
        let t0 = Instant::now();
        let first = take(&mut q, t0);
        // Before the deadline nothing requeues.
        assert_eq!(q.lease(t0 + Duration::from_secs(5)), LeaseGrant::Wait);
        // After the deadline the chunk is re-granted under a fresh id.
        let second = take(&mut q, t0 + Duration::from_secs(11));
        assert_ne!(first.id, second.id);
        assert_eq!(first.start, second.start);
        assert_eq!(q.status(t0 + Duration::from_secs(11)).requeued, 1);

        // The presumed-dead worker completes late: accepted (its cells
        // are as good as anyone's), chunk closes.
        q.complete(first.id, first.start, &rows_for(&first))
            .unwrap();
        assert!(q.done());
        // The requeued twin then completes too: acknowledged duplicate,
        // nothing double-counted.
        q.complete(second.id, second.start, &rows_for(&second))
            .unwrap();
        assert_eq!(q.status(t0 + Duration::from_secs(11)).duplicates, 1);
        assert_eq!(q.merged().unwrap().cells.len(), 4);
    }

    #[test]
    fn status_applies_expiry_without_a_lease_call() {
        // All workers dead, nobody calling lease(): an observer polling
        // status must still see the requeue once the deadline passes —
        // not "outstanding" forever.
        let mut q = queue(2, 2, Some(Duration::from_secs(10)));
        let t0 = Instant::now();
        let _held = take(&mut q, t0);
        let before = q.status(t0 + Duration::from_secs(5));
        assert_eq!((before.outstanding, before.requeued), (1, 0));
        let after = q.status(t0 + Duration::from_secs(11));
        assert_eq!((after.outstanding, after.requeued), (0, 1));
        assert_eq!(after.pending, 1, "the chunk is back in the queue");
    }

    #[test]
    fn retried_completion_of_a_completed_lease_is_a_duplicate_ack() {
        // The response-lost-in-transit case: the completion was applied,
        // the worker never heard, and re-sends the SAME lease id. That
        // must be a duplicate ack, never "unknown lease" (which would
        // hard-fail a worker whose work succeeded).
        let mut q = queue(2, 2, None);
        let lease = take(&mut q, Instant::now());
        let rows = rows_for(&lease);
        q.complete(lease.id, lease.start, &rows).unwrap();
        assert!(q.knows_lease(lease.id), "completed ids stay known");
        q.complete(lease.id, lease.start, &rows).unwrap();
        assert_eq!(q.status(Instant::now()).duplicates, 1);
        assert_eq!(q.merged().unwrap().cells.len(), 4);
    }

    #[test]
    fn completion_validates_structure() {
        let mut q = queue(2, 2, None);
        let lease = take(&mut q, Instant::now());
        // Unknown lease id.
        let err = q.complete(99, 0, &rows_for(&lease)).unwrap_err();
        assert!(err.to_string().contains("unknown lease"), "{err}");
        // Wrong start.
        assert!(q.complete(lease.id, 1, &rows_for(&lease)).is_err());
        // Wrong cell count.
        assert!(q.complete(lease.id, 0, &rows_for(&lease)[1..]).is_err());
        // Wrong solver order.
        let mut swapped = rows_for(&lease);
        swapped.swap(0, 1);
        assert!(q.complete(lease.id, 0, &swapped).is_err());
        // Wrong label.
        let mut mislabeled = rows_for(&lease);
        mislabeled[0].label = "nope".into();
        assert!(q.complete(lease.id, 0, &mislabeled).is_err());
        // A rejected completion leaves the chunk open.
        assert!(!q.done());
        q.complete(lease.id, 0, &rows_for(&lease)).unwrap();
        assert!(q.done());
    }

    #[test]
    fn empty_chunks_complete_with_no_cells() {
        // Shard-shaped partition with empty shards (more shards than
        // files): empty chunks lease out and complete with zero cells.
        let mut q = WorkQueue::new(
            paths(1),
            vec!["nfdh".into()],
            SolveConfig::default(),
            vec![0..0, 0..1, 1..1],
            None,
        );
        let now = Instant::now();
        let mut leased = 0;
        while let LeaseGrant::Work(l) = q.lease(now) {
            leased += 1;
            q.complete(l.id, l.start, &rows_for(&l)).unwrap();
        }
        assert_eq!(leased, 3);
        assert_eq!(q.merged().unwrap().cells.len(), 1);
    }

    /// The dispatcher's shape without HTTP: one mutexed queue behind the
    /// trait, shared by every pull loop.
    struct SharedQueue(std::sync::Mutex<WorkQueue>);

    impl SharedQueue {
        fn lock(&self) -> std::sync::MutexGuard<'_, WorkQueue> {
            self.0.lock().unwrap()
        }
    }

    impl WorkSource for SharedQueue {
        fn lease(&self) -> Result<LeaseGrant, WorkError> {
            Ok(self.lock().lease(Instant::now()))
        }

        fn complete(
            &self,
            lease_id: u64,
            start: usize,
            cells: &[CellRow],
        ) -> Result<(), WorkError> {
            self.lock().complete(lease_id, start, cells)
        }

        fn progress(&self) -> Result<WorkStatus, WorkError> {
            Ok(self.lock().status(Instant::now()))
        }
    }

    fn runtime() -> ShardRuntime {
        ShardRuntime {
            cpu_time: Duration::ZERO,
            cache_hits: 0,
        }
    }

    #[test]
    fn three_pull_loops_drain_one_queue_in_global_order() {
        let source = SharedQueue(std::sync::Mutex::new(queue(9, 2, None)));
        let execute = |lease: &WorkLease| Ok((rows_for(lease), runtime()));
        let leases = std::sync::atomic::AtomicU64::new(0);
        spp_par::run_workers(3, |_| {
            let stats = pull_work(&source, &execute, Duration::from_millis(1)).unwrap();
            leases.fetch_add(stats.leases, std::sync::atomic::Ordering::SeqCst);
        });
        assert!(source.progress().unwrap().done);
        assert_eq!(leases.into_inner(), 5, "every chunk executed exactly once");
        let merged = source.lock().merged().unwrap();
        assert_eq!(merged.cells.len(), 18);
        for (i, c) in merged.cells.iter().enumerate() {
            assert_eq!(c.job, i / 2);
        }
    }

    #[test]
    fn pull_work_returns_the_execute_error_and_leaves_that_chunk_open() {
        let timeout = Duration::from_secs(10);
        let source = SharedQueue(std::sync::Mutex::new(queue(8, 1, Some(timeout))));
        let boom = WorkError::Load {
            path: "i03.json".into(),
            err: "boom".into(),
        };
        let execute = |lease: &WorkLease| {
            if lease.start == 3 {
                return Err(boom.clone());
            }
            Ok((rows_for(lease), runtime()))
        };
        let err = pull_work(&source, &execute, Duration::from_millis(1)).unwrap_err();
        assert_eq!(err, boom);
        // Chunks 0–2 completed; chunk 3 is still leased out, and the loop
        // stopped before pulling chunks 4–7.
        let now = Instant::now();
        let status = source.lock().status(now);
        assert_eq!(
            (status.completed_chunks, status.outstanding, status.pending),
            (3, 1, 4)
        );
        assert!(source.lock().merged().is_none());
        // At its deadline the failed chunk requeues for the next puller.
        let later = source.lock().status(now + timeout);
        assert_eq!(
            (later.outstanding, later.pending, later.requeued),
            (0, 5, 1)
        );
    }

    #[test]
    fn wire_formats_roundtrip() {
        let lease = WorkLease {
            id: 7,
            index: 2,
            start: 4,
            paths: paths(3),
            solvers: vec!["nfdh".into(), "aptas".into()],
            config: SolveConfig {
                epsilon: 0.25,
                ..SolveConfig::default()
            },
        };
        for grant in [
            LeaseGrant::Work(lease.clone()),
            LeaseGrant::Wait,
            LeaseGrant::Done,
        ] {
            let text = grant_to_json(&grant, Some(60));
            assert_eq!(grant_parse(&text).unwrap(), grant, "{text}");
        }
        // Config knobs survive the wire bit-for-bit (signature equality).
        let LeaseGrant::Work(back) =
            grant_parse(&grant_to_json(&LeaseGrant::Work(lease.clone()), None)).unwrap()
        else {
            panic!("expected work grant");
        };
        assert_eq!(back.config.signature(), lease.config.signature());

        let cells = rows_for(&lease);
        let text = complete_to_json(7, 4, &cells);
        let (id, start, back) = complete_parse(&text).unwrap();
        assert_eq!((id, start), (7, 4));
        assert_eq!(back, cells);
        // Empty completions (an empty chunk) roundtrip too.
        let (_, _, none) = complete_parse(&complete_to_json(1, 0, &[])).unwrap();
        assert!(none.is_empty());

        let status = WorkStatus {
            jobs: 9,
            chunks: 5,
            completed_chunks: 3,
            pending: 1,
            outstanding: 1,
            leases: 6,
            requeued: 2,
            duplicates: 1,
            done: false,
        };
        assert_eq!(status_parse(&status_to_json(&status)).unwrap(), status);

        // Pre-portfolio leases (no improve_streams/improve_envelope
        // fields) still parse, defaulting to the single-stream search.
        let text = grant_to_json(&LeaseGrant::Work(lease.clone()), None);
        let stripped: String = text
            .lines()
            .filter(|l| !l.contains("improve_streams") && !l.contains("improve_envelope"))
            .map(|l| format!("{l}\n"))
            .collect();
        let LeaseGrant::Work(old) = grant_parse(&stripped).unwrap() else {
            panic!("expected work grant");
        };
        assert_eq!(old.config.improve_streams, 1);
        assert!(!old.config.improve_envelope);

        // Malformed documents are named errors, not panics.
        assert!(grant_parse("{}").is_err());
        assert!(complete_parse("{\"format\": \"nope\"}").is_err());
        assert!(status_parse("not json").is_err());
        // A future wire version is rejected by name, never misread as v1.
        let bump = |doc: String| doc.replace("\"version\": 1", "\"version\": 2");
        let grant_err = grant_parse(&bump(grant_to_json(&LeaseGrant::Done, None))).unwrap_err();
        assert!(grant_err.to_string().contains("unsupported wire version"));
        assert!(complete_parse(&bump(complete_to_json(1, 0, &[]))).is_err());
        assert!(status_parse(&bump(status_to_json(&status))).is_err());
    }
}
