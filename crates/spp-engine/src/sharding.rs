//! Sharded batch execution over instance files.
//!
//! [`execute_cells`](crate::batch::execute_cells) runs one in-process
//! cell list; this module scales the same work across *processes and
//! machines* by making the unit of distribution a **shard of instance
//! files**:
//!
//! 1. a [`ShardPlan`] turns a directory or file list into a sorted,
//!    deterministically split sequence of shards (contiguous ranges, so
//!    shard outputs concatenate back into global order);
//! 2. [`ShardPlan::lease`] turns shard `i` into a pre-assigned
//!    [`WorkLease`], and [`run_shard`] runs it through
//!    [`execute_lease`](crate::work::execute_lease) — the engine's single
//!    cache-consulting pipeline — distilling the outcome into a
//!    [`ShardReport`] of portable
//!    [`CellRow`]s: exactly the deterministic fields (status, makespan,
//!    combined LB), no wall-clock noise;
//! 3. [`merge_reports`] stitches shard reports (possibly produced by
//!    different processes) into a [`MergedReport`] whose cells are in
//!    global order, so the rendered summary is **byte-identical** to a
//!    single-process run over the same inputs;
//! 4. [`run_sharded`] runs every shard's lease in one process, one after
//!    another on the calling thread, and streams each finished shard to
//!    an observer.
//!
//! **A batch result has one form.** Every batch mode — `spp batch
//! --families`, a file-mode run, a `--merge` of shard reports, and the
//! dispatcher's `GET /work/report` — ends in a [`MergedReport`] of
//! [`CellRow`]s, aggregated by [`MergedReport::summary`] and printed by
//! [`MergedReport::render_table`].
//!
//! **A shard is a lease.** In-process shards, `--shard-index` processes
//! and the leases a dispatcher hands to `spp work` pullers all run the
//! same [`execute_lease`](crate::work::execute_lease), and a merge
//! checks each shard's cells with the same chunk check the dispatcher's
//! queue applies to every completion.
//!
//! **Resume is the cache.** There is no separate manifest code path:
//! attach a [`DiskCache`](crate::cache::DiskCache) and every already
//! solved `(instance, solver, config)` cell is served from disk, so a
//! killed run redoes only its unfinished *cells*, and adding, removing or
//! renaming input files — which shifts the contiguous shard split —
//! invalidates nothing: the cache key is the instance's content digest,
//! not its position in the plan. Stale knobs are equally harmless: the
//! key embeds the [`SolveConfig::signature`], so a run under different
//! knobs simply misses.
//!
//! Shard reports serialize as JSON (`spp-shard-report` documents) through
//! the same hand-rolled layer as instance files, with `{:.17e}` floats,
//! so a merge across processes loses no precision.

use std::path::{Path, PathBuf};
use std::time::Duration;

use spp_core::hash::Fnv1a;
use spp_core::json;

use crate::batch::{CellStatus, Name};
use crate::cache::SolveCache;
use crate::codec::{self, Doc, Family};
use crate::request::SolveConfig;
use crate::solver::Solver;
use crate::work::{check_chunk, execute_labeled, LeaseObserver, WorkError, WorkLease};

// ---------------------------------------------------------------------------
// Shard planning
// ---------------------------------------------------------------------------

/// A deterministic split of an instance-file list into contiguous shards.
///
/// The file list is sorted by path before splitting, so every process
/// that builds a plan from the same inputs — whatever the directory
/// iteration order of its filesystem — derives the *same* global job
/// numbering. Shard `i` owns the contiguous range
/// `[i·n/shards, (i+1)·n/shards)`.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    paths: Vec<PathBuf>,
    /// `labels[i]` is the label of `paths[i]`, shared by every row any
    /// run of the plan writes for it.
    labels: Vec<Name>,
    shards: usize,
}

impl ShardPlan {
    /// Plan over an explicit path list (sorted internally; duplicate
    /// paths collapse to one — a file listed twice is one instance, and
    /// double-counting it would silently skew every aggregate).
    pub fn new(mut paths: Vec<PathBuf>, shards: usize) -> Result<Self, WorkError> {
        if shards == 0 {
            return Err(WorkError::BadPlan("shard count must be ≥ 1".into()));
        }
        paths.sort();
        paths.dedup();
        let labels = paths.iter().map(|p| label_for(p).into()).collect();
        Ok(ShardPlan {
            paths,
            labels,
            shards,
        })
    }

    /// Plan over every `*.json` / `*.spp` file directly inside `dir`.
    pub fn from_dir(dir: &Path, shards: usize) -> Result<Self, WorkError> {
        let entries = std::fs::read_dir(dir).map_err(|e| WorkError::Io {
            path: dir.display().to_string(),
            err: e.to_string(),
        })?;
        let mut paths = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| WorkError::Io {
                path: dir.display().to_string(),
                err: e.to_string(),
            })?;
            let path = entry.path();
            let ext = path.extension().and_then(|e| e.to_str());
            if path.is_file() && matches!(ext, Some("json" | "spp")) {
                paths.push(path);
            }
        }
        if paths.is_empty() {
            return Err(WorkError::BadPlan(format!(
                "no *.json or *.spp instance files in {}",
                dir.display()
            )));
        }
        ShardPlan::new(paths, shards)
    }

    /// Plan over a file list: one path per line, `#` comments and blank
    /// lines ignored, relative paths resolved against the list's parent
    /// directory.
    pub fn from_file_list(list: &Path, shards: usize) -> Result<Self, WorkError> {
        let text = std::fs::read_to_string(list).map_err(|e| WorkError::Io {
            path: list.display().to_string(),
            err: e.to_string(),
        })?;
        let base = list.parent().unwrap_or(Path::new(""));
        let mut paths = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let p = PathBuf::from(line);
            paths.push(if p.is_absolute() { p } else { base.join(p) });
        }
        if paths.is_empty() {
            return Err(WorkError::BadPlan(format!(
                "file list {} names no instances",
                list.display()
            )));
        }
        ShardPlan::new(paths, shards)
    }

    /// Total number of instance files.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True iff the plan holds no files.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// All paths in global (sorted) order.
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }

    /// Global index range owned by shard `shard`.
    pub fn shard_range(&self, shard: usize) -> Result<std::ops::Range<usize>, WorkError> {
        if shard >= self.shards {
            return Err(WorkError::BadPlan(format!(
                "shard index {shard} out of range (shards = {})",
                self.shards
            )));
        }
        let n = self.paths.len();
        Ok(shard * n / self.shards..(shard + 1) * n / self.shards)
    }

    /// The paths of one shard, with their global indices.
    pub fn shard_paths(&self, shard: usize) -> Result<&[PathBuf], WorkError> {
        Ok(&self.paths[self.shard_range(shard)?])
    }

    /// The labels of a lease cut from this plan, one per path.
    fn lease_labels(&self, lease: &WorkLease) -> &[Name] {
        &self.labels[lease.start..lease.start + lease.jobs()]
    }

    /// Shard `shard` as a pre-assigned [`WorkLease`]: its files in global
    /// order, numbered from the shard's first global job, to be run by the
    /// named solvers under `config`. Its `id` is 0: no queue granted it.
    pub fn lease(
        &self,
        shard: usize,
        solvers: &[String],
        config: &SolveConfig,
    ) -> Result<WorkLease, WorkError> {
        let range = self.shard_range(shard)?;
        Ok(WorkLease {
            id: 0,
            index: shard,
            start: range.start,
            paths: self.paths[range].to_vec(),
            solvers: solvers.to_vec(),
            config: config.clone(),
        })
    }

    /// FNV-1a fingerprint of the full (sorted) path list. Every shard
    /// report records it, so a merge can prove its reports were cut from
    /// the same batch even when they were produced on different machines.
    ///
    /// The fingerprint covers the paths *as given*: shard processes that
    /// should merge must be launched with the same `--input-dir` /
    /// `--file-list` spelling (the natural way to script a fan-out).
    /// Editing a file's *contents* in place between shard runs is not
    /// detected — the unit of identity is the file list, not the bytes.
    pub fn fingerprint(&self) -> String {
        let mut h = Fnv1a::new();
        for p in &self.paths {
            h.write_str(&p.display().to_string());
            h.write(b"\n");
        }
        spp_core::hash::fnv1a_tag(h.finish())
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// The portable outcome of one cell: only deterministic fields, so shard
/// reports (and anything derived from them) are byte-stable across runs,
/// processes and machines.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRow {
    /// Global job index (position in the plan's sorted path list).
    pub job: usize,
    /// Instance label — the file stem.
    pub label: Name,
    /// Solver name.
    pub solver: Name,
    pub status: CellStatus,
    /// Height of the packing (0 for unsupported cells).
    pub makespan: f64,
    /// Combined lower bound of the request (0 for unsupported cells).
    pub combined_lb: f64,
}

impl CellRow {
    /// Makespan / combined-LB with the same conventions as
    /// [`SolveReport::ratio`](crate::SolveReport::ratio).
    pub fn ratio(&self) -> f64 {
        if self.combined_lb <= 0.0 {
            if self.makespan <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.makespan / self.combined_lb
        }
    }
}

/// One shard's worth of cells, plus the identity needed to merge safely.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// This shard's index in `0..shards`.
    pub shard: usize,
    /// Total shard count of the plan that produced it.
    pub shards: usize,
    /// Solver names, in execution order (must agree across shards).
    pub solvers: Vec<String>,
    /// The instance-file paths this shard ran, in job order. A merge
    /// rebuilds the whole plan from the shards' inputs, so the cells of
    /// every shard can be checked against the files they claim to cover.
    pub inputs: Vec<String>,
    /// Fingerprint of the *whole plan's* path list (see
    /// [`ShardPlan::fingerprint`]). Merging requires every report to come
    /// from the same plan, so shards of two unrelated batches — which can
    /// agree on shard count, solvers and config — refuse to combine.
    pub plan_fp: String,
    /// Signature of the [`SolveConfig`] the cells were computed with
    /// (see [`SolveConfig::signature`]); merging refuses reports written
    /// under different knobs.
    pub config_sig: String,
    /// Cells in (job-major, solver input order), jobs globally indexed.
    pub cells: Vec<CellRow>,
}

/// How a lease's cells were actually obtained (fresh solve vs. cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRuntime {
    /// Summed per-cell solver phase time (CPU cost, not wall clock).
    pub cpu_time: Duration,
    /// Cells served from the attached [`SolveCache`] without a solve.
    pub cache_hits: usize,
}

impl ShardRuntime {
    /// True iff every cell came from the cache — the "resumed" case.
    pub fn fully_cached(&self, cells: usize) -> bool {
        cells > 0 && self.cache_hits == cells
    }
}

const REPORT_FORMAT: &str = "spp-shard-report";
const MERGED_FORMAT: &str = "spp-merged-report";

impl ShardReport {
    /// Serialize as a canonical `spp-shard-report` JSON document.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = codec::begin(REPORT_FORMAT, Family::Report);
        let _ = writeln!(out, "  \"shard\": {},", self.shard);
        let _ = writeln!(out, "  \"shards\": {},", self.shards);
        codec::write_strings(&mut out, "solvers", &self.solvers);
        codec::write_strings(&mut out, "inputs", &self.inputs);
        let _ = writeln!(out, "  \"plan\": \"{}\",", json::escape(&self.plan_fp));
        let _ = writeln!(out, "  \"config\": \"{}\",", json::escape(&self.config_sig));
        codec::end_with_cells(out, &self.cells)
    }

    /// Parse a document produced by [`Self::to_json`].
    pub fn parse(text: &str) -> Result<Self, WorkError> {
        let doc = Doc::open(text, "shard report", REPORT_FORMAT, Family::Report)?;
        Ok(ShardReport {
            shard: doc.u64("shard")? as usize,
            shards: doc.u64("shards")? as usize,
            solvers: doc.strings("solvers")?,
            inputs: doc.strings("inputs")?,
            plan_fp: doc.str("plan")?.to_string(),
            config_sig: doc.str("config")?.to_string(),
            cells: doc.cells()?,
        })
    }
}

/// Deterministic per-solver aggregates over a batch's cells. Wall-clock
/// time is deliberately absent: it would break cross-process
/// byte-identity.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverSummary {
    pub solver: String,
    /// Cells that produced a report with passing (or skipped) validation.
    pub solved: usize,
    /// Cells refused with an engine error (capability or model mismatch).
    pub unsupported: usize,
    /// Cells whose placement failed validation (solver bugs).
    pub invalid: usize,
    /// Mean makespan / combined-lower-bound over solved cells.
    pub mean_ratio: f64,
    /// Worst ratio over solved cells.
    pub max_ratio: f64,
    /// Sum of makespans over solved cells (comparable across solvers only
    /// when they solved the same cells).
    pub total_makespan: f64,
}

/// A whole batch's cells in global order — the one form every batch
/// result takes, however its cells were run.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedReport {
    pub solvers: Vec<String>,
    /// Cells sorted by (job, solver input order) — identical to what a
    /// single-process run over the same plan produces.
    pub cells: Vec<CellRow>,
}
impl MergedReport {
    /// Per-solver aggregates, in solver input order.
    pub fn summary(&self) -> Vec<SolverSummary> {
        self.solvers
            .iter()
            .map(|name| {
                let mut s = SolverSummary {
                    solver: name.clone(),
                    solved: 0,
                    unsupported: 0,
                    invalid: 0,
                    mean_ratio: 0.0,
                    max_ratio: 0.0,
                    total_makespan: 0.0,
                };
                let mut ratios = Vec::new();
                for c in self.cells.iter().filter(|c| &c.solver == name) {
                    match c.status {
                        CellStatus::Solved => {
                            s.solved += 1;
                            s.total_makespan += c.makespan;
                            let r = c.ratio();
                            if r.is_finite() {
                                ratios.push(r);
                            }
                        }
                        CellStatus::Unsupported => s.unsupported += 1,
                        CellStatus::Invalid => s.invalid += 1,
                    }
                }
                if !ratios.is_empty() {
                    s.mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
                    s.max_ratio = ratios.iter().cloned().fold(f64::MIN, f64::max);
                }
                s
            })
            .collect()
    }

    /// Number of cells whose placement failed validation.
    pub fn invalid_cells(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.status == CellStatus::Invalid)
            .count()
    }

    /// The canonical human-readable summary table. Every `spp batch` mode
    /// prints exactly this string, which is what makes them
    /// byte-comparable.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| {:<16} | {:>6} | {:>11} | {:>7} | {:>10} | {:>9} | {:>13} |",
            "solver", "solved", "unsupported", "invalid", "mean ratio", "max ratio", "sum makespan"
        );
        let _ = writeln!(
            out,
            "|{}|{}|{}|{}|{}|{}|{}|",
            "-".repeat(18),
            "-".repeat(8),
            "-".repeat(13),
            "-".repeat(9),
            "-".repeat(12),
            "-".repeat(11),
            "-".repeat(15)
        );
        for s in self.summary() {
            let _ = writeln!(
                out,
                "| {:<16} | {:>6} | {:>11} | {:>7} | {:>10.3} | {:>9.3} | {:>13.3} |",
                s.solver,
                s.solved,
                s.unsupported,
                s.invalid,
                s.mean_ratio,
                s.max_ratio,
                s.total_makespan
            );
        }
        out
    }

    /// Serialize as a portable `spp-merged-report` JSON document — what
    /// the dispatcher's `GET /work/report` hands to the thin
    /// `spp batch --dispatcher-url` client.
    pub fn to_json(&self) -> String {
        let mut out = codec::begin(MERGED_FORMAT, Family::Report);
        codec::write_strings(&mut out, "solvers", &self.solvers);
        codec::end_with_cells(out, &self.cells)
    }

    /// Parse a document produced by [`Self::to_json`].
    pub fn parse(text: &str) -> Result<Self, WorkError> {
        let doc = Doc::open(text, "merged report", MERGED_FORMAT, Family::Report)?;
        Ok(MergedReport {
            solvers: doc.strings("solvers")?,
            cells: doc.cells()?,
        })
    }

    /// One line per cell (full `{:.17e}` precision) for diff-based
    /// verification of sharded vs. single-process runs.
    pub fn render_cells(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in &self.cells {
            let _ = writeln!(
                out,
                "cell {} {} {} {} {:.17e} {:.17e}",
                c.job,
                c.label,
                c.solver,
                c.status.as_str(),
                c.makespan,
                c.combined_lb
            );
        }
        out
    }
}

/// Merge shard reports into global order.
///
/// Every shard of the plan must be present exactly once, and all reports
/// must agree on shard count, solver list, config signature and plan
/// fingerprint. The plan is then rebuilt from the reports' `inputs` and
/// must hash to that fingerprint, and each shard's cells must pass the
/// same chunk check
/// [`WorkQueue::complete`](crate::work::WorkQueue::complete) applies to a
/// worker's completion — so a truncated or hand-edited report is
/// rejected rather than folded into the aggregates.
pub fn merge_reports(mut reports: Vec<ShardReport>) -> Result<MergedReport, WorkError> {
    let bad = |err: String| WorkError::Protocol {
        context: "merge".into(),
        err,
    };
    if reports.is_empty() {
        return Err(bad("no shard reports to merge".into()));
    }
    reports.sort_by_key(|r| r.shard);
    let shards = reports[0].shards;
    let solvers = reports[0].solvers.clone();
    if reports.len() != shards {
        return Err(bad(format!(
            "plan has {shards} shards but {} report(s) were given",
            reports.len()
        )));
    }
    for (want, r) in reports.iter().enumerate() {
        if r.shard != want {
            return Err(bad(format!(
                "shard {want} missing (found shard {} instead)",
                r.shard
            )));
        }
        if r.shards != shards {
            return Err(bad(format!(
                "shard {} claims {} total shards, expected {shards}",
                r.shard, r.shards
            )));
        }
        if r.solvers != solvers {
            return Err(bad(format!(
                "shard {} ran solvers {:?}, expected {:?}",
                r.shard, r.solvers, solvers
            )));
        }
        if r.config_sig != reports[0].config_sig {
            return Err(bad(format!(
                "shard {} ran with config [{}], expected [{}]",
                r.shard, r.config_sig, reports[0].config_sig
            )));
        }
        // The plan fingerprint covers the full input list, so shards of
        // two unrelated batches (which can agree on everything above)
        // cannot combine into a plausible-looking wrong table.
        if r.plan_fp != reports[0].plan_fp {
            return Err(bad(format!(
                "shard {} was cut from a different batch (plan {}, expected {})",
                r.shard, r.plan_fp, reports[0].plan_fp
            )));
        }
    }
    let inputs = reports
        .iter()
        .flat_map(|r| r.inputs.iter().map(PathBuf::from))
        .collect();
    let plan = ShardPlan::new(inputs, shards)?;
    if plan.fingerprint() != reports[0].plan_fp {
        return Err(bad(format!(
            "the shards' inputs hash to plan {}, but the reports claim plan {}",
            plan.fingerprint(),
            reports[0].plan_fp
        )));
    }
    let mut cells = Vec::with_capacity(reports.iter().map(|r| r.cells.len()).sum());
    for r in reports {
        let start = plan.shard_range(r.shard)?.start;
        check_chunk(plan.shard_paths(r.shard)?, start, &solvers, &r.cells)
            .map_err(|e| bad(format!("shard {}: {e}", r.shard)))?;
        cells.extend(r.cells);
    }
    Ok(MergedReport { solvers, cells })
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

pub(crate) fn label_for(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

fn solver_names(solvers: &[Box<dyn Solver>]) -> Vec<String> {
    solvers.iter().map(|s| s.name().to_string()).collect()
}

/// Run one shard: execute its [lease](ShardPlan::lease) through the
/// engine's single cache-consulting pipeline
/// ([`execute_cells`](crate::batch::execute_cells), via
/// [`execute_lease`](crate::work::execute_lease)), reducing to the portable report a later
/// [`merge_reports`] consumes.
pub fn run_shard(
    plan: &ShardPlan,
    shard: usize,
    solvers: &[Box<dyn Solver>],
    config: &SolveConfig,
    cache: Option<&dyn SolveCache>,
) -> Result<ShardReport, WorkError> {
    let lease = plan.lease(shard, &solver_names(solvers), config)?;
    let (cells, _) = execute_labeled(&lease, plan.lease_labels(&lease), solvers, cache)?;
    Ok(ShardReport {
        shard,
        shards: plan.shards(),
        inputs: lease
            .paths
            .iter()
            .map(|p| p.display().to_string())
            .collect(),
        plan_fp: plan.fingerprint(),
        config_sig: config.signature(),
        solvers: lease.solvers,
        cells,
    })
}

/// Run every shard of the plan and merge.
///
/// Shards run one after another on the calling thread, each as its
/// [lease](ShardPlan::lease) through
/// [`execute_lease`](crate::work::execute_lease), which spreads
/// the shard's cells over every core; this function spawns no thread of
/// its own. Shard cells concatenate in shard order, which is global job
/// order, so the output does not depend on the shard count.
///
/// * `cache` — consulted cell-by-cell before any solve and written back
///   on miss; pass a [`DiskCache`](crate::cache::DiskCache) to make the
///   run resumable (and to share work with other processes pointing at
///   the same directory). There is no separate resume path: a rerun over
///   a warm cache recomputes nothing and produces byte-identical output.
/// * `observer` — called on the calling thread, in shard order, with
///   each shard's lease (`index` is the shard), cells and
///   [`ShardRuntime`] as it finishes: the streaming progress hook.
///
/// The first shard that fails ends the run with its error.
pub fn run_sharded(
    plan: &ShardPlan,
    solvers: &[Box<dyn Solver>],
    config: &SolveConfig,
    cache: Option<&dyn SolveCache>,
    observer: Option<&LeaseObserver<'_>>,
) -> Result<MergedReport, WorkError> {
    let names = solver_names(solvers);
    let mut cells = Vec::new();
    for shard in 0..plan.shards() {
        let lease = plan.lease(shard, &names, config)?;
        let (rows, runtime) = execute_labeled(&lease, plan.lease_labels(&lease), solvers, cache)?;
        if let Some(observe) = observer {
            observe(&lease, &rows, &runtime);
        }
        cells.extend(rows);
    }
    Ok(MergedReport {
        solvers: names,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{DiskCache, MemoryCache};
    use crate::registry::Registry;

    fn write_suite(tag: &str, count: usize) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spp_engine_shard_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        spp_gen::suite::write_suite(&dir, 42, 12, count).unwrap();
        dir
    }

    fn solvers(names: &[&str]) -> Vec<Box<dyn Solver>> {
        let registry = Registry::builtin();
        names.iter().map(|n| registry.get(n).unwrap()).collect()
    }

    #[test]
    fn plan_splits_contiguously_and_covers_everything() {
        let paths: Vec<PathBuf> = (0..10)
            .map(|i| PathBuf::from(format!("i{i:02}.json")))
            .collect();
        let plan = ShardPlan::new(paths, 4).unwrap();
        let ranges: Vec<_> = (0..4).map(|s| plan.shard_range(s).unwrap()).collect();
        assert_eq!(ranges[0], 0..2);
        assert_eq!(ranges[1], 2..5);
        assert_eq!(ranges[2], 5..7);
        assert_eq!(ranges[3], 7..10);
        assert!(plan.shard_range(4).is_err());
        assert!(ShardPlan::new(vec![], 0).is_err());
        // More shards than files: trailing shards are empty, nothing lost.
        let plan = ShardPlan::new(vec![PathBuf::from("a.json")], 3).unwrap();
        let total: usize = (0..3).map(|s| plan.shard_range(s).unwrap().len()).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn sharded_equals_single_process_bytewise() {
        let dir = write_suite("equal", 12);
        let solvers = solvers(&["nfdh", "ffdh", "greedy", "dc-nfdh"]);
        let config = SolveConfig::default();

        let single = {
            let plan = ShardPlan::from_dir(&dir, 1).unwrap();
            run_sharded(&plan, &solvers, &config, None, None).unwrap()
        };
        let sharded = {
            let plan = ShardPlan::from_dir(&dir, 4).unwrap();
            // Simulate distributed execution: run each shard separately,
            // serialize, parse back, merge — the full cross-process path.
            let texts: Vec<String> = (0..4)
                .map(|s| {
                    run_shard(&plan, s, &solvers, &config, None)
                        .unwrap()
                        .to_json()
                })
                .collect();
            let reports = texts
                .iter()
                .map(|t| ShardReport::parse(t).unwrap())
                .collect();
            merge_reports(reports).unwrap()
        };
        assert_eq!(single.cells, sharded.cells);
        assert_eq!(single.render_table(), sharded.render_table());
        assert_eq!(single.render_cells(), sharded.render_cells());
    }

    #[test]
    fn shard_report_roundtrips_exactly() {
        let dir = write_suite("roundtrip", 6);
        let solvers = solvers(&["nfdh", "aptas"]);
        let plan = ShardPlan::from_dir(&dir, 2).unwrap();
        let report = run_shard(&plan, 1, &solvers, &SolveConfig::default(), None).unwrap();
        let back = ShardReport::parse(&report.to_json()).unwrap();
        assert_eq!(back.shard, report.shard);
        assert_eq!(back.solvers, report.solvers);
        assert_eq!(back.cells, report.cells);
        // Canonical: serialize ∘ parse ∘ serialize = serialize.
        assert_eq!(back.to_json(), report.to_json());
    }

    #[test]
    fn merge_rejects_inconsistent_reports() {
        // A two-shard plan over one file: shard 0 is empty, shard 1 holds
        // `a.json`. Each case below breaks one field of a consistent pair.
        let plan_fp = ShardPlan::new(vec![PathBuf::from("a.json")], 2)
            .unwrap()
            .fingerprint();
        let mk = |shard: usize, solvers: &[&str]| {
            let inputs: &[&str] = if shard == 1 { &["a.json"] } else { &[] };
            ShardReport {
                shard,
                shards: 2,
                solvers: solvers.iter().map(|s| s.to_string()).collect(),
                inputs: inputs.iter().map(|p| p.to_string()).collect(),
                plan_fp: plan_fp.clone(),
                config_sig: SolveConfig::default().signature(),
                cells: inputs
                    .iter()
                    .flat_map(|_| solvers)
                    .map(|s| CellRow {
                        job: 0,
                        label: "a".into(),
                        solver: (*s).into(),
                        status: CellStatus::Solved,
                        makespan: 1.0,
                        combined_lb: 1.0,
                    })
                    .collect(),
            }
        };
        // Merges shard 0 with `second`, which must be refused; returns
        // the error message.
        let refused = |second: ShardReport| {
            merge_reports(vec![mk(0, &["nfdh"]), second])
                .unwrap_err()
                .to_string()
        };
        // Missing shard.
        assert!(merge_reports(vec![mk(0, &["nfdh"])]).is_err());
        // Duplicate shard.
        refused(mk(0, &["nfdh"]));
        // Solver mismatch.
        refused(mk(1, &["ffdh"]));
        // Config mismatch.
        let mut other_cfg = mk(1, &["nfdh"]);
        other_cfg.config_sig = "epsilon=0.5".into();
        refused(other_cfg);
        // Plan mismatch: shards cut from different batches refuse to merge
        // even though shard count, solvers and config all agree.
        let mut other_plan = mk(1, &["nfdh"]);
        other_plan.plan_fp = "fnv1a:other".into();
        refused(other_plan);
        // Inputs that no longer hash to the plan the reports claim.
        let mut renamed = mk(1, &["nfdh"]);
        renamed.inputs = vec!["b.json".into()];
        assert!(refused(renamed).contains("inputs hash to plan"));
        // Structural mismatch: cells must be inputs × solvers, labelled
        // with the inputs' stems — the check a dispatched completion gets.
        let mut truncated = mk(1, &["nfdh"]);
        truncated.cells.clear();
        let err = refused(truncated);
        assert!(
            err.contains("shard 1: 0 cells, expected 1 jobs x 1 solvers"),
            "{err}"
        );
        let mut tampered = mk(1, &["nfdh"]);
        tampered.cells[0].label = "tampered".into();
        let err = refused(tampered);
        assert!(err.starts_with("merge: shard 1: cell 0"), "{err}");
        assert!(err.contains("\"tampered\""), "{err}");
        // Consistent pair merges, in either order.
        let merged = merge_reports(vec![mk(1, &["nfdh"]), mk(0, &["nfdh"])]).unwrap();
        assert_eq!(merged.cells, mk(1, &["nfdh"]).cells);
    }

    #[test]
    fn shards_run_on_the_callers_thread_in_shard_order() {
        let dir = write_suite("order", 8);
        let plan = ShardPlan::from_dir(&dir, 4).unwrap();
        let calls = std::sync::Mutex::new(Vec::new());
        let observer = |lease: &WorkLease, _: &[CellRow], _: &ShardRuntime| {
            calls
                .lock()
                .unwrap()
                .push((lease.index, std::thread::current().id()));
        };
        let s = solvers(&["nfdh", "dc-nfdh"]);
        let config = SolveConfig::default();
        run_sharded(&plan, &s, &config, None, Some(&observer)).unwrap();
        let calls = calls.into_inner().unwrap();
        let order: Vec<usize> = calls.iter().map(|&(index, _)| index).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        let me = std::thread::current().id();
        assert!(calls.iter().all(|&(_, id)| id == me), "{calls:?}");
    }

    #[test]
    fn cache_resume_serves_completed_cells_and_survives_corruption() {
        let dir = write_suite("resume", 8);
        let cache_dir = std::env::temp_dir().join("spp_engine_shard_resume_cache");
        let _ = std::fs::remove_dir_all(&cache_dir);
        let solvers2 = solvers(&["nfdh", "greedy"]);
        let config = SolveConfig::default();
        let plan = ShardPlan::from_dir(&dir, 3).unwrap();

        let cache = DiskCache::new(&cache_dir, false).unwrap();
        let first = run_sharded(&plan, &solvers2, &config, Some(&cache), None).unwrap();
        assert_eq!(
            crate::cache::dir_stats(&cache_dir).unwrap().entries,
            first.cells.len()
        );

        // A warm rerun serves every cell from the cache — the observer
        // sees only fully cached ("resumed") shards — and the merged
        // output is byte-identical.
        let warm = DiskCache::new(&cache_dir, false).unwrap();
        let resumed = std::sync::Mutex::new(Vec::new());
        let observer = |lease: &WorkLease, cells: &[CellRow], rt: &ShardRuntime| {
            if rt.fully_cached(cells.len()) {
                resumed.lock().unwrap().push(lease.index);
            }
        };
        let second = run_sharded(&plan, &solvers2, &config, Some(&warm), Some(&observer)).unwrap();
        assert_eq!(first.cells, second.cells);
        assert_eq!(first.render_cells(), second.render_cells());
        assert_eq!(*resumed.lock().unwrap(), vec![0, 1, 2]);
        assert_eq!(warm.stats().misses, 0, "warm run invoked a solver");

        // Corrupt one entry: exactly that cell recomputes; output is
        // still identical and the damaged entry is never served.
        let scanned = crate::cache::scan_dir(&cache_dir).unwrap();
        std::fs::write(&scanned[0].path, "garbage").unwrap();
        let healed = DiskCache::new(&cache_dir, false).unwrap();
        let third = run_sharded(&plan, &solvers2, &config, Some(&healed), None).unwrap();
        assert_eq!(first.cells, third.cells);
        let stats = healed.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.writes, 1, "the healed entry was written back");

        // A different solver list shares the instance half of the key but
        // not the cells: ffdh cells all miss, nfdh/greedy entries are
        // untouched.
        let other = solvers(&["ffdh"]);
        let cold = DiskCache::new(&cache_dir, false).unwrap();
        let fourth = run_sharded(&plan, &other, &config, Some(&cold), None).unwrap();
        assert_eq!(fourth.solvers, vec!["ffdh".to_string()]);
        assert!(fourth.cells.iter().all(|c| c.solver == "ffdh"));
        assert_eq!(cold.stats().hits, 0);
    }

    #[test]
    fn rows_of_one_job_share_one_label_allocation() {
        let dir = write_suite("names", 4);
        let s = solvers(&["nfdh", "ffdh", "greedy"]);
        let plan = ShardPlan::from_dir(&dir, 2).unwrap();
        let merged = run_sharded(&plan, &s, &SolveConfig::default(), None, None).unwrap();
        let again = run_sharded(&plan, &s, &SolveConfig::default(), None, None).unwrap();
        assert_eq!(merged.cells.len(), 12);
        // Every row of a job, in every run of the plan, holds the plan's
        // one label.
        for (job, rerun) in merged
            .cells
            .chunks(s.len())
            .zip(again.cells.chunks(s.len()))
        {
            for c in job.iter().chain(rerun) {
                assert!(std::ptr::eq(c.label.as_ptr(), job[0].label.as_ptr()));
            }
        }
        // Solver names are shared within each lease too.
        for lease in merged.cells.chunks(2 * s.len()) {
            for (i, c) in lease.iter().enumerate() {
                let first = &lease[i % s.len()];
                assert!(std::ptr::eq(c.solver.as_ptr(), first.solver.as_ptr()));
            }
        }
    }

    #[test]
    fn cache_is_config_sensitive_and_immune_to_shard_resplits() {
        let dir = write_suite("stale", 8);
        let s = solvers(&["nfdh"]);
        let config = SolveConfig::default();
        let plan = ShardPlan::from_dir(&dir, 2).unwrap();
        let cache = MemoryCache::new();
        run_sharded(&plan, &s, &config, Some(&cache), None).unwrap();
        assert_eq!(cache.len(), 8);

        // Same instances, different knobs: every cell misses (an entry
        // computed under other knobs would be silently wrong).
        let mut tighter = config.clone();
        tighter.epsilon = 0.5;
        run_sharded(&plan, &s, &tighter, Some(&cache), None).unwrap();
        assert_eq!(cache.len(), 16, "different config = different cells");

        // Adding a file shifts every contiguous shard range — which is
        // exactly why the cache keys content, not position: the 8 old
        // cells are all served, only the new instance solves.
        spp_gen::fileio::write_path(
            &dir.join("zzz-extra.json"),
            &spp_dag::PrecInstance::unconstrained(
                spp_core::Instance::from_dims(&[(0.5, 1.0)]).unwrap(),
            ),
        )
        .unwrap();
        let grown = ShardPlan::from_dir(&dir, 2).unwrap();
        assert_eq!(grown.len(), plan.len() + 1);
        let before = cache.stats();
        run_sharded(&grown, &s, &config, Some(&cache), None).unwrap();
        let after = cache.stats();
        assert_eq!(after.hits - before.hits, 8, "old cells all resumed");
        assert_eq!(after.misses - before.misses, 1, "only the new file solved");
    }

    #[test]
    fn empty_input_dir_is_a_bad_plan_naming_the_dir() {
        // A directory with no instance files at all.
        let dir = std::env::temp_dir().join("spp_engine_shard_emptydir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = ShardPlan::from_dir(&dir, 2).unwrap_err();
        assert!(matches!(err, WorkError::BadPlan(_)), "{err:?}");
        assert!(
            err.to_string().contains("spp_engine_shard_emptydir"),
            "{err}"
        );

        // Non-instance files don't count either.
        std::fs::write(dir.join("README.txt"), "not an instance").unwrap();
        assert!(ShardPlan::from_dir(&dir, 1).is_err());

        // An empty file list is equally refused.
        let list = dir.join("list.txt");
        std::fs::write(&list, "# only comments\n\n").unwrap();
        let err = ShardPlan::from_file_list(&list, 1).unwrap_err();
        assert!(err.to_string().contains("names no instances"), "{err}");
    }

    #[test]
    fn duplicate_paths_in_file_list_collapse_to_one_job() {
        let dir = write_suite("dups", 3);
        let names: Vec<String> = ShardPlan::from_dir(&dir, 1)
            .unwrap()
            .paths()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        // Every file listed twice (plus a repeat of the first at the end).
        let mut body = String::new();
        for n in &names {
            body.push_str(&format!("{n}\n{n}\n"));
        }
        body.push_str(&format!("{}\n", names[0]));
        let list = dir.join("list.txt");
        std::fs::write(&list, body).unwrap();

        let plan = ShardPlan::from_file_list(&list, 2).unwrap();
        assert_eq!(plan.len(), 3, "duplicates must not double-count jobs");
        // And the deduped plan is interchangeable with the from_dir one:
        // same fingerprint, same merged output.
        let from_dir = ShardPlan::from_dir(&dir, 2).unwrap();
        assert_eq!(plan.fingerprint(), from_dir.fingerprint());
        let s = solvers(&["nfdh"]);
        let config = SolveConfig::default();
        let a = run_sharded(&plan, &s, &config, None, None).unwrap();
        let b = run_sharded(&from_dir, &s, &config, None, None).unwrap();
        assert_eq!(a.render_cells(), b.render_cells());
    }

    #[test]
    fn more_shards_than_files_runs_empty_shards_harmlessly() {
        let dir = write_suite("overshard", 2);
        let s = solvers(&["nfdh", "ffdh"]);
        let config = SolveConfig::default();
        let wide = ShardPlan::from_dir(&dir, 5).unwrap();
        let narrow = ShardPlan::from_dir(&dir, 1).unwrap();

        // In-process: empty shards complete with zero cells and the
        // merged output matches the single-shard run byte-for-byte.
        let merged = run_sharded(&wide, &s, &config, None, None).unwrap();
        let reference = run_sharded(&narrow, &s, &config, None, None).unwrap();
        assert_eq!(merged.cells, reference.cells);
        assert_eq!(merged.render_cells(), reference.render_cells());

        // Cross-process: an empty shard's report serializes, parses, and
        // merges like any other.
        let empty_shard = (0..5)
            .find(|&i| wide.shard_range(i).unwrap().is_empty())
            .expect("5 shards over 2 files must leave an empty one");
        let report = run_shard(&wide, empty_shard, &s, &config, None).unwrap();
        assert!(report.cells.is_empty());
        assert!(report.inputs.is_empty());
        let back = ShardReport::parse(&report.to_json()).unwrap();
        assert_eq!(back.cells, report.cells);
        let texts: Vec<String> = (0..5)
            .map(|i| run_shard(&wide, i, &s, &config, None).unwrap().to_json())
            .collect();
        let remerged = merge_reports(
            texts
                .iter()
                .map(|t| ShardReport::parse(t).unwrap())
                .collect(),
        )
        .unwrap();
        assert_eq!(remerged.render_cells(), reference.render_cells());
    }

    #[test]
    fn merged_report_json_roundtrips_exactly() {
        let dir = write_suite("mergedjson", 4);
        let s = solvers(&["nfdh", "greedy"]);
        let merged = run_sharded(
            &ShardPlan::from_dir(&dir, 2).unwrap(),
            &s,
            &SolveConfig::default(),
            None,
            None,
        )
        .unwrap();
        let back = MergedReport::parse(&merged.to_json()).unwrap();
        assert_eq!(back, merged);
        assert_eq!(back.render_table(), merged.render_table());
        assert_eq!(back.render_cells(), merged.render_cells());
        // Canonical: serialize ∘ parse ∘ serialize = serialize.
        assert_eq!(back.to_json(), merged.to_json());
        // An empty report roundtrips too.
        let empty = MergedReport {
            solvers: vec!["nfdh".into()],
            cells: vec![],
        };
        assert_eq!(MergedReport::parse(&empty.to_json()).unwrap(), empty);
        // Malformed documents are named errors.
        assert!(MergedReport::parse("{}").is_err());
        assert!(MergedReport::parse(&merged.to_json().replace("spp-merged", "spp-shard")).is_err());
    }

    #[test]
    fn file_list_plans_resolve_relative_paths() {
        let dir = write_suite("list", 4);
        let list = dir.join("list.txt");
        let mut body = String::from("# instance list\n\n");
        for p in ShardPlan::from_dir(&dir, 1).unwrap().paths() {
            body.push_str(&format!("{}\n", p.file_name().unwrap().to_string_lossy()));
        }
        std::fs::write(&list, body).unwrap();
        let plan = ShardPlan::from_file_list(&list, 2).unwrap();
        assert_eq!(plan.len(), 4);
        let report =
            run_shard(&plan, 0, &solvers(&["nfdh"]), &SolveConfig::default(), None).unwrap();
        assert_eq!(report.cells.len(), 2);
    }

    #[test]
    fn unreadable_instance_is_a_load_error_naming_the_file() {
        let dir = std::env::temp_dir().join("spp_engine_shard_badfile");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.json"), "{\"format\": \"nope\"}").unwrap();
        let plan = ShardPlan::from_dir(&dir, 1).unwrap();
        let err =
            run_shard(&plan, 0, &solvers(&["nfdh"]), &SolveConfig::default(), None).unwrap_err();
        match err {
            WorkError::Load { path, err } => {
                assert!(path.contains("bad.json"), "{path}");
                assert!(err.contains("format"), "{err}");
            }
            other => panic!("expected Load error, got {other:?}"),
        }
    }
}
