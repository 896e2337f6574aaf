//! # spp-engine — the unified solver engine
//!
//! Every algorithm in the workspace — the unconstrained packers of
//! `spp-pack`, the §2 `DC` family and precedence heuristics of
//! `spp-precedence`, and the §3 release-time APTAS, baselines and online
//! policies of `spp-release` — is exposed behind one [`Solver`] trait with
//! a typed [`SolveRequest`] / [`SolveReport`] pair, a named
//! [`Registry`] with per-algorithm [`Capabilities`], and a parallel
//! [`batch`] executor built on `spp_par::par_map`.
//!
//! Consumers (the `spp` CLI, the experiment harness, examples) look
//! algorithms up by name instead of hand-rolling `match` arms, and iterate
//! the registry filtered by capability instead of hard-coding algorithm
//! lists, so a newly registered solver automatically appears in every
//! sweep, bench and CLI listing.
//!
//! ```
//! use spp_core::Instance;
//! use spp_engine::{Registry, SolveRequest};
//!
//! let registry = Registry::builtin();
//! let solver = registry.get("nfdh").unwrap();
//! let inst = Instance::from_dims(&[(0.5, 1.0), (0.5, 2.0)]).unwrap();
//! let report = spp_engine::solve(&*solver, &SolveRequest::unconstrained(inst)).unwrap();
//! assert!(report.makespan <= 2.0 * report.bounds.area + 2.0 + 1e-9);
//! assert!(report.validation.passed());
//! ```
//!
//! | module | contents |
//! |---|---|
//! | [`request`] | [`SolveRequest`], [`SolveConfig`] and its one parameter parser |
//! | [`report`] | [`SolveReport`], [`LowerBounds`], [`Validation`] |
//! | [`solver`] | the [`Solver`] trait, [`Capabilities`], [`EngineError`] |
//! | [`solvers`] | built-in implementations wrapping the algorithm crates |
//! | [`registry`] | name → constructor + capability flags + advertised bounds |
//! | [`batch`] | the one cell-execution pipeline (cache-consulting) |
//! | [`cache`] | content-addressed solve cache: key schema, memory + disk backends |
//! | [`sharding`] | instance-file shards: plan, per-shard run, merge; the one batch result (`MergedReport`) |
//! | [`work`] | pull-based work distribution: `WorkSource`, lease queue, pull loop |

pub mod batch;
pub mod cache;
mod codec;
pub mod registry;
pub mod report;
pub mod request;
pub mod sharding;
pub mod solver;
pub mod solvers;
pub mod work;

pub use batch::{classify_outcome, execute_cells, BatchJob, CellOutcome, CellStatus, Name};
pub use cache::{CacheError, CacheKey, CacheStats, CachedCell, DiskCache, MemoryCache, SolveCache};
pub use registry::{AdvertisedBound, Registry, RegistryEntry};
pub use report::{Constraint, LowerBounds, SolveReport, Validation};
pub use request::{ParamError, SolveConfig, SolveRequest};
pub use sharding::{
    merge_reports, run_shard, run_sharded, CellRow, MergedReport, ShardPlan, ShardReport,
    ShardRuntime, SolverSummary,
};
pub use solver::{solve, Capabilities, EngineError, Solver};
pub use work::{
    execute_lease, pull_work, LeaseGrant, PullStats, WorkError, WorkLease, WorkQueue, WorkSource,
    WorkStatus,
};
