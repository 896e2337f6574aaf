//! # strip-packing — facade crate
//!
//! One-stop re-export of the whole workspace reproducing
//! *"Strip packing with precedence constraints and strip packing with
//! release times"* (Augustine, Banerjee, Irani; SPAA 2006 / TCS 2009).
//!
//! ```
//! use strip_packing::core::Instance;
//!
//! let inst = Instance::from_dims(&[(0.5, 1.0), (0.5, 2.0)]).unwrap();
//! let pl = strip_packing::pack::nfdh(&inst);
//! strip_packing::core::validate::assert_valid(&inst, &pl);
//! assert!(pl.height(&inst) <= 2.0 * inst.total_area() + inst.max_height());
//! ```
//!
//! Module map:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | items, instances, placements, validation, lower bounds |
//! | [`dag`] | precedence DAG substrate, critical path `F(s)` |
//! | [`engine`] | unified solver engine: `Solver` trait, registry, batch executor |
//! | [`pack`] | unconstrained strip packing (NFDH/FFDH/BFDH/Sleator/skyline) |
//! | [`precedence`] | §2: the `DC` algorithm, uniform-height shelf `F`, GGJY bin packing |
//! | [`lp`] | two-phase simplex LP solver |
//! | [`release`] | §3: APTAS for strip packing with release times |
//! | [`exact`] | exact solvers for small instances |
//! | [`fpga`] | K-column reconfigurable-device model |
//! | [`gen`] | workload generators incl. the paper's adversarial families |
//! | [`par`] | parallel map, worker pools and bounded retry over std scoped threads |
//! | [`serve`] | HTTP front end: shared cache server + solve endpoint (`spp serve`) |
//!
//! Algorithm lookup goes through the engine's registry:
//!
//! ```
//! use strip_packing::engine::{Registry, SolveRequest};
//!
//! let registry = Registry::builtin();
//! let solver = registry.get("dc-nfdh").unwrap();
//! let inst = strip_packing::core::Instance::from_dims(&[(0.5, 1.0)]).unwrap();
//! let report = strip_packing::engine::solve(&*solver, &SolveRequest::unconstrained(inst)).unwrap();
//! assert!(report.validation.passed());
//! ```

pub use spp_core as core;
pub use spp_dag as dag;
pub use spp_engine as engine;
pub use spp_exact as exact;
pub use spp_fpga as fpga;
pub use spp_gen as gen;
pub use spp_lp as lp;
pub use spp_pack as pack;
pub use spp_par as par;
pub use spp_precedence as precedence;
pub use spp_release as release;
pub use spp_serve as serve;
