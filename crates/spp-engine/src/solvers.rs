//! Built-in [`Solver`] implementations wrapping the algorithm crates.
//!
//! Each wrapper is a thin adapter: it reads the knobs it needs from the
//! request's [`crate::SolveConfig`], calls the underlying crate entry
//! point, and reports honest capability flags. All paper algorithms and
//! baselines are covered:
//!
//! | names | crate entry point | honors |
//! |---|---|---|
//! | `nfdh ffdh bfdh sleator skyline wsnf` | `spp_pack::*` | — |
//! | `dc-nfdh dc-wsnf dc-ffdh` | `spp_precedence::dc` (§2, Thm 2.3) | precedence |
//! | `layered`, `greedy` | level / skyline heuristics | precedence |
//! | `shelf-f` | `spp_precedence::shelf_next_fit` (§2.2, Thm 2.6) | precedence (uniform heights) |
//! | `dc-release`, `combined-greedy` | `spp_precedence::combined` | precedence + release |
//! | `batched-ffdh`, `skyline-release` | `spp_release::baselines` | release |
//! | `online-skyline`, `online-shelf` | `spp_release::online::simulate` | release, online |
//! | `aptas` | `spp_release::aptas` (§3, Thm 3.5) | release |

use std::time::Duration;

use spp_core::{Instance, Placement};
use spp_pack::{OnlineShelfPacker, Packer, StripPacker};
use spp_release::online::OnlinePolicy;
use spp_release::AptasConfig;

use crate::request::SolveRequest;
use crate::solver::{Capabilities, EngineError, Solver};

/// An unconstrained packer from `spp-pack` (ignores edges and releases).
pub struct PackerSolver {
    name: &'static str,
    packer: Packer,
}

impl PackerSolver {
    pub fn new(packer: Packer) -> Self {
        PackerSolver {
            name: packer.name(),
            packer,
        }
    }
}

impl Solver for PackerSolver {
    fn name(&self) -> &str {
        self.name
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            a_bound: self.packer.satisfies_a_bound(),
            anytime: true,
            ..Capabilities::default()
        }
    }

    fn run(
        &self,
        req: &SolveRequest,
        _phases: &mut Vec<(String, Duration)>,
    ) -> Result<Placement, EngineError> {
        Ok(self.packer.pack(&req.prec.inst))
    }
}

/// §2 `DC` (Theorem 2.3) parameterized by its unconstrained subroutine.
pub struct DcSolver {
    name: &'static str,
    packer: Packer,
}

impl DcSolver {
    pub fn new(name: &'static str, packer: Packer) -> Self {
        DcSolver { name, packer }
    }
}

impl Solver for DcSolver {
    fn name(&self) -> &str {
        self.name
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            precedence: true,
            anytime: true,
            ..Capabilities::default()
        }
    }

    fn run(
        &self,
        req: &SolveRequest,
        _phases: &mut Vec<(String, Duration)>,
    ) -> Result<Placement, EngineError> {
        Ok(spp_precedence::dc(&req.prec, &self.packer))
    }
}

/// Level-decomposition baseline: pack each antichain layer, stack layers.
pub struct LayeredSolver;

impl Solver for LayeredSolver {
    fn name(&self) -> &str {
        "layered"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            precedence: true,
            anytime: true,
            ..Capabilities::default()
        }
    }

    fn run(
        &self,
        req: &SolveRequest,
        _phases: &mut Vec<(String, Duration)>,
    ) -> Result<Placement, EngineError> {
        Ok(spp_precedence::layered_pack(&req.prec, &Packer::Nfdh))
    }
}

/// Precedence-aware bottom-left skyline baseline.
pub struct GreedySolver;

impl Solver for GreedySolver {
    fn name(&self) -> &str {
        "greedy"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            precedence: true,
            anytime: true,
            ..Capabilities::default()
        }
    }

    fn run(
        &self,
        req: &SolveRequest,
        _phases: &mut Vec<(String, Duration)>,
    ) -> Result<Placement, EngineError> {
        Ok(spp_precedence::greedy_skyline(&req.prec))
    }
}

/// §2.2 shelf algorithm `F` (Theorem 2.6): uniform heights only.
pub struct ShelfFSolver;

impl Solver for ShelfFSolver {
    fn name(&self) -> &str {
        "shelf-f"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            precedence: true,
            uniform_height_only: true,
            anytime: true,
            ..Capabilities::default()
        }
    }

    fn check(&self, req: &SolveRequest) -> Result<(), EngineError> {
        if !req.prec.inst.is_empty() && req.prec.inst.uniform_height().is_none() {
            return Err(EngineError::Unsupported {
                solver: "shelf-f".into(),
                reason: "shelf F requires all items to share one height (§2.2)".into(),
            });
        }
        Ok(())
    }

    fn run(
        &self,
        req: &SolveRequest,
        _phases: &mut Vec<(String, Duration)>,
    ) -> Result<Placement, EngineError> {
        Ok(spp_precedence::shelf_next_fit(&req.prec).placement)
    }
}

/// Combined extension: `DC` per release class, classes stacked.
pub struct DcReleaseSolver;

impl Solver for DcReleaseSolver {
    fn name(&self) -> &str {
        "dc-release"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            precedence: true,
            release: true,
            anytime: true,
            ..Capabilities::default()
        }
    }

    fn run(
        &self,
        req: &SolveRequest,
        _phases: &mut Vec<(String, Duration)>,
    ) -> Result<Placement, EngineError> {
        Ok(spp_precedence::combined::dc_release_batched(
            &req.prec,
            &Packer::Nfdh,
        ))
    }
}

/// Combined extension: skyline greedy with release floors and edge floors.
pub struct CombinedGreedySolver;

impl Solver for CombinedGreedySolver {
    fn name(&self) -> &str {
        "combined-greedy"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            precedence: true,
            release: true,
            anytime: true,
            ..Capabilities::default()
        }
    }

    fn run(
        &self,
        req: &SolveRequest,
        _phases: &mut Vec<(String, Duration)>,
    ) -> Result<Placement, EngineError> {
        Ok(spp_precedence::combined::greedy_skyline_combined(&req.prec))
    }
}

/// Offline release-time baselines from `spp_release::baselines`.
pub struct ReleaseBaselineSolver {
    name: &'static str,
    run: fn(&Instance) -> Placement,
}

impl ReleaseBaselineSolver {
    pub fn batched_ffdh() -> Self {
        ReleaseBaselineSolver {
            name: "batched-ffdh",
            run: spp_release::baselines::batched_ffdh,
        }
    }

    pub fn skyline_release() -> Self {
        ReleaseBaselineSolver {
            name: "skyline-release",
            run: spp_release::baselines::skyline_release,
        }
    }
}

impl Solver for ReleaseBaselineSolver {
    fn name(&self) -> &str {
        self.name
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            release: true,
            anytime: true,
            ..Capabilities::default()
        }
    }

    fn run(
        &self,
        req: &SolveRequest,
        _phases: &mut Vec<(String, Duration)>,
    ) -> Result<Placement, EngineError> {
        Ok((self.run)(&req.prec.inst))
    }
}

/// Online scheduling policies (the §1 FPGA-OS setting): tasks are placed
/// in release order with no lookahead.
pub struct OnlineSolver {
    name: &'static str,
    shelf: bool,
}

impl OnlineSolver {
    pub fn skyline() -> Self {
        OnlineSolver {
            name: "online-skyline",
            shelf: false,
        }
    }

    pub fn shelf() -> Self {
        OnlineSolver {
            name: "online-shelf",
            shelf: true,
        }
    }
}

impl Solver for OnlineSolver {
    fn name(&self) -> &str {
        self.name
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            release: true,
            online: true,
            ..Capabilities::default()
        }
    }

    fn check(&self, req: &SolveRequest) -> Result<(), EngineError> {
        if self.shelf {
            let r = req.config.shelf_r;
            if !(0.0 < r && r < 1.0) {
                return Err(EngineError::Unsupported {
                    solver: self.name.into(),
                    reason: format!("shelf ratio r = {r} outside (0, 1)"),
                });
            }
            if let Some(item) = req
                .prec
                .inst
                .items()
                .iter()
                .find(|item| !OnlineShelfPacker::class_fits(r, item.h))
            {
                return Err(EngineError::Unsupported {
                    solver: self.name.into(),
                    reason: format!(
                        "shelf ratio r = {r} is too close to 1 for an item of height {}",
                        item.h
                    ),
                });
            }
        }
        Ok(())
    }

    fn run(
        &self,
        req: &SolveRequest,
        _phases: &mut Vec<(String, Duration)>,
    ) -> Result<Placement, EngineError> {
        let policy = if self.shelf {
            OnlinePolicy::Shelf {
                r: req.config.shelf_r,
            }
        } else {
            OnlinePolicy::Skyline
        };
        Ok(spp_release::online::simulate(&req.prec.inst, policy).placement)
    }
}

/// §3 APTAS (Algorithm 2, Theorem 3.5). Requires the paper's model:
/// heights ≤ 1 and widths ≥ `1/K`.
pub struct AptasSolver;

impl Solver for AptasSolver {
    fn name(&self) -> &str {
        "aptas"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            release: true,
            anytime: true,
            ..Capabilities::default()
        }
    }

    fn check(&self, req: &SolveRequest) -> Result<(), EngineError> {
        let cfg = &req.config;
        if !cfg.epsilon.is_finite() || cfg.epsilon <= 0.0 {
            return Err(EngineError::Unsupported {
                solver: "aptas".into(),
                reason: format!("epsilon = {} must be finite and positive", cfg.epsilon),
            });
        }
        if cfg.k == 0 {
            return Err(EngineError::Unsupported {
                solver: "aptas".into(),
                reason: "K must be at least 1".into(),
            });
        }
        // The pipeline walks ⌈3/ε⌉·K width groups per release class
        // whatever n is, ~1 ns each: cap it at ~0.1 s so no (ε, K) pins a
        // worker. In f64, since `AptasConfig::groups_per_class` can overflow.
        let groups = (3.0 / cfg.epsilon).ceil() * cfg.k as f64;
        if groups > 1e8 {
            return Err(EngineError::Unsupported {
                solver: "aptas".into(),
                reason: format!("⌈3/ε⌉·K = {groups:.0} width groups per class (at most 10^8)"),
            });
        }
        let min_w = 1.0 / cfg.k as f64;
        for it in req.prec.inst.items() {
            if it.h > 1.0 + spp_core::eps::EPS {
                return Err(EngineError::Unsupported {
                    solver: "aptas".into(),
                    reason: format!(
                        "item {} has height {} > 1 (§3 assumes heights ≤ 1)",
                        it.id, it.h
                    ),
                });
            }
            if it.w + spp_core::eps::EPS < min_w {
                return Err(EngineError::Unsupported {
                    solver: "aptas".into(),
                    reason: format!(
                        "item {} has width {} < 1/K = {min_w} (§3 assumes ≥ one column)",
                        it.id, it.w
                    ),
                });
            }
        }
        Ok(())
    }

    fn run(
        &self,
        req: &SolveRequest,
        phases: &mut Vec<(String, Duration)>,
    ) -> Result<Placement, EngineError> {
        let result = spp_release::aptas(
            &req.prec.inst,
            AptasConfig {
                epsilon: req.config.epsilon,
                k: req.config.k,
            },
        );
        // One report phase per pipeline stage (Lemmas 3.1–3.4); the
        // engine's "solve" phase picks up the remainder, so the list
        // stays disjoint and summable.
        for (name, d) in result.phases.named() {
            phases.push((name.to_string(), d));
        }
        Ok(result.placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;

    #[test]
    fn aptas_preconditions_are_engine_errors_not_panics() {
        // Width below 1/K must be refused, not assert! inside spp-release.
        let inst = Instance::from_dims(&[(0.05, 0.5)]).unwrap();
        let mut req = SolveRequest::unconstrained(inst);
        req.config.k = 4;
        let err = solve(&AptasSolver, &req).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported { .. }));

        // Height above 1 likewise.
        let inst = Instance::from_dims(&[(0.5, 2.0)]).unwrap();
        let err = solve(&AptasSolver, &SolveRequest::unconstrained(inst)).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported { .. }));
    }

    #[test]
    fn aptas_refuses_parameters_it_cannot_run_in_bounded_time() {
        // NaN and ∞ used to panic inside spp-release; ε = 1e-9 walked
        // 2.4·10¹⁰ width groups, and K = 10¹² overflows the usize count.
        let inst = Instance::from_dims(&[(0.5, 1.0), (0.5, 0.55), (0.5, 0.5)]).unwrap();
        let base = SolveRequest::unconstrained(inst);
        for (epsilon, k) in [
            (f64::NAN, 8),
            (f64::INFINITY, 8),
            (1e-9, 8),
            (1.0, 1_000_000_000_000),
        ] {
            let mut req = base.clone();
            req.config.epsilon = epsilon;
            req.config.k = k;
            let err = solve(&AptasSolver, &req).unwrap_err();
            assert!(
                matches!(err, EngineError::Unsupported { .. }),
                "epsilon={epsilon} k={k}: {err}"
            );
        }
        // The bound leaves the paper's useful range alone.
        let mut req = base;
        req.config.epsilon = 0.01;
        assert!(solve(&AptasSolver, &req).unwrap().validation.passed());
    }

    #[test]
    fn shelf_f_requires_uniform_heights() {
        let inst = Instance::from_dims(&[(0.5, 1.0), (0.5, 2.0)]).unwrap();
        let err = solve(&ShelfFSolver, &SolveRequest::unconstrained(inst)).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported { .. }));

        let uniform = Instance::from_dims(&[(0.5, 1.0), (0.4, 1.0)]).unwrap();
        let report = solve(&ShelfFSolver, &SolveRequest::unconstrained(uniform)).unwrap();
        assert!(report.validation.passed());
    }

    #[test]
    fn online_shelf_answers_items_shorter_than_eps() {
        // `h - EPS < 0` used to pass the class guard for every k, so the
        // solve never returned.
        let inst = Instance::from_dims(&[(0.5, 1e-10)]).unwrap();
        let report = solve(&OnlineSolver::shelf(), &SolveRequest::unconstrained(inst)).unwrap();
        assert!(report.validation.passed());

        // A ratio so close to 1 that log_r(h) leaves i32 used to wrap
        // the guard's k around forever, and once k saturated instead, to
        // open shelves shorter than their items; such a ratio is refused.
        for (dims, r) in [
            (&[(0.5, 0.5), (0.5, 1e-10)][..], 1.0 - 1e-12),
            (&[(0.5, 2.0), (0.5, 2.0)][..], 0.9999999999),
        ] {
            let mut req = SolveRequest::unconstrained(Instance::from_dims(dims).unwrap());
            req.config.shelf_r = r;
            let err = solve(&OnlineSolver::shelf(), &req).unwrap_err();
            assert!(
                matches!(err, EngineError::Unsupported { .. }),
                "r = {r}: {err}"
            );
        }
    }

    #[test]
    fn online_shelf_rejects_bad_ratio() {
        let inst = Instance::from_dims(&[(0.5, 1.0)]).unwrap();
        let mut req = SolveRequest::unconstrained(inst);
        req.config.shelf_r = 1.5;
        assert!(solve(&OnlineSolver::shelf(), &req).is_err());
    }
}
