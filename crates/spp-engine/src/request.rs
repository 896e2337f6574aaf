//! Typed solve requests: instance + optional DAG + optional release times
//! + tuning knobs.

use spp_core::Instance;
use spp_dag::PrecInstance;

/// Tuning knobs shared by every solver; each solver reads the fields it
/// cares about and ignores the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveConfig {
    /// APTAS target error `ε > 0` (Theorem 3.5).
    pub epsilon: f64,
    /// Number of FPGA columns `K` (the APTAS needs widths ≥ `1/K`).
    pub k: usize,
    /// Bucketing ratio `r ∈ (0, 1)` of the online shelf policy.
    pub shelf_r: f64,
    /// When true, [`crate::solve`] refuses a request carrying a constraint
    /// family (precedence edges, release times) the solver does not
    /// support. When false (default, matching the historical CLI), such
    /// constraints are ignored and recorded in the report's
    /// [`crate::Validation`].
    pub strict: bool,
    /// Validate the placement after solving (on by default; batch sweeps
    /// over trusted solvers may switch it off for throughput).
    pub validate: bool,
    /// Anytime improvement budget in milliseconds. `0` (the default) is
    /// one-shot constructive solving; a positive budget runs the
    /// remove-and-reinsert loop (`spp_pack::improve`) on any solver whose
    /// capabilities flag `anytime`, keeping the best placement found by
    /// the deadline. The improvement search is a pure function of
    /// `(instance digest, improve_seed)`; the budget only truncates it.
    pub budget_ms: u64,
    /// Seed mixed with the instance digest to address the improvement
    /// loop's removal-subset stream.
    pub improve_seed: u64,
    /// Portfolio width of the anytime layer: number of independent
    /// improvement streams run per budget (stream i is seeded
    /// `base ^ splitmix_mix(i)` and the strictly best stream wins, ties
    /// to the lowest index). Part of the signature — different widths
    /// explore different seed sets and can return different placements.
    /// Must be ≥ 1; `1` replays the single-stream search exactly.
    pub improve_streams: u64,
    /// Share a best-so-far envelope across portfolio streams. Extra
    /// pruning throughput, but results become scheduling-dependent, so
    /// it is off by default. In the signature: it changes outputs.
    pub improve_envelope: bool,
    /// Worker threads for the portfolio (`0` = available parallelism).
    /// Deliberately NOT in the signature: with the envelope off, the
    /// deterministic reduction makes results identical for any worker
    /// count, so caching by it would only fragment the cache.
    pub improve_workers: u64,
}

/// A rejected solve parameter: the parameter's name plus the
/// human-readable reason. `/solve` replies carry `param` next to the
/// message, so a client can tell a typo'd knob (`budget-ms` for
/// `budget_ms`) from a bad value without parsing prose.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamError {
    pub param: String,
    pub message: String,
}

impl ParamError {
    pub fn new(param: &str, message: impl Into<String>) -> ParamError {
        ParamError {
            param: param.to_string(),
            message: message.into(),
        }
    }
}

impl SolveConfig {
    /// The parameters [`SolveConfig::set`] accepts: `/solve`'s query
    /// names and, dashed, the CLI's solve flags. Not `improve_workers`:
    /// it is no part of a result's identity, so no remote client sets it.
    pub const PARAMS: [&'static str; 8] = [
        "epsilon",
        "k",
        "shelf_r",
        "strict",
        "budget_ms",
        "improve_seed",
        "improve_streams",
        "improve_envelope",
    ];

    /// Parse `value` into the parameter `name`. Only the syntax is
    /// checked here; [`SolveConfig::check`] checks the ranges once every
    /// parameter is set.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), ParamError> {
        let want = match name {
            "budget_ms" => " (want a whole number of milliseconds)",
            "improve_seed" => " (want an unsigned integer)",
            "improve_streams" => " (want a positive stream count)",
            "improve_envelope" => " (want true or false)",
            _ => "",
        };
        let bad = || ParamError::new(name, format!("bad {name} {value:?}{want}"));
        match name {
            "epsilon" => self.epsilon = value.parse().map_err(|_| bad())?,
            "k" => self.k = value.parse().map_err(|_| bad())?,
            "shelf_r" => self.shelf_r = value.parse().map_err(|_| bad())?,
            "strict" => self.strict = value.parse().map_err(|_| bad())?,
            "budget_ms" => self.budget_ms = value.parse().map_err(|_| bad())?,
            "improve_seed" => self.improve_seed = value.parse().map_err(|_| bad())?,
            "improve_streams" => self.improve_streams = value.parse().map_err(|_| bad())?,
            "improve_envelope" => self.improve_envelope = value.parse().map_err(|_| bad())?,
            _ => {
                let message = format!("unknown query parameter {name:?}");
                return Err(ParamError::new(name, message));
            }
        }
        Ok(())
    }

    /// The domain every solver may assume: APTAS needs a finite `ε > 0`
    /// and `K ≥ 1`, the online shelf `r ∈ (0, 1)`, the portfolio at least
    /// one stream. Out-of-range input is a [`ParamError`], never a solver
    /// panic.
    pub fn check(&self) -> Result<(), ParamError> {
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(ParamError::new(
                "epsilon",
                format!("epsilon must be positive, got {}", self.epsilon),
            ));
        }
        if self.k < 1 {
            return Err(ParamError::new("k", "k must be at least 1"));
        }
        if !self.shelf_r.is_finite() || self.shelf_r <= 0.0 || self.shelf_r >= 1.0 {
            return Err(ParamError::new(
                "shelf_r",
                format!("shelf_r must be in (0, 1), got {}", self.shelf_r),
            ));
        }
        if self.improve_streams < 1 {
            return Err(ParamError::new(
                "improve_streams",
                "improve_streams must be at least 1",
            ));
        }
        Ok(())
    }

    /// Deterministic signature of every knob that can change a solver's
    /// output, with floats in `{:.17e}` so equal signatures mean
    /// bit-equal configs. Shard reports store it (merge refuses a report
    /// written under different knobs) and the solve cache embeds it in
    /// every entry; cache file names carry its FNV-1a hash (see
    /// `CacheKey::file_name`).
    pub fn signature(&self) -> String {
        format!(
            "epsilon={:.17e} k={} shelf_r={:.17e} strict={} validate={} budget_ms={} improve_seed={} improve_streams={} improve_envelope={}",
            self.epsilon,
            self.k,
            self.shelf_r,
            self.strict,
            self.validate,
            self.budget_ms,
            self.improve_seed,
            self.improve_streams,
            self.improve_envelope
        )
    }
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            epsilon: 1.0,
            k: 8,
            shelf_r: 0.622,
            strict: false,
            validate: true,
            budget_ms: 0,
            improve_seed: 0,
            improve_streams: 1,
            improve_envelope: false,
            improve_workers: 0,
        }
    }
}

/// One problem to solve: a [`PrecInstance`] (rectangles + DAG; release
/// times live on the items) plus a [`SolveConfig`].
///
/// All three problem variants of the paper are expressible: an empty DAG
/// and zero releases give plain strip packing, edges give §2, positive
/// releases give §3, and both together give the combined extension.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    pub prec: PrecInstance,
    pub config: SolveConfig,
}

impl SolveRequest {
    /// Request over a precedence-constrained (and/or released) instance.
    pub fn new(prec: PrecInstance) -> Self {
        SolveRequest {
            prec,
            config: SolveConfig::default(),
        }
    }

    /// Request over a plain instance (empty DAG).
    pub fn unconstrained(inst: Instance) -> Self {
        SolveRequest::new(PrecInstance::unconstrained(inst))
    }

    /// Replace the config (builder style).
    pub fn with_config(mut self, config: SolveConfig) -> Self {
        self.config = config;
        self
    }

    /// True iff the request carries at least one precedence edge.
    pub fn has_precedence(&self) -> bool {
        self.prec.dag.edge_count() > 0
    }

    /// True iff the request carries at least one positive release time.
    pub fn has_release(&self) -> bool {
        self.prec.inst.items().iter().any(|it| it.release > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_signature_tracks_every_knob() {
        let base = SolveConfig::default();
        assert_eq!(base.signature(), SolveConfig::default().signature());
        let variants = [
            SolveConfig {
                epsilon: 0.5,
                ..base.clone()
            },
            SolveConfig {
                k: 16,
                ..base.clone()
            },
            SolveConfig {
                shelf_r: 0.5,
                ..base.clone()
            },
            SolveConfig {
                strict: true,
                ..base.clone()
            },
            SolveConfig {
                validate: false,
                ..base.clone()
            },
            SolveConfig {
                budget_ms: 250,
                ..base.clone()
            },
            SolveConfig {
                improve_seed: 1,
                ..base.clone()
            },
            SolveConfig {
                improve_streams: 4,
                ..base.clone()
            },
            SolveConfig {
                improve_envelope: true,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.signature(), base.signature());
        }
    }

    #[test]
    fn improve_workers_is_an_execution_detail_not_identity() {
        // Worker count cannot change results (envelope off), so two
        // configs differing only in workers must share a signature —
        // their cache entries are interchangeable.
        let base = SolveConfig::default();
        let threaded = SolveConfig {
            improve_workers: 8,
            ..base.clone()
        };
        assert_eq!(base.signature(), threaded.signature());
    }

    #[test]
    fn set_parses_each_param_and_names_a_bad_one() {
        let values = [
            ("epsilon", "0.25"),
            ("k", "16"),
            ("shelf_r", "0.5"),
            ("strict", "true"),
            ("budget_ms", "250"),
            ("improve_seed", "7"),
            ("improve_streams", "4"),
            ("improve_envelope", "true"),
        ];
        assert_eq!(values.map(|(name, _)| name), SolveConfig::PARAMS);
        let mut config = SolveConfig::default();
        for (name, value) in values {
            config.set(name, value).unwrap();
        }
        let expected = SolveConfig {
            epsilon: 0.25,
            k: 16,
            shelf_r: 0.5,
            strict: true,
            budget_ms: 250,
            improve_seed: 7,
            improve_streams: 4,
            improve_envelope: true,
            ..SolveConfig::default()
        };
        assert_eq!(config, expected);

        for (name, value, message) in [
            (
                "budget_ms",
                "abc",
                "bad budget_ms \"abc\" (want a whole number of milliseconds)",
            ),
            (
                "budget_ms",
                "-5",
                "bad budget_ms \"-5\" (want a whole number of milliseconds)",
            ),
            ("k", "x", "bad k \"x\""),
            ("strict", "yes", "bad strict \"yes\""),
            (
                "improve_streams",
                "-2",
                "bad improve_streams \"-2\" (want a positive stream count)",
            ),
            (
                "improve_workers",
                "2",
                "unknown query parameter \"improve_workers\"",
            ),
            ("budget-ms", "5", "unknown query parameter \"budget-ms\""),
        ] {
            assert_eq!(
                config.set(name, value),
                Err(ParamError::new(name, message)),
                "{name}={value}"
            );
        }
        assert_eq!(config, expected, "a rejected value changes nothing");
    }

    #[test]
    fn check_refuses_values_outside_every_solver_domain() {
        assert_eq!(SolveConfig::default().check(), Ok(()));
        for (name, value) in [
            ("epsilon", "0"),
            ("epsilon", "-1"),
            ("epsilon", "nan"),
            ("epsilon", "inf"),
            ("k", "0"),
            ("shelf_r", "0"),
            ("shelf_r", "1"),
            ("shelf_r", "NaN"),
            ("improve_streams", "0"),
        ] {
            let mut config = SolveConfig::default();
            config.set(name, value).unwrap();
            assert_eq!(
                config.check().map_err(|e| e.param),
                Err(name.to_string()),
                "{name}={value}"
            );
        }
        // The APTAS's cost bound is the solver's to judge, not the
        // parameter domain's: a tiny but positive ε passes.
        let mut config = SolveConfig::default();
        config.set("epsilon", "1e-9").unwrap();
        assert_eq!(config.check(), Ok(()));
    }

    #[test]
    fn constraint_detection() {
        let plain =
            SolveRequest::unconstrained(Instance::from_dims(&[(0.5, 1.0), (0.5, 2.0)]).unwrap());
        assert!(!plain.has_precedence());
        assert!(!plain.has_release());

        let released =
            SolveRequest::unconstrained(Instance::from_dims_release(&[(0.5, 1.0, 3.0)]).unwrap());
        assert!(released.has_release());

        let dag = spp_dag::Dag::new(2, &[(0, 1)]).unwrap();
        let prec = SolveRequest::new(PrecInstance::new(
            Instance::from_dims(&[(0.5, 1.0), (0.5, 2.0)]).unwrap(),
            dag,
        ));
        assert!(prec.has_precedence());
        assert!(!prec.has_release());
    }
}
