//! Machine-readable benchmark records.
//!
//! `run_all` emits one JSON record per measurement — experiment wall
//! times plus an engine-registry sweep with per-(algo, family, n) height,
//! ratio and wall time — so each PR can check in a `BENCH_*.json`
//! baseline that future PRs diff against. No serde in the dependency set,
//! so serialization is by hand (the schema is flat).

use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};
use spp_core::json::escape;
use spp_engine::{solve, Registry, SolveRequest};
use spp_gen::rects::DagFamily;

/// One benchmark measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Experiment id (`"E1"`, …) or `"sweep"` for registry sweep cells.
    pub experiment: String,
    /// Solver name, `"-"` for whole-experiment records.
    pub algo: String,
    /// Instance family name, `"-"` for whole-experiment records.
    pub family: String,
    /// Instance size (0 for whole-experiment records).
    pub n: usize,
    /// Mean packing height over the cell's seeds (0 when not applicable).
    pub height: f64,
    /// Mean height / combined lower bound (0 when not applicable).
    pub ratio: f64,
    /// Wall-clock seconds for the whole cell.
    pub wall_s: f64,
}

/// Serialize records as a JSON array (pretty, one record per line —
/// diff-friendly for checked-in baselines).
pub fn to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"experiment\": \"{}\", \"algo\": \"{}\", \"family\": \"{}\", \
             \"n\": {}, \"height\": {:.6}, \"ratio\": {:.6}, \"wall_s\": {:.6}}}{}\n",
            escape(&r.experiment),
            escape(&r.algo),
            escape(&r.family),
            r.n,
            r.height,
            r.ratio,
            r.wall_s,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out.push('\n');
    out
}

/// Engine-registry sweep: every precedence-capable solver on DAG
/// workloads, every unconstrained packer on plain workloads — one record
/// per (algo, family, n) with mean height, mean ratio and cell wall time.
pub fn baseline_sweep(seeds: u64, sizes: &[usize]) -> Vec<BenchRecord> {
    let registry = Registry::builtin();
    let mut records = Vec::new();
    let families = [DagFamily::Layered, DagFamily::Random, DagFamily::Empty];
    for family in families {
        for &n in sizes {
            let jobs: Vec<spp_dag::PrecInstance> = (0..seeds)
                .map(|seed| {
                    let mut rng = StdRng::seed_from_u64(crate::experiments::SEED ^ seed ^ n as u64);
                    let inst = spp_gen::rects::uniform(&mut rng, n, (0.05, 0.95), (0.05, 1.0));
                    let dag = family.build(&mut rng, n);
                    spp_dag::PrecInstance::new(inst, dag)
                })
                .collect();
            let unconstrained = family == DagFamily::Empty;
            for entry in registry.filter(|c| {
                !c.release && !c.uniform_height_only && !c.online && (c.precedence != unconstrained)
            }) {
                let solver = entry.build();
                let t0 = Instant::now();
                let outcomes: Vec<(f64, f64)> = spp_par::par_map(&jobs, |prec| {
                    let report = solve(&*solver, &SolveRequest::new(prec.clone()))
                        .expect("sweep solvers accept these instances");
                    assert!(
                        report.validation.passed(),
                        "{} produced an invalid placement",
                        entry.name
                    );
                    (report.makespan, report.ratio())
                });
                let wall_s = t0.elapsed().as_secs_f64();
                let mean = |f: fn(&(f64, f64)) -> f64| {
                    outcomes.iter().map(f).sum::<f64>() / outcomes.len() as f64
                };
                records.push(BenchRecord {
                    experiment: "sweep".into(),
                    algo: entry.name.into(),
                    family: family.name().into(),
                    n,
                    height: mean(|o| o.0),
                    ratio: mean(|o| o.1),
                    wall_s,
                });
            }
        }
    }
    records
}

/// Anytime sweep: per-(algo, n) records of the budgeted improvement —
/// `height` is the mean improved makespan, `ratio` the mean improved /
/// seed makespan (≤ 1; strictly < 1 where the budget bought height).
/// All records carry the `anytime` family tag so baselines can be
/// filtered to the improvement subsystem alone.
pub fn anytime_sweep(seeds: u64, sizes: &[usize], budget_ms: u64) -> Vec<BenchRecord> {
    let registry = Registry::builtin();
    let mut records = Vec::new();
    for &n in sizes {
        let jobs: Vec<spp_dag::PrecInstance> = (0..seeds)
            .map(|seed| {
                let mut rng =
                    StdRng::seed_from_u64(crate::experiments::SEED ^ !seed ^ (n as u64) << 1);
                let inst = spp_gen::rects::uniform(&mut rng, n, (0.05, 0.95), (0.05, 1.0));
                let dag = DagFamily::Layered.build(&mut rng, n);
                spp_dag::PrecInstance::new(inst, dag)
            })
            .collect();
        for entry in
            registry.filter(|c| c.anytime && c.precedence && !c.release && !c.uniform_height_only)
        {
            let solver = entry.build();
            let t0 = Instant::now();
            let outcomes: Vec<(f64, f64)> = spp_par::par_map(&jobs, |prec| {
                let mut request = SolveRequest::new(prec.clone());
                request.config.budget_ms = budget_ms;
                let report =
                    solve(&*solver, &request).expect("sweep solvers accept these instances");
                assert!(
                    report.validation.passed(),
                    "{} produced an invalid improved placement",
                    entry.name
                );
                assert!(
                    report.makespan <= report.seed_makespan + 1e-9,
                    "{} worsened under budget",
                    entry.name
                );
                (report.makespan, report.makespan / report.seed_makespan)
            });
            let wall_s = t0.elapsed().as_secs_f64();
            let mean = |f: fn(&(f64, f64)) -> f64| {
                outcomes.iter().map(f).sum::<f64>() / outcomes.len() as f64
            };
            records.push(BenchRecord {
                experiment: "E16".into(),
                algo: entry.name.into(),
                family: "anytime".into(),
                n,
                height: mean(|o| o.0),
                ratio: mean(|o| o.1),
                wall_s,
            });
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_escaped() {
        let records = vec![
            BenchRecord {
                experiment: "E1".into(),
                algo: "dc-nfdh".into(),
                family: "layered".into(),
                n: 64,
                height: 12.5,
                ratio: 1.25,
                wall_s: 0.125,
            },
            BenchRecord {
                experiment: "x\"y".into(),
                algo: "-".into(),
                family: "-".into(),
                n: 0,
                height: 0.0,
                ratio: 0.0,
                wall_s: 1.0,
            },
        ];
        let j = to_json(&records);
        assert!(j.starts_with("[\n") && j.trim_end().ends_with(']'));
        assert!(j.contains("\"algo\": \"dc-nfdh\""));
        assert!(j.contains("x\\\"y"));
        assert_eq!(j.matches('{').count(), 2);
        assert_eq!(j.matches("},").count(), 1);
    }

    #[test]
    fn anytime_sweep_records_carry_the_family_tag() {
        let records = anytime_sweep(2, &[12], 10);
        assert!(!records.is_empty());
        for r in &records {
            assert_eq!(r.experiment, "E16");
            assert_eq!(r.family, "anytime");
            assert!(r.ratio > 0.0 && r.ratio <= 1.0 + 1e-9, "{r:?}");
            assert!(r.height > 0.0, "{r:?}");
        }
    }

    #[test]
    fn sweep_covers_both_workload_kinds() {
        let records = baseline_sweep(2, &[12]);
        assert!(records
            .iter()
            .any(|r| r.algo == "nfdh" && r.family == "empty"));
        assert!(records
            .iter()
            .any(|r| r.algo == "dc-nfdh" && r.family == "layered"));
        // Unconstrained packers don't run on DAG families and vice versa.
        assert!(!records
            .iter()
            .any(|r| r.algo == "nfdh" && r.family == "layered"));
        assert!(!records
            .iter()
            .any(|r| r.algo == "dc-nfdh" && r.family == "empty"));
        for r in &records {
            assert!(r.height > 0.0 && r.ratio >= 1.0 - 1e-9, "{r:?}");
        }
    }
}
