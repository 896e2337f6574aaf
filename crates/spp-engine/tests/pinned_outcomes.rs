//! Pinned anytime-search outcomes. The converged portfolio search over a
//! fixed corpus is a pure function of its inputs, so one fingerprint over
//! everything it returns pins the whole candidate sequence: a change to
//! any candidate, accept decision, RNG draw, round count or placement
//! moves the constant. Decode-kernel speed-ups must leave it alone.

use spp_core::hash::Fnv1a;
use spp_dag::PrecInstance;
use spp_engine::{Registry, SolveRequest};
use spp_gen::suite::{self, FAMILIES};
use spp_pack::{improve_parallel, PortfolioConfig};

/// The seed solvers of the `batch-anytime` benchmark workload.
const SOLVERS: [&str; 3] = ["skyline", "dc-nfdh", "combined-greedy"];

/// The fingerprint of [`converged_portfolio_outcomes_are_pinned`]'s corpus.
const PINNED: u64 = 0x650b_4aa2_fcdf_cf5a;

/// Two small instances per suite family, plus the checked-in narrow-item
/// microbench whose contours carry ~40 segments.
fn corpus() -> Vec<(String, PrecInstance)> {
    let mut out: Vec<(String, PrecInstance)> = suite::suite(24, 24, 2 * FAMILIES.len())
        .into_iter()
        .map(|s| (s.name, s.prec))
        .collect();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../spp-bench/data/micro_n512.json"
    );
    let text = std::fs::read_to_string(path).expect("checked-in microbench instance");
    let micro = spp_gen::fileio::from_json(&text).expect("microbench instance parses");
    out.push(("micro_n512".to_string(), micro));
    out
}

#[test]
fn converged_portfolio_outcomes_are_pinned() {
    let registry = Registry::builtin();
    let mut h = Fnv1a::new();
    for (name, prec) in corpus() {
        let digest = spp_gen::fileio::digest(&prec);
        let req = SolveRequest::new(prec.clone());
        for solver in SOLVERS {
            let seed = spp_engine::solve(registry.get(solver).unwrap().as_ref(), &req)
                .unwrap_or_else(|e| panic!("{name} {solver}: {e}"))
                .placement;
            let out = improve_parallel(
                &prec,
                &seed,
                &PortfolioConfig {
                    streams: 2,
                    workers: 2,
                    seed: digest.as_u64() ^ 1,
                    ..PortfolioConfig::default()
                },
            );
            assert!(out.converged, "{name} {solver}: no deadline, must converge");
            h.write(&out.makespan.to_bits().to_le_bytes());
            h.write(&out.rounds.to_le_bytes());
            h.write(&out.improvements.to_le_bytes());
            h.write(&(out.winner as u64).to_le_bytes());
            for s in &out.streams {
                h.write(&s.makespan.to_bits().to_le_bytes());
                h.write(&s.rounds.to_le_bytes());
                h.write(&s.improvements.to_le_bytes());
                h.write(&[u8::from(s.converged)]);
            }
            for v in 0..prec.len() {
                let p = out.placement.pos(v);
                h.write(&p.x.to_bits().to_le_bytes());
                h.write(&p.y.to_bits().to_le_bytes());
            }
        }
    }
    assert_eq!(
        h.finish(),
        PINNED,
        "the converged search changed: fingerprint {:016x}",
        h.finish()
    );
}
