//! Algorithm 1 (`DC`) — divide-and-conquer precedence strip packing.
//!
//! ```text
//! DC(y, S):
//!   1  if S = ∅ return 0
//!   2  recompute F(s) on the sub-DAG induced by S
//!   3  H := F(S) = max_s F(s)
//!   4  S_mid := { s : F(s) > H/2  ∧  F(s) − h_s ≤ H/2 }
//!   5  S_bot := { s : F(s) ≤ H/2 }
//!   6  S_top := { s : F(s) − h_s > H/2 }
//!   7  place S_bot by DC;  9 place S_mid by A;  11 place S_top by DC
//! ```
//!
//! * `S_mid` is an antichain (Lemma 2.1): every rectangle in it straddles
//!   the horizontal line `H/2` in the infinitely-wide-strip schedule, so
//!   no two can be ordered. It is therefore safe to pack with an
//!   unconstrained algorithm `A`.
//! * `S_mid ≠ ∅` (Lemma 2.2): a tight path has total height `H`, so some
//!   element of it crosses `H/2`; hence `|S_bot| + |S_top| < |S|` and the
//!   recursion terminates.
//! * With `A(S') ≤ 2·AREA(S') + max h` (NFDH — see `spp-pack`),
//!   Theorem 2.3 gives
//!   `DC(S) ≤ log₂(n+1)·F(S) + 2·AREA(S) ≤ (2 + log₂(n+1))·OPT(S, E)`.
//!
//! The two recursive calls are independent (their placements are
//! y-translation-invariant), but they run one after the other on the
//! calling thread. Most sub-calls cost less than spawning a thread would,
//! and every caller (the `spp serve` worker pool, the batch executor's
//! `par_map`) already runs one solve per core, so a fork could only
//! contend with a sibling solve.

use spp_core::Placement;
use spp_dag::PrecInstance;
use spp_pack::StripPacker;

/// Statistics gathered during a `DC` run (for the experiment harness).
#[derive(Debug, Clone, Default)]
pub struct DcStats {
    /// Number of calls to the unconstrained subroutine `A`.
    pub a_calls: usize,
    /// Maximum recursion depth reached.
    pub max_depth: usize,
    /// Total rectangles routed through `S_mid` (= n on termination).
    pub mid_total: usize,
}

/// Pack a precedence-constrained instance with `DC`, using `packer` as the
/// unconstrained subroutine `A`. Returns a valid placement starting at
/// `y = 0`.
///
/// `DC` solves the §2 problem, which has no release times; any release
/// times on the instance are **ignored** (use `spp-release` for §3).
///
/// ```
/// use spp_core::Instance;
/// use spp_dag::{Dag, PrecInstance};
/// use spp_precedence::{dc, dc_bound};
///
/// // a diamond: 0 -> {1, 2} -> 3
/// let inst = Instance::from_dims(&[(0.5, 1.0), (0.4, 1.0), (0.4, 2.0), (0.5, 1.0)]).unwrap();
/// let dag = Dag::new(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
/// let prec = PrecInstance::new(inst, dag);
///
/// let placement = dc(&prec, &spp_pack::Packer::Nfdh);
/// prec.assert_valid(&placement);                       // geometry + every edge
/// let h = placement.height(&prec.inst);
/// assert!(h >= prec.critical_lb());                    // ≥ F(S) = 4 here
/// assert!(h <= dc_bound(&prec) + 1e-9);                // Theorem 2.3, certified
/// ```
pub fn dc(prec: &PrecInstance, packer: &(impl StripPacker + ?Sized)) -> Placement {
    dc_with_stats(prec, packer).0
}

/// [`dc`] plus run statistics.
pub fn dc_with_stats(
    prec: &PrecInstance,
    packer: &(impl StripPacker + ?Sized),
) -> (Placement, DcStats) {
    // strip release times: DC is the §2 algorithm (precedence only)
    let stripped;
    let prec = if prec.inst.items().iter().any(|it| it.release > 0.0) {
        let items = prec
            .inst
            .items()
            .iter()
            .map(|it| spp_core::Item::new(it.id, it.w, it.h))
            .collect();
        stripped = PrecInstance::new(
            spp_core::Instance::new(items).expect("zeroing releases keeps items valid"),
            prec.dag.clone(),
        );
        &stripped
    } else {
        prec
    };
    let ids: Vec<usize> = (0..prec.len()).collect();
    let (frags, _h, stats) = dc_rec(prec, &ids, packer, 1);
    let mut pl = Placement::zeroed(prec.len());
    for (id, x, y) in frags {
        pl.set(id, x, y);
    }
    (pl, stats)
}

/// The Theorem 2.3 bound `log₂(n+1)·F(S) + 2·AREA(S)` for this instance
/// (a certified upper bound on the height `dc` produces when the packer
/// satisfies the A-bound).
pub fn dc_bound(prec: &PrecInstance) -> f64 {
    let n = prec.len() as f64;
    ((n + 1.0).log2()) * prec.critical_lb() + 2.0 * prec.area_lb()
}

/// The Theorem 2.3 approximation guarantee `(2 + log₂(n+1))` for size `n`.
pub fn dc_ratio_guarantee(n: usize) -> f64 {
    2.0 + ((n as f64) + 1.0).log2()
}

type Frags = Vec<(usize, f64, f64)>;

/// Recursive worker over a set of *global* ids. Returns placement
/// fragments `(global id, x, y relative to this block's base)`, the block
/// height, and statistics.
fn dc_rec(
    prec: &PrecInstance,
    ids: &[usize],
    packer: &(impl StripPacker + ?Sized),
    depth: usize,
) -> (Frags, f64, DcStats) {
    if ids.is_empty() {
        return (Vec::new(), 0.0, DcStats::default());
    }

    // Step 2: recompute F on the induced sub-problem.
    let (sub, back) = prec.restrict(ids);
    let heights: Vec<f64> = sub.inst.items().iter().map(|it| it.h).collect();
    let f = spp_dag::critical_path_values(&sub.dag, &heights);
    // Step 3.
    let h_total = f.iter().cloned().fold(0.0f64, f64::max);
    let half = h_total / 2.0;

    // Steps 4–6 (local indices).
    let mut bot = Vec::new();
    let mut mid = Vec::new();
    let mut top = Vec::new();
    for (i, &fi) in f.iter().enumerate() {
        if fi <= half {
            bot.push(back[i]);
        } else if fi - heights[i] <= half {
            mid.push(back[i]);
        } else {
            top.push(back[i]);
        }
    }
    // Lemma 2.2 guarantees S_mid ≠ ∅ in exact arithmetic. Floating-point
    // rounding of `F(s) − h_s` can misclassify the crossing element when
    // heights differ by ~1 ulp from the tight-path sums (e.g. the Fig. 1
    // family with ε → 0). The recursion stays correct and terminating
    // regardless: a source always has F − h = 0 ≤ H/2 (never in S_top),
    // and max F = H > H/2 means S_bot ≠ S, so both recursive calls are on
    // strictly smaller sets even when S_mid is empty.

    // Steps 7–12. The mid block is packed by A on its induced instance.
    let (mut frags, bot_h, bot_stats) = dc_rec(prec, &bot, packer, depth + 1);
    let (top_frags, top_h, top_stats) = dc_rec(prec, &top, packer, depth + 1);
    let (mid_inst, mid_back) = prec.inst.restrict(&mid);
    let mid_pl = packer.pack(&mid_inst);
    debug_assert!(
        spp_core::validate::validate(&mid_inst, &mid_pl).is_ok(),
        "subroutine A produced an invalid placement"
    );
    let mid_h = mid_pl.height(&mid_inst);

    // Compose: bot at 0, mid above bot, top above mid.
    frags.reserve(mid.len() + top_frags.len());
    for (local, &gid) in mid_back.iter().enumerate() {
        let p = mid_pl.pos(local);
        frags.push((gid, p.x, p.y + bot_h));
    }
    for (gid, x, y) in top_frags {
        frags.push((gid, x, y + bot_h + mid_h));
    }

    let stats = DcStats {
        a_calls: bot_stats.a_calls + top_stats.a_calls + 1,
        max_depth: depth.max(bot_stats.max_depth).max(top_stats.max_depth),
        mid_total: bot_stats.mid_total + top_stats.mid_total + mid.len(),
    };
    (frags, bot_h + mid_h + top_h, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use spp_core::Instance;
    use spp_dag::Dag;
    use spp_pack::Packer;

    fn nfdh() -> Packer {
        Packer::Nfdh
    }

    #[test]
    fn empty_and_single() {
        let p = PrecInstance::unconstrained(Instance::new(vec![]).unwrap());
        let pl = dc(&p, &nfdh());
        assert_eq!(pl.height(&p.inst), 0.0);

        let p1 = PrecInstance::unconstrained(Instance::from_dims(&[(0.5, 2.0)]).unwrap());
        let pl1 = dc(&p1, &nfdh());
        p1.assert_valid(&pl1);
        spp_core::assert_close!(pl1.height(&p1.inst), 2.0);
    }

    #[test]
    fn chain_is_stacked_tight() {
        let inst = Instance::from_dims(&[(0.3, 1.0), (0.3, 1.0), (0.3, 1.0)]).unwrap();
        let p = PrecInstance::new(inst, Dag::chain(3));
        let pl = dc(&p, &nfdh());
        p.assert_valid(&pl);
        // A chain of height 3 can't be packed shorter.
        spp_core::assert_close!(pl.height(&p.inst), 3.0);
    }

    #[test]
    fn independent_halves_share_width() {
        let inst = Instance::from_dims(&[(0.5, 1.0), (0.5, 1.0)]).unwrap();
        let p = PrecInstance::unconstrained(inst);
        let pl = dc(&p, &nfdh());
        p.assert_valid(&pl);
        spp_core::assert_close!(pl.height(&p.inst), 1.0);
    }

    #[test]
    fn diamond_respects_both_branches() {
        let inst = Instance::from_dims(&[(0.5, 1.0), (0.4, 2.0), (0.4, 1.0), (0.5, 1.0)]).unwrap();
        let dag = Dag::new(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let p = PrecInstance::new(inst, dag);
        let pl = dc(&p, &nfdh());
        p.assert_valid(&pl);
        // critical path 0 -> 1 -> 3 has height 4
        assert!(pl.height(&p.inst) + 1e-9 >= 4.0);
        assert!(pl.height(&p.inst) <= dc_bound(&p) + 1e-9);
    }

    #[test]
    fn stats_count_mid_and_calls() {
        let inst = Instance::from_dims(&[(0.2, 1.0); 7]).unwrap();
        let p = PrecInstance::new(inst, Dag::chain(7));
        let (pl, stats) = dc_with_stats(&p, &nfdh());
        p.assert_valid(&pl);
        assert_eq!(stats.mid_total, 7, "every item passes through S_mid");
        assert!(stats.a_calls >= 1);
        assert!(stats.max_depth >= 1);
    }

    /// `DC` calls its subroutine `A` only from the caller's thread: the
    /// recursion never forks, so a solve costs its caller one thread.
    /// Several instances make a fork likely to show even while sibling
    /// tests keep other cores busy. A 1-core host gives a core-budgeted
    /// fork no spare core, so there this test would pass even for a
    /// forking recursion.
    #[test]
    fn a_runs_only_on_the_callers_thread() {
        struct RecordingNfdh {
            threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
        }
        impl StripPacker for RecordingNfdh {
            fn name(&self) -> &'static str {
                "recording-nfdh"
            }
            fn pack(&self, inst: &Instance) -> Placement {
                self.threads
                    .lock()
                    .unwrap()
                    .push(std::thread::current().id());
                Packer::Nfdh.pack(inst)
            }
        }

        let n = 200;
        let caller = std::thread::current().id();
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let inst = spp_gen::rects::uniform(&mut rng, n, (0.05, 0.95), (0.05, 1.0));
            let dag = spp_gen::rects::DagFamily::Layered.build(&mut rng, n);
            let p = PrecInstance::new(inst, dag);
            let packer = RecordingNfdh {
                threads: Default::default(),
            };
            let (pl, stats) = dc_with_stats(&p, &packer);
            p.assert_valid(&pl);
            let threads = packer.threads.into_inner().unwrap();
            assert_eq!(threads.len(), stats.a_calls);
            let forked = threads.iter().filter(|&&t| t != caller).count();
            assert_eq!(
                forked,
                0,
                "seed {seed}: {forked} of {} A-calls ran on a forked thread",
                threads.len()
            );
        }
    }

    #[test]
    fn bound_formula() {
        let inst = Instance::from_dims(&[(0.5, 1.0), (0.5, 1.0), (0.5, 1.0)]).unwrap();
        let p = PrecInstance::new(inst, Dag::chain(3));
        // F = 3, AREA = 1.5, n = 3 -> bound = 2*3 + 2*1.5 = 9
        spp_core::assert_close!(dc_bound(&p), 9.0);
        spp_core::assert_close!(dc_ratio_guarantee(3), 4.0);
    }

    #[test]
    fn works_with_all_packers() {
        let mut rng = StdRng::seed_from_u64(3);
        let inst = spp_gen::rects::uniform(&mut rng, 40, (0.05, 0.8), (0.1, 1.0));
        let p = spp_gen::rects::with_layered_dag(&mut rng, inst, 6, 0.2);
        for packer in spp_pack::traits::ALL_PACKERS {
            let pl = dc(&p, &packer);
            p.assert_valid(&pl);
        }
    }

    #[test]
    fn matches_exact_on_small_instances() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..10 {
            let n = rng.gen_range(1..6);
            let dims: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen_range(0.2..0.9), rng.gen_range(0.2..1.0)))
                .collect();
            let inst = Instance::from_dims(&dims).unwrap();
            let dag = spp_dag::gen::random_order(&mut rng, n, 0.4);
            let p = PrecInstance::new(inst, dag);
            let opt = spp_exact::exact_strip(&p, spp_exact::ExactConfig::default());
            assert!(opt.proven_optimal);
            let pl = dc(&p, &nfdh());
            p.assert_valid(&pl);
            let ratio = pl.height(&p.inst) / opt.height;
            assert!(ratio + 1e-9 >= 1.0, "DC beat the optimum?! ratio {ratio}");
            assert!(
                ratio <= dc_ratio_guarantee(n) + 1e-9,
                "ratio {ratio} exceeds guarantee for n={n}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Theorem 2.3: DC ≤ log₂(n+1)·F + 2·AREA, and the placement is
        /// valid, on random DAG workloads.
        #[test]
        fn dc_respects_theorem_bound(
            seed in 0u64..5000,
            n in 1usize..50,
            edge_p in 0.0f64..0.5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dims: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen_range(0.05..1.0), rng.gen_range(0.05..1.0)))
                .collect();
            let inst = Instance::from_dims(&dims).unwrap();
            let dag = spp_dag::gen::random_order(&mut rng, n, edge_p);
            let p = PrecInstance::new(inst, dag);
            let pl = dc(&p, &nfdh());
            prop_assert!(p.validate(&pl).is_ok(), "{:?}", p.validate(&pl));
            let h = pl.height(&p.inst);
            prop_assert!(
                h <= dc_bound(&p) + 1e-9,
                "DC height {} exceeds Theorem 2.3 bound {}", h, dc_bound(&p)
            );
            prop_assert!(h + 1e-9 >= p.lower_bound());
        }
    }
}
