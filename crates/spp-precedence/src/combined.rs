//! Extension: precedence constraints **and** release times together.
//!
//! The paper treats the two variants separately (§2 ignores releases, §3
//! ignores precedence); scheduling practice usually has both. This module
//! provides the natural combined model:
//!
//! * a combined lower bound — the release-aware critical path
//!   `F_r(s) = max(r_s, max_pred F_r) + h_s` (earliest finish in an
//!   infinitely wide strip), together with `AREA`;
//! * [`greedy_skyline_combined`] — the skyline greedy with floors
//!   `max(release, predecessors' tops)` (the `spp-precedence::greedy`
//!   engine already supports floors; this entry point simply *documents
//!   and validates* both constraint families);
//! * [`dc_release_batched`] — a `DC`-based heuristic: partition tasks by
//!   release class, run `DC` per class, stack class blocks no lower than
//!   their release. Inherits Theorem 2.3 *within* each class; the
//!   cross-class stacking is a heuristic (no combined guarantee is known —
//!   the paper leaves the combined problem open).

use spp_core::Placement;
use spp_dag::PrecInstance;
use spp_pack::StripPacker;

/// Release-aware critical path values: earliest finish times when width
/// is unconstrained. `F_r(s) = max(r_s, max_{p ∈ IN(s)} F_r(p)) + h_s`.
pub fn release_critical_values(prec: &PrecInstance) -> Vec<f64> {
    let order = spp_dag::topo::topological_order(&prec.dag).expect("acyclic");
    let mut f = vec![0.0f64; prec.len()];
    for &v in &order {
        let it = prec.inst.item(v);
        let start = prec
            .dag
            .preds(v)
            .iter()
            .map(|&p| f[p])
            .fold(it.release, f64::max);
        f[v] = start + it.h;
    }
    f
}

/// Combined lower bound: `max(AREA, max_s F_r(s))`.
pub fn combined_lower_bound(prec: &PrecInstance) -> f64 {
    let f = release_critical_values(prec)
        .into_iter()
        .fold(0.0f64, f64::max);
    f.max(prec.area_lb())
}

/// Greedy skyline under precedence + release constraints (both validated).
pub fn greedy_skyline_combined(prec: &PrecInstance) -> Placement {
    let pl = crate::greedy::greedy_skyline(prec);
    debug_assert!(prec.validate(&pl).is_ok());
    pl
}

/// `DC` per release class, classes stacked at `max(previous top, release)`.
///
/// Valid for both constraint families when every precedence edge points
/// from an earlier-or-equal release class to a later-or-equal one, which
/// holds after [`normalize_releases`]; this function applies the
/// normalization itself.
pub fn dc_release_batched(prec: &PrecInstance, packer: &(impl StripPacker + ?Sized)) -> Placement {
    let prec = normalize_releases(prec);
    // distinct release levels ascending
    let mut levels: Vec<f64> = prec.inst.items().iter().map(|it| it.release).collect();
    levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
    levels.dedup_by(|a, b| (*a - *b).abs() <= spp_core::eps::EPS);

    let mut pl = Placement::zeroed(prec.len());
    let mut top = 0.0f64;
    for &level in &levels {
        let ids: Vec<usize> = prec
            .inst
            .items()
            .iter()
            .filter(|it| (it.release - level).abs() <= spp_core::eps::EPS)
            .map(|it| it.id)
            .collect();
        let (sub, back) = prec.restrict(&ids);
        let sub_pl = crate::dc::dc(&sub, packer);
        let base = top.max(level);
        pl.absorb(&sub_pl, &back, base);
        top = base + sub_pl.height(&sub.inst);
    }
    debug_assert!(
        prec.validate(&pl).is_ok(),
        "combined DC placement invalid: {:?}",
        prec.validate(&pl)
    );
    pl
}

/// Propagate releases down the DAG: a task can never start before any
/// ancestor's release, so lifting `r_v` to
/// `max(r_v, max_pred r_pred)` changes no feasible schedule. After this,
/// precedence edges never point to an earlier release class, which the
/// batched solver requires.
pub fn normalize_releases(prec: &PrecInstance) -> PrecInstance {
    let order = spp_dag::topo::topological_order(&prec.dag).expect("acyclic");
    let mut release: Vec<f64> = prec.inst.items().iter().map(|it| it.release).collect();
    for &v in &order {
        for &p in prec.dag.preds(v) {
            release[v] = release[v].max(release[p]);
        }
    }
    let items = prec
        .inst
        .items()
        .iter()
        .map(|it| spp_core::Item::with_release(it.id, it.w, it.h, release[it.id]))
        .collect();
    PrecInstance::new(
        spp_core::Instance::new(items).expect("normalization keeps items valid"),
        prec.dag.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use spp_core::Instance;
    use spp_dag::Dag;
    use spp_pack::Packer;

    fn combined_case(seed: u64, n: usize) -> PrecInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims: Vec<(f64, f64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0.1..0.9),
                    rng.gen_range(0.1..1.0),
                    rng.gen_range(0.0..4.0_f64).floor(),
                )
            })
            .collect();
        let inst = Instance::from_dims_release(&dims).unwrap();
        let dag = spp_dag::gen::random_order(&mut rng, n, 0.15);
        PrecInstance::new(inst, dag)
    }

    #[test]
    fn release_critical_values_respect_both() {
        let inst =
            Instance::from_dims_release(&[(0.5, 1.0, 0.0), (0.5, 1.0, 5.0), (0.5, 2.0, 0.0)])
                .unwrap();
        let dag = Dag::new(3, &[(0, 1), (1, 2)]).unwrap();
        let p = PrecInstance::new(inst, dag);
        let f = release_critical_values(&p);
        assert_eq!(f[0], 1.0);
        assert_eq!(f[1], 6.0); // waits for its release at 5
        assert_eq!(f[2], 8.0);
        spp_core::assert_close!(combined_lower_bound(&p), 8.0);
    }

    #[test]
    fn normalization_lifts_descendant_releases() {
        let inst = Instance::from_dims_release(&[(0.5, 1.0, 3.0), (0.5, 1.0, 0.0)]).unwrap();
        let p = PrecInstance::new(inst, Dag::new(2, &[(0, 1)]).unwrap());
        let np = normalize_releases(&p);
        assert_eq!(np.inst.item(1).release, 3.0);
        assert_eq!(np.inst.item(0).release, 3.0);
    }

    #[test]
    fn both_solvers_valid_on_combined_instances() {
        for seed in 0..8u64 {
            let p = combined_case(seed, 25);
            let lb = combined_lower_bound(&p);
            let g = greedy_skyline_combined(&p);
            p.assert_valid(&g);
            assert!(g.height(&p.inst) + 1e-9 >= lb);
            let d = dc_release_batched(&p, &Packer::Nfdh);
            p.assert_valid(&d);
            assert!(d.height(&p.inst) + 1e-9 >= lb);
        }
    }

    #[test]
    fn no_releases_reduces_to_dc() {
        let mut rng = StdRng::seed_from_u64(4);
        let inst = spp_gen::rects::uniform(&mut rng, 20, (0.1, 0.9), (0.1, 1.0));
        let dag = spp_dag::gen::random_order(&mut rng, 20, 0.2);
        let p = PrecInstance::new(inst, dag);
        let a = dc_release_batched(&p, &Packer::Nfdh);
        let b = crate::dc::dc(&p, &Packer::Nfdh);
        spp_core::assert_close!(a.height(&p.inst), b.height(&p.inst));
    }

    #[test]
    fn no_precedence_respects_releases() {
        let inst = Instance::from_dims_release(&[(1.0, 1.0, 0.0), (1.0, 1.0, 5.0)]).unwrap();
        let p = PrecInstance::unconstrained(inst);
        let d = dc_release_batched(&p, &Packer::Nfdh);
        p.assert_valid(&d);
        spp_core::assert_close!(d.height(&p.inst), 6.0);
    }

    /// With no edges and every release distinct, each release class is a
    /// single item, so the batched solver reduces to a closed form: items
    /// in release order, each at `x = 0, y = max(top, r_i)`, then
    /// `top += h_i`. The placement must equal it exactly over 200 one-item
    /// `DC` runs.
    #[test]
    fn distinct_releases_stack_in_release_order() {
        let mut rng = StdRng::seed_from_u64(23);
        let inst = spp_gen::release::poisson_arrivals(
            &mut rng,
            200,
            0.25,
            spp_gen::release::ReleaseParams::default(),
        );
        let p = PrecInstance::unconstrained(inst);
        let mut order: Vec<usize> = (0..p.len()).collect();
        order.sort_by(|&a, &b| p.inst.item(a).release.total_cmp(&p.inst.item(b).release));
        for pair in order.windows(2) {
            let (a, b) = (p.inst.item(pair[0]), p.inst.item(pair[1]));
            assert!(
                b.release - a.release > spp_core::eps::EPS,
                "releases must be distinct"
            );
        }

        let mut want = Placement::zeroed(p.len());
        let mut top = 0.0f64;
        for &id in &order {
            let it = p.inst.item(id);
            let y = top.max(it.release);
            want.set(id, 0.0, y);
            top = y + it.h;
        }
        let got = dc_release_batched(&p, &Packer::Nfdh);
        p.assert_valid(&got);
        assert_eq!(got, want);
    }

    #[test]
    fn combined_lb_dominates_individual_lbs() {
        for seed in 0..6u64 {
            let p = combined_case(seed + 100, 20);
            let lb = combined_lower_bound(&p);
            assert!(lb + 1e-9 >= p.critical_lb());
            assert!(lb + 1e-9 >= p.area_lb());
            assert!(lb + 1e-9 >= spp_core::bounds::release_lb(&p.inst));
        }
    }
}
