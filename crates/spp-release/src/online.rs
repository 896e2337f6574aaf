//! Online scheduling with release times.
//!
//! §1 motivates release times with *operating systems for reconfigurable
//! platforms* (Steiger–Walder–Platzner): tasks arrive over time and the
//! scheduler places each one **at arrival, irrevocably**, knowing nothing
//! of future arrivals. This module is the event-driven simulator for that
//! setting; the offline APTAS (Algorithm 2) is the clairvoyant comparison
//! point (experiment E13).
//!
//! Two online policies:
//! * **skyline** — drop the arriving task at the lowest-leftmost skyline
//!   position at or above its release time (spatial backfilling);
//! * **shelf** — geometric height classes as in online strip packing
//!   (Csirik–Woeginger): [`OnlineShelfPacker`] with each task's release
//!   as its floor, so no shelf it joins or opens starts before it.
//!
//! Besides the makespan, the simulator reports per-task *waiting times*
//! (`start − release`), the metric an OS paper would care about.

use spp_core::{Instance, Placement};
use spp_pack::{OnlineShelfPacker, Skyline};

/// Which online policy to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OnlinePolicy {
    /// Skyline bottom-left with release floors.
    Skyline,
    /// Online shelves with bucketing ratio `r ∈ (0, 1)`.
    Shelf { r: f64 },
}

/// Simulation outcome.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    pub placement: Placement,
    pub makespan: f64,
    /// Mean of `start − release` over all tasks.
    pub mean_wait: f64,
    /// Maximum `start − release`.
    pub max_wait: f64,
    /// Area / (makespan × strip width).
    pub utilization: f64,
}

/// Simulate an online policy. Tasks are processed in release order (ties
/// by id) — the arrival order an online scheduler would see.
pub fn simulate(inst: &Instance, policy: OnlinePolicy) -> OnlineOutcome {
    let mut order: Vec<usize> = (0..inst.len()).collect();
    order.sort_by(|&a, &b| {
        inst.item(a)
            .release
            .partial_cmp(&inst.item(b).release)
            .unwrap()
            .then(a.cmp(&b))
    });

    let mut pl = Placement::zeroed(inst.len());
    match policy {
        OnlinePolicy::Skyline => {
            let mut sky = Skyline::new();
            for &id in &order {
                let it = inst.item(id);
                let (x, y) = sky.best_position(it.w, it.release);
                sky.place(x, y, it.w, it.h);
                pl.set(id, x, y);
            }
        }
        OnlinePolicy::Shelf { r } => {
            let mut packer = OnlineShelfPacker::new(r);
            for &id in &order {
                let it = inst.item(id);
                let (x, y) = packer.insert(it.w, it.h, it.release);
                pl.set(id, x, y);
            }
        }
    }

    let makespan = pl.height(inst);
    let waits: Vec<f64> = inst
        .items()
        .iter()
        .map(|it| pl.pos(it.id).y - it.release)
        .collect();
    let mean_wait = if waits.is_empty() {
        0.0
    } else {
        waits.iter().sum::<f64>() / waits.len() as f64
    };
    let max_wait = waits.iter().cloned().fold(0.0, f64::max);
    OnlineOutcome {
        utilization: if makespan > 0.0 {
            inst.total_area() / makespan
        } else {
            0.0
        },
        placement: pl,
        makespan,
        mean_wait,
        max_wait,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn params() -> spp_gen::release::ReleaseParams {
        spp_gen::release::ReleaseParams {
            k: 4,
            column_widths: true,
            h: (0.1, 1.0),
        }
    }

    #[test]
    fn both_policies_valid_and_waits_nonnegative() {
        let mut rng = StdRng::seed_from_u64(55);
        let inst = spp_gen::release::poisson_arrivals(&mut rng, 40, 0.2, params());
        for policy in [OnlinePolicy::Skyline, OnlinePolicy::Shelf { r: 0.5 }] {
            let out = simulate(&inst, policy);
            spp_core::validate::assert_valid(&inst, &out.placement);
            assert!(out.mean_wait >= 0.0);
            assert!(out.max_wait + 1e-9 >= out.mean_wait);
            assert!(out.utilization > 0.0 && out.utilization <= 1.0);
        }
    }

    #[test]
    fn empty_queue_trivial() {
        let inst = Instance::new(vec![]).unwrap();
        let out = simulate(&inst, OnlinePolicy::Skyline);
        assert_eq!(out.makespan, 0.0);
        assert_eq!(out.mean_wait, 0.0);
    }

    #[test]
    fn skyline_backfills_idle_gaps() {
        // A full-width early task, then two narrow late ones that fit side
        // by side right at their release — zero waiting.
        let inst =
            Instance::from_dims_release(&[(1.0, 1.0, 0.0), (0.5, 1.0, 5.0), (0.5, 1.0, 5.0)])
                .unwrap();
        let out = simulate(&inst, OnlinePolicy::Skyline);
        spp_core::assert_close!(out.makespan, 6.0);
        spp_core::assert_close!(out.max_wait, 0.0);
    }

    #[test]
    fn online_never_beats_offline_opt_f() {
        let mut rng = StdRng::seed_from_u64(56);
        let p = spp_gen::release::ReleaseParams {
            k: 3,
            column_widths: true,
            h: (0.1, 1.0),
        };
        let inst = spp_gen::release::poisson_arrivals(&mut rng, 15, 0.3, p);
        let opt_f = crate::colgen::opt_f(&inst);
        for policy in [OnlinePolicy::Skyline, OnlinePolicy::Shelf { r: 0.5 }] {
            let out = simulate(&inst, policy);
            assert!(
                out.makespan + 1e-6 >= opt_f,
                "online {} beat OPT_f {}",
                out.makespan,
                opt_f
            );
        }
    }

    /// Pins every `online-shelf` placement bit for bit: an FNV-1a over the
    /// position bits of Poisson queues at three seeds and a suite, each
    /// packed at three bucketing ratios.
    #[test]
    fn shelf_placements_are_pinned() {
        let mut corpus: Vec<Instance> = [3, 11, 29]
            .into_iter()
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                spp_gen::release::poisson_arrivals(&mut rng, 60, 0.2, params())
            })
            .collect();
        corpus.extend(
            spp_gen::suite::suite(7, 32, 16)
                .into_iter()
                .map(|s| s.prec.inst),
        );
        let mut h = spp_core::hash::Fnv1a::new();
        for inst in &corpus {
            for r in [0.5, 0.622, 0.8] {
                for p in simulate(inst, OnlinePolicy::Shelf { r })
                    .placement
                    .positions()
                {
                    h.write(&p.x.to_bits().to_le_bytes());
                    h.write(&p.y.to_bits().to_le_bytes());
                }
            }
        }
        assert_eq!(h.finish(), 0x5d2e_bdff_7361_d9df, "{:#018x}", h.finish());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn simulator_valid_on_random_queues(
            items in proptest::collection::vec(
                (0.25f64..1.0, 0.05f64..1.0, 0.0f64..8.0), 0..40),
            shelf in proptest::bool::ANY,
        ) {
            let inst = Instance::from_dims_release(&items).unwrap();
            let policy = if shelf {
                OnlinePolicy::Shelf { r: 0.62 }
            } else {
                OnlinePolicy::Skyline
            };
            let out = simulate(&inst, policy);
            prop_assert!(spp_core::validate::validate(&inst, &out.placement).is_ok());
        }
    }
}
