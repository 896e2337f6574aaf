//! Online shelf packing (Csirik–Woeginger style).
//!
//! The paper's related work cites shelf algorithms for *online* strip
//! packing (Csirik & Woeginger, IPL 1997): rectangles arrive one at a
//! time and must be placed immediately and irrevocably. The classic
//! scheme buckets heights geometrically: a rectangle of height `h` goes
//! to a shelf of nominal height `r^k` where `r^{k+1} < h ≤ r^k`
//! (`0 < r < 1`), first-fit over the open shelves of that class, opening
//! a new shelf on top when none fits.
//!
//! Wasted height per shelf is bounded by the bucketing ratio `r`, which
//! is how the online competitive analysis goes through; this
//! implementation exposes the live height so the online-vs-offline gap
//! can be measured (experiment E13). Each insert takes a floor, so the
//! same packer with release times as floors is the shelf policy of
//! `spp_release::online::simulate`.

use spp_core::{Instance, Placement};

/// An online shelf packer with geometric height classes.
#[derive(Debug, Clone)]
pub struct OnlineShelfPacker {
    r: f64,
    /// open shelves: (height class exponent, y, used width, nominal height)
    shelves: Vec<OpenShelf>,
    top: f64,
}

#[derive(Debug, Clone)]
struct OpenShelf {
    class: i32,
    y: f64,
    used: f64,
}

/// The height the class guards compare against: `h - EPS` absorbs
/// rounding, but for an item no taller than EPS that would be ≤ 0, below
/// every power of r, so such an item is classed exactly instead.
fn guard_height(h: f64) -> f64 {
    if h > spp_core::eps::EPS {
        h - spp_core::eps::EPS
    } else {
        h
    }
}

impl OnlineShelfPacker {
    /// `r ∈ (0, 1)` is the bucketing ratio (heights are rounded up to the
    /// nearest power of `r`); `r ≈ 0.622` minimizes the classic
    /// competitive ratio, `r = 0.5` gives dyadic shelves.
    pub fn new(r: f64) -> Self {
        assert!(r > 0.0 && r < 1.0, "bucketing ratio must be in (0,1)");
        OnlineShelfPacker {
            r,
            shelves: Vec::new(),
            top: 0.0,
        }
    }

    /// Whether the height class of `h` under ratio `r` has an `i32`
    /// exponent, as [`insert`](Self::insert) needs. False only for `r`
    /// within about 1e-9 of 1 and heights far from 1, where `log_r(h)`
    /// leaves the range of `i32`.
    pub fn class_fits(r: f64, h: f64) -> bool {
        [h, guard_height(h)].iter().all(|x| {
            let k = (x.ln() / r.ln()).floor();
            f64::from(i32::MIN) + 2.0 < k && k < f64::from(i32::MAX) - 2.0
        })
    }

    /// Height class exponent of `h`: the unique k with
    /// `r^{k+1} < h ≤ r^k` (k may be negative for h > 1), up to an `EPS`
    /// tolerance for items taller than `EPS`.
    fn class_of(&self, h: f64) -> i32 {
        let lo = guard_height(h);
        // smallest k with r^k >= h  <=>  k <= log_r(h); log_r decreasing
        let mut k = (h.ln() / self.r.ln()).floor() as i32;
        // guard against boundary rounding; the checked steps stop at the
        // ends of i32, which the cast saturates to when the class does
        // not fit (see `class_fits`)
        while self.r.powi(k) < lo {
            let Some(next) = k.checked_sub(1) else { break };
            k = next;
        }
        while let Some(next) = k.checked_add(1).filter(|&n| self.r.powi(n) >= lo) {
            k = next;
        }
        k
    }

    /// Place one rectangle no lower than `floor` (its release time in the
    /// online-with-releases setting, 0 otherwise); returns its `(x, y)`.
    /// A shelf that starts below the floor is skipped.
    pub fn insert(&mut self, w: f64, h: f64, floor: f64) -> (f64, f64) {
        assert!(w > 0.0 && w <= 1.0 && h > 0.0);
        let class = self.class_of(h);
        // first fit among open shelves of this class at or above the floor
        for s in &mut self.shelves {
            if s.class == class
                && s.used + w <= 1.0 + spp_core::eps::EPS
                && s.y + spp_core::eps::EPS >= floor
            {
                let pos = (s.used, s.y);
                s.used += w;
                return pos;
            }
        }
        // open a new shelf of nominal height r^class at the top, or at
        // the floor when that is higher
        let nominal = self.r.powi(class);
        debug_assert!(h <= nominal + 1e-9, "item taller than its shelf class");
        let y = self.top.max(floor);
        self.top = y + nominal;
        self.shelves.push(OpenShelf { class, y, used: w });
        (0.0, y)
    }

    /// Current total height (top of the highest shelf).
    pub fn height(&self) -> f64 {
        self.top
    }

    /// Number of shelves opened so far.
    pub fn shelf_count(&self) -> usize {
        self.shelves.len()
    }
}

/// Pack an instance online **in id order** (the arrival order), returning
/// the placement.
pub fn online_shelf_pack(inst: &Instance, r: f64) -> Placement {
    let mut packer = OnlineShelfPacker::new(r);
    let mut pl = Placement::zeroed(inst.len());
    for it in inst.items() {
        let (x, y) = packer.insert(it.w, it.h, 0.0);
        pl.set(it.id, x, y);
    }
    pl
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_class_items_share_shelves() {
        let mut p = OnlineShelfPacker::new(0.5);
        // heights in (0.5, 1] share class 0 (nominal height 1)
        let (x0, y0) = p.insert(0.4, 0.9, 0.0);
        let (x1, y1) = p.insert(0.4, 0.6, 0.0);
        assert_eq!((x0, y0), (0.0, 0.0));
        assert_eq!(y1, 0.0);
        assert!(x1 > 0.0);
        assert_eq!(p.shelf_count(), 1);
        spp_core::assert_close!(p.height(), 1.0);
    }

    #[test]
    fn different_classes_get_different_shelves() {
        let mut p = OnlineShelfPacker::new(0.5);
        p.insert(0.4, 0.9, 0.0); // class 0
        p.insert(0.4, 0.3, 0.0); // class 1 (nominal 0.5)
        assert_eq!(p.shelf_count(), 2);
        spp_core::assert_close!(p.height(), 1.5);
    }

    #[test]
    fn full_shelf_opens_new_same_class() {
        let mut p = OnlineShelfPacker::new(0.5);
        p.insert(0.7, 1.0, 0.0);
        let (_, y) = p.insert(0.7, 1.0, 0.0);
        spp_core::assert_close!(y, 1.0);
        assert_eq!(p.shelf_count(), 2);
    }

    #[test]
    fn heights_above_one_are_supported() {
        let mut p = OnlineShelfPacker::new(0.5);
        p.insert(0.5, 1.7, 0.0); // class -1 (nominal 2.0)
        spp_core::assert_close!(p.height(), 2.0);
    }

    #[test]
    fn class_boundaries_are_exact() {
        let p = OnlineShelfPacker::new(0.5);
        assert_eq!(p.class_of(1.0), 0);
        assert_eq!(p.class_of(0.51), 0);
        assert_eq!(p.class_of(0.5), 1);
        assert_eq!(p.class_of(0.25), 2);
        assert_eq!(p.class_of(2.0), -1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Online packing is always valid, for any bucketing ratio.
        #[test]
        fn online_always_valid(
            dims in proptest::collection::vec((0.01f64..1.0, 0.01f64..2.0), 0..60),
            r in 0.3f64..0.9,
        ) {
            let inst = Instance::from_dims(&dims).unwrap();
            let pl = online_shelf_pack(&inst, r);
            prop_assert!(spp_core::validate::validate(&inst, &pl).is_ok(),
                "{:?}", spp_core::validate::validate(&inst, &pl));
        }

        /// The bucketing waste is bounded: every item's shelf is at most
        /// a 1/r factor taller than the item.
        #[test]
        fn online_height_bounded_by_stack(
            dims in proptest::collection::vec((0.01f64..1.0, 0.01f64..2.0), 1..60),
        ) {
            let inst = Instance::from_dims(&dims).unwrap();
            let pl = online_shelf_pack(&inst, 0.5);
            // crude sanity: never worse than one dyadic shelf per item
            let bound: f64 = dims.iter().map(|d| 2.0 * d.1).sum();
            prop_assert!(pl.height(&inst) <= bound + 1e-9);
        }
    }
}
