//! Skyline (bottom-left) packing.
//!
//! The *skyline* is the upper contour of the packed region: a sequence of
//! horizontal segments spanning the strip. Placing a rectangle of width
//! `w` at a candidate position costs the maximum segment height under its
//! span; the bottom-left rule picks the candidate minimizing `(y, x)`.
//!
//! Unlike shelf algorithms, skyline packing has no worst-case guarantee,
//! but it is the standard practical heuristic and gives `DC` a strong
//! ablation point. The [`Skyline`] structure itself is reused by the
//! precedence-aware greedy baseline (`spp-precedence::greedy`) through the
//! `min_y` parameter of [`Skyline::best_position`]: a task whose
//! predecessors finish at height `t` simply asks for a position with
//! `y ≥ t`.

use spp_core::{Instance, Placement};

/// One segment of the skyline: `[x, x + w)` at height `y`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub x: f64,
    pub w: f64,
    pub y: f64,
}

/// Reusable buffers for [`Skyline::place`]. Living inside the
/// [`Skyline`] (rather than being reallocated per call) keeps the decode
/// inner loop of the anytime improvement search allocation-free once the
/// buffers have grown to their steady-state capacity.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The next contour being assembled by [`Skyline::place`].
    build: Vec<Segment>,
    /// Right-of-span clips collected during the same pass.
    clips: Vec<Segment>,
}

/// The skyline contour over the unit strip.
#[derive(Debug, Clone)]
pub struct Skyline {
    segs: Vec<Segment>,
    /// `Σ w·y` over `segs`, summed by [`Skyline::place`] as it builds.
    area: f64,
    scratch: Scratch,
}

impl Default for Skyline {
    fn default() -> Self {
        Self::new()
    }
}

/// Append `s` to an in-order contour, merging with the previous segment
/// when heights match and the segments are adjacent (the same
/// canonicalization the sort-based rebuild performed), and add the
/// piece's area at the height it is stored at to `area`.
fn push_merged(out: &mut Vec<Segment>, area: &mut f64, s: Segment) {
    if let Some(last) = out.last_mut() {
        if spp_core::eps::approx_eq(last.y, s.y) && spp_core::eps::approx_eq(last.x + last.w, s.x) {
            last.w += s.w;
            *area += s.w * last.y;
            return;
        }
    }
    *area += s.w * s.y;
    out.push(s);
}

impl Skyline {
    /// Fresh skyline: one segment covering the whole strip at height 0.
    pub fn new() -> Self {
        Skyline {
            segs: vec![Segment {
                x: 0.0,
                w: 1.0,
                y: 0.0,
            }],
            area: 0.0,
            scratch: Scratch::default(),
        }
    }

    /// Reset to the fresh flat contour, keeping all allocated capacity —
    /// the anytime decode loop resets one skyline per round instead of
    /// constructing a new one.
    pub fn reset(&mut self) {
        self.segs.clear();
        self.segs.push(Segment {
            x: 0.0,
            w: 1.0,
            y: 0.0,
        });
        self.area = 0.0;
    }

    /// The segments, left to right (non-overlapping, covering `[0, 1]`).
    pub fn segments(&self) -> &[Segment] {
        &self.segs
    }

    /// Area under the contour, `Σ w·y` over its segments, trapped waste
    /// included. Placing an item at a [`Skyline::best_position`] raises
    /// it by the item's `w·h` or more, less `EPS`-thin pieces: the edges
    /// of the span that no overlap test sees, and the pieces of width
    /// `≤ EPS` that [`Skyline::place`] drops.
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Maximum skyline height over the span `[x, x + w)`.
    pub fn span_height(&self, x: f64, w: f64) -> f64 {
        let mut h: f64 = 0.0;
        for s in &self.segs {
            if spp_core::eps::intervals_overlap(s.x, s.x + s.w, x, x + w) {
                h = h.max(s.y);
            }
        }
        h
    }

    /// Best (lowest, then leftmost) position for a rectangle of width `w`
    /// with the extra constraint `y ≥ min_y`. Candidates are segment left
    /// edges (and `1 − w`, to allow right-flush placements).
    ///
    /// **A record-chain sweep.** Candidate x's arrive in nondecreasing
    /// order (segment starts are sorted and the clamp to `[0, 1 − w]` is
    /// monotone), so the scan's tie clause — `approx_eq(y, by)` with
    /// `x < bx − EPS` — can never fire after the first candidate: a later
    /// candidate replaces the best only with `y < by − EPS`. The best is
    /// therefore a chain of strict records against the cut `by − EPS`,
    /// and the sweep only has to find the next candidate whose window is
    /// entirely below the cut:
    ///
    /// * once `min_y ≥ cut`, no later candidate can win, and it stops;
    /// * a candidate whose window overlaps a segment `j` with `y ≥ cut`
    ///   cannot win, and neither can any candidate up to segment `j`'s
    ///   own left edge: its `x` lies between this one's and `j`'s start,
    ///   so its window overlaps `j` by at least as much. The sweep jumps
    ///   straight to candidate `j + 1`;
    /// * a candidate whose window holds no such segment is the next
    ///   record, and its tallest segment then blocks every candidate up
    ///   to that segment's edge in the same way.
    ///
    /// Each window is walked from the first segment ending after `x` to
    /// the last starting before `x + w`, testing overlap with the same
    /// `intervals_overlap` call and folding heights with the same `max`
    /// in the same order as [`Skyline::best_position_scan`]. Segments
    /// outside that range cannot overlap, so both return bit-identical
    /// positions (property tested below).
    ///
    /// Returns `(x, y)`.
    pub fn best_position(&self, w: f64, min_y: f64) -> (f64, f64) {
        let segs = &self.segs;
        let n = segs.len();
        let mut best: Option<(f64, f64)> = None;
        // Strict records only: a later candidate wins iff its y < cut.
        let mut cut = f64::INFINITY;
        let mut lo = 0usize; // first segment ending after the window start
        let mut c = 0usize;
        while c <= n {
            let raw = if c < n { segs[c].x } else { 1.0 - w };
            if raw < -spp_core::eps::EPS || raw + w > 1.0 + spp_core::eps::EPS {
                c += 1;
                continue;
            }
            let x = raw.max(0.0).min(1.0 - w);
            let end = x + w;
            while lo < n && segs[lo].x + segs[lo].w <= x {
                lo += 1;
            }
            let mut span_h = 0.0f64;
            let mut tallest = None;
            let mut blocked = None;
            let mut i = lo;
            while i < n && segs[i].x < end {
                let s = &segs[i];
                if spp_core::eps::intervals_overlap(s.x, s.x + s.w, x, end) {
                    if s.y >= cut {
                        blocked = Some(i);
                        break;
                    }
                    if s.y >= span_h {
                        tallest = Some(i);
                    }
                    span_h = span_h.max(s.y);
                }
                i += 1;
            }
            if let Some(j) = blocked {
                c = c.max(j) + 1;
                continue;
            }
            let y = span_h.max(min_y);
            best = Some((x, y));
            cut = y - spp_core::eps::EPS;
            if min_y >= cut {
                break;
            }
            // y is the tallest segment's height, so it blocks every
            // candidate up to its own left edge.
            c = c.max(tallest.unwrap_or(c)) + 1;
        }
        best.expect("width ≤ 1 always has a candidate")
    }

    /// The reference implementation of [`Skyline::best_position`]: a full
    /// `span_height` rescan per candidate, O(S²) per call. Kept (not
    /// cfg(test)-gated) as the differential-test oracle and as the E17
    /// bench baseline the sweep is measured against.
    pub fn best_position_scan(&self, w: f64, min_y: f64) -> (f64, f64) {
        let mut best: Option<(f64, f64)> = None;
        let mut consider = |x: f64| {
            if x < -spp_core::eps::EPS || x + w > 1.0 + spp_core::eps::EPS {
                return;
            }
            let x = x.max(0.0).min(1.0 - w);
            let y = self.span_height(x, w).max(min_y);
            match best {
                None => best = Some((x, y)),
                Some((bx, by)) => {
                    if y < by - spp_core::eps::EPS
                        || (spp_core::eps::approx_eq(y, by) && x < bx - spp_core::eps::EPS)
                    {
                        best = Some((x, y));
                    }
                }
            }
        };
        for s in &self.segs {
            consider(s.x);
        }
        consider(1.0 - w);
        best.expect("width ≤ 1 always has a candidate")
    }

    /// Commit a rectangle of width `w`, height `h` at `(x, y)`: the skyline
    /// over `[x, x + w)` is raised to `y + h`.
    ///
    /// The caller must have obtained `(x, y)` from [`Skyline::best_position`]
    /// (or guarantee `y ≥ span_height(x, w)`), otherwise the placement
    /// would overlap previously committed rectangles; this is checked in
    /// debug builds.
    pub fn place(&mut self, x: f64, y: f64, w: f64, h: f64) {
        debug_assert!(
            spp_core::eps::approx_ge(y, self.span_height(x, w)),
            "skyline placement sinks below the contour"
        );
        let top = y + h;
        let (x0, x1) = (x, x + w);
        // Rebuild into the reusable scratch buffer, already in x-order:
        // left clips come first (segments are sorted and disjoint, so
        // their left portions are too), then the raised span at x0, then
        // the right clips (which all start at ≥ x1 > x0, nondecreasing).
        // This is the same contour the old sort-based rebuild produced,
        // bit for bit, without the per-call allocation and sort.
        let Skyline {
            segs,
            area,
            scratch,
        } = self;
        *area = 0.0;
        let build = &mut scratch.build;
        let clips = &mut scratch.clips;
        build.clear();
        clips.clear();
        for s in segs.iter() {
            let (s0, s1) = (s.x, s.x + s.w);
            // part of s left of the span
            if s0 < x0 - spp_core::eps::EPS {
                let wleft = (s1.min(x0)) - s0;
                if wleft > spp_core::eps::EPS {
                    push_merged(
                        build,
                        area,
                        Segment {
                            x: s0,
                            w: wleft,
                            y: s.y,
                        },
                    );
                }
            }
            // part of s right of the span
            if s1 > x1 + spp_core::eps::EPS {
                let start = s0.max(x1);
                let wright = s1 - start;
                if wright > spp_core::eps::EPS {
                    clips.push(Segment {
                        x: start,
                        w: wright,
                        y: s.y,
                    });
                }
            }
        }
        push_merged(
            build,
            area,
            Segment {
                x: x0,
                w: x1 - x0,
                y: top,
            },
        );
        for &clip in clips.iter() {
            push_merged(build, area, clip);
        }
        std::mem::swap(segs, build);
    }

    /// Current maximum height of the contour.
    pub fn max_height(&self) -> f64 {
        self.segs.iter().map(|s| s.y).fold(0.0, f64::max)
    }
}

/// Bottom-left skyline packing: sort by non-increasing height (ties by
/// non-increasing width then id) and drop each rectangle at its
/// bottom-left position.
pub fn skyline_pack(inst: &Instance) -> Placement {
    let mut order: Vec<usize> = (0..inst.len()).collect();
    order.sort_by(|&a, &b| {
        let (ia, ib) = (inst.item(a), inst.item(b));
        ib.h.partial_cmp(&ia.h)
            .unwrap()
            .then(ib.w.partial_cmp(&ia.w).unwrap())
            .then(a.cmp(&b))
    });
    let mut sky = Skyline::new();
    let mut pl = Placement::zeroed(inst.len());
    for &id in &order {
        let it = inst.item(id);
        let (x, y) = sky.best_position(it.w, 0.0);
        sky.place(x, y, it.w, it.h);
        pl.set(id, x, y);
    }
    pl
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_skyline_is_flat() {
        let sky = Skyline::new();
        assert_eq!(sky.segments().len(), 1);
        assert_eq!(sky.span_height(0.2, 0.5), 0.0);
        assert_eq!(sky.max_height(), 0.0);
    }

    #[test]
    fn place_raises_span_only() {
        let mut sky = Skyline::new();
        sky.place(0.0, 0.0, 0.4, 1.0);
        assert_eq!(sky.span_height(0.0, 0.4), 1.0);
        assert_eq!(sky.span_height(0.4, 0.6), 0.0);
        assert_eq!(sky.segments().len(), 2);
    }

    #[test]
    fn best_position_fills_valley() {
        let mut sky = Skyline::new();
        sky.place(0.0, 0.0, 0.3, 1.0);
        sky.place(0.7, 0.0, 0.3, 1.0);
        // valley [0.3, 0.7) at height 0
        let (x, y) = sky.best_position(0.4, 0.0);
        spp_core::assert_close!(x, 0.3);
        assert_eq!(y, 0.0);
        // too wide for the valley -> must go on top
        let (_, y2) = sky.best_position(0.5, 0.0);
        assert_eq!(y2, 1.0);
    }

    #[test]
    fn min_y_constraint_respected() {
        let sky = Skyline::new();
        let (_, y) = sky.best_position(0.5, 2.5);
        assert_eq!(y, 2.5);
    }

    #[test]
    fn reset_restores_the_flat_contour() {
        let mut sky = Skyline::new();
        sky.place(0.2, 0.0, 0.5, 1.3);
        assert!(sky.max_height() > 0.0);
        sky.reset();
        assert_eq!(sky.segments().len(), 1);
        assert_eq!(sky.max_height(), 0.0);
        assert_eq!(sky.span_height(0.0, 1.0), 0.0);
    }

    #[test]
    fn merging_keeps_contour_canonical() {
        let mut sky = Skyline::new();
        sky.place(0.0, 0.0, 0.5, 1.0);
        sky.place(0.5, 0.0, 0.5, 1.0);
        // both halves now at height 1 -> should merge to one segment
        assert_eq!(sky.segments().len(), 1);
        assert_eq!(sky.max_height(), 1.0);
    }

    #[test]
    fn segments_always_cover_unit_strip() {
        let mut sky = Skyline::new();
        for (x, y, w, h) in [
            (0.0, 0.0, 0.3, 1.0),
            (0.3, 0.0, 0.2, 0.5),
            (0.5, 0.0, 0.5, 0.2),
            (0.3, 0.5, 0.2, 0.7),
        ] {
            sky.place(x, y, w, h);
            let total: f64 = sky.segments().iter().map(|s| s.w).sum();
            spp_core::assert_close!(total, 1.0);
            for win in sky.segments().windows(2) {
                spp_core::assert_close!(win[0].x + win[0].w, win[1].x);
            }
        }
    }

    #[test]
    fn pack_perfect_square() {
        // four 0.5 x 0.5 squares tile a 1 x 1 region
        let inst = Instance::from_dims(&[(0.5, 0.5), (0.5, 0.5), (0.5, 0.5), (0.5, 0.5)]).unwrap();
        let pl = skyline_pack(&inst);
        spp_core::validate::assert_valid(&inst, &pl);
        spp_core::assert_close!(pl.height(&inst), 1.0);
    }

    /// Assert the sweep returns the scan's position bit for bit.
    fn assert_sweep_is_scan(sky: &Skyline, w: f64, min_y: f64) {
        let scan = sky.best_position_scan(w, min_y);
        let sweep = sky.best_position(w, min_y);
        assert_eq!(
            (scan.0.to_bits(), scan.1.to_bits()),
            (sweep.0.to_bits(), sweep.1.to_bits()),
            "w {w:e} min_y {min_y:e}: scan {scan:?} sweep {sweep:?} on {:?}",
            sky.segments()
        );
    }

    /// The sweep against the scan on the contours the anytime decode
    /// meets on `micro_n512`: narrow items (widths 0.005–0.06) piled
    /// into contours of 40 and more segments, some floating above it on
    /// a floor, and now and then an item of width `≤ EPS` (which leaves
    /// a sliver no overlap test sees) or of the full width. Queries span
    /// the same widths plus `w ≤ EPS` and `w = 1`, with floors at zero,
    /// inside the contour and above all of it. The tracked contour area
    /// stays the sum over the segments.
    #[test]
    fn sweep_matches_scan_on_narrow_contours_and_edge_widths() {
        use spp_core::eps::EPS;
        use spp_core::hash::SplitMix64;
        let mut widest = 0usize;
        for case in 0..120u64 {
            let mut rng = SplitMix64::new(case);
            let mut sky = Skyline::new();
            for _ in 0..160 {
                let top = sky.max_height();
                for _ in 0..4 {
                    let w = match rng.next_below(8) {
                        0 => EPS * rng.next_f64(),
                        1 => EPS,
                        2 => 1.0,
                        3 => 0.06 + 0.94 * rng.next_f64(),
                        _ => 0.005 + 0.055 * rng.next_f64(),
                    };
                    let min_y = match rng.next_below(4) {
                        0 => 0.0,
                        1 => top + 0.5 * rng.next_f64(),
                        _ => top * rng.next_f64(),
                    };
                    assert_sweep_is_scan(&sky, w, min_y);
                }
                let w = match rng.next_below(60) {
                    0 => EPS * rng.next_f64(),
                    1 => 1.0,
                    _ => 0.005 + 0.055 * rng.next_f64(),
                };
                let floor = if rng.next_below(6) == 0 {
                    top * rng.next_f64()
                } else {
                    0.0
                };
                let (x, y) = sky.best_position(w, floor);
                sky.place(x, y, w, 0.02 + 0.18 * rng.next_f64());
                widest = widest.max(sky.segments().len());
                let area: f64 = sky.segments().iter().map(|s| s.w * s.y).sum();
                assert!((sky.area() - area).abs() <= 1e-12 * area.max(1.0));
            }
        }
        assert!(widest >= 40, "contours reached only {widest} segments");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn skyline_pack_valid(
            dims in proptest::collection::vec((0.01f64..1.0, 0.01f64..2.0), 0..60)
        ) {
            let inst = Instance::from_dims(&dims).unwrap();
            let pl = skyline_pack(&inst);
            prop_assert!(spp_core::validate::validate(&inst, &pl).is_ok(),
                "{:?}", spp_core::validate::validate(&inst, &pl));
        }

        /// Skyline never loses to pure stacking (height ≤ Σ h).
        #[test]
        fn skyline_no_worse_than_stacking(
            dims in proptest::collection::vec((0.01f64..1.0, 0.01f64..2.0), 1..40)
        ) {
            let inst = Instance::from_dims(&dims).unwrap();
            let h = skyline_pack(&inst).height(&inst);
            let stack: f64 = dims.iter().map(|d| d.1).sum();
            prop_assert!(h <= stack + 1e-9);
        }

        /// The sweep and the O(S²) reference scan agree bit for bit on
        /// every query against every intermediate contour of a random
        /// packing — the sweep is an optimization, never a semantic
        /// change.
        #[test]
        fn sweep_matches_scan_bitwise(
            dims in proptest::collection::vec((0.01f64..1.0, 0.01f64..2.0), 1..50),
            queries in proptest::collection::vec((0.01f64..1.0, 0.0f64..3.0), 1..12)
        ) {
            let mut sky = Skyline::new();
            for (w, h) in &dims {
                for &(qw, qy) in &queries {
                    let scan = sky.best_position_scan(qw, qy);
                    let sweep = sky.best_position(qw, qy);
                    prop_assert_eq!(scan.0.to_bits(), sweep.0.to_bits(),
                        "x diverged: scan {:?} sweep {:?}", scan, sweep);
                    prop_assert_eq!(scan.1.to_bits(), sweep.1.to_bits(),
                        "y diverged: scan {:?} sweep {:?}", scan, sweep);
                }
                let (x, y) = sky.best_position(*w, 0.0);
                sky.place(x, y, *w, *h);
            }
        }
    }
}
