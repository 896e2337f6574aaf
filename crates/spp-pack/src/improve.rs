//! Anytime improvement: remove-and-reinsert local search over any seed
//! placement, feasibility-aware for precedence edges and release times.
//!
//! The loop is the ruin-and-recreate scheme nesting solvers use (remove a
//! subset, re-insert, shrink the envelope, retry), adapted to the
//! constrained strip: instead of ruining *geometry* — which cannot be
//! partially rebuilt under a skyline contour — each round perturbs the
//! **insertion priority order** and re-decodes the whole instance through
//! a precedence/release-gated skyline best-fit. Decoding only ever emits
//! feasible placements (every item waits for its predecessors' tops and
//! its release floor), so the search space is exactly the feasible set
//! and the incumbent can be accepted on makespan alone.
//!
//! Two removal strategies alternate, both driven by one
//! [`SplitMix64`] stream so the whole search is a pure function of
//! [`ImproveConfig::seed`]:
//!
//! * **worst-waste bands** — the items whose horizontal band in the
//!   incumbent has the lowest occupancy (the most trapped whitespace)
//!   are pulled to the front of the order, in shuffled relative order;
//! * **random subset** — a seeded subset is removed from the order and
//!   re-inserted at seeded positions.
//!
//! Each round decodes under the incumbent's **makespan envelope** and is
//! abandoned the moment it provably cannot strictly improve: when the
//! partial height reaches the envelope, or when one of two certificates
//! from the paper's lower bounds does — the area under the skyline
//! contour plus the unplaced items' area (AREA, counting the waste
//! already trapped), or a placed item's bottom plus its longest chain of
//! successor heights (the chain height behind Theorem 2.3). Both are
//! checked against the envelope plus a slack that covers every
//! `EPS`-thin loss, so an abandoned round is always one the full decode
//! would have rejected (the argument is on `decode_into`). The
//! incumbent is replaced only on strict improvement, and mutations
//! always restart from the incumbent's own order, so the search never
//! drifts away from its best.
//!
//! The decode inner loop is allocation-free on the steady state: one
//! [`DecodeScratch`] (rank/floor/missing buffers, a ready set kept as a
//! bitset over priority rank, the chain tails, and the working placement
//! and skyline) is reused across rounds, the band occupancy used by the
//! worst-waste strategy lives in an event-sweep [`BandIndex`] rebuilt
//! only when the incumbent changes, and order mutations rebuild through
//! a boolean mask in a single pass instead of `retain` + per-element
//! `insert`.
//!
//! **Determinism contract.** The *sequence* of candidate placements is a
//! pure function of `(instance, seed placement, seed)`. The wall-clock
//! deadline only truncates that sequence; runs that reach convergence
//! (`stall_rounds` consecutive non-improving rounds) inside their budget
//! return bit-identical results on any machine.
//!
//! # Portfolio search
//!
//! [`improve_parallel`] runs K independent streams of this search
//! (stream i seeded `seed ^ splitmix_mix(i)`) on [`spp_par`] workers and
//! reduces deterministically: strictly lowest makespan wins, ties break
//! to the lowest stream index. Because each stream is itself a pure
//! function of its seed and the reduction ignores completion order,
//! converged portfolio runs are bit-identical regardless of worker count
//! or scheduling. An opt-in [`SharedEnvelope`] lets streams prune
//! against the global incumbent (atomic f64-bits min); that couples the
//! streams through scheduling, so it is off by default and documented as
//! trading cross-run reproducibility for throughput.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spp_core::hash::{splitmix_mix, SplitMix64};
use spp_core::Placement;
use spp_dag::PrecInstance;

use crate::skyline::Skyline;

/// Strict-improvement margin: a candidate must beat the incumbent by
/// more than this to be accepted (keeps float noise from masquerading as
/// progress and guarantees the accept sequence is machine-independent).
const IMPROVE_EPS: f64 = 1e-9;

/// A lock-free best-so-far makespan shared between portfolio streams,
/// stored as the bit pattern of a non-negative f64 (for which the
/// unsigned bit order coincides with numeric order, so `fetch_min`-style
/// CAS loops work directly on the bits).
#[derive(Debug)]
pub struct SharedEnvelope {
    bits: AtomicU64,
}

impl SharedEnvelope {
    pub fn new() -> Self {
        SharedEnvelope {
            bits: AtomicU64::new(f64::INFINITY.to_bits()),
        }
    }

    /// The tightest makespan any stream has published so far.
    pub fn current(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Publish `h` if it is tighter than the current global incumbent.
    pub fn observe(&self, h: f64) {
        debug_assert!(h >= 0.0, "envelope stores non-negative makespans");
        let new = h.to_bits();
        let mut cur = self.bits.load(Ordering::Relaxed);
        while new < cur {
            match self
                .bits
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

impl Default for SharedEnvelope {
    fn default() -> Self {
        Self::new()
    }
}

/// Knobs of one improvement run.
#[derive(Debug, Clone)]
pub struct ImproveConfig {
    /// Stream seed; callers wanting content-addressed determinism pass
    /// `instance_digest ^ user_seed`.
    pub seed: u64,
    /// Wall-clock cutoff. `None` runs to convergence (or `max_rounds`).
    pub deadline: Option<Instant>,
    /// Hard cap on rounds, a backstop against pathological budgets.
    pub max_rounds: u64,
    /// Convergence: stop after this many consecutive rounds without a
    /// strict improvement.
    pub stall_rounds: u64,
    /// Optional cross-stream best-so-far to prune decodes against.
    /// Sharing couples streams through scheduling, so results become
    /// scheduling-dependent; leave `None` for bit-reproducibility.
    pub envelope: Option<Arc<SharedEnvelope>>,
}

impl Default for ImproveConfig {
    fn default() -> Self {
        ImproveConfig {
            seed: 0,
            deadline: None,
            max_rounds: 100_000,
            stall_rounds: 64,
            envelope: None,
        }
    }
}

/// Result of one improvement run. `placement` is the seed placement
/// itself whenever no candidate strictly improved it, so
/// `makespan ≤ seed_makespan` holds unconditionally.
#[derive(Debug, Clone)]
pub struct ImproveOutcome {
    pub placement: Placement,
    /// Height of `placement`.
    pub makespan: f64,
    /// Height of the seed placement the run started from.
    pub seed_makespan: f64,
    /// Rounds attempted (including abandoned decodes).
    pub rounds: u64,
    /// Rounds that strictly improved the incumbent.
    pub improvements: u64,
    /// Decodes abandoned because the *shared* envelope was strictly
    /// tighter than this stream's own incumbent (always 0 without
    /// [`ImproveConfig::envelope`]).
    pub envelope_prunes: u64,
    /// True iff the run stopped on stall (not deadline/round cap), i.e.
    /// the result is the deterministic fixed point for this seed.
    pub converged: bool,
}

impl ImproveOutcome {
    /// Makespan removed relative to the seed placement (≥ 0).
    pub fn gain(&self) -> f64 {
        (self.seed_makespan - self.makespan).max(0.0)
    }
}

/// Item ids ordered by the placement's geometry (bottom-up, then left to
/// right, then id) — the canonical priority order a placement induces.
fn order_of(prec: &PrecInstance, pl: &Placement) -> Vec<usize> {
    let mut order: Vec<usize> = (0..prec.len()).collect();
    order.sort_by(|&a, &b| {
        let (pa, pb) = (pl.pos(a), pl.pos(b));
        pa.y.partial_cmp(&pb.y)
            .unwrap()
            .then(pa.x.partial_cmp(&pb.x).unwrap())
            .then(a.cmp(&b))
    });
    order
}

/// Reusable buffers for [`decode_into`]: the rank/floor/missing arrays,
/// the ready bitset, the per-item chain tails, and the working placement
/// and skyline. One scratch per search stream makes the decode loop
/// allocation-free on the steady state — buffers are sized once per
/// [`improve`] call and reused every round.
#[derive(Debug)]
pub(crate) struct DecodeScratch {
    rank: Vec<usize>,
    floor: Vec<f64>,
    missing: Vec<usize>,
    /// Ready items as a bitset over priority rank: bit `r` is `order[r]`.
    ready: Vec<u64>,
    /// `tail[v]` = `h_v` plus the tallest chain of successor heights:
    /// every feasible packing has a top at or above `y_v + tail[v]`.
    tail: Vec<f64>,
    /// Total item area, `Σ w·h`.
    item_area: f64,
    pl: Placement,
    sky: Skyline,
}

impl DecodeScratch {
    fn new(prec: &PrecInstance) -> Self {
        let n = prec.len();
        let topo =
            spp_dag::topo::topological_order(&prec.dag).expect("PrecInstance DAGs are acyclic");
        let mut tail = vec![0.0; n];
        for &v in topo.iter().rev() {
            let above = prec
                .dag
                .succs(v)
                .iter()
                .map(|&s| tail[s])
                .fold(0.0, f64::max);
            tail[v] = prec.inst.item(v).h + above;
        }
        DecodeScratch {
            rank: vec![0; n],
            floor: vec![0.0; n],
            missing: vec![0; n],
            ready: vec![0; n.div_ceil(64)],
            tail,
            item_area: prec.inst.total_area(),
            pl: Placement::zeroed(n),
            sky: Skyline::new(),
        }
    }
}

/// Take the lowest set rank from `ready`. Every set bit lies in a word at
/// or after `*word`, which the scan advances past empty words.
fn pop_ready(ready: &mut [u64], word: &mut usize) -> Option<usize> {
    while let Some(&bits) = ready.get(*word) {
        if bits != 0 {
            ready[*word] = bits & (bits - 1);
            return Some(*word * 64 + bits.trailing_zeros() as usize);
        }
        *word += 1;
    }
    None
}

/// Decode a priority order into a feasible placement via skyline
/// best-fit: items become eligible only when every predecessor is
/// placed, eligible items are taken in priority-order rank, and each is
/// dropped at the lowest-leftmost position at or above its floor
/// (max of release time and predecessor tops). On `Some(h)`,
/// `scratch.pl` holds the decoded placement of height `h`.
///
/// The ready set is a bitset over rank: ranks are unique, so its lowest
/// set bit is exactly the minimum a priority queue would pop, and a
/// successor released below the scan position moves the scan back.
///
/// Returns `None` as soon as the round provably cannot end below
/// `envelope − IMPROVE_EPS` — the candidate cannot strictly beat the
/// incumbent, so the rest of the decode is wasted work. Three facts
/// certify that, each checked as items are placed:
///
/// * **Top.** The partial height already reaches `envelope − IMPROVE_EPS`.
/// * **Chain tail.** Every successor of `v` lands at or above `v`'s top,
///   so the final height `H ≥ y_v + tail[v]`.
/// * **Area.** The skyline contour's area `A` (waste under it included)
///   plus the unplaced items' area `U` bounds `H`: each later item lands
///   at or above every contour segment it overlaps, so it raises `A` by
///   its own `w·h`, and the final contour, no higher than `H` over width
///   1, has area at most `H`. The only losses are `EPS`-thin. Per
///   placement they are five pieces at most `EPS` wide and `H` high —
///   the two span edges `intervals_overlap` ignores, the two pieces
///   beside them that `place` drops, and the one sliver a width-`≤ EPS`
///   item can leave — plus merges of heights within `EPS` over width at
///   most 1: `6·EPS·max(H, 1)` in all. So `H ≥ A + U − 6n·EPS·max(H, 1)`.
///
/// The two bounds abandon only at `envelope − IMPROVE_EPS + slack` with
/// `slack = 8(n+1)·EPS·max(envelope, 1)` (4.1e-6 for n = 512 and an
/// envelope up to 1), which also covers the rounding of the summed areas
/// and chained heights. If a round would have finished below
/// `envelope − IMPROVE_EPS`, each bound is below `H + slack`, so it
/// never fires. An abandoned round is thus one the full decode would
/// also have rejected, whatever the envelope, and the search's outcome
/// sequence is unchanged.
fn decode_into(
    prec: &PrecInstance,
    order: &[usize],
    envelope: f64,
    scratch: &mut DecodeScratch,
) -> Option<f64> {
    let n = prec.len();
    for (i, &v) in order.iter().enumerate() {
        scratch.rank[v] = i;
    }
    for it in prec.inst.items() {
        scratch.floor[it.id] = it.release;
    }
    scratch.ready.fill(0);
    for v in 0..n {
        scratch.missing[v] = prec.dag.in_degree(v);
        if scratch.missing[v] == 0 {
            let r = scratch.rank[v];
            scratch.ready[r / 64] |= 1 << (r % 64);
        }
    }
    scratch.sky.reset();

    let slack = 8.0 * (n as f64 + 1.0) * spp_core::eps::EPS * envelope.max(1.0);
    let bound_cut = envelope - IMPROVE_EPS + slack;
    let mut unplaced = scratch.item_area;
    let mut top = 0.0f64;
    let mut placed = 0usize;
    let mut word = 0usize;
    while let Some(r) = pop_ready(&mut scratch.ready, &mut word) {
        let v = order[r];
        let it = prec.inst.item(v);
        let (x, y) = scratch.sky.best_position(it.w, scratch.floor[v]);
        top = top.max(y + it.h);
        if top >= envelope - IMPROVE_EPS || y + scratch.tail[v] >= bound_cut {
            return None;
        }
        scratch.sky.place(x, y, it.w, it.h);
        unplaced -= it.area();
        if scratch.sky.area() + unplaced >= bound_cut {
            return None;
        }
        scratch.pl.set(v, x, y);
        placed += 1;
        for &w in prec.dag.succs(v) {
            scratch.floor[w] = scratch.floor[w].max(y + it.h);
            scratch.missing[w] -= 1;
            if scratch.missing[w] == 0 {
                let rw = scratch.rank[w];
                scratch.ready[rw / 64] |= 1 << (rw % 64);
                word = word.min(rw / 64);
            }
        }
    }
    debug_assert_eq!(placed, n, "DAG invariant: every item decodes");
    Some(top)
}

/// Event-sweep index over the horizontal bands of a placement, rebuilt
/// only when the incumbent changes. `covered_width(y)` is piecewise
/// constant between item edges; the index stores its breakpoints and the
/// prefix integral, so one item's band occupancy is two binary searches
/// instead of an O(n) sum — O(n log n) per rebuild against the old
/// O(n²) full recompute after every improvement.
#[derive(Debug, Default)]
struct BandIndex {
    /// Sorted distinct breakpoint ys (item bottoms and tops).
    ys: Vec<f64>,
    /// `acc[i]` = ∫ covered_width from `ys[0]` to `ys[i]`.
    acc: Vec<f64>,
    /// Covered width on `[ys[i], ys[i+1])`; last entry is 0.
    width: Vec<f64>,
    /// Event scratch: `(y, ±w)` deltas, reused across rebuilds.
    events: Vec<(f64, f64)>,
    /// Per-item occupancy of its own band, refreshed with the index.
    occupancy: Vec<f64>,
    /// Item ids sorted by rising occupancy (worst waste first).
    by_waste: Vec<usize>,
}

impl BandIndex {
    /// Rebuild breakpoints/integral from `pl`, then refresh the per-item
    /// occupancies and the worst-waste ordering.
    fn rebuild(&mut self, prec: &PrecInstance, pl: &Placement) {
        let items = prec.inst.items();
        self.events.clear();
        for it in items {
            let y = pl.pos(it.id).y;
            self.events.push((y, it.w));
            self.events.push((y + it.h, -it.w));
        }
        // Full-tuple key keeps the order (and the float sums below)
        // deterministic even among equal ys.
        self.events
            .sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());

        self.ys.clear();
        self.acc.clear();
        self.width.clear();
        let mut w = 0.0f64;
        let mut acc = 0.0f64;
        for &(y, dw) in &self.events {
            match self.ys.last() {
                Some(&last) if last == y => {}
                Some(&last) => {
                    acc += w * (y - last);
                    self.ys.push(y);
                    self.acc.push(acc);
                    self.width.push(0.0);
                }
                None => {
                    self.ys.push(y);
                    self.acc.push(0.0);
                    self.width.push(0.0);
                }
            }
            w += dw;
            *self.width.last_mut().unwrap() = w;
        }

        let mut occupancy = std::mem::take(&mut self.occupancy);
        occupancy.clear();
        occupancy.extend(items.iter().map(|a| {
            if a.h <= 0.0 {
                return 1.0;
            }
            let y0 = pl.pos(a.id).y;
            (self.integral_to(y0 + a.h) - self.integral_to(y0)) / a.h
        }));
        self.occupancy = occupancy;
        if self.by_waste.len() != items.len() {
            self.by_waste.clear();
            self.by_waste.extend(0..items.len());
        }
        let occupancy = &self.occupancy;
        self.by_waste.sort_unstable_by(|&a, &b| {
            occupancy[a]
                .partial_cmp(&occupancy[b])
                .unwrap()
                .then(a.cmp(&b))
        });
    }

    /// ∫ covered_width from the first breakpoint to `y` (clamped to the
    /// breakpoint range; the width is 0 outside it).
    fn integral_to(&self, y: f64) -> f64 {
        let n = self.ys.len();
        if n == 0 || y <= self.ys[0] {
            return 0.0;
        }
        if y >= self.ys[n - 1] {
            return self.acc[n - 1];
        }
        let i = self.ys.partition_point(|&b| b <= y) - 1;
        self.acc[i] + self.width[i] * (y - self.ys[i])
    }
}

/// Rebuild `out` as `chosen ++ (base minus chosen, in base order)` in
/// one pass over `base` with a boolean membership mask — O(n) against
/// the old `retain(|v| !chosen.contains(v))` (O(n·k)) plus per-element
/// front `insert` (O(n·k)). `mask` must be `base.len()` falses on entry
/// and is restored to all-false on exit.
pub(crate) fn rebuild_front(
    base: &[usize],
    chosen: &[usize],
    mask: &mut [bool],
    out: &mut Vec<usize>,
) {
    for &v in chosen {
        mask[v] = true;
    }
    out.clear();
    out.extend_from_slice(chosen);
    out.extend(base.iter().copied().filter(|&v| !mask[v]));
    for &v in chosen {
        mask[v] = false;
    }
}

/// Rebuild `out` by interleaving `chosen` uniformly at random into
/// `base minus chosen` in one pass: at each slot, emit the next chosen
/// element with probability `remaining_chosen / remaining_total`. O(n)
/// with one RNG draw per emitted slot; same mask contract as
/// [`rebuild_front`].
pub(crate) fn rebuild_scatter(
    base: &[usize],
    chosen: &[usize],
    rng: &mut SplitMix64,
    mask: &mut [bool],
    out: &mut Vec<usize>,
) {
    for &v in chosen {
        mask[v] = true;
    }
    out.clear();
    let mut rem_c = chosen.len();
    let mut rem_b = base.len() - chosen.len();
    let (mut ci, mut bi) = (0usize, 0usize);
    while rem_c + rem_b > 0 {
        let take_chosen =
            rem_c > 0 && (rem_b == 0 || rng.next_below((rem_c + rem_b) as u64) < rem_c as u64);
        if take_chosen {
            out.push(chosen[ci]);
            ci += 1;
            rem_c -= 1;
        } else {
            while mask[base[bi]] {
                bi += 1;
            }
            out.push(base[bi]);
            bi += 1;
            rem_b -= 1;
        }
    }
    for &v in chosen {
        mask[v] = false;
    }
}

/// The removal-subset size for an `n`-item instance: an eighth of the
/// instance, at least 2, never the whole thing.
fn subset_size(n: usize) -> usize {
    (n / 8).max(2).min(n)
}

/// Improve `seed_pl` by seeded remove-and-reinsert until the deadline,
/// the round cap, or convergence. See the module docs for the scheme and
/// the determinism contract.
pub fn improve(prec: &PrecInstance, seed_pl: &Placement, cfg: &ImproveConfig) -> ImproveOutcome {
    let seed_makespan = seed_pl.height(&prec.inst);
    let mut out = ImproveOutcome {
        placement: seed_pl.clone(),
        makespan: seed_makespan,
        seed_makespan,
        rounds: 0,
        improvements: 0,
        envelope_prunes: 0,
        converged: true,
    };
    if let Some(env) = &cfg.envelope {
        env.observe(seed_makespan);
    }
    let n = prec.len();
    if n < 2 {
        return out;
    }

    let mut rng = SplitMix64::new(cfg.seed);
    let mut base_order = order_of(prec, seed_pl);
    // The seed solver may not be skyline-shaped at all; decoding its own
    // order is round 0's "identity" move and often already improves.
    let mut scratch = DecodeScratch::new(prec);
    let mut bands = BandIndex::default();
    bands.rebuild(prec, &out.placement);
    let mut mask = vec![false; n];
    let mut chosen: Vec<usize> = Vec::with_capacity(n);
    let mut pool: Vec<usize> = Vec::with_capacity(n);
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut stall = 0u64;
    for round in 0..cfg.max_rounds {
        if cfg.deadline.is_some_and(|d| Instant::now() >= d) {
            out.converged = false;
            break;
        }
        out.rounds = round + 1;

        // Every candidate is rebuilt from the incumbent's order;
        // mutations never accumulate, so the search stays anchored to
        // the best-so-far.
        if round == 0 {
            // identity: decode the incumbent's own order
            order.clear();
            order.extend_from_slice(&base_order);
        } else if round % 2 == 1 {
            // Worst-waste bands: pull the least-occupied items forward.
            let k = subset_size(n);
            chosen.clear();
            chosen.extend_from_slice(&bands.by_waste[..k]);
            rng.shuffle(&mut chosen);
            rebuild_front(&base_order, &chosen, &mut mask, &mut order);
        } else {
            // Random subset, re-inserted at random positions.
            let k = subset_size(n);
            pool.clear();
            pool.extend(0..n);
            chosen.clear();
            for _ in 0..k {
                let i = rng.next_below(pool.len() as u64) as usize;
                chosen.push(pool.swap_remove(i));
            }
            rebuild_scatter(&base_order, &chosen, &mut rng, &mut mask, &mut order);
        }

        // Decode under the tightest envelope available. A shared value
        // strictly below the local incumbent means any abandoned decode
        // was cut by *another* stream's discovery — count those.
        let mut limit = out.makespan;
        let mut shared_cut = false;
        if let Some(env) = &cfg.envelope {
            let g = env.current();
            if g < limit {
                limit = g;
                shared_cut = true;
            }
        }

        match decode_into(prec, &order, limit, &mut scratch) {
            Some(h) if h < out.makespan - IMPROVE_EPS => {
                debug_assert!(
                    prec.validate(&scratch.pl).is_ok(),
                    "decode emitted infeasible"
                );
                out.makespan = h;
                out.placement = scratch.pl.clone();
                out.improvements += 1;
                std::mem::swap(&mut base_order, &mut order);
                bands.rebuild(prec, &out.placement);
                if let Some(env) = &cfg.envelope {
                    env.observe(h);
                }
                stall = 0;
            }
            _ => {
                if shared_cut {
                    out.envelope_prunes += 1;
                }
                stall += 1;
            }
        }
        if stall >= cfg.stall_rounds {
            break;
        }
    }
    if out.rounds == cfg.max_rounds && stall < cfg.stall_rounds {
        out.converged = false;
    }
    out
}

/// Knobs of a portfolio run: K independent [`improve`] streams reduced
/// deterministically.
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// Number of independent search streams. Stream i runs with seed
    /// `seed ^ splitmix_mix(i)`; `splitmix_mix(0) == 0`, so stream 0
    /// replays the single-stream search exactly and `streams = 1`
    /// degenerates to [`improve`].
    pub streams: usize,
    /// Worker threads to run streams on; 0 means available parallelism.
    /// Never affects results unless `share_envelope` is set — it is an
    /// execution detail, not part of the search's identity.
    pub workers: usize,
    /// Share a best-so-far envelope across streams. Extra pruning
    /// throughput, but results become scheduling-dependent; leave off
    /// when cross-run bit-reproducibility matters.
    pub share_envelope: bool,
    /// Base seed; stream seeds derive from it (see `streams`).
    pub seed: u64,
    /// Per-stream compute budget: each stream arms its own deadline
    /// `now + budget` when it *starts*. On K idle cores the portfolio
    /// finishes in ~budget wall time; on fewer cores wall time stretches
    /// toward `ceil(K/workers) × budget` rather than starving the
    /// streams scheduled last, keeping truncation a per-stream property
    /// independent of scheduling.
    pub budget: Option<Duration>,
    /// Per-stream round cap (see [`ImproveConfig::max_rounds`]).
    pub max_rounds: u64,
    /// Per-stream convergence stall (see [`ImproveConfig::stall_rounds`]).
    pub stall_rounds: u64,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        let base = ImproveConfig::default();
        PortfolioConfig {
            streams: 1,
            workers: 0,
            share_envelope: false,
            seed: 0,
            budget: None,
            max_rounds: base.max_rounds,
            stall_rounds: base.stall_rounds,
        }
    }
}

/// Per-stream summary inside a [`PortfolioOutcome`].
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    pub stream: usize,
    pub makespan: f64,
    pub rounds: u64,
    pub improvements: u64,
    pub envelope_prunes: u64,
    pub converged: bool,
}

/// Result of a portfolio run: the winning stream's placement plus
/// aggregate counters across all streams.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    pub placement: Placement,
    /// Height of `placement` (the minimum across streams).
    pub makespan: f64,
    /// Height of the shared seed placement.
    pub seed_makespan: f64,
    /// Index of the winning stream (lowest makespan, ties to lowest
    /// index — the deterministic reduction rule).
    pub winner: usize,
    /// Total rounds across all streams.
    pub rounds: u64,
    /// Total strict improvements across all streams.
    pub improvements: u64,
    /// Total shared-envelope prunes across all streams (0 unless
    /// [`PortfolioConfig::share_envelope`]).
    pub envelope_prunes: u64,
    /// True iff *every* stream converged (stall-stopped), i.e. the
    /// result is the deterministic fixed point for this (seed, K).
    pub converged: bool,
    /// One summary per stream, indexed by stream.
    pub streams: Vec<StreamOutcome>,
}

impl PortfolioOutcome {
    /// Makespan removed relative to the seed placement (≥ 0).
    pub fn gain(&self) -> f64 {
        (self.seed_makespan - self.makespan).max(0.0)
    }
}

/// Run `cfg.streams` independent improvement streams over the same seed
/// placement and reduce to the strictly best result (ties to the lowest
/// stream index). Streams are distributed over `cfg.workers` threads via
/// an atomic work counter; because each stream is a pure function of its
/// derived seed and the reduction is order-independent, converged
/// results are bit-identical for any worker count — unless
/// `share_envelope` couples the streams (see [`PortfolioConfig`]).
pub fn improve_parallel(
    prec: &PrecInstance,
    seed_pl: &Placement,
    cfg: &PortfolioConfig,
) -> PortfolioOutcome {
    let k = cfg.streams.max(1);
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1)
    } else {
        cfg.workers
    }
    .min(k)
    .max(1);
    let env = cfg.share_envelope.then(|| Arc::new(SharedEnvelope::new()));

    let slots: Vec<Mutex<Option<ImproveOutcome>>> = (0..k).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    spp_par::run_workers(workers, |_| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= k {
            break;
        }
        let icfg = ImproveConfig {
            seed: cfg.seed ^ splitmix_mix(i as u64),
            // Per-stream budget, armed at stream start (not portfolio
            // start): late-scheduled streams get their full budget.
            deadline: cfg.budget.map(|b| Instant::now() + b),
            max_rounds: cfg.max_rounds,
            stall_rounds: cfg.stall_rounds,
            envelope: env.clone(),
        };
        let res = improve(prec, seed_pl, &icfg);
        *slots[i].lock().expect("stream slot poisoned") = Some(res);
    });

    let outcomes: Vec<ImproveOutcome> = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("stream slot poisoned")
                .expect("every stream index is claimed exactly once")
        })
        .collect();
    let mut winner = 0usize;
    for (i, o) in outcomes.iter().enumerate().skip(1) {
        if o.makespan < outcomes[winner].makespan {
            winner = i;
        }
    }
    let mut out = PortfolioOutcome {
        placement: outcomes[winner].placement.clone(),
        makespan: outcomes[winner].makespan,
        seed_makespan: outcomes[winner].seed_makespan,
        winner,
        rounds: 0,
        improvements: 0,
        envelope_prunes: 0,
        converged: true,
        streams: Vec::with_capacity(k),
    };
    for (i, o) in outcomes.into_iter().enumerate() {
        out.rounds += o.rounds;
        out.improvements += o.improvements;
        out.envelope_prunes += o.envelope_prunes;
        out.converged &= o.converged;
        out.streams.push(StreamOutcome {
            stream: i,
            makespan: o.makespan,
            rounds: o.rounds,
            improvements: o.improvements,
            envelope_prunes: o.envelope_prunes,
            converged: o.converged,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_core::Instance;
    use spp_dag::Dag;

    fn towers() -> PrecInstance {
        // A deliberately bad seed exists: four 0.5-wide unit squares
        // stacked in one column (height 4) against OPT = 2.
        PrecInstance::unconstrained(
            Instance::from_dims(&[(0.5, 1.0), (0.5, 1.0), (0.5, 1.0), (0.5, 1.0)]).unwrap(),
        )
    }

    fn stacked_seed(prec: &PrecInstance) -> Placement {
        let mut pl = Placement::zeroed(prec.len());
        let mut y = 0.0f64;
        for it in prec.inst.items() {
            pl.set(it.id, 0.0, y.max(it.release));
            y = pl.pos(it.id).y + it.h;
        }
        pl
    }

    #[test]
    fn improves_a_bad_seed_and_never_regresses() {
        let prec = towers();
        let seed = stacked_seed(&prec);
        let out = improve(&prec, &seed, &ImproveConfig::default());
        assert_eq!(out.seed_makespan, 4.0);
        assert!(out.makespan <= out.seed_makespan);
        assert!(out.improvements >= 1, "pairing squares must be found");
        spp_core::assert_close!(out.makespan, 2.0);
        prec.assert_valid(&out.placement);
        assert!(out.converged);
        assert!(out.gain() > 1.9);
    }

    #[test]
    fn deterministic_per_seed() {
        let prec = towers();
        let seed = stacked_seed(&prec);
        let cfg = ImproveConfig {
            seed: 1234,
            ..ImproveConfig::default()
        };
        let a = improve(&prec, &seed, &cfg);
        let b = improve(&prec, &seed, &cfg);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.improvements, b.improvements);
    }

    #[test]
    fn respects_precedence_and_release_floors() {
        // Chain 0 -> 1 with a released third item: any improvement must
        // keep 1 above 0 and 2 at or above its release.
        let inst =
            Instance::from_dims_release(&[(0.6, 1.0, 0.0), (0.6, 1.0, 0.0), (0.3, 1.0, 2.5)])
                .unwrap();
        let prec = PrecInstance::new(inst, Dag::new(3, &[(0, 1)]).unwrap());
        let seed = stacked_seed(&prec);
        let out = improve(&prec, &seed, &ImproveConfig::default());
        prec.assert_valid(&out.placement);
        assert!(out.makespan <= out.seed_makespan + 1e-12);
        assert!(out.placement.pos(2).y >= 2.5 - 1e-12);
    }

    #[test]
    fn zero_and_single_item_instances_are_fixed_points() {
        let empty = PrecInstance::unconstrained(Instance::from_dims(&[]).unwrap());
        let out = improve(&empty, &Placement::zeroed(0), &ImproveConfig::default());
        assert_eq!(out.rounds, 0);
        assert_eq!(out.makespan, 0.0);

        let one = PrecInstance::unconstrained(Instance::from_dims(&[(0.5, 1.0)]).unwrap());
        let seed = stacked_seed(&one);
        let out = improve(&one, &seed, &ImproveConfig::default());
        assert_eq!(out.rounds, 0);
        assert_eq!(out.placement, seed);
    }

    #[test]
    fn expired_deadline_returns_the_seed_unchanged() {
        let prec = towers();
        let seed = stacked_seed(&prec);
        let cfg = ImproveConfig {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..ImproveConfig::default()
        };
        let out = improve(&prec, &seed, &cfg);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.placement, seed);
        assert!(!out.converged);
    }

    /// Naive references for the mask rebuilds: exactly the pre-PR
    /// `retain` + `insert` code paths.
    fn naive_front(base: &[usize], chosen: &[usize]) -> Vec<usize> {
        let mut order = base.to_vec();
        order.retain(|v| !chosen.contains(v));
        for (i, &v) in chosen.iter().enumerate() {
            order.insert(i, v);
        }
        order
    }

    #[test]
    fn mask_front_rebuild_matches_naive_on_2k_order() {
        let n = 2000usize;
        let mut rng = SplitMix64::new(99);
        let mut base: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut base);
        let mut pool: Vec<usize> = (0..n).collect();
        let mut chosen = Vec::new();
        for _ in 0..subset_size(n) {
            let i = rng.next_below(pool.len() as u64) as usize;
            chosen.push(pool.swap_remove(i));
        }
        let mut mask = vec![false; n];
        let mut out = Vec::new();
        rebuild_front(&base, &chosen, &mut mask, &mut out);
        assert_eq!(out, naive_front(&base, &chosen));
        assert!(mask.iter().all(|&m| !m), "mask restored to all-false");
    }

    #[test]
    fn mask_scatter_rebuild_is_a_seeded_permutation() {
        let n = 2000usize;
        let mut rng = SplitMix64::new(7);
        let base: Vec<usize> = (0..n).collect();
        let chosen: Vec<usize> = (0..subset_size(n)).map(|i| i * 13 % n).collect();
        let mut mask = vec![false; n];
        let mut out = Vec::new();
        let mut r1 = SplitMix64::new(rng.next_u64());
        let mut r2 = r1.clone();
        rebuild_scatter(&base, &chosen, &mut r1, &mut mask, &mut out);
        // A permutation of 0..n…
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, base);
        // …that preserves the relative order of both halves…
        let kept: Vec<usize> = out
            .iter()
            .copied()
            .filter(|v| !chosen.contains(v))
            .collect();
        let expect_kept: Vec<usize> = base
            .iter()
            .copied()
            .filter(|v| !chosen.contains(v))
            .collect();
        assert_eq!(kept, expect_kept);
        let placed: Vec<usize> = out.iter().copied().filter(|v| chosen.contains(v)).collect();
        assert_eq!(placed, chosen);
        // …and is deterministic per RNG state.
        let mut out2 = Vec::new();
        rebuild_scatter(&base, &chosen, &mut r2, &mut mask, &mut out2);
        assert_eq!(out, out2);
        assert!(mask.iter().all(|&m| !m));
    }

    #[test]
    fn band_index_matches_quadratic_occupancy() {
        // Old O(n²) reference, verbatim.
        fn quadratic(prec: &PrecInstance, pl: &Placement) -> Vec<f64> {
            let items = prec.inst.items();
            items
                .iter()
                .map(|a| {
                    let (y0, y1) = (pl.pos(a.id).y, pl.pos(a.id).y + a.h);
                    if a.h <= 0.0 {
                        return 1.0;
                    }
                    let mut covered = 0.0;
                    for b in items {
                        let (by0, by1) = (pl.pos(b.id).y, pl.pos(b.id).y + b.h);
                        let overlap = (y1.min(by1) - y0.max(by0)).max(0.0);
                        covered += b.w * overlap;
                    }
                    covered / a.h
                })
                .collect()
        }
        let mut rng = SplitMix64::new(5);
        let dims: Vec<(f64, f64)> = (0..60)
            .map(|_| (0.05 + rng.next_f64() * 0.4, 0.05 + rng.next_f64() * 0.9))
            .collect();
        let prec = PrecInstance::unconstrained(Instance::from_dims(&dims).unwrap());
        let pl = crate::skyline::skyline_pack(&prec.inst);
        let mut bands = BandIndex::default();
        bands.rebuild(&prec, &pl);
        let reference = quadratic(&prec, &pl);
        for (i, (&fast, &slow)) in bands.occupancy.iter().zip(reference.iter()).enumerate() {
            assert!(
                (fast - slow).abs() <= 1e-9,
                "item {i}: band index {fast} vs quadratic {slow}"
            );
        }
    }

    /// The decode with a binary-heap ready set and only the partial-top
    /// check: the oracle [`decode_into`] must reproduce.
    fn decode_heap(
        prec: &PrecInstance,
        order: &[usize],
        envelope: f64,
    ) -> Option<(f64, Placement)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = prec.len();
        let mut rank = vec![0; n];
        for (i, &v) in order.iter().enumerate() {
            rank[v] = i;
        }
        let mut floor: Vec<f64> = prec.inst.items().iter().map(|it| it.release).collect();
        let mut missing: Vec<usize> = (0..n).map(|v| prec.dag.in_degree(v)).collect();
        let mut ready: BinaryHeap<Reverse<(usize, usize)>> = (0..n)
            .filter(|&v| missing[v] == 0)
            .map(|v| Reverse((rank[v], v)))
            .collect();
        let mut sky = Skyline::new();
        let mut pl = Placement::zeroed(n);
        let mut top = 0.0f64;
        while let Some(Reverse((_, v))) = ready.pop() {
            let it = prec.inst.item(v);
            let (x, y) = sky.best_position(it.w, floor[v]);
            top = top.max(y + it.h);
            if top >= envelope - IMPROVE_EPS {
                return None;
            }
            sky.place(x, y, it.w, it.h);
            pl.set(v, x, y);
            for &w in prec.dag.succs(v) {
                floor[w] = floor[w].max(y + it.h);
                missing[w] -= 1;
                if missing[w] == 0 {
                    ready.push(Reverse((rank[w], w)));
                }
            }
        }
        Some((top, pl))
    }

    /// Random precedence/release instances, including widths `≤ EPS`
    /// and full-width items, decoded in random orders under random
    /// envelopes (many within a hair of the full height). An abandoned
    /// decode is one whose full height could not have beaten the
    /// envelope; a finished one is the oracle's placement, bit for bit.
    #[test]
    fn decode_matches_the_heap_oracle_or_prunes_a_losing_round() {
        let mut pruned = 0;
        for case in 0..400u64 {
            let mut rng = SplitMix64::new(case);
            // Every fourth instance spans several ready-set words.
            let n = 2 + rng.next_below(if case % 4 == 0 { 240 } else { 60 }) as usize;
            let dims: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    let w = match rng.next_below(12) {
                        0 => spp_core::eps::EPS * (0.01 + rng.next_f64()),
                        1 => 1.0,
                        _ => 0.01 + 0.6 * rng.next_f64(),
                    };
                    let release = if rng.next_below(3) == 0 {
                        2.0 * rng.next_f64()
                    } else {
                        0.0
                    };
                    (w, 0.05 + rng.next_f64(), release)
                })
                .collect();
            let density = rng.next_below(4);
            let mut edges = Vec::new();
            for a in 0..n {
                for b in a + 1..n {
                    if rng.next_below(4 * n as u64) < density {
                        edges.push((a, b));
                    }
                }
            }
            let prec = PrecInstance::new(
                Instance::from_dims_release(&dims).unwrap(),
                Dag::new(n, &edges).unwrap(),
            );
            let mut order: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut order);
            let (full, full_pl) = decode_heap(&prec, &order, f64::INFINITY).expect("no envelope");
            let mut scratch = DecodeScratch::new(&prec);
            for _ in 0..6 {
                let envelope = match rng.next_below(3) {
                    0 => full * (0.6 + 0.8 * rng.next_f64()),
                    1 => full + IMPROVE_EPS * (2.0 * rng.next_f64() - 0.5),
                    _ => full * (1.0 + 1e-6 * rng.next_f64()) + IMPROVE_EPS,
                };
                match decode_into(&prec, &order, envelope, &mut scratch) {
                    None => {
                        pruned += 1;
                        assert!(
                            full >= envelope - IMPROVE_EPS,
                            "case {case}: abandoned a round of height {full} under {envelope}"
                        );
                        assert!(decode_heap(&prec, &order, envelope).is_none());
                    }
                    Some(h) => {
                        assert_eq!(h.to_bits(), full.to_bits(), "case {case}: height");
                        assert_eq!(scratch.pl, full_pl, "case {case}: placement");
                    }
                }
            }
        }
        assert!(
            pruned > 0 && pruned < 400 * 6,
            "envelopes must both prune and pass"
        );
    }

    #[test]
    fn shared_envelope_min_reduces_over_observes() {
        let env = SharedEnvelope::new();
        assert_eq!(env.current(), f64::INFINITY);
        env.observe(3.0);
        env.observe(5.0);
        assert_eq!(env.current(), 3.0);
        env.observe(1.5);
        assert_eq!(env.current(), 1.5);
    }

    #[test]
    fn portfolio_single_stream_replays_improve_exactly() {
        let prec = towers();
        let seed = stacked_seed(&prec);
        let single = improve(
            &prec,
            &seed,
            &ImproveConfig {
                seed: 42,
                ..ImproveConfig::default()
            },
        );
        let port = improve_parallel(
            &prec,
            &seed,
            &PortfolioConfig {
                streams: 1,
                seed: 42,
                ..PortfolioConfig::default()
            },
        );
        assert_eq!(port.winner, 0);
        assert_eq!(port.placement, single.placement);
        assert_eq!(port.makespan.to_bits(), single.makespan.to_bits());
        assert_eq!(port.rounds, single.rounds);
    }

    #[test]
    fn portfolio_reduction_is_deterministic_across_worker_counts() {
        let prec = towers();
        let seed = stacked_seed(&prec);
        let mk = |workers| {
            improve_parallel(
                &prec,
                &seed,
                &PortfolioConfig {
                    streams: 4,
                    workers,
                    seed: 7,
                    ..PortfolioConfig::default()
                },
            )
        };
        let a = mk(1);
        let b = mk(4);
        assert!(a.converged && b.converged);
        assert_eq!(a.winner, b.winner);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.rounds, b.rounds);
        for (sa, sb) in a.streams.iter().zip(b.streams.iter()) {
            assert_eq!(sa.makespan.to_bits(), sb.makespan.to_bits());
            assert_eq!(sa.rounds, sb.rounds);
        }
        spp_core::assert_close!(a.makespan, 2.0);
        prec.assert_valid(&a.placement);
    }

    #[test]
    fn shared_envelope_portfolio_still_finds_the_optimum() {
        let prec = towers();
        let seed = stacked_seed(&prec);
        let out = improve_parallel(
            &prec,
            &seed,
            &PortfolioConfig {
                streams: 4,
                share_envelope: true,
                seed: 11,
                ..PortfolioConfig::default()
            },
        );
        spp_core::assert_close!(out.makespan, 2.0);
        prec.assert_valid(&out.placement);
        assert_eq!(out.makespan, out.streams[out.winner].makespan);
    }
}
