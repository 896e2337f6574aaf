//! The workspace's one content-hashing implementation: FNV-1a (64-bit)
//! plus the canonical [`InstanceDigest`] built on it.
//!
//! Everything in the batch pipeline that needs an identity fingerprint —
//! shard-plan file lists, solve-config knobs, and (since the solve cache)
//! whole instances — hashes through this module, so there is exactly one
//! algorithm, one tag format (`fnv1a:<16 hex digits>`), and one place to
//! swap the function if 64 bits ever stop being enough. FNV-1a is not
//! cryptographic; the fingerprints defend against *staleness and
//! corruption*, not adversaries, which is the contract every consumer
//! (resume, merge, cache) actually needs.

use std::fmt;

use crate::item::Item;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Streaming 64-bit FNV-1a hasher.
///
/// ```
/// use spp_core::hash::Fnv1a;
/// let mut h = Fnv1a::new();
/// h.write(b"hello");
/// assert_eq!(h.finish(), Fnv1a::hash(b"hello"));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorb bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a string's UTF-8 bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// One-shot hash of a byte slice.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// The canonical tagged rendering of an FNV-1a value: `fnv1a:<16 hex>`.
/// Every fingerprint the workspace writes to disk uses this form, so a
/// reader can tell at a glance which function produced it.
pub fn fnv1a_tag(h: u64) -> String {
    format!("fnv1a:{h:016x}")
}

/// Content digest of one instance, computed over its **canonical**
/// serialized form — the `{:.17e}` `spp-instance` JSON document with
/// sorted edges ([`crate::json::InstanceFile::to_json`]). Two instances
/// have equal digests iff their canonical documents are byte-identical,
/// regardless of which on-disk format (or in-memory construction) they
/// came from; this is the instance half of the solve-cache key.
///
/// [`InstanceDigest::of_instance`] streams that document into the hasher
/// a line at a time instead of building it; the digest's definition —
/// FNV-1a over the canonical bytes — is the same either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceDigest(u64);

impl InstanceDigest {
    /// Digest a canonical `spp-instance` JSON document. The caller is
    /// responsible for canonical form — pass the output of
    /// [`crate::json::InstanceFile::to_json`] (or `spp_gen::fileio::to_json`,
    /// which sorts edges first), never raw file bytes that may be
    /// hand-formatted.
    pub fn of_canonical_json(doc: &str) -> Self {
        InstanceDigest(Fnv1a::hash(doc.as_bytes()))
    }

    /// Digest the canonical document of `items` and `edges` (edges in the
    /// order given; callers sort them) without building it: equal to
    /// `of_canonical_json(&json::canonical_json(items, edges))`.
    pub fn of_instance(items: &[Item], edges: &[(usize, usize)]) -> Self {
        let mut h = Fnv1a::new();
        crate::json::write_canonical(items, edges, |line| h.write(line));
        InstanceDigest(h.finish())
    }

    /// The raw 64-bit value.
    pub fn as_u64(&self) -> u64 {
        self.0
    }

    /// Bare 16-hex-digit form (for file names, no `fnv1a:` tag).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse the tagged form produced by `Display`.
    pub fn parse(s: &str) -> Option<Self> {
        let hex = s.strip_prefix("fnv1a:")?;
        if hex.len() != 16 {
            return None;
        }
        u64::from_str_radix(hex, 16).ok().map(InstanceDigest)
    }
}

impl fmt::Display for InstanceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fnv1a_tag(self.0))
    }
}

/// Virtual points each node contributes to a [`HashRing`]. 64 points
/// keeps the per-node load spread within a few percent of uniform while
/// the whole ring for a realistic fleet (tens of nodes) still fits in a
/// couple of KiB and rebuilds in microseconds.
pub const RING_POINTS_PER_NODE: usize = 64;

/// A consistent-hash ring over a list of node labels (e.g. cache URLs).
///
/// Each node is expanded into [`RING_POINTS_PER_NODE`] virtual points —
/// `Fnv1a::hash("<label>#<v>")` — and a key hashed to `h` is owned by
/// the node whose point is the first at or after `h` (wrapping). The
/// replica set for replication factor R is the first R *distinct* nodes
/// met walking the ring from there, so adding or removing one node only
/// remaps the ~1/N of keys whose successor span it occupied; everything
/// else keeps its owner. That stability is the whole point: a cache
/// fleet can grow without invalidating the warm entries on the nodes
/// that stayed.
///
/// Node identity is positional: `successors` yields indices into the
/// label slice the ring was built from, in replica order (primary
/// first). The ring itself never talks to a network — it is pure
/// arithmetic shared by any consumer that needs stable placement.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, node index)`, sorted by point. Ties between nodes on an
    /// identical point (vanishingly rare but possible) resolve to the
    /// lower index, deterministically, via the tuple sort.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

/// SplitMix64 finalizer applied to every value before it is placed on
/// the ring. FNV-1a is a fine *fingerprint* but has weak avalanche on
/// short, similar inputs — sequential key names hash to tight clusters
/// in the u64 space, which would pile whole key families onto one node.
/// The finalizer is a bijection (it cannot create collisions), so the
/// FNV identity contract is untouched; it only spreads positions
/// uniformly around the ring.
fn ring_mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// The SplitMix64 finalizer as a standalone bijective mixer.
///
/// Used wherever a family of related integers must be spread into
/// uncorrelated 64-bit values — e.g. the anytime portfolio derives
/// stream `i`'s seed as `base ^ splitmix_mix(i)`. Two properties
/// consumers rely on: it is a bijection (distinct inputs stay distinct,
/// so derived streams never collide), and `splitmix_mix(0) == 0` (so
/// stream 0 of a portfolio replays the single-stream search exactly).
pub fn splitmix_mix(h: u64) -> u64 {
    ring_mix(h)
}

/// The golden-ratio increment of the SplitMix64 stream.
const SPLITMIX_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 sequence generator (Steele–Lea–Flood): a Weyl sequence on
/// the golden-ratio increment, finalized by the same bijective mixer the
/// [`HashRing`] uses. Two properties the workspace relies on:
///
/// * **Deterministic and seed-addressed** — the whole stream is a pure
///   function of the seed, so any consumer that derives its seed from
///   content (e.g. `digest ^ user_seed` in the anytime improvement loop)
///   replays identically on every machine and every run.
/// * **Stateless jumps** — the k-th output is `mix(seed + k·golden)`,
///   so streams never need to be stored, only reseeded.
///
/// Not cryptographic; like the rest of this module it defends against
/// clustering, not adversaries.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Stream addressed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SPLITMIX_GOLDEN);
        ring_mix(self.state)
    }

    /// Uniform value in `[0, n)`; `n` must be positive. Uses the
    /// multiply-shift reduction (Lemire), which is bias-negligible for
    /// the small `n` (subset sizes, insertion positions) used here.
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "next_below needs a positive bound");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// In-place Fisher–Yates shuffle driven by this stream.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

impl HashRing {
    /// Build a ring with the default [`RING_POINTS_PER_NODE`].
    pub fn new<S: AsRef<str>>(labels: &[S]) -> Self {
        Self::with_points(labels, RING_POINTS_PER_NODE)
    }

    /// Build a ring with an explicit virtual-point count (tests use
    /// small counts to probe skew; production uses [`new`](Self::new)).
    pub fn with_points<S: AsRef<str>>(labels: &[S], points_per_node: usize) -> Self {
        let mut points = Vec::with_capacity(labels.len() * points_per_node);
        for (index, label) in labels.iter().enumerate() {
            for v in 0..points_per_node {
                let mut h = Fnv1a::new();
                h.write_str(label.as_ref());
                h.write_str("#");
                h.write_str(&v.to_string());
                points.push((ring_mix(h.finish()), index));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            nodes: labels.len(),
        }
    }

    /// Number of nodes on the ring.
    pub fn len(&self) -> usize {
        self.nodes
    }

    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// The first `count` *distinct* nodes met walking the ring from the
    /// successor of `key_hash` — the key's replica set, primary first.
    /// Yields fewer than `count` indices only when the ring has fewer
    /// nodes than that.
    pub fn successors(&self, key_hash: u64, count: usize) -> Vec<usize> {
        let want = count.min(self.nodes);
        let mut out = Vec::with_capacity(want);
        if want == 0 {
            return out;
        }
        let mixed = ring_mix(key_hash);
        let start = self.points.partition_point(|&(p, _)| p < mixed);
        for offset in 0..self.points.len() {
            let (_, node) = self.points[(start + offset) % self.points.len()];
            if !out.contains(&node) {
                out.push(node);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// The node that owns `key_hash` (first successor), if any node
    /// exists.
    pub fn primary(&self, key_hash: u64) -> Option<usize> {
        self.successors(key_hash, 1).first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::InstanceFile;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Reference vectors from the FNV specification (64-bit FNV-1a).
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"hello ");
        h.write_str("world");
        assert_eq!(h.finish(), Fnv1a::hash(b"hello world"));
    }

    #[test]
    fn tag_format_is_stable() {
        assert_eq!(fnv1a_tag(0xdead_beef), "fnv1a:00000000deadbeef");
        assert_eq!(fnv1a_tag(Fnv1a::hash(b"")), "fnv1a:cbf29ce484222325");
    }

    /// The streamed digest, checked against the materialized document's.
    fn digest_of(file: &InstanceFile) -> InstanceDigest {
        let streamed = InstanceDigest::of_instance(&file.items, &file.edges);
        assert_eq!(streamed, InstanceDigest::of_canonical_json(&file.to_json()));
        streamed
    }

    fn file(items: Vec<Item>, edges: Vec<(usize, usize)>) -> InstanceFile {
        InstanceFile::new(items, edges)
    }

    #[test]
    fn digest_separates_content_not_representation() {
        let a = file(
            vec![
                Item::with_release(0, 0.5, 1.0, 0.0),
                Item::with_release(1, 0.25, 2.0, 1.5),
            ],
            vec![(0, 1)],
        );
        let same = a.clone();
        assert_eq!(digest_of(&a), digest_of(&same));

        // Any content change moves the digest.
        let mut other = a.clone();
        other.items[0].w = 0.75;
        assert_ne!(digest_of(&a), digest_of(&other));
        let mut no_edge = a.clone();
        no_edge.edges.clear();
        assert_ne!(digest_of(&a), digest_of(&no_edge));

        // And parsing the canonical document back reproduces the digest.
        let reparsed = InstanceFile::parse(&a.to_json()).unwrap();
        assert_eq!(digest_of(&a), digest_of(&reparsed));
    }

    #[test]
    fn ring_replicas_are_distinct_and_bounded_by_node_count() {
        let nodes = ["http://a:1", "http://b:1", "http://c:1"];
        let ring = HashRing::new(&nodes);
        assert_eq!(ring.len(), 3);
        for key in 0..200u64 {
            let hash = Fnv1a::hash(format!("key-{key}").as_bytes());
            let replicas = ring.successors(hash, 2);
            assert_eq!(replicas.len(), 2);
            assert_ne!(replicas[0], replicas[1]);
            // Asking for more replicas than nodes yields every node once.
            let mut all = ring.successors(hash, 10);
            assert_eq!(all[0], replicas[0], "walk order must be stable");
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2]);
        }
    }

    #[test]
    fn ring_walk_is_deterministic_and_covers_all_nodes() {
        let nodes = ["http://a:1", "http://b:1", "http://c:1", "http://d:1"];
        let ring = HashRing::new(&nodes);
        let mut seen_primary = [false; 4];
        for key in 0..1000u64 {
            let hash = Fnv1a::hash(format!("key-{key}").as_bytes());
            let primary = ring.primary(hash).unwrap();
            seen_primary[primary] = true;
            assert_eq!(ring.primary(hash).unwrap(), primary);
        }
        assert!(
            seen_primary.iter().all(|&s| s),
            "every node should own some keys: {seen_primary:?}"
        );
        let empty: [&str; 0] = [];
        assert!(HashRing::new(&empty).primary(42).is_none());
    }

    /// The consistent-hashing stability property: growing the fleet from
    /// N to N+1 nodes moves only the keys the new node takes over
    /// (~1/(N+1) of them); every other key keeps its primary. This is
    /// the invariant that keeps a cache fleet's warm entries warm across
    /// a resize.
    #[test]
    fn ring_stability_adding_a_node_moves_only_its_share_of_keys() {
        let two = ["http://a:1", "http://b:1"];
        let three = ["http://a:1", "http://b:1", "http://c:1"];
        let before = HashRing::new(&two);
        let after = HashRing::new(&three);
        const KEYS: u64 = 3000;
        let mut moved = 0u64;
        for key in 0..KEYS {
            let hash = Fnv1a::hash(format!("stability-key-{key}").as_bytes());
            let old = before.primary(hash).unwrap();
            let new = after.primary(hash).unwrap();
            if new != old {
                moved += 1;
                // A key may only move TO the new node; old nodes never
                // trade keys among themselves.
                assert_eq!(new, 2, "key {key} moved between pre-existing nodes");
            }
        }
        let fraction = moved as f64 / KEYS as f64;
        // Expected share is 1/3; 64 vnodes keeps the realized share in a
        // loose band around it.
        assert!(
            (0.15..=0.55).contains(&fraction),
            "moved fraction {fraction} out of band (expected ~1/3)"
        );
    }

    #[test]
    fn splitmix_streams_are_deterministic_and_seed_separated() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys, "same seed must replay the same stream");
        assert_ne!(xs, zs, "adjacent seeds must diverge");
        // Reference value: mix(seed + golden) with the published
        // splitmix64 constants (checked against the Steele et al. code).
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn splitmix_bounded_draws_stay_in_range() {
        let mut rng = SplitMix64::new(7);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v = rng.next_below(5);
            assert!(v < 5);
            seen[v as usize] = true;
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert!(seen.iter().all(|&s| s), "all residues drawn: {seen:?}");
    }

    #[test]
    fn splitmix_shuffle_is_a_deterministic_permutation() {
        let mut a: Vec<usize> = (0..20).collect();
        let mut b: Vec<usize> = (0..20).collect();
        SplitMix64::new(9).shuffle(&mut a);
        SplitMix64::new(9).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(a, sorted, "seed 9 must actually permute 20 elements");
    }

    #[test]
    fn digest_display_roundtrips() {
        let d = InstanceDigest::of_canonical_json("{}");
        let shown = d.to_string();
        assert!(shown.starts_with("fnv1a:"), "{shown}");
        assert_eq!(InstanceDigest::parse(&shown), Some(d));
        assert_eq!(InstanceDigest::parse("fnv1a:xyz"), None);
        assert_eq!(InstanceDigest::parse("sha256:deadbeef"), None);
        assert_eq!(d.hex().len(), 16);
    }
}
