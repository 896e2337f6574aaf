//! Reading and writing instances as files.
//!
//! Two formats, dispatched on the file extension:
//!
//! * `.json` — the canonical `spp-instance` document of
//!   [`spp_core::json`] (items + raw edges); this module pairs the edge
//!   list with a cycle-checked [`Dag`] to produce a [`PrecInstance`];
//! * anything else — the legacy `spp v1` line format of [`crate::textio`].
//!
//! Both serializations are canonical and exact (floats via `{:.17e}`),
//! so a file written by one process parses to the *identical* instance in
//! another — the property the sharded batch executor's byte-identity
//! guarantee is built on.

use std::path::Path;

use spp_core::json::{self, FileFormatError, InstanceFile};
use spp_core::{Instance, InstanceDigest};
use spp_dag::{Dag, PrecInstance};

use crate::textio::TextIoError;

/// Failures while loading or storing an instance file.
#[derive(Debug, Clone, PartialEq)]
pub enum FileIoError {
    /// Filesystem failure (path + OS error text).
    Io { path: String, err: String },
    /// The JSON document violates the `spp-instance` schema.
    Json(FileFormatError),
    /// The `spp v1` text is malformed.
    Text(TextIoError),
    /// Items parsed but violate instance invariants.
    Instance(String),
    /// Edges parsed but do not form a DAG (cycle / bad endpoint).
    Dag(String),
}

impl std::fmt::Display for FileIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileIoError::Io { path, err } => write!(f, "{path}: {err}"),
            FileIoError::Json(e) => write!(f, "{e}"),
            FileIoError::Text(e) => write!(f, "{e}"),
            FileIoError::Instance(e) => write!(f, "invalid instance: {e}"),
            FileIoError::Dag(e) => write!(f, "invalid dag: {e}"),
        }
    }
}

impl std::error::Error for FileIoError {}

/// Serialize to the canonical `spp-instance` JSON document (edges sorted,
/// so equal instances always produce identical bytes). The same writer
/// streams this document into [`digest`].
pub fn to_json(prec: &PrecInstance) -> String {
    json::canonical_json(prec.inst.items(), &sorted_edges(prec))
}

/// Canonical content digest of an instance: FNV-1a over the canonical
/// `spp-instance` document of [`to_json`] (sorted edges, `{:.17e}`
/// floats). The digest identifies *content*, not representation — an
/// instance read from `spp v1` text, from hand-formatted JSON, or built
/// in memory digests identically as long as the items and edges agree.
/// This is the instance component of the engine's solve-cache key.
///
/// The document is streamed into the hasher a line at a time and never
/// built ([`InstanceDigest::of_instance`]); the definition is unchanged.
pub fn digest(prec: &PrecInstance) -> InstanceDigest {
    InstanceDigest::of_instance(prec.inst.items(), &sorted_edges(prec))
}

fn sorted_edges(prec: &PrecInstance) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = prec.dag.edges().collect();
    edges.sort_unstable();
    edges
}

/// Parse an `spp-instance` JSON document into a checked [`PrecInstance`].
pub fn from_json(text: &str) -> Result<PrecInstance, FileIoError> {
    let InstanceFile { items, edges } = InstanceFile::parse(text).map_err(FileIoError::Json)?;
    let n = items.len();
    let inst = Instance::new(items).map_err(|e| FileIoError::Instance(e.to_string()))?;
    let dag = Dag::new(n, &edges).map_err(|e| FileIoError::Dag(e.to_string()))?;
    Ok(PrecInstance::new(inst, dag))
}

/// True iff `path` should be treated as `spp-instance` JSON.
pub fn is_json_path(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "json")
}

/// Parse `text` in the format implied by `path`'s extension.
pub fn from_text_for_path(path: &Path, text: &str) -> Result<PrecInstance, FileIoError> {
    if is_json_path(path) {
        from_json(text)
    } else {
        crate::textio::from_text(text).map_err(FileIoError::Text)
    }
}

/// Read and parse one instance file (format by extension).
pub fn read_path(path: &Path) -> Result<PrecInstance, FileIoError> {
    let text = std::fs::read_to_string(path).map_err(|e| FileIoError::Io {
        path: path.display().to_string(),
        err: e.to_string(),
    })?;
    from_text_for_path(path, &text)
}

/// Serialize in the format implied by `path`'s extension and write it.
pub fn write_path(path: &Path, prec: &PrecInstance) -> Result<(), FileIoError> {
    let text = if is_json_path(path) {
        to_json(prec)
    } else {
        crate::textio::to_text(prec)
    };
    std::fs::write(path, text).map_err(|e| FileIoError::Io {
        path: path.display().to_string(),
        err: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn sample() -> PrecInstance {
        let mut rng = StdRng::seed_from_u64(5);
        let inst = crate::rects::uniform(&mut rng, 20, (0.05, 0.95), (0.05, 1.5));
        crate::rects::with_layered_dag(&mut rng, inst, 4, 0.25)
    }

    #[test]
    fn json_roundtrip_preserves_instance_and_edges() {
        let prec = sample();
        let text = to_json(&prec);
        let back = from_json(&text).unwrap();
        assert_eq!(prec.inst, back.inst);
        let mut e1: Vec<_> = prec.dag.edges().collect();
        let mut e2: Vec<_> = back.dag.edges().collect();
        e1.sort_unstable();
        e2.sort_unstable();
        assert_eq!(e1, e2);
        // Canonical bytes: serializing the parsed instance is identical.
        assert_eq!(to_json(&back), text);
    }

    #[test]
    fn cyclic_edges_rejected_at_dag_layer() {
        let text = r#"{"format": "spp-instance", "version": 1,
            "items": [{"id": 0, "w": 0.5, "h": 1, "release": 0},
                      {"id": 1, "w": 0.5, "h": 1, "release": 0}],
            "edges": [[0, 1], [1, 0]]}"#;
        assert!(matches!(from_json(text), Err(FileIoError::Dag(_))));
    }

    #[test]
    fn extension_dispatch_roundtrips_both_formats() {
        let prec = sample();
        let dir = std::env::temp_dir().join("spp_gen_fileio_test");
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["inst.json", "inst.spp"] {
            let path = dir.join(name);
            write_path(&path, &prec).unwrap();
            let back = read_path(&path).unwrap();
            assert_eq!(back.inst, prec.inst, "{name}");
            assert_eq!(back.dag.edge_count(), prec.dag.edge_count(), "{name}");
        }
        // The JSON variant actually wrote JSON, the other wrote spp v1.
        let json = std::fs::read_to_string(dir.join("inst.json")).unwrap();
        assert!(json.starts_with('{'));
        let text = std::fs::read_to_string(dir.join("inst.spp")).unwrap();
        assert!(text.starts_with("spp v1"));
    }

    #[test]
    fn digest_is_format_independent_and_content_sensitive() {
        let prec = sample();
        let dir = std::env::temp_dir().join("spp_gen_digest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let d = digest(&prec);

        // The same content read back from either on-disk format digests
        // identically — the digest is content-addressed, not byte-addressed.
        for name in ["inst.json", "inst.spp"] {
            let path = dir.join(name);
            write_path(&path, &prec).unwrap();
            assert_eq!(digest(&read_path(&path).unwrap()), d, "{name}");
        }

        // Different content separates.
        let mut rng = StdRng::seed_from_u64(6);
        let other_inst = crate::rects::uniform(&mut rng, 20, (0.05, 0.95), (0.05, 1.5));
        let other = crate::rects::with_layered_dag(&mut rng, other_inst, 4, 0.25);
        assert_ne!(digest(&other), d);

        // Dropping the DAG (same rectangles) also separates.
        let no_dag = spp_dag::PrecInstance::unconstrained(prec.inst.clone());
        assert_ne!(digest(&no_dag), d);
    }

    /// Digests name every cache entry on disk, so their values are pinned:
    /// the checked-in microbench instance and an n = 200 suite.
    #[test]
    fn digests_are_pinned() {
        let micro = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../spp-bench/data/micro_n512.json"
        ));
        assert_eq!(
            digest(&from_json(micro).unwrap()).to_string(),
            "fnv1a:3135e8dc0bc47c85"
        );
        let suite = crate::suite::suite(7, 200, 8);
        let got: Vec<String> = suite.iter().map(|s| digest(&s.prec).hex()).collect();
        let want = [
            "625020ad6d822719",
            "4551feb0ae71e53d",
            "e0015aa08c5f6cf4",
            "015a037e48a8809e",
            "a477c69f99f0ce4e",
            "08f9dec18603a6c8",
            "9dbe9f0bd83980d0",
            "6708b6ba0a03a761",
        ];
        assert_eq!(got, want);
        // The streamed digest is the digest of the materialized document,
        // and that document reads back to the same digest.
        for s in &suite {
            let text = to_json(&s.prec);
            let d = spp_core::InstanceDigest::of_canonical_json(&text);
            assert_eq!(digest(&s.prec), d, "{}", s.name);
            assert_eq!(digest(&from_json(&text).unwrap()), d, "{}", s.name);
        }
    }

    /// `-0` passes validation as a release and equals `0`, so it must
    /// digest as `0`: one cache entry and one improve seed per content.
    #[test]
    fn negative_zero_release_digests_as_zero() {
        let doc = |release: &str| {
            format!(
                r#"{{"format": "spp-instance", "version": 1,
                "items": [{{"id": 0, "w": 0.5, "h": 1, "release": {release}}}], "edges": []}}"#
            )
        };
        let zero = from_json(&doc("0")).unwrap();
        let negative = from_json(&doc("-0")).unwrap();
        assert_eq!(zero.inst, negative.inst);
        assert_eq!(digest(&zero).to_string(), "fnv1a:4dec00bb800acfb0");
        assert_eq!(digest(&negative), digest(&zero));
        assert_eq!(to_json(&negative), to_json(&zero));
    }

    #[test]
    fn missing_file_is_an_io_error_naming_the_path() {
        let err = read_path(Path::new("/nonexistent/xyz.json")).unwrap_err();
        match err {
            FileIoError::Io { path, .. } => assert!(path.contains("xyz.json")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
