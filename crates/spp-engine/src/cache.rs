//! Content-addressed solve cache.
//!
//! Every deterministic solver in the registry maps a cell — an
//! `(instance, solver, config)` triple — to exactly one portable outcome
//! (status, makespan, combined lower bound). The cache memoizes that map
//! under a **content-addressed key**:
//!
//! * the instance's canonical [`InstanceDigest`] (FNV-1a over the
//!   `{:.17e}` `spp-instance` JSON form, so identity follows content,
//!   never file paths or formats),
//! * the solver's registry name,
//! * the [`SolveConfig`] signature (every knob that can change output).
//!
//! Two backends implement [`SolveCache`]: [`MemoryCache`] (a mutexed map,
//! for in-process warm reruns and tests) and [`DiskCache`] (one
//! `spp-cache-entry` JSON file per key, shareable between processes and
//! machines the same way shard reports are). Both are consulted by the
//! engine's [`execute_cells`](crate::batch::execute_cells) pipeline:
//! batch, shard, and resume all flow through the same get-before-solve /
//! put-on-miss path, which is what makes a warm rerun's merged output
//! byte-identical to the cold run with **zero** solver invocations.
//!
//! Trust model: cached values are only served when the entry's embedded
//! key (digest, solver, full config signature) matches the request — a
//! truncated, corrupted, or mis-filed entry is *rejected and recomputed*,
//! never served. Cells whose placement failed validation
//! ([`CellStatus::Invalid`]) are never written: an invalid cell is a
//! solver bug, and caching it would keep reporting the bug after the fix
//! ships.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use spp_core::hash::Fnv1a;
use spp_core::json::{self, JsonValue};
use spp_core::InstanceDigest;

use crate::batch::CellStatus;
use crate::request::SolveConfig;

/// Cache-layer failures: always filesystem problems (a *logically* bad
/// entry is a miss, not an error — the pipeline recomputes and overwrites).
#[derive(Debug, Clone, PartialEq)]
pub enum CacheError {
    Io { path: String, err: String },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io { path, err } => write!(f, "cache: {path}: {err}"),
        }
    }
}

impl std::error::Error for CacheError {}

fn io_err(path: &Path, err: impl std::fmt::Display) -> CacheError {
    CacheError::Io {
        path: path.display().to_string(),
        err: err.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Keys and values
// ---------------------------------------------------------------------------

/// The full cache key of one cell. Equality of all three components is
/// required to serve an entry; the on-disk file name additionally encodes
/// the config through its FNV-1a fingerprint (signatures are long), with
/// the full signature embedded in the entry to catch fingerprint
/// collisions and stale files.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical content digest of the instance.
    pub digest: InstanceDigest,
    /// Registry name of the solver.
    pub solver: String,
    /// Full [`SolveConfig::signature`] string.
    pub config_sig: String,
}

impl CacheKey {
    pub fn new(digest: InstanceDigest, solver: &str, config: &SolveConfig) -> Self {
        CacheKey {
            digest,
            solver: solver.to_string(),
            config_sig: config.signature(),
        }
    }

    /// On-disk entry file name:
    /// `<instance hex>-<solver>-<config fingerprint hex>.json`.
    /// Solver names are registry identifiers (`[a-z0-9-]`), so the name
    /// needs no escaping and stays stable across platforms.
    pub fn file_name(&self) -> String {
        format!(
            "{}-{}-{:016x}.json",
            self.digest.hex(),
            self.solver,
            Fnv1a::hash(self.config_sig.as_bytes())
        )
    }
}

/// The portable outcome of one cell — exactly the deterministic fields of
/// a [`CellRow`](crate::sharding::CellRow), minus the per-run identity
/// (job index, label) that content addressing makes irrelevant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedCell {
    pub status: CellStatus,
    pub makespan: f64,
    pub combined_lb: f64,
    /// Seed (pre-improvement) makespan, recorded when the anytime loop
    /// strictly improved the cell — `makespan` is then the *improved*
    /// value. `None` for one-shot cells and entries written before the
    /// field existed (old entries stay parseable).
    pub improved_from: Option<f64>,
}

impl CachedCell {
    /// The best-so-far ordering used by [`SolveCache::put_best`]: a cell
    /// replaces an existing entry only when it is strictly better —
    /// solved beats unsolved, and among solved cells a strictly lower
    /// makespan wins. Ties keep the incumbent, so two runs can never
    /// ping-pong an entry.
    pub fn better_than(&self, incumbent: &CachedCell) -> bool {
        match (self.status, incumbent.status) {
            (CellStatus::Solved, CellStatus::Solved) => self.makespan < incumbent.makespan,
            (CellStatus::Solved, _) => true,
            _ => false,
        }
    }
}

const ENTRY_FORMAT: &str = "spp-cache-entry";
const ENTRY_VERSION: u64 = 1;

/// Serialize one entry as a canonical `spp-cache-entry` document.
pub fn entry_to_json(key: &CacheKey, cell: &CachedCell) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"format\": \"{ENTRY_FORMAT}\",");
    let _ = writeln!(out, "  \"version\": {ENTRY_VERSION},");
    let _ = writeln!(out, "  \"instance\": \"{}\",", key.digest);
    let _ = writeln!(out, "  \"solver\": \"{}\",", json::escape(&key.solver));
    let _ = writeln!(out, "  \"config\": \"{}\",", json::escape(&key.config_sig));
    let _ = writeln!(out, "  \"status\": \"{}\",", cell.status.as_str());
    // Optional field, emitted only for improved cells so pre-anytime
    // entries and one-shot entries share one canonical form.
    if let Some(seed) = cell.improved_from {
        let _ = writeln!(out, "  \"improved_from\": {seed:.17e},");
    }
    let _ = writeln!(out, "  \"makespan\": {:.17e},", cell.makespan);
    let _ = writeln!(out, "  \"lb\": {:.17e}", cell.combined_lb);
    out.push_str("}\n");
    out
}

/// Parse an entry document back into its key and value. Any deviation —
/// syntax, schema, unknown status, wrong format tag — is an `Err` whose
/// message names the problem; callers treat it as "not a cache entry".
pub fn entry_parse(text: &str) -> Result<(CacheKey, CachedCell), String> {
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let obj = json::as_obj(&doc, "$").map_err(|e| e.to_string())?;
    let field = |name: &str| json::get_field(obj, &doc, name).map_err(|e| e.to_string());
    let str_field = |name: &str| -> Result<String, String> {
        json::as_str(field(name)?, name)
            .map(str::to_string)
            .map_err(|e| e.to_string())
    };

    if str_field("format")? != ENTRY_FORMAT {
        return Err(format!("format tag is not {ENTRY_FORMAT:?}"));
    }
    if json::as_u64(field("version")?, "version").map_err(|e| e.to_string())? != ENTRY_VERSION {
        return Err("unsupported cache entry version".to_string());
    }
    let digest_str = str_field("instance")?;
    let digest = InstanceDigest::parse(&digest_str)
        .ok_or_else(|| format!("bad instance digest {digest_str:?}"))?;
    let status_str = str_field("status")?;
    let status =
        CellStatus::parse(&status_str).ok_or_else(|| format!("unknown status {status_str:?}"))?;
    let num = |v: &JsonValue, name: &str| -> Result<f64, String> {
        json::as_num(v, name).map_err(|e| e.to_string())
    };
    // `improved_from` arrived with the anytime layer; absence means a
    // one-shot (or pre-anytime) entry, so old documents keep parsing.
    let improved_from = match json::get_field(obj, &doc, "improved_from") {
        Ok(v) => Some(num(v, "improved_from")?),
        Err(_) => None,
    };
    Ok((
        CacheKey {
            digest,
            solver: str_field("solver")?,
            config_sig: str_field("config")?,
        },
        CachedCell {
            status,
            makespan: num(field("makespan")?, "makespan")?,
            combined_lb: num(field("lb")?, "lb")?,
            improved_from,
        },
    ))
}

/// Parse the entry stored under `file_name`: the one rule every reader
/// of a cache directory applies. The text must parse as an entry
/// ([`entry_parse`]) and its embedded key must map back to `file_name` —
/// a mis-filed entry can never be served, so it is damage, not an entry.
pub fn entry_parse_named(text: &str, file_name: &str) -> Result<(CacheKey, CachedCell), String> {
    let (key, cell) = entry_parse(text)?;
    let expected = key.file_name();
    if expected != file_name {
        return Err(format!(
            "entry key maps to file name {expected:?}, found under {file_name:?}"
        ));
    }
    Ok((key, cell))
}

// ---------------------------------------------------------------------------
// The trait and its stats
// ---------------------------------------------------------------------------

/// Counters accumulated by a cache over its lifetime (snapshot — see
/// [`SolveCache::stats`]). `rejected` counts entries that were *present
/// but refused* (corrupt, truncated, or keyed to different content);
/// every rejection is also a miss, so `hits + misses` always equals the
/// number of `get` calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub writes: u64,
    pub rejected: u64,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} written",
            self.hits, self.misses, self.writes
        )?;
        if self.rejected > 0 {
            write!(f, ", {} rejected", self.rejected)?;
        }
        Ok(())
    }
}

#[derive(Default)]
struct AtomicStats {
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    rejected: AtomicU64,
}

impl AtomicStats {
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

/// A memoization backend for solved cells. Implementations must be
/// thread-safe: the executor calls `get`/`put` from worker threads.
///
/// `get` is infallible by design — anything short of a byte-exact,
/// key-matching entry is a miss (the pipeline recomputes and `put`
/// overwrites). `put` reports real I/O failures: a user who asked for a
/// cache directory should hear that it is unwritable rather than paying
/// full solve cost on every "warm" run.
pub trait SolveCache: Sync {
    /// Look up a cell; `None` is a miss.
    fn get(&self, key: &CacheKey) -> Option<CachedCell>;

    /// Store a cell (overwriting any previous entry for the key).
    fn put(&self, key: &CacheKey, cell: &CachedCell) -> Result<(), CacheError>;

    /// Store a cell under the **best-so-far rule**: an existing entry is
    /// overwritten only when `cell` is strictly better
    /// ([`CachedCell::better_than`]) — a worse result can never clobber
    /// an improved one, whichever machine or budget produced it. The
    /// default forwards to [`put`](Self::put), which is correct for the
    /// HTTP backends: the cache server applies this rule to every
    /// `PUT /cache`. Local backends override it with a stats-free peek so
    /// the comparison does not distort hit/miss counters.
    fn put_best(&self, key: &CacheKey, cell: &CachedCell) -> Result<(), CacheError> {
        self.put(key, cell)
    }

    /// Lifetime counters.
    fn stats(&self) -> CacheStats;
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// Process-local backend: a mutexed map. The unit of sharing is the
/// process — use it for warm in-process reruns (e.g. parameter sweeps
/// that revisit instances) and tests.
#[derive(Default)]
pub struct MemoryCache {
    map: Mutex<HashMap<CacheKey, CachedCell>>,
    stats: AtomicStats,
}

impl MemoryCache {
    pub fn new() -> Self {
        MemoryCache::default()
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache mutex poisoned").len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SolveCache for MemoryCache {
    fn get(&self, key: &CacheKey) -> Option<CachedCell> {
        let found = self
            .map
            .lock()
            .expect("cache mutex poisoned")
            .get(key)
            .copied();
        match found {
            Some(cell) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(cell)
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, key: &CacheKey, cell: &CachedCell) -> Result<(), CacheError> {
        self.map
            .lock()
            .expect("cache mutex poisoned")
            .insert(key.clone(), *cell);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn put_best(&self, key: &CacheKey, cell: &CachedCell) -> Result<(), CacheError> {
        // One lock for compare + insert: concurrent writers serialize on
        // the map, so the best entry wins regardless of arrival order.
        let mut map = self.map.lock().expect("cache mutex poisoned");
        if map.get(key).is_some_and(|old| !cell.better_than(old)) {
            return Ok(());
        }
        map.insert(key.clone(), *cell);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }
}

// ---------------------------------------------------------------------------
// On-disk backend
// ---------------------------------------------------------------------------

/// Durable backend: one `spp-cache-entry` JSON file per key, directly in
/// `dir`. The directory is the unit of sharing — concurrent processes
/// (e.g. the shard processes of one batch) can point at the same
/// directory. Writes publish atomically ([`write_entry_atomic`]: unique
/// temp file, then `rename`), so a reader of a live key only ever sees a
/// complete entry — a crashed or concurrently-scheduled writer can orphan
/// a `*.tmp` file (swept by [`gc_dir`]) but never leave a truncated file
/// at the live name. Entry validation on `get` remains the second line of
/// defense for damage that arrives by other routes (bad copies, disk
/// corruption).
///
/// In read-only mode (`--cache-readonly`) `put` is a no-op, so a
/// production cache can be served to untrusted batch runs without letting
/// them grow or overwrite it.
pub struct DiskCache {
    dir: PathBuf,
    readonly: bool,
    stats: AtomicStats,
}

impl DiskCache {
    /// Open (and create, unless read-only) a cache directory.
    pub fn new(dir: &Path, readonly: bool) -> Result<Self, CacheError> {
        if !readonly {
            std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        }
        Ok(DiskCache {
            dir: dir.to_path_buf(),
            readonly,
            stats: AtomicStats::default(),
        })
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// True iff `put` is a no-op.
    pub fn is_readonly(&self) -> bool {
        self.readonly
    }
}

impl SolveCache for DiskCache {
    fn get(&self, key: &CacheKey) -> Option<CachedCell> {
        let file_name = key.file_name();
        let miss = |rejected: bool| {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            if rejected {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            }
            None
        };
        let text = match std::fs::read_to_string(self.dir.join(&file_name)) {
            Ok(t) => t,
            Err(_) => return miss(false),
        };
        match entry_parse_named(&text, &file_name) {
            // Serve only when the *embedded* key matches the request —
            // this is what turns corruption, truncation, fingerprint
            // collisions and mis-filed entries into recomputation.
            Ok((entry_key, cell)) if entry_key == *key => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(cell)
            }
            _ => miss(true),
        }
    }

    fn put(&self, key: &CacheKey, cell: &CachedCell) -> Result<(), CacheError> {
        if self.readonly {
            return Ok(());
        }
        write_entry_atomic(&self.dir, &key.file_name(), &entry_to_json(key, cell))?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn put_best(&self, key: &CacheKey, cell: &CachedCell) -> Result<(), CacheError> {
        if self.readonly {
            return Ok(());
        }
        // Stats-free peek: a damaged or mis-keyed file never blocks the
        // write (it could not be served anyway), only a genuinely better
        // incumbent does. The compare-then-rename window is racy in
        // principle, but both racers hold *valid* results for the same
        // cell, and the atomic rename keeps whichever landed last intact.
        let file_name = key.file_name();
        let incumbent = std::fs::read_to_string(self.dir.join(&file_name))
            .ok()
            .and_then(|text| entry_parse_named(&text, &file_name).ok())
            .filter(|(entry_key, _)| entry_key == key)
            .map(|(_, old)| old);
        if incumbent.is_some_and(|old| !cell.better_than(&old)) {
            return Ok(());
        }
        self.put(key, cell)
    }

    fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }
}

/// Monotonic discriminator for temp-file names within this process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// File extension of in-flight temp files (never scanned as entries,
/// swept by [`gc_dir`] when orphaned by a crash).
const TEMP_EXT: &str = "tmp";

/// Publish `text` under `dir/file_name` **atomically**: write a unique
/// temp file in the same directory, then `rename` it into place (atomic
/// on POSIX). Readers of the live name therefore only ever see either the
/// previous complete entry or the new complete entry — never a truncated
/// in-progress write, whatever crashes or concurrent same-key writers do.
/// A crashed writer leaves only an orphaned `*.tmp` file, which
/// [`gc_dir`] sweeps and which [`scan_dir`] never mistakes for an entry.
///
/// Shared by [`DiskCache::put`] and the `spp serve` cache server's PUT
/// handler, so every process that writes a shared cache directory writes
/// it the same safe way.
pub fn write_entry_atomic(dir: &Path, file_name: &str, text: &str) -> Result<(), CacheError> {
    let path = dir.join(file_name);
    // pid + sequence makes the temp name unique across the concurrent
    // writers of one directory, so writers never trample each other's
    // in-flight bytes.
    let tmp = dir.join(format!(
        "{file_name}.{}-{}.{TEMP_EXT}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, text).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, &path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io_err(&path, e)
    })
}

// ---------------------------------------------------------------------------
// Directory inspection (spp cache stats / gc / verify)
// ---------------------------------------------------------------------------

/// One file found while scanning a cache directory.
pub struct ScannedEntry {
    pub path: PathBuf,
    /// Size in bytes.
    pub bytes: u64,
    /// Time since the file was last written, when the filesystem reports
    /// one (`None` on filesystems without mtimes — such files are never
    /// age-evicted, only damage-evicted).
    pub age: Option<std::time::Duration>,
    /// The parsed entry, or why the file is not a valid entry. A file
    /// whose embedded key does not reproduce its own file name is an
    /// `Err` too — it can never be served, so it is garbage by definition.
    pub entry: Result<(CacheKey, CachedCell), String>,
}

/// Scan a cache directory, sorted by file name (deterministic output for
/// the CLI and tests). Non-`.json` files are ignored — the directory may
/// hold editor droppings or a README.
pub fn scan_dir(dir: &Path) -> Result<Vec<ScannedEntry>, CacheError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| io_err(dir, e))?
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| io_err(dir, e))?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let meta = std::fs::metadata(&path).map_err(|e| io_err(&path, e))?;
        let bytes = meta.len();
        let age = meta
            .modified()
            .ok()
            .and_then(|m| std::time::SystemTime::now().duration_since(m).ok());
        let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let entry = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| entry_parse_named(&text, file_name));
        out.push(ScannedEntry {
            path,
            bytes,
            age,
            entry,
        });
    }
    Ok(out)
}

/// Labels of the [`DirStats::ages`] histogram buckets, oldest last.
pub const AGE_BUCKETS: [&str; 4] = ["1h", "1d", "7d", "old"];

/// Bucket index of an entry age: under an hour, under a day, under a
/// week, older (unknown ages count as fresh — they can never expire).
fn age_bucket(age: Option<std::time::Duration>) -> usize {
    const HOUR: u64 = 3600;
    match age.map(|a| a.as_secs()) {
        None => 0,
        Some(s) if s < HOUR => 0,
        Some(s) if s < 24 * HOUR => 1,
        Some(s) if s < 7 * 24 * HOUR => 2,
        Some(_) => 3,
    }
}

/// Aggregate view of a cache directory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DirStats {
    /// Valid entries (would be served on a matching request).
    pub entries: usize,
    /// Files that parse as no valid entry (corrupt/truncated/mis-filed).
    pub corrupt: usize,
    /// Total size of all scanned files.
    pub bytes: u64,
    /// Valid entries per solver, sorted by solver name.
    pub per_solver: Vec<(String, usize)>,
    /// Distinct instance digests among valid entries.
    pub instances: usize,
    /// Distinct config signatures among valid entries.
    pub configs: usize,
    /// Valid entries by age, bucketed as [`AGE_BUCKETS`] (&lt; 1 hour,
    /// &lt; 1 day, &lt; 7 days, older) — the input to choosing a
    /// `gc --max-age` threshold.
    pub ages: [usize; 4],
}

/// Summarize a cache directory (the `spp cache stats` view).
pub fn dir_stats(dir: &Path) -> Result<DirStats, CacheError> {
    let mut stats = DirStats::default();
    let mut per_solver: HashMap<String, usize> = HashMap::new();
    let mut instances = std::collections::HashSet::new();
    let mut configs = std::collections::HashSet::new();
    for scanned in scan_dir(dir)? {
        stats.bytes += scanned.bytes;
        match scanned.entry {
            Ok((key, _)) => {
                stats.entries += 1;
                stats.ages[age_bucket(scanned.age)] += 1;
                *per_solver.entry(key.solver).or_insert(0) += 1;
                instances.insert(key.digest);
                configs.insert(key.config_sig);
            }
            Err(_) => stats.corrupt += 1,
        }
    }
    stats.instances = instances.len();
    stats.configs = configs.len();
    stats.per_solver = per_solver.into_iter().collect();
    stats.per_solver.sort();
    Ok(stats)
}

/// Outcome of [`gc_dir`].
#[derive(Debug, Clone, PartialEq)]
pub struct GcReport {
    /// Files removed (corrupt, truncated, mis-filed, or orphaned temp
    /// files), sorted within each sweep.
    pub removed: Vec<PathBuf>,
    /// Valid entries evicted by age (subset bookkeeping of `removed`'s
    /// length is deliberate: they are listed in `removed` too).
    pub expired: usize,
    /// Valid entries left in place.
    pub kept: usize,
}

/// How old (by mtime) a `*.tmp` file must be before gc treats it as an
/// orphan rather than a live writer's in-flight publish. A healthy
/// [`write_entry_atomic`] holds its temp file for the duration of one
/// `fs::write` + `fs::rename` — microseconds to low milliseconds — so a
/// minute of grace distinguishes "crashed writer's litter" from "writer
/// mid-publish" with enormous margin, while still letting routine gc
/// reclaim genuine orphans on its next pass.
pub const TMP_GRACE: std::time::Duration = std::time::Duration::from_secs(60);

/// Garbage-collect a cache directory: delete every `.json` file that is
/// not a servable entry, plus every orphaned `*.tmp` file left behind by
/// a writer that crashed between temp-write and rename. Damaged files go
/// whatever their age — content-addressed keys cannot go *stale*, only
/// damaged.
///
/// With `max_age` (the CLI's `spp cache gc --max-age`) a *valid* entry
/// whose file was last written at least that long ago is deleted too.
/// Evicting a live entry is always safe — the cache is a pure
/// memoization, so the cell simply recomputes (and re-publishes) on its
/// next use; the knob trades disk for solve time on caches that accrete
/// one-off workloads. Entries without a readable mtime are treated as
/// fresh.
///
/// Safe to run concurrently with live writers: a temp file younger than
/// [`TMP_GRACE`] (or whose mtime is unreadable) is presumed to be an
/// in-flight publish and left alone, so gc cannot yank a writer's file
/// between its `fs::write` and `fs::rename` and fail the put.
pub fn gc_dir(dir: &Path, max_age: Option<std::time::Duration>) -> Result<GcReport, CacheError> {
    gc_dir_with_grace(dir, max_age, TMP_GRACE)
}

/// [`gc_dir`] with an explicit temp-file grace period, so the tests can
/// exercise the orphan sweep without waiting a minute.
fn gc_dir_with_grace(
    dir: &Path,
    max_age: Option<std::time::Duration>,
    tmp_grace: std::time::Duration,
) -> Result<GcReport, CacheError> {
    let mut report = GcReport {
        removed: Vec::new(),
        expired: 0,
        kept: 0,
    };
    for scanned in scan_dir(dir)? {
        let expired = scanned.entry.is_ok()
            && match (max_age, scanned.age) {
                (Some(limit), Some(age)) => age >= limit,
                _ => false,
            };
        match (&scanned.entry, expired) {
            (Ok(_), false) => report.kept += 1,
            (Ok(_), true) => {
                std::fs::remove_file(&scanned.path).map_err(|e| io_err(&scanned.path, e))?;
                report.expired += 1;
                report.removed.push(scanned.path);
            }
            (Err(_), _) => {
                std::fs::remove_file(&scanned.path).map_err(|e| io_err(&scanned.path, e))?;
                report.removed.push(scanned.path);
            }
        }
    }
    // Orphaned temp files sort after the corrupt-entry sweep so the
    // report stays deterministic. A temp file younger than `tmp_grace`
    // (or with an unreadable mtime — presume fresh) may belong to a
    // writer that is between `fs::write` and `fs::rename` right now;
    // sweeping it would fail that put, so it is skipped and picked up by
    // a later gc pass if it really was an orphan.
    let now = std::time::SystemTime::now();
    let is_aged_orphan = |p: &PathBuf| {
        std::fs::metadata(p)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| now.duration_since(mtime).ok())
            .is_some_and(|age| age >= tmp_grace)
    };
    let mut orphans: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| io_err(dir, e))?
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| io_err(dir, e))?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == TEMP_EXT))
        .filter(is_aged_orphan)
        .collect();
    orphans.sort();
    for path in orphans {
        std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
        report.removed.push(path);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: &str) -> CacheKey {
        CacheKey {
            digest: InstanceDigest::of_canonical_json(tag),
            solver: "nfdh".into(),
            config_sig: SolveConfig::default().signature(),
        }
    }

    fn cell(makespan: f64) -> CachedCell {
        CachedCell {
            status: CellStatus::Solved,
            makespan,
            combined_lb: makespan / 2.0,
            improved_from: None,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spp_engine_cache_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn entry_roundtrips_exactly() {
        let (k, c) = (key("a"), cell(1.25));
        let text = entry_to_json(&k, &c);
        let (k2, c2) = entry_parse(&text).unwrap();
        assert_eq!(k2, k);
        assert_eq!(c2, c);
        // Canonical: serialize ∘ parse ∘ serialize = serialize.
        assert_eq!(entry_to_json(&k2, &c2), text);
    }

    #[test]
    fn improved_entries_roundtrip_and_old_entries_stay_parseable() {
        let k = key("a");
        let improved = CachedCell {
            improved_from: Some(2.5),
            ..cell(1.75)
        };
        let text = entry_to_json(&k, &improved);
        assert!(text.contains("improved_from"));
        let (_, c2) = entry_parse(&text).unwrap();
        assert_eq!(c2, improved);
        assert_eq!(entry_to_json(&k, &c2), text, "canonical form");

        // A document without the field — exactly what every pre-anytime
        // entry on disk looks like — parses to `improved_from: None`.
        let old = entry_to_json(&k, &cell(1.75));
        assert!(!old.contains("improved_from"));
        let (_, c3) = entry_parse(&old).unwrap();
        assert_eq!(c3.improved_from, None);
        assert_eq!(c3.makespan, 1.75);
    }

    #[test]
    fn best_so_far_ordering_and_put_best() {
        let unsupported = CachedCell {
            status: CellStatus::Unsupported,
            ..cell(0.0)
        };
        assert!(cell(1.0).better_than(&cell(2.0)));
        assert!(!cell(2.0).better_than(&cell(1.0)));
        assert!(!cell(1.0).better_than(&cell(1.0)), "ties keep incumbent");
        assert!(cell(9.0).better_than(&unsupported));
        assert!(!unsupported.better_than(&cell(9.0)));

        for (name, cache) in [
            (
                "memory",
                Box::new(MemoryCache::new()) as Box<dyn SolveCache>,
            ),
            (
                "disk",
                Box::new(DiskCache::new(&tmp_dir("put_best"), false).unwrap()),
            ),
        ] {
            cache.put_best(&key("a"), &cell(4.0)).unwrap();
            // Worse result arrives later (slower machine / smaller
            // budget): the improved entry must survive.
            cache.put_best(&key("a"), &cell(5.0)).unwrap();
            assert_eq!(cache.get(&key("a")), Some(cell(4.0)), "{name}");
            // Strictly better overwrites.
            let better = CachedCell {
                improved_from: Some(4.0),
                ..cell(3.0)
            };
            cache.put_best(&key("a"), &better).unwrap();
            assert_eq!(cache.get(&key("a")), Some(better), "{name}");
        }
    }

    #[test]
    fn entry_rejects_malformed_documents() {
        assert!(entry_parse("").is_err());
        assert!(entry_parse("{}").is_err());
        let (k, c) = (key("a"), cell(1.0));
        let text = entry_to_json(&k, &c);
        // Truncation at every prefix is rejected, never misparsed.
        for cut in 0..text.len() - 1 {
            assert!(entry_parse(&text[..cut]).is_err(), "prefix {cut} accepted");
        }
        let wrong_format = text.replace(ENTRY_FORMAT, "spp-instance");
        assert!(entry_parse(&wrong_format).is_err());
    }

    #[test]
    fn memory_cache_hits_after_put() {
        let cache = MemoryCache::new();
        assert!(cache.get(&key("a")).is_none());
        cache.put(&key("a"), &cell(2.0)).unwrap();
        assert_eq!(cache.get(&key("a")), Some(cell(2.0)));
        assert!(cache.get(&key("b")).is_none());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                writes: 1,
                rejected: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disk_cache_roundtrips_and_validates() {
        let dir = tmp_dir("roundtrip");
        let cache = DiskCache::new(&dir, false).unwrap();
        assert!(cache.get(&key("a")).is_none()); // cold miss
        cache.put(&key("a"), &cell(3.5)).unwrap();
        assert_eq!(cache.get(&key("a")), Some(cell(3.5)));

        // A fresh handle on the same directory serves the entry too.
        let again = DiskCache::new(&dir, false).unwrap();
        assert_eq!(again.get(&key("a")), Some(cell(3.5)));

        // Corrupt the entry: it is rejected (counted), never served.
        let path = dir.join(key("a").file_name());
        std::fs::write(&path, "garbage").unwrap();
        assert!(again.get(&key("a")).is_none());
        assert_eq!(again.stats().rejected, 1);

        // Truncate instead of corrupting: same outcome.
        let full = entry_to_json(&key("a"), &cell(3.5));
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(again.get(&key("a")).is_none());

        // A recompute overwrites and the entry serves again.
        again.put(&key("a"), &cell(3.5)).unwrap();
        assert_eq!(again.get(&key("a")), Some(cell(3.5)));
    }

    #[test]
    fn disk_cache_rejects_entries_keyed_to_other_content() {
        let dir = tmp_dir("wrongkey");
        let cache = DiskCache::new(&dir, false).unwrap();
        // File placed under a's name but holding b's entry (e.g. a bad
        // copy): embedded-key validation refuses it.
        let text = entry_to_json(&key("b"), &cell(1.0));
        std::fs::write(dir.join(key("a").file_name()), text).unwrap();
        assert!(cache.get(&key("a")).is_none());
        assert_eq!(cache.stats().rejected, 1);

        // Same digest + solver, different config: distinct file names, so
        // both live side by side.
        let tighter = SolveConfig {
            epsilon: 0.25,
            ..SolveConfig::default()
        };
        let k_default = key("a");
        let k_tighter = CacheKey::new(k_default.digest, "nfdh", &tighter);
        assert_ne!(k_default.file_name(), k_tighter.file_name());
    }

    #[test]
    fn readonly_cache_never_writes() {
        let dir = tmp_dir("readonly");
        let rw = DiskCache::new(&dir, false).unwrap();
        rw.put(&key("a"), &cell(1.0)).unwrap();

        let ro = DiskCache::new(&dir, true).unwrap();
        assert!(ro.is_readonly());
        assert_eq!(ro.get(&key("a")), Some(cell(1.0)));
        ro.put(&key("b"), &cell(2.0)).unwrap(); // silently dropped
        assert!(rw.get(&key("b")).is_none());
        assert_eq!(ro.stats().writes, 0);

        // A read-only handle on a *missing* directory is all misses, not
        // an error (and must not create the directory).
        let missing = tmp_dir("readonly_missing");
        let ro2 = DiskCache::new(&missing, true).unwrap();
        assert!(ro2.get(&key("a")).is_none());
        assert!(!missing.exists());
    }

    #[test]
    fn scan_stats_and_gc() {
        let dir = tmp_dir("scan");
        let cache = DiskCache::new(&dir, false).unwrap();
        cache.put(&key("a"), &cell(1.0)).unwrap();
        cache.put(&key("b"), &cell(2.0)).unwrap();
        let other = CacheKey {
            solver: "ffdh".into(),
            ..key("a")
        };
        cache.put(&other, &cell(3.0)).unwrap();
        // Two damaged files: garbage and a mis-filed (renamed) entry.
        std::fs::write(dir.join("0000-bad-entry.json"), "garbage").unwrap();
        std::fs::write(
            dir.join(format!(
                "{}-renamed-0000000000000000.json",
                key("a").digest.hex()
            )),
            entry_to_json(&key("a"), &cell(1.0)),
        )
        .unwrap();
        // And one non-entry file the scan must ignore.
        std::fs::write(dir.join("README.txt"), "not an entry").unwrap();

        let stats = dir_stats(&dir).unwrap();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.corrupt, 2);
        assert_eq!(
            stats.per_solver,
            vec![("ffdh".to_string(), 1), ("nfdh".to_string(), 2)]
        );
        assert_eq!(stats.instances, 2);
        assert_eq!(stats.configs, 1);
        assert!(stats.bytes > 0);

        let gc = gc_dir(&dir, None).unwrap();
        assert_eq!(gc.kept, 3);
        assert_eq!(gc.removed.len(), 2);
        let after = dir_stats(&dir).unwrap();
        assert_eq!(after.entries, 3);
        assert_eq!(after.corrupt, 0);
        // gc is idempotent.
        assert_eq!(gc_dir(&dir, None).unwrap().removed.len(), 0);
    }

    #[test]
    fn gc_max_age_evicts_old_entries_but_never_damage_blind() {
        let dir = tmp_dir("maxage");
        let cache = DiskCache::new(&dir, false).unwrap();
        cache.put(&key("a"), &cell(1.0)).unwrap();
        cache.put(&key("b"), &cell(2.0)).unwrap();
        std::fs::write(dir.join("0000-bad-entry.json"), "garbage").unwrap();
        std::fs::write(dir.join("whatever.json.123-0.tmp"), "orphan").unwrap();

        // Fresh files survive any realistic threshold; damage is swept
        // regardless, but the just-written tmp is inside its grace
        // period and must be left alone (it may be a live writer's).
        let gc = gc_dir(&dir, Some(std::time::Duration::from_secs(3600))).unwrap();
        assert_eq!(gc.kept, 2);
        assert_eq!(gc.expired, 0);
        assert_eq!(gc.removed.len(), 1, "{:?}", gc.removed);
        assert!(dir.join("whatever.json.123-0.tmp").exists());

        // max-age 0 means "everything has aged out": both live entries
        // are evicted (safe — the cells recompute on next use). Zero tmp
        // grace sweeps the orphan too.
        let gc = gc_dir_with_grace(
            &dir,
            Some(std::time::Duration::ZERO),
            std::time::Duration::ZERO,
        )
        .unwrap();
        assert_eq!(gc.expired, 2);
        assert_eq!(gc.removed.len(), 3);
        assert_eq!(gc.kept, 0);
        assert_eq!(dir_stats(&dir).unwrap().entries, 0);
        assert!(cache.get(&key("a")).is_none(), "evicted entry is a miss");

        // And the eviction is recoverable: a re-put serves again.
        cache.put(&key("a"), &cell(1.0)).unwrap();
        assert_eq!(cache.get(&key("a")), Some(cell(1.0)));
    }

    #[test]
    fn dir_stats_age_histogram_counts_fresh_entries() {
        let dir = tmp_dir("ages");
        let cache = DiskCache::new(&dir, false).unwrap();
        cache.put(&key("a"), &cell(1.0)).unwrap();
        cache.put(&key("b"), &cell(2.0)).unwrap();
        let stats = dir_stats(&dir).unwrap();
        // Just-written entries land in the freshest bucket; the buckets
        // always sum to the entry count.
        assert_eq!(stats.ages[0], 2, "{:?}", stats.ages);
        assert_eq!(stats.ages.iter().sum::<usize>(), stats.entries);
        assert_eq!(AGE_BUCKETS.len(), stats.ages.len());
    }

    #[test]
    fn gc_sweeps_orphaned_temp_files_but_scan_ignores_them() {
        let dir = tmp_dir("tempsweep");
        let cache = DiskCache::new(&dir, false).unwrap();
        cache.put(&key("a"), &cell(1.0)).unwrap();
        // Simulate two writers that crashed between temp-write and rename.
        let orphan_a = dir.join(format!("{}.{}-0.tmp", key("a").file_name(), 99999));
        let orphan_b = dir.join("whatever.json.12345-7.tmp");
        std::fs::write(&orphan_a, "half an ent").unwrap();
        std::fs::write(&orphan_b, "").unwrap();

        // Scanning and stats never mistake a temp file for an entry.
        assert_eq!(scan_dir(&dir).unwrap().len(), 1);
        let stats = dir_stats(&dir).unwrap();
        assert_eq!((stats.entries, stats.corrupt), (1, 0));

        // With zero grace both aged-out orphans are swept.
        let gc = gc_dir_with_grace(&dir, None, std::time::Duration::ZERO).unwrap();
        assert_eq!(gc.kept, 1);
        assert_eq!(gc.removed.len(), 2);
        assert!(!orphan_a.exists() && !orphan_b.exists());
        // The live entry survived and still serves.
        assert_eq!(cache.get(&key("a")), Some(cell(1.0)));
    }

    /// Regression: `gc_dir` used to sweep every `*.tmp` unconditionally,
    /// so a gc pass racing `write_entry_atomic` could delete the
    /// writer's in-flight temp file between its `fs::write` and
    /// `fs::rename`, failing the put. A temp file younger than
    /// [`TMP_GRACE`] must now survive gc (this assertion fails against
    /// the pre-fix sweep), while an aged-out orphan is still removed.
    #[test]
    fn gc_leaves_fresh_tmp_files_for_live_writers() {
        let dir = tmp_dir("tmp_grace");
        let cache = DiskCache::new(&dir, false).unwrap();
        cache.put(&key("a"), &cell(1.0)).unwrap();
        // A writer is "mid-publish": its temp file exists right now.
        let in_flight = dir.join(format!("{}.{}-0.tmp", key("b").file_name(), 4242));
        std::fs::write(&in_flight, "half-written entry").unwrap();

        let gc = gc_dir(&dir, None).unwrap();
        assert!(
            in_flight.exists(),
            "gc swept a temp file inside its grace period (live-writer race)"
        );
        assert_eq!(gc.kept, 1);
        assert_eq!(gc.removed.len(), 0);

        // The same file past its grace period is a genuine orphan and
        // goes; the writer's rename target was never affected.
        let gc = gc_dir_with_grace(&dir, None, std::time::Duration::ZERO).unwrap();
        assert!(!in_flight.exists());
        assert_eq!(gc.removed.len(), 1);
        assert_eq!(cache.get(&key("a")), Some(cell(1.0)));
    }

    /// Live writers and gc running concurrently: every put must succeed.
    /// Pre-fix, the unconditional tmp sweep would occasionally delete an
    /// in-flight temp file and fail that put with a rename error.
    #[test]
    fn gc_concurrent_with_writers_never_fails_a_put() {
        let dir = tmp_dir("gc_race");
        let cache = DiskCache::new(&dir, false).unwrap();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..200 {
                    cache.put(&key(&format!("k{i}")), &cell(i as f64 + 1.0))?;
                }
                Ok::<(), CacheError>(())
            });
            for _ in 0..50 {
                gc_dir(&dir, None).unwrap();
            }
            writer
                .join()
                .expect("writer panicked")
                .expect("a put failed while gc was running");
        });
        assert_eq!(dir_stats(&dir).unwrap().entries, 200);
    }

    #[test]
    fn put_leaves_no_temp_files_and_write_entry_atomic_replaces() {
        let dir = tmp_dir("atomic");
        let cache = DiskCache::new(&dir, false).unwrap();
        for i in 0..20 {
            cache.put(&key("a"), &cell(i as f64 + 1.0)).unwrap();
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "put leaked temp files: {leftovers:?}");
        assert_eq!(cache.get(&key("a")), Some(cell(20.0)));

        // Direct use of the helper overwrites the live name atomically.
        let text = entry_to_json(&key("a"), &cell(7.0));
        write_entry_atomic(&dir, &key("a").file_name(), &text).unwrap();
        assert_eq!(cache.get(&key("a")), Some(cell(7.0)));
        // And a missing directory is a real error, not a silent no-op.
        let gone = tmp_dir("atomic_missing");
        assert!(write_entry_atomic(&gone, "x.json", "y").is_err());
    }
}
