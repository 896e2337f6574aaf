//! In-memory spans for the traced run, written out when the run ends.
//!
//! A span covers one call the benchmark makes into a layer of the
//! program. The layer is the span name up to its first `.` (`serve`,
//! `fileio`, `cache`, `engine`, `improve`, `work`). Spans of one request
//! or one batch share a `group`.
//!
//! Two kinds of span exist because this benchmark observes the program
//! only through its public functions:
//!
//! * **in situ** — recorded around a call while the workload runs
//!   (an HTTP round trip, a batch, a cache lookup made by the engine);
//! * **replayed** — the benchmark repeats, after the timed window, a call
//!   the program made inside an in-situ span (parse, digest, solve,
//!   improve) on the same input, and records it as that span's child.
//!
//! A span's self time is its duration minus the part of its interval its
//! in-situ children cover, minus the full duration of its replayed
//! children (which ran at another time), floored at zero.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::stats::now_ns;

#[derive(Debug, Clone)]
pub(crate) struct Span {
    pub(crate) id: u64,
    /// Id of the causing span; 0 for a root.
    pub(crate) parent: u64,
    /// The request, cell batch or operation the span belongs to.
    pub(crate) group: u64,
    pub(crate) name: &'static str,
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) replayed: bool,
}

impl Span {
    pub(crate) fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    pub(crate) fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
pub(crate) struct Tracer {
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

impl Tracer {
    pub(crate) fn new() -> Tracer {
        Tracer::default()
    }

    /// Store one span; returns its id.
    pub(crate) fn record(
        &self,
        name: &'static str,
        group: u64,
        parent: u64,
        (start, end): (u64, u64),
        replayed: bool,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            group,
            name,
            start,
            end,
            replayed,
        });
        id
    }

    /// Run `f` as a replayed child of `parent` and record its span.
    /// Returns `f`'s result, the span id and its duration in ns.
    pub(crate) fn replay<R>(
        &self,
        name: &'static str,
        group: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64, u64) {
        let start = now_ns();
        let out = std::hint::black_box(f());
        let end = now_ns();
        let id = self.record(name, group, parent, (start, end), true);
        (out, id, end - start)
    }

    pub(crate) fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span store poisoned")
    }
}

/// Total self time in nanoseconds per layer, over the spans whose group
/// is in `groups` (see the module docs for the rule).
pub(crate) fn self_time_by_layer(
    spans: &[Span],
    groups: &HashSet<u64>,
) -> BTreeMap<&'static str, u64> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| groups.contains(&s.group)) {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let replayed: u64 = kids.iter().filter(|k| k.replayed).map(|k| k.dur()).sum();
        let mut covered: Vec<(u64, u64)> = kids
            .iter()
            .filter(|k| !k.replayed)
            .map(|k| (k.start.max(s.start), k.end.min(s.end)))
            .filter(|(a, b)| a < b)
            .collect();
        covered.sort_unstable();
        let mut union = 0u64;
        let mut reach = 0u64;
        for (a, b) in covered {
            let a = a.max(reach);
            if b > a {
                union += b - a;
                reach = b;
            }
        }
        *by_layer.entry(s.layer()).or_default() += s.dur().saturating_sub(union + replayed);
    }
    by_layer
}

/// Set `<layer>.self_us` to the mean self time per operation over the
/// sampled `groups`, which hold `ops` operations, for each layer those
/// groups have spans in.
pub(crate) fn report_self_times(
    report: &mut crate::Report,
    spans: &[Span],
    groups: &HashSet<u64>,
    ops: usize,
) {
    for (layer, total) in self_time_by_layer(spans, groups) {
        report.set(
            &format!("{layer}.self_us"),
            total as f64 / 1e3 / ops.max(1) as f64,
        );
    }
}

/// Set `metric` to the median duration in microseconds of the spans
/// called `name`; left unset when there are none.
pub(crate) fn report_median_us(
    report: &mut crate::Report,
    metric: &str,
    spans: &[Span],
    name: &str,
) {
    let mut us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64 / 1e3)
        .collect();
    if !us.is_empty() {
        report.set(metric, crate::stats::median(&mut us));
    }
}

/// Write a traced run's spans to
/// `perfbench/work/trace-<workload>-seed<seed>.jsonl`; a failure to write
/// is reported on stderr and does not fail the run.
pub(crate) fn write_run_spans(cfg: &crate::RunConfig, spans: &[Span]) {
    let path = cfg.root.join("perfbench").join("work").join(format!(
        "trace-{}-seed{}.jsonl",
        cfg.workload.name(),
        cfg.seed
    ));
    if let Err(e) = write_jsonl(&path, spans) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Write every span as one JSON object per line.
pub(crate) fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"group\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"replayed\": {}}}",
            s.id, s.parent, s.group, s.name, s.start, s.end, s.replayed
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_and_replayed_children() {
        let t = Tracer::new();
        let root = t.record("serve.request", 1, 0, (0, 100), false);
        // Two overlapping in-situ children cover [10, 50).
        t.record("cache.get", 1, root, (10, 40), false);
        t.record("cache.get", 1, root, (30, 50), false);
        // A replayed child costs its whole duration.
        t.record("fileio.parse", 1, root, (500, 520), true);
        // A span of another group is ignored.
        t.record("serve.request", 2, 0, (0, 1_000), false);
        let spans = t.into_spans();
        let by_layer = self_time_by_layer(&spans, &HashSet::from([1]));
        assert_eq!(by_layer["serve"], 100 - 40 - 20);
        assert_eq!(by_layer["cache"], 30 + 20);
        assert_eq!(by_layer["fileio"], 20);
    }
}
