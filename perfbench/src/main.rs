//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`)
//! listed in `BENCHMARK.json`. The line before it records the measured
//! configuration. `perfbench/README.md` defines every workload and metric.

mod batch;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub(crate) const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("get_p50_ms", "ms"),
    ("solve_p50_ms", "ms"),
    ("makespan_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Every offline registry entry, in registry order: the `serve-miss`
/// solver rotation and the `engine.solve_us.<solver>` metric names. Fixed
/// here so that a registry change cannot silently change the workload.
pub(crate) const OFFLINE_SOLVERS: [&str; 20] = [
    "nfdh",
    "ffdh",
    "bfdh",
    "sleator",
    "skyline",
    "wsnf",
    "dc-nfdh",
    "dc-wsnf",
    "dc-ffdh",
    "dc-bfdh",
    "dc-sleator",
    "dc-skyline",
    "layered",
    "greedy",
    "shelf-f",
    "dc-release",
    "combined-greedy",
    "batched-ffdh",
    "skyline-release",
    "aptas",
];

/// Per-layer metrics, reported with `--trace 1`: `(name, unit)`. A run
/// measures the ones its workload reaches; the result line gives the
/// others as 0.
pub(crate) fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &'static str); 27] = [
        ("serve.request_us", "us"),
        ("serve.self_us", "us"),
        ("serve.connections_accepted", "count"),
        ("serve.keepalive_reuses", "count"),
        ("fileio.parse_us", "us"),
        ("fileio.digest_us", "us"),
        ("fileio.body_bytes", "bytes"),
        ("fileio.self_us", "us"),
        ("cache.get_us", "us"),
        ("cache.read_us", "us"),
        ("cache.put_us", "us"),
        ("cache.entry_bytes", "bytes"),
        ("cache.self_us", "us"),
        ("engine.solve_us", "us"),
        ("engine.lower_bounds_us", "us"),
        ("engine.validate_us", "us"),
        ("engine.self_us", "us"),
        ("improve.us", "us"),
        ("improve.rounds", "count"),
        ("improve.rounds_per_s", "1/s"),
        ("improve.improvements_per_round", "share"),
        ("improve.micro_n512.rounds_per_s", "1/s"),
        ("improve.self_us", "us"),
        ("work.lease_us", "us"),
        ("work.busy_share", "share"),
        ("work.self_us", "us"),
        ("trace.overhead_share", "share"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    let at = out
        .iter()
        .position(|(n, _)| n == "engine.self_us")
        .expect("engine.self_us is listed")
        + 1;
    for (i, solver) in OFFLINE_SOLVERS.iter().enumerate() {
        out.insert(at + i, (format!("engine.solve_us.{solver}"), "us"));
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    ServeHit,
    ServeMiss,
    BatchAnytime,
}

impl Workload {
    pub(crate) const ALL: [Workload; 3] = [
        Workload::ServeHit,
        Workload::ServeMiss,
        Workload::BatchAnytime,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Workload::ServeHit => "serve-hit",
            Workload::ServeMiss => "serve-miss",
            Workload::BatchAnytime => "batch-anytime",
        }
    }

    fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                format!("unknown workload {s:?}; expected serve-hit, serve-miss or batch-anytime")
            })
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub(crate) struct RunConfig {
    pub(crate) workload: Workload,
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) trace: bool,
    /// The repository checkout the run reads its data from and writes its
    /// scratch files under.
    pub(crate) root: PathBuf,
}

/// Set-ups per run; `setup_s` is their median.
pub(crate) const SETUP_REPS: usize = 9;

/// Closed-loop client threads of the serve workloads (sized for 2 cores).
pub(crate) const CLIENTS: usize = 2;

pub(crate) fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// Attempt and failure counters shared by the threads of one run. Every
/// failed request and every failed output check counts once.
#[derive(Default)]
pub(crate) struct Checks {
    attempted: AtomicU64,
    failed: AtomicU64,
    notes: Mutex<Vec<String>>,
}

impl Checks {
    pub(crate) fn attempt(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one failure; the first few messages are kept for stderr.
    pub(crate) fn fail(&self, msg: impl Into<String>) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut notes = self.notes.lock().expect("notes poisoned");
        if notes.len() < 10 {
            notes.push(msg.into());
        }
    }

    /// `Ok(())` when `ok`, otherwise a recorded failure.
    pub(crate) fn expect(&self, ok: bool, msg: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(msg());
        }
        ok
    }
}

/// What a run measured.
pub(crate) struct Report {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) notes: Vec<String>,
    pub(crate) metrics: BTreeMap<String, f64>,
    /// The measured configuration and derived facts, as JSON values.
    pub(crate) info: Vec<(&'static str, String)>,
}

impl Report {
    pub(crate) fn new(checks: Checks) -> Report {
        Report {
            attempted: checks.attempted.into_inner(),
            failed: checks.failed.into_inner(),
            notes: checks.notes.into_inner().expect("notes poisoned"),
            metrics: BTreeMap::new(),
            info: Vec::new(),
        }
    }

    pub(crate) fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub(crate) fn info(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.info.push((key, value.to_string()));
    }

    pub(crate) fn info_str(&mut self, key: &'static str, value: &str) {
        self.info
            .push((key, format!("\"{}\"", spp_core::json::escape(value))));
    }
}

/// The metric names and units a run must report.
pub(crate) fn expected_metrics(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// A scratch directory under `perfbench/work/`, removed on drop.
pub(crate) struct Scratch {
    pub(crate) dir: PathBuf,
}

impl Scratch {
    pub(crate) fn new(root: &Path, tag: &str) -> Result<Scratch, String> {
        let dir = root
            .join("perfbench")
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    pub(crate) fn sub(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Time [`SETUP_REPS`] set-ups; keep the last fixture and the median time.
pub(crate) fn repeated_setup<F>(
    mut setup: impl FnMut(usize) -> Result<F, String>,
) -> Result<(F, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for rep in 0..SETUP_REPS {
        // The previous fixture is torn down outside the timed part.
        drop(fixture.take());
        let t = stats::now_ns();
        fixture = Some(setup(rep)?);
        times.push((stats::now_ns() - t) as f64 / 1e9);
    }
    Ok((fixture.expect("SETUP_REPS > 0"), stats::median(&mut times)))
}

/// Run one workload and return its report. `Err` means the run could not
/// be set up or measured at all.
pub(crate) fn run(cfg: &RunConfig) -> Result<Report, String> {
    if std::env::var_os("SPP_IO_MODE").is_some() {
        return Err("SPP_IO_MODE is set; unset it so the measured io mode is the default".into());
    }
    let mut report = match cfg.workload {
        Workload::ServeHit => serve::run_hit(cfg)?,
        Workload::ServeMiss => serve::run_miss(cfg)?,
        Workload::BatchAnytime => batch::run(cfg)?,
    };
    if !cfg.trace {
        report.set("peak_rss_mb", stats::peak_rss_mb());
    }
    report.info_str("workload", cfg.workload.name());
    report.info("seed", cfg.seed);
    report.info("seconds", cfg.seconds);
    report.info("trace", cfg.trace);
    report.info("host_cores", host_cores());
    let share = if report.attempted == 0 {
        0.0
    } else {
        report.failed as f64 / report.attempted as f64
    };
    report.info("failed_share", share);
    Ok(report)
}

/// The result line: exactly the expected metrics, in table order.
pub(crate) fn result_line(report: &Report, trace: bool) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in expected_metrics(trace).iter().enumerate() {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed
    )
}

/// The configuration line printed before the result.
pub(crate) fn info_line(report: &Report) -> String {
    let fields: Vec<String> = report
        .info
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"perfbench\": {{{}}}}}", fields.join(", "))
}

const USAGE: &str = "usage: perfbench --workload serve-hit|serve-miss|batch-anytime \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        root: PathBuf::from("."),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            for note in &report.notes {
                eprintln!("perfbench: check failed: {note}");
            }
            println!("{}", info_line(&report));
            println!("{}", result_line(&report, cfg.trace));
            if report.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `workload` reaches the layer code per-layer `metric`
    /// measures (the README's "reaches" column); it reports 0 otherwise.
    fn reaches(workload: Workload, metric: &str) -> bool {
        let layer = metric.split('.').next().unwrap_or(metric);
        match workload {
            Workload::ServeHit => {
                matches!(layer, "serve" | "fileio" | "cache" | "trace") && metric != "cache.put_us"
            }
            Workload::ServeMiss => {
                matches!(layer, "serve" | "fileio" | "cache" | "engine" | "trace")
            }
            Workload::BatchAnytime => {
                !matches!(layer, "serve" | "fileio")
                    && metric != "cache.read_us"
                    && metric
                        .strip_prefix("engine.solve_us.")
                        .is_none_or(|solver| batch::SOLVERS.contains(&solver))
            }
        }
    }

    /// Metric names and units declared in `BENCHMARK.json` under `section`.
    fn declared_metrics(root: &Path, section: &str) -> Result<Vec<(String, String)>, String> {
        use spp_core::json;
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {}", e.msg))?;
        let obj = json::as_obj(&doc, "$").map_err(|e| e.to_string())?;
        let list = json::as_arr(
            json::get_field(obj, &doc, section).map_err(|e| e.to_string())?,
            section,
        )
        .map_err(|e| e.to_string())?;
        list.iter()
            .map(|m| {
                let fields = json::as_obj(m, section).map_err(|e| e.to_string())?;
                let get = |k: &str| -> Result<String, String> {
                    let v = json::get_field(fields, m, k).map_err(|e| e.to_string())?;
                    json::as_str(v, k)
                        .map(str::to_string)
                        .map_err(|e| e.to_string())
                };
                Ok((get("name")?, get("unit")?))
            })
            .collect()
    }

    /// The problems with one short run: failures, and metrics that are
    /// missing, not positive, or reported where the workload does not
    /// reach their layer. Tracing overhead may be of either sign.
    fn check_run(workload: Workload, trace: bool) -> Vec<String> {
        let cfg = RunConfig {
            workload,
            seed: 7,
            seconds: 1.0,
            trace,
            root: PathBuf::from(".."),
        };
        let tag = format!("{} trace={trace}", workload.name());
        let report = match run(&cfg) {
            Ok(report) => report,
            Err(e) => return vec![format!("{tag}: {e}")],
        };
        let mut problems = Vec::new();
        if report.failed > 0 || report.attempted == 0 {
            problems.push(format!(
                "{tag}: {} of {} failed: {:?}",
                report.failed, report.attempted, report.notes
            ));
        }
        for (name, _) in expected_metrics(trace) {
            let expected = !trace || reaches(workload, &name);
            match report.metrics.get(&name) {
                None if expected => problems.push(format!("{tag}: {name} missing")),
                Some(v) if !expected => problems.push(format!("{tag}: {name} reported as {v}")),
                Some(v) if !v.is_finite() || (*v <= 0.0 && name != "trace.overhead_share") => {
                    problems.push(format!("{tag}: {name} is {v}"))
                }
                _ => {}
            }
        }
        problems
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
            let declared = declared_metrics(Path::new(".."), section).unwrap();
            let ours: Vec<(String, String)> = expected_metrics(trace)
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect();
            assert_eq!(declared, ours, "BENCHMARK.json {section}");
        }
    }

    #[test]
    fn smoke_runs_every_workload_clean_with_every_metric_it_reaches() {
        let problems: Vec<String> = Workload::ALL
            .into_iter()
            .flat_map(|w| [check_run(w, false), check_run(w, true)])
            .flatten()
            .collect();
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn result_line_lists_exactly_the_expected_metrics() {
        let mut report = Report::new(Checks::default());
        report.attempted = 3;
        report.set("ops_per_s", 12.5);
        let line = result_line(&report, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
