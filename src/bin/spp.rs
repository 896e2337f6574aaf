//! `spp` — command-line front end for the strip-packing workspace.
//!
//! ```text
//! spp gen   --family layered -n 40 --seed 7 > inst.spp
//! spp gen   --family layered -n 40 --seed 7 --format json > inst.json
//! spp suite --out-dir instances/ --count 20 -n 24 --seed 7
//! spp pack  inst.spp --algo dc-nfdh --render ascii
//! spp pack  inst.spp --algo greedy --render svg > packing.svg
//! spp bounds inst.spp
//! spp batch --families layered,random --count 50 -n 30 --algos dc-nfdh,greedy,layered
//! spp batch --input-dir instances/ --algos nfdh,ffdh,greedy            # file mode
//! spp batch --input-dir instances/ --cache-dir cache/                  # cached / resumable
//! spp batch --input-dir instances/ --shards 4 --shard-index 2 --out s2.json
//! spp batch --merge s0.json,s1.json,s2.json,s3.json                   # combine shards
//! spp cache stats --cache-dir cache/
//! spp serve --cache-dir cache/ --addr 127.0.0.1:8080                   # cache + solve service
//! spp batch --input-dir instances/ --cache-url http://cachehost:8080   # workers share it
//! spp bench serve --duration-ms 2000 --out BENCH_SERVE.json            # load-test the server
//! spp algos
//! ```
//!
//! Flags: [`USAGE`] is the only flag table. Each command accepts exactly
//! the flags of its usage entry (a silently ignored flag would run
//! something other than what was asked for). The solve flags are
//! `/solve`'s query parameters with dashes, parsed by the same
//! `SolveConfig::set`/`check`; only `--improve-workers` is CLI-only.
//!
//! Algorithms are resolved through the engine registry
//! (`strip_packing::engine::Registry`), so `spp algos` and every error
//! message list exactly the solvers that exist — nothing is hard-coded in
//! this binary. Instance files are either `spp-instance` JSON (`.json`)
//! or the `spp v1` text format (anything else), dispatched on extension.
//!
//! Sharding: `--shards N --shard-index I` runs only the `I`-th contiguous
//! shard of the (sorted) file list and emits a portable shard report;
//! `--merge` combines the reports into the same table — byte-identical on
//! stdout to a single-process run over the same inputs.
//!
//! Caching: `--cache-dir DIR` attaches the content-addressed solve cache
//! to any file-mode batch (sharded or not). Every already-solved
//! `(instance, solver, config)` cell is served from `DIR` instead of
//! recomputed — which is also how interrupted runs resume — and the run
//! reports its hit/miss counts on stderr. `--cache-readonly` consults the
//! cache without writing back. `spp cache stats|gc|verify` inspect,
//! clean, and spot-check a cache directory.
//!
//! Serving: `spp serve --cache-dir DIR` stands the same cache behind an
//! HTTP front end (`GET`/`PUT /cache/<key>`, `POST /solve`, `GET
//! /stats`), and `--cache-url http://host:port` attaches any file-mode
//! batch to it instead of a local directory — the multi-machine topology:
//! shard workers anywhere, one shared cache, byte-identical output.
//! Connections are persistent (HTTP/1.1 keep-alive) with a
//! per-connection request budget (`--keepalive-requests`) and idle
//! timeout (`--idle-timeout-ms`); `spp bench serve` load-tests the stack
//! and writes `BENCH_SERVE.json` (RPS + latency quantiles, keep-alive vs
//! close-per-request).

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use strip_packing::dag::PrecInstance;
use strip_packing::engine::{
    cache as solve_cache, execute_cells, merge_reports, run_shard, run_sharded, work, BatchJob,
    CellRow, CellStatus, DiskCache, MergedReport, Registry, ShardPlan, ShardReport, ShardRuntime,
    SolveCache, SolveConfig, SolveRequest, Solver, Validation, WorkError, WorkLease, WorkQueue,
    WorkSource,
};
use strip_packing::gen::rects::DagFamily;
use strip_packing::serve::{HttpCache, IoMode, RemoteLease, ServeConfig, Server, ShardedCache};

/// Every command's flags. An entry is a `  spp <command>` line plus its
/// deeper-indented continuation lines; a `<placeholder>` after a flag
/// makes it a value flag, and one after no flag is the command's operand.
const USAGE: &str = "\
usage:
  spp gen --family <name> [-n <count>] [--seed <u64>] [--uniform-height]
          [--format <spp|json>]
  spp suite --out-dir <dir> [--count <n>] [-n <size>] [--seed <u64>]
  spp pack|solve <file|-> [--algo <name>] [--render <none|ascii|svg>]
          [--epsilon <f64>] [-k <usize>] [--shelf-r <f64>] [--strict]
          [--budget-ms <ms>] [--improve-seed <u64>]
          [--improve-streams <k>] [--improve-workers <n>] [--improve-envelope]
  spp bounds <file|->
  spp batch [--families <f1,f2,..>] [--count <per-family>] [-n <size>]
          [--seed <u64>] [--algos <a1,a2,..>]
          [--epsilon <f64>] [-k <usize>] [--shelf-r <f64>] [--strict]
          [--budget-ms <ms>] [--improve-seed <u64>]
          [--improve-streams <k>] [--improve-workers <n>] [--improve-envelope]
  spp batch (--input-dir <dir> | --file-list <file>) [--algos <a1,a2,..>]
          [--shards <n>] [--shard-index <i>] [--out <file>]
          [--cache-dir <dir> | --cache-url <url> | --cache-urls <u1,u2,..>]
          [--replication <r>] [--token-file <file>] [--cache-readonly] [--cells]
          [--epsilon <f64>] [-k <usize>] [--shelf-r <f64>] [--strict]
          [--budget-ms <ms>] [--improve-seed <u64>]
          [--improve-streams <k>] [--improve-workers <n>] [--improve-envelope]
  spp batch --merge <report1,report2,..> [--cells]
  spp batch --dispatcher-url <http://host:port> [--token-file <file>] [--cells]
  spp cache stats --cache-dir <dir>
  spp cache gc --cache-dir <dir> [--max-age <secs>]
  spp cache verify --cache-dir <dir> (--input-dir <dir> | --file-list <file>)
          [--algos <a1,a2,..>] [--sample <n>]
          [--epsilon <f64>] [-k <usize>] [--shelf-r <f64>] [--strict]
          [--budget-ms <ms>] [--improve-seed <u64>]
          [--improve-streams <k>] [--improve-workers <n>] [--improve-envelope]
  spp serve --cache-dir <dir> [--addr <host:port>] [--workers <n>]
          [--max-body <bytes>] [--max-budget-ms <ms>]
          [--max-improve-streams <k>] [--cache-readonly]
          [--token-file <file>]
          [--keepalive-requests <n>] [--idle-timeout-ms <ms>]
          [--io-mode <auto|blocking|event>]
  spp dispatch (--input-dir <dir> | --file-list <file>) [--algos <a1,a2,..>]
          [--addr <host:port>] [--lease-files <n>] [--lease-timeout <secs>]
          [--cache-dir <dir>] [--cache-readonly] [--workers <n>]
          [--max-body <bytes>] [--token-file <file>]
          [--keepalive-requests <n>] [--idle-timeout-ms <ms>]
          [--io-mode <auto|blocking|event>]
          [--epsilon <f64>] [-k <usize>] [--shelf-r <f64>] [--strict]
          [--budget-ms <ms>] [--improve-seed <u64>]
          [--improve-streams <k>] [--improve-workers <n>] [--improve-envelope]
  spp work --dispatcher-url <http://host:port>
          [--cache-dir <dir> | --cache-url <url> | --cache-urls <u1,u2,..>]
          [--replication <r>] [--token-file <file>] [--cache-readonly]
          [--poll-ms <ms>] [--abandon-after <n>]
  spp bench serve [--url <http://host:port>] [--clients <n>]
          [--mode <keepalive|close|both>] [--workload <cache-hit|solve>]
          [--duration-ms <ms> | --requests <n>] [--rate <rps>]
          [--workers <n>] [--out <file>] [--io-mode <auto|blocking|event>]
          [--idle-clients <n>]
  spp algos

run `spp algos` for the algorithm registry with capability flags";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// A usage word without its grouping: `[--cells]` → `--cells`.
fn bare(word: &str) -> &str {
    word.trim_matches(['[', ']', '(', ')'])
}

/// One command line, parsed against its usage entry: each given flag,
/// spelled as in [`USAGE`], with its verbatim value (`"true"` for a
/// switch); the operand is keyed by its placeholder (`<file|->`).
struct Args {
    entry: &'static str,
    flags: Vec<(&'static str, String)>,
}

impl Args {
    /// Parse `argv` against the usage entry that starts with `entry`
    /// (`"gen"`, `"cache verify"`, `"batch --merge"`, …). Flags may come
    /// before the operand. Exits 2 on a flag the entry does not list, a
    /// flag given twice, a value flag with no value, or an extra operand.
    fn parse(argv: &[String], entry: &str) -> Args {
        Args::parse_mode(argv, entry, &format!("to spp {entry}"))
    }

    /// [`Args::parse`], refusing a flag that another command or mode
    /// takes with "`<flag>` does not apply `<mode>`".
    fn parse_mode(argv: &[String], entry: &str, mode: &str) -> Args {
        let start = USAGE
            .find(&format!("\n  spp {entry}"))
            .expect("every command parses against an entry of USAGE")
            + 1;
        let end = USAGE[start..]
            .match_indices('\n')
            .map(|(i, _)| start + i)
            .find(|&i| !USAGE[i + 1..].starts_with("          "))
            .unwrap_or(USAGE.len());
        let mut args = Args {
            entry: &USAGE[start..end],
            flags: Vec::new(),
        };
        let words: Vec<&'static str> = args.entry.split_whitespace().map(bare).collect();
        let operand = (1..words.len())
            .find(|&i| words[i].starts_with('<') && !words[i - 1].starts_with('-'))
            .map(|i| words[i]);
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let (flag, value) = if !arg.starts_with('-') || arg == "-" {
                match operand.filter(|op| !args.has(op)) {
                    Some(op) => (op, arg.clone()),
                    None => args.fail(format!("unexpected argument {arg:?}")),
                }
            } else if let Some(at) = words.iter().position(|w| *w == arg.as_str()) {
                if args.has(arg) {
                    args.fail(format!("{arg} given twice"));
                }
                let value = match words.get(at + 1).filter(|w| w.starts_with('<')) {
                    Some(placeholder) => argv
                        .next()
                        .unwrap_or_else(|| args.fail(format!("{arg} needs a value {placeholder}")))
                        .clone(),
                    None => "true".to_string(),
                };
                (words[at], value)
            } else if USAGE.split_whitespace().any(|w| bare(w) == arg.as_str()) {
                args.fail(format!("{arg} does not apply {mode}"));
            } else {
                args.fail(format!("unknown flag {arg}"));
            };
            args.flags.push((flag, value));
        }
        args
    }

    fn fail(&self, message: impl std::fmt::Display) -> ! {
        eprintln!("error: {message}\nusage:\n{}", self.entry);
        std::process::exit(2);
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    /// `flag`'s value as a `T`, if the flag was given; exits 2 on a value
    /// that does not parse.
    fn value<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        let v = self.get(flag)?;
        Some(
            v.parse()
                .unwrap_or_else(|_| self.fail(format!("bad {flag} value {v:?}"))),
        )
    }

    /// The value of a flag (or operand) the command cannot run without.
    fn required(&self, flag: &str) -> &str {
        self.get(flag)
            .unwrap_or_else(|| self.fail(format!("{flag} is required")))
    }

    /// Exit 2 if `flag` was given: it does not apply `why`.
    fn refuse(&self, flag: &str, why: &str) {
        if self.has(flag) {
            self.fail(format!("{flag} does not apply {why}"));
        }
    }
}

fn family_by_name(name: &str) -> DagFamily {
    DagFamily::ALL
        .into_iter()
        .find(|f| f.name() == name)
        .unwrap_or_else(|| {
            let known: Vec<&str> = DagFamily::ALL.iter().map(|f| f.name()).collect();
            eprintln!(
                "error: unknown family {name:?}; known families: {}",
                known.join(" ")
            );
            std::process::exit(2);
        })
}

/// The solve flags: each is a `SolveConfig::PARAMS` name with dashes
/// (`--shelf-r` sets `shelf_r`, `-k` sets `k`; a switch sets `true`),
/// parsed and range-checked exactly as `/solve` parses its query.
fn config_from_args(args: &Args) -> SolveConfig {
    let mut config = SolveConfig::default();
    for (flag, value) in &args.flags {
        let name = flag.trim_start_matches('-').replace('-', "_");
        if SolveConfig::PARAMS.contains(&name.as_str()) {
            config
                .set(&name, value)
                .unwrap_or_else(|e| args.fail(e.message));
        }
    }
    config.check().unwrap_or_else(|e| args.fail(e.message));
    config.improve_workers = args
        .value("--improve-workers")
        .unwrap_or(config.improve_workers);
    config
}

/// Exit 2 on an unknown `--algo`, listing next to the registry's full
/// name list which of them are anytime-capable (accept `--budget-ms`,
/// `--improve-streams`, …).
fn unknown_algo_exit(registry: &Registry, err: &dyn std::fmt::Display) -> ! {
    eprintln!("error: {err}");
    let anytime: Vec<&str> = registry.filter(|c| c.anytime).map(|e| e.name).collect();
    eprintln!(
        "anytime-capable (honor --budget-ms / --improve-streams): {}",
        anytime.join(" ")
    );
    std::process::exit(2);
}

fn read_instance(path: &str) -> PrecInstance {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .unwrap_or_else(|e| {
                eprintln!("error: cannot read stdin: {e}");
                std::process::exit(1);
            });
        // No extension on stdin: a JSON document starts with '{', the
        // `spp v1` text format never does.
        let result = if buf.trim_start().starts_with('{') {
            strip_packing::gen::fileio::from_json(&buf)
        } else {
            strip_packing::gen::textio::from_text(&buf)
                .map_err(strip_packing::gen::fileio::FileIoError::Text)
        };
        result.unwrap_or_else(|e| {
            eprintln!("error: cannot parse instance: {e}");
            std::process::exit(1);
        })
    } else {
        strip_packing::gen::fileio::read_path(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("error: cannot parse instance: {e}");
            std::process::exit(1);
        })
    }
}

fn cmd_gen(args: &Args) -> ExitCode {
    use rand::SeedableRng;
    let n: usize = args.value("-n").unwrap_or(30);
    let seed: u64 = args.value("--seed").unwrap_or(1);
    let family = family_by_name(args.get("--family").unwrap_or("layered"));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let inst = if args.has("--uniform-height") {
        strip_packing::gen::rects::uniform_height(&mut rng, n, (0.05, 0.95))
    } else {
        strip_packing::gen::rects::uniform(&mut rng, n, (0.05, 0.95), (0.05, 1.0))
    };
    let dag = family.build(&mut rng, n);
    let prec = PrecInstance::new(inst, dag);
    match args.get("--format") {
        None | Some("spp") => print!("{}", strip_packing::gen::textio::to_text(&prec)),
        Some("json") => print!("{}", strip_packing::gen::fileio::to_json(&prec)),
        Some(other) => {
            eprintln!("error: unknown format {other:?} (expected spp or json)");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// Generate a scenario suite (deep-chain DAGs, bursty releases, skyline
/// adversaries, …) as `spp-instance` JSON files — the input side of the
/// sharded batch pipeline.
fn cmd_suite(args: &Args) -> ExitCode {
    let out_dir = args.required("--out-dir");
    let count: usize = args.value("--count").unwrap_or(20);
    let n: usize = args.value("-n").unwrap_or(24);
    let seed: u64 = args.value("--seed").unwrap_or(1);
    match strip_packing::gen::suite::write_suite(Path::new(out_dir), seed, n, count) {
        Ok(paths) => {
            eprintln!("wrote {} instance files to {out_dir}", paths.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_pack(args: &Args) -> ExitCode {
    let config = config_from_args(args);
    let prec = read_instance(args.required("<file|->"));
    let algo = args.get("--algo").unwrap_or("dc-nfdh");

    let registry = Registry::builtin();
    let solver = match registry.get_or_err(algo) {
        Ok(s) => s,
        Err(e) => unknown_algo_exit(&registry, &e),
    };
    let request = SolveRequest::new(prec).with_config(config);
    let report = match strip_packing::engine::solve(solver.as_ref(), &request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match &report.validation {
        Validation::Passed | Validation::Skipped => {}
        Validation::PassedIgnoring(ignored) => {
            let kinds: Vec<String> = ignored.iter().map(|c| c.to_string()).collect();
            eprintln!(
                "note: {algo} does not honor {} constraints; they were ignored \
                 (pass --strict to refuse instead)",
                kinds.join("+")
            );
        }
        Validation::Failed(e) => {
            eprintln!("internal error: produced invalid placement: {e}");
            return ExitCode::FAILURE;
        }
    }

    let prec = &request.prec;
    eprintln!(
        "algorithm {algo}: height {:.4} (AREA LB {:.4}, F LB {:.4}, ratio {:.3})",
        report.makespan,
        report.bounds.area,
        report.bounds.critical_path,
        report.ratio()
    );
    if report.improve_rounds > 0 {
        eprintln!(
            "anytime: seed {:.4} -> {:.4} after {} rounds across {} streams (gain {:.4})",
            report.seed_makespan,
            report.makespan,
            report.improve_rounds,
            report.improve_streams,
            report.improve_gain()
        );
    }
    match args.get("--render") {
        None | Some("none") => {
            for it in prec.inst.items() {
                let p = report.placement.pos(it.id);
                println!("place {} {:.9} {:.9}", it.id, p.x, p.y);
            }
        }
        Some("ascii") => {
            print!(
                "{}",
                strip_packing::core::render::ascii(
                    &prec.inst,
                    &report.placement,
                    60,
                    report.makespan / 30.0
                )
            );
        }
        Some("svg") => {
            print!(
                "{}",
                strip_packing::core::render::svg(&prec.inst, &report.placement, 400.0)
            );
        }
        Some(other) => {
            eprintln!("error: unknown renderer {other}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

fn cmd_bounds(args: &Args) -> ExitCode {
    let prec = read_instance(args.required("<file|->"));
    println!("n            {}", prec.len());
    println!("edges        {}", prec.dag.edge_count());
    println!("AREA         {:.6}", prec.area_lb());
    println!("F (crit path){:>10.6}", prec.critical_lb());
    println!(
        "combined LB  {:.6}",
        strip_packing::precedence::combined::combined_lower_bound(&prec)
    );
    println!(
        "T2.3 bound   {:.6}",
        strip_packing::precedence::dc_bound(&prec)
    );
    ExitCode::SUCCESS
}

/// List the registry: one line per solver with capability flags and the
/// advertised bound (if the entry claims one — the conformance suite
/// holds it to the claim).
fn cmd_algos() -> ExitCode {
    let registry = Registry::builtin();
    println!(
        "{:<16} {:<30} {:<28} description",
        "name", "honors", "advertised bound"
    );
    for e in registry.entries() {
        let mut honors = Vec::new();
        if e.capabilities.precedence {
            honors.push("prec");
        }
        if e.capabilities.release {
            honors.push("release");
        }
        if e.capabilities.online {
            honors.push("online");
        }
        if e.capabilities.a_bound {
            honors.push("A-bound");
        }
        if e.capabilities.uniform_height_only {
            honors.push("uniform-h");
        }
        if e.capabilities.anytime {
            honors.push("anytime");
        }
        let honors = if honors.is_empty() {
            "-".to_string()
        } else {
            honors.join(",")
        };
        let advertised = e.advertised.as_ref().map_or("-", |a| a.formula);
        println!(
            "{:<16} {:<30} {:<28} {}",
            e.name, honors, advertised, e.summary
        );
    }
    println!();
    println!(
        "anytime solvers honor --budget-ms <ms> (seeded remove-and-reinsert until the deadline)"
    );
    println!("and --improve-streams <k> (portfolio width: k independent streams per budget, best");
    println!("stream wins deterministically; 1 unless given, on every host, as on /solve).");
    println!("--improve-workers <n> sets threads (never changes results);");
    println!("--improve-envelope shares a best-so-far bound across streams (faster, but");
    println!("results become scheduling-dependent).");
    ExitCode::SUCCESS
}

/// Resolve `--algos` against the registry, exiting with the live name
/// listing on an unknown solver.
fn solvers_from_args(args: &Args, default: &str) -> Vec<Box<dyn Solver>> {
    let registry = Registry::builtin();
    let mut solvers = Vec::new();
    for name in args.get("--algos").unwrap_or(default).split(',') {
        match registry.get_or_err(name) {
            Ok(s) => solvers.push(s),
            Err(e) => unknown_algo_exit(&registry, &e),
        }
    }
    solvers
}

/// Print a merged report (optionally per-cell rows) and convert invalid
/// cells into a failing exit code.
fn finish_merged(merged: &MergedReport, cells: bool) -> ExitCode {
    if cells {
        print!("{}", merged.render_cells());
    }
    print!("{}", merged.render_table());
    let invalid = merged.invalid_cells();
    if invalid > 0 {
        eprintln!("error: {invalid} cells produced invalid placements");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The sorted instance-file list of `--input-dir` or `--file-list`,
/// split into `shards` contiguous shards.
fn plan_from_args(args: &Args, shards: usize) -> ShardPlan {
    let plan = match (args.get("--input-dir"), args.get("--file-list")) {
        (Some(dir), None) => ShardPlan::from_dir(Path::new(dir), shards),
        (None, Some(list)) => ShardPlan::from_file_list(Path::new(list), shards),
        _ => args.fail("give exactly one of --input-dir and --file-list"),
    };
    plan.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Load the shared bearer token named by `--token-file`, if any. Exits
/// on an unreadable or empty file — a fleet member silently running
/// without its credential would only discover that as a wall of 401s.
fn token_from_args(args: &Args) -> Option<String> {
    let path = args.get("--token-file")?;
    match strip_packing::serve::auth::token_from_file(Path::new(path)) {
        Ok(token) => Some(token),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Open the solve cache named by `--cache-dir` (local directory),
/// `--cache-url` (one `spp serve` instance), or `--cache-urls` (a
/// consistent-hash fleet of them, with `--replication`), if any — all
/// implement the same `SolveCache` trait, so the executor cannot tell
/// them apart. `--token-file` attaches the fleet's bearer token to the
/// HTTP backends. Exits on an unusable backend — the user asked for
/// durability and silently running uncached would defeat the point.
fn cache_from_args(args: &Args) -> Option<Box<dyn SolveCache>> {
    let readonly = args.has("--cache-readonly");
    let dir = args.get("--cache-dir");
    let url = args.get("--cache-url");
    let urls = args.get("--cache-urls");
    if [dir.is_some(), url.is_some(), urls.is_some()]
        .iter()
        .filter(|set| **set)
        .count()
        > 1
    {
        eprintln!("error: --cache-dir, --cache-url and --cache-urls are mutually exclusive");
        std::process::exit(2);
    }
    if urls.is_none() && args.has("--replication") {
        eprintln!("error: --replication requires --cache-urls");
        std::process::exit(2);
    }
    if let Some(urls) = urls {
        let replication: usize = args
            .value("--replication")
            .unwrap_or(strip_packing::serve::sharded::DEFAULT_REPLICATION);
        let list: Vec<String> = urls
            .split(',')
            .map(str::trim)
            .filter(|u| !u.is_empty())
            .map(String::from)
            .collect();
        match ShardedCache::new(&list, replication, readonly, token_from_args(args)) {
            Ok(c) => return Some(Box::new(c)),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(url) = url {
        // Construction only validates the URL shape; an unreachable
        // server shows up as all-misses (and failed writes error per
        // cell), matching a cold local cache.
        match HttpCache::new(url, readonly) {
            Ok(c) => return Some(Box::new(c.with_token(token_from_args(args)))),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    let Some(dir) = dir else {
        // Fail loudly, like the removed --manifest: a run the user
        // believes is cache-backed must not silently go uncached.
        if readonly {
            eprintln!("error: --cache-readonly requires --cache-dir, --cache-url or --cache-urls");
            std::process::exit(2);
        }
        return None;
    };
    // A read-only cache that does not exist is almost certainly a typo'd
    // path; running "warm" at full solve cost would hide it.
    if readonly && !Path::new(dir).is_dir() {
        eprintln!("error: --cache-readonly: cache directory {dir} does not exist");
        std::process::exit(1);
    }
    match DiskCache::new(Path::new(dir), readonly) {
        Ok(c) => Some(Box::new(c)),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// File-mode batch: instances come from `--input-dir` or `--file-list`,
/// split into `--shards` contiguous shards, all cells flowing through
/// the cache-consulting executor when `--cache-dir` is set.
///
/// * with `--shard-index i`: run only shard `i` and emit its portable
///   report (stdout or `--out`) for a later `--merge` — the
///   multi-process / multi-machine path (shard processes may share one
///   cache directory);
/// * without: run all shards in this process, merge, and print the
///   canonical table. With a cache, a rerun is a **resume**: every
///   already-solved cell is served from disk.
fn cmd_batch_files(args: &Args) -> ExitCode {
    let plan = plan_from_args(args, args.value("--shards").unwrap_or(1));
    let solvers = solvers_from_args(args, "nfdh,ffdh,greedy,dc-nfdh");
    let config = config_from_args(args);
    let cache = cache_from_args(args);
    let cache_ref: Option<&dyn SolveCache> = cache.as_deref();
    let report_cache_use = |cache: &Option<Box<dyn SolveCache>>| {
        if let Some(c) = cache {
            eprintln!("cache: {}", c.stats());
        }
    };

    if let Some(index) = args.value::<usize>("--shard-index") {
        args.refuse(
            "--cells",
            "to a single-shard run (its output is the report JSON; use --cells on the in-process multi-shard or --merge paths)",
        );
        let report = match run_shard(&plan, index, &solvers, &config, cache_ref) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "shard {index}/{}: {} files, {} cells",
            plan.shards(),
            plan.shard_paths(index).map_or(0, <[PathBuf]>::len),
            report.cells.len()
        );
        report_cache_use(&cache);
        let json = report.to_json();
        match args.get("--out") {
            Some(path) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            None => print!("{json}"),
        }
        return ExitCode::SUCCESS;
    }

    args.refuse(
        "--out",
        "without --shard-index (only a single-shard run emits a report file)",
    );
    // Stream per-shard aggregates to stderr, in shard order, as each
    // finishes (stdout stays deterministic for diffing).
    let observer = |lease: &WorkLease, cells: &[CellRow], runtime: &ShardRuntime| {
        let solved = cells
            .iter()
            .filter(|c| c.status == CellStatus::Solved)
            .count();
        let origin = if cells.is_empty() {
            "empty"
        } else if runtime.fully_cached(cells.len()) {
            "resumed"
        } else {
            "computed"
        };
        eprintln!(
            "shard {}/{}: {} cells, {solved} solved ({origin})",
            lease.index,
            plan.shards(),
            cells.len()
        );
    };
    let t0 = std::time::Instant::now();
    let merged = match run_sharded(&plan, &solvers, &config, cache_ref, Some(&observer)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "batch: {} files x {} solvers = {} cells in {} shards, {:.2}s wall",
        plan.len(),
        solvers.len(),
        merged.cells.len(),
        plan.shards(),
        t0.elapsed().as_secs_f64()
    );
    report_cache_use(&cache);
    finish_merged(&merged, args.has("--cells"))
}

/// Merge shard report files (comma-separated) into the canonical table —
/// byte-identical on stdout to the single-process run over the same
/// inputs.
fn cmd_batch_merge(args: &Args) -> ExitCode {
    let mut reports = Vec::new();
    let paths = args.required("--merge");
    for path in paths.split(',').filter(|p| !p.is_empty()) {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match ShardReport::parse(&text) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match merge_reports(reports) {
        Ok(merged) => finish_merged(&merged, args.has("--cells")),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `spp batch --dispatcher-url`: the thin client of a running
/// `spp dispatch`. Polls the queue until every chunk is completed by the
/// worker fleet, fetches the merged report, and prints the canonical
/// table — byte-identical on stdout to a single-process `spp batch` over
/// the dispatcher's inputs.
fn cmd_batch_await(args: &Args) -> ExitCode {
    let remote = match RemoteLease::new(args.required("--dispatcher-url")) {
        Ok(r) => r.with_token(token_from_args(args)),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut last_done = usize::MAX;
    loop {
        let status = match remote.progress() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        if status.completed_chunks != last_done {
            last_done = status.completed_chunks;
            eprintln!(
                "dispatch: {}/{} chunks complete ({} jobs, {} leases, {} requeued)",
                status.completed_chunks, status.chunks, status.jobs, status.leases, status.requeued
            );
        }
        if status.done {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
    match remote.fetch_report() {
        Ok(merged) => finish_merged(&merged, args.has("--cells")),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `spp dispatch`: serve the pull-based work queue over HTTP.
///
/// The dispatcher owns the plan: the sorted instance-file list (split
/// into `--lease-files`-sized chunks), the solver list, and the solve
/// config every lease carries. Workers (`spp work`) pull chunks and
/// report portable cells back; a lease not completed within
/// `--lease-timeout` seconds is requeued, so a killed worker loses
/// nothing. With `--cache-dir` the same process also serves the shared
/// solve cache (the `spp serve` role) — the natural one-host setup.
///
/// Like `spp serve`, prints `listening on http://host:port` as the first
/// stdout line and runs until killed (it keeps answering `/work/status`
/// and `/work/report` after the batch completes, so late clients can
/// still collect the result).
fn cmd_dispatch(args: &Args) -> ExitCode {
    use std::io::Write as _;
    let lease_files: usize = args.value("--lease-files").unwrap_or(1);
    let lease_timeout: u64 = args.value("--lease-timeout").unwrap_or(60);
    let plan = plan_from_args(args, 1);
    // Resolve solver names up front: a dispatcher advertising an unknown
    // solver would fail every worker later, loudly but wastefully.
    let solvers = solvers_from_args(args, "nfdh,ffdh,greedy,dc-nfdh");
    let names: Vec<String> = solvers.iter().map(|s| s.name().to_string()).collect();
    let config = config_from_args(args);
    let queue = WorkQueue::new(
        plan.paths().to_vec(),
        names.clone(),
        config,
        work::chunk_ranges(plan.len(), lease_files),
        Some(std::time::Duration::from_secs(lease_timeout.max(1))),
    );

    let mut serve_config = match args.get("--cache-dir") {
        Some(dir) => ServeConfig::new(dir),
        None => ServeConfig::without_cache(),
    };
    listener_from_args(args, &mut serve_config);
    let server = match Server::bind_with_work(&serve_config, Some(queue)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on http://{}", server.local_addr());
    let _ = std::io::stdout().flush();
    eprintln!(
        "dispatching {} files x {} solvers in {}-file leases (timeout {}s){} (io-mode {}); \
         endpoints: POST /work/lease, POST /work/complete, GET /work/status, \
         GET /work/report, GET /stats",
        plan.len(),
        names.len(),
        lease_files.max(1),
        lease_timeout.max(1),
        if serve_config.cache_dir.is_some() {
            "; also serving the cache role"
        } else {
            ""
        },
        server.io_mode().name()
    );
    server.run();
    ExitCode::SUCCESS
}

/// `spp work`: a pull-loop worker against a running `spp dispatch`.
///
/// Leases chunks, loads their instance files, runs every cell through
/// the engine's one cache-consulting pipeline (attach the fleet's shared
/// cache with `--cache-url`, or a local `--cache-dir`), and reports the
/// portable rows back. Exits 0 when the dispatcher says the batch is
/// done, nonzero on a hard error (the dispatcher requeues this worker's
/// outstanding lease at its deadline either way).
///
/// One pull loop per process: each lease already spreads its cells over
/// every core. `--abandon-after N` is a chaos hook for testing the
/// requeue path: the process exits 3 *without completing* its N-th lease
/// — exactly what a worker killed mid-chunk looks like to the
/// dispatcher.
fn cmd_work(args: &Args) -> ExitCode {
    let source = match RemoteLease::new(args.required("--dispatcher-url")) {
        Ok(s) => s.with_token(token_from_args(args)),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cache = cache_from_args(args);
    let cache_ref: Option<&dyn SolveCache> = cache.as_deref();
    let poll = std::time::Duration::from_millis(args.value("--poll-ms").unwrap_or(200));
    let abandon_after: Option<u64> = args.value("--abandon-after");

    let registry = Registry::builtin();
    let leases_taken = std::sync::atomic::AtomicU64::new(0);
    let execute = |lease: &WorkLease| {
        let taken = leases_taken.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
        if abandon_after == Some(taken) {
            eprintln!(
                "work: abandoning lease {} without completing it (--abandon-after {taken})",
                lease.id
            );
            std::process::exit(3);
        }
        let mut solvers: Vec<Box<dyn Solver>> = Vec::with_capacity(lease.solvers.len());
        for name in &lease.solvers {
            match registry.get_or_err(name) {
                Ok(s) => solvers.push(s),
                Err(e) => {
                    return Err(WorkError::Protocol {
                        context: format!("lease {}", lease.id),
                        err: format!("dispatcher names a solver this binary lacks: {e}"),
                    })
                }
            }
        }
        work::execute_lease(lease, &solvers, cache_ref)
    };
    let stats = match work::pull_work(&source, &execute, poll) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("work: {} leases, {} cells", stats.leases, stats.cells);
    if let Some(c) = &cache {
        eprintln!("cache: {}", c.stats());
    }
    ExitCode::SUCCESS
}

/// Batch entry point: pick the mode (dispatcher client, merge, instance
/// files or generator) and parse against its usage entry. A flag of
/// another mode is refused, not ignored: e.g. `--shard-index` without
/// `--input-dir` would run the *whole* generated workload.
fn cmd_batch(argv: &[String]) -> ExitCode {
    // PR 2's per-shard manifest resume is gone. Error loudly — a script
    // still passing `--manifest` believes its runs are resumable, and
    // silently ignoring the flag would make that belief wrong.
    if argv.iter().any(|a| a == "--manifest") {
        eprintln!(
            "error: --manifest was removed; use --cache-dir <dir> (the content-addressed \
             solve cache resumes at cell granularity and needs no manifest files)"
        );
        return ExitCode::from(2);
    }
    let given = |flag: &str| argv.iter().any(|a| a == flag);
    if given("--dispatcher-url") {
        cmd_batch_await(&Args::parse_mode(
            argv,
            "batch --dispatcher-url",
            "to --dispatcher-url (the dispatcher owns the plan, solver list and cache wiring)",
        ))
    } else if given("--merge") {
        cmd_batch_merge(&Args::parse_mode(
            argv,
            "batch --merge",
            "to --merge (solver list and cells come from the shard reports)",
        ))
    } else if given("--input-dir") || given("--file-list") {
        cmd_batch_files(&Args::parse_mode(
            argv,
            "batch (",
            "to file mode (instances come from the files, not a generator)",
        ))
    } else {
        cmd_batch_generated(&Args::parse_mode(
            argv,
            "batch [",
            "to generated mode; sharding and caching need --input-dir or --file-list",
        ))
    }
}

/// Generate `count` instances per family and run every requested solver on
/// all of them, in parallel, via the engine's batch executor. The table is
/// the one every batch mode prints.
fn cmd_batch_generated(args: &Args) -> ExitCode {
    use rand::SeedableRng;

    let families: Vec<DagFamily> = args
        .get("--families")
        .unwrap_or("layered,random")
        .split(',')
        .map(family_by_name)
        .collect();
    let count: usize = args.value("--count").unwrap_or(50);
    let n: usize = args.value("-n").unwrap_or(30);
    let seed: u64 = args.value("--seed").unwrap_or(1);
    let solvers = solvers_from_args(args, "dc-nfdh,greedy,layered");
    let config = config_from_args(args);
    let mut jobs = Vec::with_capacity(families.len() * count);
    for family in &families {
        for i in 0..count {
            let mut rng = rand::rngs::StdRng::seed_from_u64(
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let inst = strip_packing::gen::rects::uniform(&mut rng, n, (0.05, 0.95), (0.05, 1.0));
            let dag = family.build(&mut rng, n);
            let request =
                SolveRequest::new(PrecInstance::new(inst, dag)).with_config(config.clone());
            jobs.push(BatchJob::new(format!("{}/{}", family.name(), i), request));
        }
    }

    let t0 = std::time::Instant::now();
    let outcomes = execute_cells(&jobs, &solvers, None).expect("cache-less execution cannot fail");
    let wall = t0.elapsed();
    let merged = MergedReport {
        solvers: solvers.iter().map(|s| s.name().to_string()).collect(),
        cells: work::cell_rows(outcomes, 0).0,
    };
    // Timing (machine-dependent) on stderr, so the table on stdout can be
    // diffed across runs.
    eprintln!(
        "batch: {} jobs x {} solvers = {} cells in {:.2}s wall",
        jobs.len(),
        solvers.len(),
        merged.cells.len(),
        wall.as_secs_f64()
    );
    finish_merged(&merged, false)
}

/// `spp cache stats`: summarize a cache directory — entry counts,
/// per-solver breakdown, bytes, distinct instances/configs. Deterministic
/// stdout so CI can diff or parse it.
fn cmd_cache_stats(args: &Args) -> ExitCode {
    let stats = match solve_cache::dir_stats(Path::new(args.required("--cache-dir"))) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("entries      {}", stats.entries);
    println!("corrupt      {}", stats.corrupt);
    println!("bytes        {}", stats.bytes);
    println!("instances    {}", stats.instances);
    println!("configs      {}", stats.configs);
    // Age histogram: how much of the cache would an age-based
    // `gc --max-age` sweep — the input to choosing a threshold.
    let ages: Vec<String> = solve_cache::AGE_BUCKETS
        .iter()
        .zip(stats.ages)
        .map(|(label, count)| format!("{label}:{count}"))
        .collect();
    println!("age          {}", ages.join(" "));
    for (solver, count) in &stats.per_solver {
        println!("solver       {solver} {count}");
    }
    ExitCode::SUCCESS
}

/// `spp cache gc`: delete every file in the cache directory that can
/// never be served (corrupt, truncated, or mis-filed entries), plus —
/// with `--max-age <secs>` — every valid entry older than the threshold
/// (safe by construction: an evicted cell simply recomputes on next use).
fn cmd_cache_gc(args: &Args) -> ExitCode {
    let dir = Path::new(args.required("--cache-dir"));
    let max_age = args.value("--max-age").map(std::time::Duration::from_secs);
    match solve_cache::gc_dir_aged(dir, max_age) {
        Ok(report) => {
            for path in &report.removed {
                eprintln!("removed {}", path.display());
            }
            println!(
                "gc: removed {} of {} files ({} aged out), kept {} entries",
                report.removed.len(),
                report.removed.len() + report.kept,
                report.expired,
                report.kept
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `spp cache verify`: spot-check cached cells against fresh solves.
///
/// Builds the instance list the same way file-mode `spp batch` does,
/// looks up every `(instance, solver, config)` cell that has a cache
/// entry, re-solves a deterministic sample of them, and diffs the cached
/// fields bit-for-bit against the recomputation. Any divergence — a
/// corrupted-but-parseable entry, a cache poisoned by an older binary, a
/// nondeterministic solver — is reported and fails the command.
fn cmd_cache_verify(args: &Args) -> ExitCode {
    let dir = Path::new(args.required("--cache-dir"));
    let plan = plan_from_args(args, 1);
    let solvers = solvers_from_args(args, "nfdh,ffdh,greedy,dc-nfdh");
    let config = config_from_args(args);
    let sample: usize = args.value("--sample").unwrap_or(16);
    let cache = match DiskCache::new(dir, true) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Every cached cell of this workload, in deterministic plan order.
    // One request per instance file; cells reference it by index instead
    // of cloning it once per solver.
    let mut requests = Vec::with_capacity(plan.len());
    let mut cached: Vec<(usize, usize, solve_cache::CachedCell)> = Vec::new();
    for path in plan.paths() {
        let prec = match strip_packing::gen::fileio::read_path(path) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let request = SolveRequest::new(prec).with_config(config.clone());
        let digest = strip_packing::gen::fileio::digest(&request.prec);
        let req_index = requests.len();
        requests.push(request);
        for (s, solver) in solvers.iter().enumerate() {
            let key = solve_cache::CacheKey::new(digest, solver.name(), &config);
            if let Some(cell) = cache.get(&key) {
                cached.push((req_index, s, cell));
            }
        }
    }
    if cached.is_empty() {
        eprintln!(
            "cache verify: no entries in {} match this workload",
            dir.display()
        );
        return ExitCode::FAILURE;
    }
    // Deterministic sample: evenly strided across the cell list
    // (--sample 0 checks everything).
    let take = if sample == 0 {
        cached.len()
    } else {
        sample.min(cached.len())
    };
    let mut mismatches = 0usize;
    let mut checked = 0usize;
    for i in 0..take {
        // i·len/take spreads the sample across the whole list (head,
        // middle, and tail are all reachable) even when take < len.
        let (req_index, s, cell) = &cached[i * cached.len() / take];
        let (path, request, solver) = (
            &plan.paths()[*req_index],
            &requests[*req_index],
            &solvers[*s],
        );
        let fresh = strip_packing::engine::solve(solver.as_ref(), request);
        // The same classification rule the executor cached under — any
        // divergence is a real mismatch, not a rule drift.
        let (status, makespan, lb) = strip_packing::engine::classify_outcome(&fresh);
        checked += 1;
        if status != cell.status
            || makespan.to_bits() != cell.makespan.to_bits()
            || lb.to_bits() != cell.combined_lb.to_bits()
        {
            mismatches += 1;
            eprintln!(
                "MISMATCH {} x {}: cached ({} {:.17e} {:.17e}), fresh ({} {:.17e} {:.17e})",
                path.display(),
                solver.name(),
                cell.status.as_str(),
                cell.makespan,
                cell.combined_lb,
                status.as_str(),
                makespan,
                lb
            );
        }
    }
    println!(
        "cache verify: {checked} of {} cached cells re-solved, {mismatches} mismatches",
        cached.len()
    );
    if mismatches > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `spp serve`: stand the shared solve cache (and a solve endpoint) behind
/// a dependency-free HTTP/1.1 service.
///
/// Prints the bound address on stdout as the first line —
/// `listening on http://host:port` — so wrapper scripts (and the CI
/// smoke job) can bind port 0 and scrape the chosen port. Runs until
/// killed; every request is logged nowhere (stderr stays quiet) but
/// counted, and `GET /stats` reports the counters.
fn cmd_serve(args: &Args) -> ExitCode {
    use std::io::Write as _;
    let dir = args.required("--cache-dir");
    let mut config = ServeConfig::new(dir);
    listener_from_args(args, &mut config);
    config.max_budget_ms = args
        .value("--max-budget-ms")
        .unwrap_or(config.max_budget_ms);
    config.max_improve_streams = args
        .value("--max-improve-streams")
        .unwrap_or(config.max_improve_streams);
    let server = match Server::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on http://{}", server.local_addr());
    let _ = std::io::stdout().flush();
    eprintln!(
        "serving cache dir {dir}{} (io-mode {}); endpoints: GET/PUT /cache/<key>, POST /solve, \
         GET /stats",
        if config.readonly { " (read-only)" } else { "" },
        server.io_mode().name()
    );
    server.run();
    ExitCode::SUCCESS
}

/// Apply the listener flags shared by `spp serve` and `spp dispatch`:
/// address, pool size, body cap, read-only cache, token, keep-alive
/// budgets and the I/O mode.
fn listener_from_args(args: &Args, config: &mut ServeConfig) {
    if let Some(addr) = args.get("--addr") {
        config.addr = addr.to_string();
    }
    config.workers = args.value("--workers").unwrap_or(config.workers);
    config.max_body = args.value("--max-body").unwrap_or(config.max_body);
    config.readonly = args.has("--cache-readonly");
    config.token = token_from_args(args);
    config.keepalive_requests = args
        .value("--keepalive-requests")
        .unwrap_or(config.keepalive_requests);
    if let Some(ms) = args.value("--idle-timeout-ms") {
        config.idle_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(mode) = io_mode_from_args(args) {
        config.io_mode = mode;
    }
}

/// Parse `--io-mode <auto|blocking|event>` (shared by `spp serve`,
/// `spp dispatch`, and `spp bench serve`).
fn io_mode_from_args(args: &Args) -> Option<IoMode> {
    let mode = args.get("--io-mode")?;
    Some(IoMode::parse(mode).unwrap_or_else(|e| args.fail(e)))
}

/// `spp bench serve`: load-test the HTTP serving layer and prove its
/// throughput with a number.
///
/// Without `--url`, spawns an in-process cache server over a scratch
/// directory (so the command is self-contained); with `--url`, drives a
/// server someone else started. The workload is either repeated
/// `GET /cache/<key>` hits against one seeded entry (`cache-hit`, the
/// default — the hot path of a warm fleet) or repeated `POST /solve` of
/// one small instance (`solve` — cache-backed after the first miss).
///
/// Each requested mode (`keepalive`, `close`, or `both`) runs the same
/// workload through `spp_serve::bench::run_bench`: closed-loop by
/// default, open-loop at `--rate` requests/second with latency measured
/// from the scheduled send time (coordinated-omission corrected). The
/// table goes to stdout; `--out` additionally writes the runs as
/// `spp-bench` records — `experiment` "serve", `algo` the mode, `family`
/// the workload, `n` completed requests, `height` RPS, `ratio` p99 ms —
/// the `BENCH_SERVE.json` baseline CI smoke-checks. With `--io-mode`
/// and/or `--idle-clients` the family string is suffixed
/// (`cache-hit@event+idle500`) so runs stay distinguishable in the same
/// fixed record schema.
///
/// `--idle-clients N` measures RPS-vs-idle-count: every mode runs once
/// with zero idle connections and once with N idle keep-alive
/// connections parked alongside the active clients — the load shape
/// `--io-mode event` exists for (idle connections must cost ~nothing)
/// and the one where blocking mode visibly degrades (idle connections
/// each pin a pool worker for the pressured idle budget).
///
/// Exits nonzero if any request errored (or any idle connection failed
/// to stand up): a load test that quietly dropped requests would prove
/// nothing.
fn cmd_bench_serve(args: &Args) -> ExitCode {
    use strip_packing::serve::bench::{run_bench, BenchConfig, Mode, Stop, Target};
    use strip_packing::serve::http;

    let clients: usize = args.value("--clients").unwrap_or(4);
    let idle_clients: Option<usize> = args.value("--idle-clients");
    let io_mode = io_mode_from_args(args);
    let modes: Vec<Mode> = match args.get("--mode") {
        None | Some("both") => vec![Mode::Keepalive, Mode::Close],
        Some("keepalive") => vec![Mode::Keepalive],
        Some("close") => vec![Mode::Close],
        Some(other) => {
            eprintln!("error: unknown mode {other:?} (expected keepalive, close or both)");
            return ExitCode::from(2);
        }
    };
    let workload = args.get("--workload").unwrap_or("cache-hit").to_string();
    if args.has("--requests") && args.has("--duration-ms") {
        eprintln!("error: --requests and --duration-ms are mutually exclusive");
        return ExitCode::from(2);
    }
    let stop = match args.value("--requests") {
        Some(n) => Stop::Requests(n),
        None => Stop::Duration(std::time::Duration::from_millis(
            args.value("--duration-ms").unwrap_or(2000),
        )),
    };
    let rate: Option<f64> = args.value("--rate");

    // The server under test: the user's (--url) or our own scratch one.
    let (authority, server, io_label) = match args.get("--url") {
        Some(url) => {
            for flag in ["--workers", "--io-mode"] {
                args.refuse(flag, "with --url (they configure the self-spawned server)");
            }
            match http::parse_base_url(url) {
                Ok(a) => (a, None, None),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => {
            let dir = std::env::temp_dir().join(format!("spp_bench_serve_{}", std::process::id()));
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            let mut config = ServeConfig::new(&dir);
            config.addr = "127.0.0.1:0".into();
            config.workers = args.value("--workers").unwrap_or(config.workers);
            if let Some(mode) = io_mode {
                config.io_mode = mode;
            }
            let bound = match Server::bind(&config) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Record the *resolved* mode (an `event` ask on a platform
            // without epoll runs blocking — the label must say so).
            let label = io_mode.map(|_| bound.io_mode().name());
            let handle = bound.spawn();
            eprintln!(
                "bench: spawned scratch server on http://{} (io-mode {})",
                handle.local_addr(),
                label.unwrap_or("auto")
            );
            (handle.authority(), Some(handle), label)
        }
    };

    // One small deterministic instance backs both workloads: its cached
    // cell for cache-hit GETs, its JSON body for /solve POSTs.
    use rand::SeedableRng as _;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let inst = strip_packing::gen::rects::uniform(&mut rng, 12, (0.05, 0.95), (0.05, 1.0));
    let dag = family_by_name("empty").build(&mut rng, 12);
    let request = SolveRequest::new(PrecInstance::new(inst, dag));
    let config = SolveConfig::default();
    let target = match workload.as_str() {
        "cache-hit" => {
            // Seed the entry the run will hammer, through the same PUT
            // endpoint any worker uses — a 404 storm would measure the
            // error path, not serving.
            let registry = Registry::builtin();
            let solver = match registry.get_or_err("nfdh") {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let fresh = strip_packing::engine::solve(solver.as_ref(), &request);
            let (status, makespan, combined_lb) = strip_packing::engine::classify_outcome(&fresh);
            let cell = solve_cache::CachedCell {
                status,
                makespan,
                combined_lb,
                improved_from: None,
            };
            let digest = strip_packing::gen::fileio::digest(&request.prec);
            let key = solve_cache::CacheKey::new(digest, "nfdh", &config);
            let file_name = key.file_name();
            let stem = file_name.strip_suffix(".json").unwrap_or(&file_name);
            let path = format!("/cache/{stem}");
            let body = solve_cache::entry_to_json(&key, &cell);
            match http::roundtrip(&authority, "PUT", &path, &body) {
                Ok(r) if r.status == 204 || r.status == 200 => {}
                Ok(r) => {
                    eprintln!(
                        "error: seeding PUT {path} rejected with HTTP {}: {}",
                        r.status,
                        r.body.trim()
                    );
                    return ExitCode::FAILURE;
                }
                Err(e) => {
                    eprintln!("error: seeding PUT {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            Target {
                method: "GET".into(),
                path_and_query: path,
                body: String::new(),
            }
        }
        "solve" => Target {
            method: "POST".into(),
            path_and_query: "/solve?solver=nfdh".into(),
            body: strip_packing::gen::fileio::to_json(&request.prec),
        },
        other => {
            eprintln!("error: unknown workload {other:?} (expected cache-hit or solve)");
            return ExitCode::from(2);
        }
    };

    // Every mode runs once per idle level: just [0] normally, or
    // [0, N] with --idle-clients so the zero-idle baseline and the
    // idle-loaded run land side by side in the same table and records.
    let idle_levels: Vec<usize> = match idle_clients {
        Some(n) if n > 0 => vec![0, n],
        _ => vec![0],
    };
    // `family` keeps runs distinguishable inside the fixed BenchRecord
    // schema: workload, then "@<io-mode>" when one was asked for, then
    // "+idle<N>" when idle clients were.
    let family_of = |idle: usize| {
        let mut family = workload.clone();
        if let Some(label) = io_label {
            family.push('@');
            family.push_str(label);
        }
        if idle_clients.is_some() {
            family.push_str(&format!("+idle{idle}"));
        }
        family
    };
    println!(
        "| {:<9} | {:>6} | {:>9} | {:>6} | {:>7} | {:>9} | {:>8} | {:>8} | {:>8} | {:>8} |",
        "mode",
        "idle",
        "requests",
        "errors",
        "wall s",
        "rps",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "p999 ms"
    );
    let mut records = Vec::new();
    let mut rps_by_mode = Vec::new();
    let mut rps_by_mode_idle = Vec::new();
    let mut total_errors = 0u64;
    for mode in modes {
        for &idle in &idle_levels {
            let result = run_bench(&BenchConfig {
                authority: authority.clone(),
                clients,
                mode,
                target: target.clone(),
                stop,
                rate,
                idle_clients: idle,
            });
            println!(
                "| {:<9} | {:>6} | {:>9} | {:>6} | {:>7.2} | {:>9.1} | {:>8.3} | {:>8.3} | \
                 {:>8.3} | {:>8.3} |",
                mode.name(),
                idle,
                result.requests,
                result.errors,
                result.wall_s,
                result.rps,
                result.latency_ms(0.50),
                result.latency_ms(0.95),
                result.latency_ms(0.99),
                result.latency_ms(0.999),
            );
            if result.idle_errors > 0 {
                eprintln!(
                    "bench: {} of {idle} idle connections failed to stand up ({} mode)",
                    result.idle_errors,
                    mode.name()
                );
            }
            records.push(spp_bench::json::BenchRecord {
                experiment: "serve".into(),
                algo: mode.name().into(),
                family: family_of(idle),
                n: result.requests as usize,
                height: result.rps,
                ratio: result.latency_ms(0.99),
                wall_s: result.wall_s,
            });
            if idle == 0 {
                rps_by_mode.push((mode, result.rps));
            } else {
                rps_by_mode_idle.push((mode, idle, result.rps));
            }
            total_errors += result.errors + result.idle_errors;
        }
    }
    let keepalive = rps_by_mode
        .iter()
        .find(|(m, _)| *m == Mode::Keepalive)
        .map(|(_, r)| *r);
    let close = rps_by_mode
        .iter()
        .find(|(m, _)| *m == Mode::Close)
        .map(|(_, r)| *r);
    if let (Some(ka), Some(cl)) = (keepalive, close) {
        if cl > 0.0 {
            eprintln!("bench: keepalive/close rps ratio {:.2}x", ka / cl);
        }
    }
    // RPS retention under idle load — the number `--io-mode event`
    // exists to hold near 100%.
    for (mode, idle, rps) in &rps_by_mode_idle {
        if let Some((_, base)) = rps_by_mode.iter().find(|(m, _)| m == mode) {
            if *base > 0.0 {
                eprintln!(
                    "bench: {} rps with {idle} idle clients: {rps:.1} ({:.0}% of zero-idle)",
                    mode.name(),
                    100.0 * rps / base
                );
            }
        }
    }
    if let Some(path) = args.get("--out") {
        if let Err(e) = std::fs::write(path, spp_bench::json::to_json(&records)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("bench: wrote {} records to {path}", records.len());
    }
    if let Some(server) = server {
        server.shutdown();
    }
    if total_errors > 0 {
        eprintln!("error: {total_errors} requests failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `cache` and `bench` name a subcommand: their usage entries are
    // "cache gc", "bench serve", ….
    let words = match argv.first().map(String::as_str) {
        Some("cache" | "bench") => 2,
        _ => 1,
    };
    let Some(command) = argv.get(..words).map(|w| w.join(" ")) else {
        usage()
    };
    let args = |entry: &str| Args::parse(&argv[words..], entry);
    match command.as_str() {
        "gen" => cmd_gen(&args("gen")),
        "suite" => cmd_suite(&args("suite")),
        // `solve` is `pack` under its budget-era name: one-shot solving
        // is the budget_ms=0 special case of budgeted solving.
        "pack" | "solve" => cmd_pack(&args("pack|solve")),
        "bounds" => cmd_bounds(&args("bounds")),
        "batch" => cmd_batch(&argv[1..]),
        "cache stats" => cmd_cache_stats(&args("cache stats")),
        "cache gc" => cmd_cache_gc(&args("cache gc")),
        "cache verify" => cmd_cache_verify(&args("cache verify")),
        "serve" => cmd_serve(&args("serve")),
        "dispatch" => cmd_dispatch(&args("dispatch")),
        "work" => cmd_work(&args("work")),
        "bench serve" => cmd_bench_serve(&args("bench serve")),
        "algos" => {
            args("algos");
            cmd_algos()
        }
        _ => usage(),
    }
}
