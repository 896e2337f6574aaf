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

fn usage() -> ! {
    eprintln!(
        "usage:\n  spp gen --family <name> [-n <count>] [--seed <u64>] [--uniform-height]\n          [--format <spp|json>]\n  spp suite --out-dir <dir> [--count <n>] [-n <size>] [--seed <u64>]\n  spp pack|solve <file|-> [--algo <name>] [--render <none|ascii|svg>]\n          [--epsilon <f64>] [-k <usize>] [--shelf-r <f64>] [--strict]\n          [--budget-ms <ms>] [--improve-seed <u64>]\n          [--improve-streams <k>] [--improve-workers <n>] [--improve-envelope]\n  spp bounds <file|->\n  spp batch [--families <f1,f2,..>] [--count <per-family>] [-n <size>]\n          [--seed <u64>] [--algos <a1,a2,..>]\n          [--budget-ms <ms>] [--improve-seed <u64>]\n          [--improve-streams <k>] [--improve-workers <n>] [--improve-envelope]\n  spp batch (--input-dir <dir> | --file-list <file>) [--algos <a1,a2,..>]\n          [--shards <n>] [--shard-index <i>] [--out <file>]\n          [--cache-dir <dir> | --cache-url <url> | --cache-urls <u1,u2,..>]\n          [--replication <r>] [--token-file <file>] [--cache-readonly] [--cells]\n  spp batch --merge <report1,report2,..> [--cells]\n  spp batch --dispatcher-url <http://host:port> [--token-file <file>] [--cells]\n  spp cache stats --cache-dir <dir>\n  spp cache gc --cache-dir <dir> [--max-age <secs>]\n  spp cache verify --cache-dir <dir> (--input-dir <dir> | --file-list <file>)\n          [--algos <a1,a2,..>] [--sample <n>]\n  spp serve --cache-dir <dir> [--addr <host:port>] [--workers <n>]\n          [--max-body <bytes>] [--max-budget-ms <ms>]\n          [--max-improve-streams <k>] [--cache-readonly]\n          [--token-file <file>]\n          [--keepalive-requests <n>] [--idle-timeout-ms <ms>]\n          [--io-mode <auto|blocking|event>]\n  spp dispatch (--input-dir <dir> | --file-list <file>) [--algos <a1,a2,..>]\n          [--addr <host:port>] [--lease-files <n>] [--lease-timeout <secs>]\n          [--cache-dir <dir>] [--workers <n>] [--max-body <bytes>]\n          [--token-file <file>] [--keepalive-requests <n>] [--idle-timeout-ms <ms>]\n          [--io-mode <auto|blocking|event>]\n  spp work --dispatcher-url <http://host:port>\n          [--cache-dir <dir> | --cache-url <url> | --cache-urls <u1,u2,..>]\n          [--replication <r>] [--token-file <file>]\n          [--workers <n>] [--poll-ms <ms>] [--abandon-after <n>]\n  spp bench serve [--url <http://host:port>] [--clients <n>]\n          [--mode <keepalive|close|both>] [--workload <cache-hit|solve>]\n          [--duration-ms <ms> | --requests <n>] [--rate <rps>]\n          [--workers <n>] [--out <file>] [--io-mode <auto|blocking|event>]\n          [--idle-clients <n>]\n  spp algos\n\nrun `spp algos` for the algorithm registry with capability flags"
    );
    std::process::exit(2);
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_or_usage<T: std::str::FromStr>(v: String) -> T {
    v.parse().unwrap_or_else(|_| usage())
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

fn config_from_args(args: &[String]) -> SolveConfig {
    let mut config = SolveConfig::default();
    if let Some(e) = arg_value(args, "--epsilon") {
        config.epsilon = parse_or_usage(e);
    }
    if let Some(k) = arg_value(args, "-k") {
        config.k = parse_or_usage(k);
    }
    if let Some(r) = arg_value(args, "--shelf-r") {
        config.shelf_r = parse_or_usage(r);
    }
    if let Some(b) = arg_value(args, "--budget-ms") {
        config.budget_ms = parse_or_usage(b);
    }
    if let Some(s) = arg_value(args, "--improve-seed") {
        config.improve_seed = parse_or_usage(s);
    }
    if let Some(s) = arg_value(args, "--improve-streams") {
        config.improve_streams = parse_or_usage(s);
        if config.improve_streams < 1 {
            usage();
        }
    } else if config.budget_ms > 0 {
        // Budgeted solving with no explicit width defaults to the
        // machine's parallelism (capped): one budget buys every core's
        // worth of search. Explicit `--improve-streams 1` restores the
        // single-stream search; the width is part of the result's
        // identity either way (it's in the config signature).
        config.improve_streams = std::thread::available_parallelism()
            .map(|c| c.get() as u64)
            .unwrap_or(1)
            .min(8);
    }
    if let Some(w) = arg_value(args, "--improve-workers") {
        config.improve_workers = parse_or_usage(w);
    }
    config.improve_envelope = args.iter().any(|a| a == "--improve-envelope");
    config.strict = args.iter().any(|a| a == "--strict");
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

fn cmd_gen(args: &[String]) -> ExitCode {
    use rand::SeedableRng;
    let family_name = arg_value(args, "--family").unwrap_or_else(|| "layered".into());
    let n: usize = arg_value(args, "-n").map(parse_or_usage).unwrap_or(30);
    let seed: u64 = arg_value(args, "--seed").map(parse_or_usage).unwrap_or(1);
    let family = family_by_name(&family_name);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let inst = if args.iter().any(|a| a == "--uniform-height") {
        strip_packing::gen::rects::uniform_height(&mut rng, n, (0.05, 0.95))
    } else {
        strip_packing::gen::rects::uniform(&mut rng, n, (0.05, 0.95), (0.05, 1.0))
    };
    let dag = family.build(&mut rng, n);
    let prec = PrecInstance::new(inst, dag);
    match arg_value(args, "--format").as_deref() {
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
fn cmd_suite(args: &[String]) -> ExitCode {
    let Some(out_dir) = arg_value(args, "--out-dir") else {
        usage()
    };
    let count: usize = arg_value(args, "--count").map(parse_or_usage).unwrap_or(20);
    let n: usize = arg_value(args, "-n").map(parse_or_usage).unwrap_or(24);
    let seed: u64 = arg_value(args, "--seed").map(parse_or_usage).unwrap_or(1);
    match strip_packing::gen::suite::write_suite(Path::new(&out_dir), seed, n, count) {
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

fn cmd_pack(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else { usage() };
    let prec = read_instance(path);
    let algo = arg_value(args, "--algo").unwrap_or_else(|| "dc-nfdh".into());

    let registry = Registry::builtin();
    let solver = match registry.get_or_err(&algo) {
        Ok(s) => s,
        Err(e) => unknown_algo_exit(&registry, &e),
    };
    let request = SolveRequest::new(prec).with_config(config_from_args(args));
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
    match arg_value(args, "--render").as_deref() {
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

fn cmd_bounds(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else { usage() };
    let prec = read_instance(path);
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
    println!(
        "stream wins deterministically; defaults to available parallelism, capped at 8, when a"
    );
    println!("budget is set). --improve-workers <n> sets threads (never changes results);");
    println!("--improve-envelope shares a best-so-far bound across streams (faster, but");
    println!("results become scheduling-dependent).");
    ExitCode::SUCCESS
}

/// Resolve `--algos` against the registry, exiting with the live name
/// listing on an unknown solver.
fn solvers_from_args(args: &[String], default: &str) -> Vec<Box<dyn Solver>> {
    let registry = Registry::builtin();
    let algos: Vec<String> = arg_value(args, "--algos")
        .unwrap_or_else(|| default.into())
        .split(',')
        .map(str::to_string)
        .collect();
    let mut solvers = Vec::new();
    for name in &algos {
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

/// Load the shared bearer token named by `--token-file`, if any. Exits
/// on an unreadable or empty file — a fleet member silently running
/// without its credential would only discover that as a wall of 401s.
fn token_from_args(args: &[String]) -> Option<String> {
    let path = arg_value(args, "--token-file")?;
    match strip_packing::serve::auth::token_from_file(Path::new(&path)) {
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
fn cache_from_args(args: &[String]) -> Option<Box<dyn SolveCache>> {
    let readonly = args.iter().any(|a| a == "--cache-readonly");
    let dir = arg_value(args, "--cache-dir");
    let url = arg_value(args, "--cache-url");
    let urls = arg_value(args, "--cache-urls");
    if [dir.is_some(), url.is_some(), urls.is_some()]
        .iter()
        .filter(|set| **set)
        .count()
        > 1
    {
        eprintln!("error: --cache-dir, --cache-url and --cache-urls are mutually exclusive");
        std::process::exit(2);
    }
    if urls.is_none() && arg_value(args, "--replication").is_some() {
        eprintln!("error: --replication requires --cache-urls");
        std::process::exit(2);
    }
    if let Some(urls) = urls {
        let replication: usize = arg_value(args, "--replication")
            .map(parse_or_usage)
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
        match HttpCache::new(&url, readonly) {
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
    if readonly && !Path::new(&dir).is_dir() {
        eprintln!("error: --cache-readonly: cache directory {dir} does not exist");
        std::process::exit(1);
    }
    match DiskCache::new(Path::new(&dir), readonly) {
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
fn cmd_batch_files(args: &[String]) -> ExitCode {
    let shards: usize = arg_value(args, "--shards").map(parse_or_usage).unwrap_or(1);
    let plan = match (
        arg_value(args, "--input-dir"),
        arg_value(args, "--file-list"),
    ) {
        (Some(dir), None) => ShardPlan::from_dir(Path::new(&dir), shards),
        (None, Some(list)) => ShardPlan::from_file_list(Path::new(&list), shards),
        _ => usage(),
    };
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let solvers = solvers_from_args(args, "nfdh,ffdh,greedy,dc-nfdh");
    let config = config_from_args(args);
    let cache = cache_from_args(args);
    let cache_ref: Option<&dyn SolveCache> = cache.as_deref();
    let report_cache_use = |cache: &Option<Box<dyn SolveCache>>| {
        if let Some(c) = cache {
            eprintln!("cache: {}", c.stats());
        }
    };

    if let Some(index) = arg_value(args, "--shard-index") {
        reject_flags(
            args,
            &["--cells"],
            "to a single-shard run (its output is the report JSON; use --cells on the in-process multi-shard or --merge paths)",
        );
        let index: usize = parse_or_usage(index);
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
        match arg_value(args, "--out") {
            Some(path) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            None => print!("{json}"),
        }
        return ExitCode::SUCCESS;
    }

    reject_flags(
        args,
        &["--out"],
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
    finish_merged(&merged, args.iter().any(|a| a == "--cells"))
}

/// Merge shard report files (comma-separated) into the canonical table —
/// byte-identical on stdout to the single-process run over the same
/// inputs.
fn cmd_batch_merge(paths_arg: &str, args: &[String]) -> ExitCode {
    let mut reports = Vec::new();
    for path in paths_arg.split(',').filter(|p| !p.is_empty()) {
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
        Ok(merged) => finish_merged(&merged, args.iter().any(|a| a == "--cells")),
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
fn cmd_batch_await(url: &str, args: &[String]) -> ExitCode {
    let remote = match RemoteLease::new(url) {
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
        Ok(merged) => finish_merged(&merged, args.iter().any(|a| a == "--cells")),
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
fn cmd_dispatch(args: &[String]) -> ExitCode {
    use std::io::Write as _;
    let lease_files: usize = arg_value(args, "--lease-files")
        .map(parse_or_usage)
        .unwrap_or(1);
    let lease_timeout: u64 = arg_value(args, "--lease-timeout")
        .map(parse_or_usage)
        .unwrap_or(60);
    let plan = match (
        arg_value(args, "--input-dir"),
        arg_value(args, "--file-list"),
    ) {
        (Some(dir), None) => ShardPlan::from_dir(Path::new(&dir), 1),
        (None, Some(list)) => ShardPlan::from_file_list(Path::new(&list), 1),
        _ => usage(),
    };
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
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

    let mut serve_config = match arg_value(args, "--cache-dir") {
        Some(dir) => ServeConfig::new(dir),
        None => ServeConfig::without_cache(),
    };
    if let Some(addr) = arg_value(args, "--addr") {
        serve_config.addr = addr;
    }
    if let Some(w) = arg_value(args, "--workers") {
        serve_config.workers = parse_or_usage(w);
    }
    if let Some(m) = arg_value(args, "--max-body") {
        serve_config.max_body = parse_or_usage(m);
    }
    serve_config.readonly = args.iter().any(|a| a == "--cache-readonly");
    serve_config.token = token_from_args(args);
    keepalive_from_args(args, &mut serve_config);
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
/// `--workers N` runs N concurrent pull loops in this process (each
/// lease already fans out over cores internally, so the default of 1 is
/// right unless leases are tiny). `--abandon-after N` is a chaos hook
/// for testing the requeue path: the process exits 3 *without
/// completing* its N-th lease — exactly what a worker killed mid-chunk
/// looks like to the dispatcher.
fn cmd_work(args: &[String]) -> ExitCode {
    let Some(url) = arg_value(args, "--dispatcher-url") else {
        usage()
    };
    let source = match RemoteLease::new(&url) {
        Ok(s) => s.with_token(token_from_args(args)),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cache = cache_from_args(args);
    let cache_ref: Option<&dyn SolveCache> = cache.as_deref();
    let pullers: usize = arg_value(args, "--workers")
        .map(parse_or_usage)
        .unwrap_or(1);
    let poll = std::time::Duration::from_millis(
        arg_value(args, "--poll-ms")
            .map(parse_or_usage)
            .unwrap_or(200),
    );
    let abandon_after: Option<u64> = arg_value(args, "--abandon-after").map(parse_or_usage);

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
    let totals = std::sync::Mutex::new(work::PullStats::default());
    let first_error: std::sync::Mutex<Option<WorkError>> = std::sync::Mutex::new(None);
    spp_par_run(pullers.max(1), || {
        match work::pull_work(&source, &execute, poll) {
            Ok(stats) => {
                let mut t = totals.lock().unwrap();
                t.leases += stats.leases;
                t.cells += stats.cells;
                t.waits += stats.waits;
            }
            Err(e) => {
                first_error.lock().unwrap().get_or_insert(e);
            }
        }
    });
    if let Some(e) = first_error.into_inner().unwrap() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let t = totals.into_inner().unwrap();
    eprintln!("work: {} leases, {} cells", t.leases, t.cells);
    if let Some(c) = &cache {
        eprintln!("cache: {}", c.stats());
    }
    ExitCode::SUCCESS
}

/// `run_workers` with a zero-argument closure (the worker index is
/// irrelevant to a pull loop — the queue is the scheduler).
fn spp_par_run(workers: usize, f: impl Fn() + Sync) {
    strip_packing::par::run_workers(workers, |_| f());
}

/// Batch entry point: dispatch between the in-process generator mode
/// (`--families`), the instance-file modes (`--input-dir`/`--file-list`,
/// with optional sharding), and shard-report merging (`--merge`).
fn cmd_batch(args: &[String]) -> ExitCode {
    // PR 2's per-shard manifest resume is gone. Error loudly — a script
    // still passing `--manifest` believes its runs are resumable, and
    // silently ignoring the flag would make that belief wrong.
    if args.iter().any(|a| a == "--manifest") {
        eprintln!(
            "error: --manifest was removed; use --cache-dir <dir> (the content-addressed \
             solve cache resumes at cell granularity and needs no manifest files)"
        );
        return ExitCode::from(2);
    }
    if let Some(url) = arg_value(args, "--dispatcher-url") {
        reject_flags(
            args,
            &[
                "--input-dir",
                "--file-list",
                "--shards",
                "--shard-index",
                "--out",
                "--merge",
                "--cache-dir",
                "--cache-url",
                "--cache-urls",
                "--replication",
                "--cache-readonly",
                "--algos",
                "--families",
            ],
            "to --dispatcher-url (the dispatcher owns the plan, solver list and cache wiring)",
        );
        return cmd_batch_await(&url, args);
    }
    if let Some(paths) = arg_value(args, "--merge") {
        reject_flags(
            args,
            &[
                "--input-dir",
                "--file-list",
                "--shards",
                "--shard-index",
                "--out",
                "--cache-dir",
                "--cache-url",
                "--cache-urls",
                "--replication",
                "--token-file",
                "--cache-readonly",
                "--algos",
                "--families",
            ],
            "to --merge (solver list and cells come from the shard reports)",
        );
        return cmd_batch_merge(&paths, args);
    }
    if args
        .iter()
        .any(|a| a == "--input-dir" || a == "--file-list")
    {
        reject_flags(
            args,
            &["--families", "--count", "--seed"],
            "to file mode (instances come from the files, not a generator)",
        );
        return cmd_batch_files(args);
    }
    reject_flags(
        args,
        &[
            "--shards",
            "--shard-index",
            "--out",
            "--cache-dir",
            "--cache-url",
            "--cache-urls",
            "--replication",
            "--token-file",
            "--cache-readonly",
            "--cells",
        ],
        "to generated mode; sharding and caching need --input-dir or --file-list",
    );
    cmd_batch_generated(args)
}

/// Exit with a usage error if any of `flags` is present — a flag that a
/// batch mode would silently ignore is almost certainly a mistaken
/// invocation (e.g. `--shard-index` without `--input-dir` would run the
/// *whole* generated workload while the user believes they ran 1/N).
fn reject_flags(args: &[String], flags: &[&str], mode: &str) {
    for flag in flags {
        if args.iter().any(|a| a == flag) {
            eprintln!("error: {flag} does not apply {mode}");
            std::process::exit(2);
        }
    }
}

/// Generate `count` instances per family and run every requested solver on
/// all of them, in parallel, via the engine's batch executor. The table is
/// the one every batch mode prints.
fn cmd_batch_generated(args: &[String]) -> ExitCode {
    use rand::SeedableRng;

    let families: Vec<DagFamily> = arg_value(args, "--families")
        .unwrap_or_else(|| "layered,random".into())
        .split(',')
        .map(family_by_name)
        .collect();
    let count: usize = arg_value(args, "--count").map(parse_or_usage).unwrap_or(50);
    let n: usize = arg_value(args, "-n").map(parse_or_usage).unwrap_or(30);
    let seed: u64 = arg_value(args, "--seed").map(parse_or_usage).unwrap_or(1);
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
fn cmd_cache_stats(dir: &Path) -> ExitCode {
    let stats = match solve_cache::dir_stats(dir) {
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
fn cmd_cache_gc(dir: &Path, args: &[String]) -> ExitCode {
    let max_age =
        arg_value(args, "--max-age").map(|v| std::time::Duration::from_secs(parse_or_usage(v)));
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
fn cmd_cache_verify(dir: &Path, args: &[String]) -> ExitCode {
    let plan = match (
        arg_value(args, "--input-dir"),
        arg_value(args, "--file-list"),
    ) {
        (Some(d), None) => ShardPlan::from_dir(Path::new(&d), 1),
        (None, Some(list)) => ShardPlan::from_file_list(Path::new(&list), 1),
        _ => usage(),
    };
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let solvers = solvers_from_args(args, "nfdh,ffdh,greedy,dc-nfdh");
    let config = config_from_args(args);
    let sample: usize = arg_value(args, "--sample")
        .map(parse_or_usage)
        .unwrap_or(16);
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

/// `spp cache` dispatcher: stats / gc / verify over `--cache-dir`.
fn cmd_cache(args: &[String]) -> ExitCode {
    let Some(action) = args.first().map(String::as_str) else {
        usage()
    };
    let Some(dir) = arg_value(args, "--cache-dir") else {
        usage()
    };
    let dir = PathBuf::from(dir);
    match action {
        "stats" => cmd_cache_stats(&dir),
        "gc" => cmd_cache_gc(&dir, &args[1..]),
        "verify" => cmd_cache_verify(&dir, &args[1..]),
        _ => usage(),
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
fn cmd_serve(args: &[String]) -> ExitCode {
    use std::io::Write as _;
    let Some(dir) = arg_value(args, "--cache-dir") else {
        usage()
    };
    let mut config = ServeConfig::new(&dir);
    if let Some(addr) = arg_value(args, "--addr") {
        config.addr = addr;
    }
    if let Some(w) = arg_value(args, "--workers") {
        config.workers = parse_or_usage(w);
    }
    if let Some(m) = arg_value(args, "--max-body") {
        config.max_body = parse_or_usage(m);
    }
    config.readonly = args.iter().any(|a| a == "--cache-readonly");
    config.token = token_from_args(args);
    if let Some(b) = arg_value(args, "--max-budget-ms") {
        config.max_budget_ms = parse_or_usage(b);
    }
    if let Some(s) = arg_value(args, "--max-improve-streams") {
        config.max_improve_streams = parse_or_usage(s);
    }
    keepalive_from_args(args, &mut config);
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

/// Apply the connection tuning flags shared by `spp serve` and
/// `spp dispatch`: keep-alive budgets and the I/O mode.
fn keepalive_from_args(args: &[String], config: &mut ServeConfig) {
    if let Some(n) = arg_value(args, "--keepalive-requests") {
        config.keepalive_requests = parse_or_usage(n);
    }
    if let Some(ms) = arg_value(args, "--idle-timeout-ms") {
        config.idle_timeout = std::time::Duration::from_millis(parse_or_usage(ms));
    }
    if let Some(mode) = io_mode_from_args(args) {
        config.io_mode = mode;
    }
}

/// Parse `--io-mode <auto|blocking|event>` (shared by `spp serve`,
/// `spp dispatch`, and `spp bench serve`).
fn io_mode_from_args(args: &[String]) -> Option<IoMode> {
    arg_value(args, "--io-mode").map(|m| match IoMode::parse(&m) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    })
}

/// `spp bench` dispatcher — `serve` is the only target so far.
fn cmd_bench(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("serve") => cmd_bench_serve(&args[1..]),
        _ => usage(),
    }
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
fn cmd_bench_serve(args: &[String]) -> ExitCode {
    use strip_packing::serve::bench::{run_bench, BenchConfig, Mode, Stop, Target};
    use strip_packing::serve::http;

    let clients: usize = arg_value(args, "--clients")
        .map(parse_or_usage)
        .unwrap_or(4);
    let idle_clients: Option<usize> = arg_value(args, "--idle-clients").map(parse_or_usage);
    let io_mode = io_mode_from_args(args);
    let modes: Vec<Mode> = match arg_value(args, "--mode").as_deref() {
        None | Some("both") => vec![Mode::Keepalive, Mode::Close],
        Some("keepalive") => vec![Mode::Keepalive],
        Some("close") => vec![Mode::Close],
        Some(other) => {
            eprintln!("error: unknown mode {other:?} (expected keepalive, close or both)");
            return ExitCode::from(2);
        }
    };
    let workload = arg_value(args, "--workload").unwrap_or_else(|| "cache-hit".into());
    let stop = match (
        arg_value(args, "--requests"),
        arg_value(args, "--duration-ms"),
    ) {
        (Some(_), Some(_)) => {
            eprintln!("error: --requests and --duration-ms are mutually exclusive");
            return ExitCode::from(2);
        }
        (Some(n), None) => Stop::Requests(parse_or_usage(n)),
        (None, ms) => Stop::Duration(std::time::Duration::from_millis(
            ms.map(parse_or_usage).unwrap_or(2000),
        )),
    };
    let rate: Option<f64> = arg_value(args, "--rate").map(parse_or_usage);

    // The server under test: the user's (--url) or our own scratch one.
    let (authority, server, io_label) = match arg_value(args, "--url") {
        Some(url) => {
            reject_flags(
                args,
                &["--workers", "--io-mode"],
                "with --url (they configure the self-spawned server)",
            );
            match http::parse_base_url(&url) {
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
            if let Some(w) = arg_value(args, "--workers") {
                config.workers = parse_or_usage(w);
            }
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
    if let Some(path) = arg_value(args, "--out") {
        if let Err(e) = std::fs::write(&path, spp_bench::json::to_json(&records)) {
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("suite") => cmd_suite(&args[1..]),
        Some("pack") => cmd_pack(&args[1..]),
        // `solve` is `pack` under its budget-era name: one-shot solving
        // is the budget_ms=0 special case of budgeted solving.
        Some("solve") => cmd_pack(&args[1..]),
        Some("bounds") => cmd_bounds(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("dispatch") => cmd_dispatch(&args[1..]),
        Some("work") => cmd_work(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("algos") => cmd_algos(),
        _ => usage(),
    }
}
