//! End-to-end tests of the `spp` command-line tool.

use std::process::{Command, Stdio};

fn spp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spp"))
}

#[test]
fn gen_pack_roundtrip() {
    let gen = spp()
        .args(["gen", "--family", "layered", "-n", "25", "--seed", "9"])
        .output()
        .expect("spawn spp gen");
    assert!(gen.status.success());
    let text = String::from_utf8(gen.stdout).unwrap();
    assert!(text.starts_with("spp v1"));
    // parse back through the library and check it is the same instance
    let prec = strip_packing::gen::textio::from_text(&text).unwrap();
    assert_eq!(prec.len(), 25);

    // pipe into `spp pack -`
    let mut child = spp()
        .args(["pack", "-", "--algo", "dc-nfdh"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn spp pack");
    use std::io::Write as _;
    child
        .stdin
        .take()
        .unwrap()
        .write_all(text.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    // one `place` line per item, parseable back into a valid placement
    let mut pl = strip_packing::core::Placement::zeroed(25);
    let mut count = 0;
    for line in stdout.lines() {
        let mut parts = line.split_whitespace();
        assert_eq!(parts.next(), Some("place"));
        let id: usize = parts.next().unwrap().parse().unwrap();
        let x: f64 = parts.next().unwrap().parse().unwrap();
        let y: f64 = parts.next().unwrap().parse().unwrap();
        pl.set(id, x, y);
        count += 1;
    }
    assert_eq!(count, 25);
    prec.assert_valid(&pl);
}

#[test]
fn bounds_subcommand_reports_all_bounds() {
    let gen = spp()
        .args(["gen", "--family", "chains", "-n", "10", "--seed", "1"])
        .output()
        .unwrap();
    let tmp = std::env::temp_dir().join("spp_cli_test_inst.spp");
    std::fs::write(&tmp, &gen.stdout).unwrap();
    let out = spp()
        .args(["bounds", tmp.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for key in ["AREA", "F (crit path)", "combined LB", "T2.3 bound"] {
        assert!(text.contains(key), "missing {key} in:\n{text}");
    }
}

#[test]
fn svg_render_is_emitted() {
    let gen = spp()
        .args(["gen", "-n", "8", "--seed", "2"])
        .output()
        .unwrap();
    let tmp = std::env::temp_dir().join("spp_cli_test_svg.spp");
    std::fs::write(&tmp, &gen.stdout).unwrap();
    let out = spp()
        .args([
            "pack",
            tmp.to_str().unwrap(),
            "--algo",
            "greedy",
            "--render",
            "svg",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let svg = String::from_utf8(out.stdout).unwrap();
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("</svg>"));
}

#[test]
fn unknown_algorithm_lists_the_registry() {
    let gen = spp().args(["gen", "-n", "4"]).output().unwrap();
    let tmp = std::env::temp_dir().join("spp_cli_test_bad.spp");
    std::fs::write(&tmp, &gen.stdout).unwrap();
    let out = spp()
        .args(["pack", tmp.to_str().unwrap(), "--algo", "quantum"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown solver"), "{stderr}");
    // The message must come from the live registry, not a hard-coded list.
    for name in strip_packing::engine::Registry::builtin().names() {
        assert!(
            stderr.contains(name),
            "registry entry {name} missing:\n{stderr}"
        );
    }
}

#[test]
fn unknown_family_lists_known_families() {
    let out = spp()
        .args(["gen", "--family", "moebius", "-n", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown family"), "{stderr}");
    for f in strip_packing::gen::rects::DagFamily::ALL {
        assert!(
            stderr.contains(f.name()),
            "family {} missing:\n{stderr}",
            f.name()
        );
    }
}

#[test]
fn algos_subcommand_lists_every_registry_entry() {
    let out = spp().args(["algos"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in strip_packing::engine::Registry::builtin().names() {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn batch_runs_hundreds_of_cells_deterministically() {
    let run = || {
        spp()
            .args([
                "batch",
                "--families",
                "layered,random",
                "--count",
                "50",
                "-n",
                "12",
                "--seed",
                "3",
                "--algos",
                "dc-nfdh,greedy,layered",
            ])
            .output()
            .unwrap()
    };
    let out = run();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8(out.stdout).unwrap();
    for algo in ["dc-nfdh", "greedy", "layered"] {
        assert!(table.contains(algo), "missing {algo} in:\n{table}");
    }
    // 2 families x 50 instances x 3 solvers = 300 cells.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("100 jobs x 3 solvers = 300 cells"),
        "{stderr}"
    );
    // Deterministic: stdout (counts/ratios table) is identical across runs.
    let again = run();
    assert_eq!(table, String::from_utf8(again.stdout).unwrap());
}

#[test]
fn batch_rejects_unknown_solver_with_listing() {
    let out = spp()
        .args(["batch", "--count", "2", "--algos", "nfdh,warp-drive"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown solver") && stderr.contains("warp-drive"));
}

#[test]
fn gen_emits_json_that_pack_accepts() {
    let gen = spp()
        .args([
            "gen", "--family", "layered", "-n", "10", "--seed", "4", "--format", "json",
        ])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let text = String::from_utf8(gen.stdout).unwrap();
    assert!(text.starts_with('{'), "{text}");
    let prec = strip_packing::gen::fileio::from_json(&text).unwrap();
    assert_eq!(prec.len(), 10);

    // and `spp pack` reads it from a .json path
    let tmp = std::env::temp_dir().join("spp_cli_test_inst.json");
    std::fs::write(&tmp, &text).unwrap();
    let out = spp()
        .args(["pack", tmp.to_str().unwrap(), "--algo", "greedy"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn json_parse_errors_name_field_and_line() {
    let tmp = std::env::temp_dir().join("spp_cli_test_badfield.json");
    std::fs::write(
        &tmp,
        "{\"format\": \"spp-instance\", \"version\": 1,\n \"items\": [\n {\"id\": 0, \"w\": 2.5, \"h\": 1, \"release\": 0}\n ], \"edges\": []}",
    )
    .unwrap();
    let out = spp()
        .args(["pack", tmp.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("items[0].w") && stderr.contains("line 3"),
        "{stderr}"
    );
}

/// The acceptance-criterion pipeline end to end: a suite of instance
/// files run as 4 separate shard *processes*, merged, must be
/// byte-identical on stdout to the single-process run — and resumable
/// via a manifest directory.
#[test]
fn sharded_batch_merge_is_byte_identical_to_single_process() {
    let dir = std::env::temp_dir().join("spp_cli_test_shards");
    let _ = std::fs::remove_dir_all(&dir);
    let suite_dir = dir.join("instances");
    let gen = spp()
        .args([
            "suite",
            "--out-dir",
            suite_dir.to_str().unwrap(),
            "--count",
            "20",
            "-n",
            "14",
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );

    let algos = "nfdh,ffdh,greedy,dc-nfdh,combined-greedy";
    let single = spp()
        .args([
            "batch",
            "--input-dir",
            suite_dir.to_str().unwrap(),
            "--algos",
            algos,
            "--cells",
        ])
        .output()
        .unwrap();
    assert!(
        single.status.success(),
        "{}",
        String::from_utf8_lossy(&single.stderr)
    );

    // Four shard processes, each writing a portable report file.
    let mut report_paths = Vec::new();
    for i in 0..4 {
        let report = dir.join(format!("shard{i}.json"));
        let out = spp()
            .args([
                "batch",
                "--input-dir",
                suite_dir.to_str().unwrap(),
                "--algos",
                algos,
                "--shards",
                "4",
                "--shard-index",
                &i.to_string(),
                "--out",
                report.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "shard {i}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        report_paths.push(report.to_str().unwrap().to_string());
    }
    let merged = spp()
        .args(["batch", "--merge", &report_paths.join(","), "--cells"])
        .output()
        .unwrap();
    assert!(
        merged.status.success(),
        "{}",
        String::from_utf8_lossy(&merged.stderr)
    );
    assert_eq!(
        String::from_utf8(single.stdout).unwrap(),
        String::from_utf8(merged.stdout).unwrap(),
        "sharded+merged stdout differs from single-process stdout"
    );

    // Resume: an in-process multi-shard run with a cache directory,
    // twice; the second run serves every cell from the cache ("resumed"
    // shards, zero misses) and prints the same table.
    let cache_dir = dir.join("cache");
    let run_cached = || {
        spp()
            .args([
                "batch",
                "--input-dir",
                suite_dir.to_str().unwrap(),
                "--algos",
                algos,
                "--shards",
                "4",
                "--cache-dir",
                cache_dir.to_str().unwrap(),
            ])
            .output()
            .unwrap()
    };
    let first = run_cached();
    assert!(first.status.success());
    let second = run_cached();
    assert!(second.status.success());
    assert_eq!(first.stdout, second.stdout);
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(
        stderr.contains("resumed") && !stderr.contains("computed"),
        "second cached run should resume all shards:\n{stderr}"
    );
    assert!(
        stderr.contains(" 0 misses"),
        "warm run must report zero cache misses:\n{stderr}"
    );
    // The warm table also matches the cache-less single-process run.
    let uncached = spp()
        .args([
            "batch",
            "--input-dir",
            suite_dir.to_str().unwrap(),
            "--algos",
            algos,
        ])
        .output()
        .unwrap();
    assert_eq!(uncached.stdout, second.stdout);
}

/// Progress lines name what each shard did: over-splitting leaves empty
/// shards, which a warm rerun must label `(empty)`, not `computed` — the
/// run invoked no solver.
#[test]
fn warm_rerun_labels_empty_shards_empty() {
    let dir = std::env::temp_dir().join("spp_cli_test_empty_shards");
    let _ = std::fs::remove_dir_all(&dir);
    let suite_dir = dir.join("two");
    let cache_dir = dir.join("cache");
    let suite = spp()
        .args(["suite", "--out-dir", suite_dir.to_str().unwrap()])
        .args(["--count", "2", "-n", "8", "--seed", "3"])
        .output()
        .unwrap();
    assert!(suite.status.success());
    assert_eq!(std::fs::read_dir(&suite_dir).unwrap().count(), 2);
    let run = || {
        let out = spp()
            .args(["batch", "--input-dir", suite_dir.to_str().unwrap()])
            .args(["--algos", "nfdh", "--shards", "5"])
            .args(["--cache-dir", cache_dir.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success());
        String::from_utf8(out.stderr).unwrap()
    };
    // 2 files over 5 shards: shards 2 and 4 hold one file each.
    let cold = run();
    assert_eq!(cold.matches("(empty)").count(), 3, "{cold}");
    assert_eq!(cold.matches("(computed)").count(), 2, "{cold}");
    let warm = run();
    assert!(warm.contains("cache: 2 hits, 0 misses"), "{warm}");
    assert!(
        warm.contains("shard 2/5: 1 cells, 1 solved (resumed)"),
        "{warm}"
    );
    assert!(
        warm.contains("shard 4/5: 1 cells, 1 solved (resumed)"),
        "{warm}"
    );
    assert_eq!(warm.matches("(empty)").count(), 3, "{warm}");
    assert!(!warm.contains("computed"), "{warm}");
}

/// The cache subcommands end to end: a cached batch populates the
/// directory, `stats` describes it, `verify` re-solves a sample cleanly,
/// corruption is caught by `verify`'s full sweep, and `gc` removes the
/// damage.
#[test]
fn cache_subcommands_stats_verify_gc() {
    let dir = std::env::temp_dir().join("spp_cli_test_cache_cmds");
    let _ = std::fs::remove_dir_all(&dir);
    let suite_dir = dir.join("instances");
    assert!(spp()
        .args([
            "suite",
            "--out-dir",
            suite_dir.to_str().unwrap(),
            "--count",
            "8",
            "-n",
            "10",
            "--seed",
            "5",
        ])
        .output()
        .unwrap()
        .status
        .success());
    let cache_dir = dir.join("cache");
    let batch = spp()
        .args([
            "batch",
            "--input-dir",
            suite_dir.to_str().unwrap(),
            "--algos",
            "nfdh,greedy",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        batch.status.success(),
        "{}",
        String::from_utf8_lossy(&batch.stderr)
    );

    // stats: 8 instances x 2 solvers = 16 entries, none corrupt.
    let stats = spp()
        .args(["cache", "stats", "--cache-dir", cache_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(stats.status.success());
    let text = String::from_utf8(stats.stdout).unwrap();
    assert!(text.contains("entries      16"), "{text}");
    assert!(text.contains("corrupt      0"), "{text}");
    assert!(text.contains("solver       greedy 8"), "{text}");
    assert!(text.contains("solver       nfdh 8"), "{text}");

    // verify: a clean cache re-solves with zero mismatches.
    let verify = spp()
        .args([
            "cache",
            "verify",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
            "--input-dir",
            suite_dir.to_str().unwrap(),
            "--algos",
            "nfdh,greedy",
            "--sample",
            "0",
        ])
        .output()
        .unwrap();
    assert!(
        verify.status.success(),
        "{}",
        String::from_utf8_lossy(&verify.stderr)
    );
    let text = String::from_utf8(verify.stdout).unwrap();
    assert!(text.contains("16 of 16"), "{text}");
    assert!(text.contains("0 mismatches"), "{text}");

    // Tamper with one entry *plausibly* (still parses, wrong makespan):
    // verify catches it; a garbage file is invisible to verify (it can
    // never be served) but gc removes it.
    let entry_path = std::fs::read_dir(&cache_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .unwrap();
    let tampered = std::fs::read_to_string(&entry_path)
        .unwrap()
        .replace("\"makespan\": ", "\"makespan\": 9");
    std::fs::write(&entry_path, tampered).unwrap();
    std::fs::write(cache_dir.join("zz-garbage.json"), "not json").unwrap();

    let verify = spp()
        .args([
            "cache",
            "verify",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
            "--input-dir",
            suite_dir.to_str().unwrap(),
            "--algos",
            "nfdh,greedy",
            "--sample",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!verify.status.success(), "tampered entry must fail verify");
    let stderr = String::from_utf8_lossy(&verify.stderr);
    assert!(stderr.contains("MISMATCH"), "{stderr}");

    let gc = spp()
        .args(["cache", "gc", "--cache-dir", cache_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(gc.status.success());
    let text = String::from_utf8(gc.stdout).unwrap();
    assert!(text.contains("removed 1"), "{text}");
}

/// The removed `--manifest` flag errors loudly instead of being silently
/// ignored — an old script would otherwise believe its runs resumable.
#[test]
fn removed_manifest_flag_is_rejected_with_pointer_to_cache_dir() {
    let out = spp()
        .args([
            "batch",
            "--input-dir",
            "/nonexistent",
            "--shards",
            "2",
            "--manifest",
            "/tmp/m",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--manifest") && stderr.contains("--cache-dir"),
        "{stderr}"
    );
}

/// `--cache-readonly` consults but never grows the cache.
#[test]
fn cache_readonly_serves_without_writing() {
    let dir = std::env::temp_dir().join("spp_cli_test_cache_ro");
    let _ = std::fs::remove_dir_all(&dir);
    let suite_dir = dir.join("instances");
    assert!(spp()
        .args([
            "suite",
            "--out-dir",
            suite_dir.to_str().unwrap(),
            "--count",
            "4",
            "-n",
            "8",
        ])
        .output()
        .unwrap()
        .status
        .success());
    let cache_dir = dir.join("cache");
    let run = |extra: &[&str]| {
        let mut args = vec![
            "batch",
            "--input-dir",
            suite_dir.to_str().unwrap(),
            "--algos",
            "nfdh",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        spp().args(&args).output().unwrap()
    };
    // Read-only against a *missing* directory is refused loudly — a
    // typo'd path must not silently run uncached at full solve cost.
    let missing = run(&["--cache-readonly"]);
    assert!(!missing.status.success());
    assert!(
        String::from_utf8_lossy(&missing.stderr).contains("does not exist"),
        "{}",
        String::from_utf8_lossy(&missing.stderr)
    );

    // Read-only against an existing empty cache: all misses, nothing
    // written.
    std::fs::create_dir_all(&cache_dir).unwrap();
    let cold = run(&["--cache-readonly"]);
    assert!(cold.status.success());
    let entries = || {
        std::fs::read_dir(&cache_dir)
            .map(|d| d.count())
            .unwrap_or(0)
    };
    assert_eq!(entries(), 0, "read-only run must not populate the cache");

    // A writable run populates; a read-only rerun is all hits and leaves
    // the directory untouched.
    assert!(run(&[]).status.success());
    let populated = entries();
    assert_eq!(populated, 4);
    let warm = run(&["--cache-readonly"]);
    assert!(warm.status.success());
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(stderr.contains(" 0 misses"), "{stderr}");
    assert_eq!(entries(), populated);
}

#[test]
fn merge_rejects_incomplete_shard_sets() {
    let dir = std::env::temp_dir().join("spp_cli_test_badmerge");
    let _ = std::fs::remove_dir_all(&dir);
    let suite_dir = dir.join("instances");
    assert!(spp()
        .args([
            "suite",
            "--out-dir",
            suite_dir.to_str().unwrap(),
            "--count",
            "4",
            "-n",
            "8",
        ])
        .output()
        .unwrap()
        .status
        .success());
    let report = dir.join("only-shard0.json");
    assert!(spp()
        .args([
            "batch",
            "--input-dir",
            suite_dir.to_str().unwrap(),
            "--algos",
            "nfdh",
            "--shards",
            "2",
            "--shard-index",
            "0",
            "--out",
            report.to_str().unwrap(),
        ])
        .output()
        .unwrap()
        .status
        .success());
    let out = spp()
        .args(["batch", "--merge", report.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("2 shards"), "{stderr}");
}

#[test]
fn merge_rejects_a_shard_report_with_an_edited_label() {
    let dir = std::env::temp_dir().join("spp_cli_test_tampered_merge");
    let _ = std::fs::remove_dir_all(&dir);
    let suite_dir = dir.join("instances");
    assert!(spp()
        .args(["suite", "--out-dir", suite_dir.to_str().unwrap()])
        .args(["--count", "4", "-n", "8"])
        .output()
        .unwrap()
        .status
        .success());
    let mut reports = Vec::new();
    for i in 0..2 {
        let report = dir.join(format!("shard{i}.json"));
        assert!(spp()
            .args(["batch", "--input-dir", suite_dir.to_str().unwrap()])
            .args(["--algos", "nfdh", "--shards", "2", "--shard-index"])
            .arg(i.to_string())
            .args(["--out", report.to_str().unwrap()])
            .output()
            .unwrap()
            .status
            .success());
        reports.push(report.to_str().unwrap().to_string());
    }
    let merge = || {
        spp()
            .args(["batch", "--merge", &reports.join(",")])
            .output()
            .unwrap()
    };
    assert!(merge().status.success(), "untouched reports merge");

    // Rename the instance of one cell, the way a hand edit would: the
    // merge must refuse it, as the dispatcher refuses such a completion.
    let text = std::fs::read_to_string(&reports[1]).unwrap();
    let at = text.find("\"label\": \"").unwrap() + "\"label\": \"".len();
    let end = at + text[at..].find('"').unwrap();
    let tampered = format!("{}tampered{}", &text[..at], &text[end..]);
    std::fs::write(&reports[1], tampered).unwrap();
    let out = merge();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"tampered\""), "{stderr}");
    assert!(out.stdout.is_empty(), "no table for a rejected merge");
}

#[test]
fn algos_lists_advertised_bounds() {
    let out = spp().args(["algos"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("advertised bound"), "{stdout}");
    assert!(stdout.contains("2·AREA + h_max"), "{stdout}");
    assert!(stdout.contains("(1+ε)·OPT_f"), "{stdout}");
}

#[test]
fn malformed_instance_fails_cleanly() {
    let tmp = std::env::temp_dir().join("spp_cli_test_garbage.spp");
    std::fs::write(&tmp, "not an instance").unwrap();
    let out = spp()
        .args(["pack", tmp.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));
}

/// A small instance suite for the flag tests, under `tag`.
fn small_suite(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spp_cli_test_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let suite = dir.join("instances");
    assert!(spp()
        .args(["suite", "--out-dir", suite.to_str().unwrap()])
        .args(["--count", "4", "-n", "8"])
        .output()
        .unwrap()
        .status
        .success());
    suite
}

/// Run `spp args`, expecting the usage-error exit 2 with nothing on
/// stdout; returns stderr.
fn refused(args: &[&str]) -> String {
    let out = spp().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} wrote stdout");
    stderr
}

/// `--shard-index` with its value forgotten used to be ignored, so the
/// run covered all shards while the user believed it ran one.
#[test]
fn shard_index_without_its_value_runs_nothing() {
    let suite = small_suite("shard_index_value");
    let stderr = refused(&[
        "batch",
        "--input-dir",
        suite.to_str().unwrap(),
        "--shards",
        "4",
        "--shard-index",
    ]);
    assert!(stderr.contains("--shard-index needs a value"), "{stderr}");
}

#[test]
fn repeated_and_unlisted_flags_are_refused() {
    let suite = small_suite("repeated_flags");
    let dir = suite.to_str().unwrap();
    let stderr = refused(&[
        "batch",
        "--input-dir",
        dir,
        "--algos",
        "nfdh",
        "--algos",
        "ffdh",
    ]);
    assert!(stderr.contains("--algos given twice"), "{stderr}");
    let stderr = refused(&["cache", "stats", "--cache-dir", dir, "--bogus"]);
    assert!(stderr.contains("unknown flag --bogus"), "{stderr}");
    // A typo'd flag is named, and so is a real flag of another command.
    let stderr = refused(&["serve", "--cache-dir", dir, "--adr", "127.0.0.1:0"]);
    assert!(stderr.contains("unknown flag --adr"), "{stderr}");
    let stderr = refused(&[
        "work",
        "--dispatcher-url",
        "http://127.0.0.1:1",
        "--workers",
        "2",
    ]);
    assert!(stderr.contains("--workers does not apply"), "{stderr}");
}

#[test]
fn flags_may_precede_the_instance_operand() {
    let gen = spp()
        .args(["gen", "-n", "6", "--seed", "4"])
        .output()
        .unwrap();
    let tmp = std::env::temp_dir().join("spp_cli_test_flags_first.spp");
    std::fs::write(&tmp, &gen.stdout).unwrap();
    let out = spp()
        .args(["pack", "--algo", "nfdh", tmp.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8(out.stdout).unwrap().lines().count(), 6);
}

/// A budgeted run without `--improve-streams` runs one stream, as
/// `/solve` and leases do, so its cache keys and shard reports are the
/// same on every host. (The old default was the host's parallelism,
/// capped at 8: a 1-core host cannot tell the two apart.)
#[test]
fn budgeted_shard_defaults_to_one_improve_stream_on_every_host() {
    let suite = small_suite("streams_default");
    let out = spp()
        .args(["batch", "--input-dir", suite.to_str().unwrap()])
        .args(["--algos", "nfdh", "--budget-ms", "5"])
        .args(["--shards", "2", "--shard-index", "0"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains(" improve_streams=1 "), "{report}");
}

/// Every usage-entry lookup: each command and batch mode refuses a flag
/// its entry does not list, naming it (exit 2, never a panic).
#[test]
fn every_command_refuses_an_unknown_flag() {
    let commands: [&[&str]; 17] = [
        &["gen"],
        &["suite", "--out-dir", "/nonexistent"],
        &["pack", "-"],
        &["solve", "-"],
        &["bounds", "-"],
        &["batch"],
        &["batch", "--input-dir", "/nonexistent"],
        &["batch", "--merge", "/nonexistent.json"],
        &["batch", "--dispatcher-url", "http://127.0.0.1:1"],
        &["cache", "stats", "--cache-dir", "/nonexistent"],
        &["cache", "gc", "--cache-dir", "/nonexistent"],
        &["cache", "verify", "--cache-dir", "/nonexistent"],
        &["serve", "--cache-dir", "/nonexistent"],
        &["dispatch", "--input-dir", "/nonexistent"],
        &["work", "--dispatcher-url", "http://127.0.0.1:1"],
        &["bench", "serve"],
        &["algos"],
    ];
    for command in commands {
        let mut args = command.to_vec();
        args.push("--no-such-flag");
        let stderr = refused(&args);
        assert!(stderr.contains("--no-such-flag"), "{args:?}: {stderr}");
    }
}

#[test]
fn batch_modes_refuse_each_others_flags_with_their_reason() {
    let suite = small_suite("mode_reasons");
    let dir = suite.to_str().unwrap();
    for (args, message) in [
        (
            &["batch", "--merge", "a.json", "--cache-dir", "c"][..],
            "--cache-dir does not apply to --merge (solver list and cells come from the shard reports)",
        ),
        (
            &["batch", "--input-dir", dir, "--count", "3"][..],
            "--count does not apply to file mode (instances come from the files, not a generator)",
        ),
        (
            &["batch", "--count", "3", "--cache-dir", "c"][..],
            "--cache-dir does not apply to generated mode; sharding and caching need --input-dir or --file-list",
        ),
        (
            &["batch", "--input-dir", dir, "--shards", "2", "--shard-index", "0", "--cells"][..],
            "--cells does not apply to a single-shard run (its output is the report JSON; use --cells on the in-process multi-shard or --merge paths)",
        ),
        (
            &["batch", "--input-dir", dir, "--out", "r.json"][..],
            "--out does not apply without --shard-index (only a single-shard run emits a report file)",
        ),
    ] {
        let stderr = refused(args);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}
