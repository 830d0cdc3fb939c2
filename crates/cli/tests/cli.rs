//! End-to-end tests of the `ofence` binary.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The binary, run in a fresh working directory of its own, so the
/// default `.ofence/` ledgers and `.ofence-cache/` of a run without
/// `--history-dir` / `--cache-dir` land there: never in the package
/// directory, never shared with another test or a later `cargo test`.
fn ofence() -> Command {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    ofence_in(&tempdir(&format!("cwd-{n}")))
}

fn ofence_in(cwd: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ofence"));
    cmd.current_dir(cwd);
    cmd
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ofence-bin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const BUGGY: &str = r#"struct rpc { int len; int recd; int out; };
void complete(struct rpc *req) {
	req->len = 4;
	smp_wmb();
	req->recd = 1;
}
void decode(struct rpc *req) {
	smp_rmb();
	if (!req->recd)
		return;
	req->out = req->len;
}
"#;

const CLEAN: &str = r#"struct m { int init; int y; };
void reader(struct m *a) {
	if (!a->init)
		return;
	smp_rmb();
	f(a->y);
}
void writer(struct m *b) {
	b->y = 1;
	smp_wmb();
	b->init = 1;
}
"#;

#[test]
fn analyze_clean_file_exits_zero() {
    let dir = tempdir("clean");
    let f = dir.join("clean.c");
    std::fs::write(&f, CLEAN).unwrap();
    let out = ofence().arg("analyze").arg(&f).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no barrier-ordering issues found"),
        "{stdout}"
    );
    assert!(stdout.contains("pairings:"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn default_ledger_and_cache_land_in_the_working_directory() {
    let cwd = tempdir("default-dirs");
    let f = cwd.join("clean.c");
    std::fs::write(&f, CLEAN).unwrap();
    let out = ofence_in(&cwd).arg("analyze").arg(&f).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(cwd.join(".ofence/history.jsonl").is_file());
    assert!(cwd.join(".ofence-cache/shard-00.json").is_file());
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn analyze_buggy_file_exits_one_with_diagnostic() {
    let dir = tempdir("buggy");
    let f = dir.join("xprt.c");
    std::fs::write(&f, BUGGY).unwrap();
    let out = ofence().arg("analyze").arg(&f).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("warning: misplaced memory access"),
        "{stdout}"
    );
    assert!(stdout.contains("^"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn patch_apply_fixes_file_on_disk() {
    let dir = tempdir("apply");
    let f = dir.join("xprt.c");
    std::fs::write(&f, BUGGY).unwrap();
    let out = ofence()
        .arg("patch")
        .arg(&f)
        .arg("--apply")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}"); // findings existed
                                                       // Re-analyze: clean now.
    let out2 = ofence().arg("analyze").arg(&f).output().unwrap();
    assert!(out2.status.success(), "{out2:?}");
    let fixed = std::fs::read_to_string(&f).unwrap();
    let guard = fixed.find("if (!req->recd)").unwrap();
    let rmb = fixed.find("smp_rmb").unwrap();
    assert!(guard < rmb, "{fixed}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_one_line_fix_in_a_2500_line_file_gets_its_hunk() {
    let dir = tempdir("long-patch");
    let fixture = ofence_corpus::fixtures::PATCH1_BUGGY;
    let filler: String = (0..2500)
        .map(|i| format!("int pad{i}(int x) {{ return x + {i}; }}\n"))
        .collect();
    let hunk = |name: &str, text: &str| {
        let f = dir.join(name);
        std::fs::write(&f, text).unwrap();
        let out = ofence()
            .arg("patch")
            .arg(&f)
            .args(["--no-cache", "--no-history"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let at = stdout
            .find("@@")
            .unwrap_or_else(|| panic!("no hunk: {stdout}"));
        stdout[at..].to_string()
    };
    let short = hunk("short.c", fixture);
    assert!(short.contains("+\tsmp_rmb();"), "{short}");
    assert_eq!(hunk("long.c", &format!("{fixture}{filler}")), short);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_json_is_parseable() {
    let dir = tempdir("json");
    let f = dir.join("clean.c");
    std::fs::write(&f, CLEAN).unwrap();
    let out = ofence()
        .arg("stats")
        .arg(&f)
        .arg("--json")
        .output()
        .unwrap();
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    assert_eq!(v["barriers_total"], 2);
    assert_eq!(v["pairings"], 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gen_then_analyze_directory() {
    let dir = tempdir("gen");
    let corpus = dir.join("corpus");
    let out = ofence()
        .args(["gen", "--out"])
        .arg(&corpus)
        .args(["--files", "4", "--seed", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(corpus.join("manifest.json").exists());
    let out = ofence().arg("analyze").arg(&corpus).output().unwrap();
    // Bug-free corpus may still contain decoy findings; accept 0 or 1.
    assert!(matches!(out.status.code(), Some(0) | Some(1)), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("files analyzed:        4"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn annotate_reports_missing_once() {
    let dir = tempdir("ann");
    let f = dir.join("clean.c");
    std::fs::write(&f, CLEAN).unwrap();
    let out = ofence().arg("annotate").arg(&f).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("READ_ONCE("), "{stdout}");
    assert!(stdout.contains("WRITE_ONCE("), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn annotate_apply_reaches_fixpoint() {
    let dir = tempdir("annfix");
    let f = dir.join("clean.c");
    std::fs::write(&f, CLEAN).unwrap();
    let out = ofence()
        .arg("annotate")
        .arg(&f)
        .arg("--apply")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out2 = ofence().arg("annotate").arg(&f).output().unwrap();
    let stdout = String::from_utf8_lossy(&out2.stdout);
    assert!(
        stdout.contains("already annotated"),
        "second run must be a no-op: {stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_exits_two() {
    let out = ofence().arg("bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn trace_out_writes_valid_chrome_trace() {
    let dir = tempdir("trace");
    let f = dir.join("clean.c");
    std::fs::write(&f, CLEAN).unwrap();
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.txt");
    let out = ofence()
        .arg("analyze")
        .arg(&f)
        .arg("--trace-out")
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).expect("valid trace JSON");
    let names: Vec<String> = v["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|e| e["name"].as_str().map(str::to_string))
        .collect();
    for phase in ["analyze", "parse", "cfg", "extract", "pair", "check"] {
        assert!(
            names.iter().any(|n| n == phase),
            "missing {phase}: {names:?}"
        );
    }
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("ofence_pairings_formed_total 1"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A CLI run is a one-request session, and its `--trace-out` holds that
/// request's tree beside the engine's spans: a `request` root whose
/// children (found by containment of the `X` events, as a trace viewer
/// nests them) cover ≥ 95 % of it, and the cache load outside it.
#[test]
fn trace_out_holds_the_request_tree() {
    let dir = tempdir("request-trace");
    let corpus = dir.join("corpus");
    let out = ofence()
        .args(["gen", "--out"])
        .arg(&corpus)
        .args(["--files", "12", "--seed", "7", "--bugs"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let trace = dir.join("trace.json");
    let out = ofence()
        .arg("analyze")
        .arg(&corpus)
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(matches!(out.status.code(), Some(0 | 1)), "{out:?}");
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).expect("valid trace JSON");
    let events = v["traceEvents"].as_array().unwrap();
    let field = |e: &serde_json::Value, k: &str| e[k].as_u64().unwrap();
    // Microsecond rounding may push a child's end a tick past its parent's.
    let within = |c: &serde_json::Value, p: &serde_json::Value| {
        field(c, "tid") == field(p, "tid")
            && field(c, "ts") + 2 >= field(p, "ts")
            && field(c, "ts") + field(c, "dur") <= field(p, "ts") + field(p, "dur") + 2
    };
    let named = |name: &'static str| events.iter().filter(move |e| e["name"] == name);
    let requests: Vec<_> = named("request").collect();
    assert_eq!(requests.len(), 1, "{events:?}");
    let request = requests[0];
    let inside: Vec<_> = (events.iter())
        .filter(|e| !std::ptr::eq(*e, request) && within(e, request))
        .collect();
    let children: Vec<_> = (inside.iter())
        .filter(|e| !(inside.iter()).any(|o| field(o, "dur") > field(e, "dur") && within(e, o)))
        .collect();
    let mut names: Vec<&str> = children
        .iter()
        .map(|e| e["name"].as_str().unwrap())
        .collect();
    names.sort_unstable();
    assert_eq!(names, ["ledger", "publish", "serve_run", "snapshot"]);
    let covered: u64 = children.iter().map(|e| field(e, "dur")).sum();
    let coverage = covered as f64 / field(request, "dur").max(1) as f64;
    assert!(
        coverage >= 0.95,
        "children cover {coverage:.3} of the request"
    );
    // The engine's spans nest in the request's `engine` span.
    let engine = named("engine").next().unwrap();
    assert!(named("analyze").all(|a| within(a, engine)));
    let load = named("cache_load").next().expect("a cache_load span");
    assert!(!within(load, request));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_json_follows_schema() {
    let dir = tempdir("schema");
    let f = dir.join("clean.c");
    std::fs::write(&f, CLEAN).unwrap();
    let out = ofence()
        .arg("analyze")
        .arg(&f)
        .arg("--json")
        .output()
        .unwrap();
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    assert_eq!(v["schema_version"], ofence::json::SCHEMA_VERSION, "{v}");
    assert_eq!(v["pairings"].as_array().unwrap().len(), 1);
    assert_eq!(v["sites"].as_array().unwrap().len(), 2);
    assert!(v["observability"]["phase_us"]["pair"].as_u64().is_some());
    // v2 provenance: run id plus a fingerprint on every finding entry.
    assert!(v["run_id"].as_str().unwrap().starts_with("run-"), "{v}");
    assert!(v["findings"].as_array().is_some(), "{v}");
    for entry in v["annotations"].as_array().unwrap() {
        assert_eq!(entry["fingerprint"].as_str().unwrap().len(), 16, "{entry}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_prints_candidates_and_outcome() {
    let dir = tempdir("explain");
    let f = dir.join("clean.c");
    std::fs::write(&f, CLEAN).unwrap();
    // The writer's smp_wmb is on line 10 of CLEAN.
    let out = ofence()
        .arg("explain")
        .arg("clean.c:10")
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("smp_wmb"), "{stdout}");
    assert!(
        stdout.contains("verdict: paired with the target"),
        "{stdout}"
    );
    assert!(stdout.contains("outcome: PAIRED"), "{stdout}");
    assert!(stdout.contains("weight"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_wrong_line_lists_barriers() {
    let dir = tempdir("explain-miss");
    let f = dir.join("clean.c");
    std::fs::write(&f, CLEAN).unwrap();
    let out = ofence()
        .arg("explain")
        .arg("clean.c:999")
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no barrier at"), "{stderr}");
    assert!(stderr.contains("smp_wmb"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explain_json_serializes_explanation() {
    let dir = tempdir("explain-json");
    let f = dir.join("clean.c");
    std::fs::write(&f, CLEAN).unwrap();
    let out = ofence()
        .arg("explain")
        .arg("clean.c:10")
        .arg(&f)
        .arg("--json")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid json");
    assert!(
        v["target"]["is_write_barrier"].as_bool().unwrap_or(false),
        "{v}"
    );
    assert_eq!(v["candidates"].as_array().unwrap().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn window_options_change_results() {
    let dir = tempdir("win");
    let f = dir.join("clean.c");
    std::fs::write(&f, CLEAN).unwrap();
    // A zero-size read window cannot see the reader's accesses: no pairing.
    let out = ofence()
        .args([
            "stats",
            "--read-window",
            "0",
            "--write-window",
            "0",
            "--json",
        ])
        .arg(&f)
        .output()
        .unwrap();
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["pairings"], 0, "{v}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_roundtrip_warm_run_hits() {
    let dir = tempdir("cache-rt");
    let corpus = dir.join("corpus");
    let cache = dir.join("cache");
    let out = ofence()
        .args(["gen", "--out"])
        .arg(&corpus)
        .args(["--files", "4", "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    // Cold run populates the disk cache.
    let m1 = dir.join("m1.txt");
    let out = ofence()
        .arg("analyze")
        .arg(&corpus)
        .arg("--cache-dir")
        .arg(&cache)
        .arg("--metrics-out")
        .arg(&m1)
        .output()
        .unwrap();
    assert!(matches!(out.status.code(), Some(0) | Some(1)), "{out:?}");
    assert!(cache.join("shard-00.json").exists());
    let t1 = std::fs::read_to_string(&m1).unwrap();
    // Zero-valued counters are elided: a cold run records no hits.
    assert!(!t1.contains("ofence_engine_cache_hits_total"), "{t1}");
    // Edit one file, re-analyze warm: everything else hits.
    let edited = corpus.join("gen/unit0000.c");
    let mut text = std::fs::read_to_string(&edited).unwrap();
    text.push_str("\nint cache_rt_added(void) { return 1; }\n");
    std::fs::write(&edited, text).unwrap();
    let m2 = dir.join("m2.txt");
    let out = ofence()
        .arg("analyze")
        .arg(&corpus)
        .arg("--cache-dir")
        .arg(&cache)
        .arg("--metrics-out")
        .arg(&m2)
        .output()
        .unwrap();
    assert!(matches!(out.status.code(), Some(0) | Some(1)), "{out:?}");
    let t2 = std::fs::read_to_string(&m2).unwrap();
    assert!(t2.contains("ofence_engine_cache_hits_total 3"), "{t2}");
    assert!(t2.contains("ofence_cache_loads_total 4"), "{t2}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_warm_run_streams_one_cache_hit_event() {
    let dir = tempdir("hit-event");
    let corpus = dir.join("corpus");
    let cache = dir.join("cache");
    let out = ofence()
        .args(["gen", "--out"])
        .arg(&corpus)
        .args(["--files", "6", "--seed", "5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let analyze = |events: Option<&Path>| {
        let mut cmd = ofence();
        cmd.arg("analyze")
            .arg(&corpus)
            .arg("--cache-dir")
            .arg(&cache);
        cmd.args(["--json", "--no-history"]);
        if let Some(events) = events {
            cmd.arg("--events-out").arg(events);
        }
        let out = cmd.output().unwrap();
        assert!(matches!(out.status.code(), Some(0) | Some(1)), "{out:?}");
        serde_json::from_slice::<serde_json::Value>(&out.stdout).unwrap()
    };
    analyze(None);
    let edited = corpus.join("gen/unit0001.c");
    let mut text = std::fs::read_to_string(&edited).unwrap();
    text.push_str("\nint hit_event_added(void) { return 1; }\n");
    std::fs::write(&edited, text).unwrap();
    let events = dir.join("events.ndjson");
    let report = analyze(Some(&events));
    let hits: Vec<serde_json::Value> = std::fs::read_to_string(&events)
        .unwrap()
        .lines()
        .map(|line| serde_json::from_str::<serde_json::Value>(line).unwrap())
        .filter(|ev| ev["ev"] == "counter" && ev["name"] == "engine_cache_hits")
        .collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    let files = report["stats"]["files_total"].as_u64().unwrap();
    let analyzed = report["observability"]["counters"]["engine_files_analyzed"]
        .as_u64()
        .unwrap();
    assert_eq!(analyzed, 1, "{report}");
    assert_eq!(
        hits[0]["delta"].as_u64(),
        Some(files - analyzed),
        "{hits:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_is_discarded_gracefully() {
    let dir = tempdir("cache-corrupt");
    let f = dir.join("clean.c");
    std::fs::write(&f, CLEAN).unwrap();
    let cache = dir.join("cache");
    std::fs::create_dir_all(&cache).unwrap();
    std::fs::write(cache.join("shard-00.json"), "{ not json !").unwrap();
    let out = ofence()
        .arg("analyze")
        .arg(&f)
        .arg("--cache-dir")
        .arg(&cache)
        .output()
        .unwrap();
    // The analysis still succeeds (cold), with a note on stderr.
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("discarding cache"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no barrier-ordering issues"), "{stdout}");
    // The bad cache was replaced by a valid one.
    let rewritten = std::fs::read_to_string(cache.join("shard-00.json")).unwrap();
    assert!(rewritten.contains("format_version"), "{rewritten}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_cache_dir_is_a_clear_error() {
    let dir = tempdir("cache-unwritable");
    let f = dir.join("clean.c");
    std::fs::write(&f, CLEAN).unwrap();
    // A regular file where a directory is needed: create_dir_all fails
    // (works even when running as root, unlike permission bits).
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();
    let out = ofence()
        .arg("analyze")
        .arg(&f)
        .arg("--cache-dir")
        .arg(blocker.join("sub"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cache-dir"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_dir_and_no_cache_conflict() {
    let out = ofence()
        .args(["analyze", "x.c", "--cache-dir", "d", "--no-cache"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn flag_as_a_flags_value_exits_two_and_writes_nothing() {
    let dir = tempdir("flag-value");
    std::fs::write(dir.join("clean.c"), CLEAN).unwrap();
    for flags in [
        ["--trace-out", "--json", "--no-cache", "--no-history"],
        ["--history-dir", "--no-history", "--no-cache", "--json"],
    ] {
        let cwd = tempdir("flag-value-cwd");
        let out = ofence_in(&cwd)
            .arg("analyze")
            .arg(&dir)
            .args(flags)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("needs a value"), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(!cwd.join(flags[1]).exists(), "{flags:?}");
        let left: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
        assert!(left.is_empty(), "{flags:?} wrote {left:?}");
        let _ = std::fs::remove_dir_all(&cwd);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_nonexistent_dir_exits_two() {
    let out = ofence()
        .args(["watch", "/no/such/ofence-dir", "--max-iterations", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no such file or directory"), "{stderr}");
}

#[test]
fn watch_single_run_reports_deviations() {
    let dir = tempdir("watch-one");
    std::fs::write(dir.join("xprt.c"), BUGGY).unwrap();
    let out = ofence()
        .arg("watch")
        .arg(&dir)
        .args(["--max-iterations", "1", "--no-cache"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("watch: run 1"), "{stdout}");
    assert!(stdout.contains("1 deviations (1 new, 0 fixed)"), "{stdout}");
    assert!(stdout.contains("+ "), "{stdout}");
    assert!(
        stdout.contains("misplaced memory access in decode"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_reports_delta_on_change() {
    let dir = tempdir("watch-delta");
    let src = dir.join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("xprt.c"), BUGGY).unwrap();
    let metrics = dir.join("metrics.txt");
    let mut child = ofence()
        .arg("watch")
        .arg(&src)
        .args(["--max-iterations", "2", "--interval-ms", "50"])
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .arg("--metrics-out")
        .arg(&metrics)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // Give run 1 time to finish, then fix the bug: run 2 must report the
    // finding as fixed and the process exits (max-iterations reached).
    std::thread::sleep(std::time::Duration::from_millis(1500));
    std::fs::write(src.join("xprt.c"), CLEAN).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let status = loop {
        if let Some(s) = child.try_wait().unwrap() {
            break s;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("watch did not exit after the second run");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    let out = child.wait_with_output().unwrap();
    assert!(status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("watch: run 1"), "{stdout}");
    assert!(stdout.contains("watch: run 2"), "{stdout}");
    assert!(stdout.contains("0 deviations (0 new, 1 fixed)"), "{stdout}");
    assert!(stdout.contains("- "), "{stdout}");
    // The per-run metrics carry the session's cumulative run counter.
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("ofence_serve_runs_total 2"), "{text}");
    assert!(dir.join("cache").join("shard-00.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A second, independent copy of the misplaced-read pattern, used to
/// introduce a fresh deviation next to the baselined one.
const BUGGY_EXTRA: &str = r#"struct rpc2 { int len2; int recd2; int out2; };
void complete2(struct rpc2 *req) {
	req->len2 = 4;
	smp_wmb();
	req->recd2 = 1;
}
void decode2(struct rpc2 *req) {
	smp_rmb();
	if (!req->recd2)
		return;
	req->out2 = req->len2;
}
"#;

#[test]
fn fail_on_new_gates_via_baseline() {
    let dir = tempdir("failon");
    let f = dir.join("xprt.c");
    std::fs::write(&f, BUGGY).unwrap();
    let base = dir.join("base.json");
    let hist = dir.join("hist");

    // Without a baseline, every finding is new: --fail-on=new fails.
    let out = ofence()
        .args(["analyze", "--fail-on=new", "--no-history"])
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // --fail-on=none never fails on findings.
    let out = ofence()
        .args(["analyze", "--fail-on=none", "--no-history"])
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    // Record the known finding, then --fail-on=new passes...
    let out = ofence()
        .args(["baseline", "write"])
        .arg(&f)
        .arg("--out")
        .arg(&base)
        .arg("--history-dir")
        .arg(&hist)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("recorded 1 finding(s)"),
        "{out:?}"
    );
    let out = ofence()
        .args(["analyze", "--fail-on=new", "--no-history", "--baseline"])
        .arg(&base)
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("baseline: 1 known, 0 new, 0 fixed"),
        "{stdout}"
    );

    // ...until an edit introduces a fresh deviation.
    std::fs::write(&f, format!("{BUGGY}{BUGGY_EXTRA}")).unwrap();
    let out = ofence()
        .args(["analyze", "--fail-on=new", "--no-history", "--baseline"])
        .arg(&base)
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("baseline: 1 known, 1 new, 0 fixed"),
        "{stdout}"
    );

    // Re-baselining the new state makes the gate pass again.
    let out = ofence()
        .args(["baseline", "write"])
        .arg(&f)
        .arg("--out")
        .arg(&base)
        .arg("--history-dir")
        .arg(&hist)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = ofence()
        .args(["analyze", "--fail-on=new", "--no-history", "--baseline"])
        .arg(&base)
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_two_json_reports_exact_delta() {
    let dir = tempdir("diff-json");
    let f = dir.join("xprt.c");
    std::fs::write(&f, BUGGY).unwrap();
    let run_json = |path: &std::path::Path| -> Vec<u8> {
        let out = ofence()
            .args(["analyze", "--json", "--no-history"])
            .arg(path)
            .output()
            .unwrap();
        out.stdout
    };
    let old = dir.join("old.json");
    std::fs::write(&old, run_json(&f)).unwrap();

    // A line shift plus one genuinely new deviation: the diff must report
    // exactly the injected delta, nothing else.
    std::fs::write(
        &f,
        format!("/* c1 */\n/* c2 */\n/* c3 */\n{BUGGY}{BUGGY_EXTRA}"),
    )
    .unwrap();
    let new = dir.join("new.json");
    std::fs::write(&new, run_json(&f)).unwrap();

    let out = ofence().arg("diff").arg(&old).arg(&new).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}"); // new finding => fail-on=new default
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("diff: 1 new, 0 fixed, 1 unchanged"),
        "{stdout}"
    );
    assert!(
        stdout.contains("misplaced memory access in decode2"),
        "{stdout}"
    );

    // JSON output parses and agrees; --fail-on=none exits zero.
    let out = ofence()
        .arg("diff")
        .arg(&old)
        .arg(&new)
        .args(["--json", "--fail-on=none"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid diff json");
    assert_eq!(v["summary"]["new"], 1, "{v}");
    assert_eq!(v["summary"]["fixed"], 0, "{v}");
    assert_eq!(v["summary"]["unchanged"], 1, "{v}");
    assert_eq!(v["new"][0]["function"].as_str(), Some("decode2"), "{v}");

    // An identical pair of reports diffs clean (exit zero by default).
    let out = ofence().arg("diff").arg(&new).arg(&new).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("diff: 0 new, 0 fixed, 2 unchanged"),
        "{out:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two-operand `diff` compares recorded findings, so an analysis flag is
/// refused rather than ignored, and nothing is written.
#[test]
fn diff_of_two_reports_refuses_analysis_flags_and_writes_nothing() {
    let dir = tempdir("diff-flags");
    let report = dir.join("r.json");
    std::fs::write(&report, r#"{"schema_version": 3, "findings": []}"#).unwrap();
    let cwd = tempdir("diff-flags-cwd");
    let out = ofence_in(&cwd)
        .arg("diff")
        .arg(&report)
        .arg(&report)
        .args(["--sarif-out", "x.sarif", "--missing", "--ipa-depth", "2"])
        .args(["--cache-dir", "c", "--no-history"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--sarif-out is not supported by diff OLD NEW"),
        "{stderr}"
    );
    let left: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
    assert!(left.is_empty(), "wrote {left:?}");
    let _ = std::fs::remove_dir_all(&cwd);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_resolves_ledger_run_ids() {
    let dir = tempdir("diff-ledger");
    let f = dir.join("xprt.c");
    let hist = dir.join("hist");
    std::fs::write(&f, BUGGY).unwrap();
    let analyze = |path: &std::path::Path| {
        let out = ofence()
            .arg("analyze")
            .arg(path)
            .arg("--history-dir")
            .arg(&hist)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{out:?}");
    };
    analyze(&f);
    std::fs::write(&f, format!("{BUGGY}{BUGGY_EXTRA}")).unwrap();
    analyze(&f);

    // Pull the two run ids back out of the ledger.
    let ledger = std::fs::read_to_string(hist.join("history.jsonl")).unwrap();
    let ids: Vec<String> = ledger
        .lines()
        .map(|l| {
            let v: serde_json::Value = serde_json::from_str(l).unwrap();
            v["run_id"].as_str().unwrap().to_string()
        })
        .collect();
    assert_eq!(ids.len(), 2, "{ledger}");

    let out = ofence()
        .arg("diff")
        .arg(&ids[0])
        .arg(&ids[1])
        .arg("--history-dir")
        .arg(&hist)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("diff: 1 new, 0 fixed, 1 unchanged"),
        "{stdout}"
    );

    // Unambiguous prefixes resolve too.
    let out = ofence()
        .arg("diff")
        .arg(&ids[0][..9])
        .arg(&ids[1][..9])
        .arg("--history-dir")
        .arg(&hist)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("diff: 1 new"), "{out:?}");

    // An unknown id is a usage error (exit 2), not a crash.
    let out = ofence()
        .arg("diff")
        .arg("run-feedfacefeedface")
        .arg(&ids[1])
        .arg("--history-dir")
        .arg(&hist)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no run"),
        "{out:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-shot `analyze` is one session request: it appends exactly one
/// line to each ledger, and the three lines name the same run.
#[test]
fn one_analyze_appends_one_joined_line_per_ledger() {
    let dir = tempdir("ledgers");
    let f = dir.join("xprt.c");
    let hist = dir.join("hist");
    std::fs::write(&f, BUGGY).unwrap();
    let out = ofence()
        .arg("analyze")
        .arg(&f)
        .arg("--no-cache")
        .arg("--history-dir")
        .arg(&hist)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let run_ids: Vec<String> = ["history.jsonl", "perf.jsonl", "requests.jsonl"]
        .iter()
        .map(|name| {
            let text = std::fs::read_to_string(hist.join(name)).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), 1, "{name}: {text}");
            let v: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
            v["run_id"].as_str().unwrap().to_string()
        })
        .collect();
    assert!(run_ids.iter().all(|id| id == &run_ids[0]), "{run_ids:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_history_dir_is_a_clear_error() {
    let dir = tempdir("history-unwritable");
    let f = dir.join("clean.c");
    std::fs::write(&f, CLEAN).unwrap();
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();
    let out = ofence()
        .arg("analyze")
        .arg(&f)
        .arg("--no-cache")
        .arg("--history-dir")
        .arg(blocker.join("sub"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--history-dir"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sarif_export_is_valid() {
    let dir = tempdir("sarif");
    let f = dir.join("xprt.c");
    std::fs::write(&f, BUGGY).unwrap();
    let sarif = dir.join("out.sarif");
    let out = ofence()
        .args(["analyze", "--no-history", "--sarif-out"])
        .arg(&sarif)
        .arg(&f)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}"); // finding present
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&sarif).unwrap()).expect("valid SARIF JSON");
    assert_eq!(v["version"].as_str(), Some("2.1.0"), "{v}");
    let results = v["runs"][0]["results"].as_array().unwrap();
    assert!(!results.is_empty(), "{v}");
    for r in results {
        let fps = r["partialFingerprints"].as_object().unwrap();
        assert!(!fps.is_empty(), "{r}");
        assert_eq!(
            r["partialFingerprints"]["ofenceFingerprint/v1"]
                .as_str()
                .unwrap()
                .len(),
            16
        );
        assert!(r["locations"][0]["physicalLocation"]["region"]["startLine"]
            .as_u64()
            .is_some());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn suppression_comment_silences_finding() {
    let dir = tempdir("suppress");
    let f = dir.join("xprt.c");
    std::fs::write(
        &f,
        BUGGY.replace(
            "\tif (!req->recd)",
            "\t/* ofence-ignore: known-benign init race */\n\tif (!req->recd)",
        ),
    )
    .unwrap();
    let out = ofence()
        .args(["analyze", "--no-history", "--metrics-out"])
        .arg(dir.join("m.txt"))
        .arg(&f)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("no barrier-ordering issues found"),
        "{out:?}"
    );
    let metrics = std::fs::read_to_string(dir.join("m.txt")).unwrap();
    assert!(metrics.contains("ofence_suppressed_total 1"), "{metrics}");
    let _ = std::fs::remove_dir_all(&dir);
}
