//! Integration tests for the `vdbench` CLI binary.
//!
//! Exit-code contract under test: `0` success, `1` runtime failure
//! (bad values, missing files), `2` usage error (unknown command or
//! flag, malformed flag syntax) — usage errors carry a nearest-match
//! suggestion and the generated usage table lists every command.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};

fn vdbench(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_vdbench"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn help_lists_every_command_and_its_flags() {
    let (stdout, _, code) = vdbench(&["help"]);
    assert_eq!(code, Some(0));
    for cmd in [
        "campaign",
        "generate",
        "scan",
        "bench",
        "select",
        "consistency",
        "report",
        "recommend",
        "serve",
        "loadgen",
        "scale",
        "cache",
        "perfwatch",
    ] {
        assert!(stdout.contains(cmd), "{cmd} missing from help");
    }
    // The table is generated from the command specs, so flags are listed
    // with their placeholders and help strings.
    for flag in [
        "--units N",
        "--tool NAME",
        "--max-inflight N",
        "--duration-secs F",
        "--cache-dir DIR",
        "--shard-units N",
        "--assert-flat F",
        "--gc on|off",
        "--history DIR",
        "--alpha F",
        "--min-effect F",
        "--perf-history DIR",
        "--scan-threads N",
        "--artifact NAME",
        "--timings on|off",
        "--trace-out FILE",
        "--telemetry-selfcheck on|off",
        "--fault-profile NAME",
        "--fault-seed N",
        "--disk-cache on|off",
    ] {
        assert!(stdout.contains(flag), "{flag} missing from help");
    }
    // Commands with a required action render it above their flags.
    assert!(stdout.contains("<check|update>"), "{stdout}");
}

#[test]
fn sharded_scan_stdout_is_byte_identical() {
    let (mono, _, code) = vdbench(&["scan", "--tool", "pattern", "--units", "90", "--seed", "3"]);
    assert_eq!(code, Some(0));
    let (sharded, stderr, code) = vdbench(&[
        "scan",
        "--tool",
        "pattern",
        "--units",
        "90",
        "--seed",
        "3",
        "--shard-units",
        "16",
    ]);
    assert_eq!(code, Some(0));
    assert_eq!(mono, sharded, "streamed path must not move a byte");
    assert!(stderr.contains("90 units in 6 shards"), "{stderr}");
    // The parallel pipeline must not move a byte either, at any width.
    for threads in ["2", "8"] {
        let (piped, _, code) = vdbench(&[
            "scan",
            "--tool",
            "pattern",
            "--units",
            "90",
            "--seed",
            "3",
            "--shard-units",
            "16",
            "--scan-threads",
            threads,
        ]);
        assert_eq!(code, Some(0));
        assert_eq!(mono, piped, "{threads} scan threads moved a byte");
    }
    // Streaming regenerates; it cannot apply to a saved corpus file.
    let (_, stderr, code) = vdbench(&[
        "scan",
        "--tool",
        "pattern",
        "--corpus",
        "x.json",
        "--shard-units",
        "16",
    ]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("cannot be combined"), "{stderr}");
}

#[test]
fn warm_sharded_scan_replays_whole_shards_from_digests() {
    let dir = std::env::temp_dir().join(format!("vdbench-cli-digest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache");
    let args = [
        "scan",
        "--tool",
        "pattern",
        "--units",
        "90",
        "--seed",
        "3",
        "--shard-units",
        "16",
        "--cache-dir",
        cache.to_str().unwrap(),
    ];
    let (cold, cold_err, code) = vdbench(&args);
    assert_eq!(code, Some(0));
    assert!(
        cold_err.contains("90 rescanned, 0 replayed, 0 digest hits"),
        "{cold_err}"
    );
    let (warm, warm_err, code) = vdbench(&args);
    assert_eq!(code, Some(0));
    assert_eq!(cold, warm, "warm replay must not move a byte");
    assert!(
        warm_err.contains("0 rescanned, 90 replayed, 6 digest hits"),
        "{warm_err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scale_measures_and_delta_rescans_exactly() {
    let dir = std::env::temp_dir().join(format!("vdbench-cli-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache");
    let out = dir.join("BENCH_scale.json");
    let (stdout, _, code) = vdbench(&[
        "scale",
        "--units",
        "200,600",
        "--shard-units",
        "64",
        "--delta",
        "25",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));
    assert!(
        stdout.contains("scale: units=200") && stdout.contains("scale: units=600"),
        "{stdout}"
    );
    assert!(
        stdout.contains("scale delta: base=600 grown=625 rescanned=25 replayed=600"),
        "{stdout}"
    );
    let json = std::fs::read_to_string(&out).unwrap();
    assert!(json.contains("\"shard_units\": 64"), "{json}");
    // The manifest store is visible to the cache command, and gc leaves
    // live blobs alone.
    let (stdout, _, code) = vdbench(&["cache", "--dir", cache.to_str().unwrap(), "--gc", "on"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("manifest"), "{stdout}");
    assert!(stdout.contains("gc: removed 0 files"), "{stdout}");
    // VmHWM is monotonic, so non-ascending curves are rejected.
    let (_, stderr, code) = vdbench(&[
        "scale",
        "--units",
        "600,200",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("ascending"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generate_prints_stats_and_code() {
    let (stdout, _, code) = vdbench(&[
        "generate",
        "--units",
        "12",
        "--density",
        "0.5",
        "--seed",
        "4",
        "--show",
        "1",
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("corpus: 12 units"));
    assert!(stdout.contains("by class:"));
    assert!(stdout.contains("fn handler_0"));
}

#[test]
fn scan_reports_metrics_and_findings() {
    let (stdout, _, code) = vdbench(&[
        "scan",
        "--tool",
        "taint",
        "--units",
        "40",
        "--density",
        "0.4",
        "--seed",
        "9",
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("taint-d3-precise on 40 cases"));
    assert!(stdout.contains("TPR"));
    assert!(stdout.contains("findings"));
}

#[test]
fn usage_errors_exit_2_with_suggestions() {
    // No command at all: usage on stderr.
    let (_, stderr, code) = vdbench(&[]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("COMMANDS:"));

    // Unknown command, with a nearest-match suggestion.
    let (_, stderr, code) = vdbench(&["scann"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("did you mean `scan`?"), "{stderr}");

    let (_, stderr, code) = vdbench(&["frobnicate"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown command"));

    // Unknown flag, with a nearest-match suggestion.
    let (_, stderr, code) = vdbench(&["generate", "--unitz", "5"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown flag --unitz"), "{stderr}");
    assert!(stderr.contains("did you mean --units?"), "{stderr}");

    // A flag that belongs to a different command is still unknown here.
    let (_, stderr, code) = vdbench(&["report", "--tool", "taint"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown flag --tool"), "{stderr}");

    // Malformed flag syntax.
    let (_, stderr, code) = vdbench(&["generate", "--units"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("missing a value"));

    let (_, stderr, code) = vdbench(&["generate", "positional"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unexpected argument"));

    // Action-taking commands: missing action, misspelled action.
    let (_, stderr, code) = vdbench(&["perfwatch"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("needs an action: check|update"), "{stderr}");

    let (_, stderr, code) = vdbench(&["perfwatch", "--alpha", "0.01"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("needs an action"), "{stderr}");

    let (_, stderr, code) = vdbench(&["perfwatch", "chceck"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown action `chceck`"), "{stderr}");
    assert!(stderr.contains("did you mean `check`?"), "{stderr}");

    // The campaign's flags and artifact names get the same treatment.
    let (_, stderr, code) = vdbench(&["campaign", "--timmings", "on"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("did you mean --timings"), "{stderr}");

    let (_, stderr, code) = vdbench(&["campaign", "--artifact", "tabel1"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown artifact `tabel1`"), "{stderr}");
    assert!(stderr.contains("did you mean `table1`?"), "{stderr}");
}

#[test]
fn campaign_artifact_renders_its_golden_transcript_slice() {
    let golden =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/run_all.txt"))
            .expect("golden transcript");
    for artifact in ["preamble", "table1", "table3"] {
        let (stdout, stderr, code) =
            vdbench(&["campaign", "--artifact", artifact, "--disk-cache", "off"]);
        assert_eq!(code, Some(0), "{stderr}");
        assert!(stdout.len() > 1, "{artifact} rendered nothing");
        assert!(
            golden.contains(&stdout),
            "{artifact} output is not in the golden transcript:\n{stdout}"
        );
    }
    // Timing one artifact would record a partial campaign as the cold
    // baseline, and a ledger entry needs a timed run: both are usage
    // errors rather than silently ignored.
    let (_, stderr, code) = vdbench(&["campaign", "--artifact", "table1", "--timings", "on"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("cannot be combined with --artifact"),
        "{stderr}"
    );
    let (_, stderr, code) = vdbench(&["campaign", "--perf-history", "unused-ledger-dir"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("pass --timings on"), "{stderr}");
}

#[test]
fn runtime_errors_exit_1() {
    let (_, stderr, code) = vdbench(&["scan", "--tool", "nope"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unknown tool"));

    let (_, stderr, code) = vdbench(&["generate", "--density", "2.0"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("must be in [0, 1]"));

    let (_, stderr, code) = vdbench(&["scan"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("needs --tool"));
}

#[test]
fn recommend_follows_the_cost_model() {
    let (miss_heavy, _, code) = vdbench(&[
        "recommend",
        "--fp-cost",
        "1",
        "--fn-cost",
        "25",
        "--prevalence",
        "0.1",
    ]);
    assert_eq!(code, Some(0));
    assert!(miss_heavy.contains("closest standard profile: S2"));
    // The top recommendation must be recall-flavoured, never precision.
    let first = miss_heavy
        .lines()
        .find(|l| l.trim_start().starts_with("1."))
        .unwrap();
    assert!(
        first.contains("INF") || first.contains("NEC-fn") || first.contains("TPR"),
        "{first}"
    );

    let (_, stderr, code) = vdbench(&["recommend", "--prevalence", "1.5"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("prevalence"));
}

#[test]
fn corpus_export_import_round_trip() {
    let dir = std::env::temp_dir().join("vdbench-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.json");
    let path_str = path.to_str().unwrap();

    let (_, _, code) = vdbench(&[
        "generate",
        "--units",
        "30",
        "--density",
        "0.4",
        "--seed",
        "5",
        "--out",
        path_str,
    ]);
    assert_eq!(code, Some(0));

    // Scanning the saved corpus gives the same result as scanning the
    // equivalent generated one.
    let (from_file, _, code) = vdbench(&["scan", "--tool", "taint", "--corpus", path_str]);
    assert_eq!(code, Some(0));
    let (from_gen, _, code) = vdbench(&[
        "scan",
        "--tool",
        "taint",
        "--units",
        "30",
        "--density",
        "0.4",
        "--seed",
        "5",
    ]);
    assert_eq!(code, Some(0));
    assert_eq!(from_file, from_gen);

    // Malformed file fails cleanly.
    std::fs::write(&path, "not json").unwrap();
    let (_, stderr, code) = vdbench(&["scan", "--tool", "taint", "--corpus", path_str]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("cannot parse"));
    let (_, stderr, code) = vdbench(&["scan", "--tool", "taint", "--corpus", "/nope/missing.json"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("cannot read"));
}

#[test]
fn perfwatch_gates_an_injected_regression_end_to_end() {
    use vdbench_perfwatch::{append_entry, RunEntry, Series};
    let dir = std::env::temp_dir().join(format!("vdbench-cli-perfwatch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dir_str = dir.to_str().unwrap();
    let trend = dir.join("trend.md");
    let trend_str = trend.to_str().unwrap();

    // Jittered samples around `center` — deterministic, ±1%.
    let samples = |center: f64| -> Vec<f64> {
        (0..24)
            .map(|i| center * (1.0 + 0.01 * (((i * 7919) % 13) as f64 - 6.0) / 6.0))
            .collect()
    };
    let entry = |unix_ms: u64, baseline: bool, speedup: f64| RunEntry {
        source: "kernels".to_string(),
        unix_ms,
        label: if baseline { "seed" } else { "ci" }.to_string(),
        provenance: String::new(),
        baseline,
        series: vec![Series::delta(
            "kendall-512:speedup",
            "ratio",
            "higher",
            true,
            samples(speedup),
        )],
    };
    for run in 0..3 {
        append_entry(&dir, &entry(run, true, 3.0)).unwrap();
    }

    // Baselines alone: nothing to compare, but nothing failing either.
    let (stdout, _, code) = vdbench(&[
        "perfwatch",
        "check",
        "--history",
        dir_str,
        "--out",
        trend_str,
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("no confirmed regressions"), "{stdout}");

    // A candidate 20% slower than baseline must fail the gate.
    append_entry(&dir, &entry(3, false, 2.4)).unwrap();
    let (_, stderr, code) = vdbench(&[
        "perfwatch",
        "check",
        "--history",
        dir_str,
        "--out",
        trend_str,
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("confirmed regression"), "{stderr}");
    let table = std::fs::read_to_string(&trend).unwrap();
    assert!(table.contains("kendall-512:speedup"), "{table}");
    assert!(table.contains("REGRESSION"), "{table}");

    // Re-baselining on purpose accepts the new level. A second source's
    // ledger sits alongside; `--source` must leave it untouched.
    append_entry(
        &dir,
        &RunEntry {
            source: "scale".to_string(),
            unix_ms: 0,
            label: "seed".to_string(),
            provenance: String::new(),
            baseline: true,
            series: vec![Series::delta("wall_ms", "ms", "lower", false, vec![100.0])],
        },
    )
    .unwrap();
    let (stdout, _, code) = vdbench(&[
        "perfwatch",
        "update",
        "--history",
        dir_str,
        "--source",
        "kernels",
        "--note",
        "accepted slower kernel",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("re-baselined 1 ledger file"), "{stdout}");
    // ...and the recorded provenance note survives in the ledger.
    let ledger = std::fs::read_to_string(dir.join("kernels.jsonl")).unwrap();
    assert!(ledger.contains("accepted slower kernel"), "{ledger}");
    let other = std::fs::read_to_string(dir.join("scale.jsonl")).unwrap();
    assert!(!other.contains("accepted slower kernel"), "{other}");
    // A source with no ledger is a clean failure, not a silent no-op.
    let (_, stderr, code) = vdbench(&[
        "perfwatch",
        "update",
        "--history",
        dir_str,
        "--source",
        "nope",
    ]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("no `nope` history"), "{stderr}");
    let (stdout, _, code) = vdbench(&[
        "perfwatch",
        "check",
        "--history",
        dir_str,
        "--out",
        trend_str,
    ]);
    assert_eq!(code, Some(0), "{stdout}");

    // An equally-fast candidate against the new baseline stays green.
    append_entry(&dir, &entry(4, false, 2.4)).unwrap();
    let (stdout, _, code) = vdbench(&[
        "perfwatch",
        "check",
        "--history",
        dir_str,
        "--out",
        trend_str,
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("no confirmed regressions"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generate_is_deterministic_across_invocations() {
    let (a, _, _) = vdbench(&["generate", "--units", "25", "--seed", "77"]);
    let (b, _, _) = vdbench(&["generate", "--units", "25", "--seed", "77"]);
    assert_eq!(a, b);
    let (c, _, _) = vdbench(&["generate", "--units", "25", "--seed", "78"]);
    assert_ne!(a, c);
}

#[test]
fn serve_and_loadgen_round_trip_end_to_end() {
    let dir = std::env::temp_dir().join(format!("vdbench-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache_dir = dir.join("cache");
    let record_path = dir.join("BENCH_serve.json");

    // Start the server on an ephemeral port and read the bound address
    // off its startup line.
    let mut server = Command::new(env!("CARGO_BIN_EXE_vdbench"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("server spawns");
    let mut stdout = BufReader::new(server.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("startup line");
    let addr = banner
        .split_whitespace()
        .find(|w| w.starts_with("127.0.0.1:"))
        .expect("bound address in startup line")
        .to_string();

    // Raw healthz probe straight over TCP.
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.ends_with("ok\n"), "{response}");

    // A short loadgen run against it must report a high warm-hit ratio
    // and write a parsable record.
    let (stdout, stderr, code) = vdbench(&[
        "loadgen",
        "--addr",
        &addr,
        "--duration-secs",
        "0.5",
        "--connections",
        "4",
        "--pool-scans",
        "8",
        "--out",
        record_path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "loadgen failed: {stderr}");
    assert!(stdout.contains("record written to"), "{stdout}");
    let record: vdbench::server::ServeRecord =
        serde_json::from_str(&std::fs::read_to_string(&record_path).unwrap()).unwrap();
    assert_eq!(record.seed_pass.errors, 0);
    assert_eq!(record.errors, 0);
    assert!(record.requests > 0);
    assert!(
        record.warm_hit_ratio > 0.9,
        "measured phase must be warm, got {}",
        record.warm_hit_ratio
    );

    server.kill().expect("server stops");
    let _ = server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
