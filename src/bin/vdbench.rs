//! The `vdbench` command-line interface.
//!
//! A thin, dependency-free front-end over the library for downstream users
//! who want results without writing Rust:
//!
//! ```sh
//! vdbench campaign --timings on
//! vdbench campaign --artifact table1
//! vdbench generate --units 50 --density 0.3 --seed 7 --show 2
//! vdbench scan --tool taint --units 200 --density 0.3
//! vdbench bench --scenario S3
//! vdbench serve --addr 127.0.0.1:7071 --cache-dir target/vdbench-cache
//! vdbench loadgen --duration-secs 3
//! ```
//!
//! The usage table is **generated** from one declarative command table
//! ([`COMMANDS`]), so a new subcommand or flag shows up in `vdbench help`
//! by construction. Exit codes follow convention: `0` success, `1`
//! runtime failure, `2` usage error (unknown command or flag, malformed
//! flag syntax) — usage errors come with a nearest-match suggestion.

use std::collections::BTreeMap;
use std::process::ExitCode;
use vdbench::core::campaign::{run_case_study, standard_tools};
use vdbench::core::consistency::{cross_workload_consistency, ConsistencyConfig};
use vdbench::core::scenario::standard_scenarios;
use vdbench::core::selection::{default_candidates, MetricSelector};
use vdbench::core::AssessmentConfig;
use vdbench::corpus::pretty::unit_to_string;
use vdbench::prelude::*;

type Flags = BTreeMap<String, String>;

/// One `--flag value` a command accepts.
struct FlagSpec {
    name: &'static str,
    placeholder: &'static str,
    help: &'static str,
}

/// One subcommand: its summary, accepted actions and flags, and
/// implementation. `actions` is empty for plain commands; when non-empty
/// the first positional argument must be one of the listed actions and is
/// handed to `run` under the reserved `action` flag key.
struct CommandSpec {
    name: &'static str,
    summary: &'static str,
    actions: &'static [&'static str],
    flags: &'static [FlagSpec],
    run: fn(&Flags) -> Result<(), String>,
}

macro_rules! flag {
    ($name:literal, $placeholder:literal, $help:literal) => {
        FlagSpec {
            name: $name,
            placeholder: $placeholder,
            help: $help,
        }
    };
}

/// The full command table — the single source of the usage text.
const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "campaign",
        summary: "Render the paper's 16 tables and figures (golden transcript on stdout)",
        actions: &[],
        flags: &[
            flag!(
                "artifact",
                "NAME",
                "render one artifact only: preamble|table1..table9|fig1..fig6"
            ),
            flag!(
                "timings",
                "on|off",
                "per-stage timing breakdown to stderr + BENCH_campaign.json"
            ),
            flag!("trace-out", "FILE", "write a Chrome trace_event JSON trace"),
            flag!(
                "telemetry-selfcheck",
                "on|off",
                "fail if spans were recorded while telemetry was off"
            ),
            flag!(
                "fault-profile",
                "NAME",
                "none|flaky|hostile fault injection (default none)"
            ),
            flag!(
                "fault-seed",
                "N",
                "base seed of the fault decision streams (default 0xFA2015)"
            ),
            flag!(
                "cache-dir",
                "DIR",
                "persistent artifact cache (default target/vdbench-cache)"
            ),
            flag!(
                "disk-cache",
                "on|off",
                "use the persistent artifact cache (default on)"
            ),
            flag!(
                "perf-history",
                "DIR",
                "with --timings on, append this run to the perfwatch ledger in DIR"
            ),
        ],
        run: cmd_campaign,
    },
    CommandSpec {
        name: "generate",
        summary: "Generate a MiniWeb corpus and print its statistics",
        actions: &[],
        flags: &[
            flag!("units", "N", "corpus size in units (default 200)"),
            flag!(
                "density",
                "F",
                "vulnerability density in [0, 1] (default 0.3)"
            ),
            flag!(
                "stored-rate",
                "F",
                "stored-vulnerability rate in [0, 1] (default 0.12)"
            ),
            flag!("seed", "N", "generator seed (default 2015)"),
            flag!("show", "K", "pretty-print the first K units"),
            flag!("out", "FILE", "also save the corpus as JSON"),
        ],
        run: cmd_generate,
    },
    CommandSpec {
        name: "scan",
        summary: "Run one detection tool over a corpus",
        actions: &[],
        flags: &[
            flag!(
                "tool",
                "NAME",
                "pattern|pattern-cons|taint|taint-shallow|pentest|pentest-quick|pentest-stateful"
            ),
            flag!("units", "N", "corpus size in units (default 200)"),
            flag!(
                "density",
                "F",
                "vulnerability density in [0, 1] (default 0.3)"
            ),
            flag!(
                "stored-rate",
                "F",
                "stored-vulnerability rate in [0, 1] (default 0.12)"
            ),
            flag!("seed", "N", "generator seed (default 2015)"),
            flag!(
                "corpus",
                "FILE",
                "scan a saved corpus instead of generating"
            ),
            flag!(
                "shard-units",
                "N",
                "stream the corpus in fixed-memory shards of N units"
            ),
            flag!(
                "cache-dir",
                "DIR",
                "manifest store for incremental rescans (with --shard-units)"
            ),
            flag!(
                "scan-threads",
                "N",
                "shard-worker threads for --shard-units (default: rayon pool size)"
            ),
        ],
        run: cmd_scan,
    },
    CommandSpec {
        name: "scale",
        summary: "Measure streamed-scan wall-time and peak-RSS curves, write BENCH_scale.json",
        actions: &[],
        flags: &[
            flag!(
                "units",
                "N,N,..",
                "ascending corpus sizes to measure (default 10000,100000)"
            ),
            flag!(
                "shard-units",
                "N",
                "shard size for the streamed scans (default 4096)"
            ),
            flag!("tool", "NAME", "detection tool to drive (default pattern)"),
            flag!("seed", "N", "generator seed (default 2015)"),
            flag!(
                "density",
                "F",
                "vulnerability density in [0, 1] (default 0.3)"
            ),
            flag!(
                "delta",
                "K",
                "rerun the largest corpus grown by K units, rescanning incrementally"
            ),
            flag!(
                "cache-dir",
                "DIR",
                "manifest store (default target/vdbench-scale-cache)"
            ),
            flag!("out", "FILE", "record path (default BENCH_scale.json)"),
            flag!(
                "assert-flat",
                "F",
                "fail if peak RSS grows more than F x across the curve"
            ),
            flag!(
                "perf-history",
                "DIR",
                "append this run to the perfwatch ledger in DIR"
            ),
            flag!(
                "scan-threads",
                "N",
                "shard-worker threads (default: rayon pool size; 1 = serial oracle)"
            ),
        ],
        run: cmd_scale,
    },
    CommandSpec {
        name: "cache",
        summary: "Inspect and garbage-collect a blob store directory",
        actions: &[],
        flags: &[
            flag!(
                "dir",
                "DIR",
                "blob store directory (default target/vdbench-cache)"
            ),
            flag!(
                "gc",
                "on|off",
                "sweep abandoned tmp files and stale-schema blobs (default off)"
            ),
        ],
        run: cmd_cache,
    },
    CommandSpec {
        name: "bench",
        summary: "Run the full scenario case study",
        actions: &[],
        flags: &[
            flag!("scenario", "ID", "restrict to one scenario: S1|S2|S3|S4"),
            flag!("seed", "N", "experiment seed (default 2015)"),
        ],
        run: cmd_bench,
    },
    CommandSpec {
        name: "select",
        summary: "Per-scenario metric selection + MCDA validation",
        actions: &[],
        flags: &[
            flag!("noise", "F", "expert-panel noise level (default 0.25)"),
            flag!("experts", "N", "panel size (default 7)"),
            flag!("seed", "N", "panel seed (default 2015)"),
        ],
        run: cmd_select,
    },
    CommandSpec {
        name: "consistency",
        summary: "Cross-workload ranking-consistency study",
        actions: &[],
        flags: &[
            flag!("units", "N", "workload size (default 400)"),
            flag!("seed", "N", "experiment seed (default 2015)"),
        ],
        run: cmd_consistency,
    },
    CommandSpec {
        name: "report",
        summary: "Full campaign report as Markdown on stdout",
        actions: &[],
        flags: &[flag!("seed", "N", "experiment seed (default 2015)")],
        run: cmd_report,
    },
    CommandSpec {
        name: "recommend",
        summary: "Recommend a benchmark metric for YOUR scenario",
        actions: &[],
        flags: &[
            flag!(
                "fp-cost",
                "F",
                "cost of triaging one false positive (default 1)"
            ),
            flag!(
                "fn-cost",
                "F",
                "cost of one missed vulnerability (default 5)"
            ),
            flag!(
                "prevalence",
                "F",
                "fraction of vulnerable units in (0, 1) (default 0.2)"
            ),
        ],
        run: cmd_recommend,
    },
    CommandSpec {
        name: "serve",
        summary: "Serve campaigns over HTTP from the content-addressed blob store",
        actions: &[],
        flags: &[
            flag!("addr", "HOST:PORT", "bind address (default 127.0.0.1:7071)"),
            flag!(
                "cache-dir",
                "DIR",
                "blob store directory, shared with campaign (default target/vdbench-cache)"
            ),
            flag!(
                "max-inflight",
                "N",
                "concurrent cold computations before 429 (default 64)"
            ),
            flag!(
                "client-budget",
                "N",
                "per-client step budget (default unmetered)"
            ),
        ],
        run: cmd_serve,
    },
    CommandSpec {
        name: "loadgen",
        summary: "Drive a running server with seeded mixed traffic, write BENCH_serve.json",
        actions: &[],
        flags: &[
            flag!(
                "addr",
                "HOST:PORT",
                "server to drive (default 127.0.0.1:7071)"
            ),
            flag!("duration-secs", "F", "measured-phase duration (default 3)"),
            flag!(
                "connections",
                "N",
                "concurrent client connections (default 8)"
            ),
            flag!("seed", "N", "request-pool seed (default 2015)"),
            flag!(
                "pool-scans",
                "N",
                "distinct scan requests in the pool (default 64)"
            ),
            flag!(
                "artifacts",
                "on|off",
                "include campaign artifacts in the pool (default off)"
            ),
            flag!("out", "FILE", "record path (default BENCH_serve.json)"),
            flag!(
                "perf-history",
                "DIR",
                "append this run to the perfwatch ledger in DIR"
            ),
        ],
        run: cmd_loadgen,
    },
    CommandSpec {
        name: "perfwatch",
        summary: "Statistical perf-regression gate over the BENCH_* history (DESIGN.md §17)",
        actions: &["check", "update"],
        flags: &[
            flag!(
                "history",
                "DIR",
                "perfwatch ledger directory (default results/perf-history)"
            ),
            flag!(
                "source",
                "NAME",
                "restrict to one source: kernels|campaign|scale|serve"
            ),
            flag!(
                "alpha",
                "F",
                "family-wise significance level (default 0.05)"
            ),
            flag!(
                "min-effect",
                "F",
                "minimum relative delta to flag, as a fraction (default 0.05)"
            ),
            flag!(
                "replicates",
                "N",
                "bootstrap replicates per series (default 2000)"
            ),
            flag!(
                "rounds",
                "N",
                "permutation rounds per series (default 2000)"
            ),
            flag!(
                "level",
                "F",
                "confidence level for intervals (default 0.95)"
            ),
            flag!(
                "out",
                "FILE",
                "trend table path for `check` (default perfwatch-trend.md)"
            ),
            flag!(
                "note",
                "TEXT",
                "provenance note recorded by `update` (why re-baseline?)"
            ),
        ],
        run: cmd_perfwatch,
    },
];

/// Builds the usage text from [`COMMANDS`].
fn usage() -> String {
    let mut text = String::from(
        "vdbench — benchmarking vulnerability detection tools (DSN'15 reproduction)\n\n\
         USAGE:\n    vdbench <command> [--flag value]...\n\nCOMMANDS:\n",
    );
    for cmd in COMMANDS {
        text.push_str(&format!("    {:<12} {}\n", cmd.name, cmd.summary));
        if !cmd.actions.is_empty() {
            let action = format!("<{}>", cmd.actions.join("|"));
            text.push_str(&format!("        {action:<24} required action\n"));
        }
        for f in cmd.flags {
            let flag = format!("--{} {}", f.name, f.placeholder);
            text.push_str(&format!("        {flag:<24} {}\n", f.help));
        }
    }
    text.push_str("    help         Show this message\n");
    text
}

/// Classic Levenshtein edit distance (both inputs are short).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let substitute = prev[j] + usize::from(ca != cb);
            row.push(substitute.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The closest candidate within a sane typo distance, if any.
fn nearest<'a>(input: &str, candidates: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    candidates
        .map(|c| (edit_distance(input, c), c))
        .min()
        .filter(|&(d, c)| d <= (c.len() / 2).max(2))
        .map(|(_, c)| c)
}

/// Exit code for usage errors (unknown command/flag, malformed syntax).
const USAGE_ERROR: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(USAGE_ERROR);
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(spec) = COMMANDS.iter().find(|c| c.name == command.as_str()) else {
        let suggestion = nearest(command, COMMANDS.iter().map(|c| c.name))
            .map(|n| format!(" (did you mean `{n}`?)"))
            .unwrap_or_default();
        eprintln!(
            "error: unknown command `{command}`{suggestion}\n\n{}",
            usage()
        );
        return ExitCode::from(USAGE_ERROR);
    };
    // Commands with actions take one as their first positional argument
    // (`vdbench perfwatch check --alpha 0.01`); everything after it is
    // ordinary `--key value` flags.
    let (action, flag_args) = if spec.actions.is_empty() {
        (None, rest)
    } else {
        match rest.split_first() {
            Some((a, tail)) if !a.starts_with("--") => {
                if !spec.actions.contains(&a.as_str()) {
                    let suggestion = nearest(a, spec.actions.iter().copied())
                        .map(|n| format!(" (did you mean `{n}`?)"))
                        .unwrap_or_default();
                    eprintln!(
                        "error: unknown action `{a}` for `{}`{suggestion}: \
                         expected one of {}",
                        spec.name,
                        spec.actions.join(", ")
                    );
                    return ExitCode::from(USAGE_ERROR);
                }
                (Some(a.clone()), tail)
            }
            _ => {
                eprintln!(
                    "error: `{}` needs an action: {}\n\n{}",
                    spec.name,
                    spec.actions.join("|"),
                    usage()
                );
                return ExitCode::from(USAGE_ERROR);
            }
        }
    };
    let mut flags = match parse_flags(flag_args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(USAGE_ERROR);
        }
    };
    for name in flags.keys() {
        if !spec.flags.iter().any(|f| f.name == name) {
            let suggestion = nearest(name, spec.flags.iter().map(|f| f.name))
                .map(|n| format!(" (did you mean --{n}?)"))
                .unwrap_or_default();
            eprintln!(
                "error: unknown flag --{name} for `{}`{suggestion}\n\
                 run `vdbench help` for the full flag table",
                spec.name
            );
            return ExitCode::from(USAGE_ERROR);
        }
    }
    // Inserted after the unknown-flag sweep: `action` is a reserved key
    // carrying the validated positional, not a user-facing flag.
    if let Some(a) = action {
        flags.insert("action".to_string(), a);
    }
    match (spec.run)(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--key value` pairs; rejects stray positionals and dangling keys.
fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!(
                "unexpected argument `{key}` (flags are --key value)"
            ));
        };
        let Some(value) = it.next() else {
            return Err(format!("flag --{name} is missing a value"));
        };
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag_usize(flags: &Flags, name: &str, default: usize) -> Result<usize, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects an integer, got `{v}`")),
    }
}

fn flag_u64(flags: &Flags, name: &str, default: u64) -> Result<u64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects an integer, got `{v}`")),
    }
}

fn flag_on_off(flags: &Flags, name: &str, default: bool) -> Result<bool, String> {
    match flags.get(name).map(String::as_str) {
        None => Ok(default),
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        Some(v) => Err(format!("--{name} expects on|off, got `{v}`")),
    }
}

fn flag_f64(flags: &Flags, name: &str, default: f64) -> Result<f64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects a number, got `{v}`")),
    }
}

/// Loads a corpus from `--corpus FILE` when given, otherwise generates one
/// from the numeric flags.
fn load_or_build_corpus(flags: &Flags) -> Result<vdbench::corpus::Corpus, String> {
    if let Some(path) = flags.get("corpus") {
        let json = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read corpus file {path}: {e}"))?;
        return serde_json::from_str(&json)
            .map_err(|e| format!("cannot parse corpus file {path}: {e}"));
    }
    build_corpus(flags)
}

/// Configures a [`CorpusBuilder`] from the numeric generator flags.
fn corpus_builder(flags: &Flags) -> Result<CorpusBuilder, String> {
    let units = flag_usize(flags, "units", 200)?;
    let density = flag_f64(flags, "density", 0.3)?;
    let seed = flag_u64(flags, "seed", 2015)?;
    let stored_rate = flag_f64(flags, "stored-rate", 0.12)?;
    if !(0.0..=1.0).contains(&density) {
        return Err("--density must be in [0, 1]".into());
    }
    if !(0.0..=1.0).contains(&stored_rate) {
        return Err("--stored-rate must be in [0, 1]".into());
    }
    Ok(CorpusBuilder::new()
        .units(units)
        .vulnerability_density(density)
        .stored_rate(stored_rate)
        .seed(seed)
        .clone())
}

fn build_corpus(flags: &Flags) -> Result<vdbench::corpus::Corpus, String> {
    Ok(corpus_builder(flags)?.build())
}

/// Reports a usage error found inside a command (a name outside a fixed
/// table, or flags that cannot be combined) and exits with [`USAGE_ERROR`].
fn usage_exit(message: &str) -> ! {
    eprintln!("error: {message}\nrun `vdbench help` for the full flag table");
    std::process::exit(i32::from(USAGE_ERROR));
}

/// Default base seed of the fault decision streams (see
/// `vdbench_detectors::fault`): fixed so CI transcripts are reproducible,
/// distinct from the experiment seed so faults and workloads vary
/// independently.
const DEFAULT_FAULT_SEED: u64 = 0xFA_2015;

/// Renders the campaign artifacts to stdout, byte-identical to
/// `results/run_all.txt` at any thread count and whatever diagnostics are
/// requested: timings, traces and fault reports go to stderr or files.
///
/// Expensive intermediates are shared through the process-wide campaign
/// cache and, unless `--disk-cache off`, persisted as content-addressed
/// blobs under `--cache-dir`, so a rerun replays them. An active
/// `--fault-profile` wraps every roster tool in the deterministic
/// fault-injection proxy, runs the case studies through the resilient
/// engine (DESIGN.md §12) and appends a seventeenth `availability`
/// artifact. `--perf-history DIR` (or `VDBENCH_PERF_HISTORY`) appends a
/// `--timings on` run to the perfwatch ledger (DESIGN.md §17).
fn cmd_campaign(flags: &Flags) -> Result<(), String> {
    use vdbench::detectors::{FaultConfig, FaultProfile};
    use vdbench_bench::timing::CampaignTiming;
    use vdbench_bench::EXPERIMENT_SEED;
    let timings = flag_on_off(flags, "timings", false)?;
    let selfcheck = flag_on_off(flags, "telemetry-selfcheck", false)?;
    let disk_cache = flag_on_off(flags, "disk-cache", true)?;
    let trace_out = flags.get("trace-out");
    let fault_profile: FaultProfile = match flags.get("fault-profile") {
        Some(v) => v.parse().unwrap_or_else(|e: String| usage_exit(&e)),
        None => FaultProfile::None,
    };
    let fault_seed = match flags.get("fault-seed") {
        Some(v) => v
            .parse()
            .unwrap_or_else(|e| usage_exit(&format!("invalid --fault-seed '{v}': {e}"))),
        None => DEFAULT_FAULT_SEED,
    };
    let faults_on = fault_profile != FaultProfile::None;
    let mut list = vdbench_bench::ARTIFACTS.to_vec();
    if faults_on {
        // The seventeenth artifact discloses per-tool scan outcomes; it
        // exists only under an active profile so the fault-free
        // transcript stays byte-identical to the historical output.
        list.push(("availability", vdbench_bench::tables::availability));
    }
    if let Some(name) = flags.get("artifact") {
        if timings {
            usage_exit(
                "--timings on times the whole campaign; it cannot be combined with --artifact",
            );
        }
        let names = || list.iter().map(|(n, _)| *n);
        if !names().any(|n| n == name) {
            let suggestion = nearest(name, names())
                .map(|n| format!(" (did you mean `{n}`?)"))
                .unwrap_or_default();
            let known: Vec<&str> = names().collect();
            usage_exit(&format!(
                "unknown artifact `{name}`{suggestion}: expected one of {}",
                known.join(", ")
            ));
        }
        list.retain(|(n, _)| n == name);
    }
    if flags.contains_key("perf-history") && !timings {
        usage_exit("--perf-history records a --timings on run; pass --timings on too");
    }
    let perf_history = flags
        .get("perf-history")
        .map(std::path::PathBuf::from)
        .or_else(vdbench_perfwatch::env_dir);
    let cache_dir = std::path::PathBuf::from(
        flags
            .get("cache-dir")
            .map_or("target/vdbench-cache", String::as_str),
    );

    let telemetry_on = timings || trace_out.is_some();
    if telemetry_on {
        vdbench_telemetry::enable();
    }
    if faults_on {
        // Ambient configuration: every cached case study from here on
        // runs the resilient engine with fault-wrapped tools. Diagnostics
        // to stderr only — stdout layout stays position-for-position
        // comparable across profiles.
        vdbench::core::set_fault_injection(Some(FaultConfig::new(fault_profile, fault_seed)));
        eprintln!(
            "fault injection active: profile {fault_profile}, fault seed {fault_seed:#x} \
             (resilient engine, 3 attempts per scan)"
        );
    }
    if disk_cache {
        // Persistent artifact cache: memory-tier misses consult the
        // content-addressed blob store before computing. Opening the
        // store sweeps blobs from other schema versions; if the
        // directory cannot be created the campaign silently degrades to
        // the memory tier.
        vdbench::core::set_disk_cache(Some(cache_dir.clone()));
        if vdbench::core::disk_cache_dir().is_none() {
            eprintln!(
                "disk cache disabled: could not create {}",
                cache_dir.display()
            );
        }
    }

    for text in vdbench_bench::render_campaign(&list) {
        println!("{text}");
    }

    if telemetry_on {
        let trace = vdbench_telemetry::take_trace();
        let metrics = vdbench_telemetry::registry::global().snapshot();
        vdbench_telemetry::disable();
        if timings {
            let mut record = CampaignTiming::from_telemetry(EXPERIMENT_SEED, &trace, &metrics);
            if let Some(dir) = vdbench::core::disk_cache_dir() {
                // Cold/warm bookkeeping: the first `--timings on` campaign
                // against a cache directory persists its wall-clock as
                // the cold baseline (keyed on schema version and fault
                // fingerprint, like the blobs); later campaigns report
                // the pair, whose ratio is the measured disk-cache
                // speedup.
                let fault_fp = vdbench::core::fault_injection().map_or(0, |c| c.fingerprint());
                let baseline = dir.join(format!(
                    "campaign-baseline-v{}-{fault_fp:016x}.txt",
                    vdbench::core::CACHE_SCHEMA_VERSION
                ));
                match std::fs::read_to_string(&baseline)
                    .ok()
                    .and_then(|text| text.trim().parse::<f64>().ok())
                {
                    Some(cold) => {
                        record.cold_millis = Some(cold);
                        record.warm_millis = Some(record.total_millis);
                    }
                    None => {
                        record.cold_millis = Some(record.total_millis);
                        let _ = std::fs::write(&baseline, format!("{:?}\n", record.total_millis));
                    }
                }
            }
            eprint!("{}", record.render());
            eprint!("{}", vdbench_telemetry::export::summary(&trace, &metrics));
            let path = "BENCH_campaign.json";
            match std::fs::write(path, record.to_json()) {
                Ok(()) => eprintln!("timing record written to {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
            if let Some(dir) = &perf_history {
                if faults_on {
                    // Faulty campaigns time retries and degradation paths;
                    // their distribution is not comparable to clean runs.
                    eprintln!("perf history capture skipped under fault profile {fault_profile}");
                } else {
                    append_campaign_history(dir, &record);
                }
            }
        }
        if let Some(path) = trace_out {
            let json = vdbench_telemetry::export::chrome_trace_json(&trace);
            match std::fs::write(path, json) {
                Ok(()) => eprintln!("chrome trace written to {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
    }

    if selfcheck {
        // Zero-overhead guard: a campaign that never enabled telemetry
        // must not have recorded a single span event.
        let events = vdbench_telemetry::events_recorded();
        if telemetry_on {
            eprintln!("telemetry self-check skipped: recording was explicitly enabled");
        } else if events == 0 {
            eprintln!("telemetry self-check passed: 0 events recorded while disabled");
        } else {
            return Err(format!(
                "telemetry self-check FAILED: {events} events recorded while disabled"
            ));
        }
    }
    Ok(())
}

/// Appends the campaign timing to the perf-history ledger. The gated
/// series is `warm_over_cold` — the disk-cache replay ratio measured
/// in-process against this run's own cold baseline (bound 0.2, the
/// statistical form of the old "warm must be ≥ 5× faster" floor). The
/// absolute wall-clock and RSS numbers are advisory: CI hardware differs
/// from the baseline-recording host.
fn append_campaign_history(dir: &std::path::Path, record: &vdbench_bench::timing::CampaignTiming) {
    use vdbench_perfwatch::{append_entry, now_ms, RunEntry, Series};
    let mut series = vec![Series::delta(
        "total_millis",
        "ms",
        "lower",
        false,
        vec![record.total_millis],
    )];
    if let (Some(cold), Some(warm)) = (record.cold_millis, record.warm_millis) {
        if cold > 0.0 {
            series.push(Series::bounded(
                "warm_over_cold",
                "ratio",
                "lower",
                true,
                vec![warm / cold],
                0.2,
            ));
        }
    }
    if record.peak_rss_kb > 0 {
        series.push(Series::delta(
            "peak_rss_kb",
            "kB",
            "lower",
            false,
            vec![record.peak_rss_kb as f64],
        ));
    }
    let entry = RunEntry {
        source: "campaign".to_string(),
        unix_ms: now_ms(),
        label: "campaign --timings on".to_string(),
        provenance: String::new(),
        baseline: false,
        series,
    };
    match append_entry(dir, &entry) {
        Ok(path) => eprintln!("appended perf history to {}", path.display()),
        Err(e) => eprintln!("perf history append failed: {e}"),
    }
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let corpus = build_corpus(flags)?;
    let show = flag_usize(flags, "show", 0)?;
    if let Some(path) = flags.get("out") {
        let json =
            serde_json::to_string(&corpus).map_err(|e| format!("cannot serialize corpus: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("corpus saved to {path}");
    }
    let stats = corpus.stats();
    println!(
        "corpus: {} units / {} sites, {} vulnerable ({:.1}% prevalence), {} statements, seed {:#x}",
        stats.units,
        stats.sites,
        stats.vulnerable_sites,
        stats.prevalence * 100.0,
        stats.total_statements,
        corpus.seed(),
    );
    println!("\nby class:");
    for (class, count) in &stats.by_class {
        println!(
            "  {:32} {:>4} sites, {:>3} vulnerable",
            class.to_string(),
            count.total,
            count.vulnerable
        );
    }
    println!("\nby flow shape:");
    for (shape, count) in &stats.by_shape {
        println!("  {shape:?}: {count}");
    }
    for unit in corpus.units().iter().take(show) {
        println!("\n{}", unit_to_string(unit));
    }
    Ok(())
}

/// Prints a scan summary: confusion line, metric table, findings preview.
/// The monolithic and streamed scan paths both feed this one printer,
/// which is what keeps `--shard-units` output byte-identical.
fn print_scan_report(
    tool: &str,
    sites: u64,
    cm: &ConfusionMatrix,
    findings_total: u64,
    preview: &[vdbench::detectors::Finding],
) {
    println!("{tool} on {sites} cases: {cm}");
    for metric in default_candidates() {
        use vdbench::metrics::metric::MetricExt;
        let v = metric.compute_or_nan(cm);
        println!(
            "  {:8} {}",
            metric.abbrev(),
            vdbench::report::format::metric(v)
        );
    }
    println!("\n{findings_total} findings; first three:");
    for f in preview.iter().take(3) {
        println!(
            "  {} [{}] {}",
            f.site,
            f.class.map(|c| c.name()).unwrap_or("?"),
            f.rationale
        );
    }
}

/// Parses `--scan-threads`, defaulting to the ambient rayon pool width.
fn scan_threads(flags: &Flags) -> Result<usize, String> {
    let threads = flag_usize(flags, "scan-threads", vdbench::core::default_scan_threads())?;
    if threads == 0 {
        return Err("--scan-threads must be positive".into());
    }
    Ok(threads)
}

fn cmd_scan(flags: &Flags) -> Result<(), String> {
    let tool_name = flags
        .get("tool")
        .ok_or("scan needs --tool (see `vdbench help`)")?;
    let tool = vdbench::server::tool_by_name(tool_name)
        .ok_or_else(|| format!("unknown tool `{tool_name}` (see `vdbench help`)"))?;
    if let Some(value) = flags.get("shard-units") {
        // Streamed path: generate and scan in fixed-memory shards.
        if flags.contains_key("corpus") {
            return Err(
                "--shard-units streams a generated corpus; it cannot be combined with --corpus"
                    .into(),
            );
        }
        let shard_units: usize = value
            .parse()
            .map_err(|_| format!("--shard-units expects an integer, got `{value}`"))?;
        if shard_units == 0 {
            return Err("--shard-units must be positive".into());
        }
        if let Some(dir) = flags.get("cache-dir") {
            vdbench::core::set_disk_cache(Some(std::path::PathBuf::from(dir)));
        }
        let threads = scan_threads(flags)?;
        let builder = corpus_builder(flags)?;
        let report = vdbench::core::streamed_scan_with_threads(
            tool.as_ref(),
            &builder,
            shard_units,
            threads,
        );
        print_scan_report(
            &report.tool,
            report.sites,
            &report.confusion,
            report.findings,
            &report.preview,
        );
        eprintln!(
            "scan: {} units in {} shards, {} rescanned, {} replayed, {} digest hits",
            report.units, report.shards, report.rescanned, report.replayed, report.digest_hits
        );
        return Ok(());
    }
    let corpus = load_or_build_corpus(flags)?;
    let outcome = score_detector(tool.as_ref(), &corpus);
    let cm = outcome.confusion();
    // Show a couple of findings with their rationale.
    let findings = tool.analyze_corpus(&corpus);
    print_scan_report(
        outcome.tool(),
        corpus.site_count() as u64,
        &cm,
        findings.len() as u64,
        &findings,
    );
    Ok(())
}

fn cmd_scale(flags: &Flags) -> Result<(), String> {
    use std::time::Instant;
    use vdbench::core::{streamed_scan_with_threads, ScaleDelta, ScalePoint, ScaleRecord};
    let list = flags
        .get("units")
        .map(String::as_str)
        .unwrap_or("10000,100000");
    let mut sizes: Vec<usize> = Vec::new();
    for part in list.split(',') {
        let n: usize = part.trim().parse().map_err(|_| {
            format!("--units expects a comma-separated list of integers, got `{part}`")
        })?;
        if n == 0 {
            return Err("--units entries must be positive".into());
        }
        sizes.push(n);
    }
    if !sizes.windows(2).all(|w| w[0] < w[1]) {
        return Err(
            "--units must be strictly ascending (the kernel's VmHWM high-water mark is \
             monotonic, so memory curves are only meaningful over increasing sizes)"
                .into(),
        );
    }
    let shard_units = flag_usize(flags, "shard-units", vdbench::core::DEFAULT_SHARD_UNITS)?;
    if shard_units == 0 {
        return Err("--shard-units must be positive".into());
    }
    let tool_name = flags.get("tool").map(String::as_str).unwrap_or("pattern");
    let tool = vdbench::server::tool_by_name(tool_name)
        .ok_or_else(|| format!("unknown tool `{tool_name}` (see `vdbench help`)"))?;
    let seed = flag_u64(flags, "seed", 2015)?;
    let density = flag_f64(flags, "density", 0.3)?;
    if !(0.0..=1.0).contains(&density) {
        return Err("--density must be in [0, 1]".into());
    }
    let delta = flag_usize(flags, "delta", 0)?;
    let threads = scan_threads(flags)?;
    let cache_dir = flags
        .get("cache-dir")
        .cloned()
        .unwrap_or_else(|| "target/vdbench-scale-cache".to_string());
    vdbench::core::set_disk_cache(Some(std::path::PathBuf::from(&cache_dir)));
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "BENCH_scale.json".to_string());
    let assert_flat = match flags.get("assert-flat") {
        None => None,
        Some(v) => Some(
            v.parse::<f64>()
                .map_err(|_| format!("--assert-flat expects a number, got `{v}`"))?,
        ),
    };
    let builder_for = |units: usize| {
        CorpusBuilder::new()
            .units(units)
            .vulnerability_density(density)
            .seed(seed)
            .clone()
    };
    // Wall-clock and RSS go to stderr and the JSON record only: stdout is
    // deterministic, so two runs of the same curve diff byte-identically.
    let mut points: Vec<ScalePoint> = Vec::new();
    for &n in &sizes {
        let start = Instant::now();
        let report =
            streamed_scan_with_threads(tool.as_ref(), &builder_for(n), shard_units, threads);
        let wall_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
        let peak_rss_kb = vdbench::telemetry::peak_rss_kb().unwrap_or(0);
        let c = &report.confusion;
        // Digest hits stay off stdout: warm hit counts vary with the
        // shard size, and stdout must diff byte-identically across
        // shard sizes (and thread counts).
        println!(
            "scale: units={} sites={} tp={} fp={} fn={} tn={} rescanned={} replayed={}",
            report.units, report.sites, c.tp, c.fp, c.fn_, c.tn, report.rescanned, report.replayed
        );
        eprintln!(
            "  {} shards of {shard_units} on {threads} thread(s): {wall_ms} ms, peak RSS \
             {peak_rss_kb} kB, {} digest hits",
            report.shards, report.digest_hits
        );
        points.push(ScalePoint {
            units: report.units,
            sites: report.sites,
            shards: report.shards,
            wall_ms,
            peak_rss_kb,
            rescanned: report.rescanned,
            replayed: report.replayed,
            digest_hits: report.digest_hits,
        });
    }
    let mut delta_record = None;
    if delta > 0 {
        let base = *sizes.last().expect("sizes is non-empty");
        let grown = base + delta;
        let start = Instant::now();
        let report =
            streamed_scan_with_threads(tool.as_ref(), &builder_for(grown), shard_units, threads);
        let wall_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
        if report.replayed == 0 {
            return Err(format!(
                "delta rerun replayed nothing — the base run's manifests were not found \
                 in {cache_dir}"
            ));
        }
        println!(
            "scale delta: base={base} grown={grown} rescanned={} replayed={}",
            report.rescanned, report.replayed
        );
        eprintln!(
            "  delta rerun: {wall_ms} ms, {} digest hits",
            report.digest_hits
        );
        delta_record = Some(ScaleDelta {
            base_units: base as u64,
            grown_units: grown as u64,
            rescanned: report.rescanned,
            replayed: report.replayed,
            digest_hits: report.digest_hits,
            wall_ms,
        });
    }
    let record = ScaleRecord {
        tool: tool.name(),
        seed,
        shard_units: shard_units as u64,
        threads: threads as u64,
        points,
        delta: delta_record,
    };
    let json = serde_json::to_string_pretty(&record)
        .map_err(|e| format!("cannot serialize scale record: {e}"))?;
    std::fs::write(&out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("record written to {out}");
    let perf_dir = flags
        .get("perf-history")
        .map(std::path::PathBuf::from)
        .or_else(vdbench_perfwatch::env_dir);
    if let Some(dir) = perf_dir {
        append_scale_history(&dir, &record, assert_flat)?;
    }
    if let Some(factor) = assert_flat {
        let (first, last) = (
            record
                .points
                .first()
                .ok_or("--assert-flat needs at least one point")?,
            record.points.last().expect("points is non-empty"),
        );
        if first.peak_rss_kb > 0 {
            let ratio = last.peak_rss_kb as f64 / first.peak_rss_kb as f64;
            if ratio > factor {
                return Err(format!(
                    "peak RSS grew {ratio:.2}x from {} to {} units (limit {factor}x)",
                    first.units, last.units
                ));
            }
            eprintln!(
                "flat-memory check: peak RSS {ratio:.2}x from {} to {} units (limit {factor}x)",
                first.units, last.units
            );
        }
    }
    Ok(())
}

/// Append the scale run to the perfwatch ledger. Memory growth across the
/// curve is the gated series (a ratio is comparable across machines); raw
/// wall-clock and RSS ride along as advisory context.
fn append_scale_history(
    dir: &std::path::Path,
    record: &vdbench::core::ScaleRecord,
    assert_flat: Option<f64>,
) -> Result<(), String> {
    use vdbench_perfwatch::{append_entry, now_ms, RunEntry, Series};
    let mut series = Vec::new();
    if let (Some(first), Some(last)) = (record.points.first(), record.points.last()) {
        if record.points.len() >= 2 && first.peak_rss_kb > 0 {
            series.push(Series::bounded(
                "rss_growth",
                "ratio",
                "lower",
                true,
                vec![last.peak_rss_kb as f64 / first.peak_rss_kb as f64],
                assert_flat.unwrap_or(1.5),
            ));
        }
        series.push(Series::delta(
            "wall_ms",
            "ms",
            "lower",
            false,
            vec![last.wall_ms as f64],
        ));
        if last.peak_rss_kb > 0 {
            series.push(Series::delta(
                "peak_rss_kb",
                "kB",
                "lower",
                false,
                vec![last.peak_rss_kb as f64],
            ));
        }
    }
    if let Some(d) = &record.delta {
        // The warm incremental rerun is the latency the digest replay
        // path exists to protect — gate it.
        series.push(Series::delta(
            "warm_delta_ms",
            "ms",
            "lower",
            true,
            vec![d.wall_ms as f64],
        ));
    }
    let entry = RunEntry {
        source: "scale".to_string(),
        unix_ms: now_ms(),
        label: "scale".to_string(),
        provenance: String::new(),
        baseline: false,
        series,
    };
    let path = append_entry(dir, &entry)
        .map_err(|e| format!("cannot append perf history in {}: {e}", dir.display()))?;
    eprintln!("perf history appended to {}", path.display());
    Ok(())
}

fn cmd_perfwatch(flags: &Flags) -> Result<(), String> {
    let action = flags
        .get("action")
        .map(String::as_str)
        .expect("main() always sets the action for perfwatch");
    let dir = std::path::PathBuf::from(
        flags
            .get("history")
            .cloned()
            .unwrap_or_else(|| "results/perf-history".to_string()),
    );
    match action {
        "update" => {
            let note = flags
                .get("note")
                .cloned()
                .unwrap_or_else(|| "re-baselined via vdbench perfwatch update".to_string());
            let source = flags.get("source").map(String::as_str);
            let flipped = vdbench_perfwatch::rebaseline_source(&dir, &note, source)
                .map_err(|e| format!("cannot re-baseline {}: {e}", dir.display()))?;
            if flipped == 0 {
                return Err(match source {
                    Some(s) => format!("no `{s}` history to re-baseline in {}", dir.display()),
                    None => format!("no history to re-baseline in {}", dir.display()),
                });
            }
            println!(
                "re-baselined {flipped} ledger file(s) in {} ({note})",
                dir.display()
            );
            Ok(())
        }
        "check" => {
            let config = vdbench_perfwatch::Config {
                alpha: flag_f64(flags, "alpha", 0.05)?,
                min_effect: flag_f64(flags, "min-effect", 0.05)?,
                replicates: flag_usize(flags, "replicates", 2000)?,
                rounds: flag_usize(flags, "rounds", 2000)?,
                level: flag_f64(flags, "level", 0.95)?,
                source: flags.get("source").cloned(),
            };
            let entries = vdbench_perfwatch::load_dir(&dir)
                .map_err(|e| format!("cannot load perf history from {}: {e}", dir.display()))?;
            if entries.is_empty() {
                return Err(format!(
                    "no perf history in {} — run the benches with --perf-history \
                     (or VDBENCH_PERF_HISTORY) first",
                    dir.display()
                ));
            }
            let analysis = vdbench_perfwatch::analyze(&entries, &config);
            let out = flags
                .get("out")
                .cloned()
                .unwrap_or_else(|| "perfwatch-trend.md".to_string());
            let trend = vdbench_perfwatch::render::trend_markdown(&analysis);
            std::fs::write(&out, &trend).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("trend table written to {out}");
            let summary = vdbench_perfwatch::render::summary_line(&analysis);
            if analysis.failed() {
                Err(summary)
            } else {
                println!("{summary}");
                Ok(())
            }
        }
        other => Err(format!("unreachable action `{other}`")),
    }
}

fn cmd_cache(flags: &Flags) -> Result<(), String> {
    let dir = flags
        .get("dir")
        .cloned()
        .unwrap_or_else(|| "target/vdbench-cache".to_string());
    let gc = flag_on_off(flags, "gc", false)?;
    let path = std::path::Path::new(&dir);
    let inv = vdbench::core::blob_inventory_in(path);
    println!(
        "blob store {dir}: {} live blobs, {} bytes",
        inv.live_count(),
        inv.live_bytes()
    );
    for (kind, (count, bytes)) in &inv.kinds {
        println!("  {kind:<10} {count:>6} blobs {bytes:>12} bytes");
    }
    if inv.stale.0 > 0 {
        println!(
            "  {:<10} {:>6} blobs {:>12} bytes (older schema)",
            "stale", inv.stale.0, inv.stale.1
        );
    }
    if inv.tmp.0 > 0 {
        println!(
            "  {:<10} {:>6} files {:>12} bytes (abandoned writes)",
            "tmp", inv.tmp.0, inv.tmp.1
        );
    }
    if gc {
        let (files, bytes) = vdbench::core::gc_dir(path);
        println!("gc: removed {files} files, {bytes} bytes reclaimed");
    }
    Ok(())
}

fn cmd_bench(flags: &Flags) -> Result<(), String> {
    let seed = flag_u64(flags, "seed", 2015)?;
    let wanted = flags.get("scenario").map(String::as_str);
    for scenario in standard_scenarios() {
        if let Some(w) = wanted {
            if !scenario.id.label().eq_ignore_ascii_case(w) {
                continue;
            }
        }
        let report = run_case_study(&scenario, seed).map_err(|e| e.to_string())?;
        println!(
            "{}",
            report
                .to_table(&format!("{} — {}", scenario.id, scenario.name))
                .render_ascii()
        );
    }
    Ok(())
}

fn cmd_select(flags: &Flags) -> Result<(), String> {
    let noise = flag_f64(flags, "noise", 0.25)?;
    let experts = flag_usize(flags, "experts", 7)?;
    let seed = flag_u64(flags, "seed", 2015)?;
    let selector = MetricSelector::new(default_candidates(), AssessmentConfig::default())
        .map_err(|e| e.to_string())?;
    for scenario in standard_scenarios() {
        let panel = Panel::homogeneous(&scenario.weight_vector(), experts, noise, seed);
        let outcome = selector
            .select(&scenario, &panel)
            .map_err(|e| e.to_string())?;
        let names: Vec<&str> = selector.candidates().iter().map(|m| m.abbrev()).collect();
        println!(
            "{}: analytical {} | MCDA {} (τ {:.2}, CR {})",
            scenario.id,
            names[outcome.analytical_ranking[0]],
            names[outcome.mcda_ranking[0]],
            outcome.agreement_tau,
            outcome
                .consistency_ratio
                .map(|c| format!("{c:.3}"))
                .unwrap_or_else(|| "—".into()),
        );
    }
    Ok(())
}

fn cmd_recommend(flags: &Flags) -> Result<(), String> {
    let fp_cost = flag_f64(flags, "fp-cost", 1.0)?;
    let fn_cost = flag_f64(flags, "fn-cost", 5.0)?;
    let prevalence = flag_f64(flags, "prevalence", 0.2)?;
    if fp_cost <= 0.0 || fn_cost <= 0.0 {
        return Err("--fp-cost and --fn-cost must be positive".into());
    }
    if !(prevalence > 0.0 && prevalence < 1.0) {
        return Err("--prevalence must be in (0, 1)".into());
    }
    let scenario = vdbench::core::Scenario::custom(fp_cost, fn_cost, prevalence);
    println!("{}\n", scenario.description);
    let selector = MetricSelector::new(default_candidates(), AssessmentConfig::default())
        .map_err(|e| e.to_string())?;
    let (scores, ranking) = selector.analytical(&scenario);
    println!("recommended metrics (best first):");
    for (rank, &i) in ranking.iter().take(5).enumerate() {
        let m = &selector.candidates()[i];
        println!(
            "  {}. {:8} (score {:.3}) — {}",
            rank + 1,
            m.abbrev(),
            scores[i],
            m.name()
        );
    }
    Ok(())
}

fn cmd_report(flags: &Flags) -> Result<(), String> {
    let seed = flag_u64(flags, "seed", 2015)?;
    let report = vdbench::core::campaign::markdown_report(seed).map_err(|e| e.to_string())?;
    println!("{report}");
    Ok(())
}

fn cmd_consistency(flags: &Flags) -> Result<(), String> {
    let units = flag_usize(flags, "units", 400)?;
    let seed = flag_u64(flags, "seed", 2015)?;
    let cfg = ConsistencyConfig {
        units,
        seed,
        ..ConsistencyConfig::default()
    };
    let tools = standard_tools(seed);
    let metrics = default_candidates();
    let results = cross_workload_consistency(&tools, &metrics, &cfg).map_err(|e| e.to_string())?;
    println!(
        "cross-workload consistency over densities {:?}:",
        cfg.densities
    );
    for r in results {
        println!(
            "  {:8} W = {:.3}  (Friedman p = {:.4}, {} workloads)",
            r.metric.to_string(),
            r.kendall_w,
            r.friedman_p,
            r.defined_workloads
        );
    }
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7071".to_string());
    let cache_dir = flags
        .get("cache-dir")
        .cloned()
        .unwrap_or_else(|| "target/vdbench-cache".to_string());
    let max_inflight = flag_usize(flags, "max-inflight", 64)?;
    let client_budget = match flags.get("client-budget") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("--client-budget expects an integer, got `{v}`"))?,
        ),
    };
    vdbench::core::set_disk_cache(Some(std::path::PathBuf::from(&cache_dir)));
    let handle = vdbench::server::start(vdbench::server::ServerConfig {
        addr,
        service: vdbench::server::ServiceConfig {
            max_inflight,
            client_budget,
            ..Default::default()
        },
    })
    .map_err(|e| format!("cannot bind server: {e}"))?;
    println!(
        "vdbench serve listening on {} (cache {cache_dir}, max-inflight {max_inflight}{})",
        handle.addr(),
        client_budget
            .map(|b| format!(", client-budget {b}"))
            .unwrap_or_default(),
    );
    handle.wait();
    Ok(())
}

fn cmd_loadgen(flags: &Flags) -> Result<(), String> {
    let artifacts = flag_on_off(flags, "artifacts", false)?;
    let cfg = vdbench::server::LoadgenConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7071".to_string()),
        duration_secs: flag_f64(flags, "duration-secs", 3.0)?,
        connections: flag_usize(flags, "connections", 8)?,
        seed: flag_u64(flags, "seed", 2015)?,
        pool_scans: flag_usize(flags, "pool-scans", 64)?,
        artifacts,
        out: Some(
            flags
                .get("out")
                .cloned()
                .unwrap_or_else(|| "BENCH_serve.json".to_string()),
        ),
        perf_history: flags
            .get("perf-history")
            .cloned()
            .or_else(|| vdbench_perfwatch::env_dir().map(|p| p.to_string_lossy().into_owned())),
    };
    let record = vdbench::server::loadgen::run(&cfg)
        .map_err(|e| format!("loadgen against {} failed: {e}", cfg.addr))?;
    println!(
        "seed pass: {} requests over {} keys in {:.2}s ({} cold, {} coalesced, {} errors)",
        record.seed_pass.requests,
        record.pool_size,
        record.seed_pass.duration_secs,
        record.seed_pass.cold_misses,
        record.seed_pass.coalesced,
        record.seed_pass.errors,
    );
    println!(
        "measured: {} requests in {:.2}s = {:.0} req/s, p50 {}µs, p99 {}µs, \
         warm-hit ratio {:.3}, {} errors",
        record.requests,
        record.duration_secs,
        record.throughput_rps,
        record.p50_us,
        record.p99_us,
        record.warm_hit_ratio,
        record.errors,
    );
    if let Some(out) = &cfg.out {
        println!("record written to {out}");
    }
    Ok(())
}
