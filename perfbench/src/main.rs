//! The repository benchmark: one command, two workloads, every
//! end-to-end metric by name and unit, and a separate traced run that
//! breaks each workload down by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign-cold|scan-stream \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. The last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it records the workload, seed and thread counts. With
//! `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]), with
//! `--trace 1` the per-layer set ([`PER_LAYER`]). See `README.md` in
//! this directory for why each workload exists and which layer metric
//! should move which end-to-end metric.

mod campaign;
mod probe;
mod scan;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;
use vdbench_telemetry::export::RawValue;

/// Worker threads for every parallel layer (`RAYON_NUM_THREADS`), shard
/// workers of the streamed scan (`--scan-threads`) and client
/// connections of the server pass: the core count of the reference box.
pub const THREADS: usize = 2;

/// End-to-end metrics, emitted by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cold_ms", "ms"),
    ("warm_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, emitted by every workload with `--trace 1`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    // campaign-cold
    ("bench.artifact_work_ms", "ms"),
    ("bench.artifact_max_ms", "ms"),
    ("bench.pool_busy_share", "ratio"),
    ("bench.peak_threads", "count"),
    ("core.case_study_ms", "ms"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.blob_writes", "count"),
    ("detectors.scan_unit_ms", "ms"),
    ("detectors.scan_units", "count"),
    ("detectors.sessions_deduped", "count"),
    ("corpus.vm_instructions", "count"),
    ("stats.kendall_ms", "ms"),
    ("stats.kendall_calls", "count"),
    ("stats.bootstrap_replicates", "count"),
    ("core.assess_ms", "ms"),
    ("mcda.ahp_ms", "ms"),
    // campaign-cold: the server pass over the campaign's store
    ("server.parse_us", "us"),
    ("server.key_us", "us"),
    ("server.blob_probe_us", "us"),
    ("server.handle_us", "us"),
    ("server.compute_ms", "ms"),
    ("server.coalesced", "count"),
    ("server.warm_hit_ratio", "ratio"),
    ("server.shed", "count"),
    ("server.max_rps", "1/s"),
    ("loadgen.p50_ms", "ms"),
    ("loadgen.p99_ms", "ms"),
    ("loadgen.cold_p50_ms", "ms"),
    ("loadgen.warm_p50_ms", "ms"),
    ("loadgen.lateness_p99_ms", "ms"),
    // scan-stream
    ("corpus.plan_ms", "ms"),
    ("corpus.materialize_ms", "ms"),
    ("detectors.analyze_shard_ms", "ms"),
    ("detectors.score_ms", "ms"),
    ("core.blob_write_ms", "ms"),
    ("core.blob_read_ms", "ms"),
    ("core.manifest_bytes_per_unit", "B"),
    ("core.store_bytes_per_unit", "B"),
    ("core.scale.units_per_s", "1/s"),
    ("core.scale.worker_idle_share", "ratio"),
    ("core.scale.digest_hit_ratio", "ratio"),
    ("core.scale.rescanned_per_grow", "count"),
    // every workload: peak memory of the traced repetitions, and traced
    // minus untraced end-to-end numbers
    ("trace.peak_rss_mb", "MB"),
    ("trace.cold_overhead_ms", "ms"),
    ("trace.warm_overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// The workloads, by name.
pub const WORKLOADS: [&str; 2] = ["campaign-cold", "scan-stream"];

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
    /// Scratch directory for this run's blob stores (removed at exit).
    pub state_dir: PathBuf,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (campaigns, scans, requests …).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Set when a validity check of the run itself failed (for example
    /// an open-loop generator that ran too late); the run is reported as
    /// incorrect.
    pub invalid: Option<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra facts recorded in the header line (sizes, sample counts).
    pub notes: BTreeMap<&'static str, Value>,
    /// Span summary of the last traced repetition, written to stderr
    /// when the run ends.
    pub trace_summary: Option<String>,
}

impl Outcome {
    /// Counts one operation, failed when `ok` is false; a failure names
    /// `what` on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Keeps the span summary of a traced repetition for the end of the
    /// run (the last one wins).
    pub fn keep_trace(&mut self, trace: &vdbench_telemetry::span::Trace) {
        let metrics = vdbench_telemetry::registry::global().snapshot();
        self.trace_summary = Some(vdbench_telemetry::export::summary(trace, &metrics));
    }

    /// Records a fact for the header line.
    pub fn note(&mut self, name: &'static str, value: Value) {
        self.notes.insert(name, value);
    }
}

/// A JSON object with the given fields, in order.
fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Compact JSON text of a value.
fn to_json(value: Value) -> String {
    serde_json::to_string(&RawValue(value)).expect("JSON rendering cannot fail")
}

/// Sets the run's metrics from its samples: the medians of the
/// end-to-end samples for an untraced run; for a traced run the medians
/// of the per-layer samples, the peak RSS of the traced repetitions, and
/// traced (`traced.*`) minus untraced medians as the tracing overhead.
pub fn finish(cfg: &RunConfig, samples: &probe::Samples, outcome: &mut Outcome) {
    if !cfg.trace {
        samples.medians_into(outcome, |n| END_TO_END.iter().any(|(e, _)| *e == n));
        return;
    }
    samples.medians_into(outcome, |n| PER_LAYER.iter().any(|(l, _)| *l == n));
    let cold = samples.median("cold_ms");
    let cold_overhead = samples.median("traced.cold_ms") - cold;
    outcome.set("trace.peak_rss_mb", samples.median("traced.peak_rss_mb"));
    outcome.set("trace.cold_overhead_ms", cold_overhead);
    outcome.set(
        "trace.warm_overhead_ms",
        samples.median("traced.warm_ms") - samples.median("warm_ms"),
    );
    outcome.set(
        "trace.overhead_share",
        if cold > 0.0 {
            cold_overhead / cold
        } else {
            0.0
        },
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one cold operation and report this process's peak RSS (the
    /// benchmark starts itself this way to sample memory per process).
    rss_probe: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut rss_probe = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--rss-probe" => rss_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rss_probe,
    })
}

/// Renders the result line, checking that exactly the metric set the
/// mode promises is present, each with its unit. A workload that left a
/// per-layer metric unset did no work in that layer: it reads 0.
fn result_line(outcome: &Outcome, trace: bool) -> Result<Value, String> {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let declared = |k: &&str| END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| n == k);
    if let Some(unknown) = outcome.metrics.keys().find(|k| !declared(k)) {
        return Err(format!("metric {unknown} is not declared"));
    }
    let mut metrics = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push((
            *name,
            object([
                ("value", Value::Float(value)),
                ("unit", Value::Str(unit.to_string())),
            ]),
        ));
    }
    Ok(object([
        (
            "correct",
            Value::Bool(outcome.failed == 0 && outcome.invalid.is_none()),
        ),
        ("attempted", Value::UInt(outcome.attempted.max(1))),
        ("failed", Value::UInt(outcome.failed)),
        ("metrics", object(metrics)),
    ]))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One process, at most THREADS workers in every parallel layer. The
    // vendored pool reads the variable on each call; set it before any
    // thread starts.
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());

    let golden = PathBuf::from(campaign::GOLDEN_TRANSCRIPT);
    if !golden.is_file() {
        eprintln!(
            "perfbench: {} not found; run from the repository root",
            golden.display()
        );
        return ExitCode::from(2);
    }
    let state_dir = PathBuf::from(".perfbench").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&state_dir) {
        eprintln!("perfbench: cannot create {}: {e}", state_dir.display());
        return ExitCode::from(2);
    }
    if args.rss_probe {
        let store = state_dir.join("store");
        let digest = match args.workload.as_str() {
            "campaign-cold" => campaign::cold_once(&store),
            _ => scan::cold_once(args.seed, &store),
        };
        let _ = std::fs::remove_dir_all(&state_dir);
        println!(
            "{}",
            to_json(object([
                ("peak_rss_mb", Value::Float(probe::peak_rss_mb())),
                ("digest", Value::Str(digest)),
            ]))
        );
        return ExitCode::SUCCESS;
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        state_dir: state_dir.clone(),
    };
    let outcome = match args.workload.as_str() {
        "campaign-cold" => campaign::run(&cfg),
        "scan-stream" => scan::run(&cfg),
        _ => unreachable!("workload validated in parse_args"),
    };
    vdbench_core::set_disk_cache(None);
    let _ = std::fs::remove_dir_all(&state_dir);
    // Leave the shared scratch root behind only if another run still
    // uses it.
    let _ = std::fs::remove_dir(".perfbench");

    if let Some(summary) = &outcome.trace_summary {
        eprint!("{summary}");
    }
    if let Some(reason) = &outcome.invalid {
        eprintln!("perfbench: run rejected: {reason}");
    }
    if outcome.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed or were wrong",
            outcome.failed, outcome.attempted
        );
    }
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let header = object([
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::Float(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        (
            "threads",
            object([
                ("rayon", Value::UInt(THREADS as u64)),
                ("scan", Value::UInt(THREADS as u64)),
                ("connections", Value::UInt(THREADS as u64)),
                ("available_parallelism", Value::UInt(parallelism as u64)),
            ]),
        ),
        (
            "notes",
            object(outcome.notes.iter().map(|(k, v)| (*k, v.clone()))),
        ),
    ]);
    match result_line(&outcome, args.trace) {
        Ok(line) => {
            println!("{}", to_json(header));
            println!("{}", to_json(line));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables in the code and in `BENCHMARK.json` must agree
    /// name for name and unit for unit, so every declared metric is
    /// emitted with the unit the file promises.
    #[test]
    fn declared_metrics_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = serde_json::from_str::<RawValue>(&text)
            .expect("BENCHMARK.json parses")
            .0;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("list")
                .to_vec()
        };
        let field = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key} is not a string: {other:?}"),
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from the code");
        }
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut outcome = Outcome::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            outcome.set(name, 1.0 + i as f64);
        }
        outcome.check(true, "always");
        let line = result_line(&outcome, false).expect("complete end-to-end set");
        let metrics = line.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let metric = metrics.get(name).expect("every end-to-end metric");
            assert_eq!(metric.get("unit"), Some(&Value::Str(unit.to_string())));
        }
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let traced = result_line(&outcome, true).expect("per-layer set fills gaps");
        let traced = traced
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(traced.len(), PER_LAYER.len());
        outcome.metrics.remove("cold_ms");
        assert!(result_line(&outcome, false).is_err());
    }

    #[test]
    fn arguments_are_checked() {
        let ok = |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>());
        assert!(ok("--workload scan-stream --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(ok("--workload nope").is_err());
        assert!(ok("--workload scan-stream --trace 2").is_err());
        assert!(ok("--workload scan-stream --bogus 1").is_err());
    }
}
