//! `campaign-cold`: the paper's end product. All sixteen `run_all`
//! artifacts, fanned out over the worker pool exactly as `run_all` does,
//! from an empty memo and an empty blob store, at the paper seed. After
//! each cold campaign the same artifacts are replayed warm from the
//! store the campaign filled, as a second `run_all` would.
//!
//! The campaign's inputs are fixed by the paper seed: `--seed` does not
//! change them, so every run can be checked byte for byte against the
//! committed golden transcript.

use std::time::{Duration, Instant};

use rayon::prelude::*;
use serde::Value;
use vdbench_bench::{figures, tables, EXPERIMENT_SEED};
use vdbench_core::cache;

use crate::probe::{self, ms_since, Samples, SpanTotals, ThreadSampler};
use crate::{finish, serve, Outcome, RunConfig, THREADS};

/// The committed `run_all` stdout every campaign must reproduce.
pub const GOLDEN_TRANSCRIPT: &str = "results/run_all.txt";

/// What a fresh-process campaign reports when its stdout matched the
/// golden transcript.
const GOLDEN_DIGEST: &str = "golden";

/// Fewest cold campaigns a run measures, whatever `--seconds` says.
const MIN_CAMPAIGNS: usize = 3;

/// Warm replays measured after each cold campaign.
const WARM_REPLAYS: usize = 25;

type Artifact = (&'static str, fn() -> String);

/// The campaign artifacts in `run_all` output order.
const ARTIFACTS: [Artifact; 16] = [
    ("preamble", tables::preamble),
    ("table1", tables::table1),
    ("table2", tables::table2),
    ("table3", tables::table3),
    ("table4", tables::table4),
    ("table5", tables::table5),
    ("table6", tables::table6),
    ("table7", tables::table7),
    ("table8", tables::table8),
    ("table9", tables::table9),
    ("fig1", figures::fig1),
    ("fig2", figures::fig2),
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
];

/// Renders every artifact through the campaign cache, in parallel as
/// `run_all` does, and returns each artifact's text and wall time in
/// campaign order.
fn render() -> Vec<(String, f64)> {
    (0..ARTIFACTS.len())
        .into_par_iter()
        .map(|i| {
            let (name, render) = ARTIFACTS[i];
            let t = Instant::now();
            let text = vdbench_core::cached_artifact(name, EXPERIMENT_SEED, render);
            (text, ms_since(t))
        })
        .collect()
}

/// The `run_all` stdout of rendered artifacts.
fn transcript(staged: &[(String, f64)]) -> String {
    staged.iter().map(|(text, _)| format!("{text}\n")).collect()
}

/// One cold campaign into a fresh store: the operation a fresh process
/// runs for the peak-RSS sample. Returns [`GOLDEN_DIGEST`] when the
/// transcript matched.
pub fn cold_once(store: &std::path::Path) -> String {
    cache::clear();
    vdbench_core::set_disk_cache(Some(store.to_path_buf()));
    let golden = std::fs::read_to_string(GOLDEN_TRANSCRIPT).unwrap_or_default();
    let ok = transcript(&render()) == golden;
    vdbench_core::set_disk_cache(None);
    if ok {
        GOLDEN_DIGEST.to_string()
    } else {
        "mismatch".to_string()
    }
}

/// Runs the workload for `cfg.seconds` and reports its metrics.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let golden = match std::fs::read_to_string(GOLDEN_TRANSCRIPT) {
        Ok(text) => text,
        Err(e) => {
            outcome.invalid = Some(format!("cannot read {GOLDEN_TRANSCRIPT}: {e}"));
            return outcome;
        }
    };
    let replicates = vdbench_telemetry::registry::global().histogram("stats.bootstrap.replicates");

    // End-to-end samples under their metric names; traced repetitions
    // under `traced.*`; per-layer samples under their own names.
    let mut samples = Samples::default();

    // Warm-up: a first campaign in this process, into a store of its
    // own. It pays every one-time cost (lazy tables, allocator growth,
    // page faults) so the timed campaigns all start from the same
    // process state.
    cache::clear();
    vdbench_core::set_disk_cache(Some(cfg.state_dir.join("store-setup")));
    outcome.check(
        transcript(&render()) == golden,
        "warm-up campaign matches run_all.txt",
    );

    // Set-up time and peak RSS: one cold campaign in each of several
    // fresh processes, so work a change moves into first use shows, and
    // the process-to-process spread of allocator and thread-stack layout
    // is sampled rather than frozen into one run.
    let start = Instant::now();
    if !cfg.trace {
        for _ in 0..probe::FRESH_PROCESSES {
            match probe::fresh_run("campaign-cold", cfg.seed) {
                Some(fresh) => {
                    samples.push("setup_s", fresh.wall_s);
                    samples.push("peak_rss_mb", fresh.peak_rss_mb);
                    outcome.check(
                        fresh.digest == GOLDEN_DIGEST,
                        "fresh-process campaign matches run_all.txt",
                    );
                }
                None => outcome.check(false, "fresh-process campaign ran"),
            }
        }
    }
    // The traced run leaves part of its time to the server pass.
    let budget = Duration::from_secs_f64(cfg.seconds * if cfg.trace { 0.7 } else { 1.0 });
    let mut n = 0usize;
    let mut last = Vec::new();
    while n < MIN_CAMPAIGNS || start.elapsed() < budget {
        // The traced run alternates untraced and traced campaigns so the
        // difference between the two is the tracing overhead.
        let traced = cfg.trace && n % 2 == 1;
        let store = cfg.state_dir.join(format!("store-{n}"));
        cache::clear();
        vdbench_core::set_disk_cache(Some(store.clone()));
        if vdbench_core::disk_cache_dir().is_none() {
            outcome.invalid = Some(format!("cannot open a store at {}", store.display()));
            return outcome;
        }
        if traced {
            probe::reset_peak_rss();
        }

        let (vm0, dedup0, reps0) = (
            probe::counter("interp.vm.instructions"),
            probe::counter("scan.sessions.deduped"),
            replicates.sum(),
        );
        let sampler = cfg.trace.then(ThreadSampler::start);
        let cpu0 = probe::cpu_seconds();
        let t = Instant::now();
        let (staged, trace) = probe::traced(traced, render);
        let wall = ms_since(t);
        let cpu = probe::cpu_seconds() - cpu0;
        let peak_threads = sampler.map(ThreadSampler::finish);
        outcome.check(
            transcript(&staged) == golden,
            "cold campaign matches run_all.txt",
        );
        let artifact_ms: Vec<f64> = staged.iter().map(|(_, ms)| *ms).collect();
        last = staged;

        if traced {
            let spans = SpanTotals::of(&trace);
            let st = cache::stats();
            let work: f64 = artifact_ms.iter().sum();
            samples.push("bench.artifact_work_ms", work);
            samples.push(
                "bench.artifact_max_ms",
                artifact_ms.iter().copied().fold(0.0, f64::max),
            );
            samples.push("bench.pool_busy_share", work / (wall * THREADS as f64));
            samples.push("core.case_study_ms", spans.millis("core", "case_study"));
            let lookups = st.hits() + st.misses();
            samples.push(
                "core.cache_hit_ratio",
                if lookups == 0 {
                    0.0
                } else {
                    st.hits() as f64 / lookups as f64
                },
            );
            samples.push("core.blob_writes", st.disk_writes as f64);
            samples.push(
                "detectors.scan_unit_ms",
                spans.millis("detectors", "scan_unit"),
            );
            samples.push(
                "detectors.scan_units",
                spans.count("detectors", "scan_unit") as f64,
            );
            samples.push(
                "detectors.sessions_deduped",
                (probe::counter("scan.sessions.deduped") - dedup0) as f64,
            );
            samples.push(
                "corpus.vm_instructions",
                (probe::counter("interp.vm.instructions") - vm0) as f64,
            );
            samples.push("stats.kendall_ms", spans.millis("stats", "kendall_tau"));
            samples.push(
                "stats.kendall_calls",
                spans.count("stats", "kendall_tau") as f64,
            );
            samples.push(
                "stats.bootstrap_replicates",
                (replicates.sum() - reps0) as f64,
            );
            samples.push("core.assess_ms", spans.millis("core", "assess_catalog"));
            samples.push("mcda.ahp_ms", spans.millis("mcda", "ahp_solve"));
            samples.push("traced.cold_ms", wall);
            outcome.keep_trace(&trace);
        } else {
            samples.push("cold_ms", wall);
            samples.push("cpu_s", cpu);
        }
        if let Some(peak) = peak_threads {
            samples.push("bench.peak_threads", peak as f64);
        }

        // Warm replays: a fresh process over the store this campaign
        // filled has an empty memo and sixteen artifact blobs to read.
        for _ in 0..WARM_REPLAYS {
            cache::clear();
            let t = Instant::now();
            let (staged, _) = probe::traced(traced, render);
            let ms = ms_since(t);
            outcome.check(
                transcript(&staged) == golden,
                "warm replay matches run_all.txt",
            );
            samples.push(if traced { "traced.warm_ms" } else { "warm_ms" }, ms);
        }

        if traced {
            samples.push("traced.peak_rss_mb", probe::peak_rss_mb());
        }
        n += 1;
    }
    outcome.note("campaigns", Value::UInt(n as u64));
    outcome.note(
        "warm_replays_per_campaign",
        Value::UInt(WARM_REPLAYS as u64),
    );

    if cfg.trace {
        // `vdbench serve` over the store the last campaign filled.
        let artifacts: Vec<(&str, String)> = ARTIFACTS
            .iter()
            .zip(last)
            .map(|((name, _), (text, _))| (*name, text))
            .collect();
        serve::campaign_pass(
            cfg.seed,
            cfg.seconds * 0.3,
            &artifacts,
            &mut samples,
            &mut outcome,
        );
    }
    vdbench_core::set_disk_cache(None);
    finish(cfg, &samples, &mut outcome);
    outcome
}
