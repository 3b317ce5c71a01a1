//! `scan-stream`: a cold streamed scan into a fresh store, then grow
//! steps that add units to the corpus and rescan warm from that store.
//!
//! The cold phase exercises plan, materialize, the shard pipeline, the
//! manifest codec and blob writes; the grow phase exercises the O(1)
//! shard-digest replay, which is mostly blob-header reads. `pattern` is
//! the cheapest detector, so the detectors layer stays a minor cost in
//! both phases.

use std::path::Path;
use std::time::{Duration, Instant};

use serde::Value;

use vdbench_core::{
    bytes_blob_get, bytes_blob_put, raw_blob_get, streamed_scan_serial, streamed_scan_with_threads,
    StreamedScanReport, DEFAULT_SHARD_UNITS,
};
use vdbench_corpus::CorpusBuilder;
use vdbench_detectors::{score_findings, Detector, ScanContext};
use vdbench_metrics::ConfusionMatrix;
use vdbench_telemetry::span::Trace;

use crate::probe::{self, ms_since, Samples};
use crate::{finish, Outcome, RunConfig, THREADS};

/// Units of the cold corpus.
const UNITS: usize = 400_000;

/// Units each grow step appends.
const GROW_UNITS: usize = 1_000;

/// Detector every scan runs (its `vdbench scan --tool` name).
const TOOL: &str = "pattern";

/// Grow steps after each cold scan, on that scan's store. Every block
/// (one cold scan and its grow steps) does the same work, so the medians
/// do not depend on how many blocks fit into the run.
const GROWS_PER_COLD: usize = 20;

/// Fewest blocks a run measures, whatever `--seconds` says.
const MIN_BLOCKS: usize = 3;

/// Findings a streamed report keeps verbatim (its preview).
const PREVIEW_FINDINGS: usize = 3;

/// Corpus size after a block's last grow step.
const GROWN_UNITS: usize = UNITS + GROWS_PER_COLD * GROW_UNITS;

fn builder(seed: u64, units: usize) -> CorpusBuilder {
    CorpusBuilder::new().units(units).seed(seed)
}

/// Whether two reports describe the same scan result (the replay
/// bookkeeping fields are compared by the callers).
fn same_result(a: &StreamedScanReport, b: &StreamedScanReport) -> bool {
    a.tool == b.tool
        && a.units == b.units
        && a.sites == b.sites
        && a.shards == b.shards
        && a.confusion == b.confusion
        && a.findings == b.findings
        && a.preview == b.preview
}

/// Store-less references for a block's grow steps: each step plans,
/// materializes, scans and scores only the appended units and adds them
/// to the previous step's result, starting from the cold `reference`.
fn grow_references(
    seed: u64,
    reference: &StreamedScanReport,
    tool: &dyn Detector,
) -> Vec<StreamedScanReport> {
    let mut stream = builder(seed, GROWN_UNITS).stream();
    let mut skipped = 0;
    while skipped < UNITS {
        skipped += stream.next_plans((UNITS - skipped).min(65_536)).len();
    }
    let name = tool.name();
    let mut expected = reference.clone();
    (0..GROWS_PER_COLD)
        .map(|_| {
            let plans = stream.next_plans(GROW_UNITS);
            let shard = stream.materialize(&plans);
            let scan = tool.analyze_shard(&shard, &unbounded());
            let scored = score_findings(&name, &shard, &scan.findings);
            let e = &mut expected;
            e.units += plans.len() as u64;
            e.sites += scored.records().len() as u64;
            e.shards = e.units.div_ceil(DEFAULT_SHARD_UNITS as u64);
            e.confusion = e.confusion + scored.confusion();
            e.findings += scan.findings.len() as u64;
            let room = PREVIEW_FINDINGS.saturating_sub(e.preview.len());
            e.preview.extend(scan.findings.into_iter().take(room));
            expected.clone()
        })
        .collect()
}

fn unbounded() -> ScanContext {
    ScanContext {
        attempt: 1,
        step_budget: u64::MAX,
    }
}

/// Share of shard-worker time spent waiting rather than inside a shard.
fn worker_idle_share(trace: &Trace) -> f64 {
    let spans = trace.complete_spans();
    let workers: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.cat == "core" && s.name == "shard_worker")
        .map(|s| s.tid)
        .collect();
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.cat == "core" && s.name == name && workers.contains(&s.tid))
            .map(|s| s.millis())
            .sum()
    };
    let alive = total("shard_worker");
    if alive > 0.0 {
        (alive - total("scan_shard")) / alive
    } else {
        0.0
    }
}

/// One store-less pass over the cold corpus that calls each layer's
/// public function in turn and times it: plan, materialize, analyze,
/// score. Returns the pooled confusion so the pass is checked too.
fn layer_pass(seed: u64, tool: &dyn Detector, samples: &mut Samples) -> ConfusionMatrix {
    let mut stream = builder(seed, UNITS).stream();
    let mat = stream.materializer();
    let name = tool.name();
    let (mut plan, mut materialize, mut analyze, mut score) = (0.0, 0.0, 0.0, 0.0);
    let mut confusion = ConfusionMatrix::default();
    loop {
        let t = Instant::now();
        let plans = stream.next_plans(DEFAULT_SHARD_UNITS);
        plan += ms_since(t);
        if plans.is_empty() {
            break;
        }
        let t = Instant::now();
        let shard = mat.materialize(&plans);
        materialize += ms_since(t);
        let t = Instant::now();
        let scan = tool.analyze_shard(&shard, &unbounded());
        analyze += ms_since(t);
        let t = Instant::now();
        let scored = score_findings(&name, &shard, &scan.findings);
        score += ms_since(t);
        confusion = confusion + scored.confusion();
    }
    samples.push("corpus.plan_ms", plan);
    samples.push("corpus.materialize_ms", materialize);
    samples.push("detectors.analyze_shard_ms", analyze);
    samples.push("detectors.score_ms", score);
    confusion
}

/// Blob-store keys of the files of one kind in a store directory.
fn blob_keys(store: &Path, kind: &str) -> Vec<u64> {
    let marker = format!("-{kind}-");
    let mut keys: Vec<u64> = std::fs::read_dir(store)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    let at = name.find(&marker)? + marker.len();
                    u64::from_str_radix(name.get(at..at + 16)?, 16).ok()
                })
                .collect()
        })
        .unwrap_or_default();
    keys.sort_unstable();
    keys
}

/// Times the blob layer on the store a cold scan wrote: reading every
/// shard header (what a grow step reads) and writing every shard
/// manifest into a scratch store (what a cold scan writes).
///
/// Headers are JSON objects, which the store reads through a private
/// typed path; the public [`raw_blob_get`] does the same file read and
/// JSON parse, then declines the object, so it costs what a grow step's
/// header probe costs.
fn blob_pass(store: &Path, scratch: &Path, samples: &mut Samples) {
    let headers = blob_keys(store, "mhdr");
    let t = Instant::now();
    for key in &headers {
        std::hint::black_box(raw_blob_get("mhdr", *key));
    }
    samples.push("core.blob_read_ms", ms_since(t));
    let manifests: Vec<(u64, Vec<u8>)> = blob_keys(store, "manifest")
        .into_iter()
        .filter_map(|k| bytes_blob_get("manifest", k).map(|b| (k, b)))
        .collect();
    vdbench_core::set_disk_cache(Some(scratch.to_path_buf()));
    let t = Instant::now();
    for (key, bytes) in &manifests {
        bytes_blob_put("manifest", *key, bytes);
    }
    samples.push("core.blob_write_ms", ms_since(t));
    vdbench_core::set_disk_cache(Some(store.to_path_buf()));
    let _ = std::fs::remove_dir_all(scratch);
}

/// The result fields of a report, as one comparable string.
fn digest_of(r: &StreamedScanReport) -> String {
    format!(
        "{} units={} sites={} shards={} {:?} findings={} preview={:?}",
        r.tool, r.units, r.sites, r.shards, r.confusion, r.findings, r.preview
    )
}

/// One cold scan into a fresh store: the operation a fresh process runs
/// for the peak-RSS sample. Returns the report's [`digest_of`].
pub fn cold_once(seed: u64, store: &Path) -> String {
    let tool = vdbench_server::tool_by_name(TOOL).expect("pattern is a known tool");
    vdbench_core::set_disk_cache(Some(store.to_path_buf()));
    let report = streamed_scan_with_threads(
        tool.as_ref(),
        &builder(seed, UNITS),
        DEFAULT_SHARD_UNITS,
        THREADS,
    );
    vdbench_core::set_disk_cache(None);
    digest_of(&report)
}

/// Runs the workload for `cfg.seconds` and reports its metrics.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let mut samples = Samples::default();
    let tool = vdbench_server::tool_by_name(TOOL).expect("pattern is a known tool");
    let tool = tool.as_ref();
    let cold_builder = builder(cfg.seed, UNITS);

    // The store-less references every report is checked against (the
    // serial scan also pays the process's one-time costs).
    vdbench_core::set_disk_cache(None);
    let reference = streamed_scan_serial(tool, &cold_builder, DEFAULT_SHARD_UNITS);
    let grow_expected = grow_references(cfg.seed, &reference, tool);
    if cfg.trace {
        let confusion = layer_pass(cfg.seed, tool, &mut samples);
        outcome.check(
            confusion == reference.confusion,
            "layer pass matches the reference",
        );
    }

    // Set-up time and peak RSS: one cold scan into a fresh store in each
    // of several fresh processes.
    let start = Instant::now();
    if !cfg.trace {
        for _ in 0..probe::FRESH_PROCESSES {
            match probe::fresh_run("scan-stream", cfg.seed) {
                Some(fresh) => {
                    samples.push("setup_s", fresh.wall_s);
                    samples.push("peak_rss_mb", fresh.peak_rss_mb);
                    outcome.check(
                        fresh.digest == digest_of(&reference),
                        "fresh-process scan matches the reference",
                    );
                }
                None => outcome.check(false, "fresh-process scan ran"),
            }
        }
    }

    // Blocks: a cold scan into a fresh store, then GROWS_PER_COLD grow
    // steps on that store. Stores stay on disk until the run ends, so
    // deleting one never overlaps a measurement.
    let budget = Duration::from_secs_f64(cfg.seconds);
    let min_blocks = if cfg.trace {
        MIN_BLOCKS + 1
    } else {
        MIN_BLOCKS
    };
    let mut blocks = 0usize;
    while blocks < min_blocks || start.elapsed() < budget {
        // The traced run alternates untraced and traced blocks, so the
        // two halves of the overhead do the same work.
        let traced = cfg.trace && blocks % 2 == 1;
        let store = cfg.state_dir.join(format!("store-{blocks}"));
        vdbench_core::set_disk_cache(Some(store.clone()));
        if traced {
            probe::reset_peak_rss();
        }
        let cpu0 = probe::cpu_seconds();
        let t = Instant::now();
        let (report, trace) = probe::traced(traced, || {
            streamed_scan_with_threads(tool, &cold_builder, DEFAULT_SHARD_UNITS, THREADS)
        });
        let wall = ms_since(t);
        let cpu = probe::cpu_seconds() - cpu0;
        outcome.check(
            same_result(&report, &reference)
                && report.rescanned == UNITS as u64
                && report.replayed == 0,
            "cold scan matches the reference and rescans every unit",
        );
        if traced {
            samples.push("traced.cold_ms", wall);
            samples.push("core.scale.worker_idle_share", worker_idle_share(&trace));
            outcome.keep_trace(&trace);
        } else {
            samples.push("cold_ms", wall);
            samples.push("cpu_s", cpu);
            samples.push("core.scale.units_per_s", UNITS as f64 / (wall / 1e3));
        }
        if cfg.trace && blocks == 0 {
            let units = UNITS as f64;
            samples.push(
                "core.store_bytes_per_unit",
                probe::dir_bytes(&store, "") as f64 / units,
            );
            samples.push(
                "core.manifest_bytes_per_unit",
                probe::dir_bytes(&store, "-manifest-") as f64 / units,
            );
            blob_pass(&store, &cfg.state_dir.join("blob-scratch"), &mut samples);
        }

        for (k, expected) in grow_expected.iter().enumerate() {
            let units = UNITS + (k + 1) * GROW_UNITS;
            let grown = builder(cfg.seed, units);
            let t = Instant::now();
            let (report, _) = probe::traced(traced, || {
                streamed_scan_with_threads(tool, &grown, DEFAULT_SHARD_UNITS, THREADS)
            });
            let ms = ms_since(t);
            outcome.check(
                same_result(&report, expected)
                    && report.rescanned == GROW_UNITS as u64
                    && report.replayed == (units - GROW_UNITS) as u64,
                "grow step matches the reference and rescans only the new units",
            );
            samples.push(if traced { "traced.warm_ms" } else { "warm_ms" }, ms);
            if cfg.trace {
                samples.push(
                    "core.scale.digest_hit_ratio",
                    report.digest_hits as f64 / report.shards as f64,
                );
                samples.push("core.scale.rescanned_per_grow", report.rescanned as f64);
            }
        }
        if traced {
            samples.push("traced.peak_rss_mb", probe::peak_rss_mb());
        }
        blocks += 1;
    }

    // The chained grow references must agree with a store-less serial
    // scan of the grown corpus.
    vdbench_core::set_disk_cache(None);
    let last = streamed_scan_serial(tool, &builder(cfg.seed, GROWN_UNITS), DEFAULT_SHARD_UNITS);
    outcome.check(
        grow_expected.last().is_some_and(|e| same_result(&last, e)),
        "grown corpus matches a store-less serial scan",
    );

    let count = |n: usize| Value::UInt(n as u64);
    outcome.note("units", count(UNITS));
    outcome.note("grow_units", count(GROW_UNITS));
    outcome.note("blocks", count(blocks));
    outcome.note("grows_per_cold", count(GROWS_PER_COLD));
    outcome.note("tool", Value::Str(TOOL.to_string()));
    outcome.note("shard_units", count(DEFAULT_SHARD_UNITS));
    finish(cfg, &samples, &mut outcome);
    outcome
}
