//! Wall-clock instrumentation for the campaign engine — a **derived view**
//! over the telemetry subsystem.
//!
//! `vdbench campaign --timings on` enables span recording, runs the campaign, then
//! builds a [`CampaignTiming`] record *from the trace and the metrics
//! registry* ([`CampaignTiming::from_telemetry`]): per-artifact wall-clock
//! comes from the `bench/artifact` spans, the cache counters from the
//! `cache.*` registry counters, and the requested/realized worker counts
//! from the rayon shim. The record is printed human-readably to **stderr**
//! (stdout stays byte-identical with and without the flag) and serialized
//! to `BENCH_campaign.json` for machine consumption.
//!
//! The human-readable stage table is sorted by cost (milliseconds,
//! descending) and carries a cumulative-share column, so the hot
//! artifacts — the ones worth caching — are visible at a glance; the
//! serialized record keeps the stages in campaign order for stable
//! machine diffs.
//!
//! When the campaign's persistent disk cache is active, the record also
//! carries the cold/warm pair: `cold_millis` is the wall-clock of the
//! first campaign ever run against that cache directory (persisted as a
//! baseline file alongside the blobs), `warm_millis` the wall-clock of
//! the current run when it found a baseline — the ratio is the measured
//! speedup of serving the campaign from disk.
//!
//! There is deliberately no second, hand-rolled timing path: what the
//! breakdown reports is exactly what the Chrome trace
//! (`--trace-out trace.json`) visualizes.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vdbench_telemetry::registry::MetricsSnapshot;
use vdbench_telemetry::span::Trace;

/// Wall-clock of one campaign stage (one table/figure artifact), derived
/// from its `bench/artifact` span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage name (artifact binary name: "table4", "fig3", …).
    pub name: String,
    /// Wall-clock milliseconds spent producing the artifact.
    pub millis: f64,
}

/// Campaign-cache counters in serializable form, read back from the
/// `cache.case_study.*` / `cache.assessment.*` / `cache.scan.*` /
/// `cache.disk.*` registry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct CacheCounters {
    /// Case-study requests served from the memory tier.
    pub case_study_hits: u64,
    /// Case-study requests that missed the memory tier.
    pub case_study_misses: u64,
    /// Assessment requests served from the memory tier.
    pub assessment_hits: u64,
    /// Assessment requests that missed the memory tier.
    pub assessment_misses: u64,
    /// Tool-on-corpus scans served from the memory tier.
    pub scan_hits: u64,
    /// Tool-on-corpus scans that missed the memory tier.
    pub scan_misses: u64,
    /// Rendered artifacts replayed from the disk store.
    pub artifact_hits: u64,
    /// Rendered artifacts that had to be computed.
    pub artifact_misses: u64,
    /// Memory-tier misses answered by the persistent disk store.
    pub disk_hits: u64,
    /// Memory-tier misses the disk store could not answer (computed).
    pub disk_misses: u64,
    /// Blobs atomically published to the disk store.
    pub disk_writes: u64,
    /// Stale-schema blobs swept when the disk store was opened.
    pub disk_evictions: u64,
}

impl CacheCounters {
    /// Reads the cache counters out of a registry snapshot (0 for
    /// counters that were never touched).
    #[must_use]
    pub fn from_snapshot(metrics: &MetricsSnapshot) -> Self {
        let get = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
        CacheCounters {
            case_study_hits: get("cache.case_study.hits"),
            case_study_misses: get("cache.case_study.misses"),
            assessment_hits: get("cache.assessment.hits"),
            assessment_misses: get("cache.assessment.misses"),
            scan_hits: get("cache.scan.hits"),
            scan_misses: get("cache.scan.misses"),
            artifact_hits: get("cache.artifact.hits"),
            artifact_misses: get("cache.artifact.misses"),
            disk_hits: get("cache.disk.hits"),
            disk_misses: get("cache.disk.misses"),
            disk_writes: get("cache.disk.writes"),
            disk_evictions: get("cache.disk.evictions"),
        }
    }
}

impl From<vdbench_core::CacheStats> for CacheCounters {
    fn from(s: vdbench_core::CacheStats) -> Self {
        CacheCounters {
            case_study_hits: s.case_study_hits,
            case_study_misses: s.case_study_misses,
            assessment_hits: s.assessment_hits,
            assessment_misses: s.assessment_misses,
            scan_hits: s.scan_hits,
            scan_misses: s.scan_misses,
            artifact_hits: s.artifact_hits,
            artifact_misses: s.artifact_misses,
            disk_hits: s.disk_hits,
            disk_misses: s.disk_misses,
            disk_writes: s.disk_writes,
            disk_evictions: s.disk_evictions,
        }
    }
}

/// The full timing record of one `vdbench campaign` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignTiming {
    /// The experiment seed.
    pub seed: u64,
    /// Worker threads a parallel call *requests* (`RAYON_NUM_THREADS` or
    /// the machine's available parallelism).
    pub threads_requested: usize,
    /// Worker threads any parallel call in this process *actually ran on*
    /// (the pool's high-water mark — small inputs use fewer workers than
    /// requested).
    pub threads_used: usize,
    /// Worker threads the persistent pool has started in this process
    /// ([`rayon::threads_spawned`]): at most `threads_requested - 1`, since
    /// every caller works on its own parallel call.
    pub threads_spawned: usize,
    /// Per-artifact wall-clock, in campaign order (the rendered view
    /// sorts by cost instead).
    pub stages: Vec<StageTiming>,
    /// End-to-end campaign wall-clock in milliseconds (less than the sum
    /// of the stages when they overlap on the pool).
    pub total_millis: f64,
    /// Wall-clock of the campaign that populated the active disk cache
    /// (this run, if it found the cache empty). `None` when the disk
    /// tier is off.
    pub cold_millis: Option<f64>,
    /// Wall-clock of this campaign when it ran against a populated disk
    /// cache. `None` when the disk tier is off or this run *was* the
    /// cold one.
    pub warm_millis: Option<f64>,
    /// Process peak RSS (`VmHWM`) at campaign end, in kB; 0 where procfs
    /// is unavailable.
    pub peak_rss_kb: u64,
    /// Shards consumed by streamed/sharded scans (`scan.shards`); 0 for
    /// campaigns that never took the streaming path.
    pub shard_count: u64,
    /// Campaign-cache hit/miss counters at campaign end (all tiers).
    pub cache: CacheCounters,
    /// Fault-injection and resilient-scan counters at campaign end
    /// (`fault.injected.*`, `scan.attempts` / `scan.retries` /
    /// `scan.failed`, `scan.sessions.deduped`). Only counters that fired
    /// appear; fault-free campaigns still report the scanner's session
    /// deduplication here.
    pub resilience: BTreeMap<String, u64>,
    /// Interpreter counters at campaign end (`interp.env.interned_slots`,
    /// `interp.vm.instructions`, `interp.vm.inline_cache.{hits,misses}`).
    /// Only counters that fired appear; a campaign that never compiles a
    /// unit reports an empty map.
    pub interp: BTreeMap<String, u64>,
}

impl CampaignTiming {
    /// Derives the campaign record from telemetry: stages from the
    /// `bench/artifact` spans (ordered by their `index` argument, i.e.
    /// campaign order), total wall-clock from the `bench/campaign` span,
    /// cache counters from the registry snapshot, and thread counts from
    /// the rayon shim (requested width, realized high-water mark, and
    /// pool workers spawned).
    /// The cold/warm pair starts empty — the campaign fills it in from the
    /// disk-cache baseline when the disk tier is active.
    #[must_use]
    pub fn from_telemetry(seed: u64, trace: &Trace, metrics: &MetricsSnapshot) -> Self {
        let spans = trace.complete_spans();
        let mut stages: Vec<(usize, StageTiming)> = spans
            .iter()
            .filter(|s| s.cat == "bench" && s.name == "artifact")
            .map(|s| {
                let index: usize = s.arg("index").and_then(|v| v.parse().ok()).unwrap_or(0);
                let name = s.arg("name").unwrap_or("?").to_string();
                (
                    index,
                    StageTiming {
                        name,
                        millis: s.millis(),
                    },
                )
            })
            .collect();
        stages.sort_by_key(|(index, _)| *index);
        let total_millis = spans
            .iter()
            .find(|s| s.cat == "bench" && s.name == "campaign")
            .map(vdbench_telemetry::span::CompleteSpan::millis)
            .unwrap_or_else(|| stages.iter().map(|(_, s)| s.millis).sum());
        CampaignTiming {
            seed,
            threads_requested: rayon::current_num_threads(),
            threads_used: rayon::max_threads_used().max(1),
            threads_spawned: rayon::threads_spawned(),
            stages: stages.into_iter().map(|(_, s)| s).collect(),
            total_millis,
            cold_millis: None,
            warm_millis: None,
            peak_rss_kb: vdbench_telemetry::peak_rss_kb().unwrap_or(0),
            shard_count: metrics.counters.get("scan.shards").copied().unwrap_or(0),
            cache: CacheCounters::from_snapshot(metrics),
            resilience: {
                let mut r = metrics.counters_with_prefix("fault.");
                r.extend(metrics.counters_with_prefix("scan."));
                r
            },
            interp: metrics.counters_with_prefix("interp."),
        }
    }

    /// Renders the human-readable breakdown printed to stderr: stages
    /// sorted by wall-clock (descending) with per-stage share and
    /// cumulative share of the total stage work, so the hot artifacts
    /// head the table.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign timings (seed {:#x}, {} worker thread{} requested, {} used):",
            self.seed,
            self.threads_requested,
            if self.threads_requested == 1 { "" } else { "s" },
            self.threads_used
        );
        // `+ 0.0` normalizes the empty-sum identity (-0.0) so an empty
        // stage table renders "0.0 ms", not "-0.0 ms".
        let busy: f64 = self.stages.iter().map(|s| s.millis).sum::<f64>() + 0.0;
        let mut by_cost: Vec<&StageTiming> = self.stages.iter().collect();
        by_cost.sort_by(|a, b| b.millis.total_cmp(&a.millis));
        let mut cumulative = 0.0;
        for s in by_cost {
            cumulative += s.millis;
            let (share, cum) = if busy > 0.0 {
                (100.0 * s.millis / busy, 100.0 * cumulative / busy)
            } else {
                (0.0, 0.0)
            };
            let _ = writeln!(
                out,
                "  {:<8} {:>9.1} ms {:>5.1}% {:>6.1}% cum",
                s.name, s.millis, share, cum
            );
        }
        let _ = writeln!(
            out,
            "  {:<8} {:>9.1} ms wall ({busy:.1} ms of stage work)",
            "total", self.total_millis
        );
        let _ = writeln!(
            out,
            "  pool: {} worker thread{} spawned in this process, plus each calling thread",
            self.threads_spawned,
            if self.threads_spawned == 1 { "" } else { "s" }
        );
        if let (Some(cold), Some(warm)) = (self.cold_millis, self.warm_millis) {
            let speedup = if warm > 0.0 { cold / warm } else { f64::NAN };
            let _ = writeln!(
                out,
                "  disk cache: cold {cold:.1} ms -> warm {warm:.1} ms ({speedup:.1}x)"
            );
        } else if let Some(cold) = self.cold_millis {
            let _ = writeln!(
                out,
                "  disk cache: cold run, {cold:.1} ms baseline recorded"
            );
        }
        let _ = writeln!(
            out,
            "campaign cache: case studies {} hit / {} miss, assessments {} hit / {} miss, \
             scans {} hit / {} miss, artifacts {} hit / {} miss",
            self.cache.case_study_hits,
            self.cache.case_study_misses,
            self.cache.assessment_hits,
            self.cache.assessment_misses,
            self.cache.scan_hits,
            self.cache.scan_misses,
            self.cache.artifact_hits,
            self.cache.artifact_misses,
        );
        if self.cache.disk_hits + self.cache.disk_misses + self.cache.disk_writes > 0 {
            let _ = writeln!(
                out,
                "disk cache: {} hit / {} miss, {} written, {} evicted",
                self.cache.disk_hits,
                self.cache.disk_misses,
                self.cache.disk_writes,
                self.cache.disk_evictions,
            );
        }
        if !self.resilience.is_empty() {
            let line: Vec<String> = self
                .resilience
                .iter()
                .map(|(name, value)| format!("{name}={value}"))
                .collect();
            let _ = writeln!(out, "campaign resilience: {}", line.join(" "));
        }
        if !self.interp.is_empty() {
            let line: Vec<String> = self
                .interp
                .iter()
                .map(|(name, value)| format!("{name}={value}"))
                .collect();
            let _ = writeln!(out, "interpreter: {}", line.join(" "));
        }
        out
    }

    /// Serializes the record as pretty JSON (the `BENCH_campaign.json`
    /// payload).
    ///
    /// # Panics
    ///
    /// Never: the record contains no non-serializable values.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("timing record serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use vdbench_telemetry::span;

    /// The telemetry buffers are process-global; tests that record must
    /// not interleave.
    static EXCLUSIVE: Mutex<()> = Mutex::new(());

    fn sample_record() -> CampaignTiming {
        CampaignTiming {
            seed: 0xD5_2015,
            threads_requested: 4,
            threads_used: 3,
            threads_spawned: 3,
            stages: vec![
                StageTiming {
                    name: "table1".into(),
                    millis: 1.5,
                },
                StageTiming {
                    name: "fig6".into(),
                    millis: 250.0,
                },
                StageTiming {
                    name: "table4".into(),
                    millis: 248.5,
                },
            ],
            total_millis: 500.0,
            cold_millis: None,
            warm_millis: None,
            peak_rss_kb: 40_960,
            shard_count: 12,
            cache: CacheCounters {
                case_study_hits: 6,
                case_study_misses: 4,
                assessment_hits: 1,
                assessment_misses: 2,
                scan_hits: 3,
                scan_misses: 41,
                artifact_hits: 0,
                artifact_misses: 16,
                disk_hits: 0,
                disk_misses: 0,
                disk_writes: 0,
                disk_evictions: 0,
            },
            resilience: [
                ("fault.injected.crash".to_string(), 3u64),
                ("scan.failed".to_string(), 1u64),
                ("scan.sessions.deduped".to_string(), 120u64),
            ]
            .into_iter()
            .collect(),
            interp: [
                ("interp.env.interned_slots".to_string(), 180u64),
                ("interp.vm.instructions".to_string(), 90_000u64),
                ("interp.vm.inline_cache.hits".to_string(), 64u64),
            ]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn record_renders_and_serializes() {
        let record = sample_record();
        let text = record.render();
        assert!(text.contains("table1"));
        assert!(text.contains("6 hit / 4 miss"));
        assert!(text.contains("scans 3 hit / 41 miss, artifacts 0 hit / 16 miss"));
        assert!(
            text.contains(
                "campaign resilience: fault.injected.crash=3 scan.failed=1 \
                 scan.sessions.deduped=120"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "interpreter: interp.env.interned_slots=180 \
                 interp.vm.inline_cache.hits=64 interp.vm.instructions=90000"
            ),
            "{text}"
        );
        assert!(
            text.contains("4 worker threads requested, 3 used"),
            "{text}"
        );
        // Disk tier inactive: no disk line, no cold/warm line.
        assert!(!text.contains("disk cache:"), "{text}");
        let json = record.to_json();
        assert!(json.contains("\"case_study_hits\": 6"));
        assert!(json.contains("\"scan_misses\": 41"));
        assert!(json.contains("\"name\": \"fig6\""));
        assert!(json.contains("\"threads_requested\": 4"));
        assert!(json.contains("\"cold_millis\": null"));
        assert!(json.contains("\"peak_rss_kb\": 40960"));
        assert!(json.contains("\"shard_count\": 12"));
        // Valid JSON round-trip through the vendored parser.
        let parsed: CampaignTiming = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, record);
    }

    #[test]
    fn render_reports_pool_threads_spawned() {
        let mut record = sample_record();
        let text = record.render();
        assert!(
            text.contains(
                "  pool: 3 worker threads spawned in this process, plus each calling thread\n"
            ),
            "{text}"
        );
        assert!(record.to_json().contains("\"threads_spawned\": 3"));
        record.threads_spawned = 1;
        assert!(
            record.render().contains("pool: 1 worker thread spawned"),
            "singular"
        );
        let parsed: CampaignTiming = serde_json::from_str(&record.to_json()).unwrap();
        assert_eq!(parsed.threads_spawned, 1);
    }

    #[test]
    fn render_sorts_stages_by_cost_with_cumulative_share() {
        let record = sample_record();
        let text = record.render();
        let fig6 = text.find("fig6").expect("fig6 rendered");
        let table4 = text.find("table4").expect("table4 rendered");
        let table1 = text.find("table1").expect("table1 rendered");
        assert!(
            fig6 < table4 && table4 < table1,
            "stages must render hottest-first:\n{text}"
        );
        // fig6 is exactly half of the 500 ms stage work.
        assert!(
            text.contains("fig6         250.0 ms  50.0%   50.0% cum"),
            "{text}"
        );
        // The coldest stage closes the cumulative column at 100%.
        assert!(
            text.contains("table1         1.5 ms   0.3%  100.0% cum"),
            "{text}"
        );
        // The JSON view keeps campaign order (table1 first).
        let json = record.to_json();
        assert!(
            json.find("table1").unwrap() < json.find("fig6").unwrap(),
            "serialized stages stay in campaign order"
        );
    }

    #[test]
    fn render_reports_cold_warm_pair() {
        let mut record = sample_record();
        record.cold_millis = Some(2000.0);
        record.warm_millis = Some(250.0);
        let text = record.render();
        assert!(
            text.contains("disk cache: cold 2000.0 ms -> warm 250.0 ms (8.0x)"),
            "{text}"
        );
        record.warm_millis = None;
        let text = record.render();
        assert!(
            text.contains("disk cache: cold run, 2000.0 ms baseline recorded"),
            "{text}"
        );
        let parsed: CampaignTiming = serde_json::from_str(&record.to_json()).unwrap();
        assert_eq!(parsed.cold_millis, Some(2000.0));
        assert_eq!(parsed.warm_millis, None);
    }

    #[test]
    fn derives_stages_in_campaign_order_from_spans() {
        let _guard = EXCLUSIVE.lock().expect("telemetry test lock poisoned");
        vdbench_telemetry::reset();
        vdbench_telemetry::enable();
        {
            let _campaign = span!("bench", "campaign");
            // Recorded out of campaign order on purpose.
            for (i, name) in [(1usize, "fig1"), (0usize, "table1")] {
                let _s = span!("bench", "artifact", name = name, index = i);
            }
        }
        let trace = vdbench_telemetry::take_trace();
        vdbench_telemetry::disable();
        let reg = vdbench_telemetry::registry::Registry::new();
        reg.counter("cache.case_study.hits").add(5);
        reg.counter("cache.scan.misses").add(7);
        reg.counter("cache.disk.hits").add(2);
        reg.counter("cache.artifact.hits").add(11);
        reg.counter("fault.injected.timeout").add(2);
        reg.counter("scan.retries").add(4);
        reg.counter("scan.sessions.deduped").add(9);
        reg.counter("scan.failed"); // zero: stays out of the section
        reg.counter("interp.vm.instructions").add(1234);
        reg.counter("interp.env.interned_slots").add(17);
        reg.counter("interp.vm.inline_cache.misses"); // zero: elided
        let record = CampaignTiming::from_telemetry(7, &trace, &reg.snapshot());
        let names: Vec<&str> = record.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["table1", "fig1"],
            "index arg restores campaign order"
        );
        assert_eq!(record.cache.case_study_hits, 5);
        assert_eq!(record.cache.assessment_misses, 0);
        assert_eq!(record.cache.scan_misses, 7);
        assert_eq!(record.cache.artifact_hits, 11);
        assert_eq!(record.cache.disk_hits, 2);
        assert_eq!(record.cold_millis, None);
        assert_eq!(record.warm_millis, None);
        assert_eq!(record.resilience.len(), 3, "zero counters elided");
        assert_eq!(record.resilience["fault.injected.timeout"], 2);
        assert_eq!(record.resilience["scan.retries"], 4);
        assert_eq!(record.resilience["scan.sessions.deduped"], 9);
        assert_eq!(record.interp.len(), 2, "zero interp counters elided");
        assert_eq!(record.interp["interp.vm.instructions"], 1234);
        assert_eq!(record.interp["interp.env.interned_slots"], 17);
        assert!(record.total_millis >= 0.0);
        assert!(record.threads_requested >= 1);
        assert!(record.threads_used >= 1);
        assert_eq!(record.shard_count, 0, "no streamed scans ran");
        if cfg!(target_os = "linux") {
            assert!(record.peak_rss_kb > 0, "procfs high-water mark captured");
        }
    }

    #[test]
    fn render_survives_empty_stage_table() {
        let mut record = sample_record();
        record.stages.clear();
        record.total_millis = 0.0;
        let text = record.render();
        // No stages means no busy time: the share columns must not divide
        // by zero, and the total line still closes the table.
        assert!(
            text.contains("total          0.0 ms wall (0.0 ms of stage work)"),
            "{text}"
        );
        assert!(!text.contains("NaN"), "{text}");
        assert!(!text.contains("inf"), "{text}");
        let parsed: CampaignTiming = serde_json::from_str(&record.to_json()).unwrap();
        assert!(parsed.stages.is_empty());
    }

    #[test]
    fn counter_prefixes_are_dot_terminated() {
        let _guard = EXCLUSIVE.lock().expect("telemetry test lock poisoned");
        vdbench_telemetry::reset();
        let trace = vdbench_telemetry::take_trace();
        let reg = vdbench_telemetry::registry::Registry::new();
        // `scandal.oops` shares the first four letters with the `scan.`
        // family; the trailing dot in the prefix must keep it out.
        reg.counter("scandal.oops").add(5);
        reg.counter("scan.retries").add(2);
        reg.counter("faulty.unit").add(3);
        reg.counter("fault.injected.flip").add(1);
        reg.counter("interpolate.x").add(4);
        reg.counter("interp.vm.instructions").add(6);
        let record = CampaignTiming::from_telemetry(1, &trace, &reg.snapshot());
        assert_eq!(
            record.resilience.keys().collect::<Vec<_>>(),
            ["fault.injected.flip", "scan.retries"],
            "lookalike counters must not leak into the resilience section"
        );
        assert_eq!(
            record.interp.keys().collect::<Vec<_>>(),
            ["interp.vm.instructions"],
            "`interpolate.*` is not an interpreter counter"
        );
        let text = record.render();
        assert!(!text.contains("scandal"), "{text}");
        assert!(!text.contains("interpolate"), "{text}");
    }

    #[test]
    fn missing_peak_rss_round_trips_as_zero() {
        // Platforms without procfs report 0; the record must carry it
        // through JSON unchanged rather than dropping or inventing a
        // value, so downstream consumers can tell "unknown" from small.
        let mut record = sample_record();
        record.peak_rss_kb = 0;
        let json = record.to_json();
        assert!(json.contains("\"peak_rss_kb\": 0"), "{json}");
        let parsed: CampaignTiming = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.peak_rss_kb, 0);
        // The render never claims an RSS figure, so a zero high-water
        // mark cannot mislead: the breakdown stays purely wall-clock.
        let text = record.render();
        assert!(!text.contains("RSS"), "{text}");
        assert_eq!(text, sample_record().render(), "render ignores peak RSS");
    }

    #[test]
    fn cache_counters_convert_from_core_stats() {
        let stats = vdbench_core::CacheStats {
            case_study_hits: 1,
            case_study_misses: 2,
            assessment_hits: 3,
            assessment_misses: 4,
            scan_hits: 5,
            scan_misses: 6,
            artifact_hits: 11,
            artifact_misses: 12,
            disk_hits: 7,
            disk_misses: 8,
            disk_writes: 9,
            disk_evictions: 10,
        };
        let counters: CacheCounters = stats.into();
        assert_eq!(counters.case_study_misses, 2);
        assert_eq!(counters.assessment_misses, 4);
        assert_eq!(counters.scan_hits, 5);
        assert_eq!(counters.artifact_hits, 11);
        assert_eq!(counters.artifact_misses, 12);
        assert_eq!(counters.disk_writes, 9);
        assert_eq!(counters.disk_evictions, 10);
    }
}
