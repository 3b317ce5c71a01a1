//! Campaign-level memoization: each expensive artifact is computed once —
//! per process **and**, with the disk tier enabled, per workspace.
//!
//! The table/figure binaries in `vdbench-bench` all draw from the same
//! expensive computations — the per-scenario case studies
//! ([`crate::campaign::run_case_study`]), the generic metric-attribute
//! assessment ([`crate::attributes::assess_catalog`]) and the raw
//! tool-on-corpus scans behind the extension studies
//! ([`vdbench_detectors::score_detector`]). Run stand-alone, each binary
//! recomputes them from scratch; run together (`vdbench campaign`), that is a 15×
//! waste; run *twice* (CI re-runs, golden-file checks, iterative artifact
//! work), even the memoized process pays the full scan bill again. This
//! module provides a **two-tier**, content-keyed cache:
//!
//! 1. **Memory tier** — one single-flight [`Memo`] per kind: concurrent
//!    requests for the *same* key share one computation (waiters help with
//!    its parallel work instead of blocking), requests for *different*
//!    keys proceed in parallel, hits are `Arc` pointer clones. Always on.
//! 2. **Disk tier** — an optional content-addressed store of
//!    serde-serialized result blobs (one JSON file per key, named
//!    `v{schema}-{kind}-{key:016x}.json`). Off by default in the library;
//!    `vdbench campaign` enables it at `target/vdbench-cache/` (override
//!    with `--cache-dir`, disable with `--disk-cache off`). A memory-tier miss
//!    first consults the disk; only a miss in **both** tiers computes.
//!    Writes are atomic (unique tmp file + rename), reads are lock-free
//!    (plain `fs::read`, no file locking — the rename publishes complete
//!    blobs only), and any unreadable/corrupt/truncated blob is treated
//!    as a miss and overwritten by a fresh computation: the disk tier can
//!    *never* fail a campaign, only fail to accelerate it.
//!
//! # Keys
//!
//! * **Case studies** are keyed on `(scenario id, workload size,
//!   prevalence bits, seed, roster fingerprint, fault fingerprint)` —
//!   everything the report is a function of. The roster fingerprint
//!   hashes the tool names and metric identities of the standard campaign
//!   roster, so a change to [`crate::campaign::standard_tools`]
//!   invalidates the key instead of silently serving stale reports; the
//!   fault fingerprint (0 without fault injection) keeps degraded reports
//!   from aliasing clean ones — on disk too, so a `--fault-profile flaky`
//!   campaign never pollutes the clean entries it shares a workspace
//!   with.
//! * **Attribute assessments** are keyed on every field of
//!   [`AssessmentConfig`] plus a fingerprint of the assessed metric
//!   catalog.
//! * **Scans** ([`cached_scan`]) are keyed on `(tool fingerprint, corpus
//!   fingerprint, fault fingerprint)`. The tool fingerprint covers the
//!   tool's name *and* its full `Debug` configuration (budget, dictionary
//!   flags, operating-point rates, seeds …); the corpus fingerprint is a
//!   hash of the corpus' canonical JSON serialization — units, ground
//!   truth and generator seed.
//! * **Rendered artifacts** ([`cached_artifact`]) are keyed on `(artifact
//!   name, experiment seed, fault fingerprint)`: the final tier. An
//!   artifact's text is a pure function of the experiment seed (and the
//!   ambient fault configuration), so a warm campaign replays the exact
//!   bytes of the cold transcript without recomputing even the
//!   post-processing (bootstrap panels, rank statistics, chart layout)
//!   that sits *on top of* the cached intermediates. The intermediate
//!   kinds still earn their keep: they are shared across *different*
//!   artifacts within one cold run, across the stand-alone binaries, and
//!   they survive a schema-compatible change to a single artifact's
//!   rendering (only that artifact recomputes, its scans replay).
//!
//! Every disk key is additionally namespaced by [`CACHE_SCHEMA_VERSION`]
//! in the file name: bump it whenever the serialized layout *or the
//! semantics of a cached computation* change, and stale blobs from
//! earlier layouts are swept out (counted as `cache.disk.evictions`) the
//! next time the store is opened — the cache self-invalidates instead of
//! deserializing garbage.
//!
//! Hit/miss counters for all tiers feed the `vdbench campaign --timings`
//! instrumentation and the determinism regression tests; [`clear`] resets
//! the memory tier for tests that need cold-start behaviour (the disk
//! tier is left untouched — remove the directory, or point
//! [`set_disk_cache`] elsewhere, for a cold disk).

use crate::attributes::{assess_catalog, AssessmentConfig, AttributeAssessment};
use crate::benchmark::BenchmarkReport;
use crate::campaign;
use crate::error::Result;
use crate::memo::Memo;
use crate::scenario::{Scenario, ScenarioId};
use rayon::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use vdbench_corpus::Corpus;
use vdbench_detectors::{score_detector, DetectionOutcome, Detector};
use vdbench_metrics::metric::Metric;
use vdbench_telemetry::registry::Counter;

/// Version of the on-disk blob layout **and** of the semantics of the
/// cached computations. Bump on any change to the serialized types, to
/// the scoring/benchmark pipeline, or to the scanner attack plans — files
/// written under other versions are evicted on store open, so a stale
/// workspace cache self-invalidates instead of replaying outdated
/// results.
///
/// v2: shard manifests moved from serde-JSON entry lists to the compact
/// binary codec in `scale`, and gained the `mhdr` digest-header kind.
pub const CACHE_SCHEMA_VERSION: u32 = 2;

/// 64-bit FNV-1a over a byte string, continuing from `state`.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a offset basis — the starting state for fingerprints.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// 64-bit FNV-1a of a byte string from the offset basis — the hash the
/// whole cache key space is built from, exposed so out-of-crate tiers
/// (the `vdbench-server` request canonicalizer) can key into the same
/// store without reimplementing the function.
#[must_use]
pub fn fnv1a_key(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// Folds one little-endian `u64` word into an FNV-1a state — the
/// allocation-free building block for incremental key derivation (shard
/// manifest addresses, fingerprint digests) that would otherwise
/// round-trip every word through a temporary byte vector.
#[must_use]
pub fn fnv1a_fold_u64(state: u64, word: u64) -> u64 {
    fnv1a(state, &word.to_le_bytes())
}

/// Content fingerprint of a benchmark roster: tool names plus metric
/// identities, order-sensitive. Two rosters with the same fingerprint
/// produce the same [`BenchmarkReport`] on the same workload.
#[must_use]
pub fn roster_fingerprint(tools: &[Box<dyn Detector>], metrics: &[Box<dyn Metric>]) -> u64 {
    let mut h = FNV_OFFSET;
    for t in tools {
        h = fnv1a(h, t.name().as_bytes());
        h = fnv1a(h, b"\x1f");
    }
    h = fnv1a(h, b"\x1e");
    h = fnv1a(h, metrics_fingerprint(metrics).to_le_bytes().as_slice());
    h
}

/// Content fingerprint of a metric catalog (identity + column label,
/// order-sensitive).
#[must_use]
pub fn metrics_fingerprint(metrics: &[Box<dyn Metric>]) -> u64 {
    let mut h = FNV_OFFSET;
    for m in metrics {
        h = fnv1a(h, format!("{:?}", m.id()).as_bytes());
        h = fnv1a(h, m.abbrev().as_bytes());
        h = fnv1a(h, b"\x1f");
    }
    h
}

/// Content fingerprint of one detection tool: its public name *and* its
/// full `Debug` configuration. Two [`ProfileTool`]s that share a display
/// name ("vendor-A") but differ in operating point or seed fingerprint
/// differently, so the scan cache never aliases them.
///
/// [`ProfileTool`]: vdbench_detectors::ProfileTool
#[must_use]
pub fn tool_fingerprint(tool: &dyn Detector) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, tool.name().as_bytes());
    h = fnv1a(h, b"\x1f");
    fnv1a(h, format!("{tool:?}").as_bytes())
}

/// Content fingerprint of a corpus: a hash of its canonical JSON
/// serialization — every unit's AST, every site's ground truth, and the
/// generator seed. Any generator change that alters the workload changes
/// the fingerprint.
#[must_use]
pub fn corpus_fingerprint(corpus: &Corpus) -> u64 {
    let json = serde_json::to_string(corpus).expect("corpus serializes");
    fnv1a(FNV_OFFSET, json.as_bytes())
}

/// Everything a standard case-study report is a function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CaseStudyKey {
    scenario: ScenarioId,
    workload_units: usize,
    prevalence_bits: u64,
    seed: u64,
    roster: u64,
    /// Fingerprint of the ambient fault-injection configuration — `0`
    /// when no faults are injected, so degraded reports never alias
    /// clean ones (see [`campaign::set_fault_injection`]).
    fault: u64,
}

impl CaseStudyKey {
    /// Stable content hash for the disk tier (explicit field folding —
    /// never `DefaultHasher`, whose output may change across releases).
    fn content_hash(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, format!("{:?}", self.scenario).as_bytes());
        for word in [
            self.workload_units as u64,
            self.prevalence_bits,
            self.seed,
            self.roster,
            self.fault,
        ] {
            h = fnv1a(h, &word.to_le_bytes());
        }
        h
    }
}

/// Everything a generic attribute assessment is a function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AssessmentKey {
    workload_size: u64,
    prevalence_bits: u64,
    tool_sample: usize,
    replicates: usize,
    seed: u64,
    metrics: u64,
}

impl AssessmentKey {
    /// Stable content hash for the disk tier.
    fn content_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for word in [
            self.workload_size,
            self.prevalence_bits,
            self.tool_sample as u64,
            self.replicates as u64,
            self.seed,
            self.metrics,
        ] {
            h = fnv1a(h, &word.to_le_bytes());
        }
        h
    }
}

/// Everything one tool-on-corpus scan is a function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ScanKey {
    tool: u64,
    corpus: u64,
    fault: u64,
}

impl ScanKey {
    /// Stable content hash for the disk tier.
    fn content_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for word in [self.tool, self.corpus, self.fault] {
            h = fnv1a(h, &word.to_le_bytes());
        }
        h
    }
}

static CASE_STUDIES: Memo<CaseStudyKey, Result<Arc<BenchmarkReport>>> = Memo::new();
static ASSESSMENTS: Memo<AssessmentKey, Arc<Vec<AttributeAssessment>>> = Memo::new();
static SCANS: Memo<ScanKey, Arc<DetectionOutcome>> = Memo::new();

/// The hit/miss counters live on the process-wide telemetry
/// [`registry`](vdbench_telemetry::registry): they show up in every
/// metrics snapshot (`--timings`, the JSON report) for free, and the
/// handles resolve once, keeping the hot path at one relaxed atomic add.
struct CacheCounters {
    case_hits: Arc<Counter>,
    case_misses: Arc<Counter>,
    assess_hits: Arc<Counter>,
    assess_misses: Arc<Counter>,
    scan_hits: Arc<Counter>,
    scan_misses: Arc<Counter>,
    artifact_hits: Arc<Counter>,
    artifact_misses: Arc<Counter>,
    disk_hits: Arc<Counter>,
    disk_misses: Arc<Counter>,
    disk_writes: Arc<Counter>,
    disk_evictions: Arc<Counter>,
}

fn counters() -> &'static CacheCounters {
    static COUNTERS: OnceLock<CacheCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = vdbench_telemetry::registry::global();
        CacheCounters {
            case_hits: reg.counter("cache.case_study.hits"),
            case_misses: reg.counter("cache.case_study.misses"),
            assess_hits: reg.counter("cache.assessment.hits"),
            assess_misses: reg.counter("cache.assessment.misses"),
            scan_hits: reg.counter("cache.scan.hits"),
            scan_misses: reg.counter("cache.scan.misses"),
            artifact_hits: reg.counter("cache.artifact.hits"),
            artifact_misses: reg.counter("cache.artifact.misses"),
            disk_hits: reg.counter("cache.disk.hits"),
            disk_misses: reg.counter("cache.disk.misses"),
            disk_writes: reg.counter("cache.disk.writes"),
            disk_evictions: reg.counter("cache.disk.evictions"),
        }
    })
}

/// Ticks `misses` when this request computed (or read from disk), `hits`
/// when it was answered by the memory tier.
fn count(computed: bool, misses: &Counter, hits: &Counter) {
    if computed {
        misses.inc();
    } else {
        hits.inc();
    }
}

// ---------------------------------------------------------------------------
// Disk tier
// ---------------------------------------------------------------------------

/// The configured disk-store directory (`None` = disk tier off, the
/// library default).
fn disk_config() -> &'static RwLock<Option<PathBuf>> {
    static DIR: OnceLock<RwLock<Option<PathBuf>>> = OnceLock::new();
    DIR.get_or_init(|| RwLock::new(None))
}

/// Monotonic discriminator for tmp-file names: concurrent writers in one
/// process never collide even on the same key.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Points the disk tier at `dir` (`None` disables it). Opening a store
/// creates the directory and sweeps out blobs written under a different
/// [`CACHE_SCHEMA_VERSION`] (and abandoned tmp files), counting them as
/// `cache.disk.evictions`. If the directory cannot be created the disk
/// tier stays off — a read-only workspace degrades to the memory tier,
/// never to an error.
pub fn set_disk_cache(dir: Option<PathBuf>) {
    let resolved = dir.and_then(|d| {
        if std::fs::create_dir_all(&d).is_err() {
            return None;
        }
        sweep_stale_blobs(&d);
        Some(d)
    });
    *disk_config().write().expect("disk cache config poisoned") = resolved;
}

/// The active disk-store directory, if the tier is enabled.
#[must_use]
pub fn disk_cache_dir() -> Option<PathBuf> {
    disk_config()
        .read()
        .expect("disk cache config poisoned")
        .clone()
}

/// File extensions the store recognizes as blobs: serde-JSON values and
/// raw byte blobs (the compact shard-manifest codec).
const BLOB_EXTENSIONS: [&str; 2] = [".json", ".bin"];

/// Whether a store file name is a blob of either codec.
fn is_blob_name(name: &str) -> bool {
    BLOB_EXTENSIONS.iter().any(|ext| name.ends_with(ext))
}

/// Deletes blobs from other schema versions and abandoned tmp files.
fn sweep_stale_blobs(dir: &Path) {
    let current = format!("v{CACHE_SCHEMA_VERSION}-");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_blob = is_blob_name(name) && !name.starts_with(&current);
        let abandoned_tmp = name.contains(".tmp-");
        if (stale_blob || abandoned_tmp) && std::fs::remove_file(entry.path()).is_ok() {
            counters().disk_evictions.inc();
        }
    }
}

/// Blob path for a `(kind, key hash)` pair under the current schema.
fn blob_path(dir: &Path, kind: &str, key: u64) -> PathBuf {
    dir.join(format!("v{CACHE_SCHEMA_VERSION}-{kind}-{key:016x}.json"))
}

/// Byte-blob path for a `(kind, key hash)` pair under the current schema.
fn bytes_blob_path(dir: &Path, kind: &str, key: u64) -> PathBuf {
    dir.join(format!("v{CACHE_SCHEMA_VERSION}-{kind}-{key:016x}.bin"))
}

/// Reads and deserializes a blob. Every failure mode — missing file,
/// unreadable file, truncated or corrupt JSON, layout drift — is a miss:
/// the caller recomputes and overwrites. Counts `cache.disk.hits` /
/// `cache.disk.misses`.
pub(crate) fn disk_get<T: serde::de::DeserializeOwned>(kind: &str, key: u64) -> Option<T> {
    let dir = disk_cache_dir()?;
    let path = blob_path(&dir, kind, key);
    let value = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok());
    if value.is_some() {
        counters().disk_hits.inc();
    } else {
        counters().disk_misses.inc();
    }
    value
}

/// Serializes and atomically publishes a blob: write to a unique tmp file
/// in the store directory, then `rename` into place — readers only ever
/// observe complete blobs. I/O failures are silently dropped (the value
/// stays in the memory tier). Counts `cache.disk.writes`.
pub(crate) fn disk_put<T: serde::Serialize + ?Sized>(kind: &str, key: u64, value: &T) {
    let Some(dir) = disk_cache_dir() else { return };
    let path = blob_path(&dir, kind, key);
    let json = match serde_json::to_string(value) {
        Ok(j) => j,
        Err(_) => return,
    };
    publish_blob(&dir, &path, key, json.as_bytes());
}

/// Atomic tmp-file + rename publication shared by both blob codecs.
fn publish_blob(dir: &Path, path: &Path, key: u64, contents: &[u8]) {
    let tmp = dir.join(format!(
        "{:016x}.tmp-{}-{}",
        key,
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if std::fs::write(&tmp, contents).is_ok() && std::fs::rename(&tmp, path).is_ok() {
        counters().disk_writes.inc();
    } else {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Reads a raw byte blob published under `(kind, key)`. Same miss
/// semantics as `disk_get` — missing or unreadable files are misses,
/// never errors — but the contents are handed to the caller undecoded:
/// the shard-manifest codec in `scale` validates them itself, and any
/// malformed payload likewise degrades to a rescan. Counts
/// `cache.disk.hits` / `cache.disk.misses`.
#[must_use]
pub fn bytes_blob_get(kind: &str, key: u64) -> Option<Vec<u8>> {
    let dir = disk_cache_dir()?;
    let path = bytes_blob_path(&dir, kind, key);
    let value = std::fs::read(&path).ok();
    if value.is_some() {
        counters().disk_hits.inc();
    } else {
        counters().disk_misses.inc();
    }
    value
}

/// Atomically publishes a raw byte blob under `(kind, key)` — the
/// non-JSON sibling of `disk_put`, stored with a `.bin` extension so
/// the sweep/inventory/gc passes classify it like any other blob. A
/// no-op with the disk tier off. Counts `cache.disk.writes`.
pub fn bytes_blob_put(kind: &str, key: u64, bytes: &[u8]) {
    let Some(dir) = disk_cache_dir() else { return };
    let path = bytes_blob_path(&dir, kind, key);
    publish_blob(&dir, &path, key, bytes);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Snapshot of the cache hit/miss counters, all tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Case-study requests served from the memory tier.
    pub case_study_hits: u64,
    /// Case-study requests that missed the memory tier.
    pub case_study_misses: u64,
    /// Assessment requests served from the memory tier.
    pub assessment_hits: u64,
    /// Assessment requests that missed the memory tier.
    pub assessment_misses: u64,
    /// Scan requests served from the memory tier.
    pub scan_hits: u64,
    /// Scan requests that missed the memory tier.
    pub scan_misses: u64,
    /// Rendered artifacts replayed from the disk store.
    pub artifact_hits: u64,
    /// Rendered artifacts that had to be computed.
    pub artifact_misses: u64,
    /// Memory-tier misses that the disk tier answered.
    pub disk_hits: u64,
    /// Memory-tier misses the disk tier could not answer (the value was
    /// computed).
    pub disk_misses: u64,
    /// Blobs atomically published to the disk store.
    pub disk_writes: u64,
    /// Stale-schema blobs (and abandoned tmp files) swept on store open.
    pub disk_evictions: u64,
}

impl CacheStats {
    /// Total requests served from the memory tier.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.case_study_hits + self.assessment_hits + self.scan_hits
    }

    /// Total requests that missed the memory tier (of which `disk_hits`
    /// were then served from disk and `disk_misses` computed).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.case_study_misses + self.assessment_misses + self.scan_misses
    }
}

/// Current hit/miss counters (process-wide, monotonic until
/// [`reset_stats`] or [`clear`]).
#[must_use]
pub fn stats() -> CacheStats {
    let c = counters();
    CacheStats {
        case_study_hits: c.case_hits.get(),
        case_study_misses: c.case_misses.get(),
        assessment_hits: c.assess_hits.get(),
        assessment_misses: c.assess_misses.get(),
        scan_hits: c.scan_hits.get(),
        scan_misses: c.scan_misses.get(),
        artifact_hits: c.artifact_hits.get(),
        artifact_misses: c.artifact_misses.get(),
        disk_hits: c.disk_hits.get(),
        disk_misses: c.disk_misses.get(),
        disk_writes: c.disk_writes.get(),
        disk_evictions: c.disk_evictions.get(),
    }
}

/// Zeroes the hit/miss counters without touching the cached entries.
///
/// Tests that assert on *absolute* counter deltas (rather than `≥`
/// inequalities tolerant of sibling-test traffic) call this immediately
/// before the section under observation, so the assertion no longer
/// depends on what ran earlier in the process.
pub fn reset_stats() {
    let c = counters();
    c.case_hits.reset();
    c.case_misses.reset();
    c.assess_hits.reset();
    c.assess_misses.reset();
    c.scan_hits.reset();
    c.scan_misses.reset();
    c.artifact_hits.reset();
    c.artifact_misses.reset();
    c.disk_hits.reset();
    c.disk_misses.reset();
    c.disk_writes.reset();
    c.disk_evictions.reset();
}

/// Empties the memory tier and zeroes the counters (for tests and
/// benchmarks that need cold-start behaviour). In-flight computations
/// still answer their waiters but are not retained. The **disk**
/// tier is deliberately untouched: that is the whole point of a
/// persistent store — tests that need a cold disk remove the directory or
/// point [`set_disk_cache`] elsewhere.
pub fn clear() {
    CASE_STUDIES.clear();
    ASSESSMENTS.clear();
    SCANS.clear();
    reset_stats();
}

// ---------------------------------------------------------------------------
// Cached computations
// ---------------------------------------------------------------------------

/// Memoized [`campaign::run_case_study`]: the standard case study for a
/// scenario, computed at most once per `(scenario, seed, roster, fault)`
/// per process — and, with the disk tier enabled, at most once per
/// workspace — and shared behind an [`Arc`].
///
/// # Errors
///
/// Propagates (and caches) benchmark configuration errors — impossible
/// with the standard roster. Errors are never written to disk.
pub fn cached_case_study(scenario: &Scenario, seed: u64) -> Result<Arc<BenchmarkReport>> {
    let key = CaseStudyKey {
        scenario: scenario.id,
        workload_units: scenario.workload_units,
        prevalence_bits: scenario.typical_prevalence.to_bits(),
        seed,
        roster: roster_fingerprint(
            &campaign::standard_tools(seed),
            &campaign::standard_metrics(),
        ),
        fault: campaign::fault_injection().map_or(0, |c| c.fingerprint()),
    };
    let (report, computed) = CASE_STUDIES.get_or_compute(key, || {
        let hash = key.content_hash();
        if let Some(report) = disk_get::<BenchmarkReport>("case", hash) {
            return Ok(Arc::new(report));
        }
        let fresh = campaign::run_case_study(scenario, seed).map(Arc::new);
        if let Ok(report) = &fresh {
            disk_put("case", hash, report.as_ref());
        }
        fresh
    });
    count(computed, &counters().case_misses, &counters().case_hits);
    report
}

/// Memoized [`assess_catalog`]: the generic attribute sheets for a metric
/// catalog under a configuration, computed at most once per process (per
/// workspace with the disk tier) and shared behind an [`Arc`].
#[must_use]
pub fn cached_assessment(
    metrics: &[Box<dyn Metric>],
    cfg: &AssessmentConfig,
) -> Arc<Vec<AttributeAssessment>> {
    let key = AssessmentKey {
        workload_size: cfg.workload_size,
        prevalence_bits: cfg.reference_prevalence.to_bits(),
        tool_sample: cfg.tool_sample,
        replicates: cfg.replicates,
        seed: cfg.seed,
        metrics: metrics_fingerprint(metrics),
    };
    let (sheets, computed) = ASSESSMENTS.get_or_compute(key, || {
        let hash = key.content_hash();
        if let Some(sheets) = disk_get::<Vec<AttributeAssessment>>("assess", hash) {
            return Arc::new(sheets);
        }
        let fresh = Arc::new(assess_catalog(metrics, cfg));
        disk_put("assess", hash, fresh.as_ref());
        fresh
    });
    count(computed, &counters().assess_misses, &counters().assess_hits);
    sheets
}

/// Memoized [`score_detector`]: one tool scanned over one corpus, keyed
/// on the tool's full configuration, the corpus content and the ambient
/// fault fingerprint. This is the cache behind the scan-heavy extension
/// artifacts (tables 7–9, figures 5–6): within a process, repeated scans
/// of the same `(tool, corpus)` are `Arc` clones; across processes, the
/// disk tier replays the serialized [`DetectionOutcome`] instead of
/// re-executing hundreds of attack sessions.
#[must_use]
pub fn cached_scan(tool: &dyn Detector, corpus: &Corpus) -> Arc<DetectionOutcome> {
    scan_fingerprinted(tool, corpus, corpus_fingerprint(corpus))
}

/// Memoized [`score_detector`] for several tools on one corpus, in tool
/// order: [`cached_scan`] per tool, but the corpus is fingerprinted once
/// (hashing its canonical JSON costs a few milliseconds per hundred
/// units) and the tools are scanned concurrently on the pool.
#[must_use]
pub fn cached_scans(tools: &[Box<dyn Detector>], corpus: &Corpus) -> Vec<Arc<DetectionOutcome>> {
    let fingerprint = corpus_fingerprint(corpus);
    tools
        .par_iter()
        .map(|tool| scan_fingerprinted(tool.as_ref(), corpus, fingerprint))
        .collect()
}

/// [`cached_scan`] with the corpus fingerprint already computed.
fn scan_fingerprinted(
    tool: &dyn Detector,
    corpus: &Corpus,
    fingerprint: u64,
) -> Arc<DetectionOutcome> {
    let key = ScanKey {
        tool: tool_fingerprint(tool),
        corpus: fingerprint,
        fault: campaign::fault_injection().map_or(0, |c| c.fingerprint()),
    };
    let (outcome, computed) = SCANS.get_or_compute(key, || {
        let hash = key.content_hash();
        if let Some(outcome) = disk_get::<DetectionOutcome>("scan", hash) {
            return Arc::new(outcome);
        }
        let fresh = Arc::new(score_detector(tool, corpus));
        disk_put("scan", hash, fresh.as_ref());
        fresh
    });
    count(computed, &counters().scan_misses, &counters().scan_hits);
    outcome
}

/// Memoized artifact rendering — the final, coarsest cache tier.
///
/// A campaign artifact (one table or figure) is a pure function of its
/// `name`, the experiment `seed` and the ambient fault configuration, so
/// its rendered text can be replayed byte-for-byte from the disk store.
/// This is what makes a warm campaign fast end to end: the intermediate
/// tiers remove the *scans*, this tier also removes the post-processing
/// (bootstrap panels, rank statistics, chart layout) computed on top of
/// them. The JSON string codec is lossless for every Rust string
/// (control characters escaped, UTF-8 passed through), so a replayed
/// artifact is byte-identical to a recomputed one — the property the
/// golden-transcript CI check enforces.
///
/// With the disk tier off this is a plain call to `render` (plus a
/// `cache.artifact.misses` tick); there is deliberately no memory tier —
/// each artifact renders at most once per process anyway.
pub fn cached_artifact(name: &str, seed: u64, render: impl FnOnce() -> String) -> String {
    let h = artifact_key(name, seed);
    if let Some(text) = disk_get::<String>("art", h) {
        counters().artifact_hits.inc();
        return text;
    }
    counters().artifact_misses.inc();
    let text = render();
    disk_put("art", h, &text);
    text
}

/// The disk-store key of one rendered artifact: `(name, seed, ambient
/// fault fingerprint)` folded through FNV-1a — exactly the key
/// [`cached_artifact`] files its blob under. Exposed so the campaign
/// service can probe the store for a warm artifact (kind `"art"`) without
/// holding the renderer.
#[must_use]
pub fn artifact_key(name: &str, seed: u64) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, name.as_bytes());
    h = fnv1a(h, b"\x1f");
    h = fnv1a(h, &seed.to_le_bytes());
    let fault = campaign::fault_injection().map_or(0, |c| c.fingerprint());
    fnv1a(h, &fault.to_le_bytes())
}

/// Reads a raw string blob published under `(kind, key)` from the disk
/// tier, if the tier is enabled and holds a complete, well-formed blob.
/// This is the warm path of the campaign service: a hit is one
/// `fs::read` plus a JSON string decode, no computation. Counts
/// `cache.disk.hits` / `cache.disk.misses` like every other disk read.
#[must_use]
pub fn raw_blob_get(kind: &str, key: u64) -> Option<String> {
    disk_get::<String>(kind, key)
}

/// Atomically publishes a raw string blob under `(kind, key)`: unique
/// tmp file + rename, so concurrent readers only ever observe complete
/// blobs and a crash mid-write leaves at worst an abandoned tmp file
/// (swept on the next store open). A no-op with the disk tier off.
pub fn raw_blob_put(kind: &str, key: u64, text: &str) {
    disk_put(kind, key, text);
}

// ---------------------------------------------------------------------------
// Store inventory & on-demand GC (`vdbench cache`)
// ---------------------------------------------------------------------------

/// Per-kind blob census of one store directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlobInventory {
    /// `(count, bytes)` per blob kind (`case`, `scan`, `art`, `manifest`,
    /// `srv-scan`, …), current schema version only, sorted by kind.
    pub kinds: std::collections::BTreeMap<String, (u64, u64)>,
    /// `(count, bytes)` of blobs written under other schema versions.
    pub stale: (u64, u64),
    /// `(count, bytes)` of abandoned tmp files (crashed mid-publish).
    pub tmp: (u64, u64),
}

impl BlobInventory {
    /// Total live blobs (current schema) across all kinds.
    #[must_use]
    pub fn live_count(&self) -> u64 {
        self.kinds.values().map(|(n, _)| n).sum()
    }

    /// Total live-blob bytes across all kinds.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.kinds.values().map(|(_, b)| b).sum()
    }
}

/// Walks a store directory and classifies every file by kind, without
/// touching the ambient disk-tier configuration (unlike
/// [`set_disk_cache`], which sweeps on open — this is a read-only
/// census, so `vdbench cache stats` can report *before* any sweeping).
#[must_use]
pub fn blob_inventory_in(dir: &Path) -> BlobInventory {
    let mut inv = BlobInventory::default();
    let current = format!("v{CACHE_SCHEMA_VERSION}-");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return inv;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
        if name.contains(".tmp-") {
            inv.tmp.0 += 1;
            inv.tmp.1 += bytes;
            continue;
        }
        if !is_blob_name(name) {
            continue;
        }
        let Some(stem) = name.strip_prefix(&current).map(|s| {
            BLOB_EXTENSIONS
                .iter()
                .find_map(|ext| s.strip_suffix(ext))
                .unwrap_or(s)
        }) else {
            inv.stale.0 += 1;
            inv.stale.1 += bytes;
            continue;
        };
        // `{kind}-{key:016x}` — the kind itself may contain dashes
        // ("srv-scan"), so split at the *last* one.
        let kind = stem.rsplit_once('-').map_or(stem, |(k, _)| k);
        let slot = inv.kinds.entry(kind.to_string()).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += bytes;
    }
    inv
}

/// Sweeps stale-schema blobs and abandoned tmp files out of `dir` on
/// demand, returning `(files removed, bytes reclaimed)`. The same policy
/// [`set_disk_cache`] applies on store open, exposed separately so
/// `vdbench cache gc` can clean a store it never opens for computation.
/// Removals are counted as `cache.disk.evictions`.
pub fn gc_dir(dir: &Path) -> (u64, u64) {
    let current = format!("v{CACHE_SCHEMA_VERSION}-");
    let mut removed = (0u64, 0u64);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return removed;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_blob = is_blob_name(name) && !name.starts_with(&current);
        let abandoned_tmp = name.contains(".tmp-");
        if !(stale_blob || abandoned_tmp) {
            continue;
        }
        let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
        if std::fs::remove_file(entry.path()).is_ok() {
            counters().disk_evictions.inc();
            removed.0 += 1;
            removed.1 += bytes;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{standard_scenarios, Scenario, ScenarioId};
    use crate::selection::default_candidates;
    use vdbench_corpus::CorpusBuilder;
    use vdbench_detectors::DynamicScanner;

    /// Serializes the tests in this module: [`clear`] must not run while a
    /// sibling test is asserting `Arc::ptr_eq` on live entries, and the
    /// disk-tier configuration is process-global.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().expect("cache test lock poisoned")
    }

    fn quick_cfg(seed: u64) -> AssessmentConfig {
        AssessmentConfig {
            workload_size: 60,
            reference_prevalence: 0.2,
            tool_sample: 10,
            replicates: 20,
            seed,
        }
    }

    #[test]
    fn assessment_cache_hits_on_repeat_and_distinguishes_configs() {
        let _guard = test_lock();
        let catalog = default_candidates();
        // Unique seeds so other tests in the binary cannot collide with
        // the per-key behaviour under observation.
        let cfg_a = quick_cfg(0x00CA_C4EA);
        let cfg_b = quick_cfg(0x00CA_C4EB);
        let before = stats();
        let first = cached_assessment(&catalog, &cfg_a);
        let second = cached_assessment(&catalog, &cfg_a);
        assert!(Arc::ptr_eq(&first, &second), "repeat must share the Arc");
        let other = cached_assessment(&catalog, &cfg_b);
        assert!(!Arc::ptr_eq(&first, &other), "different seed, new entry");
        let after = stats();
        // ≥ rather than ==: unrelated tests in this binary may also use
        // the (process-global) cache concurrently.
        assert!(after.assessment_misses >= before.assessment_misses + 2);
        assert!(after.assessment_hits > before.assessment_hits);
        // The cached sheets match a direct computation exactly.
        assert_eq!(*first, assess_catalog(&catalog, &cfg_a));
    }

    #[test]
    fn case_study_cache_is_keyed_on_workload_shape() {
        let _guard = test_lock();
        let mut scenario = Scenario::standard(ScenarioId::S1Audit);
        scenario.workload_units = 40;
        let seed = 0x00CA_C4EC;
        let first = cached_case_study(&scenario, seed).unwrap();
        let again = cached_case_study(&scenario, seed).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        // A different workload size is a different key.
        scenario.workload_units = 44;
        let other = cached_case_study(&scenario, seed).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        assert!(
            other.outcomes()[0].records().len() > first.outcomes()[0].records().len(),
            "larger workload, more cases"
        );
    }

    #[test]
    fn scan_cache_distinguishes_tools_and_corpora() {
        let _guard = test_lock();
        let corpus_a = CorpusBuilder::new().units(20).seed(0x5CAA).build();
        let corpus_b = CorpusBuilder::new().units(20).seed(0x5CAB).build();
        let quick = DynamicScanner::quick();
        let first = cached_scan(&quick, &corpus_a);
        let again = cached_scan(&quick, &corpus_a);
        assert!(Arc::ptr_eq(&first, &again), "repeat scan must share");
        let other_corpus = cached_scan(&quick, &corpus_b);
        assert!(!Arc::ptr_eq(&first, &other_corpus));
        let other_tool = cached_scan(&DynamicScanner::thorough(), &corpus_a);
        assert!(!Arc::ptr_eq(&first, &other_tool));
        // The cached outcome matches a direct scan exactly.
        assert_eq!(*first, score_detector(&quick, &corpus_a));
    }

    #[test]
    fn batched_scans_match_single_scans_in_tool_order() {
        let _guard = test_lock();
        let corpus = CorpusBuilder::new().units(20).seed(0x5CAC).build();
        let tools: Vec<Box<dyn Detector>> = vec![
            Box::new(DynamicScanner::thorough()),
            Box::new(DynamicScanner::quick()),
        ];
        let batched = cached_scans(&tools, &corpus);
        assert_eq!(batched.len(), 2);
        for (tool, outcome) in tools.iter().zip(&batched) {
            let single = cached_scan(tool.as_ref(), &corpus);
            assert!(Arc::ptr_eq(outcome, &single), "same memo entry");
            assert_eq!(outcome.tool(), tool.name());
        }
    }

    #[test]
    fn fingerprints_are_order_sensitive() {
        let catalog = default_candidates();
        let mut reversed = default_candidates();
        reversed.reverse();
        assert_ne!(
            metrics_fingerprint(&catalog),
            metrics_fingerprint(&reversed)
        );
        let tools = campaign::standard_tools(1);
        let fp1 = roster_fingerprint(&tools, &catalog);
        let fp2 = roster_fingerprint(&campaign::standard_tools(1), &catalog);
        assert_eq!(fp1, fp2, "fingerprint is content-based, not identity-based");
        assert_ne!(fp1, roster_fingerprint(&tools, &reversed));
    }

    #[test]
    fn tool_fingerprint_sees_configuration_not_just_name() {
        use vdbench_detectors::ProfileTool;
        let a = ProfileTool::new("vendor-A", 0.8, 0.05, 7);
        let b = ProfileTool::new("vendor-A", 0.9, 0.05, 7);
        let c = ProfileTool::new("vendor-A", 0.8, 0.05, 8);
        assert_ne!(
            tool_fingerprint(&a),
            tool_fingerprint(&b),
            "same display name, different operating point"
        );
        assert_ne!(
            tool_fingerprint(&a),
            tool_fingerprint(&c),
            "same display name, different seed"
        );
        assert_eq!(
            tool_fingerprint(&a),
            tool_fingerprint(&ProfileTool::new("vendor-A", 0.8, 0.05, 7)),
            "content-based, not identity-based"
        );
    }

    #[test]
    fn corpus_fingerprint_tracks_content() {
        let a = CorpusBuilder::new().units(10).seed(1).build();
        let b = CorpusBuilder::new().units(10).seed(2).build();
        assert_ne!(corpus_fingerprint(&a), corpus_fingerprint(&b));
        assert_eq!(corpus_fingerprint(&a), corpus_fingerprint(&a.clone()));
    }

    #[test]
    fn artifact_tier_is_passthrough_without_disk() {
        let _guard = test_lock();
        assert!(
            disk_cache_dir().is_none(),
            "library default must leave the disk tier off"
        );
        let before = stats();
        let text = cached_artifact("unit-test-artifact", 0xA47, || "α\tβ\nγ".to_string());
        assert_eq!(text, "α\tβ\nγ");
        let after = stats();
        assert_eq!(after.artifact_misses, before.artifact_misses + 1);
        assert_eq!(after.artifact_hits, before.artifact_hits);
        // Without a store there is no disk traffic at all.
        assert_eq!(after.disk_hits, before.disk_hits);
        assert_eq!(after.disk_misses, before.disk_misses);
        assert_eq!(after.disk_writes, before.disk_writes);
    }

    #[test]
    fn inventory_and_gc_classify_the_store() {
        let _guard = test_lock();
        let dir = std::env::temp_dir().join(format!("vdbench-cache-inv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let live_scan = blob_path(&dir, "scan", 0x1);
        let live_srv = blob_path(&dir, "srv-scan", 0x2);
        let live_manifest = bytes_blob_path(&dir, "manifest", 0x5);
        std::fs::write(&live_scan, "\"x\"").unwrap();
        std::fs::write(&live_srv, "\"yy\"").unwrap();
        std::fs::write(&live_manifest, [0u8, 1, 2, 3, 4]).unwrap();
        std::fs::write(dir.join("v0-scan-0000000000000003.json"), "old").unwrap();
        std::fs::write(dir.join("v0-manifest-0000000000000006.bin"), "oldbin").unwrap();
        std::fs::write(dir.join("0000000000000004.tmp-1-0"), "half").unwrap();
        let inv = blob_inventory_in(&dir);
        assert_eq!(inv.kinds["scan"], (1, 3));
        assert_eq!(inv.kinds["srv-scan"], (1, 4));
        assert_eq!(inv.kinds["manifest"], (1, 5));
        assert_eq!(inv.live_count(), 3);
        assert_eq!(inv.live_bytes(), 12);
        assert_eq!(inv.stale.0, 2, "stale .bin blobs classify like .json");
        assert_eq!(inv.tmp.0, 1);
        let (files, bytes) = gc_dir(&dir);
        assert_eq!(files, 3);
        assert!(bytes > 0);
        let after = blob_inventory_in(&dir);
        assert_eq!(after.stale, (0, 0));
        assert_eq!(after.tmp, (0, 0));
        assert_eq!(after.live_count(), 3, "gc never touches live blobs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bytes_blobs_roundtrip_and_miss_without_store() {
        let _guard = test_lock();
        assert_eq!(bytes_blob_get("manifest", 0xB17), None, "disk tier off");
        bytes_blob_put("manifest", 0xB17, b"dropped"); // no-op without a store
        let dir = std::env::temp_dir().join(format!("vdbench-cache-bin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        set_disk_cache(Some(dir.clone()));
        assert_eq!(bytes_blob_get("manifest", 0xB17), None, "cold store");
        let payload: Vec<u8> = (0u8..=255).collect();
        bytes_blob_put("manifest", 0xB17, &payload);
        assert_eq!(
            bytes_blob_get("manifest", 0xB17).as_deref(),
            Some(&payload[..])
        );
        // Stale-schema byte blobs are swept on the next store open.
        std::fs::write(dir.join("v0-manifest-00000000000000aa.bin"), "stale").unwrap();
        set_disk_cache(Some(dir.clone()));
        let inv = blob_inventory_in(&dir);
        assert_eq!(inv.stale, (0, 0));
        assert_eq!(inv.kinds["manifest"], (1, 256));
        set_disk_cache(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv1a_fold_u64_matches_byte_folding() {
        let h0 = fnv1a_key(b"manifest-v2");
        let folded = fnv1a_fold_u64(h0, 0xDEAD_BEEF_0BAD_F00D);
        let byted = fnv1a(h0, &0xDEAD_BEEF_0BAD_F00Du64.to_le_bytes());
        assert_eq!(folded, byted);
        assert_ne!(folded, fnv1a_fold_u64(h0, 0xDEAD_BEEF_0BAD_F00E));
    }

    #[test]
    fn clear_resets_counters_and_entries() {
        let _guard = test_lock();
        let _ = standard_scenarios();
        clear();
        let s = stats();
        assert_eq!(s, CacheStats::default());
        assert_eq!(s.hits(), 0);
        assert_eq!(s.misses(), 0);
    }
}
