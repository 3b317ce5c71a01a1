//! Million-unit campaigns: streamed generation, fixed-memory sharded
//! scanning on the shared pool, and incremental delta rescans.
//!
//! [`streamed_scan`] drives one detection tool over a
//! [`CorpusBuilder`]-described corpus **without ever materializing it**:
//! the caller walks the [`vdbench_corpus::CorpusStream`] one window of
//! shard plans at a time, the window's shards are materialized, scanned
//! and scored on the process-wide rayon pool, and their confusion
//! partials are folded *in shard order* into one running
//! [`ConfusionMatrix`] — peak memory is a function of the shard size
//! times the pool width, not the corpus size (the `vdbench scale` bench
//! and the CI `scale-smoke` job assert the resulting flat RSS curve).
//!
//! # Window loop
//!
//! ```text
//!  next_plans ×(threads·SHARDS_PER_THREAD) ──▶ par_iter process_shard ──▶ absorb in order
//!  └──────────────────────── repeat until the stream is empty ◀────────────────────────┘
//! ```
//!
//! A window holds the plans of `threads × SHARDS_PER_THREAD` shards
//! (one shard at `threads == 1`), so at most that many plan vectors and
//! one materialized shard per pool thread are alive at once. `collect`
//! returns outcomes in window order, so the fold absorbs them in exactly
//! the serial order. Every per-shard quantity (`rescanned`, `replayed`,
//! the preview head, the confusion partial) is computed inside
//! `process_shard` from the shard's own plans — never from schedule
//! state — so the report is **byte-identical to a monolithic
//! `build()` + scan + score** at any thread count, pool width and shard
//! size. At one thread the window is one shard run inline on the caller:
//! that is the serial path ([`streamed_scan_serial`]).
//!
//! # Incrementality contract
//!
//! Each shard persists two blobs in the store:
//!
//! * a *manifest* (kind `"manifest"`, compact binary codec): one entry
//!   per unit holding the unit's content fingerprint
//!   ([`vdbench_corpus::UnitPlan::fingerprint`] — stable across corpus
//!   growth, moved by any generator-knob or seed change) together with
//!   its scored [`SiteOutcome`]s and raw [`Finding`]s;
//! * a *header* (kind `"mhdr"`): an FNV fold of the shard's unit
//!   fingerprints plus the precomputed aggregate (sites, confusion
//!   partial, finding count, preview head).
//!
//! On a later run a shard whose fingerprint digest matches its header
//! replays **O(1)**: the aggregate folds in from the header alone, with
//! no per-unit decode and no entry clones. A digest miss falls back to
//! per-unit fingerprint matching against the manifest — growing a corpus
//! by `k` units rescans exactly `k` and invalidates only the tail
//! shard's digest; an identical rerun rescans nothing and decodes
//! nothing. `scan.units.{rescanned,replayed}` and
//! `scan.shards.digest_hits` on the telemetry registry (and the
//! [`StreamedScanReport`] fields) count the paths taken.
//!
//! Manifests are addressed per `(tool, fault, shard size, shard index)`,
//! but matching is **per unit**, so replay/rescan totals are independent
//! of the shard size used to write the manifest being read — a manifest
//! written at `--shard-units 512` simply never aliases one written at
//! `4096`. A corrupt or stale header (or manifest) is a miss, never an
//! error: the shard degrades to per-unit matching, then to a rescan. A
//! header whose digest matches is still checked before it is trusted —
//! its unit count must equal the shard's, its confusion must sum to its
//! sites, and its preview must hold `min(findings, 3)` findings — and
//! one that fails is treated as missing, then healed.
//! With the disk tier off, every unit rescans (the stream path still
//! runs in bounded memory).

use crate::cache::{self, tool_fingerprint};
use crate::campaign;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};
use vdbench_corpus::{CorpusBuilder, UnitMaterializer, UnitPlan};
use vdbench_detectors::{score_findings, Detector, Finding, SiteOutcome};
use vdbench_metrics::ConfusionMatrix;
use vdbench_telemetry::registry::Counter;

/// Default shard size: large enough to saturate the rayon pool per
/// shard, small enough that a shard of MiniWeb units plus its findings
/// stays a few tens of MB — the knob behind the flat-RSS guarantee.
pub const DEFAULT_SHARD_UNITS: usize = 4096;

/// How many findings the report retains verbatim (the CLI preview);
/// everything else is counted, not kept — the aggregate must stay O(1)
/// in corpus size.
const PREVIEW_FINDINGS: usize = 3;

/// Shards one window of the scan loop plans per thread — the scan's
/// counterpart of the rayon shim's `BLOCKS_PER_THREAD`: enough that a
/// thread stuck on an expensive shard leaves the rest of the window to
/// the others, and that the pool rarely waits on the caller planning
/// the next window; few enough that the window's plans stay a small,
/// fixed amount of memory.
const SHARDS_PER_THREAD: usize = 8;

/// The `scan.*` counters on the process-wide telemetry registry.
struct ScaleCounters {
    rescanned: Arc<Counter>,
    replayed: Arc<Counter>,
    shards: Arc<Counter>,
    digest_hits: Arc<Counter>,
}

fn counters() -> &'static ScaleCounters {
    static COUNTERS: OnceLock<ScaleCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = vdbench_telemetry::registry::global();
        ScaleCounters {
            rescanned: reg.counter("scan.units.rescanned"),
            replayed: reg.counter("scan.units.replayed"),
            shards: reg.counter("scan.shards"),
            digest_hits: reg.counter("scan.shards.digest_hits"),
        }
    })
}

/// Aggregate of one streamed scan — O(1) in corpus size.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamedScanReport {
    /// The tool's display name.
    pub tool: String,
    /// Units streamed.
    pub units: u64,
    /// Ground-truth sites scored.
    pub sites: u64,
    /// Shards the stream was consumed in.
    pub shards: u64,
    /// Pooled confusion matrix — identical to scoring the whole corpus
    /// monolithically (per-shard partials merge associatively).
    pub confusion: ConfusionMatrix,
    /// Total findings the tool reported.
    pub findings: u64,
    /// The first few findings, verbatim (corpus order).
    pub preview: Vec<Finding>,
    /// Units materialized and scanned this run.
    pub rescanned: u64,
    /// Units replayed from a fingerprint-matching manifest entry or a
    /// digest-matching shard header.
    pub replayed: u64,
    /// Shards that replayed O(1) from their header digest alone.
    pub digest_hits: u64,
}

/// Blob-store key of one shard manifest. The corpus seed and generator
/// knobs are deliberately *not* part of the address — they live in the
/// per-unit fingerprints, so a changed workload under the same address
/// simply fails every fingerprint match and rescans (correct, just
/// cold) instead of multiplying addresses.
fn manifest_key(tool_fp: u64, fault_fp: u64, shard_units: usize, shard_index: u64) -> u64 {
    let mut h = cache::fnv1a_key(b"manifest-v2");
    for word in [tool_fp, fault_fp, shard_units as u64, shard_index] {
        h = cache::fnv1a_fold_u64(h, word);
    }
    h
}

/// FNV fold over a shard's unit fingerprints — the identity a header
/// must match for the O(1) replay path. Any changed, added or removed
/// unit (including a different plan count) moves the digest.
fn shard_digest(plans: &[UnitPlan]) -> u64 {
    let mut d = cache::fnv1a_key(b"shard-digest-v1");
    for p in plans {
        d = cache::fnv1a_fold_u64(d, p.fingerprint);
    }
    d
}

/// The O(1) header of one shard manifest (blob kind `"mhdr"`): the
/// shard's fingerprint digest plus everything the fold needs, so a
/// digest-matching shard never touches its entry blob.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ShardHeader {
    /// [`shard_digest`] of the plans the manifest was written for.
    digest: u64,
    /// Units in the shard.
    units: u64,
    /// Ground-truth sites in the shard.
    sites: u64,
    /// The shard's confusion partial.
    confusion: ConfusionMatrix,
    /// Findings the tool reported on the shard.
    findings: u64,
    /// The shard's first [`PREVIEW_FINDINGS`] findings, verbatim.
    preview: Vec<Finding>,
}

impl ShardHeader {
    /// Whether the header's aggregate holds together for a shard of
    /// `units` plans. A header is addressed by its inputs only, so a
    /// hand-edited or bit-flipped count would otherwise fold straight
    /// into the report.
    fn is_consistent(&self, units: usize) -> bool {
        let c = &self.confusion;
        let total = [c.tp, c.fp, c.fn_, c.tn]
            .into_iter()
            .try_fold(0u64, u64::checked_add);
        self.units == units as u64
            && total == Some(self.sites)
            && self.preview.len() as u64 == self.findings.min(PREVIEW_FINDINGS as u64)
    }
}

// ---------------------------------------------------------------------------
// Shard manifest entries: columnar layout + compact binary codec
// ---------------------------------------------------------------------------

/// Per-unit scan results of one shard in columnar form: unit metadata in
/// parallel vectors, outcomes/findings in two flat pools sliced by
/// per-unit end offsets. Building a cold shard is three `extend` calls —
/// no per-unit vector allocations, no record clones — and the layout
/// maps 1:1 onto the binary manifest codec.
#[derive(Debug, Clone, Default, PartialEq)]
struct ShardEntries {
    /// Global unit indices, strictly ascending.
    indices: Vec<u32>,
    /// Content fingerprint per unit.
    fingerprints: Vec<u64>,
    /// Exclusive end offset of each unit's slice of `outcomes`.
    outcome_ends: Vec<u32>,
    /// Exclusive end offset of each unit's slice of `findings`.
    finding_ends: Vec<u32>,
    /// All scored records of the shard, unit order.
    outcomes: Vec<SiteOutcome>,
    /// All raw findings of the shard, unit order.
    findings: Vec<Finding>,
}

impl ShardEntries {
    fn with_capacity(units: usize) -> Self {
        ShardEntries {
            indices: Vec::with_capacity(units),
            fingerprints: Vec::with_capacity(units),
            outcome_ends: Vec::with_capacity(units),
            finding_ends: Vec::with_capacity(units),
            outcomes: Vec::new(),
            findings: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.indices.len()
    }

    /// Position of a unit by global index (the indices are ascending).
    fn find(&self, index: u32) -> Option<usize> {
        self.indices.binary_search(&index).ok()
    }

    /// Appends unit `i` of `other` (a decoded manifest) as a replayed
    /// unit of this shard.
    fn push_replayed(&mut self, other: &ShardEntries, i: usize) {
        // Unit `i`'s slice of a pool whose per-unit end offsets are `ends`.
        let range =
            |ends: &[u32]| (if i == 0 { 0 } else { ends[i - 1] as usize })..ends[i] as usize;
        self.indices.push(other.indices[i]);
        self.fingerprints.push(other.fingerprints[i]);
        self.outcomes
            .extend_from_slice(&other.outcomes[range(&other.outcome_ends)]);
        self.findings
            .extend_from_slice(&other.findings[range(&other.finding_ends)]);
        self.outcome_ends.push(self.outcomes.len() as u32);
        self.finding_ends.push(self.findings.len() as u32);
    }
}

/// Magic prefix of the binary manifest codec; the trailing digit is the
/// codec's own version (the file name also carries the store-wide
/// [`cache::CACHE_SCHEMA_VERSION`]).
const MANIFEST_MAGIC: [u8; 8] = *b"vdmanif2";

/// Stable wire code of a [`VulnClass`]. Exhaustive match: adding a
/// variant fails compilation here, forcing a codec (and schema) bump
/// instead of silently mis-decoding old blobs.
fn class_code(c: vdbench_corpus::VulnClass) -> u8 {
    use vdbench_corpus::VulnClass::*;
    match c {
        SqlInjection => 0,
        Xss => 1,
        CommandInjection => 2,
        PathTraversal => 3,
        HardcodedCredentials => 4,
        WeakHash => 5,
    }
}

fn class_from_code(b: u8) -> Option<vdbench_corpus::VulnClass> {
    use vdbench_corpus::VulnClass::*;
    Some(match b {
        0 => SqlInjection,
        1 => Xss,
        2 => CommandInjection,
        3 => PathTraversal,
        4 => HardcodedCredentials,
        5 => WeakHash,
        _ => return None,
    })
}

/// Stable wire code of a [`FlowShape`] (same exhaustiveness discipline
/// as [`class_code`]).
///
/// [`FlowShape`]: vdbench_corpus::FlowShape
fn shape_code(s: vdbench_corpus::FlowShape) -> u8 {
    use vdbench_corpus::FlowShape::*;
    match s {
        Direct => 0,
        Chained => 1,
        InputGated => 2,
        LoopCarried => 3,
        Interprocedural => 4,
        SanitizedCorrect => 5,
        SanitizedMismatch => 6,
        SanitizedPartial => 7,
        DeadGuard => 8,
        LiteralOnly => 9,
        Stored => 10,
        StoredLiteral => 11,
        BadConfiguration => 12,
        GoodConfiguration => 13,
    }
}

fn shape_from_code(b: u8) -> Option<vdbench_corpus::FlowShape> {
    use vdbench_corpus::FlowShape::*;
    Some(match b {
        0 => Direct,
        1 => Chained,
        2 => InputGated,
        3 => LoopCarried,
        4 => Interprocedural,
        5 => SanitizedCorrect,
        6 => SanitizedMismatch,
        7 => SanitizedPartial,
        8 => DeadGuard,
        9 => LiteralOnly,
        10 => Stored,
        11 => StoredLiteral,
        12 => BadConfiguration,
        13 => GoodConfiguration,
        _ => return None,
    })
}

/// Serializes a shard's entries into the compact binary manifest layout:
/// fixed-width little-endian columns, length-prefixed rationale strings.
/// A 4096-unit shard encodes in a few hundred kB where the former
/// serde-JSON entry list took several MB — manifest I/O, not scanning,
/// dominated the cold path before this codec.
fn encode_entries(e: &ShardEntries) -> Vec<u8> {
    let rationale_bytes: usize = e.findings.iter().map(|f| f.rationale.len()).sum();
    let mut out = Vec::with_capacity(
        20 + e.len() * 20 + e.outcomes.len() * 12 + e.findings.len() * 22 + rationale_bytes,
    );
    out.extend_from_slice(&MANIFEST_MAGIC);
    out.extend_from_slice(&(e.len() as u32).to_le_bytes());
    out.extend_from_slice(&(e.outcomes.len() as u32).to_le_bytes());
    out.extend_from_slice(&(e.findings.len() as u32).to_le_bytes());
    for i in 0..e.len() {
        out.extend_from_slice(&e.indices[i].to_le_bytes());
        out.extend_from_slice(&e.fingerprints[i].to_le_bytes());
        out.extend_from_slice(&e.outcome_ends[i].to_le_bytes());
        out.extend_from_slice(&e.finding_ends[i].to_le_bytes());
    }
    for r in &e.outcomes {
        out.extend_from_slice(&r.site.unit.to_le_bytes());
        out.extend_from_slice(&r.site.sink.to_le_bytes());
        let mut flags = 0u8;
        if r.reported {
            flags |= 1;
        }
        if r.vulnerable {
            flags |= 2;
        }
        if r.claimed_class.is_some() {
            flags |= 4;
        }
        out.push(flags);
        out.push(r.claimed_class.map_or(0, class_code));
        out.push(class_code(r.class));
        out.push(shape_code(r.shape));
    }
    for f in &e.findings {
        out.extend_from_slice(&f.site.unit.to_le_bytes());
        out.extend_from_slice(&f.site.sink.to_le_bytes());
        out.push(u8::from(f.class.is_some()));
        out.push(f.class.map_or(0, class_code));
        out.extend_from_slice(&f.confidence.to_bits().to_le_bytes());
        out.extend_from_slice(&(f.rationale.len() as u32).to_le_bytes());
        out.extend_from_slice(f.rationale.as_bytes());
    }
    out
}

/// Bounds-checked little-endian reader over a manifest blob.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Decodes a binary manifest blob. Every malformation — wrong magic,
/// truncation, trailing bytes, non-monotonic offsets, out-of-range enum
/// codes, invalid UTF-8 — returns `None`: the shard simply rescans, the
/// scan never fails on a bad blob.
fn decode_entries(bytes: &[u8]) -> Option<ShardEntries> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(8)? != MANIFEST_MAGIC {
        return None;
    }
    let n_units = r.u32()? as usize;
    let n_outcomes = r.u32()? as usize;
    let n_findings = r.u32()? as usize;
    // Size sanity before any allocation: a corrupt count must not be
    // able to request an absurd reservation.
    if r.remaining() < n_units * 20 + n_outcomes * 12 + n_findings * 18 {
        return None;
    }
    let mut e = ShardEntries::with_capacity(n_units);
    e.outcomes.reserve(n_outcomes);
    e.findings.reserve(n_findings);
    for i in 0..n_units {
        let index = r.u32()?;
        let fingerprint = r.u64()?;
        let outcome_end = r.u32()?;
        let finding_end = r.u32()?;
        let ordered = i == 0
            || (e.indices[i - 1] < index
                && e.outcome_ends[i - 1] <= outcome_end
                && e.finding_ends[i - 1] <= finding_end);
        if !ordered {
            return None;
        }
        e.indices.push(index);
        e.fingerprints.push(fingerprint);
        e.outcome_ends.push(outcome_end);
        e.finding_ends.push(finding_end);
    }
    if e.outcome_ends.last().copied().unwrap_or(0) as usize != n_outcomes
        || e.finding_ends.last().copied().unwrap_or(0) as usize != n_findings
    {
        return None;
    }
    for _ in 0..n_outcomes {
        let unit = r.u32()?;
        let sink = r.u32()?;
        let flags = r.u8()?;
        let claimed_code = r.u8()?;
        let class = class_from_code(r.u8()?)?;
        let shape = shape_from_code(r.u8()?)?;
        if flags > 7 {
            return None;
        }
        let claimed_class = if flags & 4 != 0 {
            Some(class_from_code(claimed_code)?)
        } else {
            None
        };
        e.outcomes.push(SiteOutcome {
            site: vdbench_corpus::SiteId { unit, sink },
            reported: flags & 1 != 0,
            claimed_class,
            vulnerable: flags & 2 != 0,
            class,
            shape,
        });
    }
    for _ in 0..n_findings {
        let unit = r.u32()?;
        let sink = r.u32()?;
        let has_class = r.u8()?;
        let class_byte = r.u8()?;
        let confidence = f64::from_bits(r.u64()?);
        let rationale_len = r.u32()? as usize;
        let rationale = std::str::from_utf8(r.take(rationale_len)?).ok()?;
        let class = match has_class {
            0 => None,
            1 => Some(class_from_code(class_byte)?),
            _ => return None,
        };
        e.findings.push(Finding {
            site: vdbench_corpus::SiteId { unit, sink },
            class,
            confidence,
            rationale: rationale.to_string(),
        });
    }
    if r.remaining() != 0 {
        return None;
    }
    Some(e)
}

// ---------------------------------------------------------------------------
// Per-shard processing
// ---------------------------------------------------------------------------

/// Everything `process_shard` needs; shared by reference across the
/// pool threads working on a window.
struct ShardScanContext<'a> {
    tool: &'a dyn Detector,
    mat: UnitMaterializer,
    tool_fp: u64,
    fault_fp: u64,
    shard_units: usize,
}

/// The O(1) result of one shard, in the order-independent form the
/// fold absorbs.
struct ShardOutcome {
    units: u64,
    sites: u64,
    confusion: ConfusionMatrix,
    findings: u64,
    preview: Vec<Finding>,
    rescanned: u64,
    replayed: u64,
    digest_hit: bool,
}

/// Scans one contiguous run of plans and appends its entries to `out`.
fn scan_run_into(cx: &ShardScanContext<'_>, run: &[UnitPlan], out: &mut ShardEntries) {
    let _span = vdbench_telemetry::span!("core", "scan_run", units = run.len());
    let shard = cx.mat.materialize(run);
    let findings = cx.tool.analyze_corpus(&shard);
    let outcome = score_findings(&cx.tool.name(), &shard, &findings);
    let o_base = out.outcomes.len();
    let f_base = out.findings.len();
    out.outcomes.extend(outcome.into_records());
    out.findings.extend(findings);
    // Records and findings are both in unit order; one pass over the run
    // computes every unit's end offsets.
    let (mut oc, mut fc) = (o_base, f_base);
    for p in run {
        while oc < out.outcomes.len() && out.outcomes[oc].site.unit == p.index {
            oc += 1;
        }
        while fc < out.findings.len() && out.findings[fc].site.unit == p.index {
            fc += 1;
        }
        out.indices.push(p.index);
        out.fingerprints.push(p.fingerprint);
        out.outcome_ends.push(oc as u32);
        out.finding_ends.push(fc as u32);
    }
    debug_assert_eq!(oc, out.outcomes.len(), "records beyond the run's units");
    debug_assert_eq!(fc, out.findings.len(), "findings beyond the run's units");
}

/// Fetch/replay/rescan/publish for one shard. Pure in the scheduling
/// sense: the outcome depends only on `(plans, shard_index)` and the
/// blob store, never on which thread runs it or when.
fn process_shard(cx: &ShardScanContext<'_>, shard_index: u64, plans: &[UnitPlan]) -> ShardOutcome {
    let _span = vdbench_telemetry::span!(
        "core",
        "scan_shard",
        index = shard_index,
        units = plans.len()
    );
    let key = manifest_key(cx.tool_fp, cx.fault_fp, cx.shard_units, shard_index);
    let digest = shard_digest(plans);
    // An inconsistent header is treated exactly like a missing one.
    let header =
        cache::disk_get::<ShardHeader>("mhdr", key).filter(|h| h.is_consistent(plans.len()));
    if let Some(h) = &header {
        if h.digest == digest {
            // O(1) warm replay: the header carries the whole aggregate.
            return ShardOutcome {
                units: plans.len() as u64,
                sites: h.sites,
                confusion: h.confusion,
                findings: h.findings,
                preview: h.preview.clone(),
                rescanned: 0,
                replayed: plans.len() as u64,
                digest_hit: true,
            };
        }
    }
    let old = cache::bytes_blob_get("manifest", key)
        .and_then(|bytes| decode_entries(&bytes))
        .unwrap_or_default();

    // Walk the shard in unit order, replaying matches and batching
    // contiguous misses into materialized runs.
    let mut entries = ShardEntries::with_capacity(plans.len());
    let mut pending: Vec<UnitPlan> = Vec::new();
    let mut rescanned: u64 = 0;
    let mut replayed: u64 = 0;
    for plan in plans {
        match old.find(plan.index) {
            Some(i) if old.fingerprints[i] == plan.fingerprint => {
                if !pending.is_empty() {
                    rescanned += pending.len() as u64;
                    scan_run_into(cx, &pending, &mut entries);
                    pending.clear();
                }
                entries.push_replayed(&old, i);
                replayed += 1;
            }
            _ => pending.push(*plan),
        }
    }
    if !pending.is_empty() {
        rescanned += pending.len() as u64;
        scan_run_into(cx, &pending, &mut entries);
        pending.clear();
    }

    let confusion =
        ConfusionMatrix::from_outcomes(entries.outcomes.iter().map(|r| (r.reported, r.vulnerable)));
    let preview: Vec<Finding> = entries
        .findings
        .iter()
        .take(PREVIEW_FINDINGS)
        .cloned()
        .collect();
    if rescanned > 0 {
        cache::bytes_blob_put("manifest", key, &encode_entries(&entries));
    }
    // Publish the header whenever it mirrors the entries on disk: after
    // a rewrite, or to heal a missing/corrupt header over a manifest
    // that exactly covers these plans. A *valid* header whose digest
    // merely differs (the same address read at a different corpus size)
    // is left alone — rewriting it would just thrash between sizes.
    if rescanned > 0
        || (header.is_none() && replayed == plans.len() as u64 && old.len() == plans.len())
    {
        cache::disk_put(
            "mhdr",
            key,
            &ShardHeader {
                digest,
                units: plans.len() as u64,
                sites: entries.outcomes.len() as u64,
                confusion,
                findings: entries.findings.len() as u64,
                preview: preview.clone(),
            },
        );
    }
    ShardOutcome {
        units: plans.len() as u64,
        sites: entries.outcomes.len() as u64,
        confusion,
        findings: entries.findings.len() as u64,
        preview,
        rescanned,
        replayed,
        digest_hit: false,
    }
}

/// Folds one shard into the running aggregate — always called in shard
/// order, whichever path produced the outcome.
fn absorb(report: &mut StreamedScanReport, out: ShardOutcome) {
    report.units += out.units;
    report.sites += out.sites;
    report.confusion = report.confusion + out.confusion;
    report.findings += out.findings;
    if report.preview.len() < PREVIEW_FINDINGS {
        for f in out.preview {
            if report.preview.len() >= PREVIEW_FINDINGS {
                break;
            }
            report.preview.push(f);
        }
    }
    report.rescanned += out.rescanned;
    report.replayed += out.replayed;
    report.digest_hits += u64::from(out.digest_hit);
    report.shards += 1;
}

/// The thread count [`streamed_scan`] uses: the ambient rayon pool size
/// (`RAYON_NUM_THREADS` honored).
#[must_use]
pub fn default_scan_threads() -> usize {
    rayon::current_num_threads()
}

/// Runs `tool` over the corpus `builder` describes, in shards of
/// `shard_units`, at [`default_scan_threads`] threads. See the module
/// docs for the memory and incrementality contracts.
///
/// The returned report's confusion matrix, finding count and preview are
/// bit-identical to a monolithic `build()` + scan + score at any shard
/// size *and any thread count*; `rescanned`/`replayed`/`digest_hits` are
/// this run's local counts (the global `scan.*` counters accumulate
/// across runs).
///
/// # Panics
///
/// Panics if `shard_units` is 0.
pub fn streamed_scan(
    tool: &dyn Detector,
    builder: &CorpusBuilder,
    shard_units: usize,
) -> StreamedScanReport {
    streamed_scan_with_threads(tool, builder, shard_units, default_scan_threads())
}

/// [`streamed_scan`] with an explicit thread count (`--scan-threads`):
/// each window plans `threads × SHARDS_PER_THREAD` shards and processes
/// them on the shared pool, whose width `RAYON_NUM_THREADS` sets. At
/// `threads == 1` a window is one shard, run inline on the caller. The
/// report is identical either way.
///
/// # Panics
///
/// Panics if `shard_units` or `threads` is 0.
pub fn streamed_scan_with_threads(
    tool: &dyn Detector,
    builder: &CorpusBuilder,
    shard_units: usize,
    threads: usize,
) -> StreamedScanReport {
    assert!(threads > 0, "scan thread count must be positive");
    assert!(shard_units > 0, "shard size must be positive");
    let mut stream = builder.stream();
    let cx = ShardScanContext {
        tool,
        mat: stream.materializer(),
        tool_fp: tool_fingerprint(tool),
        fault_fp: campaign::fault_injection().map_or(0, |c| c.fingerprint()),
        shard_units,
    };
    let _span = vdbench_telemetry::span!(
        "core",
        "streamed_scan",
        tool = tool.name(),
        units = stream.total_units(),
        shard_units = shard_units,
        threads = threads
    );
    let window_shards = if threads == 1 {
        1
    } else {
        threads * SHARDS_PER_THREAD
    };
    let mut report = StreamedScanReport {
        tool: tool.name(),
        ..StreamedScanReport::default()
    };
    while stream.remaining_units() > 0 {
        // Every shard absorbed so far numbers the next one.
        let window: Vec<(u64, Vec<UnitPlan>)> = (report.shards..)
            .take(window_shards)
            .map(|i| (i, stream.next_plans(shard_units)))
            .take_while(|(_, plans)| !plans.is_empty())
            .collect();
        let outcomes: Vec<ShardOutcome> = window
            .par_iter()
            .map(|(i, plans)| process_shard(&cx, *i, plans))
            .collect();
        for out in outcomes {
            absorb(&mut report, out);
        }
    }
    let c = counters();
    c.rescanned.add(report.rescanned);
    c.replayed.add(report.replayed);
    c.shards.add(report.shards);
    c.digest_hits.add(report.digest_hits);
    report
}

/// [`streamed_scan_with_threads`] at one thread: every shard in stream
/// order on the calling thread.
///
/// # Panics
///
/// Panics if `shard_units` is 0.
pub fn streamed_scan_serial(
    tool: &dyn Detector,
    builder: &CorpusBuilder,
    shard_units: usize,
) -> StreamedScanReport {
    streamed_scan_with_threads(tool, builder, shard_units, 1)
}

/// One measured point of the `vdbench scale` curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Corpus size at this point.
    pub units: u64,
    /// Ground-truth sites scored.
    pub sites: u64,
    /// Shards consumed.
    pub shards: u64,
    /// Wall-clock time of the streamed scan.
    pub wall_ms: u64,
    /// Process peak RSS (`VmHWM`) after the scan, in kB; 0 where procfs
    /// is unavailable. Monotonic across points, which is why the scale
    /// bench measures unit counts in ascending order.
    pub peak_rss_kb: u64,
    /// Units materialized and scanned at this point.
    pub rescanned: u64,
    /// Units replayed from manifests at this point.
    pub replayed: u64,
    /// Shards that replayed O(1) from their header digest.
    pub digest_hits: u64,
}

/// The `BENCH_scale.json` document: units-vs-wall-time and peak-RSS
/// curves for one tool, plus an optional delta-rescan measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleRecord {
    /// Tool under measurement.
    pub tool: String,
    /// Generator seed.
    pub seed: u64,
    /// Shard size used throughout.
    pub shard_units: u64,
    /// Scan threads (`--scan-threads`) used throughout.
    pub threads: u64,
    /// Measured curve, ascending unit counts.
    pub points: Vec<ScalePoint>,
    /// Delta rerun: the largest point's corpus grown by `delta_units`,
    /// rescanned incrementally.
    pub delta: Option<ScaleDelta>,
}

/// The delta-rescan measurement of a [`ScaleRecord`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleDelta {
    /// Corpus size before growth.
    pub base_units: u64,
    /// Corpus size after growth.
    pub grown_units: u64,
    /// Units actually rescanned (the growth tail — and only it, when the
    /// base run's manifests are warm).
    pub rescanned: u64,
    /// Units replayed from the base run's manifests.
    pub replayed: u64,
    /// Shards that replayed O(1) from their header digest (every shard
    /// but the growth tail's, when the base run is warm).
    pub digest_hits: u64,
    /// Wall-clock time of the delta rerun.
    pub wall_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::set_disk_cache;
    use std::sync::Mutex;
    use vdbench_detectors::{
        score_detector, FaultConfig, FaultPlan, FaultProfile, FaultyDetector, PatternScanner,
    };

    /// The disk-tier configuration is process-global; serialize the
    /// tests that repoint it.
    fn disk_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().expect("scale test lock poisoned")
    }

    fn tmp_store(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vdbench-scale-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Blob files of one kind in a store directory.
    fn blobs_of_kind(dir: &std::path::Path, kind: &str) -> Vec<std::path::PathBuf> {
        let marker = format!("-{kind}-");
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .flatten()
                    .map(|e| e.path())
                    .filter(|p| {
                        p.file_name()
                            .and_then(|n| n.to_str())
                            .is_some_and(|n| n.contains(&marker))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// What a streamed scan of `builder` in shards of `shard_units` must
    /// report with the disk tier off: the monolithic `build()` + scan +
    /// score result, every unit rescanned.
    fn monolithic_report(
        tool: &dyn Detector,
        builder: &CorpusBuilder,
        shard_units: usize,
    ) -> StreamedScanReport {
        let corpus = builder.build();
        let findings = tool.analyze_corpus(&corpus);
        let scored = score_findings(&tool.name(), &corpus, &findings);
        let units = corpus.units().len() as u64;
        StreamedScanReport {
            tool: tool.name(),
            units,
            sites: scored.records().len() as u64,
            shards: units.div_ceil(shard_units as u64),
            confusion: scored.confusion(),
            findings: findings.len() as u64,
            preview: findings.iter().take(PREVIEW_FINDINGS).cloned().collect(),
            rescanned: units,
            replayed: 0,
            digest_hits: 0,
        }
    }

    /// Shard `index`'s blob of `kind` in a store written at 32-unit
    /// shards without fault injection.
    fn shard_blob(
        dir: &std::path::Path,
        kind: &str,
        tool: &dyn Detector,
        index: u64,
    ) -> std::path::PathBuf {
        let key = format!(
            "{:016x}",
            manifest_key(tool_fingerprint(tool), 0, 32, index)
        );
        blobs_of_kind(dir, kind)
            .into_iter()
            .find(|p| p.to_string_lossy().contains(&key))
            .expect("shard blob exists")
    }

    /// The entries a cold scan of the first `units` units writes as one
    /// shard.
    fn scanned_shard(tool: &dyn Detector, units: usize, seed: u64) -> ShardEntries {
        let mut stream = CorpusBuilder::new().units(units).seed(seed).stream();
        let cx = ShardScanContext {
            tool,
            mat: stream.materializer(),
            tool_fp: tool_fingerprint(tool),
            fault_fp: 0,
            shard_units: units,
        };
        let mut entries = ShardEntries::with_capacity(units);
        scan_run_into(&cx, &stream.next_plans(units), &mut entries);
        entries
    }

    /// Runs `f` with `RAYON_NUM_THREADS` set to `width`, then unsets it.
    /// Callers hold [`disk_lock`], which also serializes these writes.
    fn at_pool_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
        std::env::set_var("RAYON_NUM_THREADS", width.to_string());
        let out = f();
        std::env::remove_var("RAYON_NUM_THREADS");
        out
    }

    #[test]
    fn streamed_scan_matches_monolithic_at_any_shard_size_and_thread_count() {
        let _guard = disk_lock();
        set_disk_cache(None);
        let clean: Box<dyn Detector> = Box::new(PatternScanner::aggressive());
        let flaky: Box<dyn Detector> = Box::new(FaultyDetector::new(
            Box::new(PatternScanner::aggressive()),
            FaultPlan::new(FaultConfig::new(FaultProfile::Flaky, 0xFA7)),
        ));
        let builder = CorpusBuilder::new().units(137).seed(0x9192).clone();
        for (profile, tool) in [("none", &clean), ("flaky", &flaky)] {
            for shard_units in [1usize, 13, 64, 137, 4096] {
                let oracle = monolithic_report(tool.as_ref(), &builder, shard_units);
                for width in [1usize, 4] {
                    for threads in [1usize, 2, 8] {
                        let report = at_pool_width(width, || {
                            streamed_scan_with_threads(
                                tool.as_ref(),
                                &builder,
                                shard_units,
                                threads,
                            )
                        });
                        assert_eq!(
                            report, oracle,
                            "fault={profile} shard={shard_units} pool={width} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn warm_store_scan_matches_monolithic_at_any_thread_count() {
        let _guard = disk_lock();
        let tool = PatternScanner::aggressive();
        let base = CorpusBuilder::new().units(100).seed(0xBEA7).clone();
        let grown = CorpusBuilder::new().units(150).seed(0xBEA7).clone();
        set_disk_cache(None);
        let oracle = monolithic_report(&tool, &grown, 16);
        for width in [1usize, 4] {
            for threads in [1usize, 2, 8] {
                let dir = tmp_store(&format!("warm-{width}-{threads}"));
                set_disk_cache(Some(dir.clone()));
                let (cold, warm) = at_pool_width(width, || {
                    let cold = streamed_scan_with_threads(&tool, &base, 16, threads);
                    // The grown corpus mixes digest hits, a partial
                    // per-unit replay of the old tail shard and a fresh
                    // rescan.
                    (cold, streamed_scan_with_threads(&tool, &grown, 16, threads))
                });
                let at = format!("pool={width} threads={threads}");
                assert_eq!(
                    (cold.rescanned, cold.replayed, cold.digest_hits),
                    (100, 0, 0),
                    "{at}"
                );
                assert_eq!(
                    StreamedScanReport {
                        rescanned: 50,
                        replayed: 100,
                        digest_hits: 6,
                        ..oracle.clone()
                    },
                    warm,
                    "{at}: six of seven base shards digest-hit"
                );
                set_disk_cache(None);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn identical_rerun_replays_every_unit_via_digests() {
        let _guard = disk_lock();
        let dir = tmp_store("rerun");
        set_disk_cache(Some(dir.clone()));
        let builder = CorpusBuilder::new().units(90).seed(0xD1FF).clone();
        let tool = PatternScanner::aggressive();
        let cold = streamed_scan(&tool, &builder, 32);
        assert_eq!(cold.rescanned, 90);
        assert_eq!(cold.replayed, 0);
        assert_eq!(cold.digest_hits, 0);
        let warm = streamed_scan(&tool, &builder, 32);
        assert_eq!(warm.rescanned, 0, "identical rerun rescans nothing");
        assert_eq!(warm.replayed, 90);
        assert_eq!(
            warm.digest_hits, warm.shards,
            "identical rerun folds every shard from its header"
        );
        assert_eq!(warm.confusion, cold.confusion);
        assert_eq!(warm.preview, cold.preview);
        assert_eq!(warm.findings, cold.findings);
        set_disk_cache(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn growing_by_k_units_rescans_exactly_k_and_misses_only_tail_digest() {
        let _guard = disk_lock();
        let dir = tmp_store("delta");
        set_disk_cache(Some(dir.clone()));
        let tool = PatternScanner::aggressive();
        let base = CorpusBuilder::new().units(70).seed(0x9E0).clone();
        let _ = streamed_scan(&tool, &base, 32);
        let grown = CorpusBuilder::new().units(95).seed(0x9E0).clone();
        let delta = streamed_scan(&tool, &grown, 32);
        assert_eq!(delta.rescanned, 25, "exactly the k new units rescan");
        assert_eq!(delta.replayed, 70);
        assert_eq!(
            delta.digest_hits, 2,
            "only the growth tail's shard misses its digest"
        );
        // The incremental result matches a from-scratch monolithic scan.
        let whole = score_detector(&tool, &grown.build());
        assert_eq!(delta.confusion, whole.confusion());
        set_disk_cache(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_seed_invalidates_every_manifest_entry() {
        let _guard = disk_lock();
        let dir = tmp_store("seedmove");
        set_disk_cache(Some(dir.clone()));
        let tool = PatternScanner::aggressive();
        let a = CorpusBuilder::new().units(40).seed(1).clone();
        let _ = streamed_scan(&tool, &a, 16);
        let b = CorpusBuilder::new().units(40).seed(2).clone();
        let moved = streamed_scan(&tool, &b, 16);
        assert_eq!(moved.rescanned, 40, "new seed, nothing replays");
        assert_eq!(moved.replayed, 0);
        assert_eq!(moved.digest_hits, 0);
        set_disk_cache(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_header_falls_back_to_per_unit_matching_and_heals() {
        let _guard = disk_lock();
        let dir = tmp_store("hdrcorrupt");
        set_disk_cache(Some(dir.clone()));
        let tool = PatternScanner::aggressive();
        let builder = CorpusBuilder::new().units(90).seed(0xC0DE).clone();
        let cold = streamed_scan(&tool, &builder, 32);
        let headers = blobs_of_kind(&dir, "mhdr");
        assert_eq!(headers.len(), 3);
        for path in &headers {
            std::fs::write(path, b"{not json at all").unwrap();
        }
        let fallback = streamed_scan(&tool, &builder, 32);
        assert_eq!(fallback.rescanned, 0, "entries still match per unit");
        assert_eq!(fallback.replayed, 90);
        assert_eq!(fallback.digest_hits, 0, "no header, no O(1) path");
        assert_eq!(fallback.confusion, cold.confusion);
        assert_eq!(fallback.preview, cold.preview);
        // The full-coverage fallback republished the headers...
        let healed = streamed_scan(&tool, &builder, 32);
        assert_eq!(healed.digest_hits, 3, "headers healed on the previous run");
        assert_eq!(healed.confusion, cold.confusion);
        set_disk_cache(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inconsistent_header_is_not_trusted_and_heals() {
        let _guard = disk_lock();
        let dir = tmp_store("hdrtamper");
        set_disk_cache(Some(dir.clone()));
        let tool = PatternScanner::aggressive();
        let builder = CorpusBuilder::new().units(90).seed(0x7A3F).clone();
        let cold = streamed_scan(&tool, &builder, 32);
        let clean = streamed_scan(&tool, &builder, 32);
        assert_eq!(clean.digest_hits, 3);
        // Raise shard 0's TP by 700 in a header that still parses and
        // still matches its digest.
        let path = shard_blob(&dir, "mhdr", &tool, 0);
        let mut header: ShardHeader =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        header.confusion.tp += 700;
        std::fs::write(&path, serde_json::to_string(&header).unwrap()).unwrap();
        let tampered = streamed_scan(&tool, &builder, 32);
        assert_eq!(
            tampered,
            StreamedScanReport {
                digest_hits: clean.digest_hits - 1,
                ..clean.clone()
            },
            "the tampered shard replays per unit"
        );
        assert_eq!(
            (tampered.confusion, tampered.sites, tampered.findings),
            (cold.confusion, cold.sites, cold.findings)
        );
        assert_eq!(tampered.preview, cold.preview);
        let healed = streamed_scan(&tool, &builder, 32);
        assert_eq!(healed, clean, "the header was rewritten on the rerun");
        set_disk_cache(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_rescans_its_shard_without_failing() {
        let _guard = disk_lock();
        let dir = tmp_store("mancorrupt");
        set_disk_cache(Some(dir.clone()));
        let tool = PatternScanner::aggressive();
        let builder = CorpusBuilder::new().units(90).seed(0x5EED).clone();
        let cold = streamed_scan(&tool, &builder, 32);
        // Destroy shard 0's manifest *and* header: the digest must not
        // rescue a shard whose entries are gone, and the scan must not
        // fail — it rescans exactly that shard.
        assert_eq!(blobs_of_kind(&dir, "manifest").len(), 3);
        std::fs::write(shard_blob(&dir, "manifest", &tool, 0), [0xFFu8; 7]).unwrap();
        std::fs::remove_file(shard_blob(&dir, "mhdr", &tool, 0)).unwrap();
        let partial = streamed_scan(&tool, &builder, 32);
        assert_eq!(partial.rescanned, 32, "only the corrupted shard rescans");
        assert_eq!(partial.replayed, 58);
        assert_eq!(partial.digest_hits, 2);
        assert_eq!(partial.confusion, cold.confusion);
        assert_eq!(partial.findings, cold.findings);
        set_disk_cache(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_codec_roundtrips_and_rejects_corruption() {
        let _guard = disk_lock();
        set_disk_cache(None);
        let entries = scanned_shard(&PatternScanner::aggressive(), 24, 0xC0DEC);
        assert_eq!(entries.len(), 24);
        assert!(!entries.outcomes.is_empty());
        let bytes = encode_entries(&entries);
        assert_eq!(decode_entries(&bytes).as_ref(), Some(&entries));

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0x55;
        assert_eq!(decode_entries(&bad), None);
        // Truncation anywhere must be a miss, never a panic.
        for cut in [0, 7, 12, 19, 20, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(decode_entries(&bytes[..cut]), None, "cut at {cut}");
        }
        // Trailing garbage.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(decode_entries(&padded), None);
        // Out-of-range enum code in the first outcome's class byte.
        let mut bad_enum = bytes.clone();
        let class_at = 20 + entries.len() * 20 + 10;
        bad_enum[class_at] = 0xEE;
        assert_eq!(decode_entries(&bad_enum), None);
    }

    #[test]
    fn replayed_entries_reencode_identically() {
        // A shard rebuilt from replayed entries must publish the same
        // bytes a fresh scan would — otherwise partial replays would
        // churn the store.
        let _guard = disk_lock();
        set_disk_cache(None);
        let fresh = scanned_shard(&PatternScanner::aggressive(), 30, 0xAB);
        let mut replayed = ShardEntries::with_capacity(fresh.len());
        for i in 0..fresh.len() {
            replayed.push_replayed(&fresh, i);
        }
        assert_eq!(replayed, fresh);
        assert_eq!(encode_entries(&replayed), encode_entries(&fresh));
    }
}
