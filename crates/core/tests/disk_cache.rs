//! Integration tests of the persistent disk tier (`vdbench_core::cache`).
//!
//! The disk-store configuration is process-global, so every test takes
//! the same lock, points the store at its own scratch directory under
//! the system temp dir, and detaches the store (and empties the memory
//! tier) before releasing the lock. The properties under test are the
//! ones the campaign's byte-identical-transcript guarantee rests on:
//!
//! * a value that round-trips through a blob renders **byte-identically**
//!   to the freshly computed one (including non-finite metric values);
//! * a corrupt, truncated or garbage blob is a cache miss — recompute and
//!   overwrite, never a panic, never a wrong answer;
//! * rendered-artifact strings replay losslessly (control characters,
//!   non-ASCII, quotes and backslashes included) without re-rendering;
//! * opening a store sweeps blobs of foreign schema versions and
//!   abandoned tmp files, and nothing else;
//! * threads racing one key perform exactly one computation and publish
//!   exactly one blob, and concurrent publication never tears a read.

use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use vdbench_core::cache::{clear, reset_stats, stats};
use vdbench_core::{
    cached_artifact, cached_case_study, cached_scan, disk_cache_dir, raw_blob_get, raw_blob_put,
    set_disk_cache, Scenario, ScenarioId, CACHE_SCHEMA_VERSION,
};
use vdbench_corpus::CorpusBuilder;
use vdbench_detectors::{score_detector, DetectionOutcome, DynamicScanner, ProfileTool};

/// Serializes the tests: the disk-store configuration and the cache
/// counters are process-global.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A panicking sibling test must not cascade: the state it may have
    // left behind is repaired by `scratch_store` below.
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A scratch store under the system temp dir, wiped on entry, plus a
/// guard that detaches the disk tier and empties the memory tier when
/// dropped (even on panic).
struct ScratchStore {
    dir: PathBuf,
}

impl ScratchStore {
    fn open(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "vdbench-disk-cache-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        clear();
        set_disk_cache(Some(dir.clone()));
        assert_eq!(disk_cache_dir().as_deref(), Some(dir.as_path()));
        reset_stats();
        ScratchStore { dir }
    }

    /// The blob files currently in the store.
    fn blobs(&self) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
                    .collect()
            })
            .unwrap_or_default();
        paths.sort();
        paths
    }
}

impl Drop for ScratchStore {
    fn drop(&mut self) {
        set_disk_cache(None);
        clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn case_study_round_trips_byte_identically() {
    let _guard = lock();
    let store = ScratchStore::open("case-roundtrip");
    let mut scenario = Scenario::standard(ScenarioId::S1Audit);
    scenario.workload_units = 40;
    let seed = 0x00D1_5C01;

    let fresh = cached_case_study(&scenario, seed).expect("standard roster");
    let fresh_table = fresh.to_table("roundtrip").render_markdown();
    let fresh_json = serde_json::to_string(fresh.as_ref()).expect("report serializes");
    let after_cold = stats();
    assert!(after_cold.disk_writes >= 1, "cold run must publish blobs");
    assert!(after_cold.disk_hits == 0);

    // Empty the memory tier; the blob store must answer alone.
    clear();
    let replayed = cached_case_study(&scenario, seed).expect("replayed");
    assert!(
        !Arc::ptr_eq(&fresh, &replayed),
        "memory tier was cleared, this is a new Arc"
    );
    let after_warm = stats();
    assert!(after_warm.disk_hits >= 1, "replay must come from disk");
    assert_eq!(
        after_warm.disk_writes, 0,
        "nothing recomputed, nothing written"
    );

    // Byte-identical rendering and canonical serialization: the property
    // the golden-transcript check in CI rests on. (String equality of the
    // JSON also covers non-finite values, which `PartialEq` on floats
    // cannot.)
    assert_eq!(
        fresh_table,
        replayed.to_table("roundtrip").render_markdown()
    );
    assert_eq!(
        fresh_json,
        serde_json::to_string(replayed.as_ref()).expect("report serializes")
    );
    drop(store);
}

#[test]
fn scan_outcomes_round_trip_across_seeds() {
    let _guard = lock();
    let store = ScratchStore::open("scan-roundtrip");
    // Property sweep: many small workloads, one cheap tool each; every
    // outcome must replay from disk with an identical canonical form.
    for seed in 0..8u64 {
        let corpus = CorpusBuilder::new().units(12).seed(seed).build();
        let tool = ProfileTool::new("sweep", 0.7, 0.1, seed);
        let fresh = cached_scan(&tool, &corpus);
        let fresh_json = serde_json::to_string(fresh.as_ref()).expect("outcome serializes");
        clear();
        let replayed = cached_scan(&tool, &corpus);
        assert_eq!(
            fresh_json,
            serde_json::to_string(replayed.as_ref()).expect("outcome serializes"),
            "seed {seed} must replay byte-identically"
        );
        assert_eq!(fresh.confusion(), replayed.confusion());
        // `clear()` zeroes the counters, so this is per-iteration: the
        // replay right above must have been served by the blob store.
        assert!(stats().disk_hits >= 1, "seed {seed} did not hit the disk");
    }
    drop(store);
}

#[test]
fn corrupt_and_truncated_blobs_fall_back_to_recompute() {
    let _guard = lock();
    let store = ScratchStore::open("corruption");
    let corpus = CorpusBuilder::new().units(15).seed(0xBAD).build();
    let scanner = DynamicScanner::quick();
    let expected = score_detector(&scanner, &corpus);
    let _ = cached_scan(&scanner, &corpus);
    let blobs = store.blobs();
    assert!(!blobs.is_empty(), "the scan must have been persisted");

    // Corruption: outright garbage in every blob.
    for path in &blobs {
        std::fs::write(path, "{ not json at all").expect("inject corruption");
    }
    clear();
    let recomputed = cached_scan(&scanner, &corpus);
    assert_eq!(
        *recomputed, expected,
        "garbage blob must recompute, not replay"
    );
    let s = stats();
    assert_eq!(s.disk_hits, 0, "corrupt blobs are misses");
    assert!(s.disk_misses >= 1);
    assert!(
        s.disk_writes >= 1,
        "the fresh value overwrites the bad blob"
    );
    // The overwritten blob is valid again and replays.
    clear();
    let replayed = cached_scan(&scanner, &corpus);
    assert_eq!(*replayed, expected);
    assert!(stats().disk_hits >= 1);

    // Truncation: a writer torn mid-blob (impossible with the tmp+rename
    // protocol, but the reader must still shrug it off).
    for path in &blobs {
        let bytes = std::fs::read(path).expect("blob readable");
        std::fs::write(path, &bytes[..bytes.len() / 2]).expect("truncate");
    }
    clear();
    let recomputed = cached_scan(&scanner, &corpus);
    assert_eq!(*recomputed, expected, "truncated blob must recompute");
    drop(store);
}

#[test]
fn artifact_strings_replay_losslessly_without_rerendering() {
    let _guard = lock();
    let store = ScratchStore::open("artifact");
    // Every class of character the JSON string codec has to get right:
    // escapes, control characters, multi-byte UTF-8, astral plane.
    let nasty =
        "quote \" backslash \\ newline\n tab\t unit\u{1f} del\u{7f} caf\u{e9} \u{1F600} end";
    let first = cached_artifact("nasty-artifact", 0xA47, || nasty.to_string());
    assert_eq!(first, nasty);
    let replayed = cached_artifact("nasty-artifact", 0xA47, || {
        unreachable!("warm artifact must replay from disk, not re-render")
    });
    assert_eq!(replayed, nasty, "replay must be byte-identical");
    let s = stats();
    assert!(s.artifact_hits >= 1);
    // Name and seed are both part of the key.
    let other = cached_artifact("nasty-artifact", 0xA48, || "other".to_string());
    assert_eq!(other, "other");
    let renamed = cached_artifact("other-artifact", 0xA47, || "renamed".to_string());
    assert_eq!(renamed, "renamed");
    drop(store);
}

#[test]
fn racing_threads_compute_once_and_publish_one_blob() {
    let _guard = lock();
    let store = ScratchStore::open("race");
    const THREADS: usize = 8;
    let corpus = CorpusBuilder::new().units(60).seed(0x0000_CED0).build();
    let scanner = DynamicScanner::quick();
    let barrier = Barrier::new(THREADS);

    // All threads released at once onto the same cold key: the memory
    // tier's per-key cell must elect one computer and block the rest.
    let results: Vec<Arc<DetectionOutcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    cached_scan(&scanner, &corpus)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no racing thread panics"))
            .collect()
    });

    let s = stats();
    assert_eq!(s.scan_misses, 1, "exactly one thread computes");
    assert_eq!(s.scan_hits as usize, THREADS - 1, "the rest attach to it");
    assert_eq!(s.disk_writes, 1, "the winner publishes exactly once");
    for other in &results[1..] {
        assert!(
            Arc::ptr_eq(&results[0], other),
            "every racer shares the single computed value"
        );
    }

    // Exactly one complete blob landed, and it parses back to the value
    // the racers got — no torn or duplicate publication.
    let blobs = store.blobs();
    assert_eq!(blobs.len(), 1, "one key, one blob: {blobs:?}");
    let text = std::fs::read_to_string(&blobs[0]).expect("blob readable");
    let parsed: DetectionOutcome = serde_json::from_str(&text).expect("published blob is whole");
    assert_eq!(parsed, *results[0]);

    // And once the memory tier empties, the raced key replays from disk.
    clear();
    let replayed = cached_scan(&scanner, &corpus);
    assert_eq!(*replayed, *results[0]);
    assert!(stats().disk_hits >= 1, "replay must come from the blob");
    drop(store);
}

#[test]
fn concurrent_publication_to_one_key_never_tears_a_read() {
    let _guard = lock();
    let store = ScratchStore::open("publish-race");
    let key = 0xFEED_FACE_u64;
    // Payloads large enough that a non-atomic writer would be caught
    // mid-flight, each a pure repetition so any splice of the two is
    // distinguishable from both.
    let alpha = "alpha-".repeat(20_000);
    let beta = "beta-".repeat(24_000);
    raw_blob_put("scan", key, &alpha);

    std::thread::scope(|s| {
        for payload in [&alpha, &beta] {
            s.spawn(move || {
                for _ in 0..40 {
                    raw_blob_put("scan", key, payload);
                }
            });
        }
        // The reader races both writers lock-free: every observation
        // must be one of the two complete payloads, never a mixture or
        // a truncation, and never a miss (rename replaces atomically).
        for round in 0..200 {
            let text = raw_blob_get("scan", key)
                .unwrap_or_else(|| panic!("round {round}: published key must stay readable"));
            assert!(
                text == alpha || text == beta,
                "round {round}: torn read, {} bytes starting {:?}",
                text.len(),
                &text[..text.len().min(16)]
            );
        }
    });
    drop(store);
}

#[test]
fn opening_a_store_sweeps_only_foreign_schema_blobs() {
    let _guard = lock();
    clear();
    set_disk_cache(None);
    let dir = std::env::temp_dir().join(format!(
        "vdbench-disk-cache-test-{}-sweep",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let stale = dir.join("v0-case-00000000deadbeef.json");
    let abandoned = dir.join("00000000deadbeef.tmp-1-2");
    let current = dir.join(format!(
        "v{CACHE_SCHEMA_VERSION}-case-00000000deadbeef.json"
    ));
    let baseline = dir.join(format!(
        "campaign-baseline-v{CACHE_SCHEMA_VERSION}-0000000000000000.txt"
    ));
    for path in [&stale, &abandoned, &current, &baseline] {
        std::fs::write(path, "payload").expect("seed file");
    }
    reset_stats();
    set_disk_cache(Some(dir.clone()));
    assert!(!stale.exists(), "foreign schema version must be swept");
    assert!(!abandoned.exists(), "abandoned tmp file must be swept");
    assert!(current.exists(), "current schema version must survive");
    assert!(baseline.exists(), "timing baselines must survive the sweep");
    assert!(stats().disk_evictions >= 2);
    set_disk_cache(None);
    clear();
    let _ = std::fs::remove_dir_all(&dir);
}
