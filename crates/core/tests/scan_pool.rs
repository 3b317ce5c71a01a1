//! The streamed scan runs on the shared pool and on no thread of its own:
//! at pool width 2 a two-thread scan records its spans on at most two
//! threads (the caller and the one pool worker), and no producer,
//! shard-worker or fold span exists.
//!
//! This binary holds one test on purpose. The pool only ever grows, so a
//! wider parallel call earlier in the same process would leave workers
//! behind that this scan could also run on.

use vdbench_core::{set_disk_cache, streamed_scan_with_threads};
use vdbench_corpus::CorpusBuilder;
use vdbench_detectors::PatternScanner;

#[test]
fn two_thread_scan_records_spans_on_at_most_two_threads() {
    std::env::set_var("RAYON_NUM_THREADS", "2");
    set_disk_cache(None);
    let tool = PatternScanner::aggressive();
    let builder = CorpusBuilder::new().units(600).seed(0x2711).clone();
    vdbench_telemetry::reset();
    vdbench_telemetry::enable();
    let report = streamed_scan_with_threads(&tool, &builder, 32, 2);
    vdbench_telemetry::disable();
    let trace = vdbench_telemetry::take_trace();
    assert_eq!((report.units, report.shards), (600, 19));
    let spans = trace.complete_spans();
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("streamed_scan"), 1);
    assert_eq!(count("scan_shard"), 19);
    for gone in ["plan_producer", "shard_worker", "shard_fold"] {
        assert_eq!(count(gone), 0, "{gone} span recorded");
    }
    let threads = trace.thread_ids();
    assert!(
        threads.len() <= 2,
        "spans on {} threads: {threads:?}",
        threads.len()
    );
}
