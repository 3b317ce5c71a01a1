//! The benchmark framework and metric-selection study — the core
//! contribution of *"On the Metrics for Benchmarking Vulnerability
//! Detection Tools"* (Antunes & Vieira, DSN 2015).
//!
//! The crate wires the substrates into the paper's three-stage method:
//!
//! 1. **Gather & analyze** — [`attributes`] empirically scores every
//!    catalog metric against the *characteristics of a good metric*
//!    (validity, prevalence invariance, chance correction, discriminative
//!    power, stability, definedness, simplicity) plus the scenario-specific
//!    *cost alignment*;
//! 2. **Scenario analysis** — [`scenario`] defines the four concrete usage
//!    scenarios; [`benchmark`] and [`ranking`] run tool case studies and
//!    expose how the metric choice changes tool rankings;
//! 3. **MCDA validation** — [`selection`] performs the analytical
//!    selection and validates it against an AHP over simulated expert
//!    panels ([`validation`] adds SAW/TOPSIS ablations).
//!
//! [`campaign`] packages the standard experiment configuration (scenario
//! workloads + tool roster) used by every table/figure binary in
//! `vdbench-bench`; [`cache`] memoizes the expensive campaign artifacts
//! (case studies, attribute assessments, raw tool scans) so the whole
//! suite computes each one exactly once per process — and, with the
//! persistent disk tier enabled ([`cache::set_disk_cache`]), exactly once
//! per workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attributes;
pub mod benchmark;
pub mod cache;
pub mod campaign;
pub mod consistency;
pub mod error;
pub mod memo;
pub mod ranking;
pub mod scale;
pub mod scenario;
pub mod selection;
pub mod validation;

pub use attributes::{assess_catalog, AssessmentConfig, AttributeAssessment, MetricAttribute};
pub use benchmark::{Benchmark, BenchmarkReport, ScanRecord};
pub use cache::{
    artifact_key, blob_inventory_in, bytes_blob_get, bytes_blob_put, cached_artifact,
    cached_assessment, cached_case_study, cached_scan, cached_scans, disk_cache_dir,
    fnv1a_fold_u64, fnv1a_key, gc_dir, raw_blob_get, raw_blob_put, set_disk_cache, BlobInventory,
    CacheStats, CACHE_SCHEMA_VERSION,
};
pub use campaign::{fault_injection, run_case_study_faulty, set_fault_injection};
pub use error::CoreError;
pub use memo::Memo;
pub use ranking::{rank_by_metric, RankingTable};
pub use scale::{
    default_scan_threads, streamed_scan, streamed_scan_serial, streamed_scan_with_threads,
    ScaleDelta, ScalePoint, ScaleRecord, StreamedScanReport, DEFAULT_SHARD_UNITS,
};
pub use scenario::{Scenario, ScenarioId};
pub use selection::{MetricSelector, SelectionOutcome};
