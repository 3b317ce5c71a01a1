//! Experiment harness for the DSN'15 metrics-paper reproduction.
//!
//! Every table and figure of the evaluation is regenerated by a function in
//! [`tables`] / [`figures`], listed by name in [`ARTIFACTS`]. `vdbench
//! campaign` renders the whole table and `vdbench campaign --artifact
//! NAME` one entry of it. The functions return the rendered text so
//! integration tests can assert on experiment output.
//!
//! All experiments run from the fixed [`EXPERIMENT_SEED`] so output is
//! identical run-to-run — including across worker-thread counts: every
//! parallel loop in the workspace seeds its work items independently of
//! the execution schedule, and the campaign buffers artifact output in
//! [`ARTIFACTS`] order (see DESIGN.md, "Concurrency and caching").
//!
//! [`timing`] is a derived view over the `vdbench-telemetry` subsystem:
//! `vdbench campaign --timings on` enables span recording and rebuilds the
//! per-stage wall-clock + cache-counter breakdown from the trace and the
//! metrics registry (to stderr and to `BENCH_campaign.json`), while
//! `vdbench campaign --trace-out trace.json` exports the same trace in the
//! Chrome `trace_event` format (see DESIGN.md §10, "Observability").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod serve_record;
pub mod tables;
pub mod timing;

/// The seed every experiment derives its randomness from.
pub const EXPERIMENT_SEED: u64 = 0xD5_2015;

/// One campaign artifact: display name plus its renderer.
pub type Artifact = (&'static str, fn() -> String);

/// The campaign artifacts in transcript order (`results/run_all.txt`).
/// The CLI campaign and the service's `/v1/campaign` endpoint both render
/// from this one table.
pub const ARTIFACTS: [Artifact; 16] = [
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

/// The renderer of the artifact called `name`, if [`ARTIFACTS`] has one.
pub fn artifact(name: &str) -> Option<fn() -> String> {
    ARTIFACTS.iter().find(|(n, _)| *n == name).map(|&(_, r)| r)
}

/// Renders `list` on the worker pool through the artifact cache tier and
/// returns the texts in `list` order, so the buffered output is
/// byte-identical at any thread count. The whole fan-out is one
/// `bench/campaign` span; each artifact records its own `bench/artifact`
/// span with its campaign index, so the timing view can restore campaign
/// order.
pub fn render_campaign(list: &[Artifact]) -> Vec<String> {
    use rayon::prelude::*;
    let _campaign = vdbench_telemetry::span!("bench", "campaign", artifacts = list.len());
    (0..list.len())
        .into_par_iter()
        .map(|i| {
            let (name, render) = list[i];
            let _span = vdbench_telemetry::span!("bench", "artifact", name = name, index = i);
            // Final cache tier: a warm workspace replays the rendered text
            // byte-for-byte instead of recomputing the artifact's
            // post-processing on top of the cached intermediates.
            vdbench_core::cached_artifact(name, EXPERIMENT_SEED, render)
        })
        .collect()
}

/// The assessment configuration shared by the attribute-based experiments.
pub fn experiment_config() -> vdbench_core::AssessmentConfig {
    vdbench_core::AssessmentConfig {
        workload_size: 400,
        reference_prevalence: 0.2,
        tool_sample: 150,
        replicates: 300,
        seed: EXPERIMENT_SEED,
    }
}
