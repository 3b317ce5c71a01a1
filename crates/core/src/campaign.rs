//! The standard experiment campaign: scenario workloads and tool roster.
//!
//! Every table/figure binary draws its configuration from here so the
//! whole evaluation is consistent and reproducible from a single seed.

use crate::benchmark::{Benchmark, BenchmarkReport};
use crate::error::Result;
use crate::scenario::Scenario;
use std::sync::RwLock;
use vdbench_corpus::{Corpus, CorpusBuilder};
use vdbench_detectors::{
    Detector, DynamicScanner, FaultConfig, FaultPlan, FaultProfile, FaultyDetector, PatternScanner,
    ProfileTool, ScanPolicy, TaintAnalyzer,
};
use vdbench_metrics::metric::Metric;

/// The process-wide fault-injection configuration (see
/// [`set_fault_injection`]). `None` — the default — means the campaign
/// runs the plain infallible engine and produces byte-identical output to
/// a build without the fault layer.
static FAULT_INJECTION: RwLock<Option<FaultConfig>> = RwLock::new(None);

/// Installs (or clears, with `None`) the process-wide fault-injection
/// configuration consulted by [`run_case_study`].
///
/// The configuration is ambient rather than threaded through every
/// table/figure entry point so the sixteen campaign artifacts keep their
/// uniform `fn() -> String` shape; the campaign cache keys on the
/// configuration's fingerprint, so reports computed under different
/// configurations never alias (see [`crate::cache`]).
pub fn set_fault_injection(config: Option<FaultConfig>) {
    *FAULT_INJECTION
        .write()
        .expect("fault-injection config lock poisoned") = config;
}

/// The currently installed fault-injection configuration, if any.
#[must_use]
pub fn fault_injection() -> Option<FaultConfig> {
    *FAULT_INJECTION
        .read()
        .expect("fault-injection config lock poisoned")
}

/// The standard tool roster: two signature scanners, two taint analyzers,
/// two dynamic scanners and two emulated commercial tools — mirroring the
/// tool families of the paper's case studies.
pub fn standard_tools(seed: u64) -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(PatternScanner::aggressive()),
        Box::new(PatternScanner::conservative()),
        Box::new(TaintAnalyzer::precise()),
        Box::new(TaintAnalyzer::shallow()),
        Box::new(DynamicScanner::thorough()),
        Box::new(DynamicScanner::quick()),
        // Commercial tools are modelled with imperfect CWE filing: vendor
        // reports notoriously misclassify findings even when detection is
        // sound.
        Box::new(ProfileTool::new("vendor-A", 0.85, 0.08, seed ^ 0xA).with_diagnosis_accuracy(0.8)),
        Box::new(ProfileTool::new("vendor-B", 0.60, 0.01, seed ^ 0xB).with_diagnosis_accuracy(0.9)),
    ]
}

/// The metric columns reported in the case-study tables.
pub fn standard_metrics() -> Vec<Box<dyn Metric>> {
    crate::selection::default_candidates()
}

/// Builds the workload for one scenario: the scenario's size and typical
/// prevalence, with the full default shape mix.
pub fn scenario_corpus(scenario: &Scenario, seed: u64) -> Corpus {
    CorpusBuilder::new()
        .units(scenario.workload_units)
        .vulnerability_density(scenario.typical_prevalence)
        .seed(seed ^ u64::from(scenario.id.label().as_bytes()[1]))
        .build()
}

/// Runs the full case study for one scenario: standard workload, standard
/// tools, standard metrics.
///
/// When a fault-injection configuration is installed (see
/// [`set_fault_injection`]) the run is delegated to
/// [`run_case_study_faulty`]; otherwise the plain infallible engine runs
/// and the output is byte-identical to a build without the fault layer.
///
/// # Errors
///
/// Propagates benchmark configuration errors (cannot occur with the
/// standard roster).
pub fn run_case_study(scenario: &Scenario, seed: u64) -> Result<BenchmarkReport> {
    match fault_injection() {
        Some(cfg) if cfg.profile != FaultProfile::None => {
            run_case_study_faulty(scenario, seed, cfg)
        }
        _ => {
            let _span = vdbench_telemetry::span!(
                "core",
                "case_study",
                scenario = scenario.id,
                units = scenario.workload_units
            );
            Benchmark::new(scenario_corpus(scenario, seed))
                .tools(standard_tools(seed))
                .metrics(standard_metrics())
                .run()
        }
    }
}

/// Runs one scenario's case study with every roster tool wrapped in a
/// [`FaultyDetector`] under `config`, through the resilient engine with
/// the default [`ScanPolicy`] (three attempts, four steps per unit of
/// budget, 50 ms base backoff).
///
/// Failed scans surface as empty outcomes plus
/// [`crate::benchmark::ScanRecord`]s on the report — the campaign
/// completes and renders regardless of how hostile the profile is.
///
/// # Errors
///
/// Propagates benchmark configuration errors (cannot occur with the
/// standard roster). Scan failures are recorded, not raised.
pub fn run_case_study_faulty(
    scenario: &Scenario,
    seed: u64,
    config: FaultConfig,
) -> Result<BenchmarkReport> {
    let _span = vdbench_telemetry::span!(
        "core",
        "case_study_faulty",
        scenario = scenario.id,
        units = scenario.workload_units,
        profile = config.profile.label()
    );
    let tools: Vec<Box<dyn Detector>> = standard_tools(seed)
        .into_iter()
        .map(|t| Box::new(FaultyDetector::new(t, FaultPlan::new(config))) as Box<dyn Detector>)
        .collect();
    Benchmark::new(scenario_corpus(scenario, seed))
        .tools(tools)
        .metrics(standard_metrics())
        .run_resilient(&ScanPolicy::default())
}

/// Renders a complete campaign report as Markdown: per-scenario case
/// studies (metric table + confidence intervals) and the metric-selection
/// summary — the artifact a benchmark operator would attach to a tool
/// procurement decision.
///
/// Case studies and the attribute assessment are served from the
/// process-wide campaign cache ([`crate::cache`]): rendering the report
/// after (or alongside) the table/figure binaries reuses their results,
/// and repeated calls with the same seed are pure cache hits.
///
/// # Errors
///
/// Propagates benchmark/selection errors (cannot occur with the standard
/// configuration).
pub fn markdown_report(seed: u64) -> Result<String> {
    use crate::attributes::AssessmentConfig;
    use crate::selection::{default_candidates, MetricSelector};
    use std::fmt::Write as _;
    use vdbench_stats::Confidence;

    let mut out = String::new();
    let _ = writeln!(out, "# vdbench campaign report (seed {seed:#x})\n");

    let selector = MetricSelector::new(
        default_candidates(),
        AssessmentConfig {
            seed,
            ..AssessmentConfig::default()
        },
    )?;

    for scenario in crate::scenario::standard_scenarios() {
        let _ = writeln!(out, "## {} — {}\n", scenario.id, scenario.name);
        let _ = writeln!(out, "{}\n", scenario.description);
        let report = crate::cache::cached_case_study(&scenario, seed)?;
        out.push_str(&report.to_table("Metric values per tool").render_markdown());
        out.push('\n');
        out.push_str(
            &report
                .to_interval_table(
                    "Recall and precision with Wilson 95% intervals",
                    Confidence::P95,
                )
                .render_markdown(),
        );
        out.push('\n');

        // Degraded runs disclose exactly which tools were unavailable;
        // fault-free runs add nothing, keeping the transcript
        // byte-identical to pre-fault-layer builds.
        if report.degraded() {
            let _ = writeln!(
                out,
                "**Degraded run**: tool availability {:.0}% under fault injection.\n",
                report.availability() * 100.0
            );
            out.push_str(
                &report
                    .to_availability_table("Per-tool scan availability")
                    .render_markdown(),
            );
            out.push('\n');
        }

        // Metric selection for this scenario (7-expert panel, σ = 0.25).
        let panel = vdbench_experts::Panel::homogeneous(
            &scenario.weight_vector(),
            7,
            0.25,
            seed ^ u64::from(scenario.id.label().as_bytes()[1]),
        );
        let outcome = selector.select(&scenario, &panel)?;
        let names: Vec<&str> = selector.candidates().iter().map(|m| m.abbrev()).collect();
        let _ = writeln!(
            out,
            "**Selected metric**: {} (analytical) / {} (MCDA, τ = {:.2}); \
             ranking the roster by it crowns **{}**.\n",
            names[outcome.analytical_ranking[0]],
            names[outcome.mcda_ranking[0]],
            outcome.agreement_tau,
            crate::ranking::rank_by_metric(
                report.outcomes(),
                selector.candidates()[outcome.analytical_ranking[0]].as_ref()
            )?
            .winner(),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{standard_scenarios, ScenarioId};

    #[test]
    fn roster_is_diverse_and_named_uniquely() {
        let tools = standard_tools(1);
        assert_eq!(tools.len(), 8);
        let mut names: Vec<String> = tools.iter().map(|t| t.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8, "tool names must be unique");
    }

    #[test]
    fn scenario_corpora_match_specifications() {
        for scenario in standard_scenarios() {
            let corpus = scenario_corpus(&scenario, 42);
            let stats = corpus.stats();
            assert_eq!(stats.units, scenario.workload_units);
            assert!(
                (stats.prevalence - scenario.typical_prevalence).abs() < 0.05,
                "{}: prevalence {} vs target {}",
                scenario.id,
                stats.prevalence,
                scenario.typical_prevalence
            );
        }
    }

    #[test]
    fn corpora_differ_between_scenarios() {
        let s1 = scenario_corpus(&Scenario::standard(ScenarioId::S1Audit), 42);
        let s2 = scenario_corpus(&Scenario::standard(ScenarioId::S2Gate), 42);
        assert_ne!(s1.seed(), s2.seed());
    }

    #[test]
    fn markdown_report_renders() {
        // Small but complete: shrink the workloads via a fast scenario
        // override is not possible here (markdown_report uses standard
        // scenarios), so just verify the real thing once.
        let report = markdown_report(3).unwrap();
        for s in [
            "# vdbench campaign report",
            "## S1",
            "## S4",
            "Selected metric",
            "Wilson 95%",
        ] {
            assert!(report.contains(s), "missing {s}");
        }
    }

    #[test]
    fn case_study_runs_end_to_end() {
        // One small scenario to keep the test fast.
        let mut scenario = Scenario::standard(ScenarioId::S1Audit);
        scenario.workload_units = 80;
        let report = run_case_study(&scenario, 7).unwrap();
        assert_eq!(report.tool_names().len(), 8);
        assert_eq!(report.metric_ids().len(), standard_metrics().len());
        // The dynamic scanner's precision column must not embarrass it.
        let names = report.tool_names();
        let pentest_idx = names.iter().position(|n| *n == "pentest-96-dict").unwrap();
        let ppv = report.value(pentest_idx, 0); // Precision is column 0
        assert!(ppv.is_nan() || ppv > 0.9, "pentest precision {ppv}");
    }
}
