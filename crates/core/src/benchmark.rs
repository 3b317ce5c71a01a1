//! The benchmark runner: workload × tools × metrics.

use crate::error::{CoreError, Result};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use vdbench_corpus::Corpus;
use vdbench_detectors::{
    score_detector, score_detector_resilient, DetectionOutcome, Detector, ScanOutcome, ScanPolicy,
};
use vdbench_metrics::metric::{Metric, MetricExt};
use vdbench_metrics::MetricId;
use vdbench_report::Table;
use vdbench_stats::intervals::{wilson, Confidence};

/// A configured benchmark: one corpus, a tool roster and a metric set.
///
/// ```
/// use vdbench_core::Benchmark;
/// use vdbench_corpus::CorpusBuilder;
/// use vdbench_detectors::{PatternScanner, TaintAnalyzer};
/// use vdbench_metrics::basic::{Precision, Recall};
///
/// let corpus = CorpusBuilder::new().units(60).seed(5).build();
/// let report = Benchmark::new(corpus)
///     .tool(Box::new(PatternScanner::aggressive()))
///     .tool(Box::new(TaintAnalyzer::precise()))
///     .metric(Box::new(Precision))
///     .metric(Box::new(Recall))
///     .run()?;
/// assert_eq!(report.tool_names().len(), 2);
/// # Ok::<(), vdbench_core::CoreError>(())
/// ```
pub struct Benchmark {
    corpus: Corpus,
    tools: Vec<Box<dyn Detector>>,
    metrics: Vec<Box<dyn Metric>>,
}

impl Benchmark {
    /// Starts a benchmark over a corpus.
    pub fn new(corpus: Corpus) -> Self {
        Benchmark {
            corpus,
            tools: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Adds a tool (builder style).
    pub fn tool(mut self, tool: Box<dyn Detector>) -> Self {
        self.tools.push(tool);
        self
    }

    /// Adds several tools.
    pub fn tools(mut self, tools: Vec<Box<dyn Detector>>) -> Self {
        self.tools.extend(tools);
        self
    }

    /// Adds a metric column (builder style).
    pub fn metric(mut self, metric: Box<dyn Metric>) -> Self {
        self.metrics.push(metric);
        self
    }

    /// Adds several metric columns.
    pub fn metrics(mut self, metrics: Vec<Box<dyn Metric>>) -> Self {
        self.metrics.extend(metrics);
        self
    }

    /// The corpus under benchmark.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// Runs every tool over the corpus and evaluates every metric.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when no tools or metrics were
    /// added.
    pub fn run(self) -> Result<BenchmarkReport> {
        self.validate()?;
        // Tools are independent: fan their runs out on the pool.
        // Detector: Send + Sync by trait bound; the corpus is shared
        // read-only.
        let corpus = &self.corpus;
        let outcomes: Vec<DetectionOutcome> = self
            .tools
            .par_iter()
            .map(|t| score_detector(t.as_ref(), corpus))
            .collect();
        // An infallible run is a resilient run in which every scan
        // completed on its first attempt with no backoff.
        let scans = outcomes
            .iter()
            .map(|o| ScanRecord {
                tool: o.tool().to_string(),
                attempts: 1,
                backoff_ms: 0,
                error: None,
            })
            .collect();
        Ok(self.finish(outcomes, scans))
    }

    /// Runs every tool through the resilient scan engine
    /// ([`score_detector_resilient`]): each scan gets the policy's retry
    /// and step budgets, and a scan that exhausts its attempts degrades
    /// into an empty [`DetectionOutcome`] plus a failure record instead of
    /// aborting the benchmark.
    ///
    /// The report's [`BenchmarkReport::scans`] records attempts, recorded
    /// backoff and the terminal error per tool;
    /// [`BenchmarkReport::availability`] summarizes them. With fault-free
    /// tools this returns exactly what [`Benchmark::run`] returns (every
    /// scan completes on attempt 1).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when no tools or metrics were
    /// added. Scan failures are **not** errors — they are data.
    pub fn run_resilient(self, policy: &ScanPolicy) -> Result<BenchmarkReport> {
        self.validate()?;
        let corpus = &self.corpus;
        let scan_outcomes: Vec<ScanOutcome> = self
            .tools
            .par_iter()
            .map(|t| score_detector_resilient(t.as_ref(), corpus, policy))
            .collect();
        let mut outcomes = Vec::with_capacity(scan_outcomes.len());
        let mut scans = Vec::with_capacity(scan_outcomes.len());
        for so in scan_outcomes {
            match so {
                ScanOutcome::Completed {
                    outcome,
                    attempts,
                    backoff_ms,
                } => {
                    scans.push(ScanRecord {
                        tool: outcome.tool().to_string(),
                        attempts,
                        backoff_ms,
                        error: None,
                    });
                    outcomes.push(outcome);
                }
                ScanOutcome::Failed {
                    tool,
                    attempts,
                    backoff_ms,
                    error,
                } => {
                    scans.push(ScanRecord {
                        tool: tool.clone(),
                        attempts,
                        backoff_ms,
                        error: Some(error.to_string()),
                    });
                    // An unavailable tool contributes an empty outcome:
                    // its confusion matrix is empty and every metric is
                    // honestly NaN, not zero.
                    outcomes.push(DetectionOutcome::empty(tool));
                }
            }
        }
        Ok(self.finish(outcomes, scans))
    }

    fn validate(&self) -> Result<()> {
        if self.tools.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "benchmark has no tools".into(),
            });
        }
        if self.metrics.is_empty() {
            return Err(CoreError::InvalidConfig {
                reason: "benchmark has no metrics".into(),
            });
        }
        Ok(())
    }

    fn finish(self, outcomes: Vec<DetectionOutcome>, scans: Vec<ScanRecord>) -> BenchmarkReport {
        let metric_ids: Vec<MetricId> = self.metrics.iter().map(|m| m.id()).collect();
        let metric_labels: Vec<String> = self
            .metrics
            .iter()
            .map(|m| m.abbrev().to_string())
            .collect();
        let values: Vec<Vec<f64>> = outcomes
            .iter()
            .map(|o| {
                let cm = o.confusion();
                self.metrics.iter().map(|m| m.compute_or_nan(&cm)).collect()
            })
            .collect();
        BenchmarkReport {
            outcomes,
            scans,
            metric_ids,
            metric_labels,
            values,
        }
    }
}

/// The resilience record of one tool's scan within a benchmark run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanRecord {
    /// Tool name.
    pub tool: String,
    /// Attempts made (1 = the first try succeeded).
    pub attempts: u32,
    /// Total virtual backoff recorded between attempts, in milliseconds.
    pub backoff_ms: u64,
    /// The terminal error, when every attempt failed.
    pub error: Option<String>,
}

impl ScanRecord {
    /// Whether the scan ultimately failed.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.error.is_some()
    }

    /// Retries beyond the first attempt.
    #[must_use]
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }
}

/// The results of a benchmark run: per-tool outcomes plus the metric value
/// table (`values[tool][metric]`, `NaN` where undefined) and the per-tool
/// resilience records (one [`ScanRecord`] per tool, roster order).
///
/// Serializable so the campaign cache's disk tier
/// ([`crate::cache::cached_case_study`]) can persist whole reports as
/// content-addressed blobs: every field round-trips losslessly through
/// the vendored JSON codec (`f64` via shortest-round-trip formatting,
/// `NaN` via `null`), so a report replayed from disk renders
/// byte-identically to one computed in-process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkReport {
    outcomes: Vec<DetectionOutcome>,
    scans: Vec<ScanRecord>,
    metric_ids: Vec<MetricId>,
    metric_labels: Vec<String>,
    values: Vec<Vec<f64>>,
}

impl BenchmarkReport {
    /// Tool names in roster order.
    pub fn tool_names(&self) -> Vec<&str> {
        self.outcomes.iter().map(|o| o.tool()).collect()
    }

    /// Metric identifiers in column order.
    pub fn metric_ids(&self) -> &[MetricId] {
        &self.metric_ids
    }

    /// Raw per-tool detection outcomes.
    pub fn outcomes(&self) -> &[DetectionOutcome] {
        &self.outcomes
    }

    /// Per-tool resilience records, parallel to [`Self::outcomes`].
    pub fn scans(&self) -> &[ScanRecord] {
        &self.scans
    }

    /// Whether any tool's scan failed (its row is an empty outcome).
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.scans.iter().any(ScanRecord::failed)
    }

    /// Fraction of tools whose scans completed (1.0 = fully available,
    /// also for an empty roster).
    #[must_use]
    pub fn availability(&self) -> f64 {
        self.availability_stats().ratio()
    }

    /// Completed/failed scan counts as an
    /// [`Availability`](vdbench_metrics::Availability) tally —
    /// mergeable across scenarios for campaign-level roll-ups.
    #[must_use]
    pub fn availability_stats(&self) -> vdbench_metrics::Availability {
        let mut tally = vdbench_metrics::Availability::new();
        for s in &self.scans {
            tally.record(!s.failed());
        }
        tally
    }

    /// Converts a degraded report into a hard error — for callers that
    /// must not silently analyze partial data.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ScanFailed`] for the first failed scan.
    pub fn require_complete(self) -> Result<Self> {
        if let Some(s) = self.scans.iter().find(|s| s.failed()) {
            return Err(CoreError::ScanFailed {
                tool: s.tool.clone(),
                attempts: s.attempts,
                reason: s.error.clone().unwrap_or_default(),
            });
        }
        Ok(self)
    }

    /// Metric value for one tool/metric pair.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn value(&self, tool: usize, metric: usize) -> f64 {
        self.values[tool][metric]
    }

    /// One metric's value across all tools (column extraction).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range metric index.
    pub fn metric_column(&self, metric: usize) -> Vec<f64> {
        self.values.iter().map(|row| row[metric]).collect()
    }

    /// Renders the case-study outcomes with Wilson confidence intervals on
    /// recall and precision — the honest form of Table 4: point estimates
    /// on finite workloads come with interval estimates, and two tools
    /// whose intervals overlap have not been distinguished.
    pub fn to_interval_table(&self, title: &str, confidence: Confidence) -> Table {
        let mut table = Table::new(vec![
            "tool".to_string(),
            format!("TPR [{:.0}% CI]", confidence.level() * 100.0),
            format!("PPV [{:.0}% CI]", confidence.level() * 100.0),
        ])
        .with_title(title);
        for (i, o) in self.outcomes.iter().enumerate() {
            if self.scan_failed(i) {
                table
                    .push_row(vec![o.tool().to_string(), "✗".into(), "✗".into()])
                    .expect("row width matches header");
                continue;
            }
            let cm = o.confusion();
            let tpr = wilson(cm.tp, cm.actual_positive(), confidence)
                .map(|iv| vdbench_report::format::interval(iv.estimate, iv.lower, iv.upper))
                .unwrap_or_else(|_| "—".into());
            let ppv = wilson(cm.tp, cm.predicted_positive(), confidence)
                .map(|iv| vdbench_report::format::interval(iv.estimate, iv.lower, iv.upper))
                .unwrap_or_else(|_| "—".into());
            table
                .push_row(vec![o.tool().to_string(), tpr, ppv])
                .expect("row width matches header");
        }
        table
    }

    /// Renders the report as a table (tools × metrics). Rows of tools
    /// whose scans failed render `✗` cells — distinguishing "tool was
    /// unavailable" from "metric undefined on this matrix" (`—`).
    pub fn to_table(&self, title: &str) -> Table {
        let mut header = vec!["tool".to_string()];
        header.extend(self.metric_labels.iter().cloned());
        let mut table = Table::new(header).with_title(title);
        for (i, (o, row)) in self.outcomes.iter().zip(&self.values).enumerate() {
            let mut cells = vec![o.tool().to_string()];
            if self.scan_failed(i) {
                cells.extend((0..row.len()).map(|_| "✗".to_string()));
            } else {
                cells.extend(row.iter().map(|v| vdbench_report::format::metric(*v)));
            }
            table.push_row(cells).expect("row width matches header");
        }
        table
    }

    /// Renders the per-tool availability table: status, attempts,
    /// recorded backoff and the terminal error of each scan.
    pub fn to_availability_table(&self, title: &str) -> Table {
        let mut table = Table::new(vec![
            "tool".to_string(),
            "status".to_string(),
            "attempts".to_string(),
            "backoff (ms)".to_string(),
            "error".to_string(),
        ])
        .with_title(title);
        for s in &self.scans {
            table
                .push_row(vec![
                    s.tool.clone(),
                    if s.failed() { "failed" } else { "ok" }.to_string(),
                    s.attempts.to_string(),
                    s.backoff_ms.to_string(),
                    s.error.clone().unwrap_or_else(|| "—".into()),
                ])
                .expect("row width matches header");
        }
        table
    }

    fn scan_failed(&self, tool: usize) -> bool {
        self.scans.get(tool).is_some_and(ScanRecord::failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdbench_corpus::CorpusBuilder;
    use vdbench_detectors::{PatternScanner, ProfileTool, TaintAnalyzer};
    use vdbench_metrics::basic::{Precision, Recall};
    use vdbench_metrics::composite::Informedness;

    fn base() -> Benchmark {
        let corpus = CorpusBuilder::new()
            .units(120)
            .vulnerability_density(0.3)
            .seed(61)
            .build();
        Benchmark::new(corpus)
    }

    #[test]
    fn empty_configuration_rejected() {
        assert!(matches!(base().run(), Err(CoreError::InvalidConfig { .. })));
        assert!(base()
            .tool(Box::new(PatternScanner::aggressive()))
            .run()
            .is_err());
        assert!(base().metric(Box::new(Recall)).run().is_err());
    }

    #[test]
    fn full_run_produces_table() {
        let report = base()
            .tools(vec![
                Box::new(PatternScanner::aggressive()),
                Box::new(TaintAnalyzer::precise()),
                Box::new(ProfileTool::new("emu", 0.7, 0.1, 1)),
            ])
            .metrics(vec![
                Box::new(Precision),
                Box::new(Recall),
                Box::new(Informedness),
            ])
            .run()
            .unwrap();
        assert_eq!(report.tool_names().len(), 3);
        assert_eq!(report.metric_ids().len(), 3);
        assert_eq!(report.metric_column(1).len(), 3);
        let table = report.to_table("case study");
        assert_eq!(table.row_count(), 3);
        let text = table.render_ascii();
        assert!(text.contains("taint-d3-precise"));
        assert!(text.contains("TPR"));
        // Values are plausible rates.
        for t in 0..3 {
            for m in 0..3 {
                let v = report.value(t, m);
                assert!(v.is_nan() || (-1.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn interval_table_renders() {
        let report = base()
            .tools(vec![
                Box::new(PatternScanner::aggressive()),
                Box::new(TaintAnalyzer::precise()),
            ])
            .metric(Box::new(Recall))
            .run()
            .unwrap();
        let table = report.to_interval_table("with intervals", Confidence::P95);
        let text = table.render_ascii();
        assert!(text.contains("95% CI"));
        assert!(text.contains('['), "{text}");
        assert_eq!(table.row_count(), 2);
    }

    #[test]
    fn outcomes_align_with_tools() {
        let report = base()
            .tool(Box::new(PatternScanner::conservative()))
            .metric(Box::new(Recall))
            .run()
            .unwrap();
        assert_eq!(report.outcomes().len(), 1);
        assert_eq!(report.outcomes()[0].tool(), "pattern-cons");
    }
}
