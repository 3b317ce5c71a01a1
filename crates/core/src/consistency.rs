//! Cross-workload ranking consistency (extension study).
//!
//! The procurement scenario's core requirement made quantitative: if the
//! same tools are benchmarked on workloads that differ *only* in
//! vulnerability density, does a metric keep ranking them the same way?
//! For each candidate metric this study computes Kendall's W over the
//! tool rankings across the workload sweep (1 = perfectly consistent) and
//! a Friedman test on the metric's tool scores (does the metric see *any*
//! consistent tool differences at all?).

use crate::cache::cached_scans;
use crate::error::{CoreError, Result};
use serde::{Deserialize, Serialize};
use vdbench_corpus::CorpusBuilder;
use vdbench_detectors::Detector;
use vdbench_metrics::metric::{Metric, MetricExt};
use vdbench_metrics::MetricId;
use vdbench_stats::correlation::kendall_w;
use vdbench_stats::hypothesis::friedman;

/// Configuration of the cross-workload sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsistencyConfig {
    /// Vulnerability densities of the workloads (one workload each).
    pub densities: Vec<f64>,
    /// Cases per workload.
    pub units: usize,
    /// Seed (each workload derives its own sub-seed).
    pub seed: u64,
}

impl Default for ConsistencyConfig {
    /// Six densities from 2% to 50%, 400 cases each.
    fn default() -> Self {
        ConsistencyConfig {
            densities: vec![0.02, 0.05, 0.1, 0.2, 0.35, 0.5],
            units: 400,
            seed: 0xC0_515,
        }
    }
}

/// Per-metric consistency results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricConsistency {
    /// The metric.
    pub metric: MetricId,
    /// Kendall's W of the metric's tool rankings across workloads
    /// (`NaN` when undefined, e.g. the metric tied every tool everywhere).
    pub kendall_w: f64,
    /// Friedman-test p-value over the metric's tool scores across
    /// workloads (small = the metric consistently distinguishes tools).
    pub friedman_p: f64,
    /// How many workloads had the metric defined for every tool.
    pub defined_workloads: usize,
}

/// Runs the sweep: every tool on every workload, every metric scored.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for an empty configuration and
/// [`CoreError::NoData`] when no workload yields defined scores.
pub fn cross_workload_consistency(
    tools: &[Box<dyn Detector>],
    metrics: &[Box<dyn Metric>],
    cfg: &ConsistencyConfig,
) -> Result<Vec<MetricConsistency>> {
    if tools.len() < 2 {
        return Err(CoreError::InvalidConfig {
            reason: "need at least two tools to rank".into(),
        });
    }
    if metrics.is_empty() || cfg.densities.len() < 2 {
        return Err(CoreError::InvalidConfig {
            reason: "need metrics and at least two workloads".into(),
        });
    }

    // outcome_scores[w][t] = pooled confusion matrix of tool t on workload w.
    let mut confusions = Vec::with_capacity(cfg.densities.len());
    for (w, &density) in cfg.densities.iter().enumerate() {
        let corpus = CorpusBuilder::new()
            .units(cfg.units)
            .vulnerability_density(density)
            .seed(cfg.seed ^ ((w as u64 + 1) * 0x9E37))
            .build();
        // Cached scans: within a process the sweep shares outcomes with
        // any sibling artifact on the same `(tool, corpus)`; across
        // processes the disk tier replays them without re-scanning.
        let row: Vec<_> = cached_scans(tools, &corpus)
            .iter()
            .map(|outcome| outcome.confusion())
            .collect();
        confusions.push(row);
    }

    let mut out = Vec::with_capacity(metrics.len());
    for metric in metrics {
        // ratings[w][t] = oriented metric value; workloads with any
        // undefined tool value are dropped for this metric (a benchmark
        // could not report them either).
        let mut ratings: Vec<Vec<f64>> = Vec::new();
        for row in &confusions {
            let vals: Vec<f64> = row
                .iter()
                .map(|cm| {
                    let v = metric.compute_or_nan(cm);
                    if metric.higher_is_better() {
                        v
                    } else {
                        -v
                    }
                })
                .collect();
            if vals.iter().all(|v| v.is_finite()) {
                ratings.push(vals);
            }
        }
        let defined_workloads = ratings.len();
        let (w, p) = if defined_workloads >= 2 {
            (
                kendall_w(&ratings).unwrap_or(f64::NAN),
                friedman(&ratings).map(|r| r.p_value).unwrap_or(f64::NAN),
            )
        } else {
            (f64::NAN, f64::NAN)
        };
        out.push(MetricConsistency {
            metric: metric.id(),
            kendall_w: w,
            friedman_p: p,
            defined_workloads,
        });
    }
    if out.iter().all(|m| m.defined_workloads == 0) {
        return Err(CoreError::NoData {
            reason: "no metric was defined on any workload",
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdbench_detectors::ProfileTool;
    use vdbench_metrics::basic::{Accuracy, Precision, Recall};
    use vdbench_metrics::composite::Informedness;

    fn tools() -> Vec<Box<dyn Detector>> {
        // A clear quality ladder so rankings are meaningful.
        vec![
            Box::new(ProfileTool::new("gold", 0.95, 0.03, 1)) as Box<dyn Detector>,
            Box::new(ProfileTool::new("silver", 0.70, 0.10, 2)),
            Box::new(ProfileTool::new("bronze", 0.45, 0.20, 3)),
        ]
    }

    fn quick_cfg() -> ConsistencyConfig {
        ConsistencyConfig {
            densities: vec![0.05, 0.15, 0.35],
            units: 1000,
            seed: 5,
        }
    }

    #[test]
    fn invariant_metrics_are_consistent() {
        let metrics: Vec<Box<dyn Metric>> = vec![
            Box::new(Recall),
            Box::new(Informedness),
            Box::new(Precision),
            Box::new(Accuracy),
        ];
        let results = cross_workload_consistency(&tools(), &metrics, &quick_cfg()).unwrap();
        assert_eq!(results.len(), 4);
        let by_id = |id: MetricId| results.iter().find(|r| r.metric == id).unwrap();
        let recall = by_id(MetricId::Recall);
        let inf = by_id(MetricId::Informedness);
        assert!(
            recall.kendall_w > 0.95,
            "recall consistency W = {}",
            recall.kendall_w
        );
        assert!(inf.kendall_w > 0.95, "informedness W = {}", inf.kendall_w);
        // A consistent quality ladder shows up in the Friedman test.
        assert!(inf.friedman_p < 0.1, "friedman p = {}", inf.friedman_p);
        for r in &results {
            assert_eq!(r.defined_workloads, 3);
        }
    }

    #[test]
    fn validation_errors() {
        let metrics: Vec<Box<dyn Metric>> = vec![Box::new(Recall)];
        let one_tool: Vec<Box<dyn Detector>> =
            vec![Box::new(ProfileTool::new("solo", 0.5, 0.1, 1))];
        assert!(cross_workload_consistency(&one_tool, &metrics, &quick_cfg()).is_err());
        let no_metrics: Vec<Box<dyn Metric>> = vec![];
        assert!(cross_workload_consistency(&tools(), &no_metrics, &quick_cfg()).is_err());
        let bad_cfg = ConsistencyConfig {
            densities: vec![0.1],
            units: 100,
            seed: 1,
        };
        assert!(cross_workload_consistency(&tools(), &metrics, &bad_cfg).is_err());
    }
}
