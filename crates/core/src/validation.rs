//! Stage-3 validation drivers: cross-scenario runs, MCDA-method ablation
//! and the expert-noise robustness sweep (Fig. 4).

use crate::error::Result;
use crate::scenario::{standard_scenarios, Scenario};
use crate::selection::{MetricSelector, SelectionOutcome};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use vdbench_experts::Panel;
use vdbench_mcda::decision::{Criterion, DecisionMatrix, Direction};
use vdbench_mcda::priority::eigenvector_priorities;
use vdbench_mcda::{saw, topsis};
use vdbench_metrics::MetricId;
use vdbench_stats::correlation::kendall_tau;
use vdbench_stats::SeededRng;

/// Runs the full selection + validation pipeline over all four standard
/// scenarios with fresh panels of the given shape.
///
/// # Errors
///
/// Propagates selection errors.
pub fn validate_all_scenarios(
    selector: &MetricSelector,
    panel_size: usize,
    panel_noise: f64,
    seed: u64,
) -> Result<Vec<SelectionOutcome>> {
    standard_scenarios()
        .iter()
        .enumerate()
        .map(|(i, scenario)| {
            let panel = Panel::homogeneous(
                &scenario.weight_vector(),
                panel_size,
                panel_noise,
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
            );
            selector.select(scenario, &panel)
        })
        .collect()
}

/// Rankings produced by three MCDA methods on identical inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodAblation {
    /// Candidate ids in candidate order.
    pub candidates: Vec<MetricId>,
    /// AHP ranking (from [`MetricSelector::select`]).
    pub ahp: Vec<usize>,
    /// SAW ranking on the same ratings and panel-derived weights.
    pub saw: Vec<usize>,
    /// TOPSIS ranking on the same inputs.
    pub topsis: Vec<usize>,
    /// τ(AHP, SAW).
    pub tau_ahp_saw: f64,
    /// τ(AHP, TOPSIS).
    pub tau_ahp_topsis: f64,
}

impl MethodAblation {
    /// Whether all three methods crown the same winner.
    pub fn winners_agree(&self) -> bool {
        self.ahp[0] == self.saw[0] && self.ahp[0] == self.topsis[0]
    }
}

/// Runs AHP, SAW and TOPSIS on the same scenario/panel and compares the
/// resulting metric rankings — showing the conclusions are not an artifact
/// of the MCDA algorithm choice.
///
/// # Errors
///
/// Propagates selection and MCDA errors.
pub fn method_ablation(
    selector: &MetricSelector,
    scenario: &Scenario,
    panel: &Panel,
) -> Result<MethodAblation> {
    let outcome = selector.select(scenario, panel)?;
    let ratings = selector.ratings_for(scenario);

    // Panel-derived criteria weights (same input AHP used).
    let consensus = panel.aggregate()?;
    let weights = eigenvector_priorities(&consensus)?.weights;

    let criteria: Vec<Criterion> = crate::attributes::MetricAttribute::all()
        .iter()
        .zip(&weights)
        .map(|(a, w)| Criterion {
            name: a.label().to_string(),
            weight: *w,
            direction: Direction::Benefit,
        })
        .collect();
    let alternatives: Vec<String> = selector
        .candidates()
        .iter()
        .map(|m| m.abbrev().to_string())
        .collect();
    let dm = DecisionMatrix::new(alternatives, criteria, ratings)?;
    let saw_result = saw::evaluate(&dm)?;
    let topsis_result = topsis::evaluate(&dm)?;

    let pos = |r: &[usize]| -> Vec<f64> {
        vdbench_mcda::ranking::positions_from_ranking(r)
            .iter()
            .map(|&p| p as f64)
            .collect()
    };
    let ahp_pos = pos(&outcome.mcda_ranking);
    let tau_ahp_saw = kendall_tau(&ahp_pos, &pos(&saw_result.ranking)).unwrap_or(f64::NAN);
    let tau_ahp_topsis = kendall_tau(&ahp_pos, &pos(&topsis_result.ranking)).unwrap_or(f64::NAN);

    Ok(MethodAblation {
        candidates: outcome.candidates.clone(),
        ahp: outcome.mcda_ranking,
        saw: saw_result.ranking,
        topsis: topsis_result.ranking,
        tau_ahp_saw,
        tau_ahp_topsis,
    })
}

/// One point of the Fig. 4 noise-robustness sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoisePoint {
    /// Expert elicitation noise σ.
    pub noise: f64,
    /// Fraction of panels whose MCDA winner matches the analytical winner.
    pub top1_persistence: f64,
    /// Mean Kendall τ between MCDA and analytical rankings.
    pub mean_tau: f64,
}

/// Sweeps expert noise: for each σ, draws `panels_per_point` independent
/// panels and measures how often the MCDA output still matches the
/// analytical selection.
///
/// # Errors
///
/// Propagates selection errors.
pub fn noise_robustness(
    selector: &MetricSelector,
    scenario: &Scenario,
    noise_grid: &[f64],
    panels_per_point: usize,
    panel_size: usize,
    seed: u64,
) -> Result<Vec<NoisePoint>> {
    // Panel seeds come from one stream in (σ, panel) order, exactly as a
    // serial sweep draws them; the panels then run on the pool, so every
    // point is the same at any thread count.
    let mut rng = SeededRng::new(seed);
    let panels: Vec<(f64, u64)> = noise_grid
        .iter()
        .flat_map(|&noise| std::iter::repeat_n(noise, panels_per_point))
        .map(|noise| {
            use rand::RngCore;
            (noise, rng.next_u64())
        })
        .collect();
    let outcomes: Vec<SelectionOutcome> = panels
        .par_iter()
        .map(|&(noise, panel_seed)| {
            let panel =
                Panel::homogeneous(&scenario.weight_vector(), panel_size, noise, panel_seed);
            selector.select(scenario, &panel)
        })
        .collect::<Result<_>>()?;
    let out = noise_grid
        .iter()
        .enumerate()
        .map(|(i, &noise)| {
            let point = &outcomes[i * panels_per_point..(i + 1) * panels_per_point];
            let hits = point.iter().filter(|o| o.top1_agree).count();
            let taus: Vec<f64> = point
                .iter()
                .map(|o| o.agreement_tau)
                .filter(|tau| tau.is_finite())
                .collect();
            NoisePoint {
                noise,
                top1_persistence: hits as f64 / panels_per_point as f64,
                mean_tau: if taus.is_empty() {
                    f64::NAN
                } else {
                    taus.iter().sum::<f64>() / taus.len() as f64
                },
            }
        })
        .collect();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::AssessmentConfig;
    use crate::scenario::ScenarioId;
    use crate::selection::default_candidates;

    fn selector() -> MetricSelector {
        MetricSelector::new(
            default_candidates(),
            AssessmentConfig {
                workload_size: 200,
                reference_prevalence: 0.2,
                tool_sample: 40,
                replicates: 80,
                seed: 5,
            },
        )
        .unwrap()
    }

    #[test]
    fn all_scenarios_validate() {
        let s = selector();
        let outcomes = validate_all_scenarios(&s, 5, 0.15, 11).unwrap();
        assert_eq!(outcomes.len(), 4);
        let ids: Vec<ScenarioId> = outcomes.iter().map(|o| o.scenario).collect();
        assert_eq!(ids, ScenarioId::all());
        for o in &outcomes {
            assert!(
                o.agreement_tau > 0.3,
                "{}: tau {}",
                o.scenario,
                o.agreement_tau
            );
        }
    }

    #[test]
    fn ablation_methods_broadly_agree() {
        let s = selector();
        let scenario = Scenario::standard(ScenarioId::S2Gate);
        let panel = Panel::homogeneous(&scenario.weight_vector(), 7, 0.1, 13);
        let ablation = method_ablation(&s, &scenario, &panel).unwrap();
        assert!(
            ablation.tau_ahp_saw > 0.5,
            "AHP vs SAW tau {}",
            ablation.tau_ahp_saw
        );
        assert!(
            ablation.tau_ahp_topsis > 0.3,
            "AHP vs TOPSIS tau {}",
            ablation.tau_ahp_topsis
        );
        assert_eq!(ablation.ahp.len(), ablation.candidates.len());
    }

    #[test]
    fn robustness_degrades_with_noise() {
        let s = selector();
        let scenario = Scenario::standard(ScenarioId::S3Procurement);
        let points = noise_robustness(&s, &scenario, &[0.1, 3.0], 12, 5, 17).unwrap();
        assert_eq!(points.len(), 2);
        // Low-noise panels must reproduce the analytical winner almost
        // always; heavy noise may not (sampling tolerance of one panel).
        assert!(
            points[0].top1_persistence >= points[1].top1_persistence - 1.0 / 12.0,
            "persistence should not improve with noise: {} → {}",
            points[0].top1_persistence,
            points[1].top1_persistence
        );
        assert!(points[0].top1_persistence >= 0.7, "{:?}", points[0]);
        assert!(
            points[0].mean_tau >= points[1].mean_tau - 0.05,
            "tau should not improve materially with noise: {} → {}",
            points[0].mean_tau,
            points[1].mean_tau
        );
    }
}
