//! The [`Detector`] trait.

use crate::finding::Finding;
use crate::resilient::ScanError;
use rayon::prelude::*;
use vdbench_corpus::{Corpus, Unit};

/// Context of one fallible scan attempt (see
/// [`Detector::try_analyze_corpus`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanContext {
    /// 1-based attempt number; retries re-roll deterministic fault
    /// decisions through it.
    pub attempt: u32,
    /// Virtual step budget for this attempt (a nominal unit scan costs
    /// one step).
    pub step_budget: u64,
}

/// Scan-wide decisions made once per attempt, before any shard is
/// visited (see [`Detector::begin_scan`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScanPrelude {
    /// When set, only this prefix fraction of the concatenated findings
    /// survives the scan (fault-injected result truncation). `None` for
    /// honest tools.
    pub keep_fraction: Option<f64>,
}

/// Result of scanning one shard (see [`Detector::analyze_shard`]).
#[derive(Debug, Clone)]
pub struct ShardScan {
    /// Findings for the shard's units, in unit order.
    pub findings: Vec<Finding>,
    /// Virtual steps the shard cost (a nominal unit scan costs one).
    pub steps: u64,
    /// A crash observed inside the shard, if any. The driver keeps
    /// scanning remaining shards (fault bookkeeping must not depend on
    /// shard boundaries) and reports the crash with the lowest unit index.
    pub crash: Option<ScanError>,
}

/// A vulnerability detection tool.
///
/// Tools receive one [`Unit`] at a time plus the owning [`Corpus`] for
/// context. Honest analyzers look only at the unit's code; the
/// [`crate::ProfileTool`] emulation harness additionally reads ground truth
/// to realize a prescribed operating point (documented there).
pub trait Detector: std::fmt::Debug + Send + Sync {
    /// Short stable tool name used in benchmark tables ("taint-d2",
    /// "pentest-64", …).
    fn name(&self) -> String;

    /// Analyzes one unit and returns the findings.
    fn analyze(&self, corpus: &Corpus, unit: &Unit) -> Vec<Finding>;

    /// Analyzes a whole corpus: units are scanned on the rayon pool and
    /// the findings concatenated in unit order.
    ///
    /// Every [`Detector`] in this workspace is a pure function of
    /// `(corpus, unit, configuration)`, so the parallel scan returns
    /// exactly the serial result; `RAYON_NUM_THREADS=1` forces the serial
    /// path (used by the determinism regression tests).
    ///
    /// Each unit's findings come back in unit order and are concatenated
    /// once; a unit without findings costs no allocation (an empty `Vec`
    /// owns no buffer).
    ///
    /// When telemetry recording is on, the whole scan is wrapped in a
    /// `detectors/scan_corpus` span and each unit in a
    /// `detectors/scan_unit` span on the track of the thread that scanned
    /// it, so the trace shows the per-tool schedule exactly as the pool
    /// ran it.
    fn analyze_corpus(&self, corpus: &Corpus) -> Vec<Finding> {
        let _span = vdbench_telemetry::span!(
            "detectors",
            "scan_corpus",
            tool = self.name(),
            units = corpus.units().len()
        );
        let per_unit: Vec<Vec<Finding>> = corpus
            .units()
            .par_iter()
            .map(|u| {
                let _span = vdbench_telemetry::span!("detectors", "scan_unit");
                self.analyze(corpus, u)
            })
            .collect();
        per_unit.concat()
    }

    /// Fallible whole-corpus scan — the resilient engine's entry point.
    ///
    /// The default implementation charges one virtual step per unit
    /// against the context's budget and otherwise delegates to
    /// [`Detector::analyze_corpus`]: an honest in-process tool cannot
    /// crash, and only times out when the budget is set below one step
    /// per unit. [`crate::FaultyDetector`] overrides this to inject
    /// timeouts, crashes, slowdowns and result corruption
    /// deterministically (see [`crate::fault`]).
    ///
    /// # Errors
    ///
    /// Returns [`ScanError`] when the attempt times out or the tool
    /// crashes.
    fn try_analyze_corpus(
        &self,
        corpus: &Corpus,
        cx: &ScanContext,
    ) -> Result<Vec<Finding>, ScanError> {
        let spent = corpus.units().len() as u64;
        if spent > cx.step_budget {
            return Err(ScanError::Timeout {
                budget: cx.step_budget,
                spent,
            });
        }
        Ok(self.analyze_corpus(corpus))
    }

    /// Scan-wide decisions made once per attempt, before any shard.
    ///
    /// `corpus_seed` identifies the workload ([`Corpus::seed`] — identical
    /// for every shard of one streamed corpus), so fault decisions keyed
    /// on it are independent of shard boundaries. Honest tools have no
    /// scan-wide state; [`crate::FaultyDetector`] overrides this to roll
    /// its outright-timeout and result-truncation faults exactly as the
    /// monolithic path does.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError`] when the attempt fails before scanning
    /// (fault-injected outright timeout).
    fn begin_scan(&self, corpus_seed: u64, cx: &ScanContext) -> Result<ScanPrelude, ScanError> {
        let _ = (corpus_seed, cx);
        Ok(ScanPrelude::default())
    }

    /// Scans one shard of a streamed corpus.
    ///
    /// The shard's site ids are global ([`Corpus::unit_base`]), so
    /// per-unit decisions keyed on `Unit::id` are identical however the
    /// corpus is sharded. The default implementation is the honest path:
    /// one step per unit, no crash, findings from
    /// [`Detector::analyze_corpus`].
    fn analyze_shard(&self, shard: &Corpus, cx: &ScanContext) -> ShardScan {
        let _ = cx;
        ShardScan {
            findings: self.analyze_corpus(shard),
            steps: shard.units().len() as u64,
            crash: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdbench_corpus::CorpusBuilder;

    /// A detector that reports nothing — the "silent" baseline.
    #[derive(Debug)]
    struct Silent;

    impl Detector for Silent {
        fn name(&self) -> String {
            "silent".into()
        }
        fn analyze(&self, _corpus: &Corpus, _unit: &Unit) -> Vec<Finding> {
            Vec::new()
        }
    }

    #[test]
    fn default_corpus_analysis_covers_all_units() {
        let corpus = CorpusBuilder::new().units(10).seed(1).build();
        let findings = Silent.analyze_corpus(&corpus);
        assert!(findings.is_empty());
        assert_eq!(Silent.name(), "silent");
    }

    #[test]
    fn detector_is_object_safe() {
        let tools: Vec<Box<dyn Detector>> = vec![Box::new(Silent)];
        assert_eq!(tools[0].name(), "silent");
    }

    #[test]
    fn default_fallible_scan_charges_one_step_per_unit() {
        let corpus = CorpusBuilder::new().units(10).seed(2).build();
        let ok = Silent.try_analyze_corpus(
            &corpus,
            &ScanContext {
                attempt: 1,
                step_budget: 10,
            },
        );
        assert_eq!(ok.unwrap(), Vec::new());
        let starved = Silent.try_analyze_corpus(
            &corpus,
            &ScanContext {
                attempt: 1,
                step_budget: 9,
            },
        );
        assert!(matches!(
            starved,
            Err(ScanError::Timeout {
                budget: 9,
                spent: 10
            })
        ));
    }
}
