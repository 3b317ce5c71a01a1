//! The sharded scan driver.
//!
//! [`try_analyze_sharded`] runs one scan attempt over a corpus presented
//! as a sequence of shards (contiguous [`Corpus::unit_base`] windows of
//! one streamed corpus), producing the **exact** `Result` the monolithic
//! [`Detector::try_analyze_corpus`] path produces — same findings, same
//! error values, same fault counters — at any shard size. The equivalence
//! is structural, not coincidental: the monolithic fault path is itself
//! implemented as this driver over a single shard.
//!
//! The same schedule-independence discipline carries over to the
//! streamed scanner (`vdbench_core::streamed_scan`), which scans a
//! window of whole shards at a time on the shared rayon pool: every
//! per-unit fault decision ([`fault`]) is keyed on the **global** unit
//! id, never on visit order or thread identity, so a shard's findings are
//! identical whether it is scanned serially, in this module's attempt
//! loop, or on any pool thread.
//!
//! Invariants the driver maintains:
//!
//! * **Scan-level faults roll once.** [`Detector::begin_scan`] is keyed
//!   on the workload seed (identical for every shard), so outright
//!   timeouts and truncation decisions are independent of sharding.
//! * **Every shard is visited, even doomed ones.** Fault *counters* must
//!   not depend on where a crash happened relative to shard boundaries,
//!   so the driver keeps scanning after observing a crash, exactly as the
//!   monolithic path evaluates every unit of a doomed attempt.
//! * **The lowest crashed unit wins**, mirroring "the tool died at the
//!   first crashing unit" whatever order shards were scanned in.
//! * **Budget and truncation apply to the whole attempt**: steps sum
//!   across shards before the timeout check, and the truncation prefix is
//!   cut from the concatenated findings after the last shard.

use crate::detector::{Detector, ScanContext};
use crate::fault;
use crate::finding::Finding;
use crate::resilient::ScanError;
use std::borrow::Borrow;
use vdbench_corpus::Corpus;

/// Runs one fallible scan attempt over `shards`, bit-identical to the
/// monolithic path on the equivalent whole corpus.
///
/// `corpus_seed` is the workload seed shared by every shard
/// ([`Corpus::seed`] — shards of one streamed corpus all carry the
/// original builder seed). Shards may be owned or borrowed; they are
/// dropped as soon as they are scanned, so memory stays bounded by the
/// largest single shard plus the accumulated findings.
///
/// # Errors
///
/// Returns [`ScanError`] exactly when the monolithic path would: a
/// fault-injected outright timeout before any shard, the lowest-unit
/// crash, or a step budget exhausted across the whole attempt.
pub fn try_analyze_sharded<I, C>(
    tool: &dyn Detector,
    corpus_seed: u64,
    shards: I,
    cx: &ScanContext,
) -> Result<Vec<Finding>, ScanError>
where
    I: IntoIterator<Item = C>,
    C: Borrow<Corpus>,
{
    let prelude = tool.begin_scan(corpus_seed, cx)?;
    let mut findings: Vec<Finding> = Vec::new();
    let mut steps: u64 = 0;
    let mut crash: Option<(usize, ScanError)> = None;
    for shard in shards {
        let scan = tool.analyze_shard(shard.borrow(), cx);
        steps = steps.saturating_add(scan.steps);
        findings.extend(scan.findings);
        if let Some(err) = scan.crash {
            let unit = match &err {
                ScanError::Crash { unit, .. } => *unit,
                // Non-crash errors from a shard are treated as position 0
                // (defensive; the fault proxy only emits crashes here).
                ScanError::Timeout { .. } => 0,
            };
            if crash.as_ref().is_none_or(|(lowest, _)| unit < *lowest) {
                crash = Some((unit, err));
            }
        }
    }
    if let Some((_, err)) = crash {
        return Err(err);
    }
    if steps > cx.step_budget {
        return Err(ScanError::Timeout {
            budget: cx.step_budget,
            spent: steps,
        });
    }
    if let Some(keep) = prelude.keep_fraction {
        let kept = ((findings.len() as f64) * keep).floor() as usize;
        fault::record_truncation(&tool.name(), (findings.len() - kept) as u64);
        findings.truncate(kept);
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultPlan, FaultProfile, FaultRates, FaultyDetector};
    use crate::{DynamicScanner, PatternScanner, TaintAnalyzer};
    use vdbench_corpus::CorpusBuilder;

    /// Splits a whole corpus into owned shards of `size` units with the
    /// original seed and global unit ids, as the streaming generator
    /// would produce them.
    fn shards_of(corpus: &Corpus, size: usize) -> Vec<Corpus> {
        let builder_seed = corpus.seed();
        let mut out = Vec::new();
        let mut base = 0usize;
        while base < corpus.units().len() {
            let end = (base + size).min(corpus.units().len());
            let units = corpus.units()[base..end].to_vec();
            let sites = corpus
                .sites()
                .filter(|s| (base..end).contains(&(s.site.unit as usize)))
                .cloned()
                .collect();
            out.push(Corpus::from_shard(units, sites, builder_seed, base as u32));
            base = end;
        }
        out
    }

    #[test]
    fn honest_tools_shard_bit_identically() {
        let corpus = CorpusBuilder::new()
            .units(90)
            .vulnerability_density(0.4)
            .seed(31)
            .build();
        let cx = ScanContext {
            attempt: 1,
            step_budget: 4 * 90,
        };
        let tools: Vec<Box<dyn Detector>> = vec![
            Box::new(PatternScanner::aggressive()),
            Box::new(TaintAnalyzer::precise()),
            Box::new(DynamicScanner::thorough()),
        ];
        for tool in &tools {
            let whole = tool.try_analyze_corpus(&corpus, &cx).unwrap();
            for size in [1usize, 7, 32, 90, 128] {
                let sharded = try_analyze_sharded(
                    tool.as_ref(),
                    corpus.seed(),
                    shards_of(&corpus, size),
                    &cx,
                )
                .unwrap();
                assert_eq!(sharded, whole, "{} at shard size {size}", tool.name());
            }
        }
    }

    #[test]
    fn flaky_fault_scans_shard_bit_identically() {
        let corpus = CorpusBuilder::new()
            .units(120)
            .vulnerability_density(0.4)
            .seed(21)
            .build();
        let plan = FaultPlan::new(FaultConfig::new(FaultProfile::Flaky, 0xABCD));
        let wrapped = FaultyDetector::new(Box::new(PatternScanner::aggressive()), plan);
        // Sweep attempts so the comparison covers surviving scans,
        // truncated scans and outright timeouts alike.
        for attempt in 1..=6 {
            let cx = ScanContext {
                attempt,
                step_budget: 4 * 120,
            };
            let whole = wrapped.try_analyze_corpus(&corpus, &cx);
            for size in [1usize, 13, 40, 120] {
                let sharded =
                    try_analyze_sharded(&wrapped, corpus.seed(), shards_of(&corpus, size), &cx);
                assert_eq!(sharded, whole, "attempt {attempt} shard size {size}");
            }
        }
    }

    #[test]
    fn crashes_report_the_lowest_global_unit_across_shards() {
        let corpus = CorpusBuilder::new().units(30).seed(3).build();
        let wrapped = FaultyDetector::new(
            Box::new(PatternScanner::aggressive()),
            FaultPlan::with_rates(9, FaultRates::always_crash()),
        );
        let cx = ScanContext {
            attempt: 1,
            step_budget: 120,
        };
        // Scan shards in reverse order: the lowest unit must still win.
        let mut reversed = shards_of(&corpus, 7);
        reversed.reverse();
        match try_analyze_sharded(&wrapped, corpus.seed(), reversed, &cx) {
            Err(ScanError::Crash { unit, message }) => {
                assert_eq!(unit, 0, "lowest global unit wins");
                assert_eq!(message, "injected crash while scanning unit 0");
            }
            other => panic!("expected crash, got {other:?}"),
        }
    }

    #[test]
    fn hostile_profile_matches_too() {
        let corpus = CorpusBuilder::new()
            .units(60)
            .vulnerability_density(0.5)
            .seed(8)
            .build();
        let plan = FaultPlan::new(FaultConfig::new(FaultProfile::Hostile, 0xFEED));
        let wrapped = FaultyDetector::new(Box::new(PatternScanner::aggressive()), plan);
        for attempt in 1..=4 {
            let cx = ScanContext {
                attempt,
                step_budget: 4 * 60,
            };
            let whole = wrapped.try_analyze_corpus(&corpus, &cx);
            let sharded = try_analyze_sharded(&wrapped, corpus.seed(), shards_of(&corpus, 11), &cx);
            assert_eq!(sharded, whole, "attempt {attempt}");
        }
    }
}
