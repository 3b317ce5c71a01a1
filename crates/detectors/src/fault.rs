//! Deterministic fault injection for detector scans.
//!
//! Real vulnerability detection tools time out, crash, slow down and
//! return flaky results; evaluations that assume every scan succeeds
//! (the original campaign engine did) let one misbehaving tool poison a
//! whole campaign. This module provides the adversarial half of the
//! resilience story: a [`FaultPlan`] that injects faults into any
//! [`Detector`] through the [`FaultyDetector`] proxy, at configurable
//! per-site probabilities.
//!
//! # Determinism contract
//!
//! Every fault decision is a **pure function** of
//! `(fault seed, tool name, workload seed, attempt, unit index)` via the
//! workspace's [`derive_seed`] discipline — never of wall-clock time,
//! thread identity or execution order. Consequences:
//!
//! * two campaigns with the same `--fault-seed` inject bit-identical
//!   faults, at any worker-thread count;
//! * a retry (higher `attempt`) re-rolls every decision, so transient
//!   faults clear on retry exactly as a flaky real tool's would;
//! * the same tool draws independent decisions on different workloads
//!   (the corpus seed salts the stream), so a campaign's scenarios never
//!   fail in lockstep;
//! * adding a fault kind or tool never perturbs the decisions of the
//!   others (each draws from its own derived stream).
//!
//! Fault *counters* (`fault.injected.*` on the telemetry registry) are
//! equally schedule-independent because the proxy evaluates the decision
//! for every unit of an attempt even when an earlier unit already doomed
//! the scan — mirroring how a crashing tool still burned the full scan
//! before dying, and keeping the observability layer deterministic.

use crate::detector::{Detector, ScanContext, ScanPrelude, ShardScan};
use crate::finding::Finding;
use crate::resilient::ScanError;
use rayon::prelude::*;
use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, OnceLock};
use vdbench_corpus::{Corpus, Unit};
use vdbench_stats::{derive_seed, SeededRng};
use vdbench_telemetry::registry::Counter;

/// Virtual step cost of a unit scan hit by a [`FaultKind::Slowdown`]
/// fault, relative to the nominal cost of 1 step per unit. With the
/// default [`crate::resilient::ScanPolicy`] budget of 4 steps/unit, a
/// scan times out once slightly more than ~4.8% of its units are slowed
/// (`1 + 63·s > 4` at `s ≈ 0.048`).
pub const SLOWDOWN_COST: u64 = 64;

/// The kinds of fault the plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The whole scan attempt hangs past its budget and is killed.
    Timeout,
    /// The tool process dies mid-scan (panic/segfault equivalent).
    Crash,
    /// One unit scan costs [`SLOWDOWN_COST`] virtual steps instead of 1;
    /// enough of them exhaust the attempt's step budget (emergent
    /// timeout).
    Slowdown,
    /// The finding list is truncated (tool dies while flushing output).
    Truncate,
    /// A unit's findings are flipped: reported findings dropped, or a
    /// spurious finding injected where the tool stayed silent.
    Flip,
}

impl FaultKind {
    /// Stable lowercase label (telemetry counter suffix, trace arg).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Timeout => "timeout",
            FaultKind::Crash => "crash",
            FaultKind::Slowdown => "slowdown",
            FaultKind::Truncate => "truncate",
            FaultKind::Flip => "flip",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-site fault probabilities. Scan-level faults (timeout, truncate)
/// are rolled once per attempt; unit-level faults (crash, slowdown,
/// flip) once per `(attempt, unit)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Per-attempt probability that the whole scan times out outright.
    pub timeout: f64,
    /// Per-unit probability that the tool crashes on that unit.
    pub crash: f64,
    /// Per-unit probability that the unit costs [`SLOWDOWN_COST`] steps.
    pub slowdown: f64,
    /// Per-attempt probability that the finding list is truncated.
    pub truncate: f64,
    /// Per-unit probability that the unit's findings are flipped.
    pub flip: f64,
}

impl FaultRates {
    /// All-zero rates: the proxy becomes a transparent pass-through.
    #[must_use]
    pub fn none() -> Self {
        FaultRates {
            timeout: 0.0,
            crash: 0.0,
            slowdown: 0.0,
            truncate: 0.0,
            flip: 0.0,
        }
    }

    /// A tool that crashes on every attempt — the harshest availability
    /// test (used by the degraded-campaign regression tests).
    #[must_use]
    pub fn always_crash() -> Self {
        FaultRates {
            crash: 1.0,
            ..FaultRates::none()
        }
    }
}

/// Named fault profiles exposed on the `vdbench campaign` command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultProfile {
    /// No faults: the proxy is a transparent pass-through and the
    /// campaign transcript is byte-identical to an unwrapped run.
    #[default]
    None,
    /// Mild real-world flakiness: occasional timeouts and crashes that
    /// usually clear on retry, rare result corruption. Calibrated so a
    /// standard 32-scan campaign sees a handful of retries and at least
    /// one exhausted-retry failure.
    Flaky,
    /// An adversarial environment: most scans fail even after retries,
    /// surviving results are heavily corrupted. The campaign must still
    /// complete and render every artifact.
    Hostile,
}

impl FaultProfile {
    /// Stable lowercase label (CLI value, cache-key component).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultProfile::None => "none",
            FaultProfile::Flaky => "flaky",
            FaultProfile::Hostile => "hostile",
        }
    }

    /// The profile's fault rates.
    #[must_use]
    pub fn rates(self) -> FaultRates {
        match self {
            FaultProfile::None => FaultRates::none(),
            // Per-attempt failure odds on a 600-unit workload:
            // timeout 0.15 ∪ crash 1−(1−0.0008)^600 ≈ 0.38 → ≈ 0.47;
            // all three attempts fail with p ≈ 0.11, so a 32-scan
            // campaign expects ~3–4 hard failures and plenty of retries.
            FaultProfile::Flaky => FaultRates {
                timeout: 0.15,
                crash: 0.0008,
                slowdown: 0.01,
                truncate: 0.10,
                flip: 0.01,
            },
            // Slowdown 0.08 > the ~0.048 emergent-timeout threshold, so
            // even attempts that dodge the direct faults usually blow the
            // step budget: availability collapses by design.
            FaultProfile::Hostile => FaultRates {
                timeout: 0.30,
                crash: 0.004,
                slowdown: 0.08,
                truncate: 0.30,
                flip: 0.05,
            },
        }
    }
}

impl fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for FaultProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(FaultProfile::None),
            "flaky" => Ok(FaultProfile::Flaky),
            "hostile" => Ok(FaultProfile::Hostile),
            other => Err(format!(
                "unknown fault profile '{other}' (expected none|flaky|hostile)"
            )),
        }
    }
}

/// A fault-injection configuration: a profile plus the seed its plan
/// derives every decision from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultConfig {
    /// Which named profile's rates to inject.
    pub profile: FaultProfile,
    /// The base seed of the fault decision streams (independent of the
    /// experiment seed so workload and faults can be varied separately).
    pub seed: u64,
}

impl FaultConfig {
    /// Creates a configuration.
    #[must_use]
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        FaultConfig { profile, seed }
    }

    /// Content fingerprint for cache keys: 0 is reserved for "no fault
    /// injection", every active configuration hashes profile and seed.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        if self.profile == FaultProfile::None {
            return 0;
        }
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in self
            .profile
            .label()
            .as_bytes()
            .iter()
            .chain(self.seed.to_le_bytes().iter())
        {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Never collide with the reserved value.
        h.max(1)
    }
}

/// The `fault.injected.*` counters on the process-wide telemetry
/// registry — always live, like every registry counter, so the
/// `BENCH_campaign.json` resilience section sees them even when span
/// recording is off.
struct FaultCounters {
    timeout: Arc<Counter>,
    crash: Arc<Counter>,
    slowdown: Arc<Counter>,
    truncate: Arc<Counter>,
    flip: Arc<Counter>,
}

fn counters() -> &'static FaultCounters {
    static COUNTERS: OnceLock<FaultCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let reg = vdbench_telemetry::registry::global();
        FaultCounters {
            timeout: reg.counter("fault.injected.timeout"),
            crash: reg.counter("fault.injected.crash"),
            slowdown: reg.counter("fault.injected.slowdown"),
            truncate: reg.counter("fault.injected.truncate"),
            flip: reg.counter("fault.injected.flip"),
        }
    })
}

/// Counts one injected fault and drops a zero-length `faults/inject`
/// span into the trace (visible in the Chrome export when recording is
/// on; one relaxed atomic add when it is not).
fn record_injection(kind: FaultKind, tool: &str, detail: u64) {
    let c = counters();
    match kind {
        FaultKind::Timeout => c.timeout.inc(),
        FaultKind::Crash => c.crash.inc(),
        FaultKind::Slowdown => c.slowdown.inc(),
        FaultKind::Truncate => c.truncate.inc(),
        FaultKind::Flip => c.flip.inc(),
    }
    let _span = vdbench_telemetry::span!(
        "faults",
        "inject",
        kind = kind.label(),
        tool = tool,
        detail = detail
    );
}

/// Records a result-truncation injection (`dropped` findings lost). The
/// sharded scan driver applies truncation after the last shard, so the
/// bookkeeping lives here next to its siblings.
pub(crate) fn record_truncation(tool: &str, dropped: u64) {
    record_injection(FaultKind::Truncate, tool, dropped);
}

/// Scan-level fault decisions for one `(tool, attempt)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ScanFaults {
    /// The whole attempt times out outright.
    timeout: bool,
    /// Fraction of the finding list kept, `None` when not truncated.
    keep_fraction: Option<f64>,
}

/// Unit-level fault decisions for one `(tool, attempt, unit)` triple.
#[derive(Debug, Clone, Copy, PartialEq)]
struct UnitFaults {
    crash: bool,
    slowdown: bool,
    flip: bool,
}

/// A deterministic fault plan: rates plus the seed all decisions derive
/// from. Cheap to clone; decisions are computed on demand, never stored.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
}

/// Stream-label constants keeping the scan- and unit-level decision
/// streams disjoint (`derive_seed` index space).
const SCAN_STREAM: u64 = 0xFA01;
const UNIT_STREAM: u64 = 0xFA02;

impl FaultPlan {
    /// Builds the plan for a configuration.
    #[must_use]
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            seed: config.seed,
            rates: config.profile.rates(),
        }
    }

    /// Builds a plan from explicit rates (tests, custom studies).
    #[must_use]
    pub fn with_rates(seed: u64, rates: FaultRates) -> Self {
        FaultPlan { seed, rates }
    }

    /// The plan's rates.
    #[must_use]
    pub fn rates(&self) -> &FaultRates {
        &self.rates
    }

    /// FNV-1a hash of a tool name — the per-tool stream selector.
    fn tool_hash(tool: &str) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in tool.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Per-`(tool, workload)` stream selector: the tool hash mixed with
    /// the workload's corpus seed, so the same tool draws *independent*
    /// fault decisions on different workloads (a campaign's four
    /// scenarios must not fail in lockstep) while staying a pure
    /// function of its inputs.
    fn stream_key(tool: &str, workload_seed: u64) -> u64 {
        Self::tool_hash(tool) ^ derive_seed(workload_seed, 0x5EED)
    }

    /// RNG for one decision site. Pure in `(seed, tool, stream, attempt,
    /// index)`.
    fn site_rng(&self, tool_h: u64, stream: u64, attempt: u32, index: u64) -> SeededRng {
        let base = derive_seed(self.seed ^ tool_h, stream ^ u64::from(attempt));
        SeededRng::new(derive_seed(base, index))
    }

    /// Scan-level decisions for one attempt.
    fn scan_faults(&self, tool_h: u64, attempt: u32) -> ScanFaults {
        let mut rng = self.site_rng(tool_h, SCAN_STREAM, attempt, 0);
        let timeout = rng.bernoulli(self.rates.timeout);
        let truncated = rng.bernoulli(self.rates.truncate);
        ScanFaults {
            timeout,
            keep_fraction: truncated.then(|| rng.uniform_in(0.25, 0.9)),
        }
    }

    /// Unit-level decisions for one `(attempt, unit)` site.
    fn unit_faults(&self, tool_h: u64, attempt: u32, unit: u64) -> UnitFaults {
        let mut rng = self.site_rng(tool_h, UNIT_STREAM, attempt, unit);
        UnitFaults {
            crash: rng.bernoulli(self.rates.crash),
            slowdown: rng.bernoulli(self.rates.slowdown),
            flip: rng.bernoulli(self.rates.flip),
        }
    }
}

/// Wraps a [`Detector`] and injects the plan's faults into its scans.
///
/// The proxy keeps the inner tool's name, so benchmark tables and
/// availability reports line up with the unwrapped roster. Fallible
/// faults (timeout, crash, emergent slowdown-timeout) surface only
/// through [`Detector::try_analyze_corpus`] — the resilient engine's
/// entry point; the infallible [`Detector::analyze`] path applies the
/// result-corruption faults (flip) but cannot fail, mirroring a harness
/// that only notices a dead tool at the scan boundary.
#[derive(Debug)]
pub struct FaultyDetector {
    inner: Box<dyn Detector>,
    plan: FaultPlan,
}

impl FaultyDetector {
    /// Wraps a tool with a fault plan.
    #[must_use]
    pub fn new(inner: Box<dyn Detector>, plan: FaultPlan) -> Self {
        FaultyDetector { inner, plan }
    }

    /// The wrapped tool.
    #[must_use]
    pub fn inner(&self) -> &dyn Detector {
        self.inner.as_ref()
    }

    /// Applies the flip fault to one unit's findings: reported findings
    /// are dropped; a silent unit gains one spurious finding at its
    /// first sink (if it has one).
    fn apply_flip(&self, unit: &Unit, unit_index: u64, findings: &mut Vec<Finding>) {
        if findings.is_empty() {
            if let Some((_, _, site)) = unit.sinks().into_iter().next() {
                findings.push(Finding::new(
                    site,
                    None,
                    0.5,
                    "fault-injected spurious finding",
                ));
            }
        } else {
            findings.clear();
        }
        record_injection(FaultKind::Flip, &self.inner.name(), unit_index);
    }
}

impl Detector for FaultyDetector {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn analyze(&self, corpus: &Corpus, unit: &Unit) -> Vec<Finding> {
        let mut findings = self.inner.analyze(corpus, unit);
        // The decision stream is keyed on the unit's *global* id, which
        // equals its corpus position for whole corpora and stays correct
        // inside shards ([`Corpus::unit_base`] windows).
        let unit_index = u64::from(unit.id);
        if self
            .plan
            .unit_faults(
                FaultPlan::stream_key(&self.inner.name(), corpus.seed()),
                1,
                unit_index,
            )
            .flip
        {
            self.apply_flip(unit, unit_index, &mut findings);
        }
        findings
    }

    /// Scan-level fault rolls. An outright timeout still "ran" nothing,
    /// exactly like a tool killed before producing output; a truncate
    /// roll survives the whole scan in the prelude and is applied to the
    /// concatenated findings at the end — *after* the last shard — so
    /// shard boundaries cannot move the cut.
    fn begin_scan(&self, corpus_seed: u64, cx: &ScanContext) -> Result<ScanPrelude, ScanError> {
        let tool = self.inner.name();
        let tool_h = FaultPlan::stream_key(&tool, corpus_seed);
        let scan = self.plan.scan_faults(tool_h, cx.attempt);
        if scan.timeout {
            record_injection(FaultKind::Timeout, &tool, u64::from(cx.attempt));
            return Err(ScanError::Timeout {
                budget: cx.step_budget,
                spent: cx.step_budget.saturating_add(1),
            });
        }
        Ok(ScanPrelude {
            keep_fraction: scan.keep_fraction,
        })
    }

    /// Per-unit pass over one shard. Every decision is keyed on the
    /// unit's *global* id and evaluated (and counted) even when an
    /// earlier unit already doomed the attempt, so counters and
    /// downstream state are identical at any thread count and any shard
    /// size.
    fn analyze_shard(&self, shard: &Corpus, cx: &ScanContext) -> ShardScan {
        let tool = self.inner.name();
        let tool_h = FaultPlan::stream_key(&tool, shard.seed());
        let units = shard.units();
        let _span = vdbench_telemetry::span!(
            "detectors",
            "scan_corpus",
            tool = tool,
            units = units.len(),
            attempt = cx.attempt
        );

        struct UnitScan {
            steps: u64,
            crashed: Option<u64>,
            findings: Vec<Finding>,
        }
        let scans: Vec<UnitScan> = (0..units.len())
            .into_par_iter()
            .map(|i| {
                let _span = vdbench_telemetry::span!("detectors", "scan_unit");
                let global = u64::from(units[i].id);
                let faults = self.plan.unit_faults(tool_h, cx.attempt, global);
                let mut findings = self.inner.analyze(shard, &units[i]);
                if faults.flip {
                    self.apply_flip(&units[i], global, &mut findings);
                }
                let steps = if faults.slowdown {
                    record_injection(FaultKind::Slowdown, &tool, global);
                    SLOWDOWN_COST
                } else {
                    1
                };
                if faults.crash {
                    record_injection(FaultKind::Crash, &tool, global);
                }
                UnitScan {
                    steps,
                    crashed: faults.crash.then_some(global),
                    findings,
                }
            })
            .collect();

        let crash = scans
            .iter()
            .filter_map(|s| s.crashed)
            .min()
            .map(|unit| ScanError::Crash {
                unit: unit as usize,
                message: format!("injected crash while scanning unit {unit}"),
            });
        let steps: u64 = scans.iter().map(|s| s.steps).sum();
        let mut findings: Vec<Finding> = Vec::new();
        for s in scans {
            findings.extend(s.findings);
        }
        ShardScan {
            findings,
            steps,
            crash,
        }
    }

    fn try_analyze_corpus(
        &self,
        corpus: &Corpus,
        cx: &ScanContext,
    ) -> Result<Vec<Finding>, ScanError> {
        // The monolithic path is the sharded path with one shard — the
        // same two hooks, so the two can never drift apart.
        crate::shard::try_analyze_sharded(self, corpus.seed(), std::iter::once(corpus), cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PatternScanner;
    use vdbench_corpus::CorpusBuilder;

    #[test]
    fn profiles_parse_and_roundtrip() {
        for p in [
            FaultProfile::None,
            FaultProfile::Flaky,
            FaultProfile::Hostile,
        ] {
            assert_eq!(p.label().parse::<FaultProfile>().unwrap(), p);
            assert_eq!(p.to_string(), p.label());
        }
        assert!("weird".parse::<FaultProfile>().is_err());
    }

    #[test]
    fn fingerprints_distinguish_configs_and_reserve_zero() {
        let none = FaultConfig::new(FaultProfile::None, 7);
        assert_eq!(none.fingerprint(), 0);
        let a = FaultConfig::new(FaultProfile::Flaky, 7);
        let b = FaultConfig::new(FaultProfile::Flaky, 8);
        let c = FaultConfig::new(FaultProfile::Hostile, 7);
        assert_ne!(a.fingerprint(), 0);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn decisions_are_pure_functions_of_their_site() {
        let plan = FaultPlan::new(FaultConfig::new(FaultProfile::Hostile, 0xF00D));
        let h = FaultPlan::tool_hash("some-tool");
        for attempt in 1..=3 {
            for unit in [0u64, 1, 17, 599] {
                let first = plan.unit_faults(h, attempt, unit);
                let again = plan.unit_faults(h, attempt, unit);
                assert_eq!(first, again, "attempt {attempt} unit {unit}");
            }
            assert_eq!(
                plan.scan_faults(h, attempt),
                plan.scan_faults(h, attempt),
                "attempt {attempt}"
            );
        }
        // Different attempts re-roll (at hostile rates, 64 sites differ
        // somewhere with near certainty).
        let differs = (0..64).any(|u| plan.unit_faults(h, 1, u) != plan.unit_faults(h, 2, u));
        assert!(differs, "attempts must draw independent streams");
        // Different tools draw independent streams.
        let other = FaultPlan::tool_hash("other-tool");
        let differs = (0..64).any(|u| plan.unit_faults(h, 1, u) != plan.unit_faults(other, 1, u));
        assert!(differs, "tools must draw independent streams");
    }

    #[test]
    fn none_profile_is_a_transparent_proxy() {
        let corpus = CorpusBuilder::new().units(40).seed(11).build();
        let bare = PatternScanner::aggressive();
        let wrapped = FaultyDetector::new(
            Box::new(PatternScanner::aggressive()),
            FaultPlan::new(FaultConfig::new(FaultProfile::None, 1)),
        );
        assert_eq!(wrapped.name(), bare.name());
        let cx = ScanContext {
            attempt: 1,
            step_budget: 4 * 40,
        };
        let faulty = wrapped.try_analyze_corpus(&corpus, &cx).unwrap();
        assert_eq!(faulty, bare.analyze_corpus(&corpus));
    }

    #[test]
    fn always_crash_fails_every_attempt() {
        let corpus = CorpusBuilder::new().units(10).seed(3).build();
        let wrapped = FaultyDetector::new(
            Box::new(PatternScanner::aggressive()),
            FaultPlan::with_rates(9, FaultRates::always_crash()),
        );
        for attempt in 1..=5 {
            let cx = ScanContext {
                attempt,
                step_budget: 40,
            };
            match wrapped.try_analyze_corpus(&corpus, &cx) {
                Err(ScanError::Crash { unit, .. }) => assert_eq!(unit, 0, "lowest unit wins"),
                other => panic!("expected crash, got {other:?}"),
            }
        }
    }

    #[test]
    fn slowdowns_exhaust_the_step_budget() {
        let corpus = CorpusBuilder::new().units(20).seed(5).build();
        let rates = FaultRates {
            slowdown: 1.0,
            ..FaultRates::none()
        };
        let wrapped = FaultyDetector::new(
            Box::new(PatternScanner::aggressive()),
            FaultPlan::with_rates(2, rates),
        );
        let cx = ScanContext {
            attempt: 1,
            step_budget: 4 * 20,
        };
        match wrapped.try_analyze_corpus(&corpus, &cx) {
            Err(ScanError::Timeout { budget, spent }) => {
                assert_eq!(budget, 80);
                assert_eq!(spent, 20 * SLOWDOWN_COST);
            }
            other => panic!("expected emergent timeout, got {other:?}"),
        }
    }

    #[test]
    fn flip_corrupts_results_without_failing_the_scan() {
        let corpus = CorpusBuilder::new()
            .units(60)
            .vulnerability_density(0.5)
            .seed(8)
            .build();
        let rates = FaultRates {
            flip: 1.0,
            ..FaultRates::none()
        };
        let bare = PatternScanner::aggressive();
        let clean = bare.analyze_corpus(&corpus);
        let wrapped = FaultyDetector::new(
            Box::new(PatternScanner::aggressive()),
            FaultPlan::with_rates(4, rates),
        );
        let cx = ScanContext {
            attempt: 1,
            step_budget: 4 * 60,
        };
        let flipped = wrapped.try_analyze_corpus(&corpus, &cx).unwrap();
        assert_ne!(clean, flipped, "every unit flipped must change results");
        // Flipping is an involution on the reported-unit set: units the
        // clean tool reported are now silent and vice versa (where a
        // sink exists to plant the spurious finding on).
        let clean_units: std::collections::BTreeSet<u32> =
            clean.iter().map(|f| f.site.unit).collect();
        for f in &flipped {
            assert!(
                !clean_units.contains(&f.site.unit),
                "unit {} reported both clean and flipped",
                f.site.unit
            );
        }
    }

    #[test]
    fn truncate_keeps_a_prefix() {
        let corpus = CorpusBuilder::new()
            .units(80)
            .vulnerability_density(0.6)
            .seed(13)
            .build();
        let rates = FaultRates {
            truncate: 1.0,
            ..FaultRates::none()
        };
        let bare = PatternScanner::aggressive();
        let clean = bare.analyze_corpus(&corpus);
        let wrapped = FaultyDetector::new(
            Box::new(PatternScanner::aggressive()),
            FaultPlan::with_rates(6, rates),
        );
        let cx = ScanContext {
            attempt: 1,
            step_budget: 4 * 80,
        };
        let truncated = wrapped.try_analyze_corpus(&corpus, &cx).unwrap();
        assert!(truncated.len() < clean.len(), "must drop findings");
        assert_eq!(
            truncated.as_slice(),
            &clean[..truncated.len()],
            "truncation keeps a prefix in unit order"
        );
    }

    #[test]
    fn corpus_scan_is_thread_schedule_independent() {
        let corpus = CorpusBuilder::new()
            .units(120)
            .vulnerability_density(0.4)
            .seed(21)
            .build();
        let plan = FaultPlan::new(FaultConfig::new(FaultProfile::Flaky, 0xABCD));
        let wrapped = FaultyDetector::new(Box::new(PatternScanner::aggressive()), plan.clone());
        let cx = ScanContext {
            attempt: 2,
            step_budget: 4 * 120,
        };
        let parallel = wrapped
            .try_analyze_corpus(&corpus, &cx)
            .expect("flaky seed 0xABCD attempt 2 survives on this workload");
        // Serial oracle: the documented per-unit semantics replayed one
        // unit at a time with the same pure decision streams.
        let inner = PatternScanner::aggressive();
        let tool_h = FaultPlan::stream_key(&inner.name(), corpus.seed());
        let scan = plan.scan_faults(tool_h, cx.attempt);
        assert!(!scan.timeout, "oracle assumes the scan-level roll passed");
        let mut serial: Vec<Finding> = Vec::new();
        for (i, unit) in corpus.units().iter().enumerate() {
            let faults = plan.unit_faults(tool_h, cx.attempt, i as u64);
            assert!(!faults.crash, "oracle assumes no crash on this seed");
            let mut findings = inner.analyze(&corpus, unit);
            if faults.flip {
                if findings.is_empty() {
                    if let Some((_, _, site)) = unit.sinks().into_iter().next() {
                        findings.push(Finding::new(
                            site,
                            None,
                            0.5,
                            "fault-injected spurious finding",
                        ));
                    }
                } else {
                    findings.clear();
                }
            }
            serial.extend(findings);
        }
        if let Some(keep) = scan.keep_fraction {
            serial.truncate(((serial.len() as f64) * keep).floor() as usize);
        }
        assert_eq!(
            parallel, serial,
            "parallel scan must match the serial oracle"
        );
    }
}
