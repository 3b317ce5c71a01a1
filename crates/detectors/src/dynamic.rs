//! The dynamic (penetration-testing) scanner.
//!
//! Models black-box web scanners: crawl the input surface, spray attack
//! payloads, and report a vulnerability only when an attack demonstrably
//! reaches a sink un-neutralized: taint confirmed, the payload observed
//! verbatim at the sink, **and** the response signature matching the
//! payload's class (an SQL payload reflected into HTML is not proof of SQL
//! injection). This gives the
//! pentesting profile the paper describes: near-perfect precision, recall
//! limited by coverage:
//!
//! * input-gated sinks are found only if the gate dictionary guesses the
//!   gate value;
//! * pattern-class defects (hardcoded credentials, weak hashes) are
//!   invisible at runtime;
//! * the request budget bounds how much of the input space is explored.

use crate::detector::Detector;
use crate::finding::Finding;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use vdbench_corpus::{
    CompiledUnit, Corpus, InterpScratch, Interpreter, Request, SinkKind, SinkObservation, Unit,
    VulnClass,
};
use vdbench_telemetry::registry::Counter;

/// Always-live counter of attack sessions that collapsed onto an earlier
/// identical session and were therefore never re-executed
/// (`scan.sessions.deduped` in the telemetry registry — surfaces in
/// `run_all --timings` and `BENCH_campaign.json` for free).
fn deduped_counter() -> &'static Arc<Counter> {
    static COUNTER: OnceLock<Arc<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| vdbench_telemetry::registry::global().counter("scan.sessions.deduped"))
}

/// The vulnerability class a sink's response signature indicates.
fn class_for_sink(kind: SinkKind) -> Option<VulnClass> {
    match kind {
        SinkKind::SqlQuery => Some(VulnClass::SqlInjection),
        SinkKind::HtmlOutput => Some(VulnClass::Xss),
        SinkKind::ShellExec => Some(VulnClass::CommandInjection),
        SinkKind::FileOpen => Some(VulnClass::PathTraversal),
        SinkKind::Authenticate | SinkKind::CryptoHash => None,
    }
}

/// Attack payloads sprayed by the scanner, with the class each one probes.
const PAYLOADS: [(&str, VulnClass); 4] = [
    ("x' OR '1'='1", VulnClass::SqlInjection),
    ("<script>alert(1)</script>", VulnClass::Xss),
    ("; cat /etc/passwd", VulnClass::CommandInjection),
    ("../../etc/passwd", VulnClass::PathTraversal),
];

/// The scanner's dictionary of common gate values (what a wordlist would
/// try for mode/debug/action parameters).
const GATE_DICTIONARY: [&str; 9] = [
    "1", "true", "debug", "admin", "yes", "full", "0", "test", "save",
];

/// Budgeted black-box scanner.
///
/// ```
/// use vdbench_corpus::CorpusBuilder;
/// use vdbench_detectors::{score_detector, DynamicScanner};
///
/// let corpus = CorpusBuilder::new().units(40).seed(9).build();
/// let outcome = score_detector(&DynamicScanner::quick(), &corpus);
/// // The proof-of-exploit oracle never raises a false alarm.
/// assert_eq!(outcome.confusion().fp, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicScanner {
    request_budget: usize,
    use_gate_dictionary: bool,
    two_phase: bool,
}

impl DynamicScanner {
    /// A quick scan: payload sprays only, no gate dictionary.
    pub fn quick() -> Self {
        DynamicScanner {
            request_budget: 6,
            use_gate_dictionary: false,
            two_phase: false,
        }
    }

    /// A thorough scan: payload sprays plus the gate dictionary, 96
    /// requests per unit.
    pub fn thorough() -> Self {
        DynamicScanner {
            request_budget: 96,
            use_gate_dictionary: true,
            two_phase: false,
        }
    }

    /// A stateful scan: like [`DynamicScanner::thorough`] but each attack
    /// request is followed by a plain *trigger* request in the same
    /// session, exposing second-order flows through the store. Twice the
    /// request budget pays for the replay.
    pub fn stateful() -> Self {
        DynamicScanner {
            request_budget: 192,
            use_gate_dictionary: true,
            two_phase: true,
        }
    }

    /// Custom budget.
    ///
    /// # Panics
    ///
    /// Panics if `request_budget == 0`.
    pub fn with_budget(request_budget: usize, use_gate_dictionary: bool) -> Self {
        assert!(request_budget > 0, "scanner needs at least one request");
        DynamicScanner {
            request_budget,
            use_gate_dictionary,
            two_phase: false,
        }
    }

    /// The per-unit request budget.
    pub fn request_budget(&self) -> usize {
        self.request_budget
    }

    /// Builds the deduplicated attack plan for one unit, in priority
    /// order. Sprayed attacks that collapse to identical sessions (the
    /// gate-dictionary phase re-derives the payload sprays whenever a
    /// unit's surface is small) are planned **once**: they execute one
    /// interpreter trace, carry every payload probe that mapped onto
    /// them, and are charged against the request budget exactly once —
    /// `request_budget` bounds requests actually *sent*, not probes
    /// sprayed.
    fn plan(&self, unit: &Unit) -> AttackPlan {
        let surface = unit.referenced_sources();
        let mut attacks: Vec<(Request, &'static str)> = Vec::new();
        // Phase 1: spray each payload across the whole surface.
        for (payload, _) in PAYLOADS {
            let mut req = Request::new();
            for (kind, name) in &surface {
                req.set(*kind, name.clone(), payload);
            }
            attacks.push((req, payload));
        }
        // Phase 2: for each candidate gate input, fix it to a dictionary
        // value and spray payloads on everything else.
        if self.use_gate_dictionary {
            for (gate_kind, gate_name) in &surface {
                for dict_val in GATE_DICTIONARY {
                    for (payload, _) in PAYLOADS {
                        let mut req = Request::new();
                        for (kind, name) in &surface {
                            req.set(*kind, name.clone(), payload);
                        }
                        req.set(*gate_kind, gate_name.clone(), dict_val);
                        attacks.push((req, payload));
                    }
                }
            }
        }
        // Realize the budget in *unique* sessions, expanding to
        // two-request sessions (attack, then plain trigger) in stateful
        // mode. A session whose fingerprint matches an already-planned
        // one merges its probe for free; a novel session is admitted only
        // while the budget holds (later duplicates of admitted sessions
        // still merge — they cost nothing to observe).
        let per_session = if self.two_phase { 2 } else { 1 };
        let mut plan = AttackPlan::default();
        let mut index_by_fingerprint: BTreeMap<u64, usize> = BTreeMap::new();
        for (req, payload) in attacks {
            let session = if self.two_phase {
                vec![req, Request::new()]
            } else {
                vec![req]
            };
            let fingerprint = session_fingerprint(&session);
            if let Some(&index) = index_by_fingerprint.get(&fingerprint) {
                plan.deduped += 1;
                plan.probes.push((index, payload));
            } else if plan.charged_requests + per_session <= self.request_budget {
                let index = plan.sessions.len();
                index_by_fingerprint.insert(fingerprint, index);
                plan.sessions.push(session);
                plan.charged_requests += per_session;
                plan.probes.push((index, payload));
            }
        }
        plan
    }
}

/// Stable fingerprint of a whole attack session: the per-request content
/// fingerprints ([`Request::fingerprint`]) folded in order.
fn session_fingerprint(session: &[Request]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for req in session {
        h ^= req.fingerprint();
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The deduplicated attack plan for one unit.
#[derive(Debug, Default)]
struct AttackPlan {
    /// Unique attack sessions in first-appearance (priority) order; each
    /// executes exactly one interpreter trace.
    sessions: Vec<Vec<Request>>,
    /// Payload probes in original spray order: `(session index, payload)`.
    /// Several probes may share one session — they all read the same
    /// memoized trace.
    probes: Vec<(usize, &'static str)>,
    /// Requests charged against the budget (unique sessions × requests
    /// per session) — what the scanner would actually send on the wire.
    charged_requests: usize,
    /// Sprayed sessions that collapsed onto an earlier identical session.
    deduped: usize,
}

impl Default for DynamicScanner {
    /// The thorough profile.
    fn default() -> Self {
        DynamicScanner::thorough()
    }
}

impl Detector for DynamicScanner {
    fn name(&self) -> String {
        format!(
            "pentest-{}{}{}",
            self.request_budget,
            if self.use_gate_dictionary {
                "-dict"
            } else {
                ""
            },
            if self.two_phase { "-2ph" } else { "" }
        )
    }

    fn analyze(&self, _corpus: &Corpus, unit: &Unit) -> Vec<Finding> {
        let interp = Interpreter::default();
        let mut scratch = InterpScratch::new();
        self.analyze_with(&interp, unit, &mut scratch)
    }

    /// Scans the whole corpus on the rayon pool, sharing one
    /// [`Interpreter`] across all units and one [`InterpScratch`] per
    /// participating thread. The interpreter is a stateless bundle of
    /// execution limits, so sharing it is free and thread-safe; the
    /// scratch (pooled environment frames plus the session store) is
    /// carried across every unit the thread claims, so steady-state
    /// scanning performs no environment allocation at all. Findings are
    /// collected per unit and concatenated in unit order, identical to
    /// the serial scan.
    fn analyze_corpus(&self, corpus: &Corpus) -> Vec<Finding> {
        let _span = vdbench_telemetry::span!(
            "detectors",
            "scan_corpus",
            tool = self.name(),
            units = corpus.units().len()
        );
        let interp = Interpreter::default();
        let per_unit: Vec<Vec<Finding>> = corpus
            .units()
            .par_iter()
            .map_init(InterpScratch::new, |scratch, u| {
                let _span = vdbench_telemetry::span!("detectors", "scan_unit");
                self.analyze_with(&interp, u, scratch)
            })
            .collect();
        per_unit.concat()
    }
}

impl DynamicScanner {
    /// Scans one unit with a caller-provided interpreter and execution
    /// scratch (both hoisted out of the per-unit loop by
    /// [`Detector::analyze_corpus`]). The unit is compiled **once**, the
    /// attack plan is deduplicated ([`DynamicScanner::plan`]), and each
    /// *unique* session executes exactly one interpreter trace; every
    /// payload probe — including the sprays that collapsed onto a shared
    /// session — then reads its memoized trace. Per-session cost is pure
    /// execution: no name lookups, no body clones, no environment
    /// allocation (frames recycle through `scratch`), and never the same
    /// session twice.
    fn analyze_with(
        &self,
        interp: &Interpreter,
        unit: &Unit,
        scratch: &mut InterpScratch,
    ) -> Vec<Finding> {
        let compiled = CompiledUnit::compile(unit);
        let plan = self.plan(unit);
        if plan.deduped > 0 {
            deduped_counter().add(plan.deduped as u64);
        }
        // Memoized traces, one per unique session (plan order). Execution
        // failures (runaway loops, malformed units) are a scanner
        // non-result, not a crash: their probes simply observe nothing.
        let traces: Vec<Option<Vec<SinkObservation>>> = plan
            .sessions
            .iter()
            .map(|session| interp.run_compiled(&compiled, session, scratch).ok())
            .collect();
        let mut confirmed: BTreeMap<_, (&'static str, SinkKind)> = BTreeMap::new();
        for (index, payload) in plan.probes {
            let Some(observations) = &traces[index] else {
                continue;
            };
            for obs in observations {
                // Proof of exploit: the sink received data still tainted
                // for it, our payload survived verbatim, and the response
                // signature matches the payload's class.
                let payload_class = PAYLOADS
                    .iter()
                    .find(|(p, _)| *p == payload)
                    .map(|(_, c)| *c);
                let sink_class = class_for_sink(obs.kind);
                if obs.tainted && obs.rendered.contains(payload) && payload_class == sink_class {
                    confirmed.entry(obs.site).or_insert((payload, obs.kind));
                }
            }
        }
        confirmed
            .into_iter()
            .map(|(site, (payload, kind))| {
                let class = PAYLOADS
                    .iter()
                    .find(|(p, _)| *p == payload)
                    .map(|(_, c)| *c);
                Finding::new(
                    site,
                    class,
                    0.95,
                    format!(
                        "payload {payload:?} reached {} un-neutralized",
                        kind.keyword()
                    ),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::score_detector;
    use vdbench_corpus::{CorpusBuilder, FlowShape};
    use vdbench_metrics::basic::{Precision, Recall};
    use vdbench_metrics::metric::Metric;

    #[test]
    fn near_perfect_precision() {
        let corpus = CorpusBuilder::new()
            .units(300)
            .vulnerability_density(0.35)
            .seed(41)
            .build();
        let outcome = score_detector(&DynamicScanner::thorough(), &corpus);
        let cm = outcome.confusion();
        assert!(cm.tp > 0);
        let precision = Precision.compute(&cm).unwrap();
        assert!(
            precision > 0.99,
            "pentesting must not produce false alarms: {cm}"
        );
    }

    #[test]
    fn dead_guards_are_true_negatives() {
        let corpus = CorpusBuilder::new()
            .units(60)
            .vulnerability_density(0.0)
            .decoy_rate(1.0)
            .classes(vec![VulnClass::SqlInjection])
            .seed(42)
            .build();
        let outcome = score_detector(&DynamicScanner::thorough(), &corpus);
        assert_eq!(outcome.confusion().fp, 0);
    }

    #[test]
    fn gate_dictionary_raises_recall_on_gated_flows() {
        let corpus = CorpusBuilder::new()
            .units(200)
            .vulnerability_density(1.0)
            .disguise_rate(0.0)
            .gate_rate(1.0)
            .gate_obscurity(0.0) // every gate guessable
            .classes(vec![VulnClass::Xss])
            .seed(43)
            .build();
        let quick = score_detector(&DynamicScanner::quick(), &corpus);
        let thorough = score_detector(&DynamicScanner::thorough(), &corpus);
        let gated_quick = quick.confusion_for_shape(FlowShape::InputGated);
        let gated_thorough = thorough.confusion_for_shape(FlowShape::InputGated);
        assert_eq!(
            gated_quick.tp, 0,
            "without the dictionary, gates stay closed: {gated_quick}"
        );
        assert!(
            gated_thorough.tpr() > 0.8,
            "dictionary opens guessable gates: {gated_thorough}"
        );
    }

    #[test]
    fn obscure_gates_stay_hidden() {
        let corpus = CorpusBuilder::new()
            .units(150)
            .vulnerability_density(1.0)
            .disguise_rate(0.0)
            .gate_rate(1.0)
            .gate_obscurity(1.0) // every gate unguessable
            .classes(vec![VulnClass::SqlInjection])
            .seed(44)
            .build();
        let outcome = score_detector(&DynamicScanner::thorough(), &corpus);
        let gated = outcome.confusion_for_shape(FlowShape::InputGated);
        assert_eq!(
            gated.tp, 0,
            "obscure gates must defeat the scanner: {gated}"
        );
    }

    #[test]
    fn pattern_classes_invisible_at_runtime() {
        let corpus = CorpusBuilder::new()
            .units(100)
            .vulnerability_density(0.8)
            .classes(vec![VulnClass::WeakHash, VulnClass::HardcodedCredentials])
            .seed(45)
            .build();
        let outcome = score_detector(&DynamicScanner::thorough(), &corpus);
        assert_eq!(outcome.confusion().tp, 0);
    }

    #[test]
    fn mismatched_sanitizers_exposed_dynamically() {
        // The dynamic scanner is the tool that *does* catch disguised
        // vulnerabilities: the payload demonstrably survives the wrong
        // sanitizer.
        let corpus = CorpusBuilder::new()
            .units(120)
            .vulnerability_density(1.0)
            .disguise_rate(1.0)
            .stored_rate(0.0)
            .classes(vec![VulnClass::SqlInjection, VulnClass::Xss])
            .seed(46)
            .build();
        let outcome = score_detector(&DynamicScanner::thorough(), &corpus);
        let recall = Recall.compute(&outcome.confusion()).unwrap();
        assert!(
            recall > 0.9,
            "disguises don't fool execution: recall {recall}"
        );
    }

    #[test]
    fn duplicate_sessions_plan_once_and_ride_free() {
        let corpus = CorpusBuilder::new().units(80).seed(47).build();
        let scanner = DynamicScanner::thorough();
        let unit = corpus
            .units()
            .iter()
            .find(|u| u.referenced_sources().len() == 1)
            .expect("the generator produces single-input units");
        let plan = scanner.plan(unit);
        // A single-input surface makes the gate-dictionary phase re-derive
        // the same request for every payload: duplicates must merge.
        assert!(plan.deduped > 0, "single-input units collapse sprays");
        // Unique sessions are pairwise distinct by fingerprint.
        let fingerprints: std::collections::BTreeSet<u64> = plan
            .sessions
            .iter()
            .map(|s| session_fingerprint(s))
            .collect();
        assert_eq!(fingerprints.len(), plan.sessions.len());
        // Every probe points at a planned session; merged probes keep
        // their payload oracles without re-executing anything.
        assert!(plan.probes.iter().all(|(i, _)| *i < plan.sessions.len()));
        assert_eq!(plan.probes.len(), plan.sessions.len() + plan.deduped);
    }

    #[test]
    fn budget_charges_deduplicated_sessions_once() {
        let corpus = CorpusBuilder::new().units(40).seed(48).build();
        for unit in corpus.units() {
            // Single-request modes: the charge is exactly the number of
            // unique sessions, and it never exceeds the budget.
            for scanner in [
                DynamicScanner::quick(),
                DynamicScanner::thorough(),
                DynamicScanner::with_budget(2, true),
            ] {
                let plan = scanner.plan(unit);
                assert_eq!(plan.charged_requests, plan.sessions.len());
                assert!(plan.charged_requests <= scanner.request_budget());
            }
            // Stateful mode charges two requests (attack + trigger) per
            // unique session.
            let plan = DynamicScanner::stateful().plan(unit);
            assert_eq!(plan.charged_requests, 2 * plan.sessions.len());
            assert!(plan.charged_requests <= DynamicScanner::stateful().request_budget());
        }
    }

    #[test]
    fn dedup_counter_increments_on_scan() {
        let before = deduped_counter().get();
        let corpus = CorpusBuilder::new().units(50).seed(49).build();
        let _ = score_detector(&DynamicScanner::thorough(), &corpus);
        assert!(
            deduped_counter().get() > before,
            "a 50-unit corpus must contain at least one collapsible spray"
        );
    }

    #[test]
    fn budget_ordering_and_names() {
        assert_eq!(DynamicScanner::quick().name(), "pentest-6");
        assert_eq!(DynamicScanner::thorough().name(), "pentest-96-dict");
        assert_eq!(DynamicScanner::default(), DynamicScanner::thorough());
        assert_eq!(DynamicScanner::quick().request_budget(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_budget_panics() {
        let _ = DynamicScanner::with_budget(0, false);
    }
}
