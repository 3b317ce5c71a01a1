//! Typed API requests: parsing, validation, canonicalization and the
//! mapping onto the content-addressed cache key space.
//!
//! Every POST body deserializes into a *wire* struct (all fields
//! optional), is validated and defaulted into a concrete request, and is
//! then **canonicalized**: the concrete request re-serializes to a JSON
//! document with a fixed field order and fully resolved defaults, and
//! that byte string — minus the client identity, which must never change
//! what is computed — is FNV-1a-hashed into the same 64-bit key space the
//! disk store already uses ([`vdbench_core::fnv1a_key`]). Two requests
//! that mean the same work therefore collapse onto one key, one blob and
//! one computation, no matter how their JSON was spelled.
//!
//! Campaign-artifact requests short-circuit the canonical hash: their key
//! is [`vdbench_core::artifact_key`], i.e. *exactly* the key the batch
//! `vdbench campaign` files its rendered artifacts under — a warm service response
//! is byte-identical to the batch transcript because it is the same blob.

use serde::{Deserialize, Serialize};
use vdbench_bench::{ARTIFACTS, EXPERIMENT_SEED};
use vdbench_core::{Scenario, ScenarioId};
use vdbench_corpus::{Corpus, CorpusBuilder};
use vdbench_detectors::{Detector, DynamicScanner, PatternScanner, TaintAnalyzer};

/// Largest corpus a scan request may ask for. Scans run through the
/// fixed-memory streamed/sharded engine ([`vdbench_core::streamed_scan`]),
/// so the cap bounds compute time, not memory — million-unit requests are
/// admissible (admission control bounds how many run at once).
pub const MAX_SCAN_UNITS: u64 = 1_000_000;

/// Largest workload a case-study request may ask for. Case studies
/// materialize their corpus and run the full tool roster, so they keep
/// the original tight bound.
pub const MAX_CASE_STUDY_UNITS: u64 = 2_000;

/// Default client identity when a request carries none.
pub const ANON_CLIENT: &str = "anon";

/// Fallback experiment seed for scan and case-study requests (the CLI
/// default, so `vdbench scan`'s output matches a default-seed request).
pub const DEFAULT_SEED: u64 = 2015;

/// The scan tools addressable over the API, with their wire names (the
/// same names the `vdbench scan --tool` flag accepts).
pub const TOOL_NAMES: [&str; 7] = [
    "pattern",
    "pattern-cons",
    "taint",
    "taint-shallow",
    "pentest",
    "pentest-quick",
    "pentest-stateful",
];

/// Instantiates a detection tool from its wire name.
pub fn tool_by_name(name: &str) -> Option<Box<dyn Detector>> {
    Some(match name {
        "pattern" => Box::new(PatternScanner::aggressive()),
        "pattern-cons" => Box::new(PatternScanner::conservative()),
        "taint" => Box::new(TaintAnalyzer::precise()),
        "taint-shallow" => Box::new(TaintAnalyzer::shallow()),
        "pentest" => Box::new(DynamicScanner::thorough()),
        "pentest-quick" => Box::new(DynamicScanner::quick()),
        "pentest-stateful" => Box::new(DynamicScanner::stateful()),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Wire forms (every field optional; unknown fields ignored)
// ---------------------------------------------------------------------------

#[derive(Debug, Deserialize)]
struct CampaignWire {
    artifact: Option<String>,
    client: Option<String>,
}

#[derive(Debug, Deserialize)]
struct ScanWire {
    tool: Option<String>,
    units: Option<u64>,
    density: Option<f64>,
    stored_rate: Option<f64>,
    seed: Option<u64>,
    client: Option<String>,
}

#[derive(Debug, Deserialize)]
struct CaseStudyWire {
    scenario: Option<String>,
    units: Option<u64>,
    seed: Option<u64>,
    client: Option<String>,
}

// ---------------------------------------------------------------------------
// Concrete requests
// ---------------------------------------------------------------------------

/// A validated `POST /v1/campaign` request: one batch artifact by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRequest {
    /// Artifact name (one of [`vdbench_bench::ARTIFACTS`]).
    pub artifact: String,
    /// Client identity for budget accounting.
    pub client: String,
}

/// A validated `POST /v1/scan` request: one tool over one generated
/// corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanRequest {
    /// Tool wire name (one of [`TOOL_NAMES`]).
    pub tool: String,
    /// Corpus size in units.
    pub units: u64,
    /// Vulnerability density in `[0, 1]`.
    pub density: f64,
    /// Stored (second-order) vulnerability rate in `[0, 1]`.
    pub stored_rate: f64,
    /// Corpus generator seed.
    pub seed: u64,
    /// Client identity for budget accounting.
    pub client: String,
}

/// A validated `POST /v1/case-study` request: one scenario's standard
/// case study, optionally at an overridden workload size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseStudyRequest {
    /// Scenario label ("S1" … "S4").
    pub scenario: String,
    /// Workload size in units (scenario default when not overridden).
    pub units: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Client identity for budget accounting.
    pub client: String,
}

/// One validated API request, ready to key, budget and compute.
#[derive(Debug, Clone, PartialEq)]
pub enum ApiRequest {
    /// `POST /v1/campaign`.
    Campaign(CampaignRequest),
    /// `POST /v1/scan`.
    Scan(ScanRequest),
    /// `POST /v1/case-study`.
    CaseStudy(CaseStudyRequest),
}

fn normalize_client(client: Option<String>) -> Result<String, String> {
    let client = client.unwrap_or_else(|| ANON_CLIENT.to_string());
    if client.is_empty() || client.len() > 64 {
        return Err("client must be 1..=64 characters".into());
    }
    Ok(client)
}

fn check_unit_range(what: &str, value: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(format!("{what} must be in [0, 1], got {value}"))
    }
}

/// Looks a standard scenario up by its case-insensitive label.
fn scenario_by_label(label: &str) -> Option<Scenario> {
    ScenarioId::all()
        .iter()
        .find(|id| id.label().eq_ignore_ascii_case(label))
        .map(|id| Scenario::standard(*id))
}

impl ApiRequest {
    /// Parses and validates the body POSTed to `path`. An empty body is
    /// treated as `{}` so defaultable endpoints stay curl-friendly.
    pub fn parse(path: &str, body: &str) -> Result<ApiRequest, String> {
        let body = if body.trim().is_empty() { "{}" } else { body };
        match path {
            "/v1/campaign" => {
                let wire: CampaignWire = serde_json::from_str(body).map_err(|e| e.to_string())?;
                let artifact = wire.artifact.ok_or("campaign request needs \"artifact\"")?;
                if vdbench_bench::artifact(&artifact).is_none() {
                    let names: Vec<&str> = ARTIFACTS.iter().map(|(n, _)| *n).collect();
                    return Err(format!(
                        "unknown artifact `{artifact}` (one of: {})",
                        names.join(", ")
                    ));
                }
                Ok(ApiRequest::Campaign(CampaignRequest {
                    artifact,
                    client: normalize_client(wire.client)?,
                }))
            }
            "/v1/scan" => {
                let wire: ScanWire = serde_json::from_str(body).map_err(|e| e.to_string())?;
                let tool = wire.tool.ok_or("scan request needs \"tool\"")?;
                if tool_by_name(&tool).is_none() {
                    return Err(format!(
                        "unknown tool `{tool}` (one of: {})",
                        TOOL_NAMES.join(", ")
                    ));
                }
                let units = wire.units.unwrap_or(200);
                if units == 0 || units > MAX_SCAN_UNITS {
                    return Err(format!(
                        "units must be in 1..={MAX_SCAN_UNITS}, got {units}"
                    ));
                }
                let density = wire.density.unwrap_or(0.3);
                check_unit_range("density", density)?;
                let stored_rate = wire.stored_rate.unwrap_or(0.12);
                check_unit_range("stored_rate", stored_rate)?;
                Ok(ApiRequest::Scan(ScanRequest {
                    tool,
                    units,
                    density,
                    stored_rate,
                    seed: wire.seed.unwrap_or(DEFAULT_SEED),
                    client: normalize_client(wire.client)?,
                }))
            }
            "/v1/case-study" => {
                let wire: CaseStudyWire = serde_json::from_str(body).map_err(|e| e.to_string())?;
                let label = wire
                    .scenario
                    .ok_or("case-study request needs \"scenario\"")?;
                let scenario = scenario_by_label(&label)
                    .ok_or_else(|| format!("unknown scenario `{label}` (S1, S2, S3 or S4)"))?;
                let units = wire.units.unwrap_or(scenario.workload_units as u64);
                if units == 0 || units > MAX_CASE_STUDY_UNITS {
                    return Err(format!(
                        "units must be in 1..={MAX_CASE_STUDY_UNITS}, got {units}"
                    ));
                }
                Ok(ApiRequest::CaseStudy(CaseStudyRequest {
                    scenario: scenario.id.label().to_string(),
                    units,
                    seed: wire.seed.unwrap_or(DEFAULT_SEED),
                    client: normalize_client(wire.client)?,
                }))
            }
            other => Err(format!("no such endpoint {other}")),
        }
    }

    /// The client identity the request bills against.
    #[must_use]
    pub fn client(&self) -> &str {
        match self {
            ApiRequest::Campaign(r) => &r.client,
            ApiRequest::Scan(r) => &r.client,
            ApiRequest::CaseStudy(r) => &r.client,
        }
    }

    /// The canonical byte string of the request: endpoint tag plus every
    /// field in fixed order, all defaults resolved, floats by their exact
    /// bit pattern, and the client excluded — identity must never shard
    /// the key space. This is what the cache key hashes (campaign
    /// artifacts instead share the batch `"art"` keys — see
    /// [`ApiRequest::cache_key`]).
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            ApiRequest::Campaign(r) => {
                format!("campaign\u{1f}{}\u{1f}{EXPERIMENT_SEED}", r.artifact)
            }
            ApiRequest::Scan(r) => format!(
                "scan\u{1f}{}\u{1f}{}\u{1f}{:016x}\u{1f}{:016x}\u{1f}{}",
                r.tool,
                r.units,
                r.density.to_bits(),
                r.stored_rate.to_bits(),
                r.seed,
            ),
            ApiRequest::CaseStudy(r) => format!(
                "case-study\u{1f}{}\u{1f}{}\u{1f}{}",
                r.scenario, r.units, r.seed
            ),
        }
    }

    /// The blob-store kind the response is filed under.
    #[must_use]
    pub fn cache_kind(&self) -> &'static str {
        match self {
            // The batch artifact tier: same kind, same key, same bytes as
            // `vdbench campaign`.
            ApiRequest::Campaign(_) => "art",
            ApiRequest::Scan(_) => "srv-scan",
            ApiRequest::CaseStudy(_) => "srv-case",
        }
    }

    /// The 64-bit key the response blob lives under.
    #[must_use]
    pub fn cache_key(&self) -> u64 {
        match self {
            ApiRequest::Campaign(r) => vdbench_core::artifact_key(&r.artifact, EXPERIMENT_SEED),
            _ => vdbench_core::fnv1a_key(self.canonical().as_bytes()),
        }
    }

    /// Workload size in corpus units — the input to the per-client budget
    /// charge (the detectors' step-budget model prices a scan attempt at
    /// `steps_per_unit × units`).
    #[must_use]
    pub fn cost_units(&self) -> usize {
        match self {
            // Artifacts run the standard assessment workload.
            ApiRequest::Campaign(_) => vdbench_bench::experiment_config().workload_size as usize,
            ApiRequest::Scan(r) => r.units as usize,
            ApiRequest::CaseStudy(r) => r.units as usize,
        }
    }

    /// Content type of a successful response.
    #[must_use]
    pub fn content_type(&self) -> &'static str {
        match self {
            ApiRequest::Scan(_) => "application/json",
            _ => "text/plain; charset=utf-8",
        }
    }

    /// Whether the service must publish the computed response itself
    /// (campaign artifacts are published by [`vdbench_core::cached_artifact`]
    /// inside the compute).
    #[must_use]
    pub fn needs_publish(&self) -> bool {
        !matches!(self, ApiRequest::Campaign(_))
    }

    /// Computes the response body (the cold path; runs on the rayon
    /// pool). Pure: same request, same bytes, at any thread count.
    pub fn compute(&self) -> Result<String, String> {
        match self {
            ApiRequest::Campaign(r) => {
                let render = vdbench_bench::artifact(&r.artifact).ok_or("artifact vanished")?;
                Ok(vdbench_core::cached_artifact(
                    &r.artifact,
                    EXPERIMENT_SEED,
                    render,
                ))
            }
            ApiRequest::Scan(r) => {
                let tool = tool_by_name(&r.tool).ok_or("tool vanished")?;
                // The streamed/sharded engine: fixed-memory at any corpus
                // size, and repeat scans of unchanged units replay their
                // manifest entries instead of recomputing.
                let report = vdbench_core::streamed_scan(
                    tool.as_ref(),
                    &r.corpus_builder(),
                    vdbench_core::DEFAULT_SHARD_UNITS,
                );
                let summary = ScanSummary::from_report(r, &report);
                serde_json::to_string(&summary).map_err(|e| e.to_string())
            }
            ApiRequest::CaseStudy(r) => {
                let mut scenario = scenario_by_label(&r.scenario).ok_or("scenario vanished")?;
                scenario.workload_units = r.units as usize;
                let report = vdbench_core::cached_case_study(&scenario, r.seed)
                    .map_err(|e| e.to_string())?;
                Ok(report
                    .to_table(&format!("{} — {}", scenario.id, scenario.name))
                    .render_ascii())
            }
        }
    }
}

impl ScanRequest {
    /// The generator configuration the request describes.
    #[must_use]
    pub fn corpus_builder(&self) -> CorpusBuilder {
        CorpusBuilder::new()
            .units(self.units as usize)
            .vulnerability_density(self.density)
            .stored_rate(self.stored_rate)
            .seed(self.seed)
            .clone()
    }

    /// The corpus the request describes, materialized.
    #[must_use]
    pub fn build_corpus(&self) -> Corpus {
        self.corpus_builder().build()
    }
}

/// The JSON document a `/v1/scan` request answers with: the request
/// echo, the confusion matrix, and the headline rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanSummary {
    /// Tool wire name.
    pub tool: String,
    /// Corpus size in units.
    pub units: u64,
    /// Vulnerability sites scored.
    pub sites: u64,
    /// Corpus generator seed.
    pub seed: u64,
    /// True positives.
    pub true_positives: u64,
    /// False positives.
    pub false_positives: u64,
    /// False negatives.
    pub false_negatives: u64,
    /// True negatives.
    pub true_negatives: u64,
    /// Recall (`NaN` serializes as `null`).
    pub tpr: f64,
    /// Fall-out.
    pub fpr: f64,
    /// Precision.
    pub ppv: f64,
}

impl ScanSummary {
    fn from_report(request: &ScanRequest, report: &vdbench_core::StreamedScanReport) -> Self {
        let cm = &report.confusion;
        ScanSummary {
            tool: request.tool.clone(),
            units: request.units,
            sites: report.sites,
            seed: request.seed,
            true_positives: cm.tp,
            false_positives: cm.fp,
            false_negatives: cm.fn_,
            true_negatives: cm.tn,
            tpr: cm.tpr(),
            fpr: cm.fpr(),
            ppv: cm.ppv(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spelling_variants_collapse_onto_one_key() {
        let a = ApiRequest::parse("/v1/scan", r#"{"tool":"taint"}"#).unwrap();
        let b = ApiRequest::parse(
            "/v1/scan",
            r#"{ "seed": 2015, "client": "alice", "tool": "taint", "units": 200 }"#,
        )
        .unwrap();
        assert_eq!(a.canonical(), b.canonical(), "defaults resolve identically");
        assert_eq!(a.cache_key(), b.cache_key());
        // … but the client identity still reaches the budget ledger.
        assert_eq!(a.client(), ANON_CLIENT);
        assert_eq!(b.client(), "alice");
    }

    #[test]
    fn different_work_gets_different_keys() {
        let base = ApiRequest::parse("/v1/scan", r#"{"tool":"taint"}"#).unwrap();
        for other in [
            r#"{"tool":"pattern"}"#,
            r#"{"tool":"taint","units":201}"#,
            r#"{"tool":"taint","density":0.31}"#,
            r#"{"tool":"taint","seed":2016}"#,
        ] {
            let req = ApiRequest::parse("/v1/scan", other).unwrap();
            assert_ne!(base.cache_key(), req.cache_key(), "{other}");
        }
        let case = ApiRequest::parse("/v1/case-study", r#"{"scenario":"S1"}"#).unwrap();
        assert_ne!(base.cache_key(), case.cache_key());
    }

    #[test]
    fn campaign_requests_share_the_batch_artifact_keys() {
        let req = ApiRequest::parse("/v1/campaign", r#"{"artifact":"table2"}"#).unwrap();
        assert_eq!(req.cache_kind(), "art");
        assert_eq!(
            req.cache_key(),
            vdbench_core::artifact_key("table2", EXPERIMENT_SEED)
        );
        assert!(!req.needs_publish(), "cached_artifact publishes itself");
    }

    #[test]
    fn validation_rejects_malformed_requests() {
        for (path, body, needle) in [
            ("/v1/campaign", "{}", "needs \"artifact\""),
            (
                "/v1/campaign",
                r#"{"artifact":"table99"}"#,
                "unknown artifact",
            ),
            ("/v1/scan", "{}", "needs \"tool\""),
            ("/v1/scan", r#"{"tool":"nope"}"#, "unknown tool"),
            ("/v1/scan", r#"{"tool":"taint","units":0}"#, "units must be"),
            (
                "/v1/scan",
                r#"{"tool":"taint","density":1.5}"#,
                "density must be",
            ),
            ("/v1/case-study", r#"{"scenario":"S9"}"#, "unknown scenario"),
            ("/v1/nope", "{}", "no such endpoint"),
            ("/v1/scan", "not json", "json error"),
        ] {
            let err = ApiRequest::parse(path, body).unwrap_err();
            assert!(err.contains(needle), "{path} {body}: {err}");
        }
    }

    #[test]
    fn case_study_defaults_to_the_scenario_workload() {
        let req = ApiRequest::parse("/v1/case-study", r#"{"scenario":"s3"}"#).unwrap();
        let ApiRequest::CaseStudy(ref r) = req else {
            panic!("wrong variant")
        };
        assert_eq!(r.scenario, "S3", "label is canonicalized to upper case");
        assert_eq!(
            r.units,
            Scenario::standard(ScenarioId::S3Procurement).workload_units as u64
        );
        assert_eq!(req.cost_units(), r.units as usize);
    }

    #[test]
    fn scan_caps_admit_streaming_scale_but_case_studies_stay_bounded() {
        let ok = ApiRequest::parse("/v1/scan", r#"{"tool":"pattern","units":1000000}"#);
        assert!(ok.is_ok(), "million-unit scans stream in fixed memory");
        let too_big =
            ApiRequest::parse("/v1/scan", r#"{"tool":"pattern","units":1000001}"#).unwrap_err();
        assert!(too_big.contains("units must be"), "{too_big}");
        let case =
            ApiRequest::parse("/v1/case-study", r#"{"scenario":"S1","units":2001}"#).unwrap_err();
        assert!(case.contains("units must be in 1..=2000"), "{case}");
    }

    #[test]
    fn scan_summary_matches_a_direct_scan() {
        let req = ApiRequest::parse("/v1/scan", r#"{"tool":"taint","units":30,"seed":7}"#).unwrap();
        let body = req.compute().unwrap();
        let summary: ScanSummary = serde_json::from_str(&body).unwrap();
        let ApiRequest::Scan(ref r) = req else {
            panic!("wrong variant")
        };
        let corpus = r.build_corpus();
        let tool = tool_by_name("taint").unwrap();
        let direct = vdbench_detectors::score_detector(tool.as_ref(), &corpus);
        let cm = direct.confusion();
        assert_eq!(summary.true_positives, cm.tp);
        assert_eq!(summary.false_positives, cm.fp);
        assert_eq!(summary.false_negatives, cm.fn_);
        assert_eq!(summary.true_negatives, cm.tn);
        assert_eq!(summary.sites, corpus.site_count() as u64);
    }
}
