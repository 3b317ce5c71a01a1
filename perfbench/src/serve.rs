//! The server pass of `campaign-cold`'s traced run: `vdbench serve`
//! over the store a cold campaign filled, driven by an open loop over
//! two keep-alive connections.
//!
//! Nine requests in ten are warm hits: one of the campaign's artifacts
//! (the blobs the campaign wrote), or one of a fixed set of scans and
//! case studies that the server computed and stored once before the
//! load starts. One in ten is a novel scan that computes cold. Every fourth
//! novel request is sent twice at the same instant, so single-flight
//! coalescing runs. Requests are due on a fixed schedule whatever the
//! server does, and each latency is taken from the moment its request
//! was due.
//!
//! The load is offered in one-second segments, each over fresh
//! connections. On a small VM a warm hit's latency depends on whether the
//! client's and the server's threads share a CPU, and that placement
//! holds for a connection's lifetime; sampling it once per segment
//! instead of once per pass makes the percentiles repeatable.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use serde::Value;
use vdbench_core::cache;
use vdbench_server::http::HttpRequest;
use vdbench_server::{ApiRequest, ServerConfig, Service, ServiceConfig};

use crate::probe::{self, ms_since, Samples};
use crate::{Outcome, THREADS};

/// Offered load of the nominal phase, requests per second.
const NOMINAL_RPS: f64 = 100.0;

/// Offered loads of the capacity ladder.
const LADDER_RPS: [f64; 4] = [100.0, 200.0, 400.0, 800.0];

/// Length of one load segment; each runs over fresh connections.
const SEGMENT_SECONDS: f64 = 1.0;

/// One request in this many is a novel (cold) scan.
const NOVEL_EVERY: usize = 10;

/// One novel request in this many is sent twice at the same instant.
const DOUBLE_EVERY: usize = 4;

/// Tools and corpus sizes the novel scans cycle through.
const NOVEL_MIX: [(&str, u64); 8] = [
    ("pattern", 200),
    ("pattern", 500),
    ("pattern", 1000),
    ("pattern", 2000),
    ("taint", 200),
    ("taint", 500),
    ("taint", 1000),
    ("taint", 2000),
];

/// Scans in the warm set; they cycle through [`NOVEL_MIX`].
const WARM_SCANS: usize = 16;

/// Case studies in the warm set: scenario and workload size.
const WARM_CASE_STUDIES: [(&str, u64); 4] = [("S1", 30), ("S2", 40), ("S3", 50), ("S4", 60)];

/// A pass whose generator sent requests later than this (p99) did not
/// offer the load it claims, and its run is rejected.
const LATENESS_LIMIT_MS: f64 = 20.0;

/// p99 latency a ladder rate must meet to count as sustained.
const LATENCY_LIMIT_MS: f64 = 50.0;

/// A request with no response after this long has failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long before a due time the generator stops sleeping and spins:
/// a sleeping thread wakes up late by a varying amount, and that
/// lateness would otherwise land in every measured latency.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(250);

/// One API request: endpoint and JSON body.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Req {
    path: &'static str,
    body: String,
}

/// SplitMix64: the workload's own deterministic stream of choices.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn scan_req(tool: &str, units: u64, seed: u64) -> Req {
    Req {
        path: "/v1/scan",
        body: format!(r#"{{"tool":"{tool}","units":{units},"seed":{seed}}}"#),
    }
}

/// The warm set's scans and case studies, seeded from the workload
/// seed. Their seeds stay below 2^47, apart from the novel scans'.
fn served_reqs(seed: u64) -> Vec<Req> {
    let mut mix = Mix(seed);
    let mut reqs: Vec<Req> = NOVEL_MIX
        .iter()
        .cycle()
        .take(WARM_SCANS)
        .map(|(tool, units)| scan_req(tool, *units, mix.next() >> 17))
        .collect();
    reqs.extend(WARM_CASE_STUDIES.iter().map(|(scenario, units)| Req {
        path: "/v1/case-study",
        body: format!(
            r#"{{"scenario":"{scenario}","units":{units},"seed":{}}}"#,
            mix.next() >> 17
        ),
    }));
    reqs
}

/// One scheduled request: when it is due (from the segment start) and
/// whether it computes cold.
struct Job {
    due: Duration,
    req: Req,
    novel: bool,
}

/// An open-loop schedule of `rps × seconds` requests at fixed spacing.
/// `stream` keeps the novel keys of different segments apart.
fn schedule(seed: u64, stream: u64, rps: f64, seconds: f64, warm: &[Req]) -> Vec<Job> {
    let mut mix = Mix(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
    let total = (rps * seconds).round() as usize;
    let mut jobs = Vec::with_capacity(total + total / NOVEL_EVERY);
    let mut novel_slot = 0;
    let mut novel = 0usize;
    for i in 0..total {
        if i % NOVEL_EVERY == 0 {
            novel_slot = i + mix.below(NOVEL_EVERY);
        }
        let due = Duration::from_secs_f64(i as f64 / rps);
        if i == novel_slot {
            let (tool, units) = NOVEL_MIX[novel % NOVEL_MIX.len()];
            // Novel seeds live above 2^48, out of reach of the warm
            // set's seeds.
            let req = scan_req(tool, units, (1 << 48) | (mix.next() >> 17));
            let copies = if novel % DOUBLE_EVERY == DOUBLE_EVERY - 1 {
                2
            } else {
                1
            };
            for _ in 0..copies {
                jobs.push(Job {
                    due,
                    req: req.clone(),
                    novel: true,
                });
            }
            novel += 1;
        } else {
            jobs.push(Job {
                due,
                req: warm[mix.below(warm.len())].clone(),
                novel: false,
            });
        }
    }
    jobs
}

/// A keep-alive HTTP/1.1 client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads the status and body of its response.
    fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(wire.as_bytes())?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content length"))?;
                }
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
        Ok((status, body))
    }

    /// Opens a connection and waits until the server serves it.
    fn ready(addr: SocketAddr) -> Option<Conn> {
        let mut conn = Conn::open(addr).ok()?;
        matches!(conn.send("GET", "/v1/healthz", ""), Ok((200, _))).then_some(conn)
    }
}

/// What one request got back: `None` when it failed on the wire.
struct Reply {
    latency_ms: f64,
    response: Option<(u16, String)>,
}

/// Returns at `due`: sleeps until shortly before it, then spins.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_BEFORE_DUE {
        std::thread::sleep(due - now - SPIN_BEFORE_DUE);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The requests of one load phase, what each got back, how late the
/// generator sent the requests it was holding for their due time, and
/// the median latency of each segment.
#[derive(Default)]
struct Load {
    jobs: Vec<Job>,
    replies: Vec<Reply>,
    lateness_ms: Vec<f64>,
    segment_p50_ms: Vec<f64>,
}

/// Offers `jobs` on their schedule over [`THREADS`] fresh connections.
///
/// Each connection claims the next unsent request and waits until it is
/// due, so the schedule does not depend on the server. A request claimed
/// after its due time waited for a busy connection: that wait counts in
/// its latency, not in the generator's lateness.
fn drive(addr: SocketAddr, jobs: Vec<Job>, load: &mut Load) {
    let next = AtomicUsize::new(0);
    let ready = Barrier::new(THREADS);
    let start: OnceLock<Instant> = OnceLock::new();
    let mut sent: Vec<(usize, Reply, Option<f64>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (next, ready, start, jobs) = (&next, &ready, &start, &jobs);
                s.spawn(move || {
                    let mut conn = Conn::ready(addr);
                    ready.wait();
                    let start = *start.get_or_init(|| Instant::now() + Duration::from_millis(1));
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let due = start + job.due;
                        let late = (due > Instant::now()).then(|| {
                            wait_until(due);
                            Instant::now().duration_since(due).as_secs_f64() * 1e3
                        });
                        let response = match conn
                            .as_mut()
                            .map(|c| c.send("POST", job.req.path, &job.req.body))
                        {
                            Some(Ok(r)) => Some(r),
                            _ => {
                                // A broken or timed-out connection is
                                // replaced; the request counts as failed.
                                conn = Conn::ready(addr);
                                None
                            }
                        };
                        let latency_ms = Instant::now().duration_since(due).as_secs_f64() * 1e3;
                        out.push((
                            i,
                            Reply {
                                latency_ms,
                                response,
                            },
                            late,
                        ));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("connection worker panicked"))
            .collect()
    });
    sent.sort_by_key(|(i, ..)| *i);
    let latencies: Vec<f64> = sent.iter().map(|(_, r, _)| r.latency_ms).collect();
    load.segment_p50_ms.push(probe::median(&latencies));
    for (_, reply, late) in sent {
        load.replies.push(reply);
        load.lateness_ms.extend(late);
    }
    load.jobs.extend(jobs);
}

/// Offers `rps` for `seconds` in [`SEGMENT_SECONDS`] segments, each with
/// its own schedule stream, and returns the whole phase.
fn offer(
    addr: SocketAddr,
    seed: u64,
    stream: u64,
    (rps, seconds): (f64, f64),
    warm: &[Req],
) -> Load {
    let mut load = Load::default();
    let segments = (seconds / SEGMENT_SECONDS).round().max(1.0) as u64;
    for k in 0..segments {
        let jobs = schedule(
            seed,
            (stream << 16) + k,
            rps,
            seconds / segments as f64,
            warm,
        );
        drive(addr, jobs, &mut load);
    }
    load
}

/// Computes the expected body of each request in-process, with the
/// store off and an empty memo, so the reference shares no state with
/// the server. Returns the bodies and each compute's wall time.
fn references<'a>(reqs: impl IntoIterator<Item = &'a Req>) -> (BTreeMap<Req, String>, Vec<f64>) {
    vdbench_core::set_disk_cache(None);
    cache::clear();
    let mut bodies = BTreeMap::new();
    let mut compute_ms = Vec::new();
    for req in reqs {
        if bodies.contains_key(req) {
            continue;
        }
        let t = Instant::now();
        let body = ApiRequest::parse(req.path, &req.body).and_then(|r| r.compute());
        compute_ms.push(ms_since(t));
        bodies.insert(
            req.clone(),
            body.unwrap_or_else(|e| format!("reference failed: {e}")),
        );
    }
    (bodies, compute_ms)
}

/// Sends each request once, in turn, so the server computes and stores
/// it; each body must equal its reference.
fn prewarm(
    addr: SocketAddr,
    reqs: &[Req],
    expected: &BTreeMap<Req, String>,
    outcome: &mut Outcome,
) {
    let mut conn = Conn::ready(addr);
    for req in reqs {
        let reply = conn.as_mut().map(|c| c.send("POST", req.path, &req.body));
        outcome.check(
            matches!(&reply, Some(Ok((200, body))) if Some(body) == expected.get(req)),
            "pre-warm request answers with its reference",
        );
    }
}

/// Latency summary of one load phase.
struct Summary {
    /// Mean over segments of each segment's median latency. Segments
    /// differ by thread placement, so the mean is the repeatable summary
    /// of the typical request.
    p50_ms: f64,
    p99_ms: f64,
    cold_p50_ms: f64,
    warm_p50_ms: f64,
    lateness_p99_ms: f64,
    /// Whether the last quarter of the phase ran no slower than its
    /// first: the server kept up and no backlog grew.
    steady: bool,
    failed: u64,
}

/// Checks every reply of a phase against its reference (any non-200
/// answer, timeout or wrong body fails) and summarises its latencies.
fn judge(load: &Load, expected: &BTreeMap<Req, String>) -> Summary {
    let failed = load
        .jobs
        .iter()
        .zip(&load.replies)
        .filter(|(job, reply)| {
            !matches!(&reply.response, Some((200, body)) if Some(body) == expected.get(&job.req))
        })
        .count() as u64;
    let all: Vec<f64> = load.replies.iter().map(|r| r.latency_ms).collect();
    let of = |novel: bool| -> Vec<f64> {
        load.jobs
            .iter()
            .zip(&load.replies)
            .filter(|(j, _)| j.novel == novel)
            .map(|(_, r)| r.latency_ms)
            .collect()
    };
    let quarter = (all.len() / 4).max(1).min(all.len());
    Summary {
        p50_ms: load.segment_p50_ms.iter().sum::<f64>() / load.segment_p50_ms.len().max(1) as f64,
        p99_ms: probe::quantile(&all, 0.99),
        cold_p50_ms: probe::median(&of(true)),
        warm_p50_ms: probe::median(&of(false)),
        lateness_p99_ms: probe::quantile(&load.lateness_ms, 0.99),
        steady: probe::median(&all[all.len() - quarter..])
            <= 2.0 * probe::median(&all[..quarter]) + 1.0,
        failed,
    }
}

/// The server's tier counters.
fn server_counters() -> BTreeMap<&'static str, u64> {
    [
        "server.accepted",
        "server.warm_hits",
        "server.coalesced",
        "server.shed",
    ]
    .into_iter()
    .map(|n| (n, probe::counter(n)))
    .collect()
}

/// Times the request layers on the warm set, in-process: parse, key,
/// blob probe, and the whole `Service::handle` of a warm hit.
fn layer_pass(warm: &[Req], samples: &mut Samples) {
    const PASSES: usize = 20;
    let service = Service::new(ServiceConfig::default());
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for _ in 0..PASSES {
        for req in warm {
            let t = Instant::now();
            let parsed = ApiRequest::parse(req.path, &req.body).expect("warm requests parse");
            samples.push("server.parse_us", us(t));
            let t = Instant::now();
            let canonical = parsed.canonical();
            let (kind, key) = (parsed.cache_kind(), parsed.cache_key());
            samples.push("server.key_us", us(t));
            std::hint::black_box(canonical);
            let t = Instant::now();
            std::hint::black_box(vdbench_core::raw_blob_get(kind, key));
            samples.push("server.blob_probe_us", us(t));
            let http = HttpRequest {
                method: "POST".to_string(),
                path: req.path.to_string(),
                body: req.body.clone(),
                keep_alive: true,
            };
            let t = Instant::now();
            std::hint::black_box(service.handle(&http));
            samples.push("server.handle_us", us(t));
        }
    }
}

/// One load phase and the ladder rate it tested, if any.
type Phase = (Load, Option<f64>);

/// Climbs the capacity ladder over `seconds`, one rate per rung.
fn ladder(addr: SocketAddr, seed: u64, seconds: f64, warm: &[Req]) -> Vec<Phase> {
    let rung_seconds = seconds / LADDER_RPS.len() as f64;
    LADDER_RPS
        .iter()
        .enumerate()
        .map(|(k, rps)| {
            let load = offer(addr, seed, 3 + k as u64, (*rps, rung_seconds), warm);
            (load, Some(*rps))
        })
        .collect()
}

/// Computes the novel references of finished phases and judges every
/// reply. Counts attempts and failures, rejects the run if the
/// generator ran late, and pushes the per-layer load samples.
fn score(
    phases: &[Phase],
    mut expected: BTreeMap<Req, String>,
    samples: &mut Samples,
    outcome: &mut Outcome,
) {
    let novel = phases
        .iter()
        .flat_map(|(load, _)| load.jobs.iter().filter(|j| j.novel).map(|j| &j.req));
    let (novel_expected, compute_ms) = references(novel);
    outcome.note("serve_novel_keys", Value::UInt(novel_expected.len() as u64));
    expected.extend(novel_expected);
    for ms in compute_ms {
        samples.push("server.compute_ms", ms);
    }
    let mut max_rps: f64 = 0.0;
    for (load, ladder) in phases {
        let summary = judge(load, &expected);
        outcome.attempted += load.jobs.len() as u64;
        outcome.failed += summary.failed;
        if summary.lateness_p99_ms > LATENESS_LIMIT_MS {
            outcome.invalid = Some(format!(
                "load generator ran {:.1} ms late at p99 (limit {LATENESS_LIMIT_MS} ms)",
                summary.lateness_p99_ms
            ));
        }
        samples.push("loadgen.lateness_p99_ms", summary.lateness_p99_ms);
        match ladder {
            Some(rps) => {
                if summary.failed == 0 && summary.steady && summary.p99_ms <= LATENCY_LIMIT_MS {
                    max_rps = max_rps.max(*rps);
                }
            }
            None => {
                samples.push("loadgen.p50_ms", summary.p50_ms);
                samples.push("loadgen.p99_ms", summary.p99_ms);
                samples.push("loadgen.cold_p50_ms", summary.cold_p50_ms);
                samples.push("loadgen.warm_p50_ms", summary.warm_p50_ms);
            }
        }
    }
    samples.push("server.max_rps", max_rps);
}

/// Pushes the server's tier-counter deltas since `before`.
fn push_counters(before: &BTreeMap<&'static str, u64>, samples: &mut Samples) {
    let after = server_counters();
    let delta = |name: &str| (after[name] - before[name]) as f64;
    samples.push(
        "server.warm_hit_ratio",
        delta("server.warm_hits") / delta("server.accepted").max(1.0),
    );
    samples.push("server.coalesced", delta("server.coalesced"));
    samples.push("server.shed", delta("server.shed"));
}

fn artifact_req(name: &str) -> Req {
    Req {
        path: "/v1/campaign",
        body: format!(r#"{{"artifact":"{name}"}}"#),
    }
}

/// The server layer over the store a cold campaign filled: `vdbench
/// serve` answers the warm set (the campaign's artifacts, which the
/// campaign wrote, and scans and case studies it pre-warms) while novel
/// scans compute cold, for half of `seconds` at the nominal rate and
/// half up the capacity ladder. Every body is checked; the `server.*`
/// and `loadgen.*` per-layer samples are pushed. Leaves the disk tier
/// off.
pub fn campaign_pass(
    seed: u64,
    seconds: f64,
    artifacts: &[(&str, String)],
    samples: &mut Samples,
    outcome: &mut Outcome,
) {
    let served = served_reqs(seed);
    // References of the pre-warmed keys, computed with the store off;
    // the memo is emptied again so the server computes its own.
    let store = vdbench_core::disk_cache_dir();
    let (mut expected, _) = references(&served);
    cache::clear();
    vdbench_core::set_disk_cache(store);
    let mut warm: Vec<Req> = artifacts
        .iter()
        .map(|(name, _)| artifact_req(name))
        .collect();
    expected.extend(
        warm.iter()
            .cloned()
            .zip(artifacts.iter().map(|(_, text)| text.clone())),
    );
    warm.extend(served.iter().cloned());
    let server = match vdbench_server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig::default(),
    }) {
        Ok(s) => s,
        Err(e) => {
            outcome.invalid = Some(format!("server start failed: {e}"));
            return;
        }
    };
    let addr = server.addr();
    prewarm(addr, &served, &expected, outcome);
    let before = server_counters();
    let mut phases = vec![(
        offer(addr, seed, 1, (NOMINAL_RPS, seconds / 2.0), &warm),
        None,
    )];
    phases.extend(ladder(addr, seed, seconds / 2.0, &warm));
    push_counters(&before, samples);
    layer_pass(&warm, samples);
    server.shutdown();
    score(&phases, expected, samples, outcome);
}
