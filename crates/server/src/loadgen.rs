//! The load generator behind `vdbench loadgen`: drives a running
//! `vdbench serve` instance with a fixed-seed mixed warm/cold request
//! pool and writes the measured record to `BENCH_serve.json`.
//!
//! Two phases:
//!
//! 1. **Seed pass** — every connection walks the *whole* pool in the
//!    same order. The first arrivals at each key are a deliberate
//!    thundering herd: one connection computes, the rest coalesce onto
//!    its flight, and by the end of the pass every pool key is committed
//!    to the blob store.
//! 2. **Measured pass** — for the configured duration each connection
//!    hammers pool keys picked by its own splitmix64 stream, recording
//!    client-side latency per request. With the pool committed, this is
//!    the warm path: the measured throughput and percentiles are the
//!    service's steady-state numbers, and the server-side counter deltas
//!    give the warm-hit ratio.
//!
//! Everything is seeded, so two runs against the same server issue the
//! same requests in the same per-thread order.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use vdbench_bench::serve_record::{SeedPassRecord, ServeRecord};

use crate::request::TOOL_NAMES;
use crate::service::StatsResponse;

/// Load-generator tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Server address to drive.
    pub addr: String,
    /// Measured-phase duration in seconds.
    pub duration_secs: f64,
    /// Concurrent client connections.
    pub connections: usize,
    /// Pool-shuffling seed.
    pub seed: u64,
    /// Distinct scan requests in the pool.
    pub pool_scans: usize,
    /// Whether campaign artifacts join the pool (cold-seeding them runs
    /// the full batch renderers — substantial; off by default so a smoke
    /// run stays fast, on when warming a cache `vdbench campaign` will share).
    pub artifacts: bool,
    /// Where to write the JSON record (`None` = don't write).
    pub out: Option<String>,
    /// Perfwatch ledger directory: when set, the run also appends a
    /// `serve` entry there (see DESIGN.md §17). `None` = capture off.
    pub perf_history: Option<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7071".to_string(),
            duration_secs: 3.0,
            connections: 8,
            seed: 2015,
            pool_scans: 64,
            artifacts: false,
            out: Some("BENCH_serve.json".to_string()),
            perf_history: vdbench_perfwatch::env_dir().map(|p| p.to_string_lossy().into_owned()),
        }
    }
}

/// One poolable request.
#[derive(Debug, Clone)]
struct PoolEntry {
    path: &'static str,
    body: String,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the fixed-seed request pool: scans across every tool at varied
/// small workloads, the four standard case studies, and (optionally) the
/// sixteen campaign artifacts.
fn build_pool(cfg: &LoadgenConfig) -> Vec<PoolEntry> {
    let mut pool = Vec::new();
    let mut rng = cfg.seed;
    for i in 0..cfg.pool_scans {
        let r = splitmix64(&mut rng);
        let tool = TOOL_NAMES[(r % TOOL_NAMES.len() as u64) as usize];
        let units = 10 + (r >> 8) % 21; // 10..=30: cheap cold computes
        let density = 0.05 * (1.0 + ((r >> 16) % 10) as f64); // 0.05..=0.5
        let seed = cfg.seed.wrapping_add(i as u64);
        pool.push(PoolEntry {
            path: "/v1/scan",
            body: format!(
                "{{\"tool\":\"{tool}\",\"units\":{units},\"density\":{density},\"seed\":{seed}}}"
            ),
        });
    }
    for (i, scenario) in ["S1", "S2", "S3", "S4"].iter().enumerate() {
        let units = 30 + 10 * i;
        pool.push(PoolEntry {
            path: "/v1/case-study",
            body: format!(
                "{{\"scenario\":\"{scenario}\",\"units\":{units},\"seed\":{}}}",
                cfg.seed
            ),
        });
    }
    if cfg.artifacts {
        for (name, _) in vdbench_bench::ARTIFACTS {
            pool.push(PoolEntry {
                path: "/v1/campaign",
                body: format!("{{\"artifact\":\"{name}\"}}"),
            });
        }
    }
    pool
}

/// A persistent keep-alive connection to the server.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    host: String,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            host: addr.to_string(),
        })
    }

    /// Issues one request; returns `(status, body)`.
    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.host,
            body.len(),
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<(u16, String)> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-headers",
                ));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not UTF-8"))?;
        Ok((status, body))
    }
}

fn fetch_stats(addr: &str) -> io::Result<StatsResponse> {
    let mut client = Client::connect(addr)?;
    let (status, body) = client.request("GET", "/v1/stats", "")?;
    if status != 200 {
        return Err(io::Error::other(format!("stats returned {status}")));
    }
    serde_json::from_str(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn server_counter(stats: &StatsResponse, name: &str) -> u64 {
    stats.server.get(name).copied().unwrap_or(0)
}

/// Per-thread tally of one phase.
#[derive(Default)]
struct Tally {
    requests: u64,
    errors: u64,
    latencies_us: Vec<u64>,
}

/// Runs the load generator against a live server and returns the record
/// (also written to `cfg.out` when set).
pub fn run(cfg: &LoadgenConfig) -> io::Result<ServeRecord> {
    let pool = build_pool(cfg);
    let connections = cfg.connections.max(1);

    // Phase 1 — seed: every connection walks the whole pool in the same
    // order, so cold keys see a deliberate thundering herd.
    let before_seed = fetch_stats(&cfg.addr)?;
    let seed_start = Instant::now();
    let seed_tallies: Vec<io::Result<Tally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                let pool = &pool;
                let addr = cfg.addr.as_str();
                scope.spawn(move || -> io::Result<Tally> {
                    let mut client = Client::connect(addr)?;
                    let mut tally = Tally::default();
                    for entry in pool {
                        let (status, _) = client.request("POST", entry.path, &entry.body)?;
                        tally.requests += 1;
                        if status != 200 {
                            tally.errors += 1;
                        }
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect()
    });
    let seed_elapsed = seed_start.elapsed();
    let mut seed_pass = SeedPassRecord {
        duration_secs: seed_elapsed.as_secs_f64(),
        ..SeedPassRecord::default()
    };
    for tally in seed_tallies {
        let tally = tally?;
        seed_pass.requests += tally.requests;
        seed_pass.errors += tally.errors;
    }
    let after_seed = fetch_stats(&cfg.addr)?;
    seed_pass.cold_misses = server_counter(&after_seed, "server.cold_misses")
        .saturating_sub(server_counter(&before_seed, "server.cold_misses"));
    seed_pass.coalesced = server_counter(&after_seed, "server.coalesced")
        .saturating_sub(server_counter(&before_seed, "server.coalesced"));

    // Phase 2 — measured: duration-bounded random hammering of the now
    // warm pool, with client-side latency sampling.
    let duration = Duration::from_secs_f64(cfg.duration_secs.max(0.1));
    let stop = AtomicBool::new(false);
    let measure_start = Instant::now();
    let tallies: Vec<io::Result<Tally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|thread_index| {
                let pool = &pool;
                let addr = cfg.addr.as_str();
                let stop = &stop;
                let mut rng = cfg.seed ^ (0xC0FF_EE00 + thread_index as u64);
                scope.spawn(move || -> io::Result<Tally> {
                    let mut client = Client::connect(addr)?;
                    let mut tally = Tally::default();
                    while !stop.load(Ordering::Relaxed) {
                        let entry = &pool[(splitmix64(&mut rng) % pool.len() as u64) as usize];
                        let sent = Instant::now();
                        let (status, _) = client.request("POST", entry.path, &entry.body)?;
                        let micros = u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
                        tally.latencies_us.push(micros);
                        tally.requests += 1;
                        if status != 200 {
                            tally.errors += 1;
                        }
                    }
                    Ok(tally)
                })
            })
            .collect();
        // The scope's main thread is the timer.
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect()
    });
    let measured_elapsed = measure_start.elapsed();
    let after_measure = fetch_stats(&cfg.addr)?;

    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut latencies = Vec::new();
    for tally in tallies {
        let tally = tally?;
        requests += tally.requests;
        errors += tally.errors;
        latencies.extend(tally.latencies_us);
    }
    latencies.sort_unstable();
    let percentile = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = ((q * latencies.len() as f64).ceil() as usize).max(1);
        latencies[rank.min(latencies.len()) - 1]
    };
    let accepted_delta = server_counter(&after_measure, "server.accepted")
        .saturating_sub(server_counter(&after_seed, "server.accepted"));
    let warm_delta = server_counter(&after_measure, "server.warm_hits")
        .saturating_sub(server_counter(&after_seed, "server.warm_hits"));
    let elapsed_secs = measured_elapsed.as_secs_f64();

    let record = ServeRecord {
        addr: cfg.addr.clone(),
        seed: cfg.seed,
        connections: connections as u64,
        pool_size: pool.len() as u64,
        seed_pass,
        duration_secs: elapsed_secs,
        requests,
        errors,
        throughput_rps: if elapsed_secs > 0.0 {
            requests as f64 / elapsed_secs
        } else {
            0.0
        },
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
        warm_hit_ratio: if accepted_delta > 0 {
            warm_delta as f64 / accepted_delta as f64
        } else {
            0.0
        },
        server: after_measure.server.clone(),
    };

    if let Some(path) = &cfg.out {
        let json = serde_json::to_string_pretty(&record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, json + "\n")?;
    }
    if let Some(dir) = &cfg.perf_history {
        append_serve_history(
            std::path::Path::new(dir),
            &record,
            &latencies,
            warm_delta,
            accepted_delta,
        );
    }
    Ok(record)
}

/// Appends the measured pass to the perfwatch ledger. The gated series is
/// the warm-hit proportion against its 0.9 floor — checked with a Wilson
/// interval on the server's own counter deltas, replacing the old
/// `warm ratio > 0.9` python assertion in CI. Latency and throughput are
/// advisory (absolute numbers vary with host). Latencies are thinned to a
/// deterministic stride subsample of the sorted vector (≤ 256 points) so
/// ledger lines stay small while preserving the distribution's shape.
fn append_serve_history(
    dir: &std::path::Path,
    record: &ServeRecord,
    latencies_us: &[u64],
    warm_delta: u64,
    accepted_delta: u64,
) {
    use vdbench_perfwatch::Series;
    let mut series = Vec::new();
    if accepted_delta > 0 {
        series.push(Series::proportion(
            "warm_hit_ratio",
            "higher",
            true,
            warm_delta.min(accepted_delta),
            accepted_delta,
            0.9,
        ));
    }
    series.push(Series::delta(
        "throughput_rps",
        "req/s",
        "higher",
        false,
        vec![record.throughput_rps],
    ));
    series.push(Series::delta(
        "p50_us",
        "µs",
        "lower",
        false,
        vec![record.p50_us as f64],
    ));
    series.push(Series::delta(
        "p99_us",
        "µs",
        "lower",
        false,
        vec![record.p99_us as f64],
    ));
    if !latencies_us.is_empty() {
        let stride = (latencies_us.len() / 256).max(1);
        let thinned: Vec<f64> = latencies_us
            .iter()
            .step_by(stride)
            .map(|&us| us as f64)
            .collect();
        series.push(Series::delta("latency_us", "µs", "lower", false, thinned));
    }
    let entry = vdbench_perfwatch::RunEntry {
        source: "serve".to_string(),
        unix_ms: vdbench_perfwatch::now_ms(),
        label: "loadgen".to_string(),
        provenance: String::new(),
        baseline: false,
        series,
    };
    match vdbench_perfwatch::append_entry(dir, &entry) {
        Ok(path) => eprintln!("appended perf history to {}", path.display()),
        Err(e) => eprintln!("perf history append failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_seed_deterministic_and_mixed() {
        let cfg = LoadgenConfig {
            artifacts: true,
            ..LoadgenConfig::default()
        };
        let a = build_pool(&cfg);
        let b = build_pool(&cfg);
        assert_eq!(a.len(), cfg.pool_scans + 4 + 16);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.path, y.path);
            assert_eq!(x.body, y.body, "same seed, same pool");
        }
        // Every endpoint is represented and every body parses.
        for entry in &a {
            assert!(
                crate::request::ApiRequest::parse(entry.path, &entry.body).is_ok(),
                "{} {}",
                entry.path,
                entry.body
            );
        }
        let different = build_pool(&LoadgenConfig {
            seed: 2016,
            artifacts: true,
            ..LoadgenConfig::default()
        });
        assert_ne!(a[0].body, different[0].body, "seed changes the pool");
    }

    #[test]
    fn pool_scan_workloads_stay_cheap() {
        let pool = build_pool(&LoadgenConfig::default());
        for entry in pool.iter().filter(|e| e.path == "/v1/scan") {
            let req = crate::request::ApiRequest::parse(entry.path, &entry.body).unwrap();
            assert!(req.cost_units() <= 30, "{}", entry.body);
        }
    }
}
