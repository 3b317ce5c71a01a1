//! End-to-end tests of `vdbench serve` over real TCP sockets.
//!
//! The disk-store configuration and the telemetry counters are
//! process-global, so every test takes one lock, points the store at its
//! own scratch directory, runs its own server on an ephemeral port, and
//! asserts on *counter deltas* rather than absolute values. The
//! properties under test are the service's headline guarantees:
//!
//! * campaign responses are byte-identical to the batch renderers and
//!   land in the batch artifact key space;
//! * cold → warm on one server, and warm across a **restart** — a
//!   committed blob survives the process because commitment is the
//!   atomic publication, not server memory;
//! * a thundering herd on one cold key computes exactly once;
//! * a saturated server sheds cold work with 429 but keeps serving warm;
//! * per-client step budgets deny with 429 and detector-style accounting;
//! * a request line that never ends is answered with 400, not buffered
//!   without bound, and a request that stops arriving midway does not
//!   hold up shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{mpsc, Barrier, Mutex, MutexGuard};
use std::time::Duration;

use vdbench_core::cache::{clear, reset_stats};
use vdbench_core::set_disk_cache;
use vdbench_detectors::ScanPolicy;
use vdbench_server::{start, ApiRequest, ServerConfig, ServiceConfig, StatsResponse};
use vdbench_telemetry::registry::global;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Scratch blob store wired into the global cache config; detached and
/// deleted on drop.
struct ScratchStore {
    dir: PathBuf,
}

impl ScratchStore {
    fn open(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("vdbench-serve-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        clear();
        set_disk_cache(Some(dir.clone()));
        reset_stats();
        ScratchStore { dir }
    }
}

impl Drop for ScratchStore {
    fn drop(&mut self) {
        set_disk_cache(None);
        clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig::default(),
    }
}

/// One blocking request over a fresh connection; returns `(status, body)`.
fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body.as_bytes()).expect("send body");
    read_response(stream)
}

fn read_response(stream: TcpStream) -> (u16, String) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn counter(name: &str) -> u64 {
    global().counter(name).get()
}

#[test]
fn health_stats_and_error_statuses() {
    let _guard = lock();
    let store = ScratchStore::open("health");
    let server = start(server_config()).expect("bind");
    let addr = server.addr();

    let (status, body) = request(addr, "GET", "/v1/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, _) = request(addr, "GET", "/nowhere", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "POST", "/v1/healthz", "{}");
    assert_eq!(status, 405);
    let (status, body) = request(addr, "POST", "/v1/scan", r#"{"tool":"nope"}"#);
    assert_eq!(status, 400);
    assert!(body.contains("unknown tool"), "{body}");

    let (status, body) = request(addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let stats: StatsResponse = serde_json::from_str(&body).expect("stats parse");
    assert!(stats.latency.count > 0, "requests were timed");

    // Raw garbage on the socket is answered with 400, not a hang.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"definitely not http\r\n\r\n")
        .expect("send");
    let (status, _) = read_response(stream);
    assert_eq!(status, 400);

    server.shutdown();
    drop(store);
}

#[test]
fn endless_request_line_is_rejected_with_400() {
    let _guard = lock();
    let store = ScratchStore::open("endless-line");
    let server = start(server_config()).expect("bind");
    // 64 KiB without a newline, the socket left open: an unbounded reader
    // would wait for the line to end and the read below would time out.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream.write_all(&[b'A'; 64 * 1024]).expect("send");
    let (status, body) = read_response(stream);
    assert_eq!(status, 400);
    assert!(body.contains("line too long"), "{body}");
    server.shutdown();
    drop(store);
}

#[test]
fn slow_drip_request_does_not_block_shutdown() {
    let _guard = lock();
    let store = ScratchStore::open("slow-drip");
    let server = start(server_config()).expect("bind");
    // Part of a request line and then nothing, the socket left open: a
    // reader that retries read-timeouts until the request completes
    // would keep its connection thread, and so `shutdown`, waiting.
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(b"GET /v1/healthz").expect("send");
    std::thread::sleep(Duration::from_millis(200));
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    let finished = done_rx.recv_timeout(Duration::from_secs(5));
    drop(stream);
    assert!(finished.is_ok(), "shutdown blocked on a slow-drip client");
    drop(store);
}

#[test]
fn campaign_response_is_byte_identical_to_the_batch_renderer() {
    let _guard = lock();
    let store = ScratchStore::open("campaign");
    let server = start(server_config()).expect("bind");
    let addr = server.addr();
    let expected = vdbench_bench::tables::preamble();

    let cold_before = counter("server.cold_misses");
    let (status, body) = request(addr, "POST", "/v1/campaign", r#"{"artifact":"preamble"}"#);
    assert_eq!(status, 200);
    assert_eq!(body, expected, "service must serve the batch bytes");
    assert_eq!(counter("server.cold_misses"), cold_before + 1);

    // The response went into the *batch* artifact key space: `vdbench
    // campaign` would now replay it, and the service serves it warm.
    let req = ApiRequest::parse("/v1/campaign", r#"{"artifact":"preamble"}"#).expect("parse");
    assert_eq!(
        vdbench_core::raw_blob_get(req.cache_kind(), req.cache_key()).as_deref(),
        Some(expected.as_str())
    );
    let warm_before = counter("server.warm_hits");
    let (status, body) = request(addr, "POST", "/v1/campaign", r#"{"artifact":"preamble"}"#);
    assert_eq!(status, 200);
    assert_eq!(body, expected);
    assert_eq!(counter("server.warm_hits"), warm_before + 1);

    server.shutdown();
    drop(store);
}

#[test]
fn committed_blobs_survive_a_server_restart() {
    let _guard = lock();
    let store = ScratchStore::open("restart");
    let body_json = r#"{"tool":"taint","units":20,"seed":41}"#;

    let first = start(server_config()).expect("bind");
    let cold_before = counter("server.cold_misses");
    let (status, cold_body) = request(first.addr(), "POST", "/v1/scan", body_json);
    assert_eq!(status, 200);
    assert_eq!(counter("server.cold_misses"), cold_before + 1);
    let (status, warm_body) = request(first.addr(), "POST", "/v1/scan", body_json);
    assert_eq!(status, 200);
    assert_eq!(warm_body, cold_body);
    first.shutdown();

    // Kill the compute tier, keep the store: a fresh server must serve
    // the committed response warm on its very first request.
    let second = start(server_config()).expect("rebind");
    let cold_before = counter("server.cold_misses");
    let warm_before = counter("server.warm_hits");
    let (status, replayed) = request(second.addr(), "POST", "/v1/scan", body_json);
    assert_eq!(status, 200);
    assert_eq!(replayed, cold_body, "restart must lose no committed blob");
    assert_eq!(counter("server.cold_misses"), cold_before, "no recompute");
    assert_eq!(counter("server.warm_hits"), warm_before + 1);
    second.shutdown();
    drop(store);
}

#[test]
fn thundering_herd_on_one_cold_key_computes_once() {
    let _guard = lock();
    let store = ScratchStore::open("herd");
    let server = start(server_config()).expect("bind");
    let addr = server.addr();
    // A deliberately chunky compute so the herd arrives while the leader
    // is still working.
    let body_json = r#"{"tool":"pentest","units":800,"seed":4242}"#;

    let cold_before = counter("server.cold_misses");
    let coalesced_before = counter("server.coalesced");
    let warm_before = counter("server.warm_hits");
    let rescanned_before = counter("scan.units.rescanned");

    const HERD: usize = 8;
    let barrier = Barrier::new(HERD);
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..HERD)
            .map(|_| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let (status, body) = request(addr, "POST", "/v1/scan", body_json);
                    assert_eq!(status, 200);
                    body
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("herd thread"))
            .collect()
    });

    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "every herd member gets the same bytes");
    }
    assert_eq!(
        counter("server.cold_misses"),
        cold_before + 1,
        "exactly one computation"
    );
    assert_eq!(
        counter("scan.units.rescanned"),
        rescanned_before + 800,
        "the streamed scan itself ran once (800 units, no repeats)"
    );
    let followers = (counter("server.coalesced") - coalesced_before)
        + (counter("server.warm_hits") - warm_before);
    assert_eq!(followers, (HERD - 1) as u64, "everyone else reused it");
    assert!(
        counter("server.coalesced") > coalesced_before,
        "the herd must exercise the in-flight path, not just the disk tier"
    );

    server.shutdown();
    drop(store);
}

#[test]
fn saturated_server_sheds_cold_but_serves_warm() {
    let _guard = lock();
    let store = ScratchStore::open("shed");
    // Zero compute slots: every cold request must be load-shed.
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            max_inflight: 0,
            ..ServiceConfig::default()
        },
    })
    .expect("bind");
    let addr = server.addr();
    let body_json = r#"{"tool":"taint","units":15,"seed":77}"#;

    let shed_before = counter("server.shed");
    let (status, body) = request(addr, "POST", "/v1/scan", body_json);
    assert_eq!(status, 429);
    assert!(body.contains("capacity"), "{body}");
    assert_eq!(counter("server.shed"), shed_before + 1);

    // Commit the blob out of band: the same request is now warm traffic,
    // which is never shed.
    let req = ApiRequest::parse("/v1/scan", body_json).expect("parse");
    vdbench_core::raw_blob_put(req.cache_kind(), req.cache_key(), "{\"warm\":true}");
    let (status, body) = request(addr, "POST", "/v1/scan", body_json);
    assert_eq!(status, 200);
    assert_eq!(body, "{\"warm\":true}");

    server.shutdown();
    drop(store);
}

#[test]
fn client_budgets_deny_with_detector_style_accounting() {
    let _guard = lock();
    let store = ScratchStore::open("budget");
    // Default policy prices a 20-unit cold compute at 4 × 20 = 80 steps;
    // budget 81 leaves room for exactly one warm hit afterwards.
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            client_budget: Some(81),
            policy: ScanPolicy::default(),
            ..ServiceConfig::default()
        },
    })
    .expect("bind");
    let addr = server.addr();
    let alice = r#"{"tool":"taint","units":20,"seed":9,"client":"alice"}"#;

    let (status, _) = request(addr, "POST", "/v1/scan", alice);
    assert_eq!(status, 200, "cold compute fits the budget");
    let (status, _) = request(addr, "POST", "/v1/scan", alice);
    assert_eq!(status, 200, "one warm hit fits too");
    let denied_before = counter("server.budget_denied");
    let (status, body) = request(addr, "POST", "/v1/scan", alice);
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("over request budget"), "{body}");
    assert!(body.contains("82 steps spent of 81 budgeted"), "{body}");
    assert_eq!(counter("server.budget_denied"), denied_before + 1);

    // Ledgers are per client: bob still gets the (warm) answer.
    let bob = r#"{"tool":"taint","units":20,"seed":9,"client":"bob"}"#;
    let (status, _) = request(addr, "POST", "/v1/scan", bob);
    assert_eq!(status, 200);

    // A compute the client can never afford is denied up front without
    // occupying a slot.
    let greedy = r#"{"tool":"taint","units":200,"seed":10,"client":"greedy"}"#;
    let (status, body) = request(addr, "POST", "/v1/scan", greedy);
    assert_eq!(status, 429);
    assert!(body.contains("800 steps"), "{body}");

    server.shutdown();
    drop(store);
}
