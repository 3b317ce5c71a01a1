//! The TCP front of the service: accept loop, connection threads,
//! keep-alive, and orderly shutdown.
//!
//! The listener runs non-blocking so the accept loop can observe the
//! shutdown flag; each accepted connection gets a thread with a short
//! read timeout for the same reason, and a request still arriving gives
//! up once the flag is set (or after [`crate::http::REQUEST_DEADLINE`]),
//! so a slow-drip client cannot hold shutdown hostage. Connection threads
//! are tracked and joined on shutdown, so [`ServerHandle::shutdown`]
//! returning means no request is still executing.

use std::io::{self, BufReader, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::{read_request, write_response, HttpResponse};
use crate::service::{Service, ServiceConfig};

/// How the server is bound and tuned.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port; see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Service tuning (admission control, budgets, step-cost policy).
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7071".to_string(),
            service: ServiceConfig::default(),
        }
    }
}

/// Poll interval of the accept loop and the per-connection read timeout:
/// the latency bound on observing a shutdown request.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (tests) or [`ServerHandle::wait`]
/// (the CLI, which runs until killed).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, waits for in-flight connections to drain, and
    /// joins all server threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Blocks forever serving traffic (the `vdbench serve` foreground
    /// path); only process death stops the server.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds and starts serving; returns once the listener is accepting.
pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let service = Arc::new(Service::new(cfg.service));

    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::spawn(move || {
        accept_loop(&listener, &service, &accept_stop);
    });

    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(listener: &TcpListener, service: &Arc<Service>, stop: &Arc<AtomicBool>) {
    let connections: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = Arc::clone(service);
                let stop = Arc::clone(stop);
                let handle = std::thread::spawn(move || serve_connection(stream, &service, &stop));
                let mut conns = connections.lock().expect("connections lock");
                conns.push(handle);
                // Opportunistically reap finished connections so a
                // long-running server doesn't accumulate dead handles.
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    for handle in connections.into_inner().expect("connections lock") {
        let _ = handle.join();
    }
}

fn serve_connection(stream: TcpStream, service: &Service, stop: &Arc<AtomicBool>) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    // Request/response exchanges are one small segment each way; without
    // nodelay, Nagle + the peer's delayed ACK serializes keep-alive
    // round-trips at ~40ms apiece.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader, stop) {
            Ok(Some(request)) => {
                let response = service.handle(&request);
                let keep_alive = request.keep_alive;
                if write_response(&mut writer, &response, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            // Peer closed cleanly between requests.
            Ok(None) => return,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let response = HttpResponse::error(400, &e.to_string());
                let _ = write_response(&mut writer, &response, false);
                return;
            }
            // Read timeout: idle keep-alive connection; close once the
            // server is shutting down, otherwise keep listening.
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}
