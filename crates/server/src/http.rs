//! The minimal HTTP/1.1 subset the campaign service speaks.
//!
//! Deliberately tiny — no network dependencies exist in this workspace,
//! and the service needs only: request line + headers + `Content-Length`
//! bodies in, status line + fixed headers + body out, with keep-alive.
//! Everything else (chunked encoding, continuations, multi-line headers,
//! expect/100) is rejected as a parse error the caller answers with 400.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on request body size: campaign requests are small JSON
/// documents, so anything bigger is a client error (or abuse), not load.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// Upper bound on header count per request.
const MAX_HEADERS: usize = 64;

/// Upper bound on one request or header line, terminator included: a
/// client that sends bytes without a newline gets a 400, not an ever
/// growing buffer.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Longest one request may take to arrive, counted from the call that
/// reads it: a client that drips bytes slower than this gets a 400
/// instead of pinning its connection thread.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// One parsed request off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, uppercased by the client ("GET", "POST").
    pub method: String,
    /// Request target as sent (no query parsing; the API is body-based).
    pub path: String,
    /// Decoded request body (empty when no `Content-Length`).
    pub body: String,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, overridden by `Connection: close`).
    pub keep_alive: bool,
}

/// One response to put on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A `200 OK` response.
    pub fn ok(content_type: &'static str, body: impl Into<String>) -> Self {
        HttpResponse {
            status: 200,
            content_type,
            body: body.into(),
        }
    }

    /// An error response with a one-field JSON body.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\":");
        body.push_str(&serde_json::to_string(message).unwrap_or_else(|_| "\"error\"".into()));
        body.push('}');
        HttpResponse {
            status,
            content_type: "application/json",
            body,
        }
    }
}

/// Reason phrase for the status codes the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Whether an I/O error is a read-timeout on a socket with a deadline.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Called after a read-timeout mid-request: `Ok` to keep waiting for
/// more bytes, otherwise the error that ends the request.
type Patience<'a> = &'a dyn Fn() -> io::Result<()>;

/// Reads one line of at most [`MAX_LINE_BYTES`] into `line` and returns
/// its length; a longer line is malformed. Read-timeouts retry once any
/// byte of the request has arrived (a request split across TCP segments
/// must not be dropped by an idle-poll deadline), for as long as
/// `patience` lasts. With `propagate_idle`, a timeout on a *completely
/// idle* line — `line` still empty — propagates so the caller can poll
/// for shutdown.
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    propagate_idle: bool,
    patience: Patience<'_>,
) -> io::Result<usize> {
    loop {
        let budget = MAX_LINE_BYTES.saturating_sub(line.len()) as u64;
        match reader.by_ref().take(budget).read_line(line) {
            Ok(_) if line.len() >= MAX_LINE_BYTES && !line.ends_with('\n') => {
                return Err(malformed("line too long"))
            }
            Ok(_) => return Ok(line.len()),
            Err(e) if is_timeout(&e) && !(propagate_idle && line.is_empty()) => patience()?,
            Err(e) => return Err(e),
        }
    }
}

/// Reads one request. `Ok(None)` means the peer closed the connection
/// cleanly between requests; `Err(InvalidData)` is a malformed request
/// the caller should answer with 400 and close — including one still
/// incomplete after [`REQUEST_DEADLINE`] or once `stop` is set; idle
/// read-timeouts (no byte of a next request yet) and other errors
/// propagate untouched.
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    stop: &AtomicBool,
) -> io::Result<Option<HttpRequest>> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let patience = &|| {
        if stop.load(Ordering::SeqCst) {
            Err(malformed("server is shutting down"))
        } else if Instant::now() >= deadline {
            Err(malformed("request deadline exceeded"))
        } else {
            Ok(())
        }
    };
    let mut line = String::new();
    if read_line_bounded(reader, &mut line, true, patience)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err(malformed("bad request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(malformed("unsupported HTTP version"));
    }
    let mut content_length = 0usize;
    let mut keep_alive = true;
    for _ in 0..MAX_HEADERS {
        let mut header = String::new();
        if read_line_bounded(reader, &mut header, false, patience)? == 0 {
            return Err(malformed("connection closed mid-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            let body = read_body(reader, content_length, patience)?;
            return Ok(Some(HttpRequest {
                method,
                path,
                body,
                keep_alive,
            }));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(malformed("malformed header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| malformed("bad content-length"))?;
            if content_length > MAX_BODY_BYTES {
                return Err(malformed("body too large"));
            }
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            keep_alive = false;
        }
    }
    Err(malformed("too many headers"))
}

fn read_body(
    reader: &mut BufReader<TcpStream>,
    len: usize,
    patience: Patience<'_>,
) -> io::Result<String> {
    let mut buf = vec![0u8; len];
    let mut filled = 0;
    // Manual fill loop: `read_exact` cannot resume after a read-timeout
    // mid-body, and the body may trickle in across segments.
    while filled < len {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(malformed("connection closed mid-body")),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => patience()?,
            Err(e) => return Err(e),
        }
    }
    String::from_utf8(buf).map_err(|_| malformed("body is not UTF-8"))
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Writes one response (with `Connection: keep-alive`/`close` as asked)
/// and flushes. Head and body go out in a **single** write: a split
/// write puts the body in a second small TCP segment, and on a
/// keep-alive connection Nagle + delayed-ACK turns that into a ~40ms
/// stall per request.
pub fn write_response(
    stream: &mut TcpStream,
    response: &HttpResponse,
    keep_alive: bool,
) -> io::Result<()> {
    let mut wire = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    wire.push_str(&response.body);
    stream.write_all(wire.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_are_json_escaped() {
        let r = HttpResponse::error(400, "quote \" and\nnewline");
        assert_eq!(r.status, 400);
        assert_eq!(r.body, "{\"error\":\"quote \\\" and\\nnewline\"}");
    }

    #[test]
    fn reason_phrases_cover_emitted_codes() {
        for code in [200u16, 400, 404, 405, 429, 500] {
            assert_ne!(reason(code), "Unknown", "{code}");
        }
        assert_eq!(reason(418), "Unknown");
    }
}
