//! Minimal HTTP/1.1 message layer over `std::net` — just enough protocol
//! for the cache server and its clients, hand rolled because the
//! workspace's allowed dependency set contains no HTTP crate (the same
//! constraint that produced the hand-rolled JSON layer in `spp-core`).
//!
//! Scope (deliberate): persistent connections with `Connection`
//! semantics per RFC 9112 (HTTP/1.1 defaults to keep-alive, HTTP/1.0 to
//! close), bodies framed by `Content-Length` only (no chunked encoding),
//! ASCII request targets, and hard limits on header and body sizes so a
//! misbehaving peer cannot balloon memory. Everything outside that scope
//! is a structured [`HttpError`] that the server maps to a 4xx response
//! instead of a hang or a panic.
//!
//! ## Connection reuse
//!
//! The server side serves many requests per accepted socket (the loops
//! live in `server.rs` and `event.rs`); this module's job is to keep
//! the *framing* honest across requests: [`read_request`] reads through
//! the connection's long-lived [`RecvBuf`] — an owned buffer that
//! belongs to the connection, not to any one read call, so read-ahead
//! bytes of the next pipelined request survive even when the connection
//! is parked in the event loop and resumed on a different worker
//! thread. It distinguishes a clean close at a request boundary
//! ([`HttpError::Closed`]) from an idle boundary timeout
//! ([`HttpError::Idle`]) from a slow-trickled message that blew its
//! deadline ([`HttpError::Deadline`], the slowloris guard) from a
//! genuinely broken or malformed exchange.
//!
//! The client side keeps one open [`Conn`] per `(thread, authority)` in
//! a thread-local pool ([`pooled_roundtrip`]), reconnecting
//! transparently when a pooled socket has gone stale — the server may
//! have closed it for idleness or budget exhaustion between our
//! requests, which is an expected race, not an error. Only a *reused*
//! socket earns that silent reconnect; a failure on a fresh connection
//! propagates, so a dead server still fails loudly.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest accepted request line or single header line, in bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most headers accepted per message.
pub const MAX_HEADERS: usize = 64;
/// Mid-message socket timeout: a peer that stalls *inside* a request or
/// response frees its worker. Idle time *between* requests is governed
/// separately by the server's idle timeout.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Protocol-level failures while reading a message. Each maps to one
/// well-defined HTTP status so handlers never guess.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line / header syntax → 400.
    Bad(String),
    /// Body advertised or sent beyond the server's limit → 413.
    TooLarge { limit: usize },
    /// PUT/POST without a `Content-Length` → 411.
    LengthRequired,
    /// Socket failure or peer disconnect mid-message (no response owed).
    Io(String),
    /// Peer closed cleanly at a message boundary — the normal end of a
    /// keep-alive conversation, not a failure.
    Closed,
    /// Zero bytes arrived within the read timeout at a message boundary —
    /// the connection is idle, not broken. The server uses this to slice
    /// its idle wait so shutdown stays prompt; the event-loop worker uses
    /// it as the signal to park the connection back into epoll.
    Idle,
    /// The message started but did not finish within the caller's
    /// whole-message budget — a byte-at-a-time trickler (slowloris)
    /// trying to pin a worker. Maps to 408.
    Deadline,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Bad(msg) => write!(f, "bad request: {msg}"),
            HttpError::TooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte limit")
            }
            HttpError::LengthRequired => write!(f, "Content-Length header required"),
            HttpError::Io(msg) => write!(f, "connection error: {msg}"),
            HttpError::Closed => write!(f, "connection closed by peer"),
            HttpError::Idle => write!(f, "connection idle past read timeout"),
            HttpError::Deadline => write!(f, "message not completed within its deadline"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request: method, split target, raw body, and whether the
/// client asked this to be the connection's last exchange.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    /// Target path without the query string, e.g. `/cache/abc`.
    pub path: String,
    /// Raw query string after `?` (empty when absent).
    pub query: String,
    pub body: String,
    /// Raw `Authorization` header value, when the client sent one. The
    /// server's auth gate parses the `Bearer <token>` scheme out of it;
    /// this layer only transports it.
    pub authorization: Option<String>,
    /// `true` when the connection must close after this exchange:
    /// `Connection: close`, or HTTP/1.0 without `Connection: keep-alive`.
    pub close: bool,
}

impl Request {
    /// Decode the query string as `key=value` pairs in order. No
    /// percent-decoding: every value this API accepts (registry names,
    /// numbers, booleans) is plain ASCII, and a stray `%` simply fails
    /// the typed parse downstream with a clear message.
    pub fn query_pairs(&self) -> Vec<(&str, &str)> {
        self.query
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
            .collect()
    }
}

fn io_error(e: std::io::Error) -> HttpError {
    HttpError::Io(e.to_string())
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Bytes read per socket refill of a [`RecvBuf`].
const RECV_CHUNK: usize = 8 * 1024;

/// A connection's owned receive buffer: read-ahead bytes (the start of a
/// pipelined next request, a half-delivered message) live here, not in a
/// stack-local reader, so they survive the connection being parked in
/// the event loop and resumed on a different worker thread. One
/// `RecvBuf` per connection, for the connection's whole life.
#[derive(Debug, Default)]
pub struct RecvBuf {
    data: Vec<u8>,
    start: usize,
    end: usize,
}

impl RecvBuf {
    pub fn new() -> RecvBuf {
        RecvBuf::default()
    }

    /// Whether undelivered bytes are buffered — an event-loop connection
    /// parked with buffered bytes must be requeued immediately (epoll
    /// only sees kernel-side readiness, never userspace buffers).
    pub fn has_buffered(&self) -> bool {
        self.start < self.end
    }

    fn pop(&mut self) -> Option<u8> {
        if self.start < self.end {
            let b = self.data[self.start];
            self.start += 1;
            Some(b)
        } else {
            None
        }
    }

    /// Move up to `out.len()` buffered bytes into `out`.
    fn take(&mut self, out: &mut [u8]) -> usize {
        let n = out.len().min(self.end - self.start);
        out[..n].copy_from_slice(&self.data[self.start..self.start + n]);
        self.start += n;
        n
    }

    /// Refill from the socket (only legal when empty). `Ok(0)` is EOF.
    fn fill(&mut self, stream: &TcpStream) -> std::io::Result<usize> {
        debug_assert!(!self.has_buffered());
        if self.data.is_empty() {
            self.data = vec![0u8; RECV_CHUNK];
        }
        self.start = 0;
        self.end = 0;
        let n = (&mut &*stream).read(&mut self.data)?;
        self.end = n;
        Ok(n)
    }
}

/// One in-flight message read: tracks whether the message has started
/// (`live`), arms the whole-message deadline on the first byte, and —
/// for event-mode boundary probes — flips the socket from non-blocking
/// back to blocking once a message is actually arriving, so the rest of
/// the parse reads like the blocking path.
struct MsgIn<'a> {
    stream: &'a TcpStream,
    buf: &'a mut RecvBuf,
    /// Socket is currently non-blocking (an event-loop boundary probe);
    /// cleared when the first byte of the message arrives.
    nonblocking: bool,
    /// Whole-message time budget, armed at the first byte.
    budget: Option<Duration>,
    deadline: Option<Instant>,
    live: bool,
}

impl<'a> MsgIn<'a> {
    fn new(
        stream: &'a TcpStream,
        buf: &'a mut RecvBuf,
        budget: Option<Duration>,
        nonblocking: bool,
    ) -> MsgIn<'a> {
        MsgIn {
            stream,
            buf,
            nonblocking,
            budget,
            deadline: None,
            live: false,
        }
    }

    /// The first byte of the message has arrived: the conversation is
    /// live, stalls are now errors, and the deadline clock starts.
    fn mark_live(&mut self) -> Result<(), HttpError> {
        if self.live {
            return Ok(());
        }
        self.live = true;
        if self.nonblocking {
            self.stream.set_nonblocking(false).map_err(io_error)?;
            self.nonblocking = false;
        }
        if let Some(budget) = self.budget {
            self.deadline = Some(Instant::now() + budget);
        }
        Ok(())
    }

    /// Bound the next blocking read by [`IO_TIMEOUT`] and whatever is
    /// left of the message deadline.
    fn arm_read_timeout(&mut self) -> Result<(), HttpError> {
        if !self.live {
            // At a boundary the caller owns the timeout: the server's
            // sliced idle wait, the client's IO_TIMEOUT, or a
            // non-blocking probe that returns instantly.
            return Ok(());
        }
        let mut timeout = IO_TIMEOUT;
        if let Some(deadline) = self.deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(HttpError::Deadline);
            }
            timeout = timeout.min(remaining);
        }
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(io_error)?;
        Ok(())
    }

    fn map_read_timeout(&self) -> HttpError {
        if !self.live {
            return HttpError::Idle;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return HttpError::Deadline;
        }
        HttpError::Io("read timed out mid-message".into())
    }

    /// Next message byte, refilling the buffer from the socket as
    /// needed. `Ok(None)` is EOF.
    fn next_byte(&mut self) -> Result<Option<u8>, HttpError> {
        loop {
            if let Some(b) = self.buf.pop() {
                self.mark_live()?;
                return Ok(Some(b));
            }
            self.arm_read_timeout()?;
            match self.buf.fill(self.stream) {
                Ok(0) => return Ok(None),
                Ok(_) => {}
                Err(e) if is_timeout(&e) => return Err(self.map_read_timeout()),
                Err(e) => return Err(io_error(e)),
            }
        }
    }

    /// Bulk read for bodies: buffered bytes first, then straight from
    /// the socket (no intermediate copy). `Ok(0)` is EOF.
    fn read_into(&mut self, out: &mut [u8]) -> Result<usize, HttpError> {
        let n = self.buf.take(out);
        if n > 0 {
            self.mark_live()?;
            return Ok(n);
        }
        self.arm_read_timeout()?;
        match (&mut &*self.stream).read(out) {
            Ok(0) => Ok(0),
            Ok(n) => {
                self.mark_live()?;
                Ok(n)
            }
            Err(e) if is_timeout(&e) => Err(self.map_read_timeout()),
            Err(e) => Err(io_error(e)),
        }
    }
}

/// Read one CRLF (or bare-LF) terminated line, bounded by
/// [`MAX_HEADER_LINE`]. With `at_boundary`, zero bytes before the first
/// byte of the line is reported as [`HttpError::Closed`] (EOF) or
/// [`HttpError::Idle`] (timeout / nothing readable) — a clean end of a
/// persistent conversation. Once any byte has arrived, EOF or timeout is
/// a truncated message and an error.
fn read_line(msg: &mut MsgIn<'_>, at_boundary: bool) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        match msg.next_byte()? {
            Some(b'\n') => break,
            Some(b) => {
                line.push(b);
                if line.len() > MAX_HEADER_LINE {
                    return Err(HttpError::Bad("header line too long".into()));
                }
            }
            None => {
                if at_boundary && line.is_empty() {
                    return Err(HttpError::Closed);
                }
                return Err(HttpError::Io("connection closed mid-line".into()));
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::Bad("non-UTF-8 header bytes".into()))
}

/// Read exactly `n` body bytes through `msg` into a UTF-8 string.
fn read_body(msg: &mut MsgIn<'_>, n: usize) -> Result<String, HttpError> {
    let mut raw = vec![0u8; n];
    let mut got = 0;
    while got < n {
        match msg.read_into(&mut raw[got..])? {
            0 => return Err(HttpError::Io("connection closed mid-body".into())),
            k => got += k,
        }
    }
    String::from_utf8(raw).map_err(|_| HttpError::Bad("non-UTF-8 body".into()))
}

/// Whether a message with `version` and an optional `Connection` header
/// value ends the connection after this exchange. HTTP/1.1 defaults to
/// keep-alive, HTTP/1.0 to close; an explicit `close` token always wins.
fn connection_closes(version: &str, connection: Option<&str>) -> bool {
    let has = |token: &str| {
        connection.is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
    };
    if has("close") {
        return true;
    }
    if version == "HTTP/1.0" {
        return !has("keep-alive");
    }
    false
}

/// Read and parse one request from a connection's long-lived
/// [`RecvBuf`], enforcing `max_body`.
///
/// At the message boundary, the caller owns the wait: whatever read
/// timeout is set governs the idle wait for the request line
/// ([`HttpError::Idle`] on expiry), and with `nonblocking` (an
/// event-loop boundary probe) a socket with nothing readable returns
/// `Idle` immediately instead of blocking — the worker's signal to park
/// the connection back into epoll. Once the first byte arrives the
/// conversation is live: the socket is switched back to blocking (if it
/// wasn't), every read is bounded by [`IO_TIMEOUT`], and with `budget`
/// set the *whole message* — request line, headers, and body — must
/// complete within it or the read fails with [`HttpError::Deadline`]
/// (the slowloris guard: a byte-at-a-time client cannot pin a worker
/// past the budget, because trickling does not reset the clock).
pub fn read_request(
    stream: &TcpStream,
    buf: &mut RecvBuf,
    max_body: usize,
    budget: Option<Duration>,
    nonblocking: bool,
) -> Result<Request, HttpError> {
    let mut msg = MsgIn::new(stream, buf, budget, nonblocking);
    let request_line = read_line(&mut msg, true)?;

    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => {
            return Err(HttpError::Bad(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Bad(format!("unsupported version {version:?}")));
    }

    let mut content_length: Option<usize> = None;
    let mut connection: Option<String> = None;
    let mut authorization: Option<String> = None;
    let mut saw_header_end = false;
    for _ in 0..=MAX_HEADERS {
        let line = read_line(&mut msg, false)?;
        if line.is_empty() {
            saw_header_end = true;
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Bad(format!("malformed header {line:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.3: conflicting Content-Length values are a
            // request-smuggling vector — a front proxy and this server
            // picking different framings would let one request hide
            // inside another's body. A repeated header is rejected
            // outright (even if the values agree: a legitimate client
            // has no reason to send it twice); a comma-separated list
            // is accepted only when every member is the same value.
            if content_length.is_some() {
                return Err(HttpError::Bad("duplicate Content-Length header".into()));
            }
            content_length = Some(parse_content_length(value)?);
        } else if name.eq_ignore_ascii_case("connection") {
            connection = Some(value.trim().to_string());
        } else if name.eq_ignore_ascii_case("authorization") {
            authorization = Some(value.trim().to_string());
        }
        // Every other header (Host, User-Agent, Accept, …) is irrelevant
        // to this API and skipped.
    }
    if !saw_header_end {
        // Exiting by loop exhaustion would leave unread header bytes that
        // a Content-Length body read would then misinterpret — reject.
        return Err(HttpError::Bad(format!("more than {MAX_HEADERS} headers")));
    }

    let needs_body = matches!(method, "PUT" | "POST");
    let body = match content_length {
        None if needs_body => return Err(HttpError::LengthRequired),
        None | Some(0) => String::new(),
        Some(n) if n > max_body => return Err(HttpError::TooLarge { limit: max_body }),
        Some(n) => read_body(&mut msg, n)?,
    };

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        body,
        authorization,
        close: connection_closes(version, connection.as_deref()),
    })
}

/// Parse one `Content-Length` header value. A comma-separated list is
/// the header-recombination form some intermediaries produce from a
/// repeated field; RFC 9112 §6.3 permits recovering from it only when
/// every member is the same valid value — anything else is rejected so
/// two hops can never disagree on where a body ends.
fn parse_content_length(value: &str) -> Result<usize, HttpError> {
    let bad = || HttpError::Bad(format!("bad Content-Length {value:?}"));
    let mut parsed: Option<usize> = None;
    for member in value.split(',') {
        let n: usize = member.trim().parse().map_err(|_| bad())?;
        match parsed {
            None => parsed = Some(n),
            Some(first) if first == n => {}
            Some(_) => {
                return Err(HttpError::Bad(format!(
                    "conflicting Content-Length values {value:?}"
                )))
            }
        }
    }
    parsed.ok_or_else(bad)
}

/// Canonical reason phrase for the status codes this API emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one complete `Content-Length`-framed response. With `close`
/// the response announces `Connection: close` and the caller is expected
/// to drop the socket; otherwise the connection stays open for the next
/// request (HTTP/1.1 default — no header needed, but an explicit
/// `keep-alive` is written so 1.0-era intermediaries behave).
pub fn write_response_conn(
    stream: &TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
) -> Result<(), HttpError> {
    write_response_headers(stream, status, content_type, body, close, &[])
}

/// [`write_response_conn`] with additional response headers — the shape
/// the server uses for statuses that carry mandatory metadata (401's
/// `WWW-Authenticate: Bearer`). Header names and values are written
/// verbatim; callers pass only fixed ASCII strings.
pub fn write_response_headers(
    stream: &TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
    extra: &[(&str, &str)],
) -> Result<(), HttpError> {
    let mut stream = stream;
    let connection = if close { "close" } else { "keep-alive" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).map_err(io_error)?;
    stream.write_all(body.as_bytes()).map_err(io_error)?;
    stream.flush().map_err(io_error)
}

/// [`write_response_conn`] with `Connection: close` — the one-shot shape
/// kept for single-response stubs (tests) and terminal error replies.
pub fn write_response(
    stream: &TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> Result<(), HttpError> {
    write_response_conn(stream, status, content_type, body, true)
}

/// A parsed response on the client side.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// Whether the server ends the connection after this response; a
    /// pooled connection seeing this must not be reused.
    pub close: bool,
}

/// Read one response from a connection's [`RecvBuf`]. Bodies are framed
/// by `Content-Length`; a response without one is legal only on a
/// closing connection (read-until-EOF), which this layer's own server
/// never produces but foreign/stub servers may.
pub fn read_response(stream: &TcpStream, buf: &mut RecvBuf) -> Result<Response, HttpError> {
    let mut msg = MsgIn::new(stream, buf, None, false);
    let status_line = read_line(&mut msg, true)?;
    let mut head = status_line.split(' ');
    let version = head.next().unwrap_or("");
    let status: u16 = head
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Bad(format!("malformed status line {status_line:?}")))?;
    let mut content_length: Option<usize> = None;
    let mut connection: Option<String> = None;
    for _ in 0..=MAX_HEADERS {
        let line = read_line(&mut msg, false)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                connection = Some(value.trim().to_string());
            }
        }
    }
    let mut close = connection_closes(version, connection.as_deref());
    let body = match content_length {
        Some(n) => read_body(&mut msg, n)?,
        // No Content-Length: the only sound framing left is till-EOF,
        // after which the connection is necessarily done.
        None => {
            close = true;
            let mut raw = Vec::new();
            loop {
                let mut chunk = [0u8; 4096];
                match msg.read_into(&mut chunk)? {
                    0 => break,
                    k => raw.extend_from_slice(&chunk[..k]),
                }
            }
            String::from_utf8(raw).map_err(|_| HttpError::Bad("non-UTF-8 body".into()))?
        }
    };
    Ok(Response {
        status,
        body,
        close,
    })
}

fn write_request(
    stream: &TcpStream,
    authority: &str,
    method: &str,
    path_and_query: &str,
    body: &str,
    close: bool,
    token: Option<&str>,
) -> Result<(), HttpError> {
    let mut w = stream;
    let connection = if close { "Connection: close\r\n" } else { "" };
    let auth = match token {
        Some(t) => format!("Authorization: Bearer {t}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "{method} {path_and_query} HTTP/1.1\r\nHost: {authority}\r\nContent-Length: {}\r\n{auth}{connection}\r\n",
        body.len()
    );
    w.write_all(head.as_bytes()).map_err(io_error)?;
    w.write_all(body.as_bytes()).map_err(io_error)?;
    w.flush().map_err(io_error)
}

/// Parse a base URL of the form `http://host:port` into its authority.
/// A trailing slash is tolerated; any path prefix, scheme other than
/// `http`, or missing port is an error — explicit beats guessed for
/// clients that would otherwise silently degrade on a mismatch. Shared
/// by every client of this crate (`HttpCache`, `RemoteLease`).
pub fn parse_base_url(url: &str) -> Result<String, String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or("URL must start with http://")?;
    let authority = rest.strip_suffix('/').unwrap_or(rest);
    if authority.is_empty() || authority.contains('/') {
        return Err("URL must be http://host:port with no path".into());
    }
    let (_, port) = authority
        .rsplit_once(':')
        .ok_or("URL must name a port (http://host:port)")?;
    if port.parse::<u16>().is_err() {
        return Err("URL port is not a number".into());
    }
    Ok(authority.to_string())
}

/// One persistent client connection to an authority. Owns the socket;
/// [`Conn::call`] runs a full request/response exchange on it. Any error
/// from `call` means the connection is no longer usable and must be
/// dropped — response framing cannot be resynchronized after a partial
/// exchange.
pub struct Conn {
    authority: String,
    stream: TcpStream,
    buf: RecvBuf,
    requests: u64,
}

impl Conn {
    pub fn connect(authority: &str) -> Result<Conn, HttpError> {
        let stream = TcpStream::connect(authority).map_err(io_error)?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(io_error)?;
        stream
            .set_write_timeout(Some(IO_TIMEOUT))
            .map_err(io_error)?;
        // Small request/response exchanges: waiting for coalescing only
        // adds latency. Best effort — some test doubles don't care.
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            authority: authority.to_string(),
            stream,
            buf: RecvBuf::new(),
            requests: 0,
        })
    }

    pub fn authority(&self) -> &str {
        &self.authority
    }

    /// Requests completed on this connection.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// One request/response exchange, keep-alive framing. The
    /// connection-long [`RecvBuf`] keeps framing honest even if a
    /// server were to send ahead of our next request.
    pub fn call(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: &str,
    ) -> Result<Response, HttpError> {
        self.call_auth(method, path_and_query, body, None)
    }

    /// [`Conn::call`] with a bearer token attached as
    /// `Authorization: Bearer <token>`.
    pub fn call_auth(
        &mut self,
        method: &str,
        path_and_query: &str,
        body: &str,
        token: Option<&str>,
    ) -> Result<Response, HttpError> {
        write_request(
            &self.stream,
            &self.authority,
            method,
            path_and_query,
            body,
            false,
            token,
        )?;
        let response = read_response(&self.stream, &mut self.buf)?;
        self.requests += 1;
        Ok(response)
    }

    /// Surrender the raw socket (tests observe the server's close
    /// behavior — EOF vs reset — directly on it).
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }
}

thread_local! {
    /// One pooled connection per authority per thread. Entries are taken
    /// out for the duration of a call (never borrowed across blocking
    /// I/O) and returned only when the response allows reuse.
    static POOL: RefCell<HashMap<String, Conn>> = RefCell::new(HashMap::new());
}

fn pool_take(authority: &str) -> Option<Conn> {
    POOL.with(|p| p.borrow_mut().remove(authority))
}

fn pool_put(conn: Conn) {
    POOL.with(|p| {
        p.borrow_mut().insert(conn.authority.clone(), conn);
    });
}

/// Drop this thread's pooled connection to `authority`, if any. Tests
/// use this to force a fresh connection; production code never needs it.
pub fn pool_evict(authority: &str) {
    POOL.with(|p| {
        p.borrow_mut().remove(authority);
    });
}

/// Perform one request over this thread's pooled connection to
/// `authority`, connecting (and pooling) on first use.
///
/// A failure on a *reused* socket is retried once on a fresh connection
/// without surfacing: the server closing a pooled connection between our
/// requests (idle timeout, request budget) is an expected race. A
/// failure on a fresh connection propagates — that is a real error.
/// Note the retry resends the request, so a reused socket that died
/// after the server acted but before we read the response can execute
/// the request twice; every endpoint behind this client tolerates that
/// (cache puts are idempotent, an orphaned work lease is requeued by the
/// dispatcher — see `work_client.rs`).
pub fn pooled_roundtrip(
    authority: &str,
    method: &str,
    path_and_query: &str,
    body: &str,
) -> Result<Response, HttpError> {
    pooled_roundtrip_auth(authority, method, path_and_query, body, None)
}

/// [`pooled_roundtrip`] with a bearer token attached to the request.
pub fn pooled_roundtrip_auth(
    authority: &str,
    method: &str,
    path_and_query: &str,
    body: &str,
    token: Option<&str>,
) -> Result<Response, HttpError> {
    if let Some(mut conn) = pool_take(authority) {
        if let Ok(response) = conn.call_auth(method, path_and_query, body, token) {
            if !response.close {
                pool_put(conn);
            }
            return Ok(response);
        }
        // Stale pooled socket; fall through to a fresh connection.
    }
    let mut conn = Conn::connect(authority)?;
    let response = conn.call_auth(method, path_and_query, body, token)?;
    if !response.close {
        pool_put(conn);
    }
    Ok(response)
}

/// Delay between the two attempts of [`roundtrip_retry_auth`].
pub const RETRY_DELAY: Duration = Duration::from_millis(50);

/// [`pooled_roundtrip_auth`] with one bounded retry: any failure of the
/// first attempt — refused/reset connection, timeout, or a response cut
/// off mid-frame — sleeps [`RETRY_DELAY`] and tries once more before the
/// error stands. One retry rides out the transient blips of a busy or
/// restarting server; keeping it *bounded* keeps a hard failure loud
/// (an unreachable cache degrades to cold-cache misses, an unreachable
/// dispatcher errors) instead of becoming an unbounded hang. `token`,
/// when set, is sent as a bearer token.
pub fn roundtrip_retry_auth(
    authority: &str,
    method: &str,
    path_and_query: &str,
    body: &str,
    token: Option<&str>,
) -> Result<Response, HttpError> {
    spp_par::retry(2, RETRY_DELAY, |_| {
        pooled_roundtrip_auth(authority, method, path_and_query, body, token)
    })
}

/// Perform one blocking request against `authority` (a `host:port`
/// string) on its own connection, `Connection: close`. The pooled path
/// ([`pooled_roundtrip`]) is the production client; this one-shot shape
/// remains for tests and for deliberately unpooled probes (e.g. the
/// bench harness's close-per-request mode).
pub fn roundtrip(
    authority: &str,
    method: &str,
    path_and_query: &str,
    body: &str,
) -> Result<Response, HttpError> {
    roundtrip_auth(authority, method, path_and_query, body, None)
}

/// [`roundtrip`] with a bearer token attached to the request.
pub fn roundtrip_auth(
    authority: &str,
    method: &str,
    path_and_query: &str,
    body: &str,
    token: Option<&str>,
) -> Result<Response, HttpError> {
    let stream = TcpStream::connect(authority).map_err(io_error)?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(io_error)?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(io_error)?;
    write_request(
        &stream,
        authority,
        method,
        path_and_query,
        body,
        true,
        token,
    )?;
    let mut buf = RecvBuf::new();
    read_response(&stream, &mut buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed raw bytes to `read_request` through a real socket pair.
    fn parse_raw(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // Drop closes the socket so a body read sees EOF, not a hang.
        });
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        let mut buf = RecvBuf::new();
        let parsed = read_request(&stream, &mut buf, 1 << 20, None, false);
        writer.join().unwrap();
        parsed
    }

    #[test]
    fn duplicate_content_length_headers_are_rejected() {
        // Last-wins on a repeated Content-Length is the classic
        // request-smuggling setup; both agreeing and conflicting
        // repeats must die with a 400-class parse error.
        for raw in [
            "POST /solve HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhi",
            "POST /solve HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi",
            "PUT /cache/k HTTP/1.1\r\ncontent-length: 1\r\nCONTENT-LENGTH: 1\r\n\r\nx",
        ] {
            match parse_raw(raw.as_bytes()) {
                Err(HttpError::Bad(msg)) => {
                    assert!(msg.contains("duplicate Content-Length"), "{msg}")
                }
                other => panic!("expected Bad, got {other:?}"),
            }
        }
    }

    #[test]
    fn comma_separated_content_length_accepts_agreement_rejects_conflict() {
        // One header whose value is a recombined list: identical members
        // are the RFC 9112 §6.3 recovery case, anything else is fatal.
        let ok = parse_raw(b"POST /solve HTTP/1.1\r\nContent-Length: 2, 2\r\n\r\nhi").unwrap();
        assert_eq!(ok.body, "hi");
        for raw in [
            "POST /solve HTTP/1.1\r\nContent-Length: 2, 5\r\n\r\nhi",
            "POST /solve HTTP/1.1\r\nContent-Length: 2, x\r\n\r\nhi",
            "POST /solve HTTP/1.1\r\nContent-Length: ,\r\n\r\nhi",
        ] {
            assert!(
                matches!(parse_raw(raw.as_bytes()), Err(HttpError::Bad(_))),
                "{raw:?} should be rejected"
            );
        }
    }

    #[test]
    fn authorization_header_is_captured_verbatim() {
        let r = parse_raw(b"GET /stats HTTP/1.1\r\nAuthorization: Bearer s3cr3t\r\n\r\n").unwrap();
        assert_eq!(r.authorization.as_deref(), Some("Bearer s3cr3t"));
        let r = parse_raw(b"GET /stats HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.authorization, None);
    }

    #[test]
    fn reason_covers_auth_and_unavailable() {
        assert_eq!(reason(401), "Unauthorized");
        assert_eq!(reason(408), "Request Timeout");
        assert_eq!(reason(503), "Service Unavailable");
    }

    #[test]
    fn pipelined_requests_survive_in_the_recv_buf() {
        // Two requests in one write: the first parse must leave the
        // second intact in the connection's RecvBuf, and the second
        // parse must complete without touching the socket again.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\n\r\n")
                .unwrap();
            s
        });
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        let mut buf = RecvBuf::new();
        let first = read_request(&stream, &mut buf, 1 << 20, None, false).unwrap();
        assert_eq!(first.path, "/one");
        assert!(buf.has_buffered(), "second request should be buffered");
        let second = read_request(&stream, &mut buf, 1 << 20, None, false).unwrap();
        assert_eq!(second.path, "/two");
        drop(writer.join().unwrap());
    }

    #[test]
    fn trickled_message_dies_at_its_deadline_not_per_byte() {
        // A byte-at-a-time client: each byte lands within the read
        // timeout, but the whole-message budget still cuts it off —
        // trickling must not reset the clock (the slowloris guard).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            for b in b"GET /slow HTTP/1.1\r\nHost: x\r\n" {
                if s.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(30));
            }
            s
        });
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        let mut buf = RecvBuf::new();
        let started = Instant::now();
        let result = read_request(
            &stream,
            &mut buf,
            1 << 20,
            Some(Duration::from_millis(200)),
            false,
        );
        assert!(
            matches!(result, Err(HttpError::Deadline)),
            "expected Deadline, got {result:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline took {:?}",
            started.elapsed()
        );
        drop(stream); // unblock the writer
        let _ = writer.join();
    }

    #[test]
    fn extra_response_headers_are_emitted() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            write_response_headers(
                &stream,
                401,
                "application/json",
                "{}",
                true,
                &[("WWW-Authenticate", "Bearer")],
            )
            .unwrap();
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        server.join().unwrap();
        assert!(raw.starts_with("HTTP/1.1 401 Unauthorized\r\n"), "{raw}");
        assert!(raw.contains("\r\nWWW-Authenticate: Bearer\r\n"), "{raw}");
        assert!(raw.ends_with("\r\n\r\n{}"), "{raw}");
    }

    #[test]
    fn bearer_token_is_sent_on_the_wire() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
            let mut buf = RecvBuf::new();
            let request = read_request(&stream, &mut buf, 1 << 20, None, false).unwrap();
            write_response(&stream, 200, "text/plain", "ok").unwrap();
            request.authorization
        });
        let response = roundtrip_auth(
            &addr.to_string(),
            "PUT",
            "/cache/k",
            "body",
            Some("tok-123"),
        )
        .unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(server.join().unwrap().as_deref(), Some("Bearer tok-123"));
    }

    #[test]
    fn connection_header_semantics() {
        // HTTP/1.1: keep-alive unless an explicit close token.
        assert!(!connection_closes("HTTP/1.1", None));
        assert!(connection_closes("HTTP/1.1", Some("close")));
        assert!(connection_closes("HTTP/1.1", Some("Close")));
        assert!(connection_closes("HTTP/1.1", Some("keep-alive, close")));
        assert!(!connection_closes("HTTP/1.1", Some("keep-alive")));
        // HTTP/1.0: close unless an explicit keep-alive token.
        assert!(connection_closes("HTTP/1.0", None));
        assert!(!connection_closes("HTTP/1.0", Some("keep-alive")));
        assert!(connection_closes("HTTP/1.0", Some("close")));
    }

    #[test]
    fn base_url_parsing() {
        assert_eq!(
            parse_base_url("http://127.0.0.1:8080").unwrap(),
            "127.0.0.1:8080"
        );
        assert_eq!(
            parse_base_url("http://localhost:80/").unwrap(),
            "localhost:80"
        );
        for bad in [
            "https://host:1",
            "http://host:1/path",
            "http://host",
            "http://host:notaport",
            "host:80",
        ] {
            assert!(parse_base_url(bad).is_err(), "{bad} should be rejected");
        }
    }
}
