//! A minimal, dependency-free HTTP/1.1 server for observability
//! endpoints.
//!
//! [`HttpServer`] is deliberately tiny: a single-threaded accept loop
//! that parses `GET` requests, hands them to a caller-supplied handler,
//! and writes `Connection: close` responses. It exists to expose
//! `/metrics`, `/healthz` and `/snapshot` from `webcache serve` — a
//! scrape target, not a web framework — so one connection at a time and
//! no keep-alive is the right trade.
//!
//! Shutdown is cooperative: the listener runs non-blocking, and while
//! no connection is pending the accept loop waits on it with `poll(2)`
//! for at most [`POLL_INTERVAL`] (other targets than Linux sleep that
//! long instead), then re-checks a shared [`AtomicBool`]. So a
//! connection is accepted as soon as it arrives, and setting the flag
//! (e.g. from a SIGINT handler) stops the server within one poll
//! interval. Accepted connections get a read/write timeout so a stalled
//! client cannot wedge the loop.
//!
//! ```no_run
//! use std::sync::atomic::AtomicBool;
//! use webcache_obs::http::{HttpResponse, HttpServer};
//!
//! let server = HttpServer::bind("127.0.0.1:9184").unwrap();
//! let shutdown = AtomicBool::new(false);
//! server
//!     .serve(&shutdown, |req| match req.path.as_str() {
//!         "/healthz" => HttpResponse::json("{\"status\": \"ok\"}"),
//!         _ => HttpResponse::not_found(),
//!     })
//!     .unwrap();
//! ```

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How long the accept loop waits for a connection before re-checking
/// the shutdown flag.
pub const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Default per-connection read/write timeout.
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Maximum accepted request head (request line + headers) in bytes.
const MAX_HEAD: usize = 8 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The request method (always `GET` for requests that reach a
    /// handler; other methods are answered `405` by the server).
    pub method: String,
    /// The path component of the request target (before any `?`).
    pub path: String,
    /// The raw query string (after `?`), if present.
    pub query: Option<String>,
}

/// A response the handler hands back to the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A `200 OK` response with the given content type.
    pub fn ok(content_type: &str, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status: 200,
            content_type: content_type.to_owned(),
            body: body.into(),
        }
    }

    /// A `200` plain-text response (the Prometheus exposition content
    /// type, which is plain text with a version parameter).
    pub fn text(body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse::ok("text/plain; version=0.0.4; charset=utf-8", body)
    }

    /// A `200` JSON response.
    pub fn json(body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse::ok("application/json", body)
    }

    /// A `200` HTML response (for the `/dash` page).
    pub fn html(body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse::ok("text/html; charset=utf-8", body)
    }

    /// A `404 Not Found` response.
    pub fn not_found() -> HttpResponse {
        HttpResponse::status(404, "not found\n")
    }

    /// A plain-text response with an arbitrary status code.
    pub fn status(status: u16, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8".to_owned(),
            body: body.into(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            _ => "Response",
        }
    }

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        // Observability responses are live state: `no-store` keeps
        // browsers and intermediaries from replaying a stale /dash or
        // /snapshot.
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// The accept-loop server. See the [module docs](self).
#[derive(Debug)]
pub struct HttpServer {
    listener: TcpListener,
    io_timeout: Duration,
}

impl HttpServer {
    /// Binds the listener. `addr` may use port `0` to let the OS pick a
    /// free port (see [`HttpServer::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates bind failures (port in use, permission).
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(HttpServer {
            listener,
            io_timeout: IO_TIMEOUT,
        })
    }

    /// Overrides the per-connection read/write timeout (mainly for
    /// tests).
    #[must_use]
    pub fn with_io_timeout(mut self, timeout: Duration) -> HttpServer {
        self.io_timeout = timeout;
        self
    }

    /// The bound address.
    ///
    /// # Panics
    ///
    /// Panics if the OS cannot report the local address of a bound
    /// listener (not observed in practice).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener address")
    }

    /// Runs the accept loop until `shutdown` becomes `true`, passing
    /// each well-formed `GET` request to `handler`. Returns the number
    /// of requests answered (including error responses).
    ///
    /// Per-connection failures (resets, timeouts, malformed requests)
    /// are answered or dropped without taking the loop down.
    ///
    /// # Errors
    ///
    /// Only listener-level failures (e.g. setting non-blocking mode)
    /// abort the loop.
    pub fn serve<H>(&self, shutdown: &AtomicBool, handler: H) -> std::io::Result<u64>
    where
        H: Fn(&HttpRequest) -> HttpResponse,
    {
        self.listener.set_nonblocking(true)?;
        let mut served = 0u64;
        while !shutdown.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.handle(stream, &handler).is_ok() {
                        served += 1;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    wait_for_connection(&self.listener, POLL_INTERVAL);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(served)
    }

    /// Services one connection: parse, dispatch, respond.
    fn handle<H>(&self, mut stream: TcpStream, handler: &H) -> std::io::Result<()>
    where
        H: Fn(&HttpRequest) -> HttpResponse,
    {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        let mut unread_input = false;
        let response = match read_request(&mut stream) {
            Ok(request) if request.method == "GET" => handler(&request),
            Ok(request) => {
                HttpResponse::status(405, format!("method {} not allowed\n", request.method))
            }
            Err(ReadError::Timeout) => HttpResponse::status(408, "request timeout\n"),
            Err(ReadError::Malformed(why)) => {
                unread_input = true;
                HttpResponse::status(400, format!("{why}\n"))
            }
            Err(ReadError::Io(e)) => return Err(e),
        };
        response.write_to(&mut stream)?;
        if unread_input {
            // The client may still be mid-send; closing now with bytes in
            // our receive buffer would RST the connection and destroy the
            // error response before the client reads it. Briefly drain so
            // the close is a clean FIN.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
            let mut scratch = [0u8; 4096];
            let mut drained = 0usize;
            while drained < 256 * 1024 {
                match stream.read(&mut scratch) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => drained += n,
                }
            }
        }
        Ok(())
    }
}

/// Blocks until `listener` has a pending connection or `timeout`
/// passes. A signal interrupting the wait reads as a timeout; any other
/// `poll` failure falls back to sleeping out the timeout.
#[cfg(target_os = "linux")]
fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `PollFd` has the layout of C's `struct pollfd`, and with
    // `nfds` = 1 `poll` reads and writes only `fd`, which outlives the
    // call.
    let ready = unsafe { poll(&mut fd, 1, timeout_ms) };
    if ready < 0 && std::io::Error::last_os_error().kind() != ErrorKind::Interrupted {
        std::thread::sleep(timeout);
    }
}

/// Sleeps out `timeout`: targets other than Linux poll by sleeping.
#[cfg(not(target_os = "linux"))]
fn wait_for_connection(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

enum ReadError {
    Timeout,
    Malformed(&'static str),
    Io(std::io::Error),
}

/// Reads and parses the request head (up to the blank line). It reads
/// 512 bytes at a time and stops once the head passes [`MAX_HEAD`], so
/// it buffers less than `MAX_HEAD + 512` bytes whatever the client sends.
fn read_request(stream: &mut impl Read) -> Result<HttpRequest, ReadError> {
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !head_complete(&head) {
        if head.len() >= MAX_HEAD {
            return Err(ReadError::Malformed("request head too large"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ReadError::Malformed("connection closed mid-request")),
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(ReadError::Timeout)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    let text = std::str::from_utf8(&head).map_err(|_| ReadError::Malformed("non-UTF-8 request"))?;
    let request_line = text
        .lines()
        .next()
        .ok_or(ReadError::Malformed("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ReadError::Malformed("malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed("unsupported protocol version"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), Some(q.to_owned())),
        None => (target.to_owned(), None),
    };
    Ok(HttpRequest {
        method: method.to_owned(),
        path,
        query,
    })
}

/// Whether the buffer already contains the head-terminating blank line.
fn head_complete(head: &[u8]) -> bool {
    head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Starts a server with the given handler; returns its address, the
    /// shutdown flag and the join handle (yielding requests served).
    fn start<H>(handler: H) -> (SocketAddr, Arc<AtomicBool>, std::thread::JoinHandle<u64>)
    where
        H: Fn(&HttpRequest) -> HttpResponse + Send + 'static,
    {
        let server = HttpServer::bind("127.0.0.1:0")
            .unwrap()
            .with_io_timeout(Duration::from_millis(200));
        let addr = server.local_addr();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let join = std::thread::spawn(move || server.serve(&flag, handler).expect("serve loop"));
        (addr, shutdown, join)
    }

    /// Sends raw bytes, returns the full response text.
    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn get(addr: SocketAddr, target: &str) -> String {
        roundtrip(
            addr,
            &format!("GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
        )
    }

    #[test]
    fn routes_and_shuts_down() {
        let (addr, shutdown, join) = start(|req| match req.path.as_str() {
            "/healthz" => HttpResponse::json("{\"status\": \"ok\"}"),
            "/echo" => HttpResponse::text(format!("q={}", req.query.as_deref().unwrap_or(""))),
            _ => HttpResponse::not_found(),
        });

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(
            health.contains("Content-Type: application/json"),
            "{health}"
        );
        assert!(health.ends_with("{\"status\": \"ok\"}"), "{health}");

        let echo = get(addr, "/echo?a=1&b=2");
        assert!(echo.ends_with("q=a=1&b=2"), "{echo}");

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        shutdown.store(true, Ordering::Relaxed);
        let served = join.join().unwrap();
        assert_eq!(served, 3);
    }

    #[test]
    fn a_connection_is_accepted_without_waiting_out_the_poll_interval() {
        let (addr, shutdown, join) = start(|_| HttpResponse::text("ok"));
        // Each request arrives while the loop waits for the next one; a
        // loop that slept POLL_INTERVAL per wait would take ~500 ms.
        let started = std::time::Instant::now();
        for _ in 0..20 {
            assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
        }
        let elapsed = started.elapsed();
        shutdown.store(true, Ordering::Relaxed);
        assert_eq!(join.join().unwrap(), 20);
        assert!(
            elapsed < Duration::from_millis(250),
            "20 sequential GETs took {elapsed:?}"
        );
    }

    #[test]
    fn content_length_matches_body() {
        let (addr, shutdown, join) = start(|_| HttpResponse::text("hello"));
        let resp = get(addr, "/");
        let length: usize = resp
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(length, "hello".len());
        shutdown.store(true, Ordering::Relaxed);
        join.join().unwrap();
    }

    #[test]
    fn every_response_is_no_store_and_html_is_typed() {
        let (addr, shutdown, join) = start(|req| match req.path.as_str() {
            "/dash" => HttpResponse::html("<html></html>"),
            _ => HttpResponse::not_found(),
        });
        let dash = get(addr, "/dash");
        assert!(dash.contains("Cache-Control: no-store\r\n"), "{dash}");
        assert!(
            dash.contains("Content-Type: text/html; charset=utf-8"),
            "{dash}"
        );
        let missing = get(addr, "/nope");
        assert!(missing.contains("Cache-Control: no-store\r\n"), "{missing}");
        shutdown.store(true, Ordering::Relaxed);
        join.join().unwrap();
    }

    #[test]
    fn non_get_is_405_and_garbage_is_400() {
        let (addr, shutdown, join) = start(|_| HttpResponse::text("ok"));
        let post = roundtrip(
            addr,
            "POST /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(post.starts_with("HTTP/1.1 405"), "{post}");
        let garbage = roundtrip(addr, "NOT-HTTP\r\n\r\n");
        assert!(garbage.starts_with("HTTP/1.1 400"), "{garbage}");
        shutdown.store(true, Ordering::Relaxed);
        join.join().unwrap();
    }

    #[test]
    fn stalled_client_gets_timeout_not_wedge() {
        let (addr, shutdown, join) = start(|_| HttpResponse::text("ok"));
        // Connect and send nothing: the server must give up after its
        // io timeout and still answer the next client.
        let mut silent = TcpStream::connect(addr).unwrap();
        let mut out = String::new();
        silent.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");
        let ok = get(addr, "/");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        shutdown.store(true, Ordering::Relaxed);
        join.join().unwrap();
    }

    #[test]
    fn oversized_head_is_rejected() {
        let (addr, shutdown, join) = start(|_| HttpResponse::text("ok"));
        let huge = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD));
        let resp = roundtrip(addr, &huge);
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        shutdown.store(true, Ordering::Relaxed);
        join.join().unwrap();
    }

    /// Totality of the request-head parser over untrusted bytes.
    mod fuzz {
        use std::io::Read;

        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        use super::super::{read_request, MAX_HEAD};

        /// A client that sends `input`, then hangs up or (`endless`)
        /// keeps sending `x` forever; counts the bytes the parser read.
        struct Client<R> {
            bytes: R,
            read: usize,
        }

        impl<R: Read> Read for Client<R> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.bytes.read(buf)?;
                self.read += n;
                Ok(n)
            }
        }

        /// Whether `needle` occurs in `haystack`.
        fn occurs(haystack: &[u8], needle: &[u8]) -> bool {
            needle.is_empty() || haystack.windows(needle.len()).any(|w| w == needle)
        }

        /// `read_request` returns rather than panics, buffers less than
        /// `MAX_HEAD` + one 512-byte read, and takes an accepted
        /// request's path and query from the input.
        fn check(input: &[u8], endless: bool) -> Result<(), TestCaseError> {
            let tail = std::io::repeat(b'x').take(if endless { u64::MAX } else { 0 });
            let mut client = Client {
                bytes: input.chain(tail),
                read: 0,
            };
            let verdict = read_request(&mut client);
            prop_assert!(client.read < MAX_HEAD + 512, "read {} bytes", client.read);
            if let Ok(request) = verdict {
                prop_assert!(occurs(input, request.path.as_bytes()), "{request:?}");
                let query = request.query.unwrap_or_default();
                prop_assert!(occurs(input, query.as_bytes()), "{query:?}");
            }
            Ok(())
        }

        /// A well-formed head (request line, a header, blank line) with
        /// the path and query of its request target.
        fn head() -> impl Strategy<Value = (String, String, Option<String>)> {
            (
                prop::sample::select(vec!["GET", "POST", "HEAD"]),
                "/[a-z/_.]{0,16}",
                prop::option::of("[a-z0-9=&%_.]{0,24}"),
                prop::sample::select(vec!["HTTP/1.0", "HTTP/1.1"]),
                prop::sample::select(vec!["\r\n", "\n"]),
            )
                .prop_map(|(method, path, query, version, eol)| {
                    let target = match &query {
                        Some(q) => format!("{path}?{q}"),
                        None => path.clone(),
                    };
                    let head = format!("{method} {target} {version}{eol}Host: test{eol}{eol}");
                    (head, path, query)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Arbitrary bytes, with or without an endless tail.
            #[test]
            fn arbitrary_bytes_never_panic(
                input in prop::collection::vec(0u8..=255, 0..2 * MAX_HEAD),
                endless in prop_oneof![Just(false), Just(true)],
            ) {
                check(&input, endless)?;
            }

            /// A valid head is accepted whole, and cut at a random offset
            /// or with random bit flips it still returns.
            #[test]
            fn damaged_heads_never_panic(
                (head, path, query) in head(),
                cut in 0.0f64..=1.0,
                flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 0..8),
                endless in prop_oneof![Just(false), Just(true)],
            ) {
                let mut bytes = head.into_bytes();
                let whole = read_request(&mut bytes.as_slice());
                prop_assert!(
                    whole.is_ok_and(|r| r.path == path && r.query == query),
                    "{path:?} {query:?}"
                );
                bytes.truncate((bytes.len() as f64 * cut) as usize);
                check(&bytes, endless)?;
                if !bytes.is_empty() {
                    let len = bytes.len();
                    for (at, bit) in flips {
                        bytes[at % len] ^= 1 << bit;
                    }
                }
                check(&bytes, endless)?;
            }
        }
    }
}
