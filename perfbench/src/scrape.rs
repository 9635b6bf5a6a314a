//! The open-loop scrape generator: one connection at a time, on a fixed
//! schedule, each scrape timed from when it was due.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Scrapes per second.
pub const RATE_HZ: f64 = 20.0;

/// The routes the generator rotates through.
pub const ROUTES: [&str; 4] = ["/metrics", "/snapshot", "/healthz", "/dash"];

const TIMEOUT: Duration = Duration::from_secs(5);

/// One HTTP response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: String,
    pub body: String,
}

/// One scrape of the schedule.
#[derive(Debug, Clone, Copy)]
pub struct Scrape {
    pub seq: u64,
    pub route: &'static str,
    /// When it was due.
    pub due: Instant,
    /// From due time to the last response byte.
    pub latency_s: f64,
    /// How late the generator sent it.
    pub late_s: f64,
    /// 200, non-empty body, the route's content type.
    pub ok: bool,
}

/// `GET path` over a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> Result<Response, String> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let text = String::from_utf8(raw).map_err(|_| "non-UTF-8 response".to_owned())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or("no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("no status")?;
    let content_type = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Type: "))
        .unwrap_or_default()
        .to_owned();
    Ok(Response {
        status,
        content_type,
        body: body.to_owned(),
    })
}

fn content_type_ok(route: &str, content_type: &str) -> bool {
    let want = match route {
        "/metrics" => "text/plain",
        "/dash" => "text/html",
        _ => "application/json",
    };
    content_type.starts_with(want)
}

/// Where op `op`'s schedule starts after the daemon is ready: a
/// seeded offset within one scrape interval, so the schedule's phase
/// against the daemon's own timers differs from op to op.
pub fn start_offset(seed: u64, op: u64) -> Duration {
    // SplitMix64 finaliser over the seed and op index.
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(op);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    Duration::from_secs_f64((z >> 11) as f64 / (1u64 << 53) as f64 / RATE_HZ)
}

/// Runs the schedule from `start` while `keep_going()` holds (checked
/// before each scrape). Scrape `i` is due at `start + i / RATE_HZ` and
/// carries `?n=i`, so a handler can match its own timing to the scrape.
pub fn run(addr: SocketAddr, start: Instant, mut keep_going: impl FnMut() -> bool) -> Vec<Scrape> {
    let mut scrapes = Vec::new();
    let mut seq = 0u64;
    while keep_going() {
        let due = start + Duration::from_secs_f64(seq as f64 / RATE_HZ);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let route = ROUTES[seq as usize % ROUTES.len()];
        let response = get(addr, &format!("{route}?n={seq}"));
        let done = Instant::now();
        let ok = response.is_ok_and(|r| {
            r.status == 200 && !r.body.is_empty() && content_type_ok(route, &r.content_type)
        });
        scrapes.push(Scrape {
            seq,
            route,
            due,
            latency_s: (done - due).as_secs_f64(),
            late_s: (sent - due).as_secs_f64(),
            ok,
        });
        seq += 1;
    }
    scrapes
}
