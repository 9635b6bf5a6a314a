//! Parser for Squid native `access.log` lines.
//!
//! Both traces studied in the paper (NLANR RTP and DFN) were collected by
//! Squid-based proxies in this format. One line per request:
//!
//! ```text
//! timestamp elapsed client action/status size method URL ident hierarchy/from content-type
//! ```
//!
//! for example:
//!
//! ```text
//! 994176000.123   110 134.91.1.7 TCP_MISS/200 2342 GET http://example.de/logo.gif - DIRECT/10.0.0.1 image/gif
//! ```

use serde::{Deserialize, Serialize};

use crate::error::TraceError;
use crate::status::HttpStatus;
use crate::types::{ByteSize, Timestamp};

/// One raw, parsed `access.log` entry (before preprocessing).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Request completion time.
    pub timestamp: Timestamp,
    /// Time the transaction busied the cache, in milliseconds.
    pub elapsed_ms: u64,
    /// Client host (address string, kept verbatim).
    pub client: String,
    /// Squid result code, e.g. `TCP_HIT`, `TCP_MISS`.
    pub action: String,
    /// HTTP status of the reply.
    pub status: HttpStatus,
    /// Bytes delivered to the client (headers + body).
    pub size: ByteSize,
    /// HTTP request method.
    pub method: String,
    /// Requested URL, verbatim.
    pub url: String,
    /// Content type of the response, if logged (`-` becomes `None`).
    pub content_type: Option<String>,
}

/// Parses a single Squid native log line.
///
/// `line_no` is used only for error reporting.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] when the line has fewer than ten fields or
/// a numeric field does not parse.
///
/// ```
/// use webcache_trace::squid::parse_line;
///
/// let entry = parse_line(
///     "994176000.123 110 134.91.1.7 TCP_MISS/200 2342 GET http://e.de/a.gif - DIRECT/10.0.0.1 image/gif",
///     1,
/// ).unwrap();
/// assert_eq!(entry.status.code(), 200);
/// assert_eq!(entry.size.as_u64(), 2342);
/// assert_eq!(entry.content_type.as_deref(), Some("image/gif"));
/// ```
pub fn parse_line(line: &str, line_no: usize) -> Result<LogEntry, TraceError> {
    let mut fields = line.split_ascii_whitespace();
    let mut next = |name: &str| {
        fields
            .next()
            .ok_or_else(|| TraceError::parse(line_no, format!("missing field `{name}`")))
    };

    let ts_raw = next("timestamp")?;
    let timestamp = parse_timestamp(ts_raw)
        .ok_or_else(|| TraceError::parse(line_no, format!("bad timestamp `{ts_raw}`")))?;

    let elapsed_raw = next("elapsed")?;
    let elapsed_ms = elapsed_raw
        .parse::<i64>()
        .map_err(|_| TraceError::parse(line_no, format!("bad elapsed time `{elapsed_raw}`")))?
        .max(0) as u64;

    let client = next("client")?.to_owned();

    let action_status = next("action/status")?;
    let (action, status_str) = action_status.split_once('/').ok_or_else(|| {
        TraceError::parse(line_no, format!("bad action/status `{action_status}`"))
    })?;
    let status = status_str
        .parse::<u16>()
        .map(HttpStatus::new)
        .map_err(|_| TraceError::parse(line_no, format!("bad status `{status_str}`")))?;

    let size_raw = next("size")?;
    let size = size_raw
        .parse::<u64>()
        .map(ByteSize::new)
        .map_err(|_| TraceError::parse(line_no, format!("bad size `{size_raw}`")))?;

    let method = next("method")?.to_owned();
    let url = next("url")?.to_owned();
    let _ident = next("ident")?;
    let _hierarchy = next("hierarchy")?;
    let content_type = match fields.next() {
        None | Some("-") => None,
        Some(ct) => Some(ct.to_owned()),
    };

    Ok(LogEntry {
        timestamp,
        elapsed_ms,
        client,
        action: action.to_owned(),
        status,
        size,
        method,
        url,
        content_type,
    })
}

/// Parses every non-empty line of a Squid log.
///
/// # Errors
///
/// Fails on the first malformed line.
pub fn parse_log(text: &str) -> Result<Vec<LogEntry>, TraceError> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_line(l, i + 1))
        .collect()
}

/// Formats an entry back into the Squid native log format.
///
/// `parse_line` ∘ `format_line` is the identity on the retained fields,
/// which the round-trip tests rely on.
pub fn format_line(entry: &LogEntry) -> String {
    format!(
        "{}.{:03} {} {} {}/{} {} {} {} - DIRECT/- {}",
        entry.timestamp.as_millis() / 1000,
        entry.timestamp.as_millis() % 1000,
        entry.elapsed_ms,
        entry.client,
        entry.action,
        entry.status.code(),
        entry.size.as_u64(),
        entry.method,
        entry.url,
        entry.content_type.as_deref().unwrap_or("-"),
    )
}

/// Parses a `seconds[.millis]` UNIX-style timestamp into a [`Timestamp`];
/// `None` for malformed text or a time past `u64::MAX` milliseconds.
fn parse_timestamp(raw: &str) -> Option<Timestamp> {
    match raw.split_once('.') {
        Some((secs, frac)) => {
            let secs: u64 = secs.parse().ok()?;
            // Normalize the fractional part to exactly three digits. Only
            // ASCII digits are acceptable (and make the slice safe).
            if !frac.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let frac = if frac.len() >= 3 { &frac[..3] } else { frac };
            let mut millis: u64 = frac.parse().ok()?;
            for _ in frac.len()..3 {
                millis *= 10;
            }
            let ms = secs.checked_mul(1000)?.checked_add(millis)?;
            Some(Timestamp::from_millis(ms))
        }
        None => {
            let secs: u64 = raw.parse().ok()?;
            secs.checked_mul(1000).map(Timestamp::from_millis)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "994176000.123 110 134.91.1.7 TCP_MISS/200 2342 GET http://e.de/a.gif - DIRECT/10.0.0.1 image/gif";

    #[test]
    fn parses_all_fields() {
        let e = parse_line(LINE, 1).unwrap();
        assert_eq!(e.timestamp.as_millis(), 994_176_000_123);
        assert_eq!(e.elapsed_ms, 110);
        assert_eq!(e.client, "134.91.1.7");
        assert_eq!(e.action, "TCP_MISS");
        assert_eq!(e.status, HttpStatus::OK);
        assert_eq!(e.size.as_u64(), 2342);
        assert_eq!(e.method, "GET");
        assert_eq!(e.url, "http://e.de/a.gif");
        assert_eq!(e.content_type.as_deref(), Some("image/gif"));
    }

    #[test]
    fn missing_content_type_is_none() {
        let line = "100.000 5 c TCP_HIT/304 312 GET http://e.de/x.html - NONE/- -";
        let e = parse_line(line, 1).unwrap();
        assert_eq!(e.content_type, None);
        assert_eq!(e.status, HttpStatus::NOT_MODIFIED);
    }

    #[test]
    fn truncated_line_errors_with_field_name() {
        let err = parse_line("100.000 5 c TCP_HIT/304", 7).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 7"), "{msg}");
        assert!(msg.contains("size"), "{msg}");
        // One millisecond past `u64::MAX`, with and without a fraction.
        for ts in ["18446744073709552", "18446744073709552.5"] {
            let line = format!("{ts} 5 c TCP_MISS/200 1 GET http://e.de/x - DIRECT/- -");
            let msg = parse_line(&line, 3).unwrap_err().to_string();
            assert!(msg.contains("bad timestamp"), "{msg}");
        }
        let last = parse_line("18446744073709551.615 5 c TCP_MISS/200 1 GET u - D/- -", 1);
        assert_eq!(last.unwrap().timestamp.as_millis(), u64::MAX);
    }

    #[test]
    fn bad_status_errors() {
        let line = "100.000 5 c TCP_HIT/abc 1 GET http://e.de/x - NONE/- -";
        assert!(parse_line(line, 1).is_err());
    }

    #[test]
    fn negative_elapsed_clamps_to_zero() {
        // Squid logs -1 for some aborted transactions.
        let line = "100.000 -1 c TCP_MISS/200 1 GET http://e.de/x - DIRECT/- -";
        assert_eq!(parse_line(line, 1).unwrap().elapsed_ms, 0);
    }

    #[test]
    fn timestamp_without_fraction() {
        let line = "100 5 c TCP_MISS/200 1 GET http://e.de/x - DIRECT/- -";
        assert_eq!(parse_line(line, 1).unwrap().timestamp.as_millis(), 100_000);
    }

    #[test]
    fn timestamp_short_fraction_is_padded() {
        assert_eq!(parse_timestamp("1.5").unwrap().as_millis(), 1_500);
        assert_eq!(parse_timestamp("1.05").unwrap().as_millis(), 1_050);
        assert_eq!(parse_timestamp("1.123456").unwrap().as_millis(), 1_123);
    }

    #[test]
    fn parse_log_collects_lines() {
        let text = format!("{LINE}\n\n{LINE}\n");
        let entries = parse_log(&text).unwrap();
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn format_parse_roundtrip() {
        let e = parse_line(LINE, 1).unwrap();
        let reparsed = parse_line(&format_line(&e), 1).unwrap();
        assert_eq!(e.timestamp, reparsed.timestamp);
        assert_eq!(e.status, reparsed.status);
        assert_eq!(e.size, reparsed.size);
        assert_eq!(e.url, reparsed.url);
        assert_eq!(e.content_type, reparsed.content_type);
    }
}
