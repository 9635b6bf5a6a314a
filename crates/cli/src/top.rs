//! `webcache top` — a terminal status view of a running serve daemon.
//!
//! Polls `GET /snapshot` on a [`serve`](crate::serve) daemon and renders
//! the interesting slice as a compact text frame: replay progress,
//! modeled-latency quantiles per document type, per-shard lock
//! contention, and SLO burn rates. With `--once` the frame is returned
//! as the command output (scriptable — the CI smoke uses it); otherwise
//! the view clears and redraws every `--interval` seconds, `top(1)`
//! style, until `--frames` runs out or the daemon goes away.
//!
//! The client side is a plain blocking `TcpStream` GET plus the
//! dependency-free JSON parser from `webcache-obs` — no HTTP library,
//! matching the server side.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use webcache_obs::json::{self, Value};
use webcache_trace::DocumentType;

use crate::args::Args;
use crate::serve::DEFAULT_PORT;
use crate::CliError;

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Fetches one path from the daemon and returns the response body.
///
/// # Errors
///
/// I/O errors from the socket, or [`CliError::Input`] on a malformed
/// response or a non-200 status line.
fn fetch(host: &str, port: u16, path: &str) -> Result<String, CliError> {
    let stream = TcpStream::connect((host, port))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut stream = stream;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| CliError::Input(format!("malformed HTTP response from {host}:{port}")))?;
    let status = head.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        return Err(CliError::Input(format!("{path} answered HTTP {status}")));
    }
    Ok(body.to_owned())
}

/// Whether a snapshot entry's label object contains every `(k, v)` pair.
fn labels_match(entry: &Value, want: &[(&str, &str)]) -> bool {
    let labels = entry.get("labels");
    want.iter().all(|(k, v)| {
        labels
            .and_then(|l| l.get(k))
            .and_then(Value::as_str)
            .is_some_and(|got| got == *v)
    })
}

/// Looks up one sample's value in a snapshot section (`counters`,
/// `gauges` or `histograms`) by name and label subset.
fn sample(doc: &Value, section: &str, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    doc.get(section)?.as_array()?.iter().find_map(|entry| {
        let matches =
            entry.get("name").and_then(Value::as_str) == Some(name) && labels_match(entry, labels);
        matches
            .then(|| entry.get("value").and_then(Value::as_f64))
            .flatten()
    })
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{v:.0}"),
        Some(v) => format!("{v:.3}"),
        None => "—".to_owned(),
    }
}

/// Renders one frame from a parsed `/snapshot` document.
fn render(doc: &Value, host: &str, port: u16) -> String {
    let mut out = String::with_capacity(2048);
    let passes = sample(doc, "counters", "webcache_serve_passes_total", &[]);
    let requests = sample(doc, "counters", "webcache_serve_requests_total", &[]);
    let hit_rate = sample(doc, "gauges", "webcache_serve_last_pass_hit_rate", &[]);
    let rps = sample(doc, "gauges", "webcache_serve_last_pass_req_per_sec", &[]);
    let replaying = sample(doc, "gauges", "webcache_serve_replaying", &[]).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "webcache top — {host}:{port} — {} — pass {} — {} requests — hit rate {} — {} req/s",
        if replaying > 0.0 { "replaying" } else { "idle" },
        fmt_opt(passes),
        fmt_opt(requests),
        fmt_opt(hit_rate),
        fmt_opt(rps),
    );

    out.push_str("\nmodeled latency (µs)      p50        p90        p99       p999\n");
    let mut rows: Vec<&str> = vec!["overall"];
    rows.extend(DocumentType::ALL.iter().map(|t| t.label()));
    for doc_type in rows {
        let q = |quantile: &str| {
            sample(
                doc,
                "gauges",
                "webcache_modeled_latency_us",
                &[("doc_type", doc_type), ("quantile", quantile)],
            )
        };
        let _ = writeln!(
            out,
            "  {doc_type:<18} {:>10} {:>10} {:>10} {:>10}",
            fmt_opt(q("p50")),
            fmt_opt(q("p90")),
            fmt_opt(q("p99")),
            fmt_opt(q("p999")),
        );
    }

    out.push_str("\nshard locks        acquisitions  contended  contention  wait µs (mean)\n");
    for shard in 0.. {
        let label = shard.to_string();
        let labels = [("shard", label.as_str())];
        let Some(acquisitions) = sample(
            doc,
            "counters",
            "webcache_shard_lock_acquire_total",
            &labels,
        ) else {
            break;
        };
        let contended = sample(
            doc,
            "counters",
            "webcache_shard_lock_contended_total",
            &labels,
        );
        let ratio = sample(
            doc,
            "gauges",
            "webcache_shard_lock_contention_ratio",
            &labels,
        );
        let wait_count =
            sample(doc, "histograms", "webcache_shard_lock_wait_us", &labels).unwrap_or(0.0);
        // Histogram entries expose count as "count"; sample() reads
        // "value", so dig the count/sum pair out directly.
        let (count, sum) = doc
            .get("histograms")
            .and_then(Value::as_array)
            .and_then(|entries| {
                entries.iter().find(|e| {
                    e.get("name").and_then(Value::as_str) == Some("webcache_shard_lock_wait_us")
                        && labels_match(e, &labels)
                })
            })
            .map(|e| {
                (
                    e.get("count").and_then(Value::as_f64).unwrap_or(0.0),
                    e.get("sum").and_then(Value::as_f64).unwrap_or(0.0),
                )
            })
            .unwrap_or((wait_count, 0.0));
        let mean_wait = if count > 0.0 { sum / count } else { 0.0 };
        let _ = writeln!(
            out,
            "  shard {label:<10} {:>12} {:>10} {:>11} {:>15.1}",
            fmt_opt(Some(acquisitions)),
            fmt_opt(contended),
            fmt_opt(ratio),
            mean_wait,
        );
    }

    let mut slo_lines = String::new();
    for slo in ["hit_rate", "latency_p99"] {
        let short = sample(
            doc,
            "gauges",
            "webcache_slo_burn_rate",
            &[("slo", slo), ("window", "short")],
        );
        if short.is_none() {
            continue;
        }
        let long = sample(
            doc,
            "gauges",
            "webcache_slo_burn_rate",
            &[("slo", slo), ("window", "long")],
        );
        let breaches = sample(
            doc,
            "counters",
            "webcache_slo_breach_total",
            &[("slo", slo)],
        );
        let _ = writeln!(
            slo_lines,
            "  {slo:<18} {:>10} {:>10} {:>10}",
            fmt_opt(short),
            fmt_opt(long),
            fmt_opt(breaches),
        );
    }
    if !slo_lines.is_empty() {
        out.push_str("\nslo burn rate           short       long   breaches\n");
        out.push_str(&slo_lines);
    }
    out
}

/// `webcache top`: fetches `/snapshot` and renders the status view.
/// See the [module docs](self) for the flag reference.
///
/// # Errors
///
/// [`CliError::Usage`] on malformed flags, [`CliError::Input`] on
/// malformed or non-200 responses, I/O errors when the daemon is
/// unreachable.
pub fn top(args: &Args) -> Result<String, CliError> {
    let host = args.get("host").unwrap_or("127.0.0.1").to_owned();
    let port: u16 = args.get_parsed("port")?.unwrap_or(DEFAULT_PORT);
    let once = args.switch("once");
    let interval: f64 = args.get_parsed("interval")?.unwrap_or(2.0);
    if !interval.is_finite() || interval <= 0.0 {
        return Err(usage("--interval expects a finite second count > 0"));
    }
    let frames: Option<u64> = args.get_parsed("frames")?;
    if frames == Some(0) {
        return Err(usage("--frames expects a frame count ≥ 1"));
    }

    let one_frame = || -> Result<String, CliError> {
        let body = fetch(&host, port, "/snapshot")?;
        let doc = json::parse(&body)
            .map_err(|e| CliError::Input(format!("/snapshot returned invalid JSON: {e:?}")))?;
        Ok(render(&doc, &host, port))
    };

    if once {
        return one_frame();
    }
    let mut drawn: u64 = 0;
    loop {
        let frame = one_frame()?;
        // ANSI clear + home, like top(1); harmless when redirected.
        print!("\x1b[2J\x1b[H{frame}");
        std::io::stdout().flush()?;
        drawn += 1;
        if frames.is_some_and(|n| drawn >= n) {
            return Ok(format!("rendered {drawn} frames\n"));
        }
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(doc: &str) -> Value {
        json::parse(doc).unwrap()
    }

    #[test]
    fn sample_matches_name_and_label_subset() {
        let doc = parse(
            r#"{"gauges": [
                {"name": "g", "labels": {"a": "1", "b": "2"}, "value": 7},
                {"name": "g", "labels": {"a": "2"}, "value": 9}
            ]}"#,
        );
        assert_eq!(sample(&doc, "gauges", "g", &[("a", "1")]), Some(7.0));
        assert_eq!(sample(&doc, "gauges", "g", &[("a", "2")]), Some(9.0));
        assert_eq!(sample(&doc, "gauges", "g", &[("a", "3")]), None);
        assert_eq!(sample(&doc, "gauges", "missing", &[]), None);
    }

    #[test]
    fn render_survives_an_empty_snapshot() {
        let doc = parse(r#"{"counters": [], "gauges": [], "histograms": []}"#);
        let frame = render(&doc, "127.0.0.1", 9184);
        assert!(frame.contains("webcache top"), "{frame}");
        assert!(frame.contains("modeled latency"), "{frame}");
        assert!(frame.contains("pass —"), "{frame}");
    }

    #[test]
    fn render_shows_shard_and_slo_rows_when_present() {
        let doc = parse(
            r#"{
                "counters": [
                    {"name": "webcache_shard_lock_acquire_total", "labels": {"shard": "0"}, "value": 10},
                    {"name": "webcache_shard_lock_contended_total", "labels": {"shard": "0"}, "value": 2},
                    {"name": "webcache_slo_breach_total", "labels": {"slo": "hit_rate"}, "value": 1}
                ],
                "gauges": [
                    {"name": "webcache_shard_lock_contention_ratio", "labels": {"shard": "0"}, "value": 0.2},
                    {"name": "webcache_slo_burn_rate", "labels": {"slo": "hit_rate", "window": "short"}, "value": 5.0},
                    {"name": "webcache_slo_burn_rate", "labels": {"slo": "hit_rate", "window": "long"}, "value": 4.0}
                ],
                "histograms": [
                    {"name": "webcache_shard_lock_wait_us", "labels": {"shard": "0"},
                     "count": 10, "sum": 50, "buckets": []}
                ]
            }"#,
        );
        let frame = render(&doc, "127.0.0.1", 9184);
        assert!(frame.contains("shard 0"), "{frame}");
        assert!(frame.contains("slo burn rate"), "{frame}");
        assert!(frame.contains("hit_rate"), "{frame}");
        assert!(frame.contains("5.0"), "{frame}");
    }

    #[test]
    fn bad_interval_and_frames_error() {
        let args = |s: &str| {
            Args::parse(
                &s.split_whitespace().map(str::to_owned).collect::<Vec<_>>(),
                &["once"],
            )
            .unwrap()
        };
        assert!(top(&args("--interval 0")).is_err());
        assert!(top(&args("--interval nan")).is_err());
        assert!(top(&args("--frames 0")).is_err());
    }
}
