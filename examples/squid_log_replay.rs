//! Squid log replay: the real-trace path of the library. Synthesizes a
//! Squid-native `access.log` (the format both the DFN and NLANR proxies
//! logged), parses it back, preprocesses it with the paper's
//! cacheability rules, characterizes the result and replays it through a
//! cache.
//!
//! Point `parse_log` at a real `access.log` to reproduce the study on
//! your own proxy.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example squid_log_replay
//! ```

use webcache::prelude::*;
use webcache::trace::preprocess::preprocess;
use webcache::trace::squid::{format_line, parse_log, LogEntry};
use webcache::trace::HttpStatus;

/// Builds a plausible access.log: a mix of cacheable documents, dynamic
/// URLs and error responses.
fn synthesize_log() -> String {
    let urls: [(&str, &str, u64); 6] = [
        ("http://www.uni-dortmund.de/index.html", "text/html", 9_200),
        ("http://www.uni-dortmund.de/logo.gif", "image/gif", 2_100),
        (
            "http://ls4.cs.uni-dortmund.de/paper.pdf",
            "application/pdf",
            412_000,
        ),
        (
            "http://media.example.de/lecture.mp3",
            "audio/mpeg",
            3_800_000,
        ),
        ("http://www.example.de/cgi-bin/search", "text/html", 5_000),
        ("http://www.example.de/page.html?id=7", "text/html", 4_000),
    ];
    let mut lines = Vec::new();
    for i in 0..2_000u64 {
        let (url, mime, size) = urls[(i % 7 % 6) as usize];
        let status = if i % 97 == 0 { 404 } else { 200 };
        let entry = LogEntry {
            timestamp: webcache::trace::Timestamp::from_millis(994_176_000_000 + i * 250),
            elapsed_ms: 40 + i % 300,
            client: format!("10.0.{}.{}", i % 4, i % 200),
            action: "TCP_MISS".to_owned(),
            status: HttpStatus::new(status),
            size: ByteSize::new(size),
            method: "GET".to_owned(),
            url: url.to_owned(),
            content_type: Some(mime.to_owned()),
        };
        lines.push(format_line(&entry));
    }
    lines.join("\n")
}

fn main() {
    let log_text = synthesize_log();
    println!("raw log: {} lines", log_text.lines().count());

    // Parse and preprocess exactly as the study does (Section 2).
    let entries = parse_log(&log_text).expect("synthesized log is well-formed");
    let (trace, stats) = preprocess(&entries);
    println!(
        "preprocessed: {} cacheable requests ({} dynamic, {} bad status dropped)",
        stats.output, stats.dropped_dynamic, stats.dropped_status,
    );

    // Characterize the request stream.
    let ch = TraceCharacterization::measure(&DenseTrace::build(&trace));
    println!("{}", ch.breakdown_table("replayed log"));

    // Replay through a 1 MiB proxy cache under GD*(P).
    let report = Simulator::new(
        PolicyKind::GdStar(CostModel::Packet).build(),
        SimulationConfig::new(ByteSize::from_mib(1)),
    )
    .run(&trace);
    println!(
        "{}: hit rate {:.3}, byte hit rate {:.3}",
        report.policy,
        report.overall().hit_rate(),
        report.overall().byte_hit_rate(),
    );
}
