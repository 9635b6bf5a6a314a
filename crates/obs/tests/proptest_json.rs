//! Property tests for the JSON reader (`obs::json`): any `&str` parses to
//! `Ok` or `Err` without panicking, however it mixes multi-byte
//! characters, escapes and truncation, and the strings the crate's own
//! writers escape (log records, flight JSONL) read back unchanged.

use proptest::prelude::*;

use webcache_obs::json::{self, Value};
use webcache_obs::{DecisionRecord, EventKind, FlightRecorder, Level, Logger, Reason};

/// Fragments that stress the string and escape paths: quotes, a lone
/// backslash, whole and cut `\u` escapes, control and multi-byte
/// characters, and the structural tokens around them.
const FRAGMENTS: &[&str] = &[
    "\"", "\\", "\\u", "\\u00", "\\u00e9", "\\uZZZZ", "\\n", "\\q", "é", "日本", "😀", "\u{1}",
    "\n", "{", "}", "[", "]", ":", ",", "1", "-", "2.5e3", "true", "nul", " ", "a",
];

fn fragments() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(FRAGMENTS.to_vec()), 0..24)
        .prop_map(|parts| parts.concat())
}

/// Free text with the characters a writer must escape mixed in.
fn text() -> impl Strategy<Value = String> {
    let escaped = vec!["\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "é", "😀"];
    prop::collection::vec(
        prop_oneof![
            "\\PC{1,4}",
            prop::sample::select(escaped).prop_map(str::to_owned),
        ],
        0..12,
    )
    .prop_map(|parts| parts.concat())
}

/// Parses `document` and every prefix of it that ends on a char
/// boundary; each call must return rather than panic.
fn parse_every_prefix(document: &str) {
    for (cut, _) in document.char_indices() {
        let _ = json::parse(&document[..cut]);
    }
    let _ = json::parse(document);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary printable text, multi-byte characters included.
    #[test]
    fn arbitrary_text_never_panics(input in "\\PC{0,64}") {
        let _ = json::parse(&input);
        parse_every_prefix(&format!("[\"{input}\"]"));
    }

    /// JSON-shaped input: quotes, lone backslashes and truncated `\u`
    /// escapes next to multi-byte characters.
    #[test]
    fn json_shaped_text_never_panics(input in fragments()) {
        let _ = json::parse(&input);
        parse_every_prefix(&format!("{{\"k\": \"{input}\"}}"));
    }

    /// A log record's component, message, field key and string value
    /// read back exactly as written.
    #[test]
    fn log_records_round_trip(
        component in text(),
        msg in text(),
        key in text(),
        value in text(),
    ) {
        let (logger, capture) = Logger::capture(Level::Info);
        logger.info(&component, &msg, &[(key.as_str(), value.clone().into())]);
        let lines = capture.lines();
        prop_assert_eq!(lines.len(), 1);
        let record = json::parse(&lines[0]).expect("log line is JSON");
        prop_assert_eq!(record.get("component").and_then(Value::as_str), Some(component.as_str()));
        prop_assert_eq!(record.get("msg").and_then(Value::as_str), Some(msg.as_str()));
        let fields = record.as_object().expect("record is an object");
        let (last_key, last_value) = fields.last().expect("record has fields");
        prop_assert_eq!(last_key, &key);
        prop_assert_eq!(last_value.as_str(), Some(value.as_str()));
        parse_every_prefix(&lines[0]);
    }

    /// A flight JSONL dump parses back to the records it holds, and
    /// every prefix of its lines parses without panicking.
    #[test]
    fn flight_jsonl_round_trips(
        fields in prop::collection::vec(
            (0u64..1 << 40, 0u8..5, 0usize..EventKind::ALL.len(), 0u8..3, -1e9f64..1e9),
            0..8,
        ),
    ) {
        let records: Vec<DecisionRecord> = fields
            .into_iter()
            .enumerate()
            .map(|(i, (doc, doc_type, event, reason, x))| DecisionRecord {
                index: i as u64,
                doc,
                doc_type,
                size: doc / 3,
                event: EventKind::ALL[event],
                reason: match reason {
                    0 => Reason::none(),
                    1 => Reason::greedy_dual(x, x / 2.0),
                    _ => Reason::frequency(x.abs()),
                },
            })
            .collect();
        let mut ring = FlightRecorder::new(8);
        for record in &records {
            ring.record(*record);
        }
        let dump = ring.to_jsonl();
        prop_assert_eq!(FlightRecorder::parse_jsonl(&dump).expect("dump parses"), records);
        for line in dump.lines() {
            parse_every_prefix(line);
        }
    }
}
