//! Property tests for the trace substrate: format round-trips, parser
//! totality and classification stability.

use proptest::prelude::*;

use webcache_trace::format;
use webcache_trace::squid;
use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp, Trace};

fn arb_doc_type() -> impl Strategy<Value = DocumentType> {
    prop::sample::select(DocumentType::ALL.to_vec())
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u64..10_000_000,
        0u64..100_000,
        arb_doc_type(),
        0u64..1_000_000_000,
    )
        .prop_map(|(ts, doc, ty, size)| {
            Request::new(
                Timestamp::from_millis(ts),
                DocId::new(doc),
                ty,
                ByteSize::new(size),
            )
        })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(arb_request(), 0..200).prop_map(Trace::from)
}

/// Reads `bytes` as a text trace, which must return rather than panic;
/// an accepted trace holds at most one request per input line.
fn check_text_read(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(trace) = format::read_trace(bytes) {
        let lines = bytes.iter().filter(|&&b| b == b'\n').count() + 1;
        prop_assert!(
            trace.len() <= lines,
            "{} requests from {} lines",
            trace.len(),
            lines
        );
    }
    Ok(())
}

proptest! {
    /// write ∘ read is the identity on traces.
    #[test]
    fn format_roundtrip(trace in arb_trace()) {
        let text = format::to_string(&trace);
        let back = format::from_str(&text).unwrap();
        prop_assert_eq!(trace, back);
    }

    /// Aggregates are internally consistent for any trace.
    #[test]
    fn trace_aggregates_are_consistent(trace in arb_trace()) {
        let per_type_reqs: u64 = trace.requests_by_type().iter().map(|(_, &c)| c).sum();
        prop_assert_eq!(per_type_reqs, trace.len() as u64);

        let per_type_bytes: u64 = trace
            .requested_bytes_by_type()
            .iter()
            .map(|(_, b)| b.as_u64())
            .sum();
        prop_assert_eq!(per_type_bytes, trace.requested_bytes().as_u64());

        // The sort-based counts agree with the interner's.
        let dense = webcache_trace::DenseTrace::build(&trace);
        prop_assert_eq!(dense.distinct_documents(), trace.distinct_documents());
        prop_assert_eq!(dense.overall_size(), trace.overall_size());
        // Overall size (max per doc) never exceeds requested bytes summed
        // over more requests than documents... but always ≤ sum of all
        // transfer maxima, and 0 iff empty.
        prop_assert_eq!(trace.overall_size().is_zero(), trace.is_empty() ||
            trace.iter().all(|r| r.size.is_zero()));
    }

    /// The Squid parser never panics on arbitrary input lines.
    #[test]
    fn squid_parser_is_total(line in "\\PC{0,200}") {
        let _ = squid::parse_line(&line, 1);
    }

    /// A valid line with any `u64` of seconds and 0–6 fraction digits
    /// parses exactly when its time fits in `u64` milliseconds.
    #[test]
    fn squid_timestamps_parse_or_fail_cleanly(
        secs in prop_oneof![0..=u64::MAX, u64::MAX / 1000 - 1..=u64::MAX / 1000 + 1],
        frac in prop::option::of("[0-9]{1,6}"),
    ) {
        let (ts, millis) = match &frac {
            Some(f) => (format!("{secs}.{f}"), format!("{:0<3}", &f[..f.len().min(3)])),
            None => (secs.to_string(), "0".to_owned()),
        };
        let line = format!("{ts} 5 c TCP_MISS/200 1 GET http://e.de/x - DIRECT/- -");
        let want = u128::from(secs) * 1000 + millis.parse::<u128>().unwrap();
        let got = squid::parse_line(&line, 1).ok().map(|e| e.timestamp.as_millis());
        prop_assert_eq!(got, u64::try_from(want).ok());
    }

    /// The text trace reader never panics on arbitrary bytes.
    #[test]
    fn text_reader_is_total(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        check_text_read(&bytes)?;
    }

    /// Nor on a valid trace cut at a random offset with random bit flips.
    #[test]
    fn text_reader_is_total_on_damaged_traces(
        trace in arb_trace(),
        cut in 0.0f64..=1.0,
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 0..8),
    ) {
        let mut bytes = format::to_string(&trace).into_bytes();
        bytes.truncate((bytes.len() as f64 * cut) as usize);
        if !bytes.is_empty() {
            let len = bytes.len();
            for (at, bit) in flips {
                bytes[at % len] ^= 1 << bit;
            }
        }
        check_text_read(&bytes)?;
    }

    /// format_line ∘ parse_line preserves the retained fields.
    #[test]
    fn squid_roundtrip(
        ts in 0u64..2_000_000_000_000,
        elapsed in 0u64..100_000,
        status in prop::sample::select(vec![200u16, 203, 206, 300, 301, 302, 304, 404, 500]),
        size in 0u64..1_000_000_000,
        url in "http://[a-z]{1,10}\\.de/[a-zA-Z0-9_.-]{0,30}",
        mime in prop::option::of(prop::sample::select(vec![
            "text/html", "image/gif", "audio/mpeg", "application/pdf", "model/vrml",
        ])),
    ) {
        let entry = squid::LogEntry {
            timestamp: Timestamp::from_millis(ts),
            elapsed_ms: elapsed,
            client: "10.0.0.1".to_owned(),
            action: "TCP_MISS".to_owned(),
            status: status.into(),
            size: ByteSize::new(size),
            method: "GET".to_owned(),
            url,
            content_type: mime.map(str::to_owned),
        };
        let line = squid::format_line(&entry);
        let parsed = squid::parse_line(&line, 1).unwrap();
        prop_assert_eq!(entry, parsed);
    }

    /// Classification is total and stable: any (mime, url) pair maps to
    /// exactly one type, and MIME information takes precedence.
    #[test]
    fn classification_is_total(
        mime in prop::option::of("[a-z]{1,12}/[a-z0-9.+-]{1,16}"),
        url in "\\PC{0,100}",
    ) {
        let ty = DocumentType::classify(mime.as_deref(), &url);
        prop_assert!(DocumentType::ALL.contains(&ty));
        if let Some(m) = &mime {
            if let Some(from_mime) = DocumentType::from_mime(m) {
                prop_assert_eq!(ty, from_mime, "mime must win over the URL");
            }
        }
    }

    /// Warm-up boundaries bound the measured region correctly.
    #[test]
    fn warmup_boundary_in_range(trace in arb_trace(), frac in 0.0f64..0.999) {
        let b = trace.warmup_boundary(frac);
        prop_assert!(b <= trace.len());
        // The boundary grows monotonically with the fraction.
        let b2 = trace.warmup_boundary((frac / 2.0).min(0.998));
        prop_assert!(b2 <= b);
    }
}

mod canonical_props {
    use proptest::prelude::*;
    use webcache_trace::canonical::canonicalize;
    use webcache_trace::format_bin;
    use webcache_trace::Trace;

    proptest! {
        /// Canonicalization is idempotent and total.
        #[test]
        fn canonicalize_is_idempotent(url in "\\PC{0,120}") {
            let once = canonicalize(&url);
            let twice = canonicalize(&once);
            prop_assert_eq!(once, twice);
        }

        /// Host-case and default-port variants of the same http URL
        /// always unify.
        #[test]
        fn http_variants_unify(
            host in "[a-zA-Z][a-zA-Z0-9.-]{0,20}",
            path in "(/[a-zA-Z0-9._-]{0,12}){0,4}",
        ) {
            let a = canonicalize(&format!("http://{host}{path}"));
            let b = canonicalize(&format!("HTTP://{}:80{path}", host.to_ascii_uppercase()));
            prop_assert_eq!(a, b);
        }

        /// The binary trace format round-trips arbitrary traces.
        #[test]
        fn binary_roundtrip(trace in super::arb_trace()) {
            let bytes = format_bin::to_bytes(&trace);
            let back: Trace = format_bin::from_bytes(&bytes).unwrap();
            prop_assert_eq!(trace, back);
        }

        /// Corrupting any single header byte of a non-empty encoding is
        /// either detected as an error or yields a different trace —
        /// never a silent wrong success that equals the original with a
        /// different header.
        #[test]
        fn binary_header_corruption_is_detected(
            trace in super::arb_trace(),
            byte in 0usize..8,
            flip in 1u8..255,
        ) {
            let mut bytes = format_bin::to_bytes(&trace);
            bytes[byte] ^= flip;
            match format_bin::from_bytes(&bytes) {
                Err(_) => {}
                Ok(back) => {
                    // Flipping reserved bytes (5..8) is tolerated; the
                    // payload must still round-trip exactly.
                    prop_assert!((5..8).contains(&byte));
                    prop_assert_eq!(back, trace);
                }
            }
        }
    }
}

mod dense_props {
    use std::collections::HashMap;

    use proptest::prelude::*;
    use webcache_trace::format_bin;
    use webcache_trace::{ByteSize, DenseTrace, DocId, Request, Timestamp, Trace};

    /// Traces whose document ids fall in the interner's direct tier
    /// (`mix` 0: ids below the record count), its hash tier (`mix` 1:
    /// ids at or above the record count, some at or beyond 2^32), or a
    /// mix of both (`mix` 2).
    fn arb_interned_trace() -> impl Strategy<Value = Trace> {
        (
            0u8..3,
            prop::collection::vec(
                (0u8..3, 0u64..64, super::arb_doc_type(), 0u64..1_000_000),
                0..200,
            ),
        )
            .prop_map(|(mix, picks)| {
                let records = picks.len() as u64;
                picks
                    .iter()
                    .enumerate()
                    .map(|(i, &(pick, raw, ty, size))| {
                        let tier = match mix {
                            0 => 0,
                            1 => 1 + pick % 2,
                            _ => pick,
                        };
                        let doc = match tier {
                            0 => raw % records,
                            1 => records + raw,
                            _ if raw % 2 == 0 => (1 << 32) + raw,
                            _ => u64::MAX - raw,
                        };
                        Request::new(
                            Timestamp::from_millis(i as u64),
                            DocId::new(doc),
                            ty,
                            ByteSize::new(size),
                        )
                    })
                    .collect()
            })
    }

    proptest! {
        /// Decoding a binary trace straight into the dense view equals
        /// building it from the decoded trace, its overall size equals
        /// the trace's, and slots number documents in first-appearance
        /// order — for ids in either interner tier.
        #[test]
        fn wctb_decode_equals_build_in_both_tiers(trace in arb_interned_trace()) {
            let built = DenseTrace::build(&trace);
            let decoded = DenseTrace::from_wctb_bytes(&format_bin::to_bytes(&trace)).unwrap();
            prop_assert_eq!(&decoded, &built);
            prop_assert_eq!(built.overall_size(), trace.overall_size());
            prop_assert_eq!(built.len(), trace.len());

            let mut first_seen: HashMap<u64, u32> = HashMap::new();
            for (request, &slot) in trace.iter().zip(built.docs()) {
                let next = first_seen.len() as u32;
                let want = *first_seen.entry(request.doc.as_u64()).or_insert(next);
                prop_assert_eq!(slot, want);
            }
            prop_assert_eq!(built.distinct_documents(), first_seen.len());
            prop_assert_eq!(built.distinct_documents(), trace.distinct_documents());
        }
    }
}
