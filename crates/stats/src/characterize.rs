//! Full trace characterization — the data behind Tables 1–5 of the paper.

use serde::{Deserialize, Serialize};

use webcache_trace::{ByteSize, DenseTrace, DocumentType, TypeMap};

use crate::correlation;
use crate::descriptive::Summary;
use crate::popularity;
use crate::table::{fmt_opt, fmt_pct, Table};

/// Trace-level properties (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TraceProperties {
    /// Number of distinct documents.
    pub distinct_documents: u64,
    /// Sum of distinct document sizes ("Overall Size").
    pub overall_size: ByteSize,
    /// Number of requests.
    pub total_requests: u64,
    /// Total bytes transferred ("Requested Data").
    pub requested_bytes: ByteSize,
}

/// Per-type share of the workload (Tables 2 and 3), as fractions in
/// `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TypeBreakdown {
    /// Fraction of distinct documents of this type.
    pub distinct_documents: f64,
    /// Fraction of the overall size contributed by this type.
    pub overall_size: f64,
    /// Fraction of requests to this type.
    pub total_requests: f64,
    /// Fraction of requested bytes to this type.
    pub requested_bytes: f64,
}

/// Per-type size statistics and locality parameters (Tables 4 and 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TypeStatistics {
    /// Statistics of distinct-document sizes, in bytes.
    pub document_size: Summary,
    /// Statistics of per-request transfer sizes, in bytes.
    pub transfer_size: Summary,
    /// Popularity slope α (None when the type has < 2 distinct documents).
    pub alpha: Option<f64>,
    /// Temporal-correlation slope β (None when gaps populate < 2 buckets).
    pub beta: Option<f64>,
}

/// The complete characterization of a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceCharacterization {
    /// Table 1 quantities.
    pub properties: TraceProperties,
    /// Table 2/3 rows, one per document type.
    pub breakdown: TypeMap<TypeBreakdown>,
    /// Table 4/5 rows, one per document type.
    pub statistics: TypeMap<TypeStatistics>,
}

impl TraceCharacterization {
    /// Measures every characterization quantity of `trace`.
    ///
    /// A document's size is its largest transfer, and it counts under
    /// the type of its first request; requests and transfers count under
    /// their own types.
    pub fn measure(trace: &DenseTrace) -> Self {
        // Per slot: the document's size and type. Slots count up in
        // first-appearance order, so slot `s` is new when `s` are known.
        let mut docs: Vec<(ByteSize, DocumentType)> =
            Vec::with_capacity(trace.distinct_documents());
        let mut requests: TypeMap<u64> = TypeMap::default();
        let mut req_bytes: TypeMap<ByteSize> = TypeMap::default();
        let mut transfer_samples: TypeMap<Vec<f64>> = TypeMap::default();
        for index in 0..trace.len() {
            let (slot, size, ty) = trace.request(index);
            match docs.get_mut(slot as usize) {
                Some((max, _)) => *max = (*max).max(size),
                None => docs.push((size, ty)),
            }
            requests[ty] += 1;
            req_bytes[ty] += size;
            transfer_samples[ty].push(size.as_f64());
        }

        let properties = TraceProperties {
            distinct_documents: docs.len() as u64,
            overall_size: trace.overall_size(),
            total_requests: trace.len() as u64,
            // Saturating sums of non-negative sizes: grouping is free.
            requested_bytes: req_bytes.iter().map(|(_, &b)| b).sum(),
        };

        // Per-type document tallies.
        let mut distinct: TypeMap<u64> = TypeMap::default();
        let mut size_sum: TypeMap<ByteSize> = TypeMap::default();
        let mut doc_size_samples: TypeMap<Vec<f64>> = TypeMap::default();
        for &(size, ty) in &docs {
            distinct[ty] += 1;
            size_sum[ty] += size;
            doc_size_samples[ty].push(size.as_f64());
        }

        let frac = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        let breakdown = TypeMap::from_fn(|ty| TypeBreakdown {
            distinct_documents: frac(distinct[ty] as f64, properties.distinct_documents as f64),
            overall_size: frac(size_sum[ty].as_f64(), properties.overall_size.as_f64()),
            total_requests: frac(requests[ty] as f64, properties.total_requests as f64),
            requested_bytes: frac(req_bytes[ty].as_f64(), properties.requested_bytes.as_f64()),
        });

        let statistics = TypeMap::from_fn(|ty| TypeStatistics {
            document_size: Summary::from_samples(&doc_size_samples[ty]),
            transfer_size: Summary::from_samples(&transfer_samples[ty]),
            alpha: popularity::alpha(trace, Some(ty)),
            beta: correlation::beta(trace, Some(ty)),
        });

        TraceCharacterization {
            properties,
            breakdown,
            statistics,
        }
    }

    /// Renders the Table 1 analogue ("Properties of the trace").
    pub fn properties_table(&self, trace_name: &str) -> Table {
        let p = &self.properties;
        let mut t = Table::new(vec!["Property".into(), trace_name.into()])
            .with_title("Table 1. Properties of the trace");
        t.push_row(vec![
            "Distinct Documents".into(),
            p.distinct_documents.to_string(),
        ]);
        t.push_row(vec![
            "Overall Size (GB)".into(),
            format!("{:.2}", p.overall_size.as_gib()),
        ]);
        t.push_row(vec!["Total Requests".into(), p.total_requests.to_string()]);
        t.push_row(vec![
            "Requested Data (GB)".into(),
            format!("{:.2}", p.requested_bytes.as_gib()),
        ]);
        t
    }

    /// Renders the Table 2/3 analogue (per-type workload shares, in %).
    pub fn breakdown_table(&self, trace_name: &str) -> Table {
        let mut headers = vec!["".to_owned()];
        headers.extend(DocumentType::ALL.iter().map(|ty| ty.label().to_owned()));
        let mut t = Table::new(headers).with_title(format!(
            "{trace_name}: Workload characteristics broken down into document types (%)"
        ));
        type Row = (&'static str, fn(&TypeBreakdown) -> f64);
        let rows: [Row; 4] = [
            ("% of Distinct Documents", |b| b.distinct_documents),
            ("% of Overall Size", |b| b.overall_size),
            ("% of Total Requests", |b| b.total_requests),
            ("% of Requested Data", |b| b.requested_bytes),
        ];
        for (label, get) in rows {
            let mut row = vec![label.to_owned()];
            row.extend(
                DocumentType::ALL
                    .iter()
                    .map(|&ty| fmt_pct(get(&self.breakdown[ty]))),
            );
            t.push_row(row);
        }
        t
    }

    /// Renders the Table 4/5 analogue (per-type size statistics and
    /// locality parameters).
    pub fn statistics_table(&self, trace_name: &str) -> Table {
        const KIB: f64 = 1024.0;
        let mut headers = vec!["".to_owned()];
        headers.extend(DocumentType::ALL.iter().map(|ty| ty.label().to_owned()));
        let mut t = Table::new(headers).with_title(format!(
            "{trace_name}: Breakdown of document sizes and temporal locality"
        ));
        type Row = (&'static str, Box<dyn Fn(&TypeStatistics) -> String>);
        let rows: [Row; 8] = [
            (
                "Mean of Document Size (KB)",
                Box::new(|s: &TypeStatistics| format!("{:.2}", s.document_size.mean / KIB)),
            ),
            (
                "Median of Document Size (KB)",
                Box::new(|s| format!("{:.2}", s.document_size.median / KIB)),
            ),
            (
                "CoV of Document Size",
                Box::new(|s| format!("{:.2}", s.document_size.cov())),
            ),
            (
                "Mean of Transfer Size (KB)",
                Box::new(|s| format!("{:.2}", s.transfer_size.mean / KIB)),
            ),
            (
                "Median of Transfer Size (KB)",
                Box::new(|s| format!("{:.2}", s.transfer_size.median / KIB)),
            ),
            (
                "CoV of Transfer Size",
                Box::new(|s| format!("{:.2}", s.transfer_size.cov())),
            ),
            (
                "Slope of Popularity Distribution (alpha)",
                Box::new(|s| fmt_opt(s.alpha)),
            ),
            (
                "Degree of Temporal Correlation (beta)",
                Box::new(|s| fmt_opt(s.beta)),
            ),
        ];
        for (label, get) in rows {
            let mut row = vec![label.to_owned()];
            row.extend(
                DocumentType::ALL
                    .iter()
                    .map(|&ty| get(&self.statistics[ty])),
            );
            t.push_row(row);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_trace() -> DenseTrace {
        DenseTrace::from_requests([
            (0, 1000, DocumentType::Image),
            (1, 3000, DocumentType::Image),
            (0, 1000, DocumentType::Image),
            (2, 2000, DocumentType::Html),
            (3, 100_000, DocumentType::MultiMedia),
        ])
    }

    #[test]
    fn properties_match_trace() {
        let ch = TraceCharacterization::measure(&mixed_trace());
        assert_eq!(ch.properties.distinct_documents, 4);
        assert_eq!(ch.properties.total_requests, 5);
        assert_eq!(
            ch.properties.overall_size.as_u64(),
            1000 + 3000 + 2000 + 100_000
        );
        assert_eq!(
            ch.properties.requested_bytes.as_u64(),
            1000 + 3000 + 1000 + 2000 + 100_000
        );
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let ch = TraceCharacterization::measure(&mixed_trace());
        let sums = DocumentType::ALL.iter().fold([0.0; 4], |mut acc, &ty| {
            let b = &ch.breakdown[ty];
            acc[0] += b.distinct_documents;
            acc[1] += b.overall_size;
            acc[2] += b.total_requests;
            acc[3] += b.requested_bytes;
            acc
        });
        for s in sums {
            assert!((s - 1.0).abs() < 1e-9, "fractions must sum to 1, got {s}");
        }
    }

    #[test]
    fn breakdown_respects_type_shares() {
        let ch = TraceCharacterization::measure(&mixed_trace());
        let img = &ch.breakdown[DocumentType::Image];
        assert!((img.distinct_documents - 0.5).abs() < 1e-9);
        assert!((img.total_requests - 0.6).abs() < 1e-9);
        let mm = &ch.breakdown[DocumentType::MultiMedia];
        assert!(mm.requested_bytes > 0.9, "multimedia dominates bytes");
    }

    #[test]
    fn statistics_use_distinct_docs_for_document_size() {
        let ch = TraceCharacterization::measure(&mixed_trace());
        let img = &ch.statistics[DocumentType::Image];
        // Distinct image docs: 1000 and 3000 -> mean 2000.
        assert_eq!(img.document_size.mean, 2000.0);
        assert_eq!(img.document_size.count, 2);
        // Transfers: 1000, 3000, 1000 -> mean 5000/3.
        assert!((img.transfer_size.mean - 5000.0 / 3.0).abs() < 1e-9);
        assert_eq!(img.transfer_size.count, 3);
    }

    #[test]
    fn empty_types_have_default_stats() {
        let ch = TraceCharacterization::measure(&mixed_trace());
        let app = &ch.statistics[DocumentType::Application];
        assert_eq!(app.document_size.count, 0);
        assert_eq!(app.alpha, None);
        assert_eq!(app.beta, None);
    }

    #[test]
    fn tables_render_all_rows() {
        let ch = TraceCharacterization::measure(&mixed_trace());
        assert_eq!(ch.properties_table("DFN").len(), 4);
        assert_eq!(ch.breakdown_table("DFN").len(), 4);
        assert_eq!(ch.statistics_table("DFN").len(), 8);
        let text = ch.breakdown_table("DFN").render();
        assert!(text.contains("Multi Media"));
    }

    #[test]
    fn a_document_counts_under_the_type_of_its_first_request() {
        // Document 7 is requested as HTML first, then twice as an image.
        let trace = DenseTrace::from_requests([
            (7, 100, DocumentType::Html),
            (9, 50, DocumentType::Image),
            (7, 300, DocumentType::Image),
            (7, 200, DocumentType::Image),
        ]);
        let ch = TraceCharacterization::measure(&trace);
        let (html, image) = (DocumentType::Html, DocumentType::Image);
        assert_eq!(ch.breakdown[html].distinct_documents, 0.5);
        assert_eq!(ch.breakdown[image].distinct_documents, 0.5);
        assert_eq!(ch.statistics[html].document_size.mean, 300.0);
        assert_eq!(ch.breakdown[html].overall_size, 300.0 / 350.0);
        // Requests and transfers count under their own types.
        assert_eq!(ch.breakdown[html].total_requests, 0.25);
        assert_eq!(ch.statistics[image].transfer_size.count, 3);
    }

    #[test]
    fn empty_trace_characterization_is_all_zero() {
        let ch = TraceCharacterization::measure(&DenseTrace::default());
        assert_eq!(ch.properties, TraceProperties::default());
        assert_eq!(ch.breakdown[DocumentType::Image], TypeBreakdown::default());
    }
}
