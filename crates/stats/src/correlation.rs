//! Temporal-correlation slope (β) estimation.
//!
//! Temporal correlation captures the time between two successive
//! references to the *same* document: the probability that a document is
//! requested again after `n` intervening requests is `P ∝ n^−β` for
//! equally popular documents (paper, Section 2). Large β means strong
//! short-term correlation (multi media, application documents); small β
//! means nearly uncorrelated successive requests (images).
//!
//! β is measured from the distribution of inter-reference gaps — the
//! number of requests in the overall stream between successive references
//! to a document — fitted on a log/log scale over a base-2 bucketed
//! histogram.

use serde::{Deserialize, Serialize};

use webcache_trace::{DenseTrace, DocumentType};

use crate::popularity::{requests_of, slot_counts};
use crate::regression::{fit_line_weighted, LineFit};

/// Range of β values considered physical; fits are clamped into it.
pub const BETA_RANGE: (f64, f64) = (0.05, 4.0);

/// A base-2 log-bucketed histogram of inter-reference gaps.
///
/// `buckets[b]` counts gaps in `[2^b, 2^(b+1))`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GapHistogram {
    buckets: Vec<u64>,
    samples: u64,
}

impl Default for GapHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl GapHistogram {
    /// Creates an empty histogram covering gaps up to 2^48.
    pub fn new() -> Self {
        GapHistogram {
            buckets: vec![0; 48],
            samples: 0,
        }
    }

    /// Records one gap (clamped to ≥ 1).
    pub fn record(&mut self, gap: u64) {
        let gap = gap.max(1);
        let bucket = (63 - gap.leading_zeros()) as usize;
        let bucket = bucket.min(self.buckets.len() - 1);
        self.buckets[bucket] += 1;
        self.samples += 1;
    }

    /// Number of recorded gaps.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &GapHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.samples += other.samples;
    }

    /// Fits `log density = −β · log gap + c` by count-weighted least
    /// squares over the non-empty buckets. Returns `None` with fewer than
    /// two populated buckets.
    pub fn beta_fit(&self) -> Option<LineFit> {
        let mut points = Vec::new();
        for (b, &count) in self.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let width = (1u64 << b) as f64;
            let center = 1.5 * width;
            let density = count as f64 / (self.samples as f64 * width);
            points.push((center.ln(), density.ln(), count as f64));
        }
        fit_line_weighted(&points)
    }

    /// The fitted β (the magnitude of the negative slope), clamped to
    /// [`BETA_RANGE`].
    pub fn beta(&self) -> Option<f64> {
        self.beta_fit()
            .map(|fit| (-fit.slope).clamp(BETA_RANGE.0, BETA_RANGE.1))
    }
}

/// Collects the inter-reference gap histogram of a trace.
///
/// Gaps are measured in positions of the *overall* request stream. When
/// `doc_type` is given, only references to documents of that type
/// contribute gaps (but positions still count every request, matching how
/// the paper breaks β down by type). Only documents whose total reference
/// count lies in `[min_count, max_count]` contribute, which implements the
/// "equally popular documents" control — pass `(2, u64::MAX)` to use every
/// re-referenced document.
pub fn gap_histogram(
    trace: &DenseTrace,
    doc_type: Option<DocumentType>,
    min_count: u64,
    max_count: u64,
) -> GapHistogram {
    // Pass 1: total reference count per document (under the type filter).
    let counts = slot_counts(trace, doc_type);
    // Pass 2: gaps for documents within the popularity band.
    let mut last_pos: Vec<Option<u64>> = vec![None; counts.len()];
    let mut hist = GapHistogram::new();
    for (pos, slot) in requests_of(trace, doc_type) {
        if !(min_count..=max_count).contains(&counts[slot]) {
            continue;
        }
        let pos = pos as u64;
        if let Some(prev) = last_pos[slot].replace(pos) {
            hist.record(pos - prev);
        }
    }
    hist
}

/// Estimates β for a trace, optionally restricted to one document type.
///
/// Uses every document referenced at least twice. Returns `None` when the
/// gap histogram populates fewer than two buckets.
pub fn beta(trace: &DenseTrace, doc_type: Option<DocumentType>) -> Option<f64> {
    gap_histogram(trace, doc_type, 2, u64::MAX).beta()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(doc: u64, ty: DocumentType) -> (u64, u64, DocumentType) {
        (doc, 1, ty)
    }

    fn trace(requests: Vec<(u64, u64, DocumentType)>) -> DenseTrace {
        DenseTrace::from_requests(requests)
    }

    /// Builds a trace where one document's re-references arrive with the
    /// given gaps, padded with unique one-shot documents.
    fn trace_with_gaps(gaps: &[u64]) -> DenseTrace {
        let mut requests = Vec::new();
        let mut filler = 1000u64;
        requests.push(req(0, DocumentType::Html));
        for &g in gaps {
            for _ in 0..g.saturating_sub(1) {
                requests.push(req(filler, DocumentType::Other));
                filler += 1;
            }
            requests.push(req(0, DocumentType::Html));
        }
        trace(requests)
    }

    #[test]
    fn gaps_are_measured_in_stream_positions() {
        let t = trace_with_gaps(&[3, 1, 8]);
        let hist = gap_histogram(&t, Some(DocumentType::Html), 2, u64::MAX);
        assert_eq!(hist.samples(), 3);
    }

    #[test]
    fn popularity_band_filters_documents() {
        let t = trace_with_gaps(&[2, 2, 2]); // doc 0 has 4 references
        assert_eq!(gap_histogram(&t, None, 5, u64::MAX).samples(), 0);
        assert_eq!(gap_histogram(&t, None, 4, 4).samples(), 3);
    }

    #[test]
    fn beta_recovers_power_law_gaps() {
        // Draw gaps from P(n) ∝ n^-1.5 over 1..2047 via inverse CDF.
        let target = 1.5;
        let max_gap = 2047u64;
        let norm: f64 = (1..=max_gap).map(|n| (n as f64).powf(-target)).sum();
        let mut gaps = Vec::new();
        for i in 0..30_000u64 {
            let u = (i as f64 + 0.5) / 30_000.0;
            let mut acc = 0.0;
            let mut chosen = max_gap;
            for n in 1..=max_gap {
                acc += (n as f64).powf(-target) / norm;
                if acc >= u {
                    chosen = n;
                    break;
                }
            }
            gaps.push(chosen);
        }
        let mut hist = GapHistogram::new();
        for g in gaps {
            hist.record(g);
        }
        let beta = hist.beta().unwrap();
        assert!((beta - target).abs() < 0.25, "beta = {beta}");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = GapHistogram::new();
        a.record(1);
        let mut b = GapHistogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.samples(), 2);
        assert!(a.beta_fit().is_some());
    }

    #[test]
    fn single_bucket_has_no_beta() {
        let mut h = GapHistogram::new();
        for _ in 0..50 {
            h.record(3);
        }
        assert_eq!(h.beta(), None);
    }

    #[test]
    fn type_filter_excludes_other_types() {
        let t = trace(vec![
            req(0, DocumentType::Html),
            req(1, DocumentType::Image),
            req(1, DocumentType::Image),
            req(0, DocumentType::Html),
        ]);
        let html = gap_histogram(&t, Some(DocumentType::Html), 2, u64::MAX);
        assert_eq!(html.samples(), 1);
        let image = gap_histogram(&t, Some(DocumentType::Image), 2, u64::MAX);
        assert_eq!(image.samples(), 1);
    }

    #[test]
    fn beta_of_trivial_trace_is_none() {
        let t = trace(vec![req(0, DocumentType::Html)]);
        assert_eq!(beta(&t, None), None);
    }
}
