//! Reference concentration and one-timer analysis.
//!
//! Arlitt & Williamson's workload characterization (the paper's
//! reference \[2\]) popularized two summary views of popularity skew that
//! complement the slope α:
//!
//! * the **concentration curve** — the fraction of all requests absorbed
//!   by the most popular `x` fraction of documents ("10 % of documents
//!   receive 90 % of requests"), and
//! * the **one-timer share** — the fraction of documents referenced
//!   exactly once, which web caches store but never profit from.
//!
//! Both drive replacement-policy behaviour directly: high concentration
//! rewards frequency awareness (LFU-DA, GD\*), a large one-timer share
//! rewards admission filters and fast demotion (SLRU).

use serde::{Deserialize, Serialize};

use webcache_trace::{DenseTrace, DocumentType};

use crate::popularity::request_counts;

/// Summary of popularity concentration in a request stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Concentration {
    /// Per-document reference counts, descending.
    counts: Vec<u64>,
    /// Total number of requests.
    total: u64,
}

impl Concentration {
    /// Measures a trace, optionally restricted to one document type.
    pub fn measure(trace: &DenseTrace, doc_type: Option<DocumentType>) -> Self {
        let mut counts = request_counts(trace, doc_type);
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total = counts.iter().sum();
        Concentration { counts, total }
    }

    /// Number of distinct documents.
    pub fn documents(&self) -> usize {
        self.counts.len()
    }

    /// Total requests.
    pub fn requests(&self) -> u64 {
        self.total
    }

    /// Fraction of requests going to the most popular `doc_fraction` of
    /// documents (`0 ≤ doc_fraction ≤ 1`).
    ///
    /// # Panics
    ///
    /// Panics when `doc_fraction` is outside `[0, 1]`.
    ///
    /// ```
    /// use webcache_stats::concentration::Concentration;
    /// use webcache_trace::{DenseTrace, DocumentType};
    ///
    /// // doc 0 gets 9 requests, docs 1..=9 one each.
    /// let trace = DenseTrace::from_requests(
    ///     (0..18u32).map(|i| (if i < 9 { 0 } else { u64::from(i) - 8 }, 1, DocumentType::Html)),
    /// );
    /// let c = Concentration::measure(&trace, None);
    /// assert_eq!(c.request_share_of_top(0.1), 0.5); // top 1 of 10 docs = 9/18
    /// ```
    pub fn request_share_of_top(&self, doc_fraction: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&doc_fraction),
            "document fraction out of range"
        );
        if self.total == 0 {
            return 0.0;
        }
        let k = (self.counts.len() as f64 * doc_fraction).round() as usize;
        let head: u64 = self.counts.iter().take(k).sum();
        head as f64 / self.total as f64
    }

    /// Fraction of documents referenced exactly once.
    pub fn one_timer_share(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        let ones = self.counts.iter().filter(|&&c| c == 1).count();
        ones as f64 / self.counts.len() as f64
    }

    /// Fraction of *requests* that go to one-timer documents (each such
    /// request is an unavoidable miss).
    pub fn one_timer_request_share(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let ones = self.counts.iter().filter(|&&c| c == 1).count();
        ones as f64 / self.total as f64
    }

    /// The maximum achievable hit rate of any cache on this stream: every
    /// non-first reference hits (ignoring modifications).
    pub fn hit_rate_ceiling(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        (self.total - self.counts.len() as u64) as f64 / self.total as f64
    }

    /// `(document share, request share)` points of the concentration
    /// curve at the given resolution, suitable for plotting.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "a curve needs at least two points");
        (0..=points)
            .map(|i| {
                let x = i as f64 / points as f64;
                (x, self.request_share_of_top(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_from_counts(counts: &[u64]) -> DenseTrace {
        let mut reqs = Vec::new();
        for (doc, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                reqs.push((doc as u64, 1, DocumentType::Html));
            }
        }
        DenseTrace::from_requests(reqs)
    }

    #[test]
    fn skewed_stream_concentrates() {
        let c = Concentration::measure(&trace_from_counts(&[90, 1, 1, 1, 1, 1, 1, 1, 1, 1]), None);
        assert_eq!(c.documents(), 10);
        assert_eq!(c.requests(), 99);
        assert!((c.request_share_of_top(0.1) - 90.0 / 99.0).abs() < 1e-12);
        assert_eq!(c.request_share_of_top(1.0), 1.0);
        assert_eq!(c.request_share_of_top(0.0), 0.0);
    }

    #[test]
    fn one_timer_measures() {
        let c = Concentration::measure(&trace_from_counts(&[5, 1, 1, 1]), None);
        assert_eq!(c.one_timer_share(), 0.75);
        assert_eq!(c.one_timer_request_share(), 3.0 / 8.0);
        // Ceiling: 8 requests, 4 compulsory misses.
        assert_eq!(c.hit_rate_ceiling(), 0.5);
    }

    #[test]
    fn uniform_stream_has_linear_curve() {
        let c = Concentration::measure(&trace_from_counts(&[3; 50]), None);
        for (x, y) in c.curve(10) {
            assert!((x - y).abs() < 0.05, "({x}, {y})");
        }
        assert_eq!(c.one_timer_share(), 0.0);
    }

    #[test]
    fn curve_is_monotone_and_concave_for_any_stream() {
        let c = Concentration::measure(&trace_from_counts(&[13, 8, 5, 3, 2, 1, 1, 1]), None);
        let curve = c.curve(8);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "monotone");
        }
        // Increments are non-increasing (counts sorted descending).
        let increments: Vec<f64> = curve.windows(2).map(|w| w[1].1 - w[0].1).collect();
        for w in increments.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "concave: {increments:?}");
        }
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let c = Concentration::measure(&DenseTrace::default(), None);
        assert_eq!(c.documents(), 0);
        assert_eq!(c.request_share_of_top(0.5), 0.0);
        assert_eq!(c.one_timer_share(), 0.0);
        assert_eq!(c.hit_rate_ceiling(), 0.0);
    }

    #[test]
    fn type_filter_restricts() {
        let mut reqs = Vec::new();
        for i in 0..4u64 {
            reqs.push((0, 1, DocumentType::Image));
            reqs.push((10 + i, 1, DocumentType::Html));
        }
        let t = DenseTrace::from_requests(reqs);
        let img = Concentration::measure(&t, Some(DocumentType::Image));
        assert_eq!(img.documents(), 1);
        assert_eq!(img.requests(), 4);
        let html = Concentration::measure(&t, Some(DocumentType::Html));
        assert_eq!(html.one_timer_share(), 1.0);
    }

    #[test]
    #[should_panic(expected = "document fraction")]
    fn rejects_bad_fraction() {
        let c = Concentration::measure(&DenseTrace::default(), None);
        let _ = c.request_share_of_top(1.5);
    }
}
