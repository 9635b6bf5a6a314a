//! Popularity-slope (α) estimation.
//!
//! The number of requests `N` to a document is proportional to its
//! popularity rank ρ to the power −α: `N ∝ ρ^−α` (a Zipf-like law). The
//! paper determines α as the slope of the log/log plot of reference count
//! against popularity rank; large α means a few extremely popular
//! documents (images), small α means requests spread evenly (multi media,
//! application).
//!
//! Fitting every `(rank, count)` point directly over-weights the huge
//! singleton tail, so [`alpha_from_counts`] averages counts within
//! geometrically spaced rank bins before fitting — the standard remedy for
//! rank-frequency regression bias.

use webcache_trace::{DenseTrace, DocumentType};

use crate::regression::{fit_line_weighted, LineFit};

/// Estimates α from per-document request counts.
///
/// Returns `None` when fewer than two distinct documents are present.
/// The returned α is non-negative (the magnitude of the fitted log-log
/// slope).
///
/// ```
/// use webcache_stats::popularity::alpha_from_counts;
///
/// // counts ∝ rank^-1 over 1000 documents.
/// let counts: Vec<u64> = (1..=1000u64).map(|r| (100_000 / r).max(1)).collect();
/// let alpha = alpha_from_counts(&counts).unwrap();
/// assert!((alpha - 1.0).abs() < 0.15, "alpha = {alpha}");
/// ```
pub fn alpha_from_counts(counts: &[u64]) -> Option<f64> {
    alpha_fit_from_counts(counts).map(|fit| (-fit.slope).max(0.0))
}

/// Like [`alpha_from_counts`] but exposes the full fit (slope sign,
/// intercept, R²) for diagnostic plots.
pub fn alpha_fit_from_counts(counts: &[u64]) -> Option<LineFit> {
    let mut sorted: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
    if sorted.len() < 2 {
        return None;
    }
    sorted.sort_unstable_by(|a, b| b.cmp(a));

    // Geometric rank bins: [1,2), [2,4), [4,8), ... Average the counts in
    // each bin and weight the point by the bin's population.
    let mut points = Vec::new();
    let mut lo = 0usize; // 0-based start rank of the current bin
    while lo < sorted.len() {
        let hi = ((lo + 1) * 2 - 1).min(sorted.len()); // exclusive
        let slice = &sorted[lo..hi];
        let mean_count = slice.iter().sum::<u64>() as f64 / slice.len() as f64;
        // Geometric mean of the bin's rank range as the representative x.
        let rank_lo = (lo + 1) as f64;
        let rank_hi = hi as f64;
        let rank = (rank_lo * rank_hi).sqrt();
        if mean_count > 0.0 {
            points.push((rank.ln(), mean_count.ln(), slice.len() as f64));
        }
        lo = hi;
    }
    fit_line_weighted(&points)
}

/// The `(position, slot)` of every request of `trace`, or of those of
/// type `doc_type` when one is given.
pub(crate) fn requests_of(
    trace: &DenseTrace,
    doc_type: Option<DocumentType>,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    let want = doc_type.map(|ty| ty.index() as u8);
    trace
        .docs()
        .iter()
        .zip(trace.type_indices())
        .enumerate()
        .filter(move |&(_, (_, &ty))| want.is_none_or(|want| want == ty))
        .map(|(position, (&slot, _))| (position, slot as usize))
}

/// Per-slot request counts, of requests of type `doc_type` only when
/// one is given.
pub(crate) fn slot_counts(trace: &DenseTrace, doc_type: Option<DocumentType>) -> Vec<u64> {
    let mut counts = vec![0; trace.distinct_documents()];
    for (_, slot) in requests_of(trace, doc_type) {
        counts[slot] += 1;
    }
    counts
}

/// Per-document request counts of a trace (in slot order), optionally
/// restricted to one document type.
pub fn request_counts(trace: &DenseTrace, doc_type: Option<DocumentType>) -> Vec<u64> {
    let mut counts = slot_counts(trace, doc_type);
    counts.retain(|&count| count > 0);
    counts
}

/// Estimates α for a whole trace or a single document type within it.
///
/// Returns `None` when the (filtered) trace references fewer than two
/// distinct documents.
pub fn alpha(trace: &DenseTrace, doc_type: Option<DocumentType>) -> Option<f64> {
    alpha_from_counts(&request_counts(trace, doc_type))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_counts(n: u64, alpha: f64, scale: f64) -> Vec<u64> {
        (1..=n)
            .map(|r| ((scale * (r as f64).powf(-alpha)).round() as u64).max(1))
            .collect()
    }

    #[test]
    fn recovers_steep_slope() {
        let counts = zipf_counts(2000, 1.4, 1e6);
        let a = alpha_from_counts(&counts).unwrap();
        assert!((a - 1.4).abs() < 0.2, "alpha = {a}");
    }

    #[test]
    fn recovers_shallow_slope() {
        let counts = zipf_counts(2000, 0.6, 1e5);
        let a = alpha_from_counts(&counts).unwrap();
        assert!((a - 0.6).abs() < 0.2, "alpha = {a}");
    }

    #[test]
    fn uniform_popularity_gives_near_zero_alpha() {
        let counts = vec![50u64; 500];
        let a = alpha_from_counts(&counts).unwrap();
        assert!(a < 0.05, "alpha = {a}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(alpha_from_counts(&[]), None);
        assert_eq!(alpha_from_counts(&[7]), None);
        assert_eq!(
            alpha_from_counts(&[0, 0, 0]),
            None,
            "zero counts are dropped"
        );
    }

    #[test]
    fn per_type_counts_filter() {
        let trace = DenseTrace::from_requests([
            (1, 1, DocumentType::Image),
            (1, 1, DocumentType::Image),
            (2, 1, DocumentType::Html),
        ]);
        assert_eq!(request_counts(&trace, Some(DocumentType::Image)), vec![2]);
        assert_eq!(request_counts(&trace, Some(DocumentType::Html)), vec![1]);
        assert_eq!(request_counts(&trace, None), vec![2, 1]);
    }

    #[test]
    fn order_of_counts_does_not_matter() {
        let mut counts = zipf_counts(1000, 1.0, 1e5);
        let a1 = alpha_from_counts(&counts).unwrap();
        counts.reverse();
        let a2 = alpha_from_counts(&counts).unwrap();
        assert_eq!(a1, a2);
    }
}
