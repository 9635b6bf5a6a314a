//! LRU stack-distance analysis.
//!
//! The *stack distance* of a reference is the number of distinct
//! documents touched since the previous reference to the same document —
//! equivalently, the document's depth in an LRU stack at the moment of
//! the reference. The distribution of stack distances is the classic
//! quantitative handle on temporal locality (the property Sections 2 and
//! 4 of the paper reason about via β): a reference with stack distance
//! `d` hits in *any* LRU cache holding at least `d` documents, so the
//! cumulative distribution *is* LRU's hit-rate-vs-capacity curve in the
//! uniform-size case.
//!
//! The computation uses the standard Fenwick-tree formulation: positions
//! of most-recent references are marked in a bit-indexed tree, and the
//! distance is the count of marked positions after the document's last
//! position — `O(log n)` per reference, `O(n log n)` per trace.

use serde::{Deserialize, Serialize};

use webcache_trace::{DenseTrace, DocumentType};

/// A Fenwick (binary indexed) tree over request positions.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Adds `delta` at 0-based position `i`.
    fn add(&mut self, i: usize, delta: i32) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based).
    fn prefix_sum(&self, i: usize) -> u32 {
        let mut i = i + 1;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Total marked positions.
    fn total(&self) -> u32 {
        if self.tree.len() > 1 {
            self.prefix_sum(self.tree.len() - 2)
        } else {
            0
        }
    }
}

/// The stack-distance profile of a trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StackDistances {
    /// `histogram[d]` counts re-references at stack distance `d`
    /// (`d ≥ 1`; index 0 is unused).
    histogram: Vec<u64>,
    /// Cold (first-reference) accesses, which have no stack distance.
    cold: u64,
    /// Total references analyzed.
    total: u64,
}

impl StackDistances {
    /// Computes the stack-distance histogram of `trace`, optionally
    /// restricted to references to one document type (distances still
    /// count intervening distinct documents of *that type's* substream,
    /// matching a per-type cache).
    pub fn measure(trace: &DenseTrace, doc_type: Option<DocumentType>) -> Self {
        // Collect the (possibly filtered) reference stream.
        let refs: Vec<usize> = crate::popularity::requests_of(trace, doc_type)
            .map(|(_, slot)| slot)
            .collect();

        let n = refs.len();
        let mut fenwick = Fenwick::new(n);
        let mut last_pos: Vec<Option<usize>> = vec![None; trace.distinct_documents()];
        let mut histogram: Vec<u64> = Vec::new();
        let mut cold = 0u64;

        for (pos, &slot) in refs.iter().enumerate() {
            match last_pos[slot].replace(pos) {
                None => {
                    cold += 1;
                }
                Some(prev) => {
                    // Distinct documents touched strictly after `prev`:
                    // marked most-recent positions in (prev, pos).
                    let after_prev = fenwick.total() - fenwick.prefix_sum(prev);
                    let distance = after_prev as usize + 1; // include the doc itself
                    if histogram.len() <= distance {
                        histogram.resize(distance + 1, 0);
                    }
                    histogram[distance] += 1;
                    fenwick.add(prev, -1);
                }
            }
            fenwick.add(pos, 1);
        }

        StackDistances {
            histogram,
            cold,
            total: n as u64,
        }
    }

    /// Total references analyzed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// First references (compulsory misses).
    pub fn cold_references(&self) -> u64 {
        self.cold
    }

    /// Number of re-references at exactly stack distance `d`.
    pub fn at(&self, d: usize) -> u64 {
        self.histogram.get(d).copied().unwrap_or(0)
    }

    /// The largest observed stack distance.
    pub fn max_distance(&self) -> usize {
        self.histogram.len().saturating_sub(1)
    }

    /// Predicted LRU hit rate for a cache holding `capacity_docs`
    /// documents (uniform-size idealization): the fraction of references
    /// with stack distance ≤ capacity.
    pub fn lru_hit_rate(&self, capacity_docs: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self.histogram.iter().take(capacity_docs + 1).sum();
        hits as f64 / self.total as f64
    }

    /// Mean stack distance over re-references, `None` when the trace has
    /// no re-references.
    pub fn mean_distance(&self) -> Option<f64> {
        let rerefs: u64 = self.histogram.iter().sum();
        if rerefs == 0 {
            return None;
        }
        let weighted: u64 = self
            .histogram
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        Some(weighted as f64 / rerefs as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(docs: &[u64]) -> DenseTrace {
        DenseTrace::from_requests(docs.iter().map(|&d| (d, 1, DocumentType::Html)))
    }

    #[test]
    fn textbook_example() {
        // Stream: a b c a — `a`'s re-reference sees {b, c, a} -> depth 3.
        let s = StackDistances::measure(&trace(&[0, 1, 2, 0]), None);
        assert_eq!(s.cold_references(), 3);
        assert_eq!(s.at(3), 1);
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn immediate_rereference_is_distance_one() {
        let s = StackDistances::measure(&trace(&[7, 7, 7]), None);
        assert_eq!(s.cold_references(), 1);
        assert_eq!(s.at(1), 2);
        assert_eq!(s.mean_distance(), Some(1.0));
    }

    #[test]
    fn distance_counts_distinct_not_raw_requests() {
        // a b b b a: between the two a's there are 3 requests but only
        // one distinct document -> distance 2.
        let s = StackDistances::measure(&trace(&[0, 1, 1, 1, 0]), None);
        assert_eq!(s.at(2), 1);
        assert_eq!(s.at(1), 2, "the two immediate b re-references");
    }

    #[test]
    fn lru_hit_rate_matches_cdf() {
        // Cyclic stream over 3 docs: every re-reference at distance 3.
        let s = StackDistances::measure(&trace(&[0, 1, 2, 0, 1, 2, 0, 1, 2]), None);
        assert_eq!(s.lru_hit_rate(2), 0.0, "cache of 2 never hits");
        assert!((s.lru_hit_rate(3) - 6.0 / 9.0).abs() < 1e-12);
        assert_eq!(s.max_distance(), 3);
    }

    /// Differential test against the quadratic reference implementation.
    #[test]
    fn matches_naive_implementation() {
        let mut state = 777u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % 30
        };
        let stream: Vec<u64> = (0..600).map(|_| next()).collect();
        let fast = StackDistances::measure(&trace(&stream), None);

        // Naive: walk an explicit LRU stack.
        let mut stack: Vec<u64> = Vec::new();
        let mut naive: Vec<u64> = Vec::new();
        let mut cold = 0u64;
        for &d in &stream {
            match stack.iter().position(|&x| x == d) {
                None => cold += 1,
                Some(pos) => {
                    let dist = pos + 1;
                    if naive.len() <= dist {
                        naive.resize(dist + 1, 0);
                    }
                    naive[dist] += 1;
                    stack.remove(pos);
                }
            }
            stack.insert(0, d);
        }
        assert_eq!(fast.cold_references(), cold);
        for d in 0..naive.len().max(fast.max_distance() + 1) {
            assert_eq!(fast.at(d), naive.get(d).copied().unwrap_or(0), "d = {d}");
        }
    }

    #[test]
    fn per_type_substream() {
        // Image refs interleaved with html noise; image distances are
        // measured within the image substream only.
        let reqs = DenseTrace::from_requests([
            (1, 1, DocumentType::Image),
            (2, 1, DocumentType::Html),
            (3, 1, DocumentType::Html),
            (1, 1, DocumentType::Image),
        ]);
        let s = StackDistances::measure(&reqs, Some(DocumentType::Image));
        assert_eq!(s.total(), 2);
        assert_eq!(s.at(1), 1, "no other images intervened");
    }

    #[test]
    fn empty_and_cold_only() {
        let s = StackDistances::measure(&DenseTrace::default(), None);
        assert_eq!(s.total(), 0);
        assert_eq!(s.lru_hit_rate(100), 0.0);
        assert_eq!(s.mean_distance(), None);
        let s = StackDistances::measure(&trace(&[1, 2, 3]), None);
        assert_eq!(s.cold_references(), 3);
        assert_eq!(s.mean_distance(), None);
    }
}
