//! The trace generator.
//!
//! Turns a [`WorkloadProfile`] into a concrete request stream in four
//! deterministic passes:
//!
//! 1. **Popularity** — every distinct document receives one request (so
//!    the distinct-document count of Table 1 is met exactly); the
//!    remaining per-type request budget is distributed by Zipf sampling
//!    with the type's slope α.
//! 2. **Placement** — each document's references are laid out on the
//!    continuous position axis with power-law gaps of slope β
//!    (see [`temporal`](crate::temporal)).
//! 3. **Merge** — all references are sorted by position into one stream.
//! 4. **Transfer sizes** — per-request sizes are derived from the
//!    document's size, injecting origin-server *modifications* (size
//!    change < 5%) and client-side *interrupted transfers* (≥ 5%
//!    shortfall) at the profile's rates, matching the simulator's
//!    detection rules (paper, Section 4.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp, Trace};

use crate::dist::{BoundedPowerLaw, Zipf};
use crate::profiles::WorkloadProfile;
use crate::temporal::place_references;

/// Deterministic trace generator. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
}

/// One reference before transfer-size assignment.
#[derive(Debug, Clone, Copy)]
struct PendingRef {
    position: f64,
    doc: u32,
}

impl TraceGenerator {
    /// Creates a generator for `profile`.
    ///
    /// # Panics
    ///
    /// Panics when the profile fails [`WorkloadProfile::validate`].
    pub fn new(profile: WorkloadProfile) -> Self {
        profile.validate();
        TraceGenerator { profile }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Generates the trace. The same `(profile, seed)` pair always yields
    /// the identical trace.
    pub fn generate(&self, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        let total_requests = self.profile.total_requests();
        let horizon = total_requests as f64;
        let max_gap = ((total_requests as f64 * self.profile.max_gap_fraction) as u64).max(64);

        let total_docs = self.profile.total_documents() as usize;
        let mut doc_type: Vec<DocumentType> = Vec::with_capacity(total_docs);
        let mut doc_size: Vec<u64> = Vec::with_capacity(total_docs);
        let mut refs: Vec<PendingRef> = Vec::with_capacity(total_requests as usize);

        for (ty, tp) in self.profile.types.iter() {
            if tp.distinct_documents == 0 {
                continue;
            }
            let base = doc_type.len() as u32;
            let n = tp.distinct_documents as usize;

            // Pass 1: popularity. One guaranteed request per document plus
            // Zipf-distributed extras.
            let mut counts = vec![1u64; n];
            if tp.requests > tp.distinct_documents && n > 1 {
                let zipf = Zipf::new(n, tp.alpha);
                for _ in 0..(tp.requests - tp.distinct_documents) {
                    counts[zipf.sample(&mut rng) - 1] += 1;
                }
            } else if n == 1 {
                counts[0] = tp.requests;
            }

            // Pass 1.5: sizes, rank-coupled to popularity. Real traces
            // show small documents to be disproportionately popular
            // (navigation icons vs one-shot downloads); the coupling
            // strength is the profile's size_popularity_correlation.
            let sizes = assign_sizes(&mut rng, tp, &counts);

            // Pass 2: placement with per-type temporal correlation.
            let gaps = BoundedPowerLaw::new(tp.beta, max_gap);
            for (i, &count) in counts.iter().enumerate() {
                let doc = base + i as u32;
                doc_type.push(ty);
                doc_size.push(sizes[i]);
                for position in place_references(&mut rng, count, horizon, &gaps) {
                    refs.push(PendingRef { position, doc });
                }
            }
        }

        // Pass 3: merge into one stream.
        refs.sort_unstable_by(|a, b| a.position.total_cmp(&b.position).then(a.doc.cmp(&b.doc)));

        // Pass 4: transfer sizes with modifications and interrupts.
        let mut seen = vec![false; doc_type.len()];
        let mut trace = Trace::with_capacity(refs.len());
        for (index, r) in refs.iter().enumerate() {
            let doc = r.doc as usize;
            let ty = doc_type[doc];
            let tp = &self.profile.types[ty];

            if seen[doc] && rng.gen::<f64>() < tp.modification_rate {
                // Origin-server modification: perturb the document size by
                // at least one byte but strictly less than 5%, the
                // signature the simulator's detector looks for.
                let size = doc_size[doc];
                let delta = ((size as f64 * rng.gen_range(0.005..0.045)) as u64).max(1);
                doc_size[doc] = if rng.gen::<bool>() {
                    size.saturating_add(delta)
                } else {
                    size.saturating_sub(delta).max(tp.size_model.min.max(1))
                };
            }
            let size = doc_size[doc];
            let transfer = if seen[doc] && rng.gen::<f64>() < tp.interrupt_rate {
                // Client interrupt: deliver only 5–80% of the document,
                // guaranteeing a ≥ 5% shortfall.
                ((size as f64 * rng.gen_range(0.05..0.80)) as u64).max(1)
            } else {
                size
            };
            seen[doc] = true;

            trace.push(Request::new(
                Timestamp::from_millis(index as u64 * 40),
                DocId::new(r.doc as u64),
                ty,
                ByteSize::new(transfer),
            ));
        }
        trace
    }
}

/// Draws one size per document and couples size rank to popularity rank
/// with the profile's `size_popularity_correlation` ρ.
///
/// A Gaussian-copula-style blend: each document receives a latent score
/// `ρ·popularity_percentile + (1−ρ)·U`, documents are sorted by score and
/// the ascending-sorted sizes are assigned in that order. ρ = 0 leaves
/// sizes independent of popularity; ρ = 1 makes the most popular document
/// exactly the smallest. The marginal size distribution is untouched.
fn assign_sizes<R: Rng + ?Sized>(
    rng: &mut R,
    tp: &crate::profiles::TypeProfile,
    counts: &[u64],
) -> Vec<u64> {
    let n = counts.len();
    let mut sizes: Vec<u64> = (0..n).map(|_| tp.size_model.sample(rng).as_u64()).collect();
    let rho = tp.size_popularity_correlation;
    if rho <= 0.0 || n < 2 {
        return sizes;
    }
    sizes.sort_unstable();

    // Popularity rank per document (0 = most requested).
    let mut by_pop: Vec<u32> = (0..n as u32).collect();
    by_pop.sort_unstable_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]));
    let mut pop_rank = vec![0u32; n];
    for (rank, &doc) in by_pop.iter().enumerate() {
        pop_rank[doc as usize] = rank as u32;
    }

    let mut scored: Vec<(f64, u32)> = (0..n as u32)
        .map(|doc| {
            let pct = pop_rank[doc as usize] as f64 / (n - 1) as f64;
            (rho * pct + (1.0 - rho) * rng.gen::<f64>(), doc)
        })
        .collect();
    scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut assigned = vec![0u64; n];
    for (j, &(_, doc)) in scored.iter().enumerate() {
        assigned[doc as usize] = sizes[j];
    }
    assigned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::TypeProfile;
    use crate::sizes::SizeModel;

    fn small_profile() -> WorkloadProfile {
        WorkloadProfile::dfn().scaled(1.0 / 1024.0)
    }

    #[test]
    fn determinism() {
        let p = small_profile();
        let a = p.build_trace(99);
        let b = p.build_trace(99);
        assert_eq!(a, b);
        let c = p.build_trace(100);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn request_and_document_budgets_are_exact() {
        let p = small_profile();
        let t = p.build_trace(1);
        assert_eq!(t.len() as u64, p.total_requests());
        assert_eq!(t.distinct_documents() as u64, p.total_documents());
    }

    #[test]
    fn per_type_request_counts_match_profile() {
        let p = small_profile();
        let t = p.build_trace(2);
        let by_type = t.requests_by_type();
        for (ty, tp) in p.types.iter() {
            assert_eq!(by_type[ty], tp.requests, "{ty}");
        }
    }

    #[test]
    fn timestamps_are_monotone() {
        let t = small_profile().build_trace(3);
        for w in t.requests().windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
    }

    #[test]
    fn transfer_sizes_are_positive() {
        let t = small_profile().build_trace(4);
        assert!(t.iter().all(|r| r.size.as_u64() >= 1));
    }

    #[test]
    fn interrupts_shrink_and_modifications_nudge() {
        // A one-document profile with aggressive rates so both effects
        // appear in a short trace.
        let mut p = WorkloadProfile::empty("synthetic");
        p.types[DocumentType::MultiMedia] = TypeProfile {
            distinct_documents: 1,
            requests: 400,
            alpha: 0.5,
            beta: 1.0,
            size_model: SizeModel::log_normal(1_000_000.0, 1_000_000.0, 1000, 10_000_000),
            modification_rate: 0.2,
            interrupt_rate: 0.2,
            size_popularity_correlation: 0.0,
        };
        let t = p.build_trace(5);
        let sizes: Vec<u64> = t.iter().map(|r| r.size.as_u64()).collect();
        let mut small_changes = 0;
        let mut large_changes = 0;
        for w in sizes.windows(2) {
            let (a, b) = (w[0] as f64, w[1] as f64);
            let rel = (b - a).abs() / a.max(b);
            if rel == 0.0 {
                continue;
            } else if rel < 0.05 {
                small_changes += 1;
            } else {
                large_changes += 1;
            }
        }
        assert!(small_changes > 0, "expected modification events");
        assert!(large_changes > 0, "expected interrupted transfers");
    }

    #[test]
    fn single_type_profile_generates_only_that_type() {
        let mut p = WorkloadProfile::empty("html-only");
        p.types[DocumentType::Html] = TypeProfile {
            distinct_documents: 50,
            requests: 300,
            alpha: 0.8,
            beta: 0.9,
            size_model: SizeModel::log_normal(8_000.0, 3_000.0, 30, 1 << 20),
            modification_rate: 0.0,
            interrupt_rate: 0.0,
            size_popularity_correlation: 0.0,
        };
        let t = p.build_trace(6);
        assert_eq!(t.len(), 300);
        assert!(t.iter().all(|r| r.doc_type == DocumentType::Html));
        // No modifications/interrupts: a document's size never varies.
        let mut by_doc = std::collections::HashMap::new();
        for r in &t {
            let e = by_doc.entry(r.doc).or_insert(r.size);
            assert_eq!(*e, r.size, "size must be stable without mod/interrupt");
        }
    }

    #[test]
    fn popular_documents_receive_more_requests() {
        let mut p = WorkloadProfile::empty("zipf-check");
        p.types[DocumentType::Image] = TypeProfile {
            distinct_documents: 1000,
            requests: 3_000,
            alpha: 1.0,
            beta: 0.8,
            size_model: SizeModel::log_normal(4_000.0, 2_000.0, 30, 1 << 20),
            modification_rate: 0.0,
            interrupt_rate: 0.0,
            size_popularity_correlation: 0.0,
        };
        let t = p.build_trace(7);
        let mut counts = std::collections::HashMap::new();
        for r in &t {
            *counts.entry(r.doc.as_u64()).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        let ones = counts.values().filter(|&&c| c == 1).count();
        assert!(max > 100, "head document should dominate, max = {max}");
        assert!(ones > 200, "tail should contain one-timers, ones = {ones}");
    }
}
