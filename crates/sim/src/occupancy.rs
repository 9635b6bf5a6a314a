//! Cache-occupancy time series (the Figure 1 experiment).

use serde::{Deserialize, Serialize};

use webcache_core::Cache;
use webcache_trace::{DocumentType, TypeMap};

/// A snapshot of how the cache is shared between document types.
///
/// **Empty-cache convention:** a sample captured from an empty cache has
/// *every* fraction equal to `0.0` in both maps, rather than `NaN` from
/// the 0/0 division. Consumers (plotting, [`OccupancySeries`] summaries)
/// can therefore sum and average samples without NaN guards; it also
/// means `document_fraction` sums to 1 only for a *non-empty* cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OccupancySample {
    /// Index of the request after which the snapshot was taken.
    pub request_index: u64,
    /// Fraction of cached *documents* per type (sums to 1 for a non-empty
    /// cache, all zero for an empty one).
    pub document_fraction: TypeMap<f64>,
    /// Fraction of cached *bytes* per type (all zero for an empty cache).
    pub byte_fraction: TypeMap<f64>,
}

impl OccupancySample {
    /// Snapshots the given cache.
    pub fn capture(request_index: u64, cache: &Cache) -> Self {
        let occ = cache.occupancy();
        let total_docs: u64 = occ.iter().map(|(_, o)| o.documents).sum();
        let total_bytes: u64 = occ.iter().map(|(_, o)| o.bytes.as_u64()).sum();
        let frac = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        OccupancySample {
            request_index,
            document_fraction: TypeMap::from_fn(|ty| {
                frac(occ[ty].documents as f64, total_docs as f64)
            }),
            byte_fraction: TypeMap::from_fn(|ty| frac(occ[ty].bytes.as_f64(), total_bytes as f64)),
        }
    }
}

/// The sampled occupancy trajectory of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OccupancySeries {
    samples: Vec<OccupancySample>,
}

impl OccupancySeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        OccupancySeries::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: OccupancySample) {
        self.samples.push(sample);
    }

    /// The samples, in request order.
    pub fn samples(&self) -> &[OccupancySample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean byte fraction a type held over the series — the "is the share
    /// flat and close to the request mix?" summary used to discuss
    /// Figure 1.
    pub fn mean_byte_fraction(&self, ty: DocumentType) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|s| s.byte_fraction[ty])
            .sum::<f64>()
            / self.samples.len() as f64
    }

    /// Mean document fraction a type held over the series.
    pub fn mean_document_fraction(&self, ty: DocumentType) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|s| s.document_fraction[ty])
            .sum::<f64>()
            / self.samples.len() as f64
    }

    /// Peak-to-trough spread of a type's byte fraction over the *second
    /// half* of the series (steady state, excluding the fill ramp) —
    /// large spread means the policy keeps re-balancing the cache between
    /// types (GD\*(1) in Figure 1), small spread means a stable division
    /// (GD\*(P)).
    pub fn byte_fraction_spread(&self, ty: DocumentType) -> f64 {
        let steady = &self.samples[self.samples.len() / 2..];
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for s in steady {
            min = min.min(s.byte_fraction[ty]);
            max = max.max(s.byte_fraction[ty]);
        }
        if steady.is_empty() {
            0.0
        } else {
            max - min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_core::{AdmissionSpec, PolicyKind};
    use webcache_trace::{ByteSize, DocId};

    #[test]
    fn capture_computes_fractions() {
        let mut cache = Cache::new(
            ByteSize::new(1000),
            PolicyKind::Lru.build(),
            AdmissionSpec::All,
        );
        cache.insert(DocId::new(1), DocumentType::Image, ByteSize::new(100));
        cache.insert(DocId::new(2), DocumentType::MultiMedia, ByteSize::new(300));
        let s = OccupancySample::capture(7, &cache);
        assert_eq!(s.request_index, 7);
        assert_eq!(s.document_fraction[DocumentType::Image], 0.5);
        assert_eq!(s.byte_fraction[DocumentType::Image], 0.25);
        assert_eq!(s.byte_fraction[DocumentType::MultiMedia], 0.75);
    }

    #[test]
    fn empty_cache_has_zero_fractions() {
        // The documented convention: an empty cache yields all-zero
        // fractions (never NaN) across every type in both maps.
        let cache = Cache::new(
            ByteSize::new(1000),
            PolicyKind::Lru.build(),
            AdmissionSpec::All,
        );
        let s = OccupancySample::capture(0, &cache);
        for ty in DocumentType::ALL {
            assert_eq!(s.document_fraction[ty], 0.0, "{ty:?} document fraction");
            assert_eq!(s.byte_fraction[ty], 0.0, "{ty:?} byte fraction");
        }
    }

    #[test]
    fn series_summaries() {
        let mut cache = Cache::new(
            ByteSize::new(1000),
            PolicyKind::Lru.build(),
            AdmissionSpec::All,
        );
        let mut series = OccupancySeries::new();
        cache.insert(DocId::new(1), DocumentType::Image, ByteSize::new(100));
        series.push(OccupancySample::capture(0, &cache));
        cache.insert(DocId::new(2), DocumentType::Html, ByteSize::new(100));
        series.push(OccupancySample::capture(1, &cache));
        cache.insert(DocId::new(3), DocumentType::Html, ByteSize::new(200));
        series.push(OccupancySample::capture(2, &cache));
        assert_eq!(series.len(), 3);
        let mean = (1.0 + 0.5 + 0.25) / 3.0;
        assert!((series.mean_byte_fraction(DocumentType::Image) - mean).abs() < 1e-12);
        let doc_mean = (1.0 + 0.5 + 1.0 / 3.0) / 3.0;
        assert!((series.mean_document_fraction(DocumentType::Image) - doc_mean).abs() < 1e-12);
        // Spread is measured over the steady-state half: samples 1 and 2.
        assert_eq!(series.byte_fraction_spread(DocumentType::Image), 0.25);
    }

    #[test]
    fn empty_series_summaries_are_zero() {
        let series = OccupancySeries::new();
        assert!(series.is_empty());
        assert_eq!(series.mean_byte_fraction(DocumentType::Image), 0.0);
        assert_eq!(series.byte_fraction_spread(DocumentType::Image), 0.0);
    }
}
