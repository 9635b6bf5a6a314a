//! The request record and trace container.

use serde::{Deserialize, Serialize};

use crate::doctype::{DocumentType, TypeMap};
use crate::types::{ByteSize, DocId, Timestamp};

/// One cacheable request as seen by the proxy, after preprocessing.
///
/// `size` is the *transfer size*: the number of bytes the proxy sent for
/// this response. It can differ from the document's full size when the
/// client interrupted the transfer, and it changes when the origin server
/// modified the document — the simulator uses the per-document size history
/// to tell these cases apart (paper, Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// When the request arrived at the proxy.
    pub timestamp: Timestamp,
    /// The requested document.
    pub doc: DocId,
    /// Document class of the response.
    pub doc_type: DocumentType,
    /// Transfer size of the response.
    pub size: ByteSize,
}

impl Request {
    /// Creates a request record.
    pub const fn new(
        timestamp: Timestamp,
        doc: DocId,
        doc_type: DocumentType,
        size: ByteSize,
    ) -> Self {
        Request {
            timestamp,
            doc,
            doc_type,
            size,
        }
    }
}

/// An ordered stream of preprocessed requests.
///
/// `Trace` is a thin wrapper over `Vec<Request>` adding the aggregate
/// queries that the characterization and simulation layers need.
///
/// ```
/// use webcache_trace::{Trace, Request, Timestamp, DocId, DocumentType, ByteSize};
///
/// let mut trace = Trace::new();
/// trace.push(Request::new(Timestamp::ZERO, DocId::new(0), DocumentType::Html, ByteSize::new(100)));
/// trace.push(Request::new(Timestamp::from_millis(5), DocId::new(0), DocumentType::Html, ByteSize::new(100)));
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.distinct_documents(), 1);
/// assert_eq!(trace.requested_bytes().as_u64(), 200);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    requests: Vec<Request>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates a trace with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        Trace {
            requests: Vec::with_capacity(n),
        }
    }

    /// Appends a request.
    pub fn push(&mut self, request: Request) {
        self.requests.push(request);
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace contains no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The requests, in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Iterates over the requests in arrival order.
    pub fn iter(&self) -> std::slice::Iter<'_, Request> {
        self.requests.iter()
    }

    /// Number of distinct documents referenced by the trace.
    pub fn distinct_documents(&self) -> usize {
        let mut ids: Vec<u64> = self.requests.iter().map(|r| r.doc.as_u64()).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Total bytes transferred over all requests ("Requested Data").
    pub fn requested_bytes(&self) -> ByteSize {
        self.requests.iter().map(|r| r.size).sum()
    }

    /// Sum of the sizes of distinct documents ("Overall Size"), where a
    /// document's size is the largest transfer observed for it (partial
    /// transfers only ever shrink the observed value).
    pub fn overall_size(&self) -> ByteSize {
        let mut pairs: Vec<(DocId, ByteSize)> =
            self.requests.iter().map(|r| (r.doc, r.size)).collect();
        pairs.sort_unstable();
        pairs.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                // `earlier` is kept; fold the max size into it.
                earlier.1 = earlier.1.max(later.1);
                true
            } else {
                false
            }
        });
        pairs.into_iter().map(|(_, s)| s).sum()
    }

    /// Number of requests per document type.
    pub fn requests_by_type(&self) -> TypeMap<u64> {
        let mut counts = TypeMap::default();
        for r in &self.requests {
            counts[r.doc_type] += 1;
        }
        counts
    }

    /// Transferred bytes per document type.
    pub fn requested_bytes_by_type(&self) -> TypeMap<ByteSize> {
        let mut bytes: TypeMap<ByteSize> = TypeMap::default();
        for r in &self.requests {
            bytes[r.doc_type] += r.size;
        }
        bytes
    }

    /// Splits the trace at a warm-up fraction: returns the index of the
    /// first request that counts towards the performance measures when the
    /// first `fraction` of the requests is used to fill the cache.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= fraction < 1.0`.
    pub fn warmup_boundary(&self, fraction: f64) -> usize {
        assert!(
            (0.0..1.0).contains(&fraction),
            "warm-up fraction must be in [0, 1), got {fraction}"
        );
        (self.requests.len() as f64 * fraction).floor() as usize
    }
}

impl FromIterator<Request> for Trace {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Self {
        Trace {
            requests: iter.into_iter().collect(),
        }
    }
}

impl Extend<Request> for Trace {
    fn extend<I: IntoIterator<Item = Request>>(&mut self, iter: I) {
        self.requests.extend(iter);
    }
}

impl From<Vec<Request>> for Trace {
    fn from(requests: Vec<Request>) -> Self {
        Trace { requests }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Request;
    type IntoIter = std::slice::Iter<'a, Request>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

impl IntoIterator for Trace {
    type Item = Request;
    type IntoIter = std::vec::IntoIter<Request>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(ts: u64, doc: u64, ty: DocumentType, size: u64) -> Request {
        Request::new(
            Timestamp::from_millis(ts),
            DocId::new(doc),
            ty,
            ByteSize::new(size),
        )
    }

    fn sample() -> Trace {
        vec![
            req(0, 1, DocumentType::Image, 100),
            req(1, 2, DocumentType::Html, 300),
            req(2, 1, DocumentType::Image, 80), // interrupted: smaller transfer
            req(3, 3, DocumentType::MultiMedia, 5_000),
            req(4, 2, DocumentType::Html, 300),
        ]
        .into()
    }

    #[test]
    fn counts_and_bytes() {
        let t = sample();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.distinct_documents(), 3);
        assert_eq!(t.requested_bytes().as_u64(), 100 + 300 + 80 + 5_000 + 300);
    }

    #[test]
    fn overall_size_uses_max_transfer_per_doc() {
        let t = sample();
        // doc 1: max(100, 80) = 100; doc 2: 300; doc 3: 5000.
        assert_eq!(t.overall_size().as_u64(), 100 + 300 + 5_000);
    }

    #[test]
    fn per_type_breakdowns() {
        let t = sample();
        let reqs = t.requests_by_type();
        assert_eq!(reqs[DocumentType::Image], 2);
        assert_eq!(reqs[DocumentType::Html], 2);
        assert_eq!(reqs[DocumentType::MultiMedia], 1);
        assert_eq!(reqs[DocumentType::Application], 0);
        let bytes = t.requested_bytes_by_type();
        assert_eq!(bytes[DocumentType::Image].as_u64(), 180);
        assert_eq!(bytes[DocumentType::MultiMedia].as_u64(), 5_000);
    }

    #[test]
    fn warmup_boundary_floors() {
        let t = sample();
        assert_eq!(t.warmup_boundary(0.0), 0);
        assert_eq!(t.warmup_boundary(0.1), 0);
        assert_eq!(t.warmup_boundary(0.5), 2);
    }

    #[test]
    #[should_panic(expected = "warm-up fraction")]
    fn warmup_boundary_rejects_one() {
        let _ = sample().warmup_boundary(1.0);
    }

    #[test]
    fn collect_and_iterate() {
        let t: Trace = sample().into_iter().collect();
        assert_eq!(t.len(), 5);
        assert_eq!(t.iter().count(), 5);
        let mut t2 = Trace::new();
        t2.extend(t.iter().copied());
        assert_eq!(t2, t);
    }

    #[test]
    fn empty_trace_aggregates() {
        let t = Trace::new();
        assert_eq!(t.distinct_documents(), 0);
        assert_eq!(t.requested_bytes(), ByteSize::ZERO);
        assert_eq!(t.overall_size(), ByteSize::ZERO);
    }
}
