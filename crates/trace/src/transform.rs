//! Trace transformations: filtering and slicing.
//!
//! The characterization and simulation layers often want a *view* of a
//! trace — one document type, or a prefix. These transforms all return
//! new [`Trace`]s in arrival order.

use crate::doctype::{DocumentType, TypeMap};
use crate::record::Trace;

/// Keeps only requests for documents of `doc_type`.
pub fn filter_by_type(trace: &Trace, doc_type: DocumentType) -> Trace {
    trace
        .iter()
        .filter(|r| r.doc_type == doc_type)
        .copied()
        .collect()
}

/// Splits a trace into its per-type substreams.
pub fn split_by_type(trace: &Trace) -> TypeMap<Trace> {
    let mut out: TypeMap<Trace> = TypeMap::from_fn(|_| Trace::new());
    for r in trace {
        out[r.doc_type].push(*r);
    }
    out
}

/// The first `n` requests.
pub fn head(trace: &Trace, n: usize) -> Trace {
    trace.iter().take(n).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Request;
    use crate::types::{ByteSize, DocId, Timestamp};

    fn req(ts: u64, doc: u64, ty: DocumentType) -> Request {
        Request::new(
            Timestamp::from_millis(ts),
            DocId::new(doc),
            ty,
            ByteSize::new(100),
        )
    }

    fn sample() -> Trace {
        vec![
            req(0, 1, DocumentType::Image),
            req(10, 2, DocumentType::Html),
            req(20, 1, DocumentType::Image),
            req(30, 3, DocumentType::MultiMedia),
            req(40, 2, DocumentType::Html),
        ]
        .into()
    }

    #[test]
    fn filter_keeps_only_requested_type() {
        let t = filter_by_type(&sample(), DocumentType::Image);
        assert_eq!(t.len(), 2);
        assert!(t.iter().all(|r| r.doc_type == DocumentType::Image));
    }

    #[test]
    fn split_partitions_completely() {
        let t = sample();
        let parts = split_by_type(&t);
        let total: usize = parts.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(total, t.len());
        assert_eq!(parts[DocumentType::Html].len(), 2);
        assert_eq!(parts[DocumentType::Application].len(), 0);
    }

    #[test]
    fn head_takes_a_prefix() {
        assert_eq!(head(&sample(), 3).len(), 3);
        assert_eq!(head(&sample(), 100).len(), 5);
    }
}
