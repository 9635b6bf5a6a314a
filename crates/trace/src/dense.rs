//! A dense, struct-of-arrays view of a [`Trace`] for the simulation hot
//! path.
//!
//! A [`Trace`] stores one 32-byte [`Request`](crate::Request) struct per
//! request, keyed by sparse 64-bit document ids; the simulator then pays a
//! hash lookup per request to find per-document state. [`DenseTrace`]
//! eliminates both costs up front: it interns every [`DocId`] to a
//! contiguous `u32` *slot* (numbered in first-appearance order) and lays
//! the requests out as parallel arrays — one `Vec<u32>` of slots, one
//! `Vec<u64>` of transfer sizes, one `Vec<u8>` of document-type indices.
//! Per-document simulator state can then live in plain `Vec`s indexed by
//! slot, and the per-request working set shrinks from 32 to 13 bytes.
//!
//! Every constructor goes through one interner (`Interner` below), which
//! also records each document's size, so [`DenseTrace::overall_size`]
//! costs nothing after the build. [`DenseTrace::from_wctb_bytes`] decodes
//! a binary trace straight into the view, with no [`Trace`] in between.
//!
//! The view is built **once** per sweep and shared read-only across worker
//! threads; each worker replays it against its own cache.

use std::collections::HashMap;

use crate::doctype::DocumentType;
use crate::error::TraceError;
use crate::format_bin::Wctb;
use crate::record::Trace;
use crate::types::{ByteSize, DocId};

/// A struct-of-arrays trace with documents interned to dense `u32` slots.
/// See the module-level documentation above.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseTrace {
    /// Per request: the interned document slot.
    docs: Vec<u32>,
    /// Per request: the transfer size in bytes.
    sizes: Vec<u64>,
    /// Per request: `DocumentType::index()` of the response.
    types: Vec<u8>,
    /// Number of distinct documents (== the number of slots handed out).
    distinct: usize,
    /// The sum over documents of each one's largest transfer size.
    overall: ByteSize,
}

/// Builds a [`DenseTrace`] one request at a time, interning document ids
/// to slots in first-appearance order.
///
/// Two tiers share one slot counter. An id below the record count
/// indexes `direct` (slot + 1, 0 = unseen): the generator and
/// `preprocess` number documents from 0, so on their traces every lookup
/// is one vector access. Any larger id goes to the `sparse` hash map.
/// `direct` holds one entry per record and `sparse` at most one per
/// record, so the interner's memory is bounded by the input however its
/// ids are spread. `sparse` is keyed by ids read from the file, so it
/// uses std's keyed SipHash: under the fx multiply hash, ids that are
/// multiples of 2^40 all share one probe chain and loading turns
/// quadratic.
struct Interner {
    docs: Vec<u32>,
    sizes: Vec<u64>,
    types: Vec<u8>,
    direct: Vec<u32>,
    sparse: HashMap<u64, u32>,
    /// Per slot: the largest transfer size seen so far.
    doc_sizes: Vec<u64>,
}

impl Interner {
    /// An interner for `records` requests; the direct tier covers ids
    /// `0..records`.
    fn with_records(records: usize) -> Self {
        Interner {
            docs: Vec::with_capacity(records),
            sizes: Vec::with_capacity(records),
            types: Vec::with_capacity(records),
            direct: vec![0; records],
            sparse: HashMap::new(),
            doc_sizes: Vec::new(),
        }
    }

    #[inline]
    fn push(&mut self, doc: u64, size: u64, ty: DocumentType) {
        let next = self.doc_sizes.len() as u32;
        let direct = usize::try_from(doc)
            .ok()
            .and_then(|i| self.direct.get_mut(i));
        let slot = match direct {
            Some(entry) => {
                if *entry == 0 {
                    *entry = next + 1;
                }
                *entry - 1
            }
            None => self.sparse_slot(doc, next),
        };
        if slot == next {
            self.doc_sizes.push(size);
        } else {
            let max = &mut self.doc_sizes[slot as usize];
            *max = (*max).max(size);
        }
        self.docs.push(slot);
        self.sizes.push(size);
        self.types.push(ty.index() as u8);
    }

    /// The slot of an id beyond the direct table. Kept out of line: the
    /// inlined hash lookup slows the direct tier's loop by about a fifth.
    #[cold]
    #[inline(never)]
    fn sparse_slot(&mut self, doc: u64, next: u32) -> u32 {
        *self.sparse.entry(doc).or_insert(next)
    }

    fn finish(self) -> DenseTrace {
        DenseTrace {
            docs: self.docs,
            sizes: self.sizes,
            types: self.types,
            distinct: self.doc_sizes.len(),
            overall: self.doc_sizes.into_iter().map(ByteSize::new).sum(),
        }
    }
}

impl DenseTrace {
    /// Builds the dense view of `trace`, interning document ids in
    /// first-appearance order: the document of the first request gets
    /// slot 0, the next previously unseen document slot 1, and so on.
    pub fn build(trace: &Trace) -> Self {
        Self::from_requests(
            trace
                .iter()
                .map(|r| (r.doc.as_u64(), r.size.as_u64(), r.doc_type)),
        )
    }

    /// Builds the dense view of `(document id, transfer size, type)`
    /// requests in arrival order, interning as [`DenseTrace::build`]
    /// does. For callers that hold requests in some other form than a
    /// [`Trace`].
    pub fn from_requests<I>(requests: I) -> Self
    where
        I: IntoIterator<Item = (u64, u64, DocumentType)>,
        I::IntoIter: ExactSizeIterator,
    {
        let requests = requests.into_iter();
        let mut interner = Interner::with_records(requests.len());
        for (doc, size, ty) in requests {
            interner.push(doc, size, ty);
        }
        interner.finish()
    }

    /// Builds the dense view straight from WCTB binary bytes
    /// (see [`crate::format_bin`]), skipping the intermediate
    /// [`Trace`]/`Request` vector entirely.
    ///
    /// Records are decoded and interned in a single pass: per request
    /// only the 13 bytes the simulator consumes (slot, size, type) are
    /// materialized, instead of a 32-byte `Request` first. Timestamps
    /// are validated-over and dropped, exactly as [`DenseTrace::build`]
    /// drops them. Equivalent to
    /// `DenseTrace::build(&format_bin::from_bytes(bytes)?)` — the
    /// round-trip tests pin that — at roughly half the peak memory. The
    /// record count sizing every buffer is capped by the input length,
    /// so a forged header cannot make it reserve memory.
    ///
    /// # Errors
    ///
    /// The same [`TraceError::Parse`] cases as
    /// [`crate::format_bin::from_bytes`]: bad magic, unsupported
    /// version, truncated header or records, trailing bytes, invalid
    /// type tags.
    pub fn from_wctb_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let wctb = Wctb::parse(bytes)?;
        let mut interner = Interner::with_records(wctb.capacity());
        // The timestamp is validated by presence, unused.
        wctb.for_each(|_, doc, size, ty| interner.push(doc, size, ty))?;
        Ok(interner.finish())
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the trace contains no requests.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Number of distinct documents; slots are exactly
    /// `0..distinct_documents()`. Size per-slot state from this.
    pub fn distinct_documents(&self) -> usize {
        self.distinct
    }

    /// Sum of the sizes of distinct documents ("Overall Size"): equal to
    /// [`Trace::overall_size`] of the trace the view was built from, but
    /// recorded during the build instead of computed by a sort.
    pub fn overall_size(&self) -> ByteSize {
        self.overall
    }

    /// The interned document slot of each request, in arrival order.
    pub fn docs(&self) -> &[u32] {
        &self.docs
    }

    /// The transfer size of each request, in arrival order.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// The `DocumentType::index()` of each request, in arrival order.
    pub fn type_indices(&self) -> &[u8] {
        &self.types
    }

    /// The request at `index` as `(slot, size, type)`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn request(&self, index: usize) -> (u32, ByteSize, DocumentType) {
        (
            self.docs[index],
            ByteSize::new(self.sizes[index]),
            DocumentType::from_index(self.types[index] as usize),
        )
    }

    /// Reconstructs the slot's stand-in [`DocId`] (the slot number itself).
    ///
    /// Dense consumers address documents by slot; this helper exists for
    /// code that needs a `DocId`-typed handle for such a slot.
    pub fn slot_doc(slot: u32) -> DocId {
        DocId::new(slot as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Request;
    use crate::types::Timestamp;

    fn req(doc: u64, ty: DocumentType, size: u64) -> Request {
        Request::new(Timestamp::ZERO, DocId::new(doc), ty, ByteSize::new(size))
    }

    #[test]
    fn interns_in_first_appearance_order() {
        let trace: Trace = vec![
            req(900, DocumentType::Html, 10),
            req(3, DocumentType::Image, 20),
            req(900, DocumentType::Html, 10),
            req(77, DocumentType::Other, 5),
        ]
        .into();
        let dense = DenseTrace::build(&trace);
        assert_eq!(dense.len(), 4);
        assert_eq!(dense.docs(), &[0, 1, 0, 2]);
        assert_eq!(dense.distinct_documents(), 3);
        assert_eq!(dense.distinct_documents(), trace.distinct_documents());
    }

    #[test]
    fn parallel_arrays_carry_sizes_and_types() {
        let trace: Trace = vec![
            req(1, DocumentType::MultiMedia, 5_000),
            req(2, DocumentType::Application, 300),
        ]
        .into();
        let dense = DenseTrace::build(&trace);
        assert_eq!(dense.sizes(), &[5_000, 300]);
        assert_eq!(
            dense.type_indices(),
            &[
                DocumentType::MultiMedia.index() as u8,
                DocumentType::Application.index() as u8
            ]
        );
        let (slot, size, ty) = dense.request(0);
        assert_eq!(slot, 0);
        assert_eq!(size, ByteSize::new(5_000));
        assert_eq!(ty, DocumentType::MultiMedia);
    }

    #[test]
    fn empty_trace_builds_empty_view() {
        let dense = DenseTrace::build(&Trace::new());
        assert!(dense.is_empty());
        assert_eq!(dense.distinct_documents(), 0);
        assert_eq!(dense.overall_size(), ByteSize::ZERO);
    }

    #[test]
    fn direct_and_sparse_ids_share_one_slot_counter() {
        // Six records: ids below 6 take the direct table, the rest the
        // hash map; slots still number documents in first-appearance
        // order across both.
        let trace: Trace = vec![
            req(5, DocumentType::Html, 10),
            req(1 << 40, DocumentType::Image, 20),
            req(2, DocumentType::Html, 30),
            req(5, DocumentType::Html, 40),
            req(6, DocumentType::Other, 50),
            req(1 << 40, DocumentType::Image, 5),
        ]
        .into();
        let dense = DenseTrace::build(&trace);
        assert_eq!(dense.docs(), &[0, 1, 2, 0, 3, 1]);
        assert_eq!(dense.distinct_documents(), 4);
        assert_eq!(dense.overall_size(), ByteSize::new(40 + 20 + 30 + 50));
        assert_eq!(dense.overall_size(), trace.overall_size());
    }

    /// Under the fx multiply hash, ids that are multiples of 2^40 all
    /// share one probe chain, so interning them was quadratic. The keyed
    /// sparse tier must intern them about as fast as spread ids, and still
    /// number slots in first-appearance order.
    #[test]
    fn colliding_sparse_ids_intern_in_linear_time() {
        const N: usize = 400_000;
        let intern = |id: fn(usize) -> u64| {
            let started = std::time::Instant::now();
            // Every id twice: the second round must find the first's slots.
            let requests = (0..2 * N).map(|i| (id(i % N), 100, DocumentType::Html));
            let dense = DenseTrace::from_requests(requests);
            let elapsed = started.elapsed();
            assert_eq!(dense.distinct_documents(), N);
            for (i, &slot) in dense.docs().iter().enumerate() {
                assert_eq!(slot as usize, i % N, "request {i}");
            }
            elapsed
        };
        let spread = intern(|j| (j as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let colliding = intern(|j| (j as u64 + 1) << 40);
        // A relative bound: linear interning keeps the two runs within a
        // small factor, the quadratic one was orders of magnitude apart.
        assert!(
            colliding < spread * 20,
            "{N} colliding ids took {colliding:?}, {N} spread ids {spread:?}"
        );
    }

    #[test]
    fn overall_size_saturates_like_the_trace() {
        let trace: Trace = vec![
            req(0, DocumentType::Html, u64::MAX - 1),
            req(1, DocumentType::Html, 7),
        ]
        .into();
        let dense = DenseTrace::build(&trace);
        assert_eq!(dense.overall_size(), ByteSize::new(u64::MAX));
        assert_eq!(dense.overall_size(), trace.overall_size());
    }

    #[test]
    fn from_requests_equals_build() {
        let trace = mixed_trace();
        let requests: Vec<(u64, u64, DocumentType)> = trace
            .iter()
            .map(|r| (r.doc.as_u64(), r.size.as_u64(), r.doc_type))
            .collect();
        assert_eq!(
            DenseTrace::from_requests(requests),
            DenseTrace::build(&trace)
        );
    }

    #[test]
    fn slot_doc_roundtrips() {
        assert_eq!(DenseTrace::slot_doc(7).as_u64(), 7);
    }

    fn mixed_trace() -> Trace {
        (0..150u64)
            .map(|i| {
                Request::new(
                    Timestamp::from_millis(i * 11),
                    DocId::new(1_000_000 + i % 23),
                    DocumentType::ALL[(i % 5) as usize],
                    ByteSize::new(i * 31 + 1),
                )
            })
            .collect()
    }

    #[test]
    fn from_wctb_bytes_equals_build_of_decoded_trace() {
        let trace = mixed_trace();
        let bytes = crate::format_bin::to_bytes(&trace);
        let direct = DenseTrace::from_wctb_bytes(&bytes).unwrap();
        let via_trace = DenseTrace::build(&crate::format_bin::from_bytes(&bytes).unwrap());
        assert_eq!(direct, via_trace);
        assert_eq!(direct, DenseTrace::build(&trace));
    }

    #[test]
    fn from_wctb_bytes_handles_empty_trace() {
        let bytes = crate::format_bin::to_bytes(&Trace::new());
        let dense = DenseTrace::from_wctb_bytes(&bytes).unwrap();
        assert!(dense.is_empty());
        assert_eq!(dense.distinct_documents(), 0);
    }

    #[test]
    fn from_wctb_bytes_rejects_what_the_trace_reader_rejects() {
        let good = crate::format_bin::to_bytes(&mixed_trace());

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let err = DenseTrace::from_wctb_bytes(&bad_magic)
            .unwrap_err()
            .to_string();
        assert!(err.contains("magic"), "{err}");

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        let err = DenseTrace::from_wctb_bytes(&bad_version)
            .unwrap_err()
            .to_string();
        assert!(err.contains("version 9"), "{err}");

        let err = DenseTrace::from_wctb_bytes(&good[..10])
            .unwrap_err()
            .to_string();
        assert!(err.contains("truncated header"), "{err}");

        let err = DenseTrace::from_wctb_bytes(&good[..good.len() - 7])
            .unwrap_err()
            .to_string();
        assert!(err.contains("truncated record"), "{err}");

        let mut trailing = good.clone();
        trailing.push(0xFF);
        let err = DenseTrace::from_wctb_bytes(&trailing)
            .unwrap_err()
            .to_string();
        assert!(err.contains("trailing"), "{err}");

        let mut bad_tag = good;
        bad_tag[16 + 24] = b'Q';
        let err = DenseTrace::from_wctb_bytes(&bad_tag)
            .unwrap_err()
            .to_string();
        assert!(err.contains("type tag"), "{err}");

        // A bare header claiming 2^36 or 2^61 records must fail on the
        // first missing record, not reserve memory for the claim.
        for count in [1u64 << 36, 1 << 61] {
            let mut bytes = crate::format_bin::to_bytes(&Trace::new());
            bytes[8..16].copy_from_slice(&count.to_le_bytes());
            let err = DenseTrace::from_wctb_bytes(&bytes).unwrap_err().to_string();
            assert!(err.contains("truncated record 0"), "{err}");
        }
    }
}
