//! Compact binary format for persisting large traces.
//!
//! The text format ([`crate::format`]) is grep-friendly but costs ≈30
//! bytes and a parse per request; full-scale workloads run to millions
//! of requests, where the fixed-width binary format is ~4× smaller and
//! an order of magnitude faster to load.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  b"WCTB"          4 bytes
//! version u8 = 1          1 byte
//! reserved [u8; 3]        3 bytes
//! record count u64        8 bytes
//! records: count × {
//!     timestamp_ms u64    8 bytes
//!     doc_id       u64    8 bytes
//!     size_bytes   u64    8 bytes
//!     type_tag     u8     1 byte   (same tags as the text format)
//! }
//! ```
//!
//! The count-prefixed header makes truncation detectable. The count is
//! untrusted: readers preallocate no more records than the input can
//! hold, so a forged header cannot make them reserve memory.

use std::io::{self, Read, Write};

use crate::doctype::DocumentType;
use crate::error::TraceError;
use crate::format::{type_char, type_from_char};
use crate::record::{Request, Trace};
use crate::types::{ByteSize, DocId, Timestamp};

/// File magic.
pub const MAGIC: [u8; 4] = *b"WCTB";
/// Current format version.
pub const VERSION: u8 = 1;
/// Bytes per record.
pub const RECORD_BYTES: usize = 25;
/// Bytes of the header in front of the records.
const HEADER_BYTES: usize = 16;

/// A WCTB input whose header has been checked: the record count it
/// claims and the bytes behind the header. The one decoder of the
/// layout, shared by [`from_bytes`] and
/// [`DenseTrace::from_wctb_bytes`](crate::DenseTrace::from_wctb_bytes).
pub(crate) struct Wctb<'a> {
    count: u64,
    records: &'a [u8],
}

impl<'a> Wctb<'a> {
    /// Checks the header of `bytes`.
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<Self, TraceError> {
        let Some((header, records)) = bytes.split_at_checked(HEADER_BYTES) else {
            return Err(TraceError::parse(0, "truncated header"));
        };
        if header[..4] != MAGIC {
            return Err(TraceError::parse(0, "bad magic (not a WCTB trace)"));
        }
        if header[4] != VERSION {
            return Err(TraceError::parse(
                0,
                format!("unsupported version {}", header[4]),
            ));
        }
        let count = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        Ok(Wctb { count, records })
    }

    /// How many records to preallocate for: the header's count, capped
    /// by what the input can hold, so a forged count cannot reserve
    /// memory the input never backs. A valid input gets its exact count.
    /// It also sizes the dense interner's direct table.
    pub(crate) fn capacity(&self) -> usize {
        usize::try_from(self.count)
            .unwrap_or(usize::MAX)
            .min(self.records.len() / RECORD_BYTES)
    }

    /// Calls `each` with the timestamp, document id, size and type of
    /// every record, in order; errors on a missing record, a bad type
    /// tag, or bytes after the last record.
    pub(crate) fn for_each(
        &self,
        mut each: impl FnMut(u64, u64, u64, DocumentType),
    ) -> Result<(), TraceError> {
        let count = self.count;
        let mut records = self.records.chunks_exact(RECORD_BYTES);
        for i in 0..count {
            let Some(record) = records.next() else {
                return Err(TraceError::parse(
                    i as usize + 1,
                    format!("truncated record {i} of {count}"),
                ));
            };
            let field =
                |at: usize| u64::from_le_bytes(record[at..at + 8].try_into().expect("8 bytes"));
            let ty = type_from_char(record[24] as char).ok_or_else(|| {
                TraceError::parse(i as usize + 1, format!("bad type tag {}", record[24]))
            })?;
            each(field(0), field(8), field(16), ty);
        }
        // Trailing data after the declared count indicates a corrupt writer.
        if records.next().is_some() || !records.remainder().is_empty() {
            return Err(TraceError::parse(
                count as usize + 1,
                "trailing bytes after final record",
            ));
        }
        Ok(())
    }
}

/// Writes a trace in the binary format.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_trace_bin<W: Write>(mut writer: W, trace: &Trace) -> io::Result<()> {
    writer.write_all(&MAGIC)?;
    writer.write_all(&[VERSION, 0, 0, 0])?;
    writer.write_all(&(trace.len() as u64).to_le_bytes())?;
    for r in trace {
        writer.write_all(&r.timestamp.as_millis().to_le_bytes())?;
        writer.write_all(&r.doc.as_u64().to_le_bytes())?;
        writer.write_all(&r.size.as_u64().to_le_bytes())?;
        writer.write_all(&[type_char(r.doc_type) as u8])?;
    }
    Ok(())
}

/// Reads a trace in the binary format: reads `reader` to its end, then
/// parses the bytes as [`from_bytes`] does.
///
/// # Errors
///
/// Returns [`TraceError::Parse`] for bad magic, unsupported version,
/// truncation, trailing bytes or invalid type tags, and
/// [`TraceError::Io`] for reader failures.
pub fn read_trace_bin<R: Read>(mut reader: R) -> Result<Trace, TraceError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    from_bytes(&bytes)
}

/// Serializes a trace to an in-memory byte vector.
pub fn to_bytes(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + trace.len() * RECORD_BYTES);
    write_trace_bin(&mut buf, trace).expect("writing to Vec cannot fail");
    buf
}

/// Parses a trace from an in-memory byte slice.
///
/// A valid input holds exactly its header's count of records, so the
/// trace is allocated once, at its final size.
///
/// # Errors
///
/// Same as [`read_trace_bin`].
pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
    let wctb = Wctb::parse(bytes)?;
    let mut trace = Trace::with_capacity(wctb.capacity());
    wctb.for_each(|ts, doc, size, ty| {
        trace.push(Request::new(
            Timestamp::from_millis(ts),
            DocId::new(doc),
            ty,
            ByteSize::new(size),
        ));
    })?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doctype::DocumentType;

    fn sample() -> Trace {
        (0..100u64)
            .map(|i| {
                Request::new(
                    Timestamp::from_millis(i * 7),
                    DocId::new(i % 13),
                    DocumentType::ALL[(i % 5) as usize],
                    ByteSize::new(i * i + 1),
                )
            })
            .collect()
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        assert_eq!(from_bytes(&to_bytes(&t)).unwrap(), t);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new();
        let bytes = to_bytes(&t);
        assert_eq!(bytes.len(), 16);
        assert_eq!(from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn size_is_fixed_width() {
        let t = sample();
        assert_eq!(to_bytes(&t).len(), 16 + t.len() * RECORD_BYTES);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[0] = b'X';
        let err = from_bytes(&bytes).unwrap_err().to_string();
        assert!(err.contains("magic"), "{err}");
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[4] = 9;
        let err = from_bytes(&bytes).unwrap_err().to_string();
        assert!(err.contains("version 9"), "{err}");
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = to_bytes(&sample());
        // Cut mid-record.
        let cut = &bytes[..bytes.len() - 7];
        let err = from_bytes(cut).unwrap_err().to_string();
        assert!(err.contains("truncated record"), "{err}");
        // Cut mid-header.
        let err = from_bytes(&bytes[..10]).unwrap_err().to_string();
        assert!(err.contains("truncated header"), "{err}");
    }

    #[test]
    fn forged_record_counts_are_errors_not_allocations() {
        // A bare header claiming 2^36 records used to abort on allocation
        // failure, and one claiming 2^61 to panic with a capacity
        // overflow, before a single record was read.
        for count in [1u64 << 36, 1 << 61] {
            let mut bytes = to_bytes(&Trace::new());
            bytes[8..16].copy_from_slice(&count.to_le_bytes());
            let err = from_bytes(&bytes).unwrap_err().to_string();
            assert!(err.contains("truncated record 0"), "{err}");
            let err = read_trace_bin(io::Cursor::new(&bytes))
                .unwrap_err()
                .to_string();
            assert!(err.contains("truncated record 0"), "{err}");
        }
    }

    #[test]
    fn valid_input_preallocates_exactly_its_count() {
        let t = sample();
        let bytes = to_bytes(&t);
        assert_eq!(Wctb::parse(&bytes).unwrap().capacity(), t.len());
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = to_bytes(&sample());
        bytes.push(0xFF);
        let err = from_bytes(&bytes).unwrap_err().to_string();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn bad_type_tag_is_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[16 + 24] = b'Q'; // first record's type tag
        let err = from_bytes(&bytes).unwrap_err().to_string();
        assert!(err.contains("type tag"), "{err}");
    }

    #[test]
    fn binary_is_smaller_than_text_at_realistic_magnitudes() {
        // Full-scale traces carry hour-plus timestamps, million-scale
        // document ids and kilo-to-megabyte sizes; their decimal forms
        // dominate the text format's footprint.
        let t: Trace = (0..200u64)
            .map(|i| {
                Request::new(
                    Timestamp::from_millis(3_600_000 + i * 40),
                    DocId::new(1_000_000 + i),
                    DocumentType::Image,
                    ByteSize::new(100_000 + i * 997),
                )
            })
            .collect();
        let text = crate::format::to_string(&t).len();
        let bin = to_bytes(&t).len();
        assert!(bin < text, "binary {bin} vs text {text}");
    }
}
