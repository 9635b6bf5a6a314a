//! # webcache-trace
//!
//! Request-trace data model for web proxy cache simulation.
//!
//! This crate provides the substrate that the rest of the `webcache`
//! workspace builds on:
//!
//! * strongly-typed primitives ([`DocId`], [`ByteSize`], [`Timestamp`]) and
//!   the [`Request`] record,
//! * the five-way document-type classification of Lindemann & Waldhorst
//!   (DSN 2002) — [`DocumentType`] — derived from the HTTP `Content-Type`
//!   header with a file-extension fallback,
//! * HTTP status cacheability rules ([`status`]) and URL cacheability
//!   heuristics ([`cacheability`]) used to preprocess raw proxy logs,
//! * a parser for Squid native `access.log` lines ([`squid`]),
//! * a preprocessing pipeline ([`preprocess`]) turning raw log entries into
//!   a clean, cacheable-only request stream,
//! * a compact text format for persisting traces ([`mod@format`]),
//! * a dense struct-of-arrays view for the simulation hot path
//!   ([`DenseTrace`]) and the fx hash containers backing it
//!   ([`mod@fxhash`]).
//!
//! # Example
//!
//! ```
//! use webcache_trace::{DocumentType, Request, DocId, ByteSize, Timestamp};
//!
//! let req = Request::new(
//!     Timestamp::from_millis(1_000),
//!     DocId::new(42),
//!     DocumentType::Image,
//!     ByteSize::new(2_048),
//! );
//! assert_eq!(req.doc_type, DocumentType::Image);
//! assert_eq!(req.size.as_u64(), 2_048);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cacheability;
pub mod canonical;
pub mod dense;
pub mod doctype;
pub mod error;
pub mod format;
pub mod format_bin;
pub mod fxhash;
pub mod preprocess;
pub mod record;
pub mod squid;
pub mod status;
pub mod transform;
pub mod types;

pub use dense::DenseTrace;
pub use doctype::{DocumentType, TypeMap};
pub use error::TraceError;
pub use fxhash::{FxHashMap, FxHashSet};
pub use record::{Request, Trace};
pub use status::HttpStatus;
pub use types::{ByteSize, DocId, Timestamp};
