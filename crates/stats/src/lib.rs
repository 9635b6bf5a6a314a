//! # webcache-stats
//!
//! Workload characterization for web proxy traces, computing every
//! quantity reported in Section 2 of Lindemann & Waldhorst (DSN 2002):
//!
//! * trace-level properties — distinct documents, overall size, total
//!   requests, requested data (**Table 1**);
//! * the per-document-type breakdown of documents, sizes, requests and
//!   bytes (**Tables 2 and 3**);
//! * per-type document/transfer size statistics (mean, median, coefficient
//!   of variation), the popularity slope **α** and the temporal-correlation
//!   slope **β** (**Tables 4 and 5**).
//!
//! The crate also provides the generic machinery these measurements rest
//! on: descriptive statistics ([`descriptive`]), (weighted) log-log least
//! squares ([`regression`]), Zipf-slope estimation ([`popularity`]),
//! inter-reference gap analysis ([`correlation`]) and plain-text table
//! rendering ([`table`]).
//!
//! Every estimator reads the [`DenseTrace`](webcache_trace::DenseTrace)
//! view: per-document state is a `Vec` indexed by the interner's slots.
//!
//! ```
//! use webcache_stats::TraceCharacterization;
//! use webcache_trace::{DenseTrace, DocumentType};
//!
//! // (document id, transfer size, type) per request.
//! let requests = (0..100u32).map(|i| (u64::from(i % 10), 1000, DocumentType::Html));
//! let trace = DenseTrace::from_requests(requests);
//! let ch = TraceCharacterization::measure(&trace);
//! assert_eq!(ch.properties.total_requests, 100);
//! assert_eq!(ch.properties.distinct_documents, 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod characterize;
pub mod concentration;
pub mod correlation;
pub mod descriptive;
pub mod popularity;
pub mod regression;
pub mod stack;
pub mod table;

pub use characterize::{TraceCharacterization, TraceProperties, TypeBreakdown, TypeStatistics};
pub use concentration::Concentration;
pub use correlation::GapHistogram;
pub use descriptive::Summary;
pub use regression::LineFit;
pub use stack::StackDistances;
pub use table::Table;
