//! # webcache-workload
//!
//! Synthetic web proxy workload generation, substituting for the
//! unavailable DFN and RTP traces of Lindemann & Waldhorst (DSN 2002).
//!
//! A [`WorkloadProfile`] describes a workload by exactly the
//! characteristics the paper measures in its Section 2:
//!
//! * per-document-type population and request budget (Tables 1–3),
//! * per-type document-size distributions matched to mean/median/CoV
//!   (Tables 4–5),
//! * per-type popularity slope **α** (Zipf-like rank-frequency law),
//! * per-type temporal-correlation slope **β** (power-law inter-reference
//!   gaps),
//! * document-modification and interrupted-transfer rates (Section 4.1).
//!
//! [`TraceGenerator`] turns a profile into a concrete
//! [`Trace`](webcache_trace::Trace), deterministically from a seed. The
//! calibrated [`WorkloadProfile::dfn`] and [`WorkloadProfile::rtp`]
//! profiles reproduce the two traces of the study; `scaled` shrinks them
//! proportionally for laptop-scale experiments.
//!
//! ```
//! use webcache_workload::WorkloadProfile;
//!
//! let trace = WorkloadProfile::dfn()
//!     .scaled(1.0 / 2048.0)
//!     .build_trace(7);
//! assert!(trace.len() > 1000);
//! ```
//!
//! The probability distributions are implemented in-repo ([`dist`]) to
//! keep the workspace's dependency set minimal.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dist;
pub mod generator;
pub mod mix;
pub mod profiles;
pub mod sizes;
pub mod stream;
pub mod temporal;

pub use generator::TraceGenerator;
pub use mix::{blend, shift_mix};
pub use profiles::{TypeProfile, WorkloadProfile};
pub use sizes::SizeModel;
pub use stream::WorkloadStream;
