//! # webcache-bench
//!
//! The reproduction harness: one function per table and figure of the
//! paper, run by the `repro` binary
//! (`cargo run --release -p webcache-bench --bin repro -- <experiment>`).
//! The `hotpath` binary times the replay paths over the same DFN workload.
//!
//! All experiments run on synthetic DFN/RTP workloads at a configurable
//! scale; `SCALE_DEFAULT` (1/32) keeps a full figure sweep within
//! laptop-scale minutes while preserving the workloads' relative shape.
//! Absolute hit-rate numbers shift with scale (smaller traces have
//! smaller working sets); the paper-vs-measured comparison in
//! EXPERIMENTS.md is therefore about orderings, gaps and crossovers, not
//! absolute values.

#![warn(missing_docs)]

pub mod experiments;

use webcache_trace::Trace;
use webcache_workload::WorkloadProfile;

/// Default trace scale of the repro binary.
pub const SCALE_DEFAULT: f64 = 1.0 / 32.0;

/// Default generator seed (any fixed value reproduces the same numbers).
pub const SEED_DEFAULT: u64 = 20020623; // DSN 2002 conference date.

/// The DFN-like workload at the given scale.
pub fn dfn_trace(scale: f64, seed: u64) -> Trace {
    WorkloadProfile::dfn().scaled(scale).build_trace(seed)
}

/// The RTP-like workload at the given scale.
pub fn rtp_trace(scale: f64, seed: u64) -> Trace {
    WorkloadProfile::rtp().scaled(scale).build_trace(seed)
}
