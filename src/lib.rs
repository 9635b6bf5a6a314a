//! # webcache
//!
//! A trace-driven evaluation framework for web cache replacement schemes,
//! reproducing Lindemann & Waldhorst, *"Evaluating the Impact of Different
//! Document Types on the Performance of Web Cache Replacement Schemes"*
//! (DSN 2002).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`trace`] — request records, document-type classification, Squid log
//!   parsing and preprocessing ([`webcache_trace`]);
//! * [`workload`] — synthetic DFN/RTP-like workload generation
//!   ([`webcache_workload`]);
//! * [`stats`] — workload characterization (size statistics, popularity
//!   slope α, temporal-correlation slope β) ([`webcache_stats`]);
//! * [`core`] — the cache and the replacement policies LRU, LFU-DA,
//!   GreedyDual-Size and GreedyDual\* ([`webcache_core`]);
//! * [`sim`] — the trace-driven simulator, sweeps and reports
//!   ([`webcache_sim`]).
//!
//! # Quickstart
//!
//! ```
//! use webcache::prelude::*;
//!
//! // 1. Synthesize a small DFN-like workload.
//! let trace = WorkloadProfile::dfn()
//!     .scaled(1.0 / 1024.0)
//!     .build_trace(42);
//!
//! // 2. Simulate an LRU cache of 4 MiB over it.
//! let config = SimulationConfig::new(ByteSize::from_mib(4));
//! let report = Simulator::new(PolicyKind::Lru.build(), config).run(&trace);
//!
//! // 3. Inspect overall and per-type hit rates.
//! let overall = report.overall();
//! assert!(overall.requests > 0);
//! println!("hit rate = {:.3}", overall.hit_rate());
//! println!("image hit rate = {:.3}", report.by_type()[DocumentType::Image].hit_rate());
//! ```

pub use webcache_core as core;
pub use webcache_sim as sim;
pub use webcache_stats as stats;
pub use webcache_trace as trace;
pub use webcache_workload as workload;

/// The most commonly used items, importable with one `use`.
pub mod prelude {
    pub use webcache_core::{Cache, CostModel, PolicyKind, ReplacementPolicy};
    pub use webcache_sim::{
        CacheSizeSweep, NoopObserver, Observer, SimulationConfig, SimulationReport, Simulator,
        WindowSpec, WindowedMetrics,
    };
    pub use webcache_stats::TraceCharacterization;
    pub use webcache_trace::{
        ByteSize, DenseTrace, DocId, DocumentType, Request, Timestamp, Trace, TypeMap,
    };
    pub use webcache_workload::{TraceGenerator, WorkloadProfile};
}
