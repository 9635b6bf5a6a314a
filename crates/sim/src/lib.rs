//! # webcache-sim
//!
//! The trace-driven proxy-cache simulator of the study, faithful to the
//! methodology of Section 4.1 of Lindemann & Waldhorst (DSN 2002):
//!
//! * the first 10% of requests fill the cache without being counted
//!   (cold-start avoidance),
//! * per-document size tracking distinguishes *document modifications*
//!   (size change < 5% between successive requests ⇒ counted as a miss and
//!   the cached copy invalidated) from *interrupted transfers* (≥ 5%
//!   change ⇒ the cached copy remains valid),
//! * hit rate and byte hit rate are accounted separately for every
//!   document type,
//! * the fractions of cached documents and cached bytes per type can be
//!   sampled over time (the Figure 1 adaptability experiment).
//!
//! [`CacheSizeSweep`] runs a policy × cache-size grid in parallel — the
//! engine behind Figures 2 and 3. [`ConcurrentSimulator`] replays one
//! trace through `N` shard-striped caches with `M` client threads — the
//! engine behind `sweep --shards` and every pass of `webcache serve`.
//!
//! ```
//! use webcache_core::PolicyKind;
//! use webcache_sim::{SimulationConfig, Simulator};
//! use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp, Trace};
//!
//! let trace: Trace = (0..100u64)
//!     .map(|i| Request::new(
//!         Timestamp::from_millis(i),
//!         DocId::new(i % 7),
//!         DocumentType::Image,
//!         ByteSize::new(1_000),
//!     ))
//!     .collect();
//! let report = Simulator::new(
//!     PolicyKind::Lru.build(),
//!     SimulationConfig::new(ByteSize::from_kib(64)),
//! )
//! .run(&trace);
//! assert!(report.overall().hit_rate() > 0.8); // 7 hot documents fit easily
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod anomaly;
pub mod concurrent;
pub mod experiment;
pub mod flight;
pub mod hierarchy;
pub mod latency;
pub mod latency_obs;
pub mod logobs;
pub mod metrics;
pub mod observe;
pub mod occupancy;
pub mod oracle;
pub mod profile;
pub mod regret;
pub mod report;
pub mod simulator;
pub mod slo;
pub mod windowed;

pub use anomaly::{AnomalyConfig, AnomalyKind, AnomalyObserver, AnomalyTrigger};
pub use concurrent::{
    validate_shard_count, ConcurrentReport, ConcurrentSimulator, ShardBalance, ShardConfigError,
    ShardLockProbe, ShardReasons, ShardSummary, ShardedTrace,
};
pub use experiment::{CacheSizeSweep, SweepPoint, SweepProgress, SweepReport};
pub use flight::FlightObserver;
pub use hierarchy::{simulate_hierarchy, HierarchyConfig, HierarchyReport};
pub use latency::{LatencyEstimate, LatencyModel, LinkModel};
pub use latency_obs::LatencyObserver;
pub use logobs::LogObserver;
pub use metrics::HitStats;
pub use observe::{AccessEvent, AccessKind, NoopObserver, Observer, RunMeta};
pub use occupancy::{OccupancySample, OccupancySeries};
pub use oracle::{clairvoyant, clairvoyant_overall};
pub use profile::ProfileObserver;
pub use regret::{RegretConfig, RegretTracker};
pub use report::Metric;
pub use simulator::{
    ModificationRule, SimulationConfig, SimulationConfigBuilder, SimulationReport, Simulator,
};
pub use slo::{SloBreach, SloConfig, SloTracker};
pub use windowed::{ChurnCounters, Window, WindowSpec, WindowedMetrics};
