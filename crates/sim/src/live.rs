//! Continuous replay: the engine behind `webcache serve`.
//!
//! A [`ReplayLoop`] drives the sharded replay pass after pass — each
//! pass replays one trace from a [`TraceSource`] through a fresh
//! [`ShardedEngine`](webcache_core::ShardedEngine) — until a shared
//! shutdown flag is raised, the configured pass budget is exhausted, or
//! the source runs dry. A plain daemon is the one-shard, one-client case
//! of the same loop, replayed on the calling thread. Observers (one per
//! shard: profiling, anomaly detection, logging, flight recording)
//! persist across passes, so windowed baselines keep their history while
//! the cache itself restarts cold.
//!
//! Liveness is published through a [`LiveStatus`] — a handful of atomics
//! (passes, requests, replaying, last pass throughput) that an HTTP
//! `/healthz` handler can read from another thread without locking.
//!
//! An optional request-rate throttle turns the flat-out replay into a
//! paced, wall-clock workload (useful for watching windowed metrics
//! evolve on a live dashboard instead of finishing a pass in
//! milliseconds). The shutdown flag and the throttle are checked every
//! 128 requests of a shard: the throttle stops sleeping the moment the
//! flag rises, and an interrupted pass is discarded, not reported.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use webcache_core::{PolicySpec, ShardConfigError, ShardLockProbe, ShardReasons};
use webcache_trace::DenseTrace;

use crate::concurrent::{ConcurrentReport, ConcurrentSimulator, ShardedTrace};
use crate::observe::Observer;
use crate::simulator::SimulationConfig;

/// Supplies the trace for each pass of a [`ReplayLoop`].
pub trait TraceSource {
    /// The trace for pass `pass` (0-based); `None` ends the loop.
    fn next_pass(&mut self, pass: u64) -> Option<&DenseTrace>;
}

/// Replays one fixed trace on every pass (`--trace <file>` mode).
#[derive(Debug)]
pub struct FixedSource {
    dense: DenseTrace,
}

impl FixedSource {
    /// Replays `dense` on every pass.
    pub fn from_dense(dense: DenseTrace) -> Self {
        FixedSource { dense }
    }
}

impl TraceSource for FixedSource {
    fn next_pass(&mut self, _pass: u64) -> Option<&DenseTrace> {
        Some(&self.dense)
    }
}

/// Replay progress readable from other threads without locking.
#[derive(Debug, Default)]
pub struct LiveStatus {
    passes: AtomicU64,
    requests: AtomicU64,
    replaying: AtomicBool,
    /// `f64` bit pattern of the last completed pass's request rate.
    last_pass_rps: AtomicU64,
}

impl LiveStatus {
    /// Creates a zeroed status.
    pub fn new() -> Self {
        LiveStatus::default()
    }

    /// Completed passes.
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }

    /// Requests replayed across all completed passes.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Whether the replay loop is currently running.
    pub fn replaying(&self) -> bool {
        self.replaying.load(Ordering::Relaxed)
    }

    /// Requests per second of the last completed pass (0 before the
    /// first pass completes).
    pub fn last_pass_req_per_sec(&self) -> f64 {
        f64::from_bits(self.last_pass_rps.load(Ordering::Relaxed))
    }

    /// Flags the replay loop as running / stopped. The loop sets it
    /// around its passes; a daemon that answers `/healthz` before its
    /// replay thread starts sets it first, so the endpoint never reads
    /// "not replaying" before the first pass.
    pub fn set_replaying(&self, on: bool) {
        self.replaying.store(on, Ordering::Relaxed);
    }

    /// Publishes the totals after a completed pass (driver-side).
    pub(crate) fn record_pass(&self, passes: u64, requests: u64, req_per_sec: f64) {
        self.passes.store(passes, Ordering::Relaxed);
        self.requests.store(requests, Ordering::Relaxed);
        self.last_pass_rps
            .store(req_per_sec.to_bits(), Ordering::Relaxed);
    }
}

/// What one completed pass looked like, handed to the `on_pass`
/// callback of [`ReplayLoop::run`].
#[derive(Debug)]
pub struct PassSummary {
    /// 0-based pass index.
    pub pass: u64,
    /// Requests replayed in this pass.
    pub requests: u64,
    /// Wall-clock duration of the pass (engine build included).
    pub elapsed: Duration,
    /// Aggregate requests per second achieved (post-throttle, if any).
    pub req_per_sec: f64,
    /// The pass's report (per-shard summaries included).
    pub report: ConcurrentReport,
}

/// Totals for a finished loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveSummary {
    /// Passes completed.
    pub passes: u64,
    /// Requests replayed in total.
    pub requests: u64,
}

/// The continuous replay driver. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ReplayLoop {
    /// Cache/simulation parameters, applied to every pass.
    pub config: SimulationConfig,
    /// The policy spec, freshly instantiated per shard per pass.
    pub spec: PolicySpec,
    /// Target aggregate request rate; `None` replays flat out.
    pub rate: Option<f64>,
    /// Pass budget; `None` loops until shutdown.
    pub max_passes: Option<u64>,
    /// Shard count of the engine.
    pub shards: usize,
    /// Clients per pass (clamped to the shard count; client 0 runs on
    /// the calling thread).
    pub clients: usize,
    /// Optional per-shard lock probes, shared across every pass's
    /// engine (handles share cells, so contention stats accumulate).
    pub lock_probes: Option<Vec<ShardLockProbe>>,
    /// Optional per-shard reason channels, handed to every pass's
    /// engine so the policies and caches push the reasons that
    /// [`FlightObserver::with_reasons`](crate::FlightObserver::with_reasons)
    /// drains.
    pub reasons: Option<Vec<ShardReasons>>,
}

impl ReplayLoop {
    /// Runs passes until `shutdown` rises, `max_passes` is reached, or
    /// `source` runs dry. `observers[s]` sees shard `s`'s events of
    /// every pass (global request indices and document slots; see
    /// [`ConcurrentSimulator::run_sharded_controlled`]); `on_pass` fires
    /// after each completed pass with its summary.
    ///
    /// # Errors
    ///
    /// [`ShardConfigError`] for an invalid shard count.
    ///
    /// # Panics
    ///
    /// Panics when `observers` does not hold one observer per shard.
    pub fn run<S, O, F>(
        &self,
        source: &mut S,
        observers: &mut [O],
        status: &LiveStatus,
        shutdown: &AtomicBool,
        mut on_pass: F,
    ) -> Result<LiveSummary, ShardConfigError>
    where
        S: TraceSource,
        O: Observer + Send,
        F: FnMut(&PassSummary),
    {
        webcache_core::validate_shard_count(self.shards)?;
        let mut simulator = ConcurrentSimulator::new(self.spec, self.config);
        simulator.lock_probes = self.lock_probes.clone();
        simulator.reasons = self.reasons.clone();
        status.set_replaying(true);
        let mut passes = 0u64;
        let mut requests = 0u64;
        while !shutdown.load(Ordering::Relaxed) && self.max_passes.is_none_or(|max| passes < max) {
            let Some(dense) = source.next_pass(passes) else {
                break;
            };
            // Rebuilt per pass: stream sources hand out a new trace each
            // epoch, and the split is one O(n) sweep — noise next to the
            // replay itself.
            let sharded = ShardedTrace::build(dense, self.shards)?;
            let report = simulator.run_sharded_controlled(
                dense,
                &sharded,
                self.clients,
                self.rate,
                Some(shutdown),
                observers,
            );
            if !report.completed {
                break;
            }
            let req_per_sec = report.requests_per_sec();
            requests += report.requests;
            passes += 1;
            status.record_pass(passes, requests, req_per_sec);
            on_pass(&PassSummary {
                pass: passes - 1,
                requests: report.requests,
                elapsed: report.elapsed,
                req_per_sec,
                report,
            });
        }
        status.set_replaying(false);
        Ok(LiveSummary { passes, requests })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{AccessEvent, AccessKind, NoopObserver};
    use std::time::Instant;
    use webcache_core::PolicyKind;
    use webcache_trace::{ByteSize, DocumentType};

    fn small_trace(requests: usize) -> DenseTrace {
        DenseTrace::from_requests((0..requests).map(|i| (i as u64 % 16, 700, DocumentType::Html)))
    }

    fn replay_loop(shards: usize, max_passes: Option<u64>, rate: Option<f64>) -> ReplayLoop {
        ReplayLoop {
            config: SimulationConfig::builder()
                .capacity(ByteSize::from_kib(8))
                .warmup_fraction(0.0)
                .build(),
            spec: PolicyKind::Lru.into(),
            rate,
            max_passes,
            shards,
            clients: shards,
            lock_probes: None,
            reasons: None,
        }
    }

    /// Runs `replay_loop(shards, ..)` with no-op observers.
    fn run_bare(
        replay: &ReplayLoop,
        source: &mut impl TraceSource,
        status: &LiveStatus,
        shutdown: &AtomicBool,
        on_pass: impl FnMut(&PassSummary),
    ) -> LiveSummary {
        let mut observers = vec![NoopObserver; replay.shards];
        replay
            .run(source, &mut observers, status, shutdown, on_pass)
            .expect("valid shard count")
    }

    #[test]
    fn bounded_loop_runs_exactly_max_passes() {
        for shards in [1, 4] {
            let mut source = FixedSource::from_dense(small_trace(200));
            let status = LiveStatus::new();
            let shutdown = AtomicBool::new(false);
            let mut seen = Vec::new();
            let summary = run_bare(
                &replay_loop(shards, Some(3), None),
                &mut source,
                &status,
                &shutdown,
                |pass| seen.push((pass.pass, pass.report.shards)),
            );
            assert_eq!(summary.passes, 3);
            assert_eq!(summary.requests, 600);
            assert_eq!(seen, vec![(0, shards), (1, shards), (2, shards)]);
            assert_eq!(status.passes(), 3);
            assert_eq!(status.requests(), 600);
            assert!(!status.replaying(), "cleared after the loop ends");
            assert!(status.last_pass_req_per_sec() > 0.0);
        }
    }

    #[test]
    fn observers_persist_across_passes() {
        #[derive(Debug, Default)]
        struct CountRuns {
            starts: u64,
            accesses: u64,
        }
        impl Observer for CountRuns {
            fn on_run_start(&mut self, _meta: crate::observe::RunMeta) {
                self.starts += 1;
            }
            fn on_access(&mut self, _e: AccessEvent, _k: AccessKind) {
                self.accesses += 1;
            }
        }
        for shards in [1, 4] {
            let mut source = FixedSource::from_dense(small_trace(100));
            let status = LiveStatus::new();
            let shutdown = AtomicBool::new(false);
            let mut observers: Vec<CountRuns> = (0..shards).map(|_| CountRuns::default()).collect();
            replay_loop(shards, Some(4), None)
                .run(&mut source, &mut observers, &status, &shutdown, |_| {})
                .unwrap();
            for obs in &observers {
                assert_eq!(obs.starts, 4, "one run start per shard per pass");
            }
            let accesses: u64 = observers.iter().map(|o| o.accesses).sum();
            assert_eq!(accesses, 400, "state accumulated across passes");
        }
    }

    #[test]
    fn raised_shutdown_flag_stops_before_the_first_pass() {
        let mut source = FixedSource::from_dense(small_trace(100));
        let status = LiveStatus::new();
        let shutdown = AtomicBool::new(true);
        let summary = run_bare(
            &replay_loop(1, None, None),
            &mut source,
            &status,
            &shutdown,
            |_| {},
        );
        assert_eq!(summary.passes, 0);
        assert!(!status.replaying());
    }

    #[test]
    fn shutdown_from_the_pass_callback_ends_an_unbounded_loop() {
        for shards in [1, 4] {
            let mut source = FixedSource::from_dense(small_trace(50));
            let status = LiveStatus::new();
            let shutdown = AtomicBool::new(false);
            let summary = run_bare(
                &replay_loop(shards, None, None),
                &mut source,
                &status,
                &shutdown,
                |pass| {
                    if pass.pass == 1 {
                        shutdown.store(true, Ordering::Relaxed);
                    }
                },
            );
            assert_eq!(summary.passes, 2, "flag honored between passes");
        }
    }

    #[test]
    fn dry_source_ends_the_loop() {
        struct TwoPasses(Option<DenseTrace>);
        impl TraceSource for TwoPasses {
            fn next_pass(&mut self, pass: u64) -> Option<&DenseTrace> {
                (pass < 2).then(|| self.0.as_ref().expect("trace"))
            }
        }
        let mut source = TwoPasses(Some(small_trace(30)));
        let status = LiveStatus::new();
        let shutdown = AtomicBool::new(false);
        let summary = run_bare(
            &replay_loop(1, None, None),
            &mut source,
            &status,
            &shutdown,
            |_| {},
        );
        assert_eq!(summary.passes, 2);
        assert_eq!(summary.requests, 60);
    }

    #[test]
    fn rate_throttle_slows_the_pass() {
        for shards in [1, 4] {
            let mut source = FixedSource::from_dense(small_trace(512));
            let status = LiveStatus::new();
            let shutdown = AtomicBool::new(false);
            let started = Instant::now();
            // 512 requests at 10k req/s should take ~51 ms; allow wide
            // slack under CI load but require clearly-throttled behavior.
            run_bare(
                &replay_loop(shards, Some(1), Some(10_000.0)),
                &mut source,
                &status,
                &shutdown,
                |_| {},
            );
            assert!(
                started.elapsed() >= Duration::from_millis(30),
                "throttle had no effect at {shards} shards: {:?}",
                started.elapsed()
            );
            assert!(status.last_pass_req_per_sec() < 20_000.0);
        }
    }

    #[test]
    fn bad_shard_counts_are_rejected() {
        let mut source = FixedSource::from_dense(small_trace(100));
        let status = LiveStatus::new();
        let shutdown = AtomicBool::new(false);
        let err = replay_loop(6, Some(1), None)
            .run(
                &mut source,
                &mut [NoopObserver; 6],
                &status,
                &shutdown,
                |_| {},
            )
            .unwrap_err();
        assert_eq!(err, ShardConfigError::NotPowerOfTwo(6));
        assert!(!status.replaying());
    }
}
