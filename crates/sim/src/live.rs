//! Continuous replay: the engine behind `webcache serve`.
//!
//! A [`ReplayLoop`] drives the instrumented simulator pass after pass —
//! each pass replays one trace from a [`TraceSource`] through a fresh
//! cache — until a shared shutdown flag is raised, the configured pass
//! budget is exhausted, or the source runs dry. Observers (profiling,
//! anomaly detection, logging) persist across passes, so windowed
//! baselines keep their history while the cache itself restarts cold.
//!
//! Liveness is published through a [`LiveStatus`] — a handful of atomics
//! (passes, requests, replaying, last pass throughput) that an HTTP
//! `/healthz` handler can read from another thread without locking.
//!
//! An optional request-rate throttle turns the flat-out replay into a
//! paced, wall-clock workload (useful for watching windowed metrics
//! evolve on a live dashboard instead of finishing a pass in
//! milliseconds). The pacer stops sleeping the moment the shutdown flag
//! rises, so Ctrl-C never waits on a throttled pass.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use webcache_core::PolicySpec;
use webcache_trace::DenseTrace;

use crate::observe::{AccessEvent, AccessKind, Observer};
use crate::simulator::{SimulationConfig, SimulationReport, Simulator};

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

    /// Flags the replay loop as running / stopped. The drivers set it
    /// around their loops; a daemon that answers `/healthz` before its
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
    /// Wall-clock duration of the pass.
    pub elapsed: Duration,
    /// Requests per second achieved (post-throttle, if any).
    pub req_per_sec: f64,
    /// The pass's end-of-run report.
    pub report: SimulationReport,
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
#[derive(Debug, Clone, Copy)]
pub struct ReplayLoop {
    /// Cache/simulation parameters, applied to every pass.
    pub config: SimulationConfig,
    /// The policy spec, freshly instantiated per pass.
    pub spec: PolicySpec,
    /// Target request rate (requests/second); `None` replays flat out.
    pub rate: Option<f64>,
    /// Pass budget; `None` loops until shutdown.
    pub max_passes: Option<u64>,
}

impl ReplayLoop {
    /// Runs passes until `shutdown` rises, `max_passes` is reached, or
    /// `source` returns `None`. `observer` sees every pass's events;
    /// `on_pass` fires after each pass with its summary. The shutdown
    /// flag is honored **between** passes (and by the pacer's sleeps);
    /// a flat-out pass in flight runs to completion.
    pub fn run<S, O, F>(
        &self,
        source: &mut S,
        observer: &mut O,
        status: &LiveStatus,
        shutdown: &AtomicBool,
        on_pass: F,
    ) -> LiveSummary
    where
        S: TraceSource,
        O: Observer,
        F: FnMut(&PassSummary),
    {
        let (spec, config) = (self.spec, self.config);
        self.run_with(
            source,
            observer,
            status,
            shutdown,
            move || Simulator::from_spec(spec, config),
            on_pass,
        )
    }

    /// Like [`ReplayLoop::run`], but each pass's simulator comes from
    /// `make_simulator` instead of `Simulator::from_spec(spec, config)`.
    /// This is the seam for instrumented replay: a factory can build the
    /// policy with a metrics sink and attach admission-reason channels
    /// (see `Simulator::from_spec_instrumented`), while the pass loop,
    /// pacing and status plumbing stay identical.
    pub fn run_with<S, O, F, M>(
        &self,
        source: &mut S,
        observer: &mut O,
        status: &LiveStatus,
        shutdown: &AtomicBool,
        mut make_simulator: M,
        mut on_pass: F,
    ) -> LiveSummary
    where
        S: TraceSource,
        O: Observer,
        F: FnMut(&PassSummary),
        M: FnMut() -> Simulator,
    {
        status.replaying.store(true, Ordering::Relaxed);
        let mut passes = 0u64;
        let mut requests = 0u64;
        while !shutdown.load(Ordering::Relaxed) && self.max_passes.is_none_or(|max| passes < max) {
            let Some(dense) = source.next_pass(passes) else {
                break;
            };
            let pass_start = Instant::now();
            let simulator = make_simulator();
            let report = match self.rate {
                Some(rate) => {
                    let mut paced = Pacer::new(&mut *observer, rate, shutdown);
                    simulator.run_dense_observed(dense, &mut paced)
                }
                None => simulator.run_dense_observed(dense, observer),
            };
            let elapsed = pass_start.elapsed();
            let pass_requests = dense.len() as u64;
            let req_per_sec = pass_requests as f64 / elapsed.as_secs_f64().max(1e-9);
            requests += pass_requests;
            passes += 1;
            status.passes.store(passes, Ordering::Relaxed);
            status.requests.store(requests, Ordering::Relaxed);
            status
                .last_pass_rps
                .store(req_per_sec.to_bits(), Ordering::Relaxed);
            on_pass(&PassSummary {
                pass: passes - 1,
                requests: pass_requests,
                elapsed,
                req_per_sec,
                report,
            });
        }
        status.replaying.store(false, Ordering::Relaxed);
        LiveSummary { passes, requests }
    }
}

/// How many requests the pacer lets through between clock checks.
const PACE_STRIDE: u64 = 128;

/// Observer wrapper that sleeps as needed to hold a target request
/// rate. Checks the clock every [`PACE_STRIDE`] requests; never sleeps
/// once the shutdown flag is up, so a throttled pass drains quickly on
/// Ctrl-C.
struct Pacer<'a, O> {
    inner: &'a mut O,
    rate: f64,
    started: Instant,
    count: u64,
    shutdown: &'a AtomicBool,
}

impl<'a, O: Observer> Pacer<'a, O> {
    fn new(inner: &'a mut O, rate: f64, shutdown: &'a AtomicBool) -> Self {
        Pacer {
            inner,
            rate: rate.max(1e-9),
            started: Instant::now(),
            count: 0,
            shutdown,
        }
    }

    #[inline]
    fn pace(&mut self) {
        self.count += 1;
        if !self.count.is_multiple_of(PACE_STRIDE) {
            return;
        }
        let due = Duration::from_secs_f64(self.count as f64 / self.rate);
        let elapsed = self.started.elapsed();
        if due > elapsed && !self.shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(due - elapsed);
        }
    }
}

impl<O: Observer> Observer for Pacer<'_, O> {
    #[inline]
    fn on_run_start(&mut self, meta: crate::observe::RunMeta) {
        self.inner.on_run_start(meta);
    }

    #[inline]
    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        self.inner.on_access(event, kind);
        self.pace();
    }

    #[inline]
    fn on_insert(&mut self, event: AccessEvent) {
        self.inner.on_insert(event);
    }

    #[inline]
    fn on_admission_reject(&mut self, event: AccessEvent) {
        self.inner.on_admission_reject(event);
    }

    #[inline]
    fn on_evict(&mut self, at: AccessEvent, evicted: webcache_core::Eviction) {
        self.inner.on_evict(at, evicted);
    }

    #[inline]
    fn on_run_end(&mut self) {
        self.inner.on_run_end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::NoopObserver;
    use webcache_core::PolicyKind;
    use webcache_trace::{ByteSize, DocumentType};

    fn small_trace(requests: usize) -> DenseTrace {
        DenseTrace::from_requests((0..requests).map(|i| (i as u64 % 16, 700, DocumentType::Html)))
    }

    fn replay_loop(max_passes: Option<u64>, rate: Option<f64>) -> ReplayLoop {
        ReplayLoop {
            config: SimulationConfig::builder()
                .capacity(ByteSize::from_kib(8))
                .warmup_fraction(0.0)
                .build(),
            spec: PolicyKind::Lru.into(),
            rate,
            max_passes,
        }
    }

    #[test]
    fn bounded_loop_runs_exactly_max_passes() {
        let mut source = FixedSource::from_dense(small_trace(200));
        let status = LiveStatus::new();
        let shutdown = AtomicBool::new(false);
        let mut pass_indices = Vec::new();
        let summary = replay_loop(Some(3), None).run(
            &mut source,
            &mut NoopObserver,
            &status,
            &shutdown,
            |pass| pass_indices.push(pass.pass),
        );
        assert_eq!(summary.passes, 3);
        assert_eq!(summary.requests, 600);
        assert_eq!(pass_indices, vec![0, 1, 2]);
        assert_eq!(status.passes(), 3);
        assert_eq!(status.requests(), 600);
        assert!(!status.replaying(), "cleared after the loop ends");
        assert!(status.last_pass_req_per_sec() > 0.0);
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
        let mut source = FixedSource::from_dense(small_trace(100));
        let status = LiveStatus::new();
        let shutdown = AtomicBool::new(false);
        let mut obs = CountRuns::default();
        replay_loop(Some(4), None).run(&mut source, &mut obs, &status, &shutdown, |_| {});
        assert_eq!(obs.starts, 4, "one run start per pass");
        assert_eq!(obs.accesses, 400, "state accumulated across passes");
    }

    #[test]
    fn raised_shutdown_flag_stops_before_the_first_pass() {
        let mut source = FixedSource::from_dense(small_trace(100));
        let status = LiveStatus::new();
        let shutdown = AtomicBool::new(true);
        let summary =
            replay_loop(None, None).run(&mut source, &mut NoopObserver, &status, &shutdown, |_| {});
        assert_eq!(summary.passes, 0);
        assert!(!status.replaying());
    }

    #[test]
    fn shutdown_from_the_pass_callback_ends_an_unbounded_loop() {
        let mut source = FixedSource::from_dense(small_trace(50));
        let status = LiveStatus::new();
        let shutdown = AtomicBool::new(false);
        let summary = replay_loop(None, None).run(
            &mut source,
            &mut NoopObserver,
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
        let summary =
            replay_loop(None, None).run(&mut source, &mut NoopObserver, &status, &shutdown, |_| {});
        assert_eq!(summary.passes, 2);
        assert_eq!(summary.requests, 60);
    }

    #[test]
    fn rate_throttle_slows_the_pass() {
        let mut source = FixedSource::from_dense(small_trace(512));
        let status = LiveStatus::new();
        let shutdown = AtomicBool::new(false);
        let started = Instant::now();
        // 512 requests at 10k req/s should take ~51 ms; allow wide slack
        // under CI load but require clearly-throttled behavior.
        replay_loop(Some(1), Some(10_000.0)).run(
            &mut source,
            &mut NoopObserver,
            &status,
            &shutdown,
            |_| {},
        );
        assert!(
            started.elapsed() >= Duration::from_millis(30),
            "throttle had no effect: {:?}",
            started.elapsed()
        );
        assert!(status.last_pass_req_per_sec() < 20_000.0);
    }
}
