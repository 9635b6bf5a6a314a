//! Policy × cache-size sweeps (the engine behind Figures 2 and 3).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use webcache_core::PolicySpec;
use webcache_obs::TraceRecorder;
use webcache_trace::{ByteSize, DenseTrace, DocumentType, Trace};

use crate::simulator::{SimulationConfig, SimulationReport, Simulator};

/// The relative cache sizes of the paper's figures: roughly 0.5% to 40%
/// of the overall trace size.
pub const PAPER_SIZE_FRACTIONS: [f64; 7] = [0.005, 0.01, 0.025, 0.05, 0.10, 0.20, 0.40];

/// One (policy, capacity) grid cell and its simulation outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The policy spec simulated (admission + replacement).
    pub policy: PolicySpec,
    /// Cache capacity of the run.
    pub capacity: ByteSize,
    /// Full per-type report.
    pub report: SimulationReport,
}

/// All grid cells of a sweep.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct SweepReport {
    points: Vec<SweepPoint>,
    /// `(policy, capacity) -> points index`, sorted for binary search.
    /// Derived from `points`; rebuilt on construction, excluded from
    /// equality.
    #[serde(skip)]
    index: Vec<(PolicySpec, ByteSize, u32)>,
}

impl PartialEq for SweepReport {
    fn eq(&self, other: &Self) -> bool {
        self.points == other.points
    }
}

impl SweepReport {
    /// Builds a report from grid points (in their display order).
    fn from_points(points: Vec<SweepPoint>) -> Self {
        let mut index: Vec<(PolicySpec, ByteSize, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (p.policy, p.capacity, i as u32))
            .collect();
        index.sort_unstable();
        SweepReport { points, index }
    }

    /// All points, ordered by policy then capacity.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// The point for an exact (policy, capacity) pair. Accepts a bare
    /// [`PolicyKind`](webcache_core::PolicyKind) or a full spec.
    pub fn get(&self, policy: impl Into<PolicySpec>, capacity: ByteSize) -> Option<&SweepPoint> {
        let policy = policy.into();
        let at = self
            .index
            .partition_point(|&(p, c, _)| (p, c) < (policy, capacity));
        match self.index.get(at) {
            Some(&(p, c, i)) if p == policy && c == capacity => self.points.get(i as usize),
            _ => None,
        }
    }

    /// The distinct capacities in ascending order.
    pub fn capacities(&self) -> Vec<ByteSize> {
        let mut caps: Vec<ByteSize> = self.points.iter().map(|p| p.capacity).collect();
        caps.sort_unstable();
        caps.dedup();
        caps
    }

    /// The distinct policy specs, in first-appearance order.
    pub fn policies(&self) -> Vec<PolicySpec> {
        let mut seen = Vec::new();
        for p in &self.points {
            if !seen.contains(&p.policy) {
                seen.push(p.policy);
            }
        }
        seen
    }

    /// `(capacity, hit rate)` series for one policy, optionally for one
    /// document type (the curves of Figures 2/3, left columns).
    pub fn hit_rate_series(
        &self,
        policy: impl Into<PolicySpec>,
        ty: Option<DocumentType>,
    ) -> Vec<(ByteSize, f64)> {
        self.series(policy.into(), |report| match ty {
            Some(ty) => report.by_type()[ty].hit_rate(),
            None => report.overall().hit_rate(),
        })
    }

    /// `(capacity, byte hit rate)` series (the right columns).
    pub fn byte_hit_rate_series(
        &self,
        policy: impl Into<PolicySpec>,
        ty: Option<DocumentType>,
    ) -> Vec<(ByteSize, f64)> {
        self.series(policy.into(), |report| match ty {
            Some(ty) => report.by_type()[ty].byte_hit_rate(),
            None => report.overall().byte_hit_rate(),
        })
    }

    fn series(
        &self,
        policy: PolicySpec,
        metric: impl Fn(&SimulationReport) -> f64,
    ) -> Vec<(ByteSize, f64)> {
        let mut out: Vec<(ByteSize, f64)> = self
            .points
            .iter()
            .filter(|p| p.policy == policy)
            .map(|p| (p.capacity, metric(&p.report)))
            .collect();
        out.sort_unstable_by_key(|&(c, _)| c);
        out
    }
}

/// A progress snapshot, delivered to the
/// [`CacheSizeSweep::run_with_progress_recorded`] callback once per
/// completed grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepProgress {
    /// Grid cells finished so far (including this one).
    pub completed: usize,
    /// Total grid cells in the sweep.
    pub total: usize,
    /// Index of the worker thread that ran the cell (`0..threads`).
    pub worker: usize,
    /// Policy spec of the finished cell.
    pub policy: PolicySpec,
    /// Capacity of the finished cell.
    pub capacity: ByteSize,
    /// Requests replayed by the cell (the trace length).
    pub requests: usize,
    /// Wall-clock time the cell took.
    pub elapsed: Duration,
    /// Replay throughput of the cell, in requests per second.
    pub requests_per_sec: f64,
}

/// A grid of simulations: every configured policy at every capacity.
#[derive(Debug, Clone)]
pub struct CacheSizeSweep {
    policies: Vec<PolicySpec>,
    capacities: Vec<ByteSize>,
    shards: usize,
}

impl CacheSizeSweep {
    /// Creates a sweep over the given policies and capacities with the
    /// paper's default simulation settings. Policies may be bare
    /// [`PolicyKind`](webcache_core::PolicyKind)s or full composed
    /// [`PolicySpec`]s (`tinylfu+slru`).
    ///
    /// # Panics
    ///
    /// Panics when either list is empty or any capacity is zero.
    pub fn new<P: Into<PolicySpec>>(policies: Vec<P>, capacities: Vec<ByteSize>) -> Self {
        let policies: Vec<PolicySpec> = policies.into_iter().map(Into::into).collect();
        assert!(!policies.is_empty(), "sweep needs at least one policy");
        assert!(!capacities.is_empty(), "sweep needs at least one capacity");
        assert!(
            capacities.iter().all(|c| !c.is_zero()),
            "capacities must be positive"
        );
        CacheSizeSweep {
            policies,
            capacities,
            shards: 1,
        }
    }

    /// Does nothing: every cell replays through [`Simulator::run_dense`].
    /// Kept so callers written against the former batched-replay switch
    /// still compile.
    #[must_use]
    pub fn with_batched(self, _batched: bool) -> Self {
        self
    }

    /// Runs every grid cell through `N` shard-striped caches
    /// ([`ConcurrentSimulator`](crate::ConcurrentSimulator)) instead of the
    /// single serial cache (capacity split evenly across shards). The
    /// default of 1 is bit-identical to the serial sweep; larger counts
    /// quantify the eviction-quality cost of sharding.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero, not a power of two or above 1024.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        crate::validate_shard_count(shards).expect("sweep shard count");
        self.shards = shards;
        self
    }

    /// Capacities at the paper's relative cache sizes
    /// ([`PAPER_SIZE_FRACTIONS`]) of `trace`'s overall size. Kept for the
    /// perfbench harness, which holds a [`Trace`].
    pub fn paper_capacities(trace: &Trace) -> Vec<ByteSize> {
        let overall = trace.overall_size();
        PAPER_SIZE_FRACTIONS.map(|f| overall.fraction(f)).to_vec()
    }

    /// Runs the grid over `trace`, using up to `threads` worker threads.
    ///
    /// Each grid cell is independent, so runs are embarrassingly
    /// parallel. Every worker replays the one shared [`DenseTrace`]
    /// against its own cache through the hash-free dense path.
    pub fn run_with_threads(&self, trace: &DenseTrace, threads: usize) -> SweepReport {
        self.run_with_progress_recorded(trace, threads, |_| {}, &mut [])
    }

    /// Interns `trace` and runs [`CacheSizeSweep::run_with_progress_recorded`]
    /// unrecorded. Kept for the perfbench harness, which holds a [`Trace`].
    pub fn run_with_progress<F>(&self, trace: &Trace, threads: usize, progress: F) -> SweepReport
    where
        F: Fn(&SweepProgress) + Sync,
    {
        self.run_with_progress_recorded(&DenseTrace::build(trace), threads, progress, &mut [])
    }

    /// Like [`CacheSizeSweep::run_with_threads`], but calls `progress`
    /// after every finished grid cell with completion counts and the
    /// cell's replay throughput, and records one timing span per grid
    /// cell into per-worker [`TraceRecorder`]s.
    ///
    /// The callback runs on the worker threads (hence `Sync`); keep it
    /// cheap. Callback ordering across workers is non-deterministic, but
    /// `completed` is a consistent running count and reaches `total`
    /// exactly once.
    ///
    /// `recorders[i]` becomes worker `i`'s track; workers beyond
    /// `recorders.len()` run unrecorded (pass an empty slice to disable
    /// recording entirely). Cell spans are named
    /// `"<policy> @ <capacity>"`. Create the recorders from one shared
    /// [`TraceClock`](webcache_obs::TraceClock) so the worker tracks
    /// align in the exported chrome trace.
    pub fn run_with_progress_recorded<F>(
        &self,
        dense: &DenseTrace,
        threads: usize,
        progress: F,
        recorders: &mut [TraceRecorder],
    ) -> SweepReport
    where
        F: Fn(&SweepProgress) + Sync,
    {
        let sharded = (self.shards > 1).then(|| {
            crate::concurrent::ShardedTrace::build(dense, self.shards)
                .expect("with_shards validated the count")
        });
        let mut tasks: Vec<(PolicySpec, ByteSize)> = Vec::new();
        for &policy in &self.policies {
            for &capacity in &self.capacities {
                tasks.push((policy, capacity));
            }
        }
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let results: Mutex<Vec<SweepPoint>> = Mutex::new(Vec::with_capacity(tasks.len()));
        let workers = threads.clamp(1, tasks.len());
        let total = tasks.len();
        let requests = dense.len();
        // Hand each worker its own recorder by value; missing tails run
        // unrecorded.
        let mut recorders: Vec<Option<&mut TraceRecorder>> =
            recorders.iter_mut().map(Some).collect();
        recorders.resize_with(workers.max(recorders.len()), || None);

        std::thread::scope(|scope| {
            for (worker, mut recorder) in recorders.drain(..workers).enumerate() {
                let tasks = &tasks;
                let next = &next;
                let done = &done;
                let results = &results;
                let progress = &progress;
                let sharded = &sharded;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(policy, capacity)) = tasks.get(i) else {
                        break;
                    };
                    let config = SimulationConfig::new(capacity);
                    if let Some(rec) = recorder.as_deref_mut() {
                        rec.begin(format!("{} @ {capacity}", policy.label()));
                    }
                    let started = Instant::now();
                    let report = if let Some(split) = sharded {
                        // Sharded cells run single-client: the sweep's
                        // own workers provide the parallelism, and the
                        // merged report is client-count independent
                        // anyway.
                        crate::concurrent::ConcurrentSimulator::new(policy, config)
                            .run_sharded(dense, split, 1)
                            .to_simulation_report()
                    } else {
                        Simulator::from_spec(policy, config).run_dense(dense)
                    };
                    let elapsed = started.elapsed();
                    if let Some(rec) = recorder.as_deref_mut() {
                        rec.end();
                    }
                    results
                        .lock()
                        .expect("no panics hold the lock")
                        .push(SweepPoint {
                            policy,
                            capacity,
                            report,
                        });
                    let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                    progress(&SweepProgress {
                        completed,
                        total,
                        worker,
                        policy,
                        capacity,
                        requests,
                        elapsed,
                        requests_per_sec: requests as f64 / elapsed.as_secs_f64().max(1e-9),
                    });
                });
            }
        });

        let mut points = results.into_inner().expect("workers finished");
        points.sort_unstable_by_key(|p| {
            (
                self.policies.iter().position(|&k| k == p.policy),
                p.capacity,
            )
        });
        SweepReport::from_points(points)
    }

    /// Runs the grid with one worker per available CPU core.
    pub fn run(&self, trace: &DenseTrace) -> SweepReport {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.run_with_threads(trace, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_core::PolicyKind;
    use webcache_trace::{DocId, Request, Timestamp};

    fn tiny_trace() -> DenseTrace {
        DenseTrace::from_requests((0..600u32).map(|i| {
            let i = u64::from(i);
            let ty = if i % 5 == 0 {
                DocumentType::Image
            } else {
                DocumentType::Html
            };
            (i % 37, 500 + (i % 7) * 100, ty)
        }))
    }

    #[test]
    fn grid_is_complete_and_ordered() {
        let trace = tiny_trace();
        let sweep = CacheSizeSweep::new(
            vec![PolicyKind::Lru, PolicyKind::LfuDa],
            vec![ByteSize::new(2_000), ByteSize::new(8_000)],
        );
        let report = sweep.run_with_threads(&trace, 4);
        assert_eq!(report.points().len(), 4);
        assert_eq!(
            report.policies(),
            vec![PolicyKind::Lru.into(), PolicyKind::LfuDa.into()]
        );
        assert_eq!(
            report.capacities(),
            vec![ByteSize::new(2_000), ByteSize::new(8_000)]
        );
        assert!(report.get(PolicyKind::Lru, ByteSize::new(2_000)).is_some());
        assert!(report.get(PolicyKind::Fifo, ByteSize::new(2_000)).is_none());
    }

    #[test]
    fn single_shard_sweep_matches_plain_sweep() {
        let trace = tiny_trace();
        let policies = vec![
            PolicyKind::Lru,
            PolicyKind::GdStar(webcache_core::CostModel::Packet),
        ];
        let capacities = vec![ByteSize::new(2_000), ByteSize::new(8_000)];
        let plain =
            CacheSizeSweep::new(policies.clone(), capacities.clone()).run_with_threads(&trace, 2);
        let sharded = CacheSizeSweep::new(policies, capacities)
            .with_shards(1)
            .run_with_threads(&trace, 2);
        for (p, s) in plain.points().iter().zip(sharded.points()) {
            assert_eq!(p.report.by_type(), s.report.by_type());
        }
    }

    #[test]
    fn sharded_sweep_runs_the_full_grid() {
        let trace = tiny_trace();
        let report = CacheSizeSweep::new(
            vec![PolicyKind::Lru, PolicyKind::LfuDa],
            vec![ByteSize::new(2_000), ByteSize::new(8_000)],
        )
        .with_shards(4)
        .run_with_threads(&trace, 2);
        assert_eq!(report.points().len(), 4);
        for point in report.points() {
            assert!(point.report.overall().requests > 0);
        }
    }

    #[test]
    #[should_panic(expected = "sweep shard count")]
    fn sweep_rejects_non_power_of_two_shards() {
        let _ =
            CacheSizeSweep::new(vec![PolicyKind::Lru], vec![ByteSize::new(1_000)]).with_shards(3);
    }

    #[test]
    fn composed_specs_sweep_alongside_bare_kinds() {
        let trace = tiny_trace();
        let composed: PolicySpec = "tinylfu+slru".parse().unwrap();
        let specs = vec![composed, PolicyKind::Lru.into()];
        let report = CacheSizeSweep::new(specs, vec![ByteSize::new(2_000), ByteSize::new(8_000)])
            .run_with_threads(&trace, 2);
        assert_eq!(report.points().len(), 4);
        assert_eq!(
            report.policies(),
            vec![composed, PolicyKind::Lru.into()],
            "first-appearance order, specs kept distinct"
        );
        let series = report.hit_rate_series(composed, None);
        assert_eq!(series.len(), 2);
        let point = report.get(composed, ByteSize::new(8_000)).unwrap();
        assert_eq!(point.report.policy, "TinyLFU+SLRU");
    }

    #[test]
    fn hit_rate_grows_with_capacity() {
        let trace = tiny_trace();
        let sweep = CacheSizeSweep::new(
            vec![PolicyKind::Lru],
            vec![
                ByteSize::new(1_000),
                ByteSize::new(4_000),
                ByteSize::new(64_000),
            ],
        );
        let series = sweep
            .run_with_threads(&trace, 2)
            .hit_rate_series(PolicyKind::Lru, None);
        assert_eq!(series.len(), 3);
        assert!(series[0].1 <= series[2].1, "{series:?}");
        assert!(series[2].1 > 0.5, "everything fits at 64 kB: {series:?}");
    }

    #[test]
    fn recorded_sweep_spans_cover_every_cell() {
        let trace = tiny_trace();
        let sweep = CacheSizeSweep::new(
            vec![
                PolicyKind::Lru,
                PolicyKind::Gds(webcache_core::CostModel::Constant),
            ],
            vec![ByteSize::new(2_000), ByteSize::new(8_000)],
        );
        let clock = webcache_obs::TraceClock::new();
        let mut recorders: Vec<TraceRecorder> = (0..2)
            .map(|i| TraceRecorder::new(&clock, i as u32 + 1, format!("sweep-worker-{i}")))
            .collect();
        let report = sweep.run_with_progress_recorded(&trace, 2, |_| {}, &mut recorders);
        assert_eq!(report.points().len(), 4);
        let spans: Vec<&str> = recorders
            .iter()
            .flat_map(|r| r.events().iter().map(|e| e.name.as_str()))
            .collect();
        assert_eq!(spans.len(), 4, "one span per grid cell: {spans:?}");
        for rec in &recorders {
            assert_eq!(rec.open_spans(), 0, "all cell spans closed");
        }
        assert!(spans.iter().any(|s| s.starts_with("LRU @ ")), "{spans:?}");
        assert!(
            spans.iter().any(|s| s.starts_with("GDS(1) @ ")),
            "{spans:?}"
        );
        // Fewer recorders than workers: tail workers run unrecorded, the
        // sweep still completes.
        let mut one = vec![TraceRecorder::new(&clock, 9, "solo")];
        let report = sweep.run_with_progress_recorded(&trace, 4, |_| {}, &mut one);
        assert_eq!(report.points().len(), 4);
        assert!(one[0].events().len() <= 4);
    }

    #[test]
    fn parallel_and_serial_runs_agree() {
        let trace = tiny_trace();
        let sweep = CacheSizeSweep::new(
            PolicyKind::PAPER_CONSTANT.to_vec(),
            vec![ByteSize::new(3_000), ByteSize::new(9_000)],
        );
        let serial = sweep.run_with_threads(&trace, 1);
        let parallel = sweep.run_with_threads(&trace, 8);
        assert_eq!(serial, parallel, "simulation must be deterministic");
    }

    #[test]
    fn paper_capacities_scale_with_trace() {
        let trace: Trace = (0..600u64)
            .map(|i| {
                let size = ByteSize::new(500 + (i % 7) * 100);
                Request::new(
                    Timestamp::ZERO,
                    DocId::new(i % 37),
                    DocumentType::Html,
                    size,
                )
            })
            .collect();
        let caps = CacheSizeSweep::paper_capacities(&trace);
        assert_eq!(caps.len(), PAPER_SIZE_FRACTIONS.len());
        let overall = trace.overall_size().as_f64();
        assert_eq!(caps[0].as_u64(), (overall * 0.005).round() as u64);
        assert!(caps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn per_type_series_are_separable() {
        let trace = tiny_trace();
        let sweep = CacheSizeSweep::new(vec![PolicyKind::Lru], vec![ByteSize::new(64_000)]);
        let report = sweep.run_with_threads(&trace, 1);
        let img = report.hit_rate_series(PolicyKind::Lru, Some(DocumentType::Image));
        let html = report.hit_rate_series(PolicyKind::Lru, Some(DocumentType::Html));
        assert_eq!(img.len(), 1);
        assert_eq!(html.len(), 1);
        let bhr = report.byte_hit_rate_series(PolicyKind::Lru, None);
        assert!(bhr[0].1 > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one policy")]
    fn empty_policy_list_rejected() {
        let _ = CacheSizeSweep::new(Vec::<PolicySpec>::new(), vec![ByteSize::new(1)]);
    }

    #[test]
    fn progress_callback_fires_once_per_cell() {
        let trace = tiny_trace();
        let sweep = CacheSizeSweep::new(
            vec![PolicyKind::Lru, PolicyKind::Fifo],
            vec![
                ByteSize::new(2_000),
                ByteSize::new(8_000),
                ByteSize::new(32_000),
            ],
        );
        let seen: Mutex<Vec<SweepProgress>> = Mutex::new(Vec::new());
        let report = sweep.run_with_progress_recorded(
            &trace,
            4,
            |p| {
                seen.lock().unwrap().push(*p);
            },
            &mut [],
        );
        let mut seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 6, "one callback per grid cell");
        assert_eq!(report.points().len(), 6);
        assert!(seen.iter().all(|p| p.total == 6));
        assert!(seen.iter().all(|p| p.requests == 600));
        assert!(seen.iter().all(|p| p.requests_per_sec > 0.0));
        assert!(seen.iter().all(|p| p.worker < 4));
        let mut completed: Vec<usize> = seen.iter().map(|p| p.completed).collect();
        completed.sort_unstable();
        assert_eq!(completed, vec![1, 2, 3, 4, 5, 6]);
        // Every grid cell appears exactly once.
        seen.sort_unstable_by_key(|p| {
            (
                sweep.policies.iter().position(|&k| k == p.policy),
                p.capacity,
            )
        });
        let cells: Vec<(PolicySpec, ByteSize)> =
            seen.iter().map(|p| (p.policy, p.capacity)).collect();
        let mut expected = Vec::new();
        for &policy in &sweep.policies {
            for &capacity in &sweep.capacities {
                expected.push((policy, capacity));
            }
        }
        assert_eq!(cells, expected);
    }
}
