//! Multi-threaded replay through a shard-striped cache.
//!
//! [`ConcurrentSimulator::run`] splits one logical cache into `N`
//! independent shards (`N` a power of two, at most 1024) and replays a
//! [`DenseTrace`] through them with `M` clients. Each shard owns a full
//! [`Cache`] — its own slab store and its own replacement-policy
//! instance — sized at `capacity / N` (at least one byte), behind its
//! own stripe `Mutex`. A [`ShardedTrace`] view first splits the trace
//! into per-shard request subsequences: a document routes to the shard
//! named by the top `log2 N` bits of its fx-hashed id, so it only ever
//! lives in, and contends on, one shard. Clients then take shards
//! round-robin (client `c` owns shards `c`, `c + M`, `c + 2M`, …), lock
//! each owned shard's stripe once and replay its subsequence through the
//! serial simulator's per-request step. Client 0 runs on the calling
//! thread and only clients `1..M` get threads of their own, so a
//! one-shard, one-client replay spawns nothing. Only the slot mapping
//! differs from the serial simulator: each shard's cache addresses its
//! documents by shard-local slot.
//!
//! Two opt-in attachments observe a replay without changing it:
//! [`ShardLockProbe`]s time each stripe-lock acquisition, and per-shard
//! [`ShardReasons`] carry each shard's eviction reasons and admission
//! verdicts to a flight recorder. Each shard also has its own observer,
//! borrowed for the replay, so observer state persists across the
//! passes of `webcache serve`, which builds every shard cold again per
//! pass.
//!
//! Sharding is not free in *quality*: each shard evicts against its own
//! `capacity / N` budget with only its own documents' recency and
//! frequency state, so decisions that a global policy would make across
//! the whole population are approximated per shard. `sweep --shards N`
//! measures exactly this delta against the single-shard case.
//!
//! ## Determinism
//!
//! Results are **independent of the client count and of thread
//! interleaving**. A document is routed to exactly one shard, so each
//! shard's subsequence — including its modification verdicts, which
//! depend only on per-document previous transfer sizes — is a fixed
//! function of the trace and the shard count. Each shard replays its
//! subsequence in trace order against its own cache and policy, and the
//! merged per-type counters are a commutative sum over shards. `N = 1`
//! therefore reproduces the serial simulator's report bit-for-bit, and
//! any `M` produces the same merged report as `M = 1` (both pinned by
//! differential tests).
//!
//! Warm-up stays **global**: a request is measured iff its *global*
//! trace index is past the warm-up boundary, so the merged report uses
//! exactly the same measured set as the serial simulator.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, TryLockError};
use std::time::{Duration, Instant};

use webcache_core::{Cache, Eviction, PolicySpec};
use webcache_obs::{Counter, FlightSink, Histogram, ReasonChannel};
use webcache_trace::{fxhash, ByteSize, DenseTrace, DocId, TypeMap};

use crate::metrics::HitStats;
use crate::observe::{NoopObserver, Observer, RunMeta};
use crate::simulator::{Replay, SimulationConfig, SimulationReport, SlotMap, LOOKAHEAD};

/// The largest shard count [`validate_shard_count`] accepts. Every shard
/// owns a cache, a policy instance and per-shard vectors, and replay
/// drivers start up to one client thread per shard, so a count read from
/// a command line must not size those allocations unchecked.
const MAX_SHARDS: usize = 1024;

/// Rejected shard configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardConfigError {
    /// A shard count of zero.
    Zero,
    /// A shard count that is not a power of two (carries the value).
    NotPowerOfTwo(usize),
    /// A shard count above the largest supported one (carries the value).
    TooMany(usize),
}

impl std::fmt::Display for ShardConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardConfigError::Zero => write!(f, "shard count must be at least 1"),
            ShardConfigError::NotPowerOfTwo(n) => {
                write!(f, "shard count must be a power of two, got {n}")
            }
            ShardConfigError::TooMany(n) => {
                write!(f, "shard count must be at most {MAX_SHARDS}, got {n}")
            }
        }
    }
}

impl std::error::Error for ShardConfigError {}

/// Validates a shard count: positive, a power of two, and at most 1024.
///
/// Power-of-two counts keep the router a shift of the hash's top bits —
/// no modulo — and make capacity splitting exact in the common case.
///
/// # Errors
///
/// [`ShardConfigError`] describing the rejected value.
pub fn validate_shard_count(shards: usize) -> Result<(), ShardConfigError> {
    if shards == 0 {
        Err(ShardConfigError::Zero)
    } else if shards > MAX_SHARDS {
        Err(ShardConfigError::TooMany(shards))
    } else if !shards.is_power_of_two() {
        Err(ShardConfigError::NotPowerOfTwo(shards))
    } else {
        Ok(())
    }
}

/// Which of `shard_count` shards owns `doc`.
///
/// Fx-hashes the id and keeps the hash's **top** `log2(shard_count)`
/// bits — the single-multiply fx hash mixes upward, so the low bits of
/// sequential ids are not usable as a bucket index. `shard_count` is a
/// validated power of two.
#[inline]
fn route(doc: DocId, shard_count: usize) -> usize {
    debug_assert!(shard_count.is_power_of_two());
    if shard_count == 1 {
        return 0;
    }
    let bits = shard_count.trailing_zeros();
    (fxhash::hash_u64(doc.as_u64()) >> (64 - bits)) as usize
}

/// How evenly requests and bytes spread across shards.
///
/// `imbalance` metrics are `max / mean` over all shards: `1.0` is a
/// perfect spread, `N` means one shard took everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardBalance {
    /// Requests routed to the busiest shard.
    pub max_requests: u64,
    /// Mean requests per shard.
    pub mean_requests: f64,
    /// `max_requests / mean_requests` (1.0 when no shard saw traffic).
    pub request_imbalance: f64,
    /// Bytes requested from the heaviest shard.
    pub max_bytes: u128,
    /// Mean bytes requested per shard.
    pub mean_bytes: f64,
    /// `max_bytes / mean_bytes` (1.0 when no bytes moved).
    pub byte_imbalance: f64,
}

impl ShardBalance {
    /// Computes the balance of per-shard `(requests, bytes_requested)`
    /// counts. Bytes sum in `u128`, exact past `u64::MAX`.
    pub fn from_counts(per_shard: &[(u64, u128)]) -> ShardBalance {
        let shards = per_shard.len().max(1);
        let total_requests: u64 = per_shard.iter().map(|&(r, _)| r).sum();
        let total_bytes: u128 = per_shard.iter().map(|&(_, b)| b).sum();
        let max_requests = per_shard.iter().map(|&(r, _)| r).max().unwrap_or(0);
        let max_bytes = per_shard.iter().map(|&(_, b)| b).max().unwrap_or(0);
        let mean_requests = total_requests as f64 / shards as f64;
        let mean_bytes = total_bytes as f64 / shards as f64;
        let ratio = |max: f64, mean: f64| if mean > 0.0 { max / mean } else { 1.0 };
        ShardBalance {
            max_requests,
            mean_requests,
            request_imbalance: ratio(max_requests as f64, mean_requests),
            max_bytes,
            mean_bytes,
            byte_imbalance: ratio(max_bytes as f64, mean_bytes),
        }
    }
}

/// Contention instrumentation for one shard's stripe lock.
///
/// All four handles are the `webcache-obs` relaxed-atomic cells, so the
/// probe can record from the replay while a registry exports the same
/// cells (attach the handles with `Registry::attach_histogram` /
/// `attach_counter`). Probes are opt-in
/// ([`ConcurrentSimulator::with_lock_probes`]); without them the lock
/// path is a single well-predicted branch over the plain `Mutex::lock`,
/// the same no-op-by-default discipline as the policies' `MetricsSink`.
#[derive(Debug, Clone, Default)]
pub struct ShardLockProbe {
    /// Microseconds spent blocked waiting for the stripe lock
    /// (uncontended acquisitions observe 0).
    pub wait_us: Histogram,
    /// Microseconds the stripe lock was held per critical section.
    pub hold_us: Histogram,
    /// Total lock acquisitions through the probed paths.
    pub acquisitions: Counter,
    /// Acquisitions that found the lock held (`try_lock` failed).
    pub contended: Counter,
}

impl ShardLockProbe {
    /// Fresh, detached probe cells.
    pub fn new() -> ShardLockProbe {
        ShardLockProbe::default()
    }

    /// Fraction of acquisitions that had to block (0 when idle).
    pub fn contention_ratio(&self) -> f64 {
        let acquisitions = self.acquisitions.get();
        if acquisitions == 0 {
            0.0
        } else {
            self.contended.get() as f64 / acquisitions as f64
        }
    }
}

/// One shard's flight-recorder reason channels.
#[derive(Debug, Clone, Default)]
pub struct ShardReasons {
    /// Eviction reasons, pushed by the shard's policy through a
    /// [`FlightSink`] (one per victim, in victim order).
    pub evictions: ReasonChannel,
    /// Admission verdicts, pushed by the shard's cache (see
    /// [`Cache::set_admit_reasons`]).
    pub admissions: ReasonChannel,
}

/// A [`DenseTrace`] pre-split for `N` shards.
///
/// Built once per (trace, shard count) and shared read-only across the
/// client threads, exactly like the dense view itself. Holds, per
/// global document slot, the owning shard and the **shard-local** slot
/// (dense within the shard, numbered in first-appearance order, so each
/// shard's cache can use identity slot addressing), plus each shard's
/// request subsequence as global trace indices in trace order.
#[derive(Debug, Clone)]
pub struct ShardedTrace {
    shard_count: usize,
    /// Per global slot: the owning shard.
    shard_of_slot: Vec<u32>,
    /// Per global slot: the slot within the owning shard.
    local_slot: Vec<u32>,
    /// Per shard: the global slot behind each shard-local slot (the
    /// inverse of `local_slot`, for translating cache-level eviction
    /// victims back to the global addressing observers see).
    global_of_local: Vec<Vec<u32>>,
    /// Per shard: global request indices, in trace order.
    shard_requests: Vec<Vec<u32>>,
    /// Per shard: distinct documents routed to it.
    per_shard_distinct: Vec<usize>,
}

impl ShardedTrace {
    /// Splits `trace` for `shard_count` shards (power of two).
    ///
    /// # Errors
    ///
    /// [`ShardConfigError`] for a zero or non-power-of-two count.
    ///
    /// # Panics
    ///
    /// Panics when the trace exceeds `u32::MAX` requests (the per-shard
    /// subsequences store 32-bit indices).
    pub fn build(trace: &DenseTrace, shard_count: usize) -> Result<ShardedTrace, ShardConfigError> {
        validate_shard_count(shard_count)?;
        assert!(
            trace.len() <= u32::MAX as usize,
            "trace too long for 32-bit request indices"
        );
        let distinct = trace.distinct_documents();
        let mut shard_of_slot = vec![0u32; distinct];
        let mut local_slot = vec![0u32; distinct];
        let mut per_shard_distinct = vec![0usize; shard_count];
        // Global slots are numbered in first-appearance order, so walking
        // them in order hands out shard-local slots in first-appearance
        // order within each shard too.
        let mut global_of_local: Vec<Vec<u32>> = vec![Vec::new(); shard_count];
        for slot in 0..distinct {
            let shard = route(DenseTrace::slot_doc(slot as u32), shard_count);
            shard_of_slot[slot] = shard as u32;
            local_slot[slot] = per_shard_distinct[shard] as u32;
            global_of_local[shard].push(slot as u32);
            per_shard_distinct[shard] += 1;
        }
        let mut shard_requests: Vec<Vec<u32>> = vec![Vec::new(); shard_count];
        for (index, &slot) in trace.docs().iter().enumerate() {
            shard_requests[shard_of_slot[slot as usize] as usize].push(index as u32);
        }
        Ok(ShardedTrace {
            shard_count,
            shard_of_slot,
            local_slot,
            global_of_local,
            shard_requests,
            per_shard_distinct,
        })
    }

    /// The shard count this view was built for.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard owning global document `slot`.
    pub fn shard_of_slot(&self, slot: u32) -> usize {
        self.shard_of_slot[slot as usize] as usize
    }

    /// Distinct documents routed to each shard.
    pub fn per_shard_distinct(&self) -> &[usize] {
        &self.per_shard_distinct
    }

    /// Requests routed to shard `shard`.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shard_requests[shard].len()
    }
}

/// One shard's share of a concurrent replay.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: usize,
    /// Requests routed to the shard (warm-up included).
    pub requests: u64,
    /// Requests served from the shard's cache (warm-up included).
    pub hits: u64,
    /// Bytes requested from the shard (warm-up included).
    pub bytes_requested: u128,
    /// Bytes served from the shard's cache (warm-up included).
    pub bytes_hit: u128,
    /// Distinct documents routed to the shard.
    pub distinct_documents: usize,
    /// Per-type counters over the **measured** region only (the merge
    /// input; sums across shards to the serial report).
    pub by_type: TypeMap<HitStats>,
}

/// The outcome of one concurrent replay.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Label of the replacement policy (e.g. `"GD*(P)"`).
    pub policy: String,
    /// Configuration the run used (capacity is the **total** budget;
    /// each shard held `capacity / shards`).
    pub config: SimulationConfig,
    /// Shard count of the replay.
    pub shards: usize,
    /// Clients that drove the replay (client 0 on the calling thread).
    pub clients: usize,
    /// Requests replayed (equals the trace length when `completed`).
    pub requests: u64,
    /// Wall-clock duration of the replay (shard cache build included).
    pub elapsed: Duration,
    /// Whether the replay ran to completion (`false` when a shutdown
    /// flag stopped it mid-pass; counters then cover a prefix).
    pub completed: bool,
    /// Per-shard summaries, in shard order.
    pub per_shard: Vec<ShardSummary>,
    /// Merged per-type counters (measured region only).
    by_type: TypeMap<HitStats>,
}

impl ConcurrentReport {
    /// Merged per-type counters (measured region only).
    pub fn by_type(&self) -> &TypeMap<HitStats> {
        &self.by_type
    }

    /// Merged counters over all document types.
    pub fn overall(&self) -> HitStats {
        let mut total = HitStats::default();
        for (_, s) in self.by_type.iter() {
            total += *s;
        }
        total
    }

    /// Aggregate replay throughput in requests/second.
    pub fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Request/byte spread across the shards (warm-up included).
    pub fn balance(&self) -> ShardBalance {
        let counts: Vec<(u64, u128)> = self
            .per_shard
            .iter()
            .map(|s| (s.requests, s.bytes_requested))
            .collect();
        ShardBalance::from_counts(&counts)
    }

    /// The merged outcome as a plain [`SimulationReport`] (no occupancy
    /// series — concurrent replay does not sample occupancy).
    pub fn to_simulation_report(&self) -> SimulationReport {
        SimulationReport::from_parts(self.policy.clone(), self.config, self.by_type)
    }
}

/// Replays dense traces through shard-striped caches with client
/// threads. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ConcurrentSimulator {
    /// The policy spec; the replacement half is instantiated once per
    /// shard, the admission half once per shard's cache.
    pub spec: PolicySpec,
    /// Simulation parameters; `capacity` is the total budget split
    /// evenly across shards, `occupancy_samples` is ignored.
    pub config: SimulationConfig,
    lock_probes: Option<Vec<ShardLockProbe>>,
    reasons: Option<Vec<ShardReasons>>,
}

impl ConcurrentSimulator {
    /// A concurrent simulator without lock probes or reason channels.
    /// Accepts a bare [`PolicyKind`](webcache_core::PolicyKind) or a
    /// composed spec, as [`Simulator::from_spec`](crate::Simulator::from_spec)
    /// does.
    pub fn new(spec: impl Into<PolicySpec>, config: SimulationConfig) -> ConcurrentSimulator {
        ConcurrentSimulator {
            spec: spec.into(),
            config,
            lock_probes: None,
            reasons: None,
        }
    }

    /// Installs one [`ShardLockProbe`] per shard: every replay times
    /// each shard's stripe-lock wait and hold into its probe. The
    /// handles share cells, so the stats accumulate across replays.
    #[must_use]
    pub fn with_lock_probes(mut self, probes: Vec<ShardLockProbe>) -> ConcurrentSimulator {
        self.lock_probes = Some(probes);
        self
    }

    /// Installs one reason pair per shard: shard `s`'s policy pushes
    /// its eviction reasons into `reasons[s].evictions` and its cache
    /// pushes admission verdicts into `reasons[s].admissions`, which
    /// [`FlightObserver::with_reasons`](crate::FlightObserver::with_reasons)
    /// drains.
    #[must_use]
    pub fn with_reasons(mut self, reasons: Vec<ShardReasons>) -> ConcurrentSimulator {
        self.reasons = Some(reasons);
        self
    }

    /// Splits `trace` for `shards` shards and replays it with `clients`
    /// clients.
    ///
    /// # Errors
    ///
    /// [`ShardConfigError`] for an invalid shard count.
    pub fn run(
        &self,
        trace: &DenseTrace,
        shards: usize,
        clients: usize,
    ) -> Result<ConcurrentReport, ShardConfigError> {
        let sharded = ShardedTrace::build(trace, shards)?;
        Ok(self.run_sharded(trace, &sharded, clients))
    }

    /// Replays over a pre-built [`ShardedTrace`] (the bench hot path —
    /// the split is built once, outside the timed region).
    pub fn run_sharded(
        &self,
        trace: &DenseTrace,
        sharded: &ShardedTrace,
        clients: usize,
    ) -> ConcurrentReport {
        let mut observers = vec![NoopObserver; sharded.shard_count()];
        self.run_sharded_controlled(trace, sharded, clients, None, None, &mut observers)
    }

    /// The full-control variant. `observers[s]` sees shard `s`'s events,
    /// which carry **global** request indices and **global** document
    /// slots, so per-shard observers see the same event values as a
    /// serial observer would — only partitioned, each shard's stream in
    /// trace order. An optional aggregate request-rate throttle (split
    /// across clients in proportion to their share of the trace) and an
    /// optional shutdown flag are both checked every 128 requests of a
    /// shard (a raised flag abandons the rest of the replay and marks
    /// the report `completed: false`).
    ///
    /// # Panics
    ///
    /// Panics when `observers`, or the installed probes or reason
    /// channels, do not hold one entry per shard.
    pub fn run_sharded_controlled<O: Observer + Send>(
        &self,
        trace: &DenseTrace,
        sharded: &ShardedTrace,
        clients: usize,
        rate: Option<f64>,
        shutdown: Option<&AtomicBool>,
        observers: &mut [O],
    ) -> ConcurrentReport {
        let shards = sharded.shard_count();
        assert_eq!(observers.len(), shards, "one observer per shard");
        let probes = self.lock_probes.as_deref();
        assert!(
            probes.is_none_or(|p| p.len() == shards),
            "one lock probe per shard"
        );
        let reasons = self.reasons.as_deref();
        assert!(
            reasons.is_none_or(|r| r.len() == shards),
            "one reason pair per shard"
        );
        let clients = clients.clamp(1, shards);
        let started = Instant::now();
        // Every replay starts cold: a fresh cache, policy and admission
        // state per shard, behind the shard's stripe lock.
        let shard_capacity = ByteSize::new((self.config.capacity.as_u64() / shards as u64).max(1));
        let stripes: Vec<Mutex<Cache>> = (0..shards)
            .map(|shard| {
                let reasons = reasons.map(|r| &r[shard]);
                let policy = match reasons {
                    Some(r) => self
                        .spec
                        .build_instrumented(FlightSink::new(r.evictions.clone())),
                    None => self.spec.build(),
                };
                let distinct = sharded.per_shard_distinct[shard];
                let mut cache =
                    Cache::with_dense_slots(shard_capacity, policy, self.spec.admission, distinct);
                if let Some(r) = reasons {
                    cache.set_admit_reasons(r.admissions.clone());
                }
                Mutex::new(cache)
            })
            .collect();
        let warmup_end = ((trace.len() as f64) * self.config.warmup_fraction).floor() as usize;

        // Client `c` owns shards `c, c + M, c + 2M, …` and their observers.
        let mut owned: Vec<Vec<(usize, &mut O)>> = (0..clients).map(|_| Vec::new()).collect();
        for (shard, observer) in observers.iter_mut().enumerate() {
            owned[shard % clients].push((shard, observer));
        }
        let client = |owned: Vec<(usize, &mut O)>| {
            let client_requests: usize = owned.iter().map(|&(s, _)| sharded.shard_len(s)).sum();
            let mut throttle = rate
                .filter(|_| client_requests > 0)
                .map(|r| Throttle::new(r * client_requests as f64 / trace.len().max(1) as f64));
            let mut results = Vec::with_capacity(owned.len());
            for (shard, observer) in owned {
                let meta = RunMeta {
                    total_requests: sharded.shard_len(shard),
                    warmup_end,
                    capacity: shard_capacity,
                    modification_rule: self.config.modification_rule,
                };
                let probe = probes.map(|p| &p[shard]);
                let outcome = lock_stripe(&stripes[shard], probe, |cache| {
                    replay_shard(
                        cache,
                        trace,
                        sharded,
                        shard,
                        meta,
                        self.config,
                        observer,
                        throttle.as_mut(),
                        shutdown,
                    )
                });
                let completed = outcome.completed;
                results.push(outcome);
                if !completed {
                    break;
                }
            }
            results
        };
        let mut outcomes = std::thread::scope(|scope| {
            let client = &client;
            let mut owned = owned.into_iter();
            let first = owned.next().expect("at least one client");
            let handles: Vec<_> = owned.map(|o| scope.spawn(move || client(o))).collect();
            let mut outcomes = client(first);
            for handle in handles {
                outcomes.extend(handle.join().expect("client thread"));
            }
            outcomes
        });
        outcomes.sort_unstable_by_key(|o| o.summary.shard);

        // A client abandons its remaining shards on shutdown.
        let mut completed = outcomes.len() == shards;
        let mut by_type: TypeMap<HitStats> = TypeMap::default();
        let mut requests = 0u64;
        let mut per_shard = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            completed &= outcome.completed;
            requests += outcome.summary.requests;
            for (ty, stats) in outcome.summary.by_type.iter() {
                by_type[ty] += *stats;
            }
            per_shard.push(outcome.summary);
        }

        ConcurrentReport {
            policy: self.spec.label(),
            config: self.config,
            shards,
            clients,
            requests,
            elapsed: started.elapsed(),
            completed,
            per_shard,
            by_type,
        }
    }
}

/// Runs `f` on the value behind `stripe`, timing the lock wait and hold
/// into `probe` when one is given.
///
/// A client takes each owned shard's stripe lock once per replay, so a
/// probe costs one timed acquisition per shard per replay — nothing per
/// request. The probed path is `try_lock`-then-block: an uncontended
/// acquisition observes a zero wait without reading the clock; only the
/// contended slow path, which already pays a blocking park, times the
/// wait.
fn lock_stripe<T, R>(
    stripe: &Mutex<T>,
    probe: Option<&ShardLockProbe>,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    let Some(probe) = probe else {
        return f(&mut stripe.lock().expect("shard mutex poisoned"));
    };
    probe.acquisitions.inc();
    let mut guard = match stripe.try_lock() {
        Ok(guard) => {
            probe.wait_us.observe(0);
            guard
        }
        Err(TryLockError::WouldBlock) => {
            probe.contended.inc();
            let blocked = Instant::now();
            let guard = stripe.lock().expect("shard mutex poisoned");
            probe.wait_us.observe(blocked.elapsed().as_micros() as u64);
            guard
        }
        Err(TryLockError::Poisoned(_)) => panic!("shard mutex poisoned"),
    };
    let held = Instant::now();
    let result = f(&mut guard);
    drop(guard);
    probe.hold_us.observe(held.elapsed().as_micros() as u64);
    result
}

/// What [`replay_shard`] hands back per shard.
struct ShardOutcome {
    summary: ShardSummary,
    completed: bool,
}

/// Requests the per-shard driver replays between two checks of the
/// shutdown flag and the rate throttle.
const CONTROL_STRIDE: usize = 128;

/// A shard's [`SlotMap`]: its cache addresses documents by shard-local
/// slot, and victims map back to global slots so observers see the
/// same document ids a serial replay would.
struct ShardSlots<'a> {
    /// Per global slot: the slot within the owning shard.
    local_slot: &'a [u32],
    /// Per shard-local slot: the global slot.
    global_of_local: &'a [u32],
}

impl SlotMap for ShardSlots<'_> {
    #[inline(always)]
    fn cache_slot(&self, slot: u32) -> u32 {
        self.local_slot[slot as usize]
    }

    #[inline(always)]
    fn trace_victims(&self, evicted: &mut [Eviction]) {
        for eviction in evicted {
            eviction.doc =
                DenseTrace::slot_doc(self.global_of_local[eviction.doc.as_u64() as usize]);
        }
    }
}

/// The per-shard driver: replays one shard's subsequence, in trace
/// order, through the serial simulator's [`Replay::step`]. Holds the
/// shard lock (the caller passes the locked cache).
#[allow(clippy::too_many_arguments)]
fn replay_shard<O: Observer>(
    cache: &mut Cache,
    trace: &DenseTrace,
    sharded: &ShardedTrace,
    shard: usize,
    meta: RunMeta,
    config: SimulationConfig,
    observer: &mut O,
    mut throttle: Option<&mut Throttle>,
    shutdown: Option<&AtomicBool>,
) -> ShardOutcome {
    observer.on_run_start(meta);
    let distinct = sharded.per_shard_distinct[shard];
    let slots = ShardSlots {
        local_slot: &sharded.local_slot,
        global_of_local: &sharded.global_of_local[shard],
    };
    let mut replay = Replay::new(
        trace,
        slots,
        config.modification_rule,
        meta.warmup_end,
        distinct,
    );
    let sizes = trace.sizes();
    let mut summary = ShardSummary {
        shard,
        requests: 0,
        hits: 0,
        bytes_requested: 0,
        bytes_hit: 0,
        distinct_documents: distinct,
        by_type: TypeMap::default(),
    };
    let mut completed = true;

    let requests = &sharded.shard_requests[shard];
    for (stride_index, stride) in requests.chunks(CONTROL_STRIDE).enumerate() {
        if shutdown.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            completed = false;
            break;
        }
        let start = stride_index * CONTROL_STRIDE;
        for (offset, &index) in stride.iter().enumerate() {
            // Look ahead in this shard's own order, across strides.
            if let Some(&later) = requests.get(start + offset + LOOKAHEAD) {
                replay.prefetch(cache, later as usize);
            }
            let index = index as usize;
            let hit = replay.step(cache, index, observer);
            let bytes = u128::from(sizes[index]);
            summary.requests += 1;
            summary.bytes_requested += bytes;
            if hit {
                summary.hits += 1;
                summary.bytes_hit += bytes;
            }
        }
        if let Some(t) = throttle.as_deref_mut() {
            t.pace(stride.len() as u64, shutdown);
        }
    }
    observer.on_run_end();
    summary.by_type = replay.by_type;
    ShardOutcome { summary, completed }
}

/// Sleeps as needed to hold one client's target request rate. Checked
/// every [`CONTROL_STRIDE`] requests; never sleeps once the shutdown
/// flag is up.
#[derive(Debug)]
struct Throttle {
    per_sec: f64,
    started: Instant,
    done: u64,
}

impl Throttle {
    fn new(per_sec: f64) -> Throttle {
        Throttle {
            per_sec: per_sec.max(1e-9),
            started: Instant::now(),
            done: 0,
        }
    }

    fn pace(&mut self, just_done: u64, shutdown: Option<&AtomicBool>) {
        self.done += just_done;
        let due = Duration::from_secs_f64(self.done as f64 / self.per_sec);
        let elapsed = self.started.elapsed();
        let stop = shutdown.is_some_and(|f| f.load(Ordering::Relaxed));
        if due > elapsed && !stop {
            std::thread::sleep(due - elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::AccessEvent;
    use webcache_core::{CostModel, PolicyKind};
    use webcache_trace::{DocumentType, Request, Timestamp, Trace};

    fn mixed_trace(requests: usize, distinct: u64) -> Trace {
        (0..requests as u64)
            .map(|i| {
                Request::new(
                    Timestamp::from_millis(i),
                    DocId::new((i * 7 + 3) % distinct),
                    DocumentType::ALL[(i % 5) as usize],
                    ByteSize::new(200 + (i % 90) * 13),
                )
            })
            .collect()
    }

    fn config(capacity: u64) -> SimulationConfig {
        SimulationConfig::builder()
            .capacity(ByteSize::new(capacity))
            .build()
    }

    #[test]
    fn shard_count_validation() {
        assert_eq!(validate_shard_count(0), Err(ShardConfigError::Zero));
        assert_eq!(
            validate_shard_count(3),
            Err(ShardConfigError::NotPowerOfTwo(3))
        );
        assert_eq!(
            validate_shard_count(12),
            Err(ShardConfigError::NotPowerOfTwo(12))
        );
        for n in [1, 2, 4, 8, 64, 1024] {
            assert_eq!(validate_shard_count(n), Ok(()));
        }
        for n in [2048, 1 << 62] {
            assert_eq!(validate_shard_count(n), Err(ShardConfigError::TooMany(n)));
        }
        let err = ShardConfigError::NotPowerOfTwo(6).to_string();
        assert!(err.contains("power of two") && err.contains('6'), "{err}");
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for n in [1usize, 2, 4, 8, 256] {
            for id in 0..1_000u64 {
                let shard = route(DocId::new(id), n);
                assert!(shard < n);
                assert_eq!(shard, route(DocId::new(id), n));
            }
        }
    }

    #[test]
    fn routing_spreads_sequential_ids() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for id in 0..8_000u64 {
            counts[route(DocId::new(id), n)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max < 2 * min.max(1),
            "sequential ids skewed across shards: {counts:?}"
        );
    }

    #[test]
    fn balance_of_empty_and_skewed_counts() {
        let empty = ShardBalance::from_counts(&[(0, 0), (0, 0)]);
        assert_eq!(empty.request_imbalance, 1.0);
        assert_eq!(empty.byte_imbalance, 1.0);
        let skewed = ShardBalance::from_counts(&[(30, 300), (10, 100)]);
        assert_eq!(skewed.max_requests, 30);
        assert!((skewed.request_imbalance - 1.5).abs() < 1e-12);
        assert!((skewed.byte_imbalance - 1.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_splits_evenly_with_a_floor_of_one() {
        /// The capacity its shard's replay started with.
        #[derive(Default)]
        struct Capacity(u64);
        impl Observer for Capacity {
            fn on_run_start(&mut self, meta: RunMeta) {
                self.0 = meta.capacity.as_u64();
            }
        }
        let dense = DenseTrace::build(&mixed_trace(500, 41));
        for (capacity, shards, each) in [(8_000, 4, 2_000), (3, 8, 1)] {
            let sharded = ShardedTrace::build(&dense, shards).unwrap();
            let mut observers: Vec<Capacity> = (0..shards).map(|_| Capacity::default()).collect();
            let report = ConcurrentSimulator::new(PolicyKind::Lru, config(capacity))
                .run_sharded_controlled(&dense, &sharded, 1, None, None, &mut observers);
            assert_eq!(report.config.capacity.as_u64(), capacity);
            assert!(observers.iter().all(|o| o.0 == each), "{capacity}/{shards}");
        }
        let odd = ShardedTrace::build(&dense, 3).unwrap_err();
        assert_eq!(odd, ShardConfigError::NotPowerOfTwo(3));
    }

    #[test]
    fn reason_channels_reach_each_shards_policy_and_cache() {
        /// Counts the events that push a reason: insert attempts push an
        /// admission verdict, evictions an eviction reason.
        #[derive(Default)]
        struct Pushes {
            admissions: usize,
            evictions: usize,
        }
        impl Observer for Pushes {
            fn on_insert(&mut self, _event: AccessEvent) {
                self.admissions += 1;
            }
            fn on_admission_reject(&mut self, _event: AccessEvent) {
                self.admissions += 1;
            }
            fn on_evict(&mut self, _at: AccessEvent, _evicted: Eviction) {
                self.evictions += 1;
            }
        }
        let dense = DenseTrace::build(&mixed_trace(2_000, 131));
        let sharded = ShardedTrace::build(&dense, 2).unwrap();
        let reasons: Vec<ShardReasons> = (0..2).map(|_| ShardReasons::default()).collect();
        let mut observers = [Pushes::default(), Pushes::default()];
        // Nothing drains the channels, so each holds all of its shard's
        // pushes.
        ConcurrentSimulator::new(PolicyKind::Gds(CostModel::Constant), config(6_000))
            .with_reasons(reasons.clone())
            .run_sharded_controlled(&dense, &sharded, 2, None, None, &mut observers);
        for (reasons, seen) in reasons.iter().zip(&observers) {
            assert!(seen.evictions > 0, "every shard evicts at this capacity");
            assert_eq!(reasons.admissions.len(), seen.admissions);
            assert_eq!(reasons.evictions.len(), seen.evictions);
        }
    }

    #[test]
    fn sharded_trace_partitions_everything_exactly_once() {
        let dense = DenseTrace::build(&mixed_trace(1_000, 97));
        let sharded = ShardedTrace::build(&dense, 8).unwrap();
        let total: usize = (0..8).map(|s| sharded.shard_len(s)).sum();
        assert_eq!(total, dense.len());
        let distinct: usize = sharded.per_shard_distinct().iter().sum();
        assert_eq!(distinct, dense.distinct_documents());
        // Every request's shard matches its document's shard.
        for (index, &slot) in dense.docs().iter().enumerate() {
            let shard = sharded.shard_of_slot(slot);
            assert!(sharded.shard_requests[shard].contains(&(index as u32)));
        }
        // Subsequences are in trace order.
        for s in 0..8 {
            assert!(sharded.shard_requests[s].windows(2).all(|w| w[0] < w[1]));
        }
        assert!(ShardedTrace::build(&dense, 3).is_err());
        assert!(ShardedTrace::build(&dense, 0).is_err());
    }

    #[test]
    fn single_shard_report_equals_the_serial_simulator() {
        let trace = mixed_trace(2_000, 131);
        let dense = DenseTrace::build(&trace);
        let config = config(20_000);
        for kind in [
            PolicyKind::Lru,
            PolicyKind::GdStar(webcache_core::CostModel::Packet),
        ] {
            let serial = crate::simulator::Simulator::new(kind.build(), config).run_dense(&dense);
            let concurrent = ConcurrentSimulator::new(kind, config)
                .run(&dense, 1, 1)
                .unwrap();
            assert_eq!(concurrent.policy, serial.policy);
            assert_eq!(concurrent.by_type(), serial.by_type());
            assert!(concurrent.completed);
            assert_eq!(concurrent.requests, dense.len() as u64);
        }
    }

    #[test]
    fn composed_spec_single_shard_matches_the_serial_spec_run() {
        let trace = mixed_trace(2_000, 131);
        let dense = DenseTrace::build(&trace);
        let config = config(8_000);
        let spec: PolicySpec = "tinylfu+lru".parse().unwrap();
        let serial = crate::simulator::Simulator::from_spec(spec, config).run_dense(&dense);
        let concurrent = ConcurrentSimulator::new(spec, config)
            .run(&dense, 1, 1)
            .unwrap();
        assert_eq!(concurrent.policy, "TinyLFU+LRU");
        assert_eq!(concurrent.policy, serial.policy);
        assert_eq!(concurrent.by_type(), serial.by_type());
    }

    #[test]
    fn merged_report_is_identical_for_any_client_count() {
        let dense = DenseTrace::build(&mixed_trace(3_000, 173));
        let config = config(15_000);
        let sim =
            ConcurrentSimulator::new(PolicyKind::Gdsf(webcache_core::CostModel::Packet), config);
        let sharded = ShardedTrace::build(&dense, 8).unwrap();
        let baseline = sim.run_sharded(&dense, &sharded, 1);
        for clients in [2, 3, 4, 8, 16] {
            let report = sim.run_sharded(&dense, &sharded, clients);
            assert_eq!(report.by_type(), baseline.by_type(), "clients={clients}");
            assert_eq!(report.per_shard.len(), baseline.per_shard.len());
            for (a, b) in report.per_shard.iter().zip(baseline.per_shard.iter()) {
                assert_eq!(a.requests, b.requests);
                assert_eq!(a.hits, b.hits);
                assert_eq!(a.bytes_requested, b.bytes_requested);
                assert_eq!(a.by_type, b.by_type);
            }
        }
    }

    #[test]
    fn per_shard_summaries_cover_the_full_trace() {
        let dense = DenseTrace::build(&mixed_trace(2_500, 113));
        let report = ConcurrentSimulator::new(PolicyKind::Lru, config(10_000))
            .run(&dense, 4, 2)
            .unwrap();
        assert_eq!(report.shards, 4);
        assert_eq!(report.clients, 2);
        let requests: u64 = report.per_shard.iter().map(|s| s.requests).sum();
        assert_eq!(requests, dense.len() as u64);
        let bytes: u128 = report.per_shard.iter().map(|s| s.bytes_requested).sum();
        assert_eq!(bytes, dense.sizes().iter().map(|&s| u128::from(s)).sum());
        let balance = report.balance();
        assert!(balance.request_imbalance >= 1.0);
        assert!(balance.byte_imbalance >= 1.0);
        assert!(report.requests_per_sec() > 0.0);
        // The simulation-report view carries the same merged counters.
        assert_eq!(report.to_simulation_report().by_type(), report.by_type());
    }

    #[test]
    fn clients_beyond_shards_are_clamped() {
        let dense = DenseTrace::build(&mixed_trace(500, 41));
        let report = ConcurrentSimulator::new(PolicyKind::Fifo, config(5_000))
            .run(&dense, 2, 64)
            .unwrap();
        assert_eq!(report.clients, 2);
        assert!(report.completed);
    }

    #[test]
    fn raised_shutdown_flag_stops_the_replay_incomplete() {
        let dense = DenseTrace::build(&mixed_trace(4_000, 211));
        let sharded = ShardedTrace::build(&dense, 4).unwrap();
        let flag = AtomicBool::new(true);
        let report = ConcurrentSimulator::new(PolicyKind::Lru, config(10_000))
            .run_sharded_controlled(
                &dense,
                &sharded,
                2,
                None,
                Some(&flag),
                &mut [NoopObserver; 4],
            );
        assert!(!report.completed);
        assert_eq!(report.requests, 0, "flag was up before the first request");
    }

    #[test]
    fn lock_probes_observe_every_shard_acquisition_without_changing_results() {
        let dense = DenseTrace::build(&mixed_trace(2_000, 131));
        let sharded = ShardedTrace::build(&dense, 4).unwrap();
        let config = config(12_000);
        let plain = ConcurrentSimulator::new(PolicyKind::Lru, config);
        let probes: Vec<ShardLockProbe> = (0..4).map(|_| ShardLockProbe::new()).collect();
        let probed =
            ConcurrentSimulator::new(PolicyKind::Lru, config).with_lock_probes(probes.clone());
        let baseline = plain.run_sharded(&dense, &sharded, 4);
        let report = probed.run_sharded(&dense, &sharded, 4);
        assert_eq!(report.by_type(), baseline.by_type());
        // The bulk path takes each shard's lock exactly once per pass.
        for probe in &probes {
            assert_eq!(probe.acquisitions.get(), 1);
            assert_eq!(probe.hold_us.count(), 1);
        }
        // A second pass through the same probes accumulates.
        probed.run_sharded(&dense, &sharded, 4);
        for probe in &probes {
            assert_eq!(probe.acquisitions.get(), 2);
        }
    }

    #[test]
    fn contended_lock_registers_wait_time() {
        let stripe = Mutex::new(());
        let probe = ShardLockProbe::new();
        std::thread::scope(|scope| {
            // One holder pins the stripe while another thread asks for it:
            // the second must block, and the probe must see the contention.
            let (stripe, probe) = (&stripe, Some(&probe));
            let holder = scope.spawn(move || {
                lock_stripe(stripe, probe, |_| {
                    std::thread::sleep(Duration::from_millis(30));
                });
            });
            std::thread::sleep(Duration::from_millis(5));
            let waiter = scope.spawn(move || lock_stripe(stripe, probe, |_| ()));
            holder.join().unwrap();
            waiter.join().unwrap();
        });
        assert_eq!(probe.acquisitions.get(), 2);
        assert_eq!(probe.contended.get(), 1);
        assert!((probe.contention_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(probe.wait_us.count(), 2);
        assert_eq!(probe.hold_us.count(), 2);
        // The blocked acquisition waited most of the 30ms hold.
        assert!(probe.wait_us.sum() >= 10_000, "{}", probe.wait_us.sum());
        assert!(probe.hold_us.sum() >= 20_000, "{}", probe.hold_us.sum());
    }

    #[test]
    #[should_panic(expected = "one lock probe per shard")]
    fn probe_count_must_match_shards() {
        let dense = DenseTrace::build(&mixed_trace(100, 17));
        let _ = ConcurrentSimulator::new(PolicyKind::Lru, config(8_000))
            .with_lock_probes(vec![ShardLockProbe::new()])
            .run(&dense, 4, 1);
    }

    #[test]
    fn throttled_replay_holds_the_aggregate_rate() {
        let dense = DenseTrace::build(&mixed_trace(600, 31));
        for shards in [1, 4] {
            let sharded = ShardedTrace::build(&dense, shards).unwrap();
            let started = Instant::now();
            let report = ConcurrentSimulator::new(PolicyKind::Lru, config(8_000))
                .run_sharded_controlled(
                    &dense,
                    &sharded,
                    2,
                    Some(20_000.0),
                    None,
                    &mut vec![NoopObserver; shards],
                );
            // 600 requests at 20k req/s aggregate ≈ 30 ms; allow wide slack.
            assert!(
                started.elapsed() >= Duration::from_millis(15),
                "throttle had no effect at {shards} shards: {:?}",
                started.elapsed()
            );
            assert!(report.completed);
            assert!(report.requests_per_sec() < 40_000.0, "{shards} shards");
        }
    }
}
