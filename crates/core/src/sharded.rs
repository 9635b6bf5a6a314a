//! A concurrent, shard-striped cache engine.
//!
//! [`ShardedEngine`] splits one logical cache into `N` independent
//! shards (`N` a power of two). Each shard owns a full [`Cache`] — its
//! own slab store and its own replacement-policy instance — sized at
//! `capacity / N`, behind its own `Mutex`. Documents are routed to
//! shards by fx-hashing their [`DocId`] ([`ShardedEngine::route`]), so
//! a document only ever lives in, and contends on, one shard.
//!
//! One access path: [`ShardedEngine::with_shard`] locks a shard's stripe
//! once and hands its cache to a replay driver, which replays the
//! shard's whole request subsequence through it and reports its own
//! per-shard counts. Two opt-in attachments observe that path without
//! changing it: [`ShardLockProbe`]s time each acquisition, and
//! per-shard [`ShardReasons`] carry the policy's eviction reasons and
//! the cache's admission verdicts to a flight recorder.
//!
//! Sharding is not free in *quality*: each shard evicts against its own
//! `capacity / N` budget with only its own documents' recency/frequency
//! state, so eviction decisions that a global policy would make across
//! the whole population are approximated per shard. The simulator's
//! concurrent driver measures exactly this delta against the
//! single-shard oracle (`N = 1`, which degenerates to a plain
//! [`Cache`] bit-for-bit).

use std::sync::{Mutex, TryLockError};
use std::time::Instant;

use webcache_obs::{Counter, FlightSink, Histogram, ReasonChannel};
use webcache_trace::{fxhash, ByteSize, DocId};

use crate::cache::Cache;
use crate::spec::PolicySpec;

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
/// probe can record from the engine while a registry exports the same
/// cells (attach the handles with `Registry::attach_histogram` /
/// `attach_counter`). Probes are opt-in per engine
/// ([`ShardedEngine::set_lock_probes`]); without them the lock path is
/// a single well-predicted branch over the plain `Mutex::lock`, the
/// same no-op-by-default discipline as the policies' `MetricsSink`.
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

/// The shard-striped cache engine. See the [module docs](self).
#[derive(Debug)]
pub struct ShardedEngine {
    shards: Vec<Mutex<Cache>>,
    capacity: ByteSize,
    shard_capacity: ByteSize,
    policy_label: String,
    lock_probes: Option<Vec<ShardLockProbe>>,
}

impl ShardedEngine {
    /// Builds an engine whose shards use dense slot addressing:
    /// `per_shard_distinct[s]` is shard `s`'s distinct-document count and
    /// its documents must be addressed as `DocId::new(local_slot)` with
    /// shard-local slots `0..per_shard_distinct[s]` (a sharded trace
    /// view computes the mapping). `capacity` splits evenly; each shard
    /// gets a fresh instance of `spec`'s replacement policy and its own
    /// state of `spec`'s admission filter. `spec` is a composed spec or a
    /// bare [`PolicyKind`](crate::PolicyKind).
    ///
    /// With `reasons`, shard `s`'s policy pushes its eviction reasons into
    /// `reasons[s].evictions` and its cache pushes admission verdicts into
    /// `reasons[s].admissions`.
    ///
    /// # Errors
    ///
    /// [`ShardConfigError`] when the shard count is zero or not a power
    /// of two.
    ///
    /// # Panics
    ///
    /// Panics when `reasons` does not hold one entry per shard.
    pub fn with_dense_shards(
        capacity: ByteSize,
        spec: impl Into<PolicySpec>,
        per_shard_distinct: &[usize],
        reasons: Option<&[ShardReasons]>,
    ) -> Result<ShardedEngine, ShardConfigError> {
        let spec = spec.into();
        validate_shard_count(per_shard_distinct.len())?;
        if let Some(reasons) = reasons {
            assert_eq!(
                reasons.len(),
                per_shard_distinct.len(),
                "one reason pair per shard"
            );
        }
        let shard_capacity = Self::split_capacity(capacity, per_shard_distinct.len());
        let shards = per_shard_distinct
            .iter()
            .enumerate()
            .map(|(shard, &distinct)| {
                let reasons = reasons.map(|r| &r[shard]);
                let policy = match reasons {
                    Some(r) => spec.build_instrumented(FlightSink::new(r.evictions.clone())),
                    None => spec.build(),
                };
                let mut cache =
                    Cache::with_dense_slots(shard_capacity, policy, spec.admission, distinct);
                if let Some(r) = reasons {
                    cache.set_admit_reasons(r.admissions.clone());
                }
                Mutex::new(cache)
            })
            .collect();
        Ok(ShardedEngine {
            shards,
            capacity,
            shard_capacity,
            policy_label: spec.label(),
            lock_probes: None,
        })
    }

    /// Installs one [`ShardLockProbe`] per shard; every subsequent
    /// [`ShardedEngine::with_shard`] times its lock wait and hold into
    /// the probe cells. Install before sharing the engine across
    /// threads (the setter takes `&mut self`).
    ///
    /// # Panics
    ///
    /// Panics when `probes.len()` differs from the shard count.
    pub fn set_lock_probes(&mut self, probes: Vec<ShardLockProbe>) {
        assert_eq!(probes.len(), self.shards.len(), "one lock probe per shard");
        self.lock_probes = Some(probes);
    }

    /// Splits the total byte budget evenly, never below one byte per
    /// shard (a [`Cache`] rejects a zero capacity).
    fn split_capacity(capacity: ByteSize, shards: usize) -> ByteSize {
        ByteSize::new((capacity.as_u64() / shards as u64).max(1))
    }

    /// Stateless routing: which of `shard_count` shards owns `doc`.
    ///
    /// Fx-hashes the id and keeps the hash's **top** `log2(shard_count)`
    /// bits — the single-multiply fx hash mixes upward, so the low bits
    /// of sequential ids are not usable as a bucket index.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `shard_count` is a positive power of two
    /// (validated constructors uphold this).
    #[inline]
    pub fn route(doc: DocId, shard_count: usize) -> usize {
        debug_assert!(shard_count.is_power_of_two());
        if shard_count == 1 {
            return 0;
        }
        let bits = shard_count.trailing_zeros();
        (fxhash::hash_u64(doc.as_u64()) >> (64 - bits)) as usize
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The total configured capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// The per-shard capacity (`capacity / shards`, at least 1 byte).
    pub fn shard_capacity(&self) -> ByteSize {
        self.shard_capacity
    }

    /// The replacement policy's display label (e.g. `"GD*(P)"`).
    pub fn policy_label(&self) -> String {
        self.policy_label.clone()
    }

    /// Runs `f` with shard `index`'s cache locked, timing lock wait and
    /// hold into the shard's [`ShardLockProbe`] when probes are
    /// installed.
    ///
    /// This is the replay drivers' path: a worker that owns a shard's
    /// whole request subsequence takes the stripe lock once and replays
    /// through it (so with probes installed the cost is one timed
    /// acquisition per shard per pass — nothing per request).
    ///
    /// The probed path is `try_lock`-then-block: an uncontended
    /// acquisition observes a zero wait without ever reading the clock;
    /// only the contended slow path (which is already paying a blocking
    /// park) takes two `Instant` reads for the wait and two for the
    /// hold.
    pub fn with_shard<R>(&self, index: usize, f: impl FnOnce(&mut Cache) -> R) -> R {
        let shard = &self.shards[index];
        let Some(probe) = self.lock_probes.as_ref().map(|p| &p[index]) else {
            let mut cache = shard.lock().expect("shard mutex poisoned");
            return f(&mut cache);
        };
        probe.acquisitions.inc();
        let mut cache = match shard.try_lock() {
            Ok(guard) => {
                probe.wait_us.observe(0);
                guard
            }
            Err(TryLockError::WouldBlock) => {
                probe.contended.inc();
                let blocked = Instant::now();
                let guard = shard.lock().expect("shard mutex poisoned");
                probe.wait_us.observe(blocked.elapsed().as_micros() as u64);
                guard
            }
            Err(TryLockError::Poisoned(_)) => panic!("shard mutex poisoned"),
        };
        let held = Instant::now();
        let result = f(&mut cache);
        drop(cache);
        probe.hold_us.observe(held.elapsed().as_micros() as u64);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use webcache_trace::DocumentType;

    /// An LRU engine of `shards` dense shards of 16 documents each.
    fn engine(capacity: u64, shards: usize) -> ShardedEngine {
        ShardedEngine::with_dense_shards(
            ByteSize::new(capacity),
            PolicyKind::Lru,
            &vec![16; shards],
            None,
        )
        .expect("valid shard count")
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
                let shard = ShardedEngine::route(DocId::new(id), n);
                assert!(shard < n);
                assert_eq!(shard, ShardedEngine::route(DocId::new(id), n));
            }
        }
    }

    #[test]
    fn routing_spreads_sequential_ids() {
        let n = 8;
        let mut counts = vec![0usize; n];
        for id in 0..8_000u64 {
            counts[ShardedEngine::route(DocId::new(id), n)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max < 2 * min.max(1),
            "sequential ids skewed across shards: {counts:?}"
        );
    }

    #[test]
    fn capacity_splits_evenly_with_a_floor_of_one() {
        let e = engine(8_000, 4);
        assert_eq!(e.shard_count(), 4);
        assert_eq!(e.capacity().as_u64(), 8_000);
        assert_eq!(e.shard_capacity().as_u64(), 2_000);
        for shard in 0..4 {
            e.with_shard(shard, |cache| assert_eq!(cache.capacity().as_u64(), 2_000));
        }
        assert_eq!(engine(3, 8).shard_capacity().as_u64(), 1);
        let odd = ShardedEngine::with_dense_shards(
            ByteSize::new(8_000),
            PolicyKind::Lru,
            &[16, 16, 16],
            None,
        );
        assert_eq!(odd.unwrap_err(), ShardConfigError::NotPowerOfTwo(3));
    }

    #[test]
    fn reason_channels_reach_each_shards_policy_and_cache() {
        let reasons: Vec<ShardReasons> = (0..2).map(|_| ShardReasons::default()).collect();
        let e = ShardedEngine::with_dense_shards(
            ByteSize::new(200),
            PolicyKind::Gds(crate::CostModel::Constant),
            &[4, 4],
            Some(&reasons),
        )
        .unwrap();
        // Three 100-byte documents through shard 1's 100-byte cache: three
        // admissions, two evictions, nothing on shard 0.
        e.with_shard(1, |cache| {
            for slot in 0..3 {
                cache.insert(DocId::new(slot), DocumentType::Html, ByteSize::new(100));
            }
        });
        assert_eq!(reasons[1].admissions.len(), 3);
        assert_eq!(reasons[1].evictions.len(), 2);
        assert!(reasons[0].admissions.is_empty() && reasons[0].evictions.is_empty());
    }

    #[test]
    fn contended_lock_registers_wait_time() {
        let mut e = engine(8_000, 1);
        e.set_lock_probes(vec![ShardLockProbe::new()]);
        let probe = e.lock_probes.as_ref().unwrap()[0].clone();
        std::thread::scope(|scope| {
            // One holder pins the single shard's lock while another
            // thread asks for it — the second must block and the probe
            // must see the contention.
            let engine = &e;
            let holder = scope.spawn(move || {
                engine.with_shard(0, |_cache| {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                });
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
            let waiter = scope.spawn(move || engine.with_shard(0, |_cache| ()));
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
        engine(8_000, 4).set_lock_probes(vec![ShardLockProbe::new()]);
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
}
