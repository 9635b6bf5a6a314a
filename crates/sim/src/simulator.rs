//! The trace-driven simulator.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use webcache_core::{prefetch_read, AdmissionSpec, Cache, Eviction, PolicySpec, ReplacementPolicy};
use webcache_trace::{ByteSize, DenseTrace, DocumentType, Trace, TypeMap};

use crate::metrics::HitStats;
use crate::observe::{AccessEvent, AccessKind, NoopObserver, Observer, RunMeta};
use crate::occupancy::{OccupancySample, OccupancySeries};

/// How the simulator interprets a size change between two successive
/// requests to the same document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ModificationRule {
    /// The paper's rule (Section 4.1): a change **< 5%** is a document
    /// modification (miss, cached copy invalidated); a larger change is an
    /// interrupted transfer (cached copy stays valid).
    #[default]
    SizeDelta,
    /// The rule of Jin & Bestavros [7, 8]: **every** size change is a
    /// modification. Inflates modification rates for large multi-media
    /// and application documents (kept for the ablation experiment).
    AnyChange,
}

impl ModificationRule {
    /// Whether a transfer-size change from `prev` to `cur` bytes counts
    /// as a document modification.
    pub fn is_modification(self, prev: u64, cur: u64) -> bool {
        if prev == cur {
            return false;
        }
        match self {
            ModificationRule::AnyChange => true,
            ModificationRule::SizeDelta => {
                if prev == 0 {
                    // A zero-byte previous transfer has no meaningful
                    // relative delta: any growth reads as a ≥100% change,
                    // i.e. an interrupted transfer, never a modification.
                    return false;
                }
                let rel = (cur as f64 - prev as f64).abs() / prev as f64;
                rel < 0.05
            }
        }
    }
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Cache capacity in bytes.
    pub capacity: ByteSize,
    /// Fraction of the trace used to warm the cache (not counted).
    /// The paper uses 10%.
    pub warmup_fraction: f64,
    /// Modification-detection rule.
    pub modification_rule: ModificationRule,
    /// Number of occupancy snapshots to take over the measured part of
    /// the trace (0 disables the Figure 1 series).
    pub occupancy_samples: usize,
}

impl SimulationConfig {
    /// The paper's defaults: 10% warm-up, 5%-delta modification rule, no
    /// occupancy sampling.
    pub fn new(capacity: ByteSize) -> Self {
        SimulationConfig {
            capacity,
            warmup_fraction: 0.10,
            modification_rule: ModificationRule::default(),
            occupancy_samples: 0,
        }
    }

    /// Starts a builder pre-loaded with the paper's defaults (10%
    /// warm-up, [`ModificationRule::SizeDelta`], no occupancy sampling).
    /// Only the capacity must be supplied.
    ///
    /// ```
    /// use webcache_sim::{ModificationRule, SimulationConfig};
    /// use webcache_trace::ByteSize;
    ///
    /// let config = SimulationConfig::builder()
    ///     .capacity(ByteSize::from_mib(256))
    ///     .occupancy_samples(50)
    ///     .build();
    /// assert_eq!(config.warmup_fraction, 0.10);
    /// assert_eq!(config.modification_rule, ModificationRule::SizeDelta);
    /// ```
    pub fn builder() -> SimulationConfigBuilder {
        SimulationConfigBuilder::default()
    }
}

/// Builder for [`SimulationConfig`]; see [`SimulationConfig::builder`].
///
/// The plain struct stays fully constructible by hand — the builder only
/// packages the paper's defaults so call sites state nothing but their
/// deviations.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulationConfigBuilder {
    capacity: Option<ByteSize>,
    warmup_fraction: Option<f64>,
    modification_rule: Option<ModificationRule>,
    occupancy_samples: Option<usize>,
}

impl SimulationConfigBuilder {
    /// Sets the cache capacity (required).
    #[must_use]
    pub fn capacity(mut self, capacity: ByteSize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Sets the warm-up fraction (default 0.10).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fraction < 1`.
    #[must_use]
    pub fn warmup_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "warm-up fraction must be in [0, 1)"
        );
        self.warmup_fraction = Some(fraction);
        self
    }

    /// Sets the modification rule (default [`ModificationRule::SizeDelta`]).
    #[must_use]
    pub fn modification_rule(mut self, rule: ModificationRule) -> Self {
        self.modification_rule = Some(rule);
        self
    }

    /// Sets the number of occupancy snapshots (default 0 — disabled).
    #[must_use]
    pub fn occupancy_samples(mut self, samples: usize) -> Self {
        self.occupancy_samples = Some(samples);
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if no capacity was set.
    pub fn build(self) -> SimulationConfig {
        let capacity = self
            .capacity
            .expect("SimulationConfig::builder() requires .capacity(..)");
        let mut config = SimulationConfig::new(capacity);
        if let Some(f) = self.warmup_fraction {
            config.warmup_fraction = f;
        }
        if let Some(r) = self.modification_rule {
            config.modification_rule = r;
        }
        if let Some(s) = self.occupancy_samples {
            config.occupancy_samples = s;
        }
        config
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Label of the replacement policy (e.g. `"GD*(P)"`).
    pub policy: String,
    /// Configuration the run used.
    pub config: SimulationConfig,
    /// Counters per document type.
    by_type: TypeMap<HitStats>,
    /// Occupancy trajectory (empty unless sampling was enabled).
    pub occupancy: OccupancySeries,
}

impl SimulationReport {
    /// Assembles a report from already-merged counters (the concurrent
    /// driver's merge path; the occupancy series stays empty there).
    pub(crate) fn from_parts(
        policy: String,
        config: SimulationConfig,
        by_type: TypeMap<HitStats>,
    ) -> SimulationReport {
        SimulationReport {
            policy,
            config,
            by_type,
            occupancy: OccupancySeries::new(),
        }
    }

    /// Aggregated counters over all document types.
    pub fn overall(&self) -> HitStats {
        let mut total = HitStats::default();
        for (_, s) in self.by_type.iter() {
            total += *s;
        }
        total
    }

    /// Per-type counters.
    pub fn by_type(&self) -> &TypeMap<HitStats> {
        &self.by_type
    }
}

/// Sentinel in the dense last-transfer table: document never fetched.
pub(crate) const NO_TRANSFER: u64 = u64::MAX;

/// Drives a [`Cache`] over a [`Trace`] and accounts per-type hit rates.
///
/// See the [crate docs](crate) for the methodology. [`Simulator::run`]
/// replays through the hash-free dense path ([`DenseTrace`] +
/// [`Cache::with_dense_slots`]); [`Simulator::run_hashed`] keeps the
/// sparse-id path alive, primarily so tests can check the two agree.
#[derive(Debug)]
pub struct Simulator {
    policy: Box<dyn ReplacementPolicy>,
    /// The admission filter in front of the store.
    admission: AdmissionSpec,
    config: SimulationConfig,
    /// Flight-recorder seam: handed to the cache so admission verdicts
    /// push their reasons for the
    /// [`FlightObserver`](crate::flight::FlightObserver) to pair with
    /// insert/reject events.
    admit_reasons: Option<webcache_obs::ReasonChannel>,
}

impl Simulator {
    /// Creates a simulator that will drive a fresh cache admitting every
    /// document, as the paper's caches do.
    pub fn new(policy: Box<dyn ReplacementPolicy>, config: SimulationConfig) -> Self {
        Simulator {
            policy,
            admission: AdmissionSpec::All,
            config,
            admit_reasons: None,
        }
    }

    /// Creates a simulator from a composed [`PolicySpec`] (or a bare
    /// [`PolicyKind`](webcache_core::PolicyKind)), which chooses both the
    /// replacement policy and the admission filter.
    pub fn from_spec(spec: impl Into<PolicySpec>, config: SimulationConfig) -> Self {
        Simulator::from_spec_instrumented(spec, config, ())
    }

    /// Like [`Simulator::from_spec`], but building the replacement
    /// policy with [`PolicySpec::build_instrumented`] so its internal
    /// events (heap costs, inflation, eviction reasons) reach `sink`.
    pub fn from_spec_instrumented<M: webcache_obs::MetricsSink>(
        spec: impl Into<PolicySpec>,
        config: SimulationConfig,
        sink: M,
    ) -> Self {
        let spec = spec.into();
        Simulator {
            policy: spec.build_instrumented(sink),
            admission: spec.admission,
            config,
            admit_reasons: None,
        }
    }

    /// Routes admission-verdict reasons into `reasons` (see
    /// [`Cache::set_admit_reasons`]): one push per Inserted or
    /// RejectedByAdmission outcome, in observer-event order.
    pub fn set_admit_reasons(&mut self, reasons: webcache_obs::ReasonChannel) {
        self.admit_reasons = Some(reasons);
    }

    /// How many requests to skip for warm-up and how often to sample
    /// occupancy, for a trace of `len` requests.
    fn schedule(&self, len: usize) -> (usize, usize) {
        let warmup_end = ((len as f64) * self.config.warmup_fraction).floor() as usize;
        let measured = len.saturating_sub(warmup_end);
        let sample_every = if self.config.occupancy_samples > 0 && measured > 0 {
            (measured / self.config.occupancy_samples).max(1)
        } else {
            usize::MAX
        };
        (warmup_end, sample_every)
    }

    /// Runs the full trace and produces the report.
    ///
    /// Builds the [`DenseTrace`] view and replays it. Sweeps that run one
    /// trace many times should build the view once and call
    /// [`Simulator::run_dense`] directly.
    pub fn run(self, trace: &Trace) -> SimulationReport {
        self.run_observed(trace, &mut NoopObserver)
    }

    /// Like [`Simulator::run`], but streams every event into `observer`.
    pub fn run_observed<O: Observer>(self, trace: &Trace, observer: &mut O) -> SimulationReport {
        let dense = DenseTrace::build(trace);
        self.run_dense_observed(&dense, observer)
    }

    /// Replays a pre-built dense trace view (the sweep hot path).
    ///
    /// Per-document simulator state is vector-indexed by the trace's
    /// dense slots; no hash is computed per request.
    pub fn run_dense(self, trace: &DenseTrace) -> SimulationReport {
        self.run_dense_observed(trace, &mut NoopObserver)
    }

    /// Like [`Simulator::run_dense`], but streams every event into
    /// `observer`.
    ///
    /// The observer is a generic parameter, so with [`NoopObserver`] this
    /// monomorphizes to exactly the unobserved loop — the hooks cost
    /// nothing unless an observer actually uses them. Events carry the
    /// **dense slot** as the document id (see
    /// [`AccessEvent`]).
    pub fn run_dense_observed<O: Observer>(
        self,
        trace: &DenseTrace,
        observer: &mut O,
    ) -> SimulationReport {
        let (warmup_end, sample_every) = self.schedule(trace.len());
        observer.on_run_start(RunMeta {
            total_requests: trace.len(),
            warmup_end,
            capacity: self.config.capacity,
        });
        let mut cache = Cache::with_dense_slots(
            self.config.capacity,
            self.policy,
            self.admission,
            trace.distinct_documents(),
        );
        if let Some(reasons) = self.admit_reasons {
            cache.set_admit_reasons(reasons);
        }
        let mut replay = Replay::new(
            trace,
            TraceSlots,
            self.config.modification_rule,
            warmup_end,
            trace.distinct_documents(),
        );
        let mut occupancy = OccupancySeries::new();
        for index in 0..trace.len() {
            replay.prefetch(&cache, index + LOOKAHEAD);
            replay.step(&mut cache, index, observer);
            if index >= warmup_end {
                let measured_index = index - warmup_end;
                if measured_index % sample_every == sample_every - 1 {
                    occupancy.push(OccupancySample::capture(index as u64, &cache));
                }
            }
        }
        observer.on_run_end();

        SimulationReport {
            policy: cache.policy_label(),
            config: self.config,
            by_type: replay.by_type,
            occupancy,
        }
    }

    /// Runs the full trace through the sparse-id hashed cache path.
    ///
    /// Semantically identical to [`Simulator::run`]; kept so the dense
    /// rewrite stays checkable against the straightforward
    /// implementation (see the `dense_matches_hashed` tests).
    pub fn run_hashed(self, trace: &Trace) -> SimulationReport {
        self.run_hashed_observed(trace, &mut NoopObserver)
    }

    /// Like [`Simulator::run_hashed`], but streams every event into
    /// `observer`. Events carry the caller's sparse document id.
    pub fn run_hashed_observed<O: Observer>(
        self,
        trace: &Trace,
        observer: &mut O,
    ) -> SimulationReport {
        let (warmup_end, sample_every) = self.schedule(trace.len());
        observer.on_run_start(RunMeta {
            total_requests: trace.len(),
            warmup_end,
            capacity: self.config.capacity,
        });
        let mut cache = Cache::new(self.config.capacity, self.policy, self.admission);
        if let Some(reasons) = self.admit_reasons {
            cache.set_admit_reasons(reasons);
        }
        let mut last_transfer: HashMap<u64, u64> = HashMap::new();

        let mut by_type: TypeMap<HitStats> = TypeMap::default();
        let mut occupancy = OccupancySeries::new();

        for (index, request) in trace.iter().enumerate() {
            let doc = request.doc;
            let transfer = request.size.as_u64();
            let prev = last_transfer.insert(doc.as_u64(), transfer);

            let modified =
                prev.is_some_and(|p| self.config.modification_rule.is_modification(p, transfer));

            let hit = if modified {
                cache.invalidate(doc);
                false
            } else {
                cache.access(doc)
            };
            let event = AccessEvent {
                index: index as u64,
                doc,
                doc_type: request.doc_type,
                size: request.size,
                warmup: index < warmup_end,
            };
            observer.on_access(event, access_kind(hit, modified));
            if !hit {
                let outcome = cache.insert(doc, request.doc_type, request.size);
                notify_insert(observer, event, outcome.disposition, &outcome.evicted);
            }

            if index >= warmup_end {
                let stats = &mut by_type[request.doc_type];
                stats.record(request.size, hit);
                if modified {
                    stats.modification_misses += 1;
                }
                let measured_index = index - warmup_end;
                if measured_index % sample_every == sample_every - 1 {
                    occupancy.push(OccupancySample::capture(index as u64, &cache));
                }
            }
        }
        observer.on_run_end();

        SimulationReport {
            policy: cache.policy_label(),
            config: self.config,
            by_type,
            occupancy,
        }
    }
}

/// How a dense replay's cache addresses the trace's document slots.
///
/// The serial simulator's cache uses the trace slots themselves
/// ([`TraceSlots`]); a shard's cache uses shard-local slots. Observers
/// see trace slots either way.
pub(crate) trait SlotMap {
    /// The cache-side slot of trace slot `slot`.
    fn cache_slot(&self, slot: u32) -> u32;

    /// Rewrites the cache-side ids of `evicted` to trace slots.
    fn trace_victims(&self, evicted: &mut [Eviction]);
}

/// The identity [`SlotMap`] of the serial replay.
pub(crate) struct TraceSlots;

impl SlotMap for TraceSlots {
    #[inline(always)]
    fn cache_slot(&self, slot: u32) -> u32 {
        slot
    }

    #[inline(always)]
    fn trace_victims(&self, _evicted: &mut [Eviction]) {}
}

/// How many requests ahead of [`Replay::step`] its driver calls
/// [`Replay::prefetch`], counted in the driver's own iteration order.
/// Far enough that the hinted lines arrive before the step needs them,
/// near enough that they are still cached when it does. On a 1/4-scale
/// DFN replay, whose per-document state outgrows L2, 4, 8 and 16
/// measured alike and 32 a little slower, so the distance is fixed.
pub(crate) const LOOKAHEAD: usize = 8;

/// The state of one dense replay and its per-request [`Replay::step`]:
/// the single replay kernel behind both [`Simulator::run_dense_observed`]
/// (over the whole trace) and the concurrent per-shard driver (over one
/// shard's subsequence).
pub(crate) struct Replay<'t, M> {
    docs: &'t [u32],
    sizes: &'t [u64],
    types: &'t [u8],
    map: M,
    rule: ModificationRule,
    warmup_end: usize,
    /// Per cache slot: the last transfer size, or [`NO_TRANSFER`].
    last_transfer: Vec<u64>,
    /// Victims of the latest insert, one buffer reused for every miss.
    evicted: Vec<Eviction>,
    /// Per-type counters over the measured region.
    pub(crate) by_type: TypeMap<HitStats>,
}

impl<'t, M: SlotMap> Replay<'t, M> {
    /// A replay of `trace` into a cache of `cache_slots` dense slots
    /// addressed through `map`; requests before global index
    /// `warmup_end` are not counted.
    pub(crate) fn new(
        trace: &'t DenseTrace,
        map: M,
        rule: ModificationRule,
        warmup_end: usize,
        cache_slots: usize,
    ) -> Self {
        Replay {
            docs: trace.docs(),
            sizes: trace.sizes(),
            types: trace.type_indices(),
            map,
            rule,
            warmup_end,
            last_transfer: vec![NO_TRANSFER; cache_slots],
            evicted: Vec::new(),
            by_type: TypeMap::default(),
        }
    }

    /// Hints the CPU to load the per-document state request `index` will
    /// touch: its last-transfer entry, its slab entry and its policy
    /// state. Drivers call it [`LOOKAHEAD`] requests before the step, so
    /// the cache misses of a trace larger than the CPU caches overlap.
    /// An `index` past the trace does nothing.
    #[inline(always)]
    pub(crate) fn prefetch(&self, cache: &Cache, index: usize) {
        if let Some(&slot) = self.docs.get(index) {
            let cache_slot = self.map.cache_slot(slot);
            prefetch_read(&self.last_transfer, cache_slot as usize);
            cache.prefetch(cache_slot);
        }
    }

    /// Replays request `index` of the trace against `cache` and returns
    /// whether it hit: the modification verdict, then invalidate or
    /// access, the observer's access event, insert on a miss (victims
    /// translated back to trace slots), and the measured-region counters.
    #[inline(always)]
    pub(crate) fn step<O: Observer>(
        &mut self,
        cache: &mut Cache,
        index: usize,
        observer: &mut O,
    ) -> bool {
        let slot = self.docs[index];
        let cache_slot = self.map.cache_slot(slot);
        let doc = DenseTrace::slot_doc(cache_slot);
        let transfer = self.sizes[index];
        let size = ByteSize::new(transfer);
        let doc_type = DocumentType::from_index(self.types[index] as usize);

        let prev = std::mem::replace(&mut self.last_transfer[cache_slot as usize], transfer);
        let modified = prev != NO_TRANSFER && self.rule.is_modification(prev, transfer);

        let hit = if modified {
            // The origin changed the document: any cached copy is
            // stale. Count a miss and fetch the new version.
            cache.invalidate(doc);
            false
        } else {
            cache.access(doc)
        };
        let event = AccessEvent {
            index: index as u64,
            doc: DenseTrace::slot_doc(slot),
            doc_type,
            size,
            warmup: index < self.warmup_end,
        };
        observer.on_access(event, access_kind(hit, modified));
        if !hit {
            let disposition = cache.insert_into(doc, doc_type, size, &mut self.evicted);
            self.map.trace_victims(&mut self.evicted);
            notify_insert(observer, event, disposition, &self.evicted);
        }

        if index >= self.warmup_end {
            let stats = &mut self.by_type[doc_type];
            stats.record(size, hit);
            if modified {
                stats.modification_misses += 1;
            }
        }
        hit
    }
}

/// Classifies one request's outcome for the observer.
#[inline(always)]
fn access_kind(hit: bool, modified: bool) -> AccessKind {
    if modified {
        AccessKind::ModificationMiss
    } else if hit {
        AccessKind::Hit
    } else {
        AccessKind::Miss
    }
}

/// Forwards the insert outcome (disposition + victims) to the observer.
#[inline(always)]
fn notify_insert<O: Observer>(
    observer: &mut O,
    event: AccessEvent,
    disposition: webcache_core::InsertDisposition,
    evicted: &[Eviction],
) {
    match disposition {
        webcache_core::InsertDisposition::Inserted => observer.on_insert(event),
        webcache_core::InsertDisposition::RejectedByAdmission => {
            observer.on_admission_reject(event)
        }
        // A document larger than the whole cache is silently skipped by
        // the store itself; no admission verdict, no insert.
        webcache_core::InsertDisposition::TooLarge => {}
    }
    for &eviction in evicted {
        observer.on_evict(event, eviction);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_core::PolicyKind;
    use webcache_trace::{DocId, DocumentType, Request, Timestamp};

    fn req(doc: u64, size: u64) -> Request {
        Request::new(
            Timestamp::ZERO,
            DocId::new(doc),
            DocumentType::Html,
            ByteSize::new(size),
        )
    }

    /// The paper's defaults at `capacity` bytes minus the warm-up: most
    /// tests here count every request.
    fn no_warmup(capacity: u64) -> SimulationConfigBuilder {
        SimulationConfig::builder()
            .capacity(ByteSize::new(capacity))
            .warmup_fraction(0.0)
    }

    fn run(trace: Vec<Request>, config: SimulationConfig) -> SimulationReport {
        Simulator::new(PolicyKind::Lru.build(), config).run(&trace.into())
    }

    #[test]
    fn repeated_requests_hit() {
        let trace = vec![req(1, 100), req(1, 100), req(1, 100), req(1, 100)];
        let config = no_warmup(1000).build();
        let report = run(trace, config);
        let overall = report.overall();
        assert_eq!(overall.requests, 4);
        assert_eq!(overall.hits, 3, "first request is a cold miss");
        assert_eq!(overall.byte_hit_rate(), 0.75);
    }

    #[test]
    fn warmup_requests_are_not_counted() {
        let trace = vec![req(1, 100), req(1, 100), req(1, 100), req(1, 100)];
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(1000))
            .warmup_fraction(0.5)
            .build();
        let report = run(trace, config);
        let overall = report.overall();
        assert_eq!(overall.requests, 2);
        assert_eq!(overall.hits, 2, "cache was warmed by the first half");
    }

    #[test]
    fn small_size_change_is_a_modification_miss() {
        // 100 -> 102 bytes: 2% change, under the 5% threshold.
        let trace = vec![req(1, 100), req(1, 102), req(1, 102)];
        let config = no_warmup(1000).build();
        let report = run(trace, config);
        let overall = report.overall();
        assert_eq!(overall.hits, 1, "only the third request hits");
        assert_eq!(overall.modification_misses, 1);
    }

    #[test]
    fn large_size_change_is_an_interrupted_transfer_hit() {
        // 100 -> 30 bytes: 70% change, an interrupt; cached copy valid.
        let trace = vec![req(1, 100), req(1, 30), req(1, 100)];
        let config = no_warmup(1000).build();
        let report = run(trace, config);
        let overall = report.overall();
        assert_eq!(overall.hits, 2);
        assert_eq!(overall.modification_misses, 0);
    }

    #[test]
    fn any_change_rule_counts_every_change_as_modification() {
        let trace = vec![req(1, 100), req(1, 30), req(1, 100)];
        let config = no_warmup(1000)
            .modification_rule(ModificationRule::AnyChange)
            .build();
        let report = run(trace, config);
        let overall = report.overall();
        assert_eq!(overall.hits, 0);
        assert_eq!(overall.modification_misses, 2);
    }

    #[test]
    fn per_type_accounting_is_separate() {
        let mut trace = vec![req(1, 100), req(1, 100)];
        trace.push(Request::new(
            Timestamp::ZERO,
            DocId::new(2),
            DocumentType::Image,
            ByteSize::new(50),
        ));
        let config = no_warmup(1000).build();
        let report = run(trace, config);
        assert_eq!(report.by_type()[DocumentType::Html].requests, 2);
        assert_eq!(report.by_type()[DocumentType::Image].requests, 1);
        assert_eq!(report.by_type()[DocumentType::Image].hits, 0);
        assert_eq!(report.overall().requests, 3);
    }

    #[test]
    fn eviction_under_pressure_reduces_hits() {
        // Capacity for one document only; alternating docs never hit.
        let trace = vec![req(1, 80), req(2, 80), req(1, 80), req(2, 80)];
        let config = no_warmup(100).build();
        let report = run(trace, config);
        assert_eq!(report.overall().hits, 0);
    }

    #[test]
    fn occupancy_sampling_produces_series() {
        let trace: Vec<Request> = (0..100).map(|i| req(i % 10, 100)).collect();
        let config = no_warmup(10_000).occupancy_samples(10).build();
        let report = run(trace, config);
        assert_eq!(report.occupancy.len(), 10);
        let last = report.occupancy.samples().last().unwrap();
        assert!((last.document_fraction[DocumentType::Html] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn modification_rule_boundaries() {
        let rule = ModificationRule::SizeDelta;
        assert!(
            !rule.is_modification(100, 100),
            "no change is not a modification"
        );
        assert!(
            rule.is_modification(100, 104),
            "4% change is a modification"
        );
        assert!(
            !rule.is_modification(100, 105),
            "exactly 5% is an interrupt"
        );
        assert!(
            !rule.is_modification(100, 30),
            "large change is an interrupt"
        );
        assert!(ModificationRule::AnyChange.is_modification(100, 101));
        assert!(!ModificationRule::AnyChange.is_modification(100, 100));
    }

    #[test]
    fn zero_byte_previous_transfer_is_never_a_modification() {
        // A 0 -> N change has no meaningful relative delta; the intended
        // reading is a ≥100% change, i.e. an interrupted transfer, so the
        // cached copy stays valid. Pin it explicitly for every rule arm.
        let rule = ModificationRule::SizeDelta;
        assert!(!rule.is_modification(0, 1));
        assert!(!rule.is_modification(0, 1_000_000));
        assert!(!rule.is_modification(0, 0), "no change is no modification");
        // AnyChange by definition flags every change, including from 0.
        assert!(ModificationRule::AnyChange.is_modification(0, 1));
        assert!(!ModificationRule::AnyChange.is_modification(0, 0));
    }

    #[test]
    fn zero_byte_transfers_replay_without_counting_modifications() {
        // End-to-end: a document first seen as a 0-byte transfer, then
        // fetched in full, must not be scored as a modification miss.
        let trace = vec![req(1, 0), req(1, 500), req(1, 500)];
        let config = no_warmup(1000).build();
        let report = run(trace, config);
        assert_eq!(report.overall().modification_misses, 0);
        assert_eq!(report.overall().hits, 2, "both follow-ups hit");
    }

    #[test]
    fn builder_defaults_match_the_plain_constructor() {
        let built = SimulationConfig::builder()
            .capacity(ByteSize::new(4096))
            .build();
        assert_eq!(built, SimulationConfig::new(ByteSize::new(4096)));
        assert_eq!(built.warmup_fraction, 0.10);
        assert_eq!(built.modification_rule, ModificationRule::SizeDelta);
        assert_eq!(built.occupancy_samples, 0);
    }

    #[test]
    fn builder_overrides_every_field() {
        let built = SimulationConfig::builder()
            .capacity(ByteSize::new(10))
            .warmup_fraction(0.25)
            .modification_rule(ModificationRule::AnyChange)
            .occupancy_samples(7)
            .build();
        let by_hand = SimulationConfig {
            capacity: ByteSize::new(10),
            warmup_fraction: 0.25,
            modification_rule: ModificationRule::AnyChange,
            occupancy_samples: 7,
        };
        assert_eq!(built, by_hand);
    }

    #[test]
    #[should_panic(expected = "requires .capacity")]
    fn builder_without_capacity_panics() {
        let _ = SimulationConfig::builder().build();
    }

    #[test]
    #[should_panic(expected = "warm-up fraction")]
    fn builder_rejects_out_of_range_warmup() {
        let _ = SimulationConfig::builder()
            .capacity(ByteSize::new(10))
            .warmup_fraction(1.0);
    }

    #[test]
    fn oversized_documents_never_hit_but_do_not_crash() {
        let trace = vec![req(1, 5_000), req(1, 5_000)];
        let config = no_warmup(1000).build();
        let report = run(trace, config);
        assert_eq!(report.overall().hits, 0);
    }

    #[test]
    fn admission_filter_reduces_first_insertions() {
        // doc 1 appears three times; with the second-hit filter the first
        // request cannot populate the cache, so only the third hits.
        let trace = vec![req(1, 100), req(1, 100), req(1, 100)];
        let spec = PolicySpec::new(AdmissionSpec::SecondHit(16), PolicyKind::Lru);
        let report = Simulator::from_spec(spec, no_warmup(1000).build()).run(&trace.into());
        assert_eq!(report.overall().hits, 1);

        // The same trace without admission control hits twice.
        let trace = vec![req(1, 100), req(1, 100), req(1, 100)];
        let config = no_warmup(1000).build();
        assert_eq!(run(trace, config).overall().hits, 2);
    }

    #[test]
    fn policy_label_is_propagated() {
        let trace = vec![req(1, 10)];
        let report = Simulator::new(
            PolicyKind::GdStar(webcache_core::CostModel::Packet).build(),
            SimulationConfig::new(ByteSize::new(100)),
        )
        .run(&trace.into());
        assert_eq!(report.policy, "GD*(P)");
    }

    #[test]
    fn from_spec_composes_admission_and_label() {
        let trace: Trace = vec![req(1, 10)].into();
        let spec: PolicySpec = "tinylfu+slru".parse().unwrap();
        let report =
            Simulator::from_spec(spec, SimulationConfig::new(ByteSize::new(100))).run(&trace);
        assert_eq!(report.policy, "TinyLFU+SLRU");
        let report =
            Simulator::from_spec(PolicyKind::Lru, SimulationConfig::new(ByteSize::new(100)))
                .run(&trace);
        assert_eq!(report.policy, "LRU", "a bare kind admits everything");
    }
}
