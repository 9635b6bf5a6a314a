//! Online anomaly detection over the simulator event stream.
//!
//! [`AnomalyObserver`] watches a replay through fixed-size windows of
//! *measured* requests (warm-up events are ignored, so each pass of a
//! looped replay re-warming a cold cache does not trip detectors) and
//! compares each closed window against a trailing EWMA baseline. Four
//! detectors are composed:
//!
//! * **hit-rate collapse** — a document type's window hit rate falls
//!   more than [`AnomalyConfig::hit_rate_drop`] below its EWMA (only
//!   judged when the window saw at least
//!   [`AnomalyConfig::min_type_requests`] requests of that type);
//! * **eviction storm** — the window's eviction count exceeds
//!   [`AnomalyConfig::storm_factor`] × its EWMA and the absolute floor
//!   [`AnomalyConfig::min_storm_evictions`];
//! * **admission-reject spike** — same shape, over admission rejects;
//! * **occupancy thrash** — the window evicted more than
//!   [`AnomalyConfig::thrash_capacity_fraction`] of the configured
//!   capacity in bytes *and* more than `storm_factor` × the byte-churn
//!   EWMA (the second gate keeps a steadily-churning small cache quiet).
//!
//! Every detection increments an `webcache_anomaly_total{kind,doc_type}`
//! counter (scrapeable at `/metrics`). The `warn` log record is **rate
//! limited**: after a detection logs, the same (kind, type) stays silent
//! for [`AnomalyConfig::cooldown_windows`] windows while the counter
//! keeps counting — alerts stay readable during a sustained incident
//! without losing the incident's magnitude.
//!
//! The EWMA baselines are seeded by the first qualifying window, which
//! never fires: a detector needs history before "anomalous" means
//! anything. The trailing partial window is never judged.

use std::fmt;

use webcache_core::Eviction;
use webcache_obs::{Counter, Logger, Registry};
use webcache_trace::DocumentType;

use crate::observe::{AccessEvent, AccessKind, Observer, RunMeta};

/// Number of document types (the `doc_type` axis of the counters).
const TYPES: usize = DocumentType::ALL.len();

/// What kind of anomaly a detection is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// A document type's hit rate fell off a cliff vs. its baseline.
    HitRateCollapse,
    /// Evictions in a window far exceeded the trailing rate.
    EvictionStorm,
    /// Admission rejects in a window far exceeded the trailing rate.
    AdmissionRejectSpike,
    /// A large fraction of the cache's bytes churned in one window.
    OccupancyThrash,
}

impl AnomalyKind {
    /// All kinds, in metric registration order.
    pub const ALL: [AnomalyKind; 4] = [
        AnomalyKind::HitRateCollapse,
        AnomalyKind::EvictionStorm,
        AnomalyKind::AdmissionRejectSpike,
        AnomalyKind::OccupancyThrash,
    ];

    /// The `kind` label value used on counters and log records.
    pub fn label(self) -> &'static str {
        match self {
            AnomalyKind::HitRateCollapse => "hit_rate_collapse",
            AnomalyKind::EvictionStorm => "eviction_storm",
            AnomalyKind::AdmissionRejectSpike => "admission_reject_spike",
            AnomalyKind::OccupancyThrash => "occupancy_thrash",
        }
    }
}

/// Detector tuning. [`AnomalyConfig::default`] is sized for production
/// windows (2048 requests); tests shrink `window` to keep traces small.
#[derive(Debug, Clone, Copy)]
pub struct AnomalyConfig {
    /// Measured requests per detection window.
    pub window: u64,
    /// EWMA smoothing factor in `(0, 1]` (weight of the newest window).
    pub ewma_alpha: f64,
    /// Absolute hit-rate drop below the EWMA that counts as a collapse.
    pub hit_rate_drop: f64,
    /// Minimum per-type requests in a window for its hit rate to be
    /// judged (or to update the baseline).
    pub min_type_requests: u64,
    /// A window's evictions must exceed this multiple of the EWMA.
    pub storm_factor: f64,
    /// ... and this absolute floor, to ignore noise around zero.
    pub min_storm_evictions: u64,
    /// A window's rejects must exceed this multiple of the EWMA.
    pub reject_factor: f64,
    /// ... and this absolute floor.
    pub min_reject_spike: u64,
    /// Bytes evicted in one window, as a fraction of capacity, that
    /// counts as thrash (subject to the `storm_factor` EWMA gate).
    pub thrash_capacity_fraction: f64,
    /// Windows a (kind, type) stays log-silent after logging a warn.
    pub cooldown_windows: u32,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            window: 2048,
            ewma_alpha: 0.3,
            hit_rate_drop: 0.25,
            min_type_requests: 64,
            storm_factor: 4.0,
            min_storm_evictions: 32,
            reject_factor: 4.0,
            min_reject_spike: 32,
            thrash_capacity_fraction: 0.5,
            cooldown_windows: 8,
        }
    }
}

/// Callback invoked when a detection actually *logs* (i.e. outside the
/// cooldown). Receives the anomaly kind and the `doc_type` label. This
/// is the hook the serve path uses to write post-mortem bundles: rate
/// limiting the trigger exactly like the warn log keeps a sustained
/// incident from burying the disk in bundles.
pub struct AnomalyTrigger(TriggerFn);

/// The boxed callback type behind [`AnomalyTrigger`].
type TriggerFn = Box<dyn FnMut(AnomalyKind, &str) + Send>;

impl AnomalyTrigger {
    /// Wraps a callback for [`AnomalyObserver::set_trigger`].
    pub fn new(f: impl FnMut(AnomalyKind, &str) + Send + 'static) -> Self {
        AnomalyTrigger(Box::new(f))
    }
}

impl fmt::Debug for AnomalyTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("AnomalyTrigger(..)")
    }
}

/// One detector: a per-type hit-rate collapse or one of the three
/// cache-wide detectors, with its EWMA baseline (`None` until its first
/// judged window seeds it), its log cooldown and its
/// `webcache_anomaly_total` cell.
#[derive(Debug)]
struct Detector {
    kind: AnomalyKind,
    doc_type: &'static str,
    baseline: Option<f64>,
    cooldown: u32,
    total: Counter,
}

impl Detector {
    /// Counts the detection and, outside the cooldown, logs the warn
    /// record, runs the trigger (if any), and starts a new cooldown.
    fn fire(
        &mut self,
        logger: &Logger,
        trigger: &mut Option<AnomalyTrigger>,
        cooldown_windows: u32,
        window: u64,
        value: f64,
        baseline: f64,
    ) {
        self.total.inc();
        if self.cooldown == 0 {
            logger.warn(
                "anomaly",
                self.kind.label(),
                &[
                    ("kind", self.kind.label().into()),
                    ("doc_type", self.doc_type.into()),
                    ("window", window.into()),
                    ("value", value.into()),
                    ("baseline", baseline.into()),
                ],
            );
            if let Some(AnomalyTrigger(f)) = trigger {
                f(self.kind, self.doc_type);
            }
            self.cooldown = cooldown_windows;
        }
    }
}

/// Windowed EWMA anomaly detectors over the replay event stream. See the
/// [module docs](self).
#[derive(Debug)]
pub struct AnomalyObserver {
    config: AnomalyConfig,
    logger: Logger,
    capacity: u64,
    /// Windows closed so far (monotonic across passes).
    windows_closed: u64,
    /// Measured requests accumulated in the current window.
    seen: u64,
    type_requests: [u64; TYPES],
    type_hits: [u64; TYPES],
    evictions: u64,
    /// In `u128`: a window's evictions can free over `u64::MAX` bytes.
    bytes_evicted: u128,
    rejects: u64,
    /// The hit-rate collapse detector of every type in index order, then
    /// the eviction storm, admission-reject spike and occupancy thrash
    /// detectors: the order windows are judged, logged and triggered in.
    detectors: Vec<Detector>,
    trigger: Option<AnomalyTrigger>,
}

impl AnomalyObserver {
    /// Registers the `webcache_anomaly_total` counter family (one cell
    /// per (kind, doc_type); the three cache-wide detectors use
    /// `doc_type="overall"`) and returns the observer.
    pub fn register(registry: &Registry, logger: Logger, config: AnomalyConfig) -> Self {
        let detector = |kind: AnomalyKind, doc_type: &'static str| Detector {
            kind,
            doc_type,
            baseline: None,
            cooldown: 0,
            total: registry.counter(
                "webcache_anomaly_total",
                "Anomaly detections by kind and document type.",
                &[("kind", kind.label()), ("doc_type", doc_type)],
            ),
        };
        let detectors = DocumentType::ALL
            .iter()
            .map(|ty| detector(AnomalyKind::HitRateCollapse, ty.label()))
            .chain(
                AnomalyKind::ALL[1..]
                    .iter()
                    .map(|&kind| detector(kind, "overall")),
            )
            .collect();
        AnomalyObserver {
            config,
            logger,
            capacity: 0,
            windows_closed: 0,
            seen: 0,
            type_requests: [0; TYPES],
            type_hits: [0; TYPES],
            evictions: 0,
            bytes_evicted: 0,
            rejects: 0,
            detectors,
            trigger: None,
        }
    }

    /// Installs the post-detection callback, fired under the same rate
    /// limit as the warn log (see [`AnomalyTrigger`]).
    pub fn set_trigger(&mut self, trigger: AnomalyTrigger) {
        self.trigger = Some(trigger);
    }

    /// Total detections of `kind` so far (summed over document types for
    /// the per-type collapse detector).
    pub fn fired(&self, kind: AnomalyKind) -> u64 {
        self.detectors
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| d.total.get())
            .sum()
    }

    /// Detection windows closed so far (monotonic across replay passes).
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Judges the completed window against the baselines, updates them,
    /// and resets the accumulators.
    fn close_window(&mut self) {
        let window = self.windows_closed;
        self.windows_closed += 1;
        let config = self.config;
        let alpha = config.ewma_alpha;
        let (requests, hits) = (self.type_requests, self.type_hits);
        // Each detector's value for this window, in detector order; a
        // type with too few requests is not judged.
        let values = (0..TYPES)
            .map(|t| {
                (requests[t] >= config.min_type_requests)
                    .then(|| hits[t] as f64 / requests[t] as f64)
            })
            .chain([
                Some(self.evictions as f64),
                Some(self.rejects as f64),
                Some(self.bytes_evicted as f64),
            ]);
        let thrash_floor = config.thrash_capacity_fraction * self.capacity as f64;
        for (detector, value) in self.detectors.iter_mut().zip(values) {
            detector.cooldown = detector.cooldown.saturating_sub(1);
            let Some(value) = value else {
                continue;
            };
            let Some(baseline) = detector.baseline else {
                detector.baseline = Some(value);
                continue;
            };
            let anomalous = match detector.kind {
                AnomalyKind::HitRateCollapse => value < baseline - config.hit_rate_drop,
                AnomalyKind::EvictionStorm => {
                    self.evictions >= config.min_storm_evictions
                        && value > config.storm_factor * baseline
                }
                AnomalyKind::AdmissionRejectSpike => {
                    self.rejects >= config.min_reject_spike
                        && value > config.reject_factor * baseline
                }
                AnomalyKind::OccupancyThrash => {
                    self.capacity > 0
                        && value > thrash_floor
                        && value > config.storm_factor * baseline
                }
            };
            if anomalous {
                detector.fire(
                    &self.logger,
                    &mut self.trigger,
                    config.cooldown_windows,
                    window,
                    value,
                    baseline,
                );
            }
            detector.baseline = Some(alpha * value + (1.0 - alpha) * baseline);
        }

        self.seen = 0;
        self.type_requests = [0; TYPES];
        self.type_hits = [0; TYPES];
        self.evictions = 0;
        self.bytes_evicted = 0;
        self.rejects = 0;
    }
}

impl Observer for AnomalyObserver {
    fn on_run_start(&mut self, meta: RunMeta) {
        // Window accumulators and baselines deliberately persist across
        // passes of a looped replay; only the capacity is (re)learned.
        self.capacity = meta.capacity.as_u64();
        if self.windows_closed == 0 && self.seen == 0 {
            self.logger.debug(
                "anomaly",
                "detectors armed",
                &[
                    ("window", self.config.window.into()),
                    ("capacity", self.capacity.into()),
                ],
            );
        }
    }

    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        if event.warmup {
            return;
        }
        let t = event.doc_type.index();
        self.type_requests[t] += 1;
        if kind.is_hit() {
            self.type_hits[t] += 1;
        }
        self.seen += 1;
        if self.seen >= self.config.window {
            self.close_window();
        }
    }

    fn on_admission_reject(&mut self, event: AccessEvent) {
        if !event.warmup {
            self.rejects += 1;
        }
    }

    fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
        if !at.warmup {
            self.evictions += 1;
            self.bytes_evicted += u128::from(evicted.size.as_u64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimulationConfig, Simulator};
    use webcache_core::{AdmissionSpec, PolicyKind, PolicySpec};
    use webcache_obs::Level;
    use webcache_trace::{ByteSize, DocId, Request, Timestamp, Trace};

    const WINDOW: u64 = 512;

    fn config() -> AnomalyConfig {
        AnomalyConfig {
            window: WINDOW,
            ..AnomalyConfig::default()
        }
    }

    fn req(doc: u64, size: u64) -> Request {
        Request::new(
            Timestamp::ZERO,
            DocId::new(doc),
            DocumentType::Html,
            ByteSize::new(size),
        )
    }

    fn run(
        trace: Trace,
        capacity: u64,
        admission: AdmissionSpec,
        config: AnomalyConfig,
    ) -> (AnomalyObserver, webcache_obs::LogCapture, Registry) {
        let registry = Registry::new();
        let (logger, capture) = Logger::capture(Level::Warn);
        let mut obs = AnomalyObserver::register(&registry, logger, config);
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(capacity))
            .warmup_fraction(0.0)
            .build();
        Simulator::from_spec(PolicySpec::new(admission, PolicyKind::Lru), config)
            .run_observed(&trace, &mut obs);
        (obs, capture, registry)
    }

    fn assert_only(obs: &AnomalyObserver, kind: AnomalyKind, count: u64) {
        for k in AnomalyKind::ALL {
            let expected = if k == kind { count } else { 0 };
            assert_eq!(obs.fired(k), expected, "{}", k.label());
        }
    }

    /// Window 1: 8 hot documents cycling (hit rate ~1). Window 2: all
    /// distinct cold documents (hit rate ~0) — the cliff. Window 3: hot
    /// again. Capacity is roomy, so no evictions or rejects anywhere.
    fn cliff_trace() -> Trace {
        let w = WINDOW as usize;
        let mut requests = Vec::with_capacity(3 * w);
        for i in 0..w {
            requests.push(req((i % 8) as u64, 500));
        }
        for i in 0..w {
            requests.push(req(10_000 + i as u64, 500));
        }
        for i in 0..w {
            requests.push(req((i % 8) as u64, 500));
        }
        requests.into()
    }

    /// Three evictions of 10^19 bytes free more than `u64::MAX` bytes in
    /// one window: the total is exact and the sum does not overflow.
    #[test]
    fn window_eviction_bytes_sum_past_u64_max() {
        let size = 10_000_000_000_000_000_000;
        let trace: Trace = vec![req(1, size), req(2, size), req(1, size), req(2, size)].into();
        // Room for one document, not two.
        let (obs, _, _) = run(
            trace,
            18_000_000_000_000_000_000,
            AdmissionSpec::All,
            config(),
        );
        assert_eq!(obs.evictions, 3);
        assert_eq!(obs.bytes_evicted as f64, 3e19);
    }

    #[test]
    fn hit_rate_cliff_fires_collapse_exactly_once() {
        let (obs, capture, registry) = run(cliff_trace(), 10_000_000, AdmissionSpec::All, config());
        assert_only(&obs, AnomalyKind::HitRateCollapse, 1);
        assert_eq!(obs.windows_closed(), 3);
        let lines = capture.lines();
        assert_eq!(lines.len(), 1, "one rate-limited warn: {lines:?}");
        assert!(
            lines[0].contains("\"kind\":\"hit_rate_collapse\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"doc_type\":\"HTML\""), "{}", lines[0]);
        let text = registry.prometheus_text();
        assert!(
            text.contains("webcache_anomaly_total{kind=\"hit_rate_collapse\",doc_type=\"HTML\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn trigger_fires_under_the_same_rate_limit_as_the_log() {
        use std::sync::{Arc, Mutex};
        let fired: Arc<Mutex<Vec<(AnomalyKind, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let registry = Registry::new();
        let (logger, capture) = Logger::capture(Level::Warn);
        let mut obs = AnomalyObserver::register(&registry, logger, config());
        let sink = fired.clone();
        obs.set_trigger(AnomalyTrigger::new(move |kind, doc_type| {
            sink.lock().unwrap().push((kind, doc_type.to_string()));
        }));
        let sim_config = SimulationConfig::builder()
            .capacity(ByteSize::new(10_000_000))
            .warmup_fraction(0.0)
            .build();
        Simulator::new(PolicyKind::Lru.build(), sim_config).run_observed(&cliff_trace(), &mut obs);
        let fired = fired.lock().unwrap();
        assert_eq!(
            *fired,
            vec![(AnomalyKind::HitRateCollapse, "HTML".to_string())]
        );
        assert_eq!(capture.lines().len(), fired.len(), "trigger mirrors warn");
    }

    #[test]
    fn sustained_collapse_counts_every_window_but_logs_once() {
        // Hot window, then five consecutive cold windows: the counter
        // sees each anomalous window, the log only the first (cooldown).
        let w = WINDOW as usize;
        let mut requests = Vec::new();
        for i in 0..w {
            requests.push(req((i % 8) as u64, 500));
        }
        for i in 0..5 * w {
            requests.push(req(10_000 + i as u64, 500));
        }
        let (obs, capture, _) = run(requests.into(), 100_000_000, AdmissionSpec::All, config());
        // Window 2 fires; the EWMA then absorbs the 0 rate quickly, so at
        // least the first cold window is anomalous.
        assert!(obs.fired(AnomalyKind::HitRateCollapse) >= 1);
        assert_eq!(capture.lines().len(), 1, "cooldown suppresses repeats");
    }

    /// Windows 1–2: 8 hot documents exactly filling the cache — all hits
    /// once resident, zero evictions, baselines seed at 0. Window 3: a
    /// burst of one-shot documents churns the full cache, spiking the
    /// eviction *count* far past `storm_factor` × baseline. The collapse
    /// and thrash detectors are disabled by config here (the same churn
    /// necessarily moves hit rate and bytes in a cache this small); they
    /// get their own isolated traces below.
    #[test]
    fn eviction_storm_fires_exactly_once() {
        let w = WINDOW as usize;
        let config = AnomalyConfig {
            hit_rate_drop: 2.0,              // collapse off
            thrash_capacity_fraction: 100.0, // thrash off
            ..config()
        };
        let mut requests = Vec::new();
        for i in 0..2 * w {
            requests.push(req((i % 8) as u64, 100));
        }
        // Storm window: 64 distinct one-shot docs against a full cache.
        for i in 0..w {
            if i % 8 == 0 && i / 8 < 64 {
                requests.push(req(50_000 + (i / 8) as u64, 100));
            } else {
                requests.push(req((i % 8) as u64, 100));
            }
        }
        let (obs, capture, _) = run(requests.into(), 800, AdmissionSpec::All, config);
        assert_only(&obs, AnomalyKind::EvictionStorm, 1);
        let lines = capture.lines();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(
            lines[0].contains("\"kind\":\"eviction_storm\""),
            "{}",
            lines[0]
        );
    }

    /// Second-hit admission: established hot set, then a burst of
    /// one-shot documents that the admission rule turns away. Rejected
    /// documents are never inserted, so no evictions happen at all.
    #[test]
    fn admission_reject_spike_fires_exactly_once() {
        let w = WINDOW as usize;
        let mut requests = Vec::new();
        // Hot set: each doc offered repeatedly, admitted on second offer.
        for i in 0..2 * w {
            requests.push(req((i % 8) as u64, 500));
        }
        // Spike window: 64 one-shot docs interleaved with hot traffic.
        for i in 0..w {
            if i % 8 == 0 && i / 8 < 64 {
                requests.push(req(70_000 + (i / 8) as u64, 500));
            } else {
                requests.push(req((i % 8) as u64, 500));
            }
        }
        let (obs, capture, _) = run(
            requests.into(),
            10_000_000,
            AdmissionSpec::SecondHit(1 << 20),
            config(),
        );
        assert_only(&obs, AnomalyKind::AdmissionRejectSpike, 1);
        let lines = capture.lines();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(
            lines[0].contains("\"kind\":\"admission_reject_spike\""),
            "{}",
            lines[0]
        );
    }

    /// Window 1: quiet hits. Window 2: a handful of huge documents churn
    /// most of the cache's bytes — too few evictions for the storm
    /// detector, far too many bytes for the thrash detector.
    #[test]
    fn occupancy_thrash_fires_exactly_once() {
        let w = WINDOW as usize;
        let capacity = 1_000_000u64;
        let mut requests = Vec::new();
        // Hot set of 8 docs at 100 kB: 800 kB resident.
        for i in 0..2 * w {
            requests.push(req((i % 8) as u64, 100_000));
        }
        // Thrash window: 8 distinct 100 kB docs -> ~800 kB evicted (80%
        // of capacity) from ~8-16 evictions (< min_storm_evictions 32).
        for i in 0..w {
            if i % 64 == 0 && i / 64 < 8 {
                requests.push(req(90_000 + (i / 64) as u64, 100_000));
            } else {
                requests.push(req((i % 8) as u64, 100_000));
            }
        }
        let (obs, capture, _) = run(requests.into(), capacity, AdmissionSpec::All, config());
        assert_only(&obs, AnomalyKind::OccupancyThrash, 1);
        let lines = capture.lines();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(
            lines[0].contains("\"kind\":\"occupancy_thrash\""),
            "{}",
            lines[0]
        );
    }

    /// A steady workload — constant moderate miss and eviction rate over
    /// many windows — must not trip any detector.
    #[test]
    fn steady_workload_has_zero_false_positives() {
        // 100 hot docs of 1 kB in a 50 kB cache: a steady ~50% of
        // accesses miss and evict, window after window.
        let w = WINDOW as usize;
        let requests: Vec<Request> = (0..12 * w).map(|i| req((i % 100) as u64, 1_000)).collect();
        let (obs, capture, _) = run(requests.into(), 50_000, AdmissionSpec::All, config());
        assert_only(&obs, AnomalyKind::HitRateCollapse, 0);
        assert_eq!(obs.windows_closed(), 12);
        assert!(capture.lines().is_empty(), "{:?}", capture.lines());
    }

    /// Warm-up events must not feed the detectors: a replay whose
    /// measured region is too short to close a window detects nothing,
    /// however wild the warm-up was.
    #[test]
    fn warmup_events_are_ignored() {
        let w = WINDOW as usize;
        let requests: Vec<Request> = (0..2 * w).map(|i| req(i as u64, 1_000)).collect();
        let registry = Registry::new();
        let (logger, capture) = Logger::capture(Level::Warn);
        let mut obs = AnomalyObserver::register(&registry, logger, config());
        let sim_config = SimulationConfig::builder()
            .capacity(ByteSize::new(10_000))
            .warmup_fraction(0.9)
            .build();
        Simulator::new(PolicyKind::Lru.build(), sim_config)
            .run_observed(&requests.into(), &mut obs);
        assert_eq!(obs.windows_closed(), 0, "measured region under one window");
        assert!(capture.lines().is_empty());
    }
}
