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
    hit_rate_ewma: [Option<f64>; TYPES],
    evictions_ewma: Option<f64>,
    rejects_ewma: Option<f64>,
    bytes_ewma: Option<f64>,
    collapse_cooldown: [u32; TYPES],
    storm_cooldown: u32,
    reject_cooldown: u32,
    thrash_cooldown: u32,
    collapse_total: [Counter; TYPES],
    storm_total: Counter,
    reject_total: Counter,
    thrash_total: Counter,
    trigger: Option<AnomalyTrigger>,
}

impl AnomalyObserver {
    /// Registers the `webcache_anomaly_total` counter family (one cell
    /// per (kind, doc_type); the three cache-wide detectors use
    /// `doc_type="overall"`) and returns the observer.
    pub fn register(registry: &Registry, logger: Logger, config: AnomalyConfig) -> Self {
        const NAME: &str = "webcache_anomaly_total";
        const HELP: &str = "Anomaly detections by kind and document type.";
        let collapse_total = std::array::from_fn(|i| {
            registry.counter(
                NAME,
                HELP,
                &[
                    ("kind", AnomalyKind::HitRateCollapse.label()),
                    ("doc_type", DocumentType::from_index(i).label()),
                ],
            )
        });
        let overall = |kind: AnomalyKind| {
            registry.counter(
                NAME,
                HELP,
                &[("kind", kind.label()), ("doc_type", "overall")],
            )
        };
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
            hit_rate_ewma: [None; TYPES],
            evictions_ewma: None,
            rejects_ewma: None,
            bytes_ewma: None,
            collapse_cooldown: [0; TYPES],
            storm_cooldown: 0,
            reject_cooldown: 0,
            thrash_cooldown: 0,
            collapse_total,
            storm_total: overall(AnomalyKind::EvictionStorm),
            reject_total: overall(AnomalyKind::AdmissionRejectSpike),
            thrash_total: overall(AnomalyKind::OccupancyThrash),
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
        match kind {
            AnomalyKind::HitRateCollapse => self.collapse_total.iter().map(Counter::get).sum(),
            AnomalyKind::EvictionStorm => self.storm_total.get(),
            AnomalyKind::AdmissionRejectSpike => self.reject_total.get(),
            AnomalyKind::OccupancyThrash => self.thrash_total.get(),
        }
    }

    /// Detection windows closed so far (monotonic across replay passes).
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Counts the detection and, outside the cooldown, logs the warn
    /// record, runs the trigger (if any), and starts a new cooldown.
    #[allow(clippy::too_many_arguments)]
    fn fire(
        counter: &Counter,
        cooldown: &mut u32,
        cooldown_windows: u32,
        logger: &Logger,
        trigger: &mut Option<AnomalyTrigger>,
        window: u64,
        kind: AnomalyKind,
        doc_type: &str,
        value: f64,
        baseline: f64,
    ) {
        counter.inc();
        if *cooldown == 0 {
            logger.warn(
                "anomaly",
                kind.label(),
                &[
                    ("kind", kind.label().into()),
                    ("doc_type", doc_type.into()),
                    ("window", window.into()),
                    ("value", value.into()),
                    ("baseline", baseline.into()),
                ],
            );
            if let Some(AnomalyTrigger(f)) = trigger {
                f(kind, doc_type);
            }
            *cooldown = cooldown_windows;
        }
    }

    /// Judges the completed window against the baselines, updates them,
    /// and resets the accumulators.
    fn close_window(&mut self) {
        let window = self.windows_closed;
        self.windows_closed += 1;
        let alpha = self.config.ewma_alpha;

        for cd in self.collapse_cooldown.iter_mut() {
            *cd = cd.saturating_sub(1);
        }
        self.storm_cooldown = self.storm_cooldown.saturating_sub(1);
        self.reject_cooldown = self.reject_cooldown.saturating_sub(1);
        self.thrash_cooldown = self.thrash_cooldown.saturating_sub(1);

        for t in 0..TYPES {
            let requests = self.type_requests[t];
            if requests < self.config.min_type_requests {
                continue;
            }
            let hit_rate = self.type_hits[t] as f64 / requests as f64;
            if let Some(baseline) = self.hit_rate_ewma[t] {
                if hit_rate < baseline - self.config.hit_rate_drop {
                    Self::fire(
                        &self.collapse_total[t],
                        &mut self.collapse_cooldown[t],
                        self.config.cooldown_windows,
                        &self.logger,
                        &mut self.trigger,
                        window,
                        AnomalyKind::HitRateCollapse,
                        DocumentType::from_index(t).label(),
                        hit_rate,
                        baseline,
                    );
                }
                self.hit_rate_ewma[t] = Some(alpha * hit_rate + (1.0 - alpha) * baseline);
            } else {
                self.hit_rate_ewma[t] = Some(hit_rate);
            }
        }

        let evictions = self.evictions as f64;
        if let Some(baseline) = self.evictions_ewma {
            if self.evictions >= self.config.min_storm_evictions
                && evictions > self.config.storm_factor * baseline
            {
                Self::fire(
                    &self.storm_total,
                    &mut self.storm_cooldown,
                    self.config.cooldown_windows,
                    &self.logger,
                    &mut self.trigger,
                    window,
                    AnomalyKind::EvictionStorm,
                    "overall",
                    evictions,
                    baseline,
                );
            }
            self.evictions_ewma = Some(alpha * evictions + (1.0 - alpha) * baseline);
        } else {
            self.evictions_ewma = Some(evictions);
        }

        let rejects = self.rejects as f64;
        if let Some(baseline) = self.rejects_ewma {
            if self.rejects >= self.config.min_reject_spike
                && rejects > self.config.reject_factor * baseline
            {
                Self::fire(
                    &self.reject_total,
                    &mut self.reject_cooldown,
                    self.config.cooldown_windows,
                    &self.logger,
                    &mut self.trigger,
                    window,
                    AnomalyKind::AdmissionRejectSpike,
                    "overall",
                    rejects,
                    baseline,
                );
            }
            self.rejects_ewma = Some(alpha * rejects + (1.0 - alpha) * baseline);
        } else {
            self.rejects_ewma = Some(rejects);
        }

        let bytes = self.bytes_evicted as f64;
        if let Some(baseline) = self.bytes_ewma {
            let thrash_floor = self.config.thrash_capacity_fraction * self.capacity as f64;
            if self.capacity > 0
                && bytes > thrash_floor
                && bytes > self.config.storm_factor * baseline
            {
                Self::fire(
                    &self.thrash_total,
                    &mut self.thrash_cooldown,
                    self.config.cooldown_windows,
                    &self.logger,
                    &mut self.trigger,
                    window,
                    AnomalyKind::OccupancyThrash,
                    "overall",
                    bytes,
                    baseline,
                );
            }
            self.bytes_ewma = Some(alpha * bytes + (1.0 - alpha) * baseline);
        } else {
            self.bytes_ewma = Some(bytes);
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
    use webcache_core::{AdmissionRule, PolicyKind};
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
        admission: Option<AdmissionRule>,
        config: AnomalyConfig,
    ) -> (AnomalyObserver, webcache_obs::LogCapture, Registry) {
        let registry = Registry::new();
        let (logger, capture) = Logger::capture(Level::Warn);
        let mut obs = AnomalyObserver::register(&registry, logger, config);
        let mut builder = SimulationConfig::builder()
            .capacity(ByteSize::new(capacity))
            .warmup_fraction(0.0);
        if let Some(rule) = admission {
            builder = builder.admission_rule(rule);
        }
        Simulator::new(PolicyKind::Lru.build(), builder.build()).run_observed(&trace, &mut obs);
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
        let (obs, _, _) = run(trace, 18_000_000_000_000_000_000, None, config());
        assert_eq!(obs.evictions, 3);
        assert_eq!(obs.bytes_evicted as f64, 3e19);
    }

    #[test]
    fn hit_rate_cliff_fires_collapse_exactly_once() {
        let (obs, capture, registry) = run(cliff_trace(), 10_000_000, None, config());
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
        let (obs, capture, _) = run(requests.into(), 100_000_000, None, config());
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
        let (obs, capture, _) = run(requests.into(), 800, None, config);
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
            Some(AdmissionRule::SecondHit(1 << 20)),
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
        let (obs, capture, _) = run(requests.into(), capacity, None, config());
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
        let (obs, capture, _) = run(requests.into(), 50_000, None, config());
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
