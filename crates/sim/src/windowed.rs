//! Windowed per-type metrics: a time series of hit-rate / byte-hit-rate
//! measurements built from simulator events.
//!
//! [`WindowedMetrics`] is an [`Observer`] that slices the **measured**
//! region of a replay (warm-up excluded) into consecutive windows of a
//! fixed request count or byte volume ([`WindowSpec`]) and accumulates a
//! full [`HitStats`] per [`DocumentType`] in each window, alongside churn
//! counters (evictions, bytes evicted, admission rejects). The windows
//! sum back exactly to the run's aggregate report — the differential
//! property tests pin this.
//!
//! Warm-up is detected from [`RunMeta`]: requests before `warmup_end`
//! contribute nothing to any window, but evictions and admission rejects
//! during warm-up are still counted separately in
//! [`WindowedMetrics::warmup_churn`], since cache churn while filling is
//! exactly what Figure 1 of the paper is about.
//!
//! Window boundary semantics: a window is `[start_index, end_index)` over
//! trace request indices. A window closes when its request count (or byte
//! volume) reaches the spec target, but only *lazily* — at the next
//! access — so that the insert/eviction/rejection events of the closing
//! request land in the same window as its access. The final, possibly
//! partial, window is flushed by `on_run_end`.

use serde::{Deserialize, Serialize};

use webcache_core::Eviction;
use webcache_trace::{ByteSize, DocumentType, TypeMap};

use crate::metrics::HitStats;
use crate::observe::{AccessEvent, AccessKind, Observer, RunMeta};

/// How the measured region is sliced into windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowSpec {
    /// Close a window after this many measured requests.
    Requests(u64),
    /// Close a window once this many bytes have been requested in it.
    Bytes(ByteSize),
}

impl WindowSpec {
    /// Whether a window with `requests` requests and `bytes` requested
    /// bytes has reached the target.
    fn is_full(self, requests: u64, bytes: ByteSize) -> bool {
        match self {
            WindowSpec::Requests(n) => requests >= n,
            WindowSpec::Bytes(b) => bytes >= b,
        }
    }
}

/// Cache-churn counters for one window (or the warm-up region).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnCounters {
    /// Documents evicted to make room.
    pub evictions: u64,
    /// Bytes freed by those evictions, summed in `u128` so the sum stays
    /// exact past `u64::MAX`.
    pub bytes_evicted: u128,
    /// Missed documents the admission rule turned away.
    pub admission_rejects: u64,
}

impl std::ops::AddAssign for ChurnCounters {
    fn add_assign(&mut self, rhs: ChurnCounters) {
        self.evictions += rhs.evictions;
        self.bytes_evicted += rhs.bytes_evicted;
        self.admission_rejects += rhs.admission_rejects;
    }
}

/// One closed measurement window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Window {
    /// Trace index of the first request in the window.
    pub start_index: u64,
    /// One past the trace index of the last request in the window.
    pub end_index: u64,
    /// Hit counters per document type.
    pub by_type: TypeMap<HitStats>,
    /// Eviction / admission churn attributed to the window.
    pub churn: ChurnCounters,
}

impl Window {
    /// Counters aggregated over all document types.
    pub fn overall(&self) -> HitStats {
        let mut total = HitStats::default();
        for (_, s) in self.by_type.iter() {
            total += *s;
        }
        total
    }
}

/// The open window being accumulated.
#[derive(Debug, Clone)]
struct OpenWindow {
    start_index: u64,
    last_index: u64,
    by_type: TypeMap<HitStats>,
    churn: ChurnCounters,
    requests: u64,
    bytes: ByteSize,
}

impl OpenWindow {
    fn starting_at(index: u64) -> Self {
        OpenWindow {
            start_index: index,
            last_index: index,
            by_type: TypeMap::default(),
            churn: ChurnCounters::default(),
            requests: 0,
            bytes: ByteSize::ZERO,
        }
    }

    fn close(self) -> Window {
        Window {
            start_index: self.start_index,
            end_index: self.last_index + 1,
            by_type: self.by_type,
            churn: self.churn,
        }
    }
}

/// An [`Observer`] that produces the per-type windowed time series.
///
/// ```
/// use webcache_core::PolicyKind;
/// use webcache_sim::{SimulationConfig, Simulator, WindowSpec, WindowedMetrics};
/// use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp, Trace};
///
/// let trace: Trace = (0..400u64)
///     .map(|i| Request::new(
///         Timestamp::from_millis(i),
///         DocId::new(i % 40),
///         DocumentType::Image,
///         ByteSize::new(500),
///     ))
///     .collect();
/// let config = SimulationConfig::builder()
///     .capacity(ByteSize::new(8_000))
///     .build();
/// let mut windows = WindowedMetrics::per_requests(100);
/// let report = Simulator::new(PolicyKind::Lru.build(), config)
///     .run_observed(&trace, &mut windows);
/// assert_eq!(windows.windows().len(), 4, "360 measured requests, 100 per window");
/// assert_eq!(windows.aggregate(), report.overall(), "windows sum to the report");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WindowedMetrics {
    spec: WindowSpec,
    meta: Option<RunMeta>,
    windows: Vec<Window>,
    #[serde(skip)]
    current: Option<OpenWindow>,
    warmup_churn: ChurnCounters,
}

impl WindowedMetrics {
    /// Creates a collector for the given window specification.
    ///
    /// # Panics
    ///
    /// Panics on a zero-sized window.
    pub fn new(spec: WindowSpec) -> Self {
        let zero = match spec {
            WindowSpec::Requests(n) => n == 0,
            WindowSpec::Bytes(b) => b.is_zero(),
        };
        assert!(!zero, "window size must be positive");
        WindowedMetrics {
            spec,
            meta: None,
            windows: Vec::new(),
            current: None,
            warmup_churn: ChurnCounters::default(),
        }
    }

    /// Windows of `n` measured requests each.
    pub fn per_requests(n: u64) -> Self {
        WindowedMetrics::new(WindowSpec::Requests(n))
    }

    /// Windows of (at least) `bytes` requested bytes each.
    pub fn per_bytes(bytes: ByteSize) -> Self {
        WindowedMetrics::new(WindowSpec::Bytes(bytes))
    }

    /// The window specification.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Run metadata captured at `on_run_start` (None before a run).
    pub fn meta(&self) -> Option<RunMeta> {
        self.meta
    }

    /// The closed windows, in trace order.
    pub fn windows(&self) -> &[Window] {
        &self.windows
    }

    /// Churn that happened during the warm-up region (no hit counters are
    /// kept for warm-up; its requests are not measured).
    pub fn warmup_churn(&self) -> ChurnCounters {
        self.warmup_churn
    }

    /// Total measured churn, summed over all windows.
    pub fn total_churn(&self) -> ChurnCounters {
        let mut total = ChurnCounters::default();
        for w in &self.windows {
            total += w.churn;
        }
        total
    }

    /// Per-type counters summed over all windows. Equals the
    /// `SimulationReport::by_type` counters of the same run.
    pub fn aggregate_by_type(&self) -> TypeMap<HitStats> {
        let mut total: TypeMap<HitStats> = TypeMap::default();
        for w in &self.windows {
            for (ty, s) in w.by_type.iter() {
                total[ty] += *s;
            }
        }
        total
    }

    /// Overall counters summed over all windows and types.
    pub fn aggregate(&self) -> HitStats {
        let mut total = HitStats::default();
        for (_, s) in self.aggregate_by_type().iter() {
            total += *s;
        }
        total
    }

    /// The open window the event at `index` belongs to, closing a full
    /// predecessor first.
    fn window_for(&mut self, index: u64) -> &mut OpenWindow {
        if let Some(cur) = self.current.as_ref() {
            if self.spec.is_full(cur.requests, cur.bytes) && index > cur.last_index {
                let closed = self.current.take().expect("checked above").close();
                self.windows.push(closed);
            }
        }
        self.current
            .get_or_insert_with(|| OpenWindow::starting_at(index))
    }

    /// Routes a churn increment to the warm-up bucket or the open window.
    fn churn_for(&mut self, event: AccessEvent) -> &mut ChurnCounters {
        if event.warmup {
            &mut self.warmup_churn
        } else {
            &mut self.window_for(event.index).churn
        }
    }
}

impl Observer for WindowedMetrics {
    fn on_run_start(&mut self, meta: RunMeta) {
        self.meta = Some(meta);
        self.windows.clear();
        self.current = None;
        self.warmup_churn = ChurnCounters::default();
    }

    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        if event.warmup {
            return;
        }
        let window = self.window_for(event.index);
        window.last_index = event.index;
        window.requests += 1;
        window.bytes += event.size;
        let stats = &mut window.by_type[event.doc_type];
        stats.record(event.size, kind.is_hit());
        if kind == AccessKind::ModificationMiss {
            stats.modification_misses += 1;
        }
    }

    fn on_admission_reject(&mut self, event: AccessEvent) {
        self.churn_for(event).admission_rejects += 1;
    }

    fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
        let churn = self.churn_for(at);
        churn.evictions += 1;
        churn.bytes_evicted += u128::from(evicted.size.as_u64());
    }

    fn on_run_end(&mut self) {
        if let Some(cur) = self.current.take() {
            self.windows.push(cur.close());
        }
    }
}

/// Convenience: the per-type series of one metric across windows.
impl WindowedMetrics {
    /// `(window start index, hit rate of `ty` in that window)` pairs.
    pub fn hit_rate_series(&self, ty: DocumentType) -> Vec<(u64, f64)> {
        self.windows
            .iter()
            .map(|w| (w.start_index, w.by_type[ty].hit_rate()))
            .collect()
    }

    /// `(window start index, byte hit rate of `ty` in that window)` pairs.
    pub fn byte_hit_rate_series(&self, ty: DocumentType) -> Vec<(u64, f64)> {
        self.windows
            .iter()
            .map(|w| (w.start_index, w.by_type[ty].byte_hit_rate()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_core::PolicyKind;

    use crate::{SimulationConfig, Simulator};
    use webcache_trace::{DocId, Request, Timestamp, Trace};

    fn req(doc: u64, ty: DocumentType, size: u64) -> Request {
        Request::new(Timestamp::ZERO, DocId::new(doc), ty, ByteSize::new(size))
    }

    fn mixed_trace(n: u64) -> Trace {
        (0..n)
            .map(|i| {
                let ty = DocumentType::ALL[(i % 5) as usize];
                req(i % 23, ty, 100 + (i % 11) * 37)
            })
            .collect()
    }

    fn run_with(
        trace: &Trace,
        capacity: u64,
        warmup: f64,
        metrics: &mut WindowedMetrics,
    ) -> crate::SimulationReport {
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(capacity))
            .warmup_fraction(warmup)
            .build();
        Simulator::new(PolicyKind::Lru.build(), config).run_observed(trace, metrics)
    }

    #[test]
    fn request_windows_partition_the_measured_region() {
        let trace = mixed_trace(100);
        let mut metrics = WindowedMetrics::per_requests(30);
        run_with(&trace, 2_000, 0.1, &mut metrics);

        // 90 measured requests -> windows of 30/30/30.
        assert_eq!(metrics.windows().len(), 3);
        let meta = metrics.meta().unwrap();
        assert_eq!(meta.warmup_end, 10);
        assert_eq!(metrics.windows()[0].start_index, 10);
        for pair in metrics.windows().windows(2) {
            assert_eq!(
                pair[0].end_index, pair[1].start_index,
                "windows are contiguous"
            );
        }
        assert_eq!(metrics.windows().last().unwrap().end_index, 100);
        for w in metrics.windows() {
            assert_eq!(w.overall().requests, 30);
        }
    }

    #[test]
    fn partial_final_window_is_flushed() {
        let trace = mixed_trace(50);
        let mut metrics = WindowedMetrics::per_requests(40);
        run_with(&trace, 2_000, 0.0, &mut metrics);
        assert_eq!(metrics.windows().len(), 2);
        assert_eq!(metrics.windows()[0].overall().requests, 40);
        assert_eq!(metrics.windows()[1].overall().requests, 10);
    }

    #[test]
    fn windows_sum_to_the_aggregate_report() {
        let trace = mixed_trace(500);
        let mut metrics = WindowedMetrics::per_requests(64);
        let report = run_with(&trace, 3_000, 0.1, &mut metrics);
        assert_eq!(&metrics.aggregate_by_type(), report.by_type());
        assert_eq!(metrics.aggregate(), report.overall());
    }

    #[test]
    fn byte_windows_close_on_volume() {
        let trace: Trace = (0..20u64)
            .map(|i| req(i, DocumentType::Html, 100))
            .collect();
        let mut metrics = WindowedMetrics::per_bytes(ByteSize::new(500));
        run_with(&trace, 1_000, 0.0, &mut metrics);
        assert_eq!(metrics.windows().len(), 4, "2000 bytes / 500 per window");
        for w in metrics.windows() {
            assert_eq!(w.overall().bytes_requested, 500);
        }
    }

    #[test]
    fn churn_lands_in_the_window_of_the_triggering_request() {
        // Capacity for one 80-byte document: every second request evicts.
        let trace: Trace = (0..10u64)
            .map(|i| req(i % 2, DocumentType::Html, 80))
            .collect();
        let mut metrics = WindowedMetrics::per_requests(5);
        run_with(&trace, 100, 0.0, &mut metrics);
        assert_eq!(metrics.windows().len(), 2);
        let total = metrics.total_churn();
        assert_eq!(total.evictions, 9, "every insert after the first evicts");
        assert_eq!(total.bytes_evicted, 9 * 80);
        // Eviction triggered by the window-closing request stays in that
        // window, not the next one.
        assert_eq!(
            metrics.windows()[0].churn.evictions + metrics.windows()[1].churn.evictions,
            9
        );
        assert_eq!(metrics.windows()[0].churn.evictions, 4);
    }

    #[test]
    fn warmup_churn_is_separate() {
        let trace: Trace = (0..10u64)
            .map(|i| req(i % 2, DocumentType::Html, 80))
            .collect();
        let mut metrics = WindowedMetrics::per_requests(100);
        run_with(&trace, 100, 0.5, &mut metrics);
        let warm = metrics.warmup_churn();
        assert_eq!(warm.evictions, 4, "evictions at indices 1..=4");
        assert_eq!(metrics.total_churn().evictions, 5);
        assert_eq!(metrics.aggregate().requests, 5);
    }

    #[test]
    fn admission_rejects_are_counted() {
        use webcache_core::{AdmissionSpec, PolicySpec};
        let trace: Trace = (0..6u64).map(|i| req(i, DocumentType::Html, 50)).collect();
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(1_000))
            .warmup_fraction(0.0)
            .build();
        let mut metrics = WindowedMetrics::per_requests(3);
        let spec = PolicySpec::new(AdmissionSpec::SecondHit(16), PolicyKind::Lru);
        Simulator::from_spec(spec, config).run_observed(&trace, &mut metrics);
        assert_eq!(
            metrics.total_churn().admission_rejects,
            6,
            "every first-time document is turned away"
        );
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_panics() {
        let _ = WindowedMetrics::per_requests(0);
    }

    #[test]
    fn reuse_resets_between_runs() {
        let trace = mixed_trace(100);
        let mut metrics = WindowedMetrics::per_requests(25);
        run_with(&trace, 2_000, 0.0, &mut metrics);
        let first = metrics.windows().to_vec();
        run_with(&trace, 2_000, 0.0, &mut metrics);
        assert_eq!(metrics.windows(), &first[..], "second run starts fresh");
    }
}
