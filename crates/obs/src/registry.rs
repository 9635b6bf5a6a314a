//! A lightweight metrics registry.
//!
//! A [`Registry`] hands out cheap, clonable handles — [`Counter`],
//! [`Gauge`], [`Histogram`] and [`Series`] — whose hot-path operations
//! are single atomic instructions (the bounded [`Series`] takes a short
//! mutex, and is only touched on rare events such as evictions). The
//! registry itself is an `Arc`-shared list of metric descriptors, walked
//! once at export time:
//!
//! * [`Registry::prometheus_text`] renders the Prometheus text
//!   exposition format (`# HELP` / `# TYPE` headers, cumulative `le`
//!   histogram buckets, `_count` / `_sum` samples);
//! * [`Registry::json_snapshot`] renders a hand-rolled JSON document
//!   with the same data plus the full sampled values of every series.
//!
//! Histograms use **fixed log2 buckets**: bucket `b` has the upper bound
//! `2^b`, so observations need no configuration and bucket lookup is a
//! `leading_zeros` instruction. This matches the integer distributions
//! the simulator cares about (sift depths, comparison counts, eviction
//! scan lengths), which span a few powers of two.
//!
//! ```
//! use webcache_obs::Registry;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("webcache_hits_total", "Cache hits.", &[("policy", "LRU")]);
//! hits.inc();
//! hits.add(2);
//! let text = registry.prometheus_text();
//! assert!(text.contains("webcache_hits_total{policy=\"LRU\"} 3"));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: finite upper bounds `2^0 .. 2^31`, plus
/// a final catch-all (`+Inf`) bucket.
pub const BUCKETS: usize = 33;

/// Default number of retained samples in a [`Series`] before it starts
/// thinning (keeping every other sample and doubling its stride).
const SERIES_TARGET: usize = 256;

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as its bit pattern in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCells {
    /// `buckets[b]` counts observations in `(2^(b-1), 2^b]` (bucket 0:
    /// `v <= 1`); the last bucket catches everything larger than the
    /// largest finite bound.
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// A histogram over non-negative integers with fixed log2 buckets.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCells>);

/// The bucket index for an observation: the smallest `b` with
/// `v <= 2^b`, clamped to the catch-all bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((64 - (v - 1).leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// The finite upper bound of bucket `b` (the catch-all has none).
pub fn bucket_bound(b: usize) -> Option<u64> {
    (b < BUCKETS - 1).then(|| 1u64 << b)
}

impl Histogram {
    /// A histogram not (yet) attached to any registry; pair with
    /// [`Registry::attach_histogram`] to export it later.
    pub fn detached() -> Self {
        Histogram(Arc::new(HistogramCells::default()))
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of observations: the sum of the bucket counts.
    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|b| self.0.buckets[b].load(Ordering::Relaxed))
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::detached()
    }
}

impl Counter {
    /// A counter not (yet) attached to any registry; pair with
    /// [`Registry::attach_counter`] to export it later.
    pub fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::detached()
    }
}

impl Gauge {
    /// A gauge not (yet) attached to any registry; pair with
    /// [`Registry::attach_gauge`] to export it later.
    pub fn detached() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::detached()
    }
}

#[derive(Debug)]
struct SeriesCells {
    values: Vec<f64>,
    /// Every `stride`-th push is retained.
    stride: u64,
    /// Total pushes seen (including dropped ones).
    seen: u64,
}

/// A bounded trajectory of `f64` samples (e.g. the GD\* inflation value
/// `L` over the run).
///
/// Pushes are recorded at a deterministic stride: once the retained
/// vector reaches twice `SERIES_TARGET` (256) samples, every other
/// sample is dropped and the stride doubles, so memory stays bounded
/// while the retained points remain evenly spaced over the whole run.
#[derive(Debug, Clone)]
pub struct Series(Arc<Mutex<SeriesCells>>);

impl Series {
    /// Appends a sample (subject to the retention stride).
    pub fn push(&self, v: f64) {
        let mut cells = self.0.lock().expect("series lock");
        if cells.seen.is_multiple_of(cells.stride) {
            cells.values.push(v);
            if cells.values.len() >= 2 * SERIES_TARGET {
                let kept: Vec<f64> = cells.values.iter().copied().step_by(2).collect();
                cells.values = kept;
                cells.stride *= 2;
            }
        }
        cells.seen += 1;
    }

    /// The retained samples, oldest first.
    pub fn values(&self) -> Vec<f64> {
        self.0.lock().expect("series lock").values.clone()
    }

    /// Total samples pushed (including ones thinned away).
    pub fn seen(&self) -> u64 {
        self.0.lock().expect("series lock").seen
    }

    /// The current retention stride (1 until the first thinning).
    pub fn stride(&self) -> u64 {
        self.0.lock().expect("series lock").stride
    }
}

/// One scalar sample produced by [`Registry::flat_samples`]: a metric
/// name (histograms flatten to `_count`/`_sum`), its label set, and the
/// current value.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatSample {
    /// The exported sample name.
    pub name: String,
    /// Label key/value pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The current value (counters and histogram counts cast to `f64`).
    pub value: f64,
}

#[derive(Debug)]
enum Cells {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    Series(Series),
}

#[derive(Debug)]
struct Metric {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    cells: Cells,
}

/// The metric collection: hands out handles, renders exports.
///
/// Cloning shares the underlying collection; registration order is
/// preserved in both export formats. Several metrics may share a name
/// (a *family*) as long as their label sets differ and their kinds
/// agree — the exporters group them under one `# TYPE` header.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<Vec<Metric>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], cells: Cells) -> &Self {
        assert!(
            valid_metric_name(name),
            "invalid Prometheus metric name: {name:?}"
        );
        for &(k, _) in labels {
            assert!(
                valid_label_name(k),
                "invalid Prometheus label name: {k:?} (metric {name:?})"
            );
        }
        self.metrics.lock().expect("registry lock").push(Metric {
            name: name.to_owned(),
            help: help.to_owned(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
            cells,
        });
        self
    }

    /// Registers a counter and returns its handle.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let handle = Counter(Arc::new(AtomicU64::new(0)));
        self.register(name, help, labels, Cells::Counter(handle.clone()));
        handle
    }

    /// Registers a gauge (initially 0) and returns its handle.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let handle = Gauge(Arc::new(AtomicU64::new(0f64.to_bits())));
        self.register(name, help, labels, Cells::Gauge(handle.clone()));
        handle
    }

    /// Registers a log2-bucket histogram and returns its handle.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        let handle = Histogram(Arc::new(HistogramCells::default()));
        self.register(name, help, labels, Cells::Histogram(handle.clone()));
        handle
    }

    /// Registers an existing (detached) counter handle so it shows up in
    /// both exports — the instrumented code keeps its original handle.
    pub fn attach_counter(&self, name: &str, help: &str, labels: &[(&str, &str)], h: &Counter) {
        self.register(name, help, labels, Cells::Counter(h.clone()));
    }

    /// Registers an existing (detached) gauge handle.
    pub fn attach_gauge(&self, name: &str, help: &str, labels: &[(&str, &str)], h: &Gauge) {
        self.register(name, help, labels, Cells::Gauge(h.clone()));
    }

    /// Registers an existing (detached) histogram handle.
    pub fn attach_histogram(&self, name: &str, help: &str, labels: &[(&str, &str)], h: &Histogram) {
        self.register(name, help, labels, Cells::Histogram(h.clone()));
    }

    /// Registers a bounded sample series and returns its handle.
    pub fn series(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Series {
        let handle = Series(Arc::new(Mutex::new(SeriesCells {
            values: Vec::new(),
            stride: 1,
            seen: 0,
        })));
        self.register(name, help, labels, Cells::Series(handle.clone()));
        handle
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.lock().expect("registry lock").len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattens every metric into scalar samples for time-series capture
    /// (see `tsdb::SnapshotRing`).
    ///
    /// Counters and gauges yield one sample each under their registered
    /// name; histograms yield `<name>_count` and `<name>_sum`; series are
    /// skipped (they are already trajectories).
    pub fn flat_samples(&self) -> Vec<FlatSample> {
        let metrics = self.metrics.lock().expect("registry lock");
        let mut out = Vec::with_capacity(metrics.len());
        for m in metrics.iter() {
            match &m.cells {
                Cells::Counter(c) => out.push(FlatSample {
                    name: m.name.clone(),
                    labels: m.labels.clone(),
                    value: c.get() as f64,
                }),
                Cells::Gauge(g) => out.push(FlatSample {
                    name: m.name.clone(),
                    labels: m.labels.clone(),
                    value: g.get(),
                }),
                Cells::Histogram(h) => {
                    out.push(FlatSample {
                        name: format!("{}_count", m.name),
                        labels: m.labels.clone(),
                        value: h.count() as f64,
                    });
                    out.push(FlatSample {
                        name: format!("{}_sum", m.name),
                        labels: m.labels.clone(),
                        value: h.sum() as f64,
                    });
                }
                Cells::Series(_) => {}
            }
        }
        out
    }

    /// Renders the Prometheus text exposition format.
    ///
    /// Counters and gauges render as single samples; histograms render
    /// cumulative `_bucket{le=...}` samples (up to the highest non-empty
    /// bucket, then `+Inf`) plus `_sum` and `_count`; series render as a
    /// gauge family with one sample per retained point, indexed by a
    /// `sample` label.
    pub fn prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let metrics = self.metrics.lock().expect("registry lock");
        let mut out = String::new();
        let mut seen_headers: Vec<String> = Vec::new();
        for m in metrics.iter() {
            if !seen_headers.iter().any(|n| n == &m.name) {
                seen_headers.push(m.name.clone());
                let kind = match m.cells {
                    Cells::Counter(_) => "counter",
                    Cells::Gauge(_) | Cells::Series(_) => "gauge",
                    Cells::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# HELP {} {}", m.name, escape_help(&m.help));
                let _ = writeln!(out, "# TYPE {} {kind}", m.name);
            }
            match &m.cells {
                Cells::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", m.name, label_block(&m.labels, &[]), c.get());
                }
                Cells::Gauge(g) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        m.name,
                        label_block(&m.labels, &[]),
                        prom_f64(g.get())
                    );
                }
                Cells::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let count: u64 = counts.iter().sum();
                    let top = counts
                        .iter()
                        .rposition(|&c| c > 0)
                        .map_or(0, |b| (b + 1).min(BUCKETS - 1));
                    let mut cumulative = 0u64;
                    for (b, &count) in counts.iter().enumerate().take(top) {
                        cumulative += count;
                        let bound = bucket_bound(b).expect("finite bucket");
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cumulative}",
                            m.name,
                            label_block(&m.labels, &[("le", &bound.to_string())]),
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {count}",
                        m.name,
                        label_block(&m.labels, &[("le", "+Inf")]),
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        m.name,
                        label_block(&m.labels, &[]),
                        h.sum()
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {count}",
                        m.name,
                        label_block(&m.labels, &[]),
                    );
                }
                Cells::Series(s) => {
                    for (i, v) in s.values().iter().enumerate() {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            m.name,
                            label_block(&m.labels, &[("sample", &i.to_string())]),
                            prom_f64(*v)
                        );
                    }
                }
            }
        }
        out
    }

    /// Renders a JSON snapshot of every metric.
    ///
    /// Histogram buckets are **non-cumulative** here (per-bucket counts
    /// with their upper bound; the catch-all bucket's bound is the
    /// string `"+Inf"`); series carry their full retained sample vector,
    /// total push count, and current stride.
    pub fn json_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let metrics = self.metrics.lock().expect("registry lock");
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        let mut series = Vec::new();
        for m in metrics.iter() {
            let head = format!(
                "\"name\": {}, \"labels\": {}",
                json_string(&m.name),
                json_labels(&m.labels)
            );
            match &m.cells {
                Cells::Counter(c) => counters.push(format!("{{{head}, \"value\": {}}}", c.get())),
                Cells::Gauge(g) => {
                    gauges.push(format!("{{{head}, \"value\": {}}}", json_f64(g.get())))
                }
                Cells::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut buckets = String::from("[");
                    let mut first = true;
                    for (b, &count) in counts.iter().enumerate() {
                        if count == 0 {
                            continue;
                        }
                        if !first {
                            buckets.push_str(", ");
                        }
                        first = false;
                        match bucket_bound(b) {
                            Some(bound) => {
                                let _ = write!(buckets, "{{\"le\": {bound}, \"count\": {count}}}");
                            }
                            None => {
                                let _ = write!(buckets, "{{\"le\": \"+Inf\", \"count\": {count}}}");
                            }
                        }
                    }
                    buckets.push(']');
                    histograms.push(format!(
                        "{{{head}, \"count\": {}, \"sum\": {}, \"buckets\": {buckets}}}",
                        counts.iter().sum::<u64>(),
                        h.sum()
                    ));
                }
                Cells::Series(s) => {
                    let values: Vec<String> = s.values().iter().map(|&v| json_f64(v)).collect();
                    series.push(format!(
                        "{{{head}, \"seen\": {}, \"stride\": {}, \"values\": [{}]}}",
                        s.seen(),
                        s.stride(),
                        values.join(", ")
                    ));
                }
            }
        }
        let section = |items: Vec<String>| -> String {
            if items.is_empty() {
                "[]".to_owned()
            } else {
                format!("[\n    {}\n  ]", items.join(",\n    "))
            }
        };
        format!(
            "{{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {},\n  \"series\": {}\n}}\n",
            section(counters),
            section(gauges),
            section(histograms),
            section(series)
        )
    }
}

/// Renders `{a="x",b="y"}` (empty string when there are no labels).
fn label_block(labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let rendered: Vec<String> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", rendered.join(","))
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes `# HELP` text (backslash and newline only — quotes are legal
/// in help text per the exposition format).
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Whether `name` is a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_' || first == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Whether `name` is a valid Prometheus label name:
/// `[a-zA-Z_][a-zA-Z0-9_]*`.
fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_alphabetic() || first == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Formats an `f64` for the Prometheus text format (`+Inf`/`-Inf`/`NaN`
/// spellings for non-finite values).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

/// Formats an `f64` as a JSON value (non-finite values become `null` —
/// JSON has no spelling for them).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Renders a JSON string literal with escaping.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_labels(labels: &[(String, String)]) -> String {
    let rendered: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    format!("{{{}}}", rendered.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("c_total", "A counter.", &[]);
        let g = r.gauge("g", "A gauge.", &[("policy", "GD*(P)")]);
        c.add(41);
        c.inc();
        g.set(1.5);
        assert_eq!(c.get(), 42);
        assert_eq!(g.get(), 1.5);
        let text = r.prometheus_text();
        assert!(text.contains("# TYPE c_total counter"), "{text}");
        assert!(text.contains("c_total 42"), "{text}");
        assert!(text.contains("g{policy=\"GD*(P)\"} 1.5"), "{text}");
    }

    #[test]
    fn bucket_index_is_smallest_upper_bound() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 31), BUCKETS - 2);
        assert_eq!(bucket_index((1 << 31) + 1), BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_prometheus() {
        let r = Registry::new();
        let h = r.histogram("h", "A histogram.", &[]);
        for v in [1, 1, 2, 3, 8] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 15);
        let text = r.prometheus_text();
        assert!(text.contains("h_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("h_bucket{le=\"2\"} 3"), "{text}");
        assert!(text.contains("h_bucket{le=\"4\"} 4"), "{text}");
        assert!(text.contains("h_bucket{le=\"8\"} 5"), "{text}");
        assert!(text.contains("h_bucket{le=\"+Inf\"} 5"), "{text}");
        assert!(text.contains("h_sum 15"), "{text}");
        assert!(text.contains("h_count 5"), "{text}");
        // No empty trailing finite buckets.
        assert!(!text.contains("le=\"16\""), "{text}");
    }

    #[test]
    fn histogram_count_is_the_bucket_sum_after_concurrent_observes() {
        let r = Registry::new();
        let h = r.histogram("h", "A histogram.", &[]);
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for v in 0..10_000u64 {
                        h.observe((v * (t + 1)) % 5_000);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 40_000);
        let text = r.prometheus_text();
        assert!(text.contains("h_bucket{le=\"+Inf\"} 40000"), "{text}");
        assert!(text.contains("h_count 40000"), "{text}");
    }

    #[test]
    fn series_thins_deterministically() {
        let r = Registry::new();
        let s = r.series("l", "Inflation trajectory.", &[]);
        for i in 0..10_000 {
            s.push(i as f64);
        }
        assert_eq!(s.seen(), 10_000);
        let values = s.values();
        assert!(
            values.len() < 2 * SERIES_TARGET,
            "bounded: {}",
            values.len()
        );
        assert!(values.len() >= SERIES_TARGET / 2, "not over-thinned");
        // Retained samples stay evenly spaced and ordered.
        let stride = s.stride() as f64;
        for w in values.windows(2) {
            assert_eq!(w[1] - w[0], stride);
        }
        assert_eq!(values[0], 0.0, "first sample always retained");
    }

    #[test]
    fn families_share_one_header() {
        let r = Registry::new();
        r.counter("ops_total", "Ops.", &[("op", "insert")]).inc();
        r.counter("ops_total", "Ops.", &[("op", "pop")]).add(2);
        let text = r.prometheus_text();
        assert_eq!(text.matches("# TYPE ops_total counter").count(), 1);
        assert!(text.contains("ops_total{op=\"insert\"} 1"));
        assert!(text.contains("ops_total{op=\"pop\"} 2"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("c", "x", &[("p", "a\"b\\c\nd")]).inc();
        let text = r.prometheus_text();
        assert!(text.contains(r#"p="a\"b\\c\nd""#), "{text}");
    }

    #[test]
    fn json_snapshot_is_parseable_and_complete() {
        let r = Registry::new();
        r.counter("c_total", "C.", &[("k", "v")]).add(7);
        r.gauge("g", "G.", &[]).set(0.25);
        let h = r.histogram("h", "H.", &[]);
        h.observe(3);
        h.observe(100);
        let s = r.series("s", "S.", &[]);
        s.push(1.0);
        s.push(2.5);
        let snapshot = r.json_snapshot();
        let value = crate::json::parse(&snapshot).expect("snapshot parses");
        let counters = value.get("counters").unwrap().as_array().unwrap();
        assert_eq!(counters[0].get("value").unwrap().as_f64(), Some(7.0));
        assert_eq!(
            counters[0]
                .get("labels")
                .unwrap()
                .get("k")
                .unwrap()
                .as_str(),
            Some("v")
        );
        let hist = &value.get("histograms").unwrap().as_array().unwrap()[0];
        assert_eq!(hist.get("count").unwrap().as_f64(), Some(2.0));
        assert_eq!(hist.get("sum").unwrap().as_f64(), Some(103.0));
        assert_eq!(hist.get("buckets").unwrap().as_array().unwrap().len(), 2);
        let series = &value.get("series").unwrap().as_array().unwrap()[0];
        assert_eq!(series.get("seen").unwrap().as_f64(), Some(2.0));
        let vals = series.get("values").unwrap().as_array().unwrap();
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[1].as_f64(), Some(2.5));
    }

    #[test]
    fn label_escaping_covers_each_special_byte() {
        let r = Registry::new();
        r.counter("lone_backslash", "x", &[("p", "a\\b")]).inc();
        r.counter("lone_quote", "x", &[("p", "a\"b")]).inc();
        r.counter("lone_newline", "x", &[("p", "a\nb")]).inc();
        let text = r.prometheus_text();
        assert!(text.contains(r#"lone_backslash{p="a\\b"} 1"#), "{text}");
        assert!(text.contains(r#"lone_quote{p="a\"b"} 1"#), "{text}");
        assert!(text.contains(r#"lone_newline{p="a\nb"} 1"#), "{text}");
        // Every sample still occupies exactly one physical line.
        for line in text.lines() {
            assert!(!line.is_empty());
        }
        assert_eq!(text.lines().count(), 3 * 3, "no sample spans two lines");
    }

    #[test]
    fn help_text_is_escaped() {
        let r = Registry::new();
        r.counter("c_total", "line one\nline two \\ backslash", &[])
            .inc();
        let text = r.prometheus_text();
        assert!(
            text.contains(r"# HELP c_total line one\nline two \\ backslash"),
            "{text}"
        );
        assert_eq!(text.lines().count(), 3, "HELP must stay on one line");
    }

    #[test]
    fn metric_name_validity() {
        assert!(valid_metric_name("webcache_hits_total"));
        assert!(valid_metric_name("_private"));
        assert!(valid_metric_name("ns:subsystem:metric"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("9starts_with_digit"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("has-dash"));
        assert!(valid_label_name("doc_type"));
        assert!(!valid_label_name("le:colon"));
        assert!(!valid_label_name("1digit"));
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus metric name")]
    fn bad_metric_name_panics() {
        Registry::new().counter("bad name", "x", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus label name")]
    fn bad_label_name_panics() {
        Registry::new().counter("good_name", "x", &[("bad-label", "v")]);
    }

    #[test]
    fn non_finite_values_render_safely() {
        let r = Registry::new();
        r.gauge("g", "G.", &[]).set(f64::INFINITY);
        assert!(r.prometheus_text().contains("g +Inf"));
        let snapshot = r.json_snapshot();
        assert!(snapshot.contains("\"value\": null"), "{snapshot}");
        assert!(crate::json::parse(&snapshot).is_ok());
    }
}
