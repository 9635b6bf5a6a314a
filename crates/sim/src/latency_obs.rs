//! Live modeled-latency observation.
//!
//! The paper's whole argument for cache replacement is delivered
//! latency, yet the serve path historically exported only hit-rate
//! shapes; [`crate::latency`]'s two-link model was post-hoc report
//! math. [`LatencyObserver`] closes that loop: on every measured
//! access it drives the [`LatencyModel`] — a hit transfers over the
//! fast local link, any miss (cold or modification) over the slow
//! origin link — and records the modeled microseconds into per-
//! [`DocumentType`] [`WindowedHistogram`]s plus an overall one.
//!
//! The observer is a cheap clone over `Arc`-shared histograms, so the
//! same instance works in both serve modes: pushed through the serial
//! observer tuple, or cloned per shard by the concurrent factory.
//! Window rotation is decoupled from recording: the serve loop calls
//! [`LatencyObserver::rotate_and_publish`] at each pass boundary,
//! which advances every ring and refreshes the exported
//! `p50/p90/p99/p999` gauges.
//!
//! Each handle batches a replay's observations in cells of its own,
//! written through `&mut self` with plain adds, and adds them to the
//! shared windows in one batch (one relaxed `fetch_add` per non-empty
//! bucket): at [`Observer::on_run_end`], when the handle is dropped,
//! and before any read through the same handle
//! ([`LatencyObserver::histogram`], [`LatencyObserver::overall`],
//! [`LatencyObserver::rotate_and_publish`]). A clone starts with empty
//! cells. The overall histogram receives the sum of the per-type
//! batches. Serve rotates only after a pass's replay has returned, when
//! every shard's `on_run_end` has run, so each pass's observations land
//! in the window they always did.

use std::sync::atomic::{AtomicU64, Ordering};

use webcache_obs::registry::{bucket_index, BUCKETS};
use webcache_obs::{QuantileGauges, Registry, WindowedHistogram};
use webcache_trace::DocumentType;

use crate::latency::LatencyModel;
use crate::observe::{AccessEvent, AccessKind, Observer};

/// Exported metric name for the modeled per-request latency quantiles.
pub const LATENCY_METRIC: &str = "webcache_modeled_latency_us";

/// Label value of the all-types aggregate alongside the per-type rows.
pub const OVERALL_LABEL: &str = "overall";

/// Default number of trailing windows retained per histogram.
pub const DEFAULT_LATENCY_WINDOWS: usize = 8;

/// Observes modeled request latency into windowed percentile
/// histograms. See the [module docs](self).
#[derive(Debug)]
pub struct LatencyObserver {
    model: LatencyModel,
    per_type: [WindowedHistogram; DocumentType::ALL.len()],
    overall: WindowedHistogram,
    gauges: Option<LatencyGauges>,
    /// This handle's observations not yet in `per_type` and `overall`.
    pending: [Pending; DocumentType::ALL.len()],
}

/// One type's batched observations, in the histograms' bucket layout.
/// Atomic only so that a read through `&self` can take them; the record
/// path writes them through `&mut self`.
#[derive(Debug)]
struct Pending {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Pending {
    fn default() -> Self {
        Pending {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Clone for LatencyObserver {
    /// Shares the histograms and gauges; the clone's batch starts empty.
    fn clone(&self) -> Self {
        LatencyObserver {
            model: self.model,
            per_type: self.per_type.clone(),
            overall: self.overall.clone(),
            gauges: self.gauges.clone(),
            pending: Default::default(),
        }
    }
}

impl Drop for LatencyObserver {
    fn drop(&mut self) {
        self.flush();
    }
}

#[derive(Debug, Clone)]
struct LatencyGauges {
    per_type: [QuantileGauges; DocumentType::ALL.len()],
    overall: QuantileGauges,
}

impl LatencyObserver {
    /// An observer with `windows` trailing windows per histogram and no
    /// registry export (tests, ad-hoc harnesses).
    pub fn new(model: LatencyModel, windows: usize) -> LatencyObserver {
        LatencyObserver {
            model,
            per_type: std::array::from_fn(|_| WindowedHistogram::new(windows)),
            overall: WindowedHistogram::new(windows),
            gauges: None,
            pending: Default::default(),
        }
    }

    /// An observer whose quantiles export through `registry` as the
    /// [`LATENCY_METRIC`] gauge family, labelled
    /// `doc_type=<type label>|"overall"` × `quantile=p50..p999`.
    pub fn register(model: LatencyModel, windows: usize, registry: &Registry) -> LatencyObserver {
        let mut observer = LatencyObserver::new(model, windows);
        let help = "Modeled request latency (two-link model) in microseconds.";
        observer.gauges = Some(LatencyGauges {
            per_type: std::array::from_fn(|i| {
                let labels = [("doc_type", DocumentType::ALL[i].label())];
                QuantileGauges::register(registry, LATENCY_METRIC, help, &labels)
            }),
            overall: QuantileGauges::register(
                registry,
                LATENCY_METRIC,
                help,
                &[("doc_type", OVERALL_LABEL)],
            ),
        });
        observer
    }

    /// The modeled latency of one access in microseconds: hits ride the
    /// local link, misses pay the origin link.
    pub fn modeled_latency_us(&self, event: &AccessEvent, kind: AccessKind) -> u64 {
        let link = if kind.is_hit() {
            &self.model.local
        } else {
            &self.model.origin
        };
        (link.transfer_ms(event.size) * 1_000.0) as u64
    }

    /// The windowed histogram of one document type, after adding this
    /// handle's batch.
    pub fn histogram(&self, doc_type: DocumentType) -> &WindowedHistogram {
        self.flush();
        &self.per_type[doc_type.index()]
    }

    /// The windowed histogram over all types, after adding this handle's
    /// batch.
    pub fn overall(&self) -> &WindowedHistogram {
        self.flush();
        &self.overall
    }

    /// Adds this handle's batched observations to the current windows
    /// and empties the batch.
    fn flush(&self) {
        let mut overall = [0u64; BUCKETS];
        let mut overall_sum = 0u64;
        for (h, pending) in self.per_type.iter().zip(&self.pending) {
            let counts: [u64; BUCKETS] =
                std::array::from_fn(|b| pending.buckets[b].swap(0, Ordering::Relaxed));
            let sum = pending.sum.swap(0, Ordering::Relaxed);
            h.record_counts(&counts, sum);
            for (total, n) in overall.iter_mut().zip(counts) {
                *total += n;
            }
            overall_sum = overall_sum.wrapping_add(sum);
        }
        self.overall.record_counts(&overall, overall_sum);
    }

    /// Rotates every window ring and republishes the quantile gauges,
    /// after adding this handle's batch. Call once per pass (or anomaly
    /// window) from the serve loop — not from the record path.
    pub fn rotate_and_publish(&self) {
        self.flush();
        if let Some(gauges) = &self.gauges {
            for (h, g) in self.per_type.iter().zip(gauges.per_type.iter()) {
                g.publish(h);
            }
            gauges.overall.publish(&self.overall);
        }
        for h in &self.per_type {
            h.rotate();
        }
        self.overall.rotate();
    }
}

impl Observer for LatencyObserver {
    #[inline]
    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        if event.warmup {
            return;
        }
        let us = self.modeled_latency_us(&event, kind);
        let pending = &mut self.pending[event.doc_type.index()];
        *pending.buckets[bucket_index(us)].get_mut() += 1;
        // Wrapping, as the shared cells' `fetch_add` is.
        let sum = pending.sum.get_mut();
        *sum = sum.wrapping_add(us);
    }

    fn on_run_end(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_trace::{ByteSize, DocId};

    fn event(doc_type: DocumentType, size: u64, warmup: bool) -> AccessEvent {
        AccessEvent {
            index: 0,
            doc: DocId::new(1),
            doc_type,
            size: ByteSize::new(size),
            warmup,
        }
    }

    #[test]
    fn hits_ride_the_fast_link_and_misses_the_slow_one() {
        let mut obs = LatencyObserver::new(LatencyModel::campus_2001(), 4);
        obs.on_access(event(DocumentType::Html, 10_000, false), AccessKind::Hit);
        obs.on_access(event(DocumentType::Html, 10_000, false), AccessKind::Miss);
        let h = obs.histogram(DocumentType::Html);
        assert_eq!(h.count(), 2);
        // campus_2001: hit ≈ 5ms + 10KB/10MBps ≈ 6ms; miss ≈ 150ms +
        // 10KB/300KBps ≈ 183ms. The p999 must see the miss tail.
        let p999 = h.quantile(0.999).unwrap();
        assert!(p999 > 100_000.0, "{p999}");
        let p1 = h.quantile(0.01).unwrap();
        assert!(p1 < 10_000.0, "{p1}");
        assert_eq!(obs.overall().count(), 2);
    }

    #[test]
    fn modification_miss_pays_the_origin_link() {
        let obs = LatencyObserver::new(LatencyModel::campus_2001(), 2);
        let e = event(DocumentType::Image, 5_000, false);
        let hit_us = obs.modeled_latency_us(&e, AccessKind::Hit);
        let mod_us = obs.modeled_latency_us(&e, AccessKind::ModificationMiss);
        let miss_us = obs.modeled_latency_us(&e, AccessKind::Miss);
        assert_eq!(mod_us, miss_us);
        assert!(mod_us > hit_us);
    }

    #[test]
    fn warmup_accesses_are_not_recorded() {
        let mut obs = LatencyObserver::new(LatencyModel::campus_2001(), 2);
        obs.on_access(event(DocumentType::Html, 1_000, true), AccessKind::Hit);
        assert_eq!(obs.overall().count(), 0);
        assert_eq!(obs.histogram(DocumentType::Html).count(), 0);
    }

    #[test]
    fn clones_share_histograms_across_threads() {
        let obs = LatencyObserver::new(LatencyModel::campus_2001(), 4);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let mut clone = obs.clone();
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        clone.on_access(
                            event(DocumentType::MultiMedia, 2_000, false),
                            AccessKind::Miss,
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(obs.histogram(DocumentType::MultiMedia).count(), 4_000);
        assert_eq!(obs.overall().count(), 4_000);
    }

    #[test]
    fn a_clone_recording_on_another_thread_is_visible_once_it_drops() {
        let obs = LatencyObserver::new(LatencyModel::campus_2001(), 4);
        let mut clone = obs.clone();
        std::thread::spawn(move || {
            for _ in 0..10 {
                clone.on_access(event(DocumentType::Image, 2_000, false), AccessKind::Hit);
            }
            // No `on_run_end`: the drop at the end of the thread flushes.
        })
        .join()
        .unwrap();
        assert_eq!(obs.histogram(DocumentType::Image).count(), 10);
        assert_eq!(obs.overall().count(), 10);
    }

    #[test]
    fn a_batch_lands_in_the_window_current_at_run_end() {
        let obs = LatencyObserver::new(LatencyModel::campus_2001(), 2);
        let mut shard = obs.clone();
        shard.on_access(event(DocumentType::Html, 10_000, false), AccessKind::Miss);
        assert_eq!(obs.overall().count(), 0, "batched until the run ends");
        shard.on_run_end();
        obs.rotate_and_publish();
        assert_eq!(obs.overall().count(), 1, "still in the trailing window");
        // The second rotation recycles the window current at run end, so
        // the sample ages out; dropping the shard's handle adds nothing.
        obs.rotate_and_publish();
        drop(shard);
        assert_eq!(obs.overall().count(), 0);
        assert_eq!(obs.histogram(DocumentType::Html).count(), 0);
    }

    #[test]
    fn reads_through_the_recording_handle_see_its_batch() {
        let registry = Registry::new();
        let mut obs = LatencyObserver::register(LatencyModel::campus_2001(), 4, &registry);
        obs.on_access(event(DocumentType::Html, 10_000, false), AccessKind::Miss);
        obs.on_access(event(DocumentType::Image, 10_000, false), AccessKind::Hit);
        assert_eq!(obs.histogram(DocumentType::Html).count(), 1);
        obs.on_access(event(DocumentType::Html, 10_000, false), AccessKind::Miss);
        assert_eq!(obs.overall().count(), 3);
        assert_eq!(obs.histogram(DocumentType::Html).count(), 2);
        obs.on_access(event(DocumentType::Other, 10_000, false), AccessKind::Miss);
        obs.rotate_and_publish();
        let text = registry.prometheus_text();
        let p50_other = text
            .lines()
            .find(|l| l.contains("doc_type=\"Other\",quantile=\"p50\"}"))
            .unwrap();
        assert!(!p50_other.ends_with(" 0"), "{p50_other}");
        assert_eq!(obs.overall().count(), 4);
    }

    #[test]
    fn register_publishes_per_type_and_overall_gauges() {
        let registry = Registry::new();
        let mut obs = LatencyObserver::register(LatencyModel::campus_2001(), 4, &registry);
        obs.on_access(event(DocumentType::Html, 10_000, false), AccessKind::Miss);
        obs.rotate_and_publish();
        let text = registry.prometheus_text();
        assert!(
            text.contains("webcache_modeled_latency_us{doc_type=\"HTML\",quantile=\"p99\"}"),
            "{text}"
        );
        assert!(
            text.contains("webcache_modeled_latency_us{doc_type=\"overall\",quantile=\"p50\"}"),
            "{text}"
        );
        let p99_html = text
            .lines()
            .find(|l| l.contains("doc_type=\"HTML\",quantile=\"p99\"}"))
            .unwrap();
        let v: f64 = p99_html.split_whitespace().last().unwrap().parse().unwrap();
        assert!(v > 100_000.0, "{p99_html}");
        // Types that saw no traffic publish 0, not garbage.
        let image_p50 = text
            .lines()
            .find(|l| l.contains("doc_type=\"Images\",quantile=\"p50\"}"))
            .unwrap();
        assert!(image_p50.ends_with(" 0"), "{image_p50}");
    }
}
