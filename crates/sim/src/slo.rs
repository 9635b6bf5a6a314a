//! Service-level objectives with multi-window burn-rate alerting.
//!
//! An [`SloTracker`] watches the replay against two optional
//! objectives: a **hit-rate floor** (the cache's reason to exist) and a
//! **modeled p99 latency ceiling** (at most 1% of measured requests may
//! exceed the target, using the same two-link [`LatencyModel`] as
//! [`LatencyObserver`](crate::latency_obs::LatencyObserver)). Following
//! the SRE burn-rate playbook, a breach needs **two windows** to agree:
//! the *short* window (the last pass) must be burning error budget
//! faster than the threshold **and** the *long* window (the trailing
//! [`SloConfig::window_passes`] passes) must agree — so a single noisy
//! pass does not page, and a sustained regression fires within one
//! pass.
//!
//! Alerts are **edge-triggered**: the tracker fires once when an SLO
//! *enters* breach and re-arms only after a healthy evaluation, so a
//! steady forced breach produces exactly one alert (and thus exactly
//! one post-mortem bundle, which serve writes for each breach
//! [`SloTracker::evaluate`] returns).
//!
//! Clones share one core, so the tracker rides the observer seam in
//! both serial and concurrent serve modes; [`SloTracker::evaluate`]
//! runs single-threaded from the pass boundary. Each handle counts a
//! replay in cells of its own, written through `&mut self` with plain
//! adds, and adds them to the shared pass counters once: at
//! [`Observer::on_run_end`], when the handle is dropped, and at the
//! start of an [`SloTracker::evaluate`] through the same handle. A
//! clone starts with empty cells. Serve evaluates only after a pass's
//! replay has returned, when every shard's `on_run_end` has run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use webcache_obs::{Counter, Gauge, Registry};

use crate::latency::LatencyModel;
use crate::observe::{AccessEvent, AccessKind, Observer};

/// The latency SLO's implicit quantile: at most this fraction of
/// requests may exceed the target (p99 ⇒ 1%).
pub const LATENCY_BUDGET_FRACTION: f64 = 0.01;

/// Objectives and alerting shape for an [`SloTracker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Minimum acceptable hit rate over the measured region, in
    /// `(0, 1)`; `None` disables the hit-rate SLO.
    pub hit_rate: Option<f64>,
    /// Maximum acceptable modeled p99 latency in microseconds; `None`
    /// disables the latency SLO.
    pub p99_latency_us: Option<u64>,
    /// Long-window length in passes (the short window is always the
    /// last pass).
    pub window_passes: usize,
    /// Burn-rate multiple that must be exceeded in **both** windows to
    /// alert (1.0 = consuming budget exactly as fast as allowed).
    pub burn_threshold: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            hit_rate: None,
            p99_latency_us: None,
            window_passes: 12,
            burn_threshold: 2.0,
        }
    }
}

impl SloConfig {
    /// Whether any objective is set.
    pub fn enabled(&self) -> bool {
        self.hit_rate.is_some() || self.p99_latency_us.is_some()
    }
}

/// One fired alert, as [`SloTracker::evaluate`] returns it.
#[derive(Debug, Clone, PartialEq)]
pub struct SloBreach {
    /// Which objective fired: `"hit_rate"` or `"latency_p99"`.
    pub slo: &'static str,
    /// Human-readable burn summary.
    pub detail: String,
}

/// Burn rates of one objective after an evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRates {
    /// Last-pass burn multiple.
    pub short: f64,
    /// Trailing-window burn multiple.
    pub long: f64,
    /// Whether the objective is currently in breach.
    pub breaching: bool,
}

#[derive(Debug, Default, Clone, Copy)]
struct PassCounts {
    requests: u64,
    hits: u64,
    over_latency: u64,
}

#[derive(Debug, Clone)]
struct SloGauges {
    short: Gauge,
    long: Gauge,
    breaches: Counter,
}

struct SloInner {
    windows: VecDeque<PassCounts>,
    hit_breaching: bool,
    latency_breaching: bool,
    hit_gauges: Option<SloGauges>,
    latency_gauges: Option<SloGauges>,
}

/// Pass counts in atomic cells: the shared pass counters, and each
/// handle's batch (which the record path writes through `&mut self`;
/// atomic only so that a flush through `&self` can take it).
#[derive(Debug, Default)]
struct AtomicCounts {
    requests: AtomicU64,
    hits: AtomicU64,
    over_latency: AtomicU64,
}

impl AtomicCounts {
    /// Empties the cells, returning what they held.
    fn take(&self) -> PassCounts {
        PassCounts {
            requests: self.requests.swap(0, Ordering::Relaxed),
            hits: self.hits.swap(0, Ordering::Relaxed),
            over_latency: self.over_latency.swap(0, Ordering::Relaxed),
        }
    }

    fn add(&self, counts: PassCounts) {
        self.requests.fetch_add(counts.requests, Ordering::Relaxed);
        self.hits.fetch_add(counts.hits, Ordering::Relaxed);
        self.over_latency
            .fetch_add(counts.over_latency, Ordering::Relaxed);
    }
}

struct SloShared {
    counts: AtomicCounts,
    inner: Mutex<SloInner>,
}

/// Tracks SLO burn rates over the replay. See the [module docs](self).
pub struct SloTracker {
    config: SloConfig,
    model: LatencyModel,
    shared: Arc<SloShared>,
    /// This handle's counts not yet in `shared`.
    pending: AtomicCounts,
}

impl Clone for SloTracker {
    /// Shares the core; the clone's batch starts empty.
    fn clone(&self) -> Self {
        SloTracker {
            config: self.config,
            model: self.model,
            shared: Arc::clone(&self.shared),
            pending: AtomicCounts::default(),
        }
    }
}

impl Drop for SloTracker {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for SloTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloTracker")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl SloTracker {
    /// A tracker with no registry export.
    pub fn new(config: SloConfig, model: LatencyModel) -> SloTracker {
        SloTracker {
            config,
            model,
            shared: Arc::new(SloShared {
                counts: AtomicCounts::default(),
                inner: Mutex::new(SloInner {
                    windows: VecDeque::new(),
                    hit_breaching: false,
                    latency_breaching: false,
                    hit_gauges: None,
                    latency_gauges: None,
                }),
            }),
            pending: AtomicCounts::default(),
        }
    }

    /// A tracker exporting `webcache_slo_burn_rate{slo, window}` gauges
    /// and `webcache_slo_breach_total{slo}` counters through `registry`
    /// (only for objectives that are actually set).
    pub fn register(config: SloConfig, model: LatencyModel, registry: &Registry) -> SloTracker {
        let tracker = SloTracker::new(config, model);
        let gauges = |slo: &str| SloGauges {
            short: registry.gauge(
                "webcache_slo_burn_rate",
                "Error-budget burn multiple per SLO and window.",
                &[("slo", slo), ("window", "short")],
            ),
            long: registry.gauge(
                "webcache_slo_burn_rate",
                "Error-budget burn multiple per SLO and window.",
                &[("slo", slo), ("window", "long")],
            ),
            breaches: registry.counter(
                "webcache_slo_breach_total",
                "SLO breach alerts fired (edge-triggered).",
                &[("slo", slo)],
            ),
        };
        {
            let mut inner = tracker.shared.inner.lock().expect("slo lock");
            if config.hit_rate.is_some() {
                inner.hit_gauges = Some(gauges("hit_rate"));
            }
            if config.p99_latency_us.is_some() {
                inner.latency_gauges = Some(gauges("latency_p99"));
            }
        }
        tracker
    }

    /// The configured objectives.
    pub fn config(&self) -> SloConfig {
        self.config
    }

    /// Adds this handle's batched counts to the shared pass counters
    /// and empties the batch.
    fn flush(&self) {
        self.shared.counts.add(self.pending.take());
    }

    /// Closes the current pass: folds the in-flight counters (this
    /// handle's batch included) into the window ring, recomputes both
    /// windows' burn rates, publishes the gauges, and returns an alert
    /// for every SLO that *entered* breach. Call once per pass,
    /// single-threaded.
    pub fn evaluate(&self) -> Vec<SloBreach> {
        self.flush();
        let pass = self.shared.counts.take();
        let mut inner = self.shared.inner.lock().expect("slo lock");
        if inner.windows.len() == self.config.window_passes.max(1) {
            inner.windows.pop_front();
        }
        inner.windows.push_back(pass);
        let mut long = PassCounts::default();
        for w in &inner.windows {
            long.requests += w.requests;
            long.hits += w.hits;
            long.over_latency += w.over_latency;
        }

        let threshold = self.config.burn_threshold;
        let mut fired = Vec::new();
        if let Some(target) = self.config.hit_rate {
            let burn = |c: &PassCounts| {
                let budget = (1.0 - target).max(f64::EPSILON);
                if c.requests == 0 {
                    0.0
                } else {
                    (1.0 - c.hits as f64 / c.requests as f64) / budget
                }
            };
            let rates = BurnRates {
                short: burn(&pass),
                long: burn(&long),
                breaching: burn(&pass) > threshold && burn(&long) > threshold,
            };
            let was = inner.hit_breaching;
            inner.hit_breaching = rates.breaching;
            if let Some(g) = &inner.hit_gauges {
                g.short.set(rates.short);
                g.long.set(rates.long);
            }
            if rates.breaching && !was {
                fired.push(self.fire(&inner, "hit_rate", rates));
            }
        }
        if self.config.p99_latency_us.is_some() {
            let burn = |c: &PassCounts| {
                if c.requests == 0 {
                    0.0
                } else {
                    (c.over_latency as f64 / c.requests as f64) / LATENCY_BUDGET_FRACTION
                }
            };
            let rates = BurnRates {
                short: burn(&pass),
                long: burn(&long),
                breaching: burn(&pass) > threshold && burn(&long) > threshold,
            };
            let was = inner.latency_breaching;
            inner.latency_breaching = rates.breaching;
            if let Some(g) = &inner.latency_gauges {
                g.short.set(rates.short);
                g.long.set(rates.long);
            }
            if rates.breaching && !was {
                fired.push(self.fire(&inner, "latency_p99", rates));
            }
        }
        fired
    }

    /// The current burn state of one SLO (`"hit_rate"` or
    /// `"latency_p99"`), for status pages and tests.
    pub fn burn_state(&self, slo: &str) -> bool {
        let inner = self.shared.inner.lock().expect("slo lock");
        match slo {
            "hit_rate" => inner.hit_breaching,
            _ => inner.latency_breaching,
        }
    }

    /// Fires the alert for an SLO that just entered breach: bumps the
    /// breach counter.
    fn fire(&self, inner: &SloInner, slo: &'static str, rates: BurnRates) -> SloBreach {
        let breach = SloBreach {
            slo,
            detail: format!(
                "slo {slo} burning budget at {:.2}x (short) / {:.2}x (long), threshold {:.2}x",
                rates.short, rates.long, self.config.burn_threshold
            ),
        };
        let gauges = match slo {
            "hit_rate" => &inner.hit_gauges,
            _ => &inner.latency_gauges,
        };
        if let Some(g) = gauges {
            g.breaches.inc();
        }
        breach
    }
}

impl Observer for SloTracker {
    #[inline]
    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        if event.warmup {
            return;
        }
        *self.pending.requests.get_mut() += 1;
        if kind.is_hit() {
            *self.pending.hits.get_mut() += 1;
        }
        if let Some(target_us) = self.config.p99_latency_us {
            let link = if kind.is_hit() {
                &self.model.local
            } else {
                &self.model.origin
            };
            let us = (link.transfer_ms(event.size) * 1_000.0) as u64;
            if us > target_us {
                *self.pending.over_latency.get_mut() += 1;
            }
        }
    }

    fn on_run_end(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_trace::{ByteSize, DocId, DocumentType};

    fn event(size: u64) -> AccessEvent {
        AccessEvent {
            index: 0,
            doc: DocId::new(1),
            doc_type: DocumentType::Html,
            size: ByteSize::new(size),
            warmup: false,
        }
    }

    fn feed(tracker: &mut SloTracker, hits: usize, misses: usize) {
        for _ in 0..hits {
            tracker.on_access(event(1_000), AccessKind::Hit);
        }
        for _ in 0..misses {
            tracker.on_access(event(1_000), AccessKind::Miss);
        }
    }

    fn hit_rate_config(target: f64) -> SloConfig {
        SloConfig {
            hit_rate: Some(target),
            window_passes: 4,
            burn_threshold: 2.0,
            ..SloConfig::default()
        }
    }

    #[test]
    fn healthy_passes_never_fire() {
        let mut t = SloTracker::new(hit_rate_config(0.5), LatencyModel::campus_2001());
        for _ in 0..5 {
            feed(&mut t, 90, 10); // 90% HR against a 50% target
            assert!(t.evaluate().is_empty());
        }
        assert!(!t.burn_state("hit_rate"));
    }

    #[test]
    fn sustained_breach_fires_exactly_once() {
        let mut t = SloTracker::new(hit_rate_config(0.9), LatencyModel::campus_2001());
        let mut fired = 0;
        for _ in 0..6 {
            feed(&mut t, 10, 90); // 10% HR: burn = 0.9/0.1 = 9x
            fired += t.evaluate().len();
        }
        assert_eq!(fired, 1, "edge-triggered: one alert per breach episode");
        assert!(t.burn_state("hit_rate"));
    }

    #[test]
    fn recovery_rearms_the_alert() {
        let mut t = SloTracker::new(hit_rate_config(0.9), LatencyModel::campus_2001());
        feed(&mut t, 0, 100);
        assert_eq!(t.evaluate().len(), 1);
        // Healthy long enough for the long window to drain.
        for _ in 0..5 {
            feed(&mut t, 100, 0);
            assert!(t.evaluate().is_empty());
        }
        assert!(!t.burn_state("hit_rate"));
        feed(&mut t, 0, 100);
        let refire = t.evaluate();
        assert_eq!(refire.len(), 1, "re-armed after recovery");
        assert_eq!(refire[0].slo, "hit_rate");
    }

    #[test]
    fn one_bad_pass_in_a_healthy_long_window_does_not_fire() {
        let mut t = SloTracker::new(hit_rate_config(0.9), LatencyModel::campus_2001());
        // Seed the long window with healthy passes.
        for _ in 0..3 {
            feed(&mut t, 1000, 0);
            t.evaluate();
        }
        // One collapsed pass: short burns hot, but the long window
        // (3 x 1000 hits + 100 misses) stays under threshold.
        feed(&mut t, 0, 100);
        assert!(t.evaluate().is_empty(), "long window must veto");
    }

    #[test]
    fn latency_slo_counts_over_target_requests() {
        let config = SloConfig {
            p99_latency_us: Some(50_000), // hits (~6ms) pass, misses (~183ms) fail
            window_passes: 4,
            burn_threshold: 2.0,
            ..SloConfig::default()
        };
        let mut t = SloTracker::new(config, LatencyModel::campus_2001());
        let mut fired = Vec::new();
        for _ in 0..3 {
            // 10% of traffic over target: burn = 0.10/0.01 = 10x.
            for _ in 0..90 {
                t.on_access(event(10_000), AccessKind::Hit);
            }
            for _ in 0..10 {
                t.on_access(event(10_000), AccessKind::Miss);
            }
            fired.extend(t.evaluate());
        }
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].slo, "latency_p99");
        assert!(fired[0].detail.contains("10.00x"), "{}", fired[0].detail);
    }

    #[test]
    fn warmup_is_excluded_and_the_breach_is_returned() {
        let mut t = SloTracker::new(hit_rate_config(0.9), LatencyModel::campus_2001());
        let mut warm = event(1_000);
        warm.warmup = true;
        t.on_access(warm, AccessKind::Miss);
        assert!(t.evaluate().is_empty(), "warmup misses carry no budget");
        feed(&mut t, 0, 50);
        let fired: Vec<&str> = t.evaluate().iter().map(|b| b.slo).collect();
        assert_eq!(fired, vec!["hit_rate"]);
    }

    #[test]
    fn registry_export_carries_burn_gauges_and_breach_counter() {
        let registry = Registry::new();
        let mut t =
            SloTracker::register(hit_rate_config(0.9), LatencyModel::campus_2001(), &registry);
        feed(&mut t, 0, 100);
        t.evaluate();
        let text = registry.prometheus_text();
        assert!(
            text.contains("webcache_slo_burn_rate{slo=\"hit_rate\",window=\"short\"} 10"),
            "{text}"
        );
        assert!(
            text.contains("webcache_slo_burn_rate{slo=\"hit_rate\",window=\"long\"} 10"),
            "{text}"
        );
        assert!(
            text.contains("webcache_slo_breach_total{slo=\"hit_rate\"} 1"),
            "{text}"
        );
        // No latency SLO configured: no latency rows registered.
        assert!(!text.contains("slo=\"latency_p99\""), "{text}");
    }

    fn last_pass(t: &SloTracker) -> (u64, u64) {
        let inner = t.shared.inner.lock().unwrap();
        let pass = inner.windows.back().copied().unwrap_or_default();
        (pass.requests, pass.hits)
    }

    #[test]
    fn a_clone_recording_on_another_thread_counts_once_it_drops() {
        let t = SloTracker::new(hit_rate_config(0.5), LatencyModel::campus_2001());
        let mut clone = t.clone();
        // No `on_run_end`: the drop at the end of the thread flushes.
        std::thread::spawn(move || feed(&mut clone, 3, 7))
            .join()
            .unwrap();
        t.evaluate();
        assert_eq!(last_pass(&t), (10, 3));
    }

    #[test]
    fn a_batch_counts_in_the_pass_evaluated_after_run_end() {
        let t = SloTracker::new(hit_rate_config(0.9), LatencyModel::campus_2001());
        let mut shard = t.clone();
        feed(&mut shard, 0, 100);
        shard.on_run_end();
        assert_eq!(t.evaluate().len(), 1, "the batch is in this pass");
        assert_eq!(last_pass(&t), (100, 0));
        // Nothing is left to land in the next pass.
        drop(shard);
        t.evaluate();
        assert_eq!(last_pass(&t), (0, 0));
    }

    #[test]
    fn clones_share_counters_across_threads() {
        let t = SloTracker::new(hit_rate_config(0.5), LatencyModel::campus_2001());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let mut clone = t.clone();
                std::thread::spawn(move || feed(&mut clone, 100, 100))
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        // 50% HR against a 50% target: burn 1.0x, under the 2x bar.
        assert!(t.evaluate().is_empty());
        let inner = t.shared.inner.lock().unwrap();
        assert_eq!(inner.windows.back().unwrap().requests, 800);
        assert_eq!(inner.windows.back().unwrap().hits, 400);
    }
}
