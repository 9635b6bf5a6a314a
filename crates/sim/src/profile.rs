//! The profiling observer: simulator events → metrics registry.
//!
//! [`ProfileObserver`] is an [`Observer`] that folds the
//! replay's event stream into [`webcache_obs::Registry`] handles — hit /
//! miss / insert / rejection counts, evicted bytes, and a histogram of
//! the *evict-scan length* (how many victims each admitted miss had to
//! displace). Together with a
//! [`PolicyProbe`](webcache_obs::PolicyProbe)-instrumented policy it
//! backs the `webcache profile` command: the probe sees the policy from
//! the inside (heap costs, inflation), the observer from the outside
//! (request outcomes, eviction pressure), and both export through the
//! same registry snapshot.

use webcache_core::Eviction;
use webcache_obs::{Counter, Histogram, Registry};

use crate::observe::{AccessEvent, AccessKind, Observer};

/// Folds replay events into registry metrics for one run.
///
/// Metric families (all labelled `{policy="..."}`):
///
/// * `webcache_sim_hits_total`, `webcache_sim_misses_total`,
///   `webcache_sim_modification_misses_total` — access outcomes
///   (measured requests and warm-up alike);
/// * `webcache_sim_inserts_total`, `webcache_sim_admission_rejects_total`
///   — what happened to missed documents;
/// * `webcache_sim_evictions_total`, `webcache_sim_bytes_evicted_total`
///   — eviction volume;
/// * `webcache_sim_evict_scan_length` — histogram of victims displaced
///   per admitted insert (0 when the document fit without evicting).
#[derive(Debug)]
pub struct ProfileObserver {
    hits: Counter,
    misses: Counter,
    modification_misses: Counter,
    inserts: Counter,
    admission_rejects: Counter,
    evictions: Counter,
    bytes_evicted: Counter,
    evict_scan: Histogram,
    /// Victims displaced by the insert currently being processed;
    /// `None` when no insert is pending.
    open_scan: Option<u64>,
}

impl ProfileObserver {
    /// Registers the observer's metric families for `policy_label`.
    pub fn register(registry: &Registry, policy_label: &str) -> Self {
        let labels = [("policy", policy_label)];
        ProfileObserver {
            hits: registry.counter(
                "webcache_sim_hits_total",
                "Requests served from the cache.",
                &labels,
            ),
            misses: registry.counter(
                "webcache_sim_misses_total",
                "Requests not resident in the cache.",
                &labels,
            ),
            modification_misses: registry.counter(
                "webcache_sim_modification_misses_total",
                "Misses caused by document modification at the origin.",
                &labels,
            ),
            inserts: registry.counter(
                "webcache_sim_inserts_total",
                "Missed documents admitted into the cache.",
                &labels,
            ),
            admission_rejects: registry.counter(
                "webcache_sim_admission_rejects_total",
                "Missed documents turned away by the admission rule.",
                &labels,
            ),
            evictions: registry.counter(
                "webcache_sim_evictions_total",
                "Documents evicted to make room.",
                &labels,
            ),
            bytes_evicted: registry.counter(
                "webcache_sim_bytes_evicted_total",
                "Bytes evicted to make room.",
                &labels,
            ),
            evict_scan: registry.histogram(
                "webcache_sim_evict_scan_length",
                "Victims displaced per admitted insert (0 = fit without evicting).",
                &labels,
            ),
            open_scan: None,
        }
    }

    fn flush_scan(&mut self) {
        if let Some(scan) = self.open_scan.take() {
            self.evict_scan.observe(scan);
        }
    }
}

impl Observer for ProfileObserver {
    fn on_access(&mut self, _event: AccessEvent, kind: AccessKind) {
        self.flush_scan();
        match kind {
            AccessKind::Hit => self.hits.inc(),
            AccessKind::Miss => self.misses.inc(),
            AccessKind::ModificationMiss => {
                self.misses.inc();
                self.modification_misses.inc();
            }
        }
    }

    fn on_insert(&mut self, _event: AccessEvent) {
        self.inserts.inc();
        self.open_scan = Some(0);
    }

    fn on_admission_reject(&mut self, _event: AccessEvent) {
        self.admission_rejects.inc();
    }

    fn on_evict(&mut self, _at: AccessEvent, evicted: Eviction) {
        self.evictions.inc();
        self.bytes_evicted.add(evicted.size.as_u64());
        if let Some(scan) = self.open_scan.as_mut() {
            *scan += 1;
        }
    }

    fn on_run_end(&mut self) {
        self.flush_scan();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimulationConfig, Simulator};
    use webcache_core::PolicyKind;
    use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp, Trace};

    fn req(doc: u64, size: u64) -> Request {
        Request::new(
            Timestamp::ZERO,
            DocId::new(doc),
            DocumentType::Html,
            ByteSize::new(size),
        )
    }

    #[test]
    fn counts_match_the_replay() {
        // Capacity for one 80-byte document: the second distinct insert
        // evicts the first.
        let trace: Trace = vec![req(1, 80), req(1, 80), req(2, 80)].into();
        let registry = Registry::new();
        let mut obs = ProfileObserver::register(&registry, "LRU");
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(100))
            .warmup_fraction(0.0)
            .build();
        Simulator::new(PolicyKind::Lru.build(), config).run_observed(&trace, &mut obs);

        assert_eq!(obs.hits.get(), 1);
        assert_eq!(obs.misses.get(), 2);
        assert_eq!(obs.modification_misses.get(), 0);
        assert_eq!(obs.inserts.get(), 2);
        assert_eq!(obs.admission_rejects.get(), 0);
        assert_eq!(obs.evictions.get(), 1);
        assert_eq!(obs.bytes_evicted.get(), 80);
        // Two inserts observed: one fit (scan 0), one displaced a victim
        // (scan 1).
        assert_eq!(obs.evict_scan.count(), 2);
        assert_eq!(obs.evict_scan.sum(), 1);

        let text = registry.prometheus_text();
        assert!(
            text.contains("webcache_sim_hits_total{policy=\"LRU\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("webcache_sim_evict_scan_length_count{policy=\"LRU\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn modification_misses_are_counted_separately() {
        // 100 -> 102 bytes is a <5% size change: a modification miss.
        let trace: Trace = vec![req(1, 100), req(1, 102)].into();
        let registry = Registry::new();
        let mut obs = ProfileObserver::register(&registry, "LRU");
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(1_000))
            .warmup_fraction(0.0)
            .build();
        Simulator::new(PolicyKind::Lru.build(), config).run_observed(&trace, &mut obs);
        assert_eq!(obs.misses.get(), 2);
        assert_eq!(obs.modification_misses.get(), 1);
    }

    #[test]
    fn trailing_insert_scan_is_flushed_at_run_end() {
        let trace: Trace = vec![req(1, 80)].into();
        let registry = Registry::new();
        let mut obs = ProfileObserver::register(&registry, "LRU");
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(100))
            .warmup_fraction(0.0)
            .build();
        Simulator::new(PolicyKind::Lru.build(), config).run_observed(&trace, &mut obs);
        assert_eq!(obs.evict_scan.count(), 1, "last insert's scan flushed");
    }
}
