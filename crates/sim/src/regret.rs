//! Online regret metrics: how much better could the policy have done?
//!
//! Two complementary measures, both cheap enough for live replay:
//!
//! * **Wasted evictions** — an eviction whose victim is re-requested
//!   within `window` requests was (in hindsight) a mistake: keeping the
//!   document would have turned that miss into a hit. Counted per
//!   document type, since the paper's schemes discriminate by type.
//! * **Gap to clairvoyant** — every `gap_every` requests, the last
//!   `gap_window` requests are replayed through
//!   [`oracle::clairvoyant`], under the run's capacity and
//!   [`ModificationRule`], and the
//!   oracle's hit rate over that window is compared with the live hit
//!   rate over the same window. The gap (oracle − actual, in hit-rate
//!   points) is the online analogue of the offline "fraction of
//!   clairvoyant" comparisons in EXPERIMENTS.md. The window's documents
//!   are renumbered `0..` in first-appearance order before they are
//!   interned, which gives the slots the interner would give the
//!   original ids, through its direct tier alone.
//!
//! Both measures are per pass: each run start drops the pending victims
//! and the trailing window, because every pass starts a cold cache,
//! restarts request indices at 0 and (on `serve --workload`) re-interns
//! its document slots, so nothing pairs across a pass boundary. The
//! counters and gauges below keep accumulating for the tracker's
//! lifetime.
//!
//! [`RegretTracker`] is an [`Observer`], so it composes with the other
//! serve-path observers via tuple nesting, and exports through a
//! [`Registry`] when one is attached:
//!
//! * `webcache_regret_evictions_total{doc_type}`
//! * `webcache_regret_wasted_evictions_total{doc_type}`
//! * `webcache_regret_gap_to_clairvoyant` (gauge, hit-rate points)
//! * `webcache_regret_window_hit_rate` / `webcache_regret_oracle_hit_rate`

use std::collections::VecDeque;

use webcache_core::Eviction;
use webcache_obs::{Counter, Gauge, Registry};
use webcache_trace::{ByteSize, DenseTrace, DocumentType, FxHashMap, TypeMap};

use crate::observe::{AccessEvent, AccessKind, Observer, RunMeta};
use crate::oracle;
use crate::simulator::{ModificationRule, SimulationConfig};

/// Sizing knobs for [`RegretTracker`].
#[derive(Debug, Clone, Copy)]
pub struct RegretConfig {
    /// A victim re-requested within this many requests of its eviction
    /// counts as a wasted eviction.
    pub window: u64,
    /// Trailing request count replayed through the clairvoyant oracle.
    pub gap_window: usize,
    /// Recompute the gap gauge every this many requests (0 disables the
    /// oracle entirely — wasted-eviction counting stays on).
    pub gap_every: u64,
}

impl Default for RegretConfig {
    fn default() -> Self {
        RegretConfig {
            window: 1024,
            gap_window: 4096,
            gap_every: 4096,
        }
    }
}

/// Registry handles, split out so the tracker works registry-free.
#[derive(Debug)]
struct RegretMetrics {
    evictions: [Counter; DocumentType::ALL.len()],
    wasted: [Counter; DocumentType::ALL.len()],
    gap: Gauge,
    window_hit_rate: Gauge,
    oracle_hit_rate: Gauge,
}

/// Observer computing online regret metrics. See the module docs.
#[derive(Debug)]
pub struct RegretTracker {
    config: RegretConfig,
    capacity: ByteSize,
    modification_rule: ModificationRule,
    /// Victims awaiting (possible) re-request: doc → eviction index.
    /// Keyed by trusted document slots, so fx-hashed. Entries older
    /// than `window` are swept every `window` requests; one that
    /// outlives its window until its document returns fails the
    /// `window` test there, so the sweep only bounds memory.
    pending: FxHashMap<u64, u64>,
    /// Request index at which `pending` is next swept.
    next_sweep: u64,
    evictions: TypeMap<u64>,
    wasted: TypeMap<u64>,
    /// Trailing requests: (doc, type, size, hit).
    recent: VecDeque<(u64, DocumentType, u64, bool)>,
    /// Requests until the next gap recompute.
    until_gap: u64,
    /// The trailing window's document → first-appearance number,
    /// rebuilt at each recompute (kept for its allocation).
    renumbered: FxHashMap<u64, u64>,
    last_gap: Option<f64>,
    metrics: Option<RegretMetrics>,
}

impl RegretTracker {
    /// A tracker with the given knobs and no registry export.
    pub fn new(config: RegretConfig) -> RegretTracker {
        RegretTracker {
            config,
            capacity: ByteSize::new(1),
            modification_rule: ModificationRule::default(),
            pending: FxHashMap::default(),
            next_sweep: 0,
            evictions: TypeMap::default(),
            wasted: TypeMap::default(),
            recent: VecDeque::new(),
            until_gap: config.gap_every,
            renumbered: FxHashMap::default(),
            last_gap: None,
            metrics: None,
        }
    }

    /// Registers the regret metric families and routes updates to them.
    pub fn with_registry(config: RegretConfig, registry: &Registry) -> RegretTracker {
        let per_type = |name: &str, help: &str| {
            DocumentType::ALL.map(|ty| registry.counter(name, help, &[("doc_type", ty.label())]))
        };
        let metrics = RegretMetrics {
            evictions: per_type(
                "webcache_regret_evictions_total",
                "Evictions observed by the regret tracker.",
            ),
            wasted: per_type(
                "webcache_regret_wasted_evictions_total",
                "Evictions whose victim was re-requested within the regret window.",
            ),
            gap: registry.gauge(
                "webcache_regret_gap_to_clairvoyant",
                "Clairvoyant hit rate minus actual hit rate over the trailing window.",
                &[],
            ),
            window_hit_rate: registry.gauge(
                "webcache_regret_window_hit_rate",
                "Actual hit rate over the trailing regret window.",
                &[],
            ),
            oracle_hit_rate: registry.gauge(
                "webcache_regret_oracle_hit_rate",
                "Clairvoyant hit rate over the trailing regret window.",
                &[],
            ),
        };
        let mut tracker = RegretTracker::new(config);
        tracker.metrics = Some(metrics);
        tracker
    }

    /// Wasted evictions counted so far for `ty`.
    pub fn wasted(&self, ty: DocumentType) -> u64 {
        self.wasted[ty]
    }

    /// Evictions observed so far for `ty`.
    pub fn evictions(&self, ty: DocumentType) -> u64 {
        self.evictions[ty]
    }

    /// The most recent gap-to-clairvoyant value, if one was computed.
    pub fn last_gap(&self) -> Option<f64> {
        self.last_gap
    }

    /// Replays the trailing window through the clairvoyant oracle and
    /// updates the gap gauge.
    fn recompute_gap(&mut self) {
        if self.recent.is_empty() {
            return;
        }
        let hits = self.recent.iter().filter(|&&(_, _, _, hit)| hit).count();
        let actual = hits as f64 / self.recent.len() as f64;
        let renumbered = &mut self.renumbered;
        renumbered.clear();
        let window = DenseTrace::from_requests(self.recent.iter().map(|&(doc, ty, size, _)| {
            let next = renumbered.len() as u64;
            (*renumbered.entry(doc).or_insert(next), size, ty)
        }));
        let config = SimulationConfig::builder()
            .capacity(self.capacity)
            .warmup_fraction(0.0)
            .modification_rule(self.modification_rule)
            .build();
        let oracle_hr = oracle::clairvoyant_overall(&window, &config).hit_rate();
        let gap = oracle_hr - actual;
        self.last_gap = Some(gap);
        if let Some(m) = &self.metrics {
            m.gap.set(gap);
            m.window_hit_rate.set(actual);
            m.oracle_hit_rate.set(oracle_hr);
        }
    }
}

impl Observer for RegretTracker {
    fn on_run_start(&mut self, meta: RunMeta) {
        self.capacity = meta.capacity;
        self.modification_rule = meta.modification_rule;
        // A pass starts a cold cache at request index 0, and a stream
        // epoch re-interns its slots: a victim or window entry from the
        // previous pass names another document at another time, and its
        // eviction index would never expire. Track each pass afresh.
        self.pending.clear();
        self.next_sweep = 0;
        self.recent.clear();
        self.until_gap = self.config.gap_every;
    }

    fn on_access(&mut self, event: AccessEvent, kind: AccessKind) {
        let doc = event.doc.as_u64();
        let hit = matches!(kind, AccessKind::Hit);

        // Every `window` requests, drop the victims past the window.
        if event.index >= self.next_sweep {
            let (now, window) = (event.index, self.config.window);
            self.pending
                .retain(|_, &mut at| now.saturating_sub(at) <= window);
            self.next_sweep = now.saturating_add(window.max(1));
        }
        // Wasted-eviction check: was this doc evicted recently?
        if let Some(at) = self.pending.remove(&doc) {
            if event.index.saturating_sub(at) <= self.config.window {
                self.wasted[event.doc_type] += 1;
                if let Some(m) = &self.metrics {
                    m.wasted[event.doc_type.index()].inc();
                }
            }
        }

        // Trailing window for the clairvoyant gap.
        if self.config.gap_every > 0 {
            self.recent
                .push_back((doc, event.doc_type, event.size.as_u64(), hit));
            while self.recent.len() > self.config.gap_window {
                self.recent.pop_front();
            }
            self.until_gap -= 1;
            if self.until_gap == 0 {
                self.until_gap = self.config.gap_every;
                self.recompute_gap();
            }
        }
    }

    fn on_evict(&mut self, at: AccessEvent, evicted: Eviction) {
        let doc = evicted.doc.as_u64();
        self.evictions[evicted.doc_type] += 1;
        if let Some(m) = &self.metrics {
            m.evictions[evicted.doc_type.index()].inc();
        }
        self.pending.insert(doc, at.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use webcache_core::PolicyKind;
    use webcache_trace::{DocId, Request, Timestamp, Trace};

    use crate::Simulator;

    fn req(i: u64, doc: u64, size: u64) -> Request {
        Request::new(
            Timestamp::from_millis(i),
            DocId::new(doc),
            DocumentType::Html,
            ByteSize::new(size),
        )
    }

    fn run(trace: Trace, capacity: u64, config: RegretConfig) -> RegretTracker {
        let mut tracker = RegretTracker::new(config);
        let sim_config = SimulationConfig::builder()
            .capacity(ByteSize::new(capacity))
            .warmup_fraction(0.0)
            .build();
        Simulator::new(PolicyKind::Lru.build(), sim_config).run_observed(&trace, &mut tracker);
        tracker
    }

    #[test]
    fn quick_reuse_after_eviction_counts_as_wasted() {
        // Capacity one doc: 1, 2 (evicts 1), 1 (wasted!), 2 (wasted!).
        let trace: Trace = vec![req(0, 1, 80), req(1, 2, 80), req(2, 1, 80), req(3, 2, 80)].into();
        let t = run(trace, 100, RegretConfig::default());
        assert_eq!(t.evictions(DocumentType::Html), 3);
        assert_eq!(t.wasted(DocumentType::Html), 2);
    }

    #[test]
    fn reuse_beyond_window_is_not_wasted() {
        let mut reqs = vec![req(0, 1, 80), req(1, 2, 80)]; // evicts doc 1
                                                           // Fill 10 requests of unrelated churn (window = 4).
        for i in 0..10u64 {
            reqs.push(req(2 + i, 100 + i, 80));
        }
        reqs.push(req(100, 1, 80)); // doc 1 returns too late
        let t = run(
            reqs.into(),
            100,
            RegretConfig {
                window: 4,
                gap_window: 64,
                gap_every: 0,
            },
        );
        assert_eq!(t.wasted(DocumentType::Html), 0, "late reuse is not regret");
        assert!(t.last_gap().is_none(), "gap disabled with gap_every = 0");
    }

    #[test]
    fn gap_to_clairvoyant_is_nonnegative_and_bounded() {
        // Cycling 3 docs through a 1-doc cache: LRU hits 0%, the oracle
        // does strictly better, so the gap must be positive.
        let trace: Trace = (0..64u64).map(|i| req(i, i % 3, 80)).collect();
        let t = run(
            trace,
            100,
            RegretConfig {
                window: 16,
                gap_window: 32,
                gap_every: 16,
            },
        );
        let gap = t.last_gap().expect("gap computed");
        assert!(gap > 0.0, "oracle must beat LRU on a cycling trace: {gap}");
        assert!(gap <= 1.0);
    }

    /// One document alternating between 1000 and 1200 bytes: under
    /// `AnyChange` every request after the first is a modification miss,
    /// so the live cache hits none, and neither does an oracle under the
    /// same rule. The default rule reads each change as an interrupted
    /// transfer, and an oracle under it would hit all but the first.
    #[test]
    fn gap_oracle_replays_under_the_runs_modification_rule() {
        use crate::ModificationRule;

        let trace: Trace = (0..64u64)
            .map(|i| req(i, 7, if i % 2 == 0 { 1_000 } else { 1_200 }))
            .collect();
        let sim_config = SimulationConfig::builder()
            .capacity(ByteSize::new(10_000))
            .warmup_fraction(0.0)
            .modification_rule(ModificationRule::AnyChange)
            .build();
        let mut tracker = RegretTracker::new(RegretConfig {
            window: 16,
            gap_window: 64,
            gap_every: 64,
        });
        let report =
            Simulator::new(PolicyKind::Lru.build(), sim_config).run_observed(&trace, &mut tracker);
        assert_eq!(report.overall().hits, 0);
        let oracle = oracle::clairvoyant_overall(&DenseTrace::build(&trace), &sim_config);
        assert_eq!(oracle.hits, 0);
        assert_eq!(tracker.last_gap(), Some(0.0));
    }

    #[test]
    fn each_pass_is_tracked_as_by_a_fresh_tracker() {
        use webcache_workload::{WorkloadProfile, WorkloadStream};

        let mut stream = WorkloadStream::new(WorkloadProfile::dfn().scaled(1.0 / 1024.0), 3);
        let per_pass = stream.epoch_len();
        let epochs: Vec<DenseTrace> = (0..3)
            .map(|_| DenseTrace::build(&stream.take_trace(per_pass)))
            .collect();
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(epochs[0].overall_size().as_u64() / 20))
            .warmup_fraction(0.1)
            .build();
        let replay = |epoch: &DenseTrace, tracker: &mut RegretTracker| {
            Simulator::from_spec(PolicyKind::Lru, config).run_dense_observed(epoch, tracker);
        };
        let counts =
            |t: &RegretTracker| DocumentType::ALL.map(|ty| (t.wasted(ty), t.evictions(ty)));

        let mut reused = RegretTracker::new(RegretConfig::default());
        for (pass, epoch) in epochs.iter().enumerate() {
            let before = counts(&reused);
            replay(epoch, &mut reused);
            let after = counts(&reused);
            let delta: Vec<(u64, u64)> = before
                .iter()
                .zip(&after)
                .map(|(b, a)| (a.0 - b.0, a.1 - b.1))
                .collect();
            let mut fresh = RegretTracker::new(RegretConfig::default());
            replay(epoch, &mut fresh);
            assert_eq!(delta, counts(&fresh), "pass {pass}");
            assert_eq!(reused.last_gap(), fresh.last_gap(), "pass {pass}");
            let evictions: u64 = delta.iter().map(|&(_, e)| e).sum();
            assert!(evictions > 0, "pass {pass} evicts");
            assert!(
                reused.pending.len() as u64 <= evictions,
                "pass {pass}: {} pending victims, {evictions} evictions",
                reused.pending.len()
            );
        }
    }

    #[test]
    fn registry_export_matches_internal_counters() {
        let registry = Registry::new();
        let mut tracker = RegretTracker::with_registry(
            RegretConfig {
                window: 64,
                gap_window: 32,
                gap_every: 8,
            },
            &registry,
        );
        let trace: Trace = vec![req(0, 1, 80), req(1, 2, 80), req(2, 1, 80), req(3, 2, 80)].into();
        let sim_config = SimulationConfig::builder()
            .capacity(ByteSize::new(100))
            .warmup_fraction(0.0)
            .build();
        Simulator::new(PolicyKind::Lru.build(), sim_config).run_observed(&trace, &mut tracker);
        let text = registry.prometheus_text();
        assert!(
            text.contains("webcache_regret_wasted_evictions_total{doc_type=\"HTML\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("webcache_regret_evictions_total{doc_type=\"HTML\"} 3"),
            "{text}"
        );
    }
}
