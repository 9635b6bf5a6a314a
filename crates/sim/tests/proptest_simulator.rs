//! Property tests for the simulator: accounting laws that must hold for
//! any trace, policy and configuration.

use proptest::prelude::*;

use webcache_core::PolicyKind;
use webcache_sim::{ModificationRule, SimulationConfig, Simulator};
use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp, Trace};

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((0u64..40, 0u8..5, 1u64..100_000), 1..300).prop_map(|reqs| {
        reqs.into_iter()
            .enumerate()
            .map(|(i, (doc, ty, size))| {
                Request::new(
                    Timestamp::from_millis(i as u64),
                    DocId::new(doc),
                    DocumentType::ALL[ty as usize],
                    ByteSize::new(size),
                )
            })
            .collect()
    })
}

fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    prop::sample::select(PolicyKind::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Requests, hits and bytes are consistently accounted: hits ≤
    /// requests, bytes_hit ≤ bytes_requested, rates in [0, 1], per-type
    /// totals equal the measured region of the trace.
    #[test]
    fn accounting_invariants(
        trace in arb_trace(),
        kind in arb_policy(),
        capacity in 1_000u64..200_000,
        warmup in 0.0f64..0.5,
    ) {
        let config = SimulationConfig::builder()
            .capacity(ByteSize::new(capacity))
            .warmup_fraction(warmup)
            .build();
        let report = Simulator::new(kind.build(), config).run(&trace);
        let overall = report.overall();
        let measured = trace.len() - trace.warmup_boundary(warmup);
        prop_assert_eq!(overall.requests, measured as u64);
        prop_assert!(overall.hits <= overall.requests);
        prop_assert!(overall.bytes_hit <= overall.bytes_requested);
        prop_assert!((0.0..=1.0).contains(&overall.hit_rate()));
        prop_assert!((0.0..=1.0).contains(&overall.byte_hit_rate()));
        prop_assert!(overall.modification_misses <= overall.requests);
        for (_, stats) in report.by_type().iter() {
            prop_assert!(stats.hits <= stats.requests);
            prop_assert!(stats.bytes_hit <= stats.bytes_requested);
        }
    }

    /// A cache as large as the whole workload turns every non-first,
    /// non-modified request into a hit (with the 0-warmup config), for
    /// every policy.
    #[test]
    fn infinite_cache_upper_bound(trace in arb_trace(), kind in arb_policy()) {
        let config = SimulationConfig::builder()
            .capacity(ByteSize::from_gib(8))
            .warmup_fraction(0.0)
            .build();
        let report = Simulator::new(kind.build(), config).run(&trace);
        let overall = report.overall();
        // Compulsory misses: first touch of each doc; plus modification
        // misses (counted separately).
        let cold = trace.distinct_documents() as u64;
        prop_assert_eq!(
            overall.requests - overall.hits,
            cold + overall.modification_misses
        );
    }

    /// The AnyChange rule never yields more hits than the 5%-delta rule
    /// (it strictly widens the set of modification misses) on the same
    /// trace with an infinite cache.
    #[test]
    fn any_change_rule_is_stricter(trace in arb_trace()) {
        let run = |rule| {
            let config = SimulationConfig::builder()
                .capacity(ByteSize::from_gib(8))
                .warmup_fraction(0.0)
                .modification_rule(rule)
                .build();
            Simulator::new(PolicyKind::Lru.build(), config)
                .run(&trace)
                .overall()
        };
        let delta = run(ModificationRule::SizeDelta);
        let any = run(ModificationRule::AnyChange);
        prop_assert!(any.hits <= delta.hits);
        prop_assert!(any.modification_misses >= delta.modification_misses);
    }

    /// For *uniform* document sizes LRU has the stack-inclusion property:
    /// a larger cache never yields fewer hits. (With variable sizes the
    /// property is famously false for byte-capacity caches — one large
    /// admission can evict many soon-reused small documents — which is
    /// exactly why the size-aware schemes of the paper exist.)
    #[test]
    fn lru_inclusion_property_uniform_sizes(
        docs in prop::collection::vec(0u64..40, 1..300),
        size in 1u64..5_000,
        cap_blocks in 1u64..32,
        extra_blocks in 1u64..32,
    ) {
        let trace: Trace = docs
            .iter()
            .enumerate()
            .map(|(i, &d)| Request::new(
                Timestamp::from_millis(i as u64),
                DocId::new(d),
                DocumentType::Html,
                ByteSize::new(size),
            ))
            .collect();
        let run = |blocks: u64| {
            let config = SimulationConfig::builder()
                .capacity(ByteSize::new(blocks * size))
                .warmup_fraction(0.0)
                .build();
            Simulator::new(PolicyKind::Lru.build(), config)
                .run(&trace)
                .overall()
                .hits
        };
        prop_assert!(run(cap_blocks + extra_blocks) >= run(cap_blocks));
    }

    /// Occupancy sampling takes exactly the requested number of samples
    /// (when the measured region is long enough) and every sample's
    /// fractions sum to ~1 for a non-empty cache.
    #[test]
    fn occupancy_sampling_shape(trace in arb_trace(), samples in 1usize..10) {
        prop_assume!(trace.len() >= samples * 2);
        let config = SimulationConfig::builder()
            .capacity(ByteSize::from_gib(1))
            .warmup_fraction(0.0)
            .occupancy_samples(samples)
            .build();
        let report = Simulator::new(PolicyKind::Lru.build(), config).run(&trace);
        prop_assert!(report.occupancy.len() >= samples.min(trace.len()));
        for s in report.occupancy.samples() {
            let doc_sum: f64 = DocumentType::ALL
                .iter()
                .map(|&ty| s.document_fraction[ty])
                .sum();
            prop_assert!((doc_sum - 1.0).abs() < 1e-9 || doc_sum == 0.0);
        }
    }
}

mod dense_vs_hashed {
    use proptest::prelude::*;
    use webcache_core::{AdmissionSpec, PolicyKind, PolicySpec};
    use webcache_sim::{ModificationRule, SimulationConfig, Simulator};
    use webcache_trace::{ByteSize, DenseTrace, DocId, DocumentType, Request, Timestamp, Trace};

    /// Spreads a small doc index over the u64 space so the differential
    /// actually exercises the sparse-id interning of the hashed path.
    fn sparse_id(doc: u64) -> u64 {
        doc.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0xdead_beef)
    }

    fn arb_sparse_trace() -> impl Strategy<Value = Trace> {
        prop::collection::vec((0u64..48, 0u8..5, 1u64..100_000), 1..300).prop_map(|reqs| {
            reqs.into_iter()
                .enumerate()
                .map(|(i, (doc, ty, size))| {
                    Request::new(
                        Timestamp::from_millis(i as u64),
                        DocId::new(sparse_id(doc)),
                        DocumentType::ALL[ty as usize],
                        ByteSize::new(size),
                    )
                })
                .collect()
        })
    }

    fn arb_admission() -> impl Strategy<Value = AdmissionSpec> {
        prop_oneof![
            Just(AdmissionSpec::All),
            Just(AdmissionSpec::TinyLfu),
            (1u64..50_000).prop_map(|s| AdmissionSpec::MaxSize(ByteSize::new(s))),
            (1usize..64).prop_map(AdmissionSpec::SecondHit),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The hash-free dense replay is *bit-identical* to the sparse
        /// hashed replay — same hits, same evictions, same occupancy
        /// samples — for every policy, admission filter and config.
        #[test]
        fn dense_replay_matches_hashed_replay(
            trace in arb_sparse_trace(),
            kind in prop::sample::select(PolicyKind::ALL.to_vec()),
            capacity in 1_000u64..200_000,
            warmup in 0.0f64..0.5,
            admission in arb_admission(),
            any_change in prop_oneof![Just(false), Just(true)],
            samples in 0usize..8,
        ) {
            let rule = if any_change {
                ModificationRule::AnyChange
            } else {
                ModificationRule::SizeDelta
            };
            let config = SimulationConfig::builder()
                .capacity(ByteSize::new(capacity))
                .warmup_fraction(warmup)
                .modification_rule(rule)
                .occupancy_samples(samples)
                .build();
            let spec = PolicySpec::new(admission, kind);
            let dense = Simulator::from_spec(spec, config).run(&trace);
            let hashed = Simulator::from_spec(spec, config).run_hashed(&trace);
            prop_assert_eq!(dense, hashed);
        }
    }

    /// Deterministic spot check over the full policy roster, including a
    /// sweep-style grid of capacities.
    #[test]
    fn all_policies_agree_on_fixed_workload() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let trace: Trace = (0..4_000)
            .map(|i| {
                Request::new(
                    Timestamp::from_millis(i),
                    DocId::new(sparse_id(next() % 300)),
                    DocumentType::ALL[(next() % 5) as usize],
                    ByteSize::new(next() % 20_000 + 1),
                )
            })
            .collect();
        for kind in PolicyKind::ALL {
            for capacity in [10_000u64, 100_000, 1_000_000] {
                let config = SimulationConfig::new(ByteSize::new(capacity));
                let dense = Simulator::new(kind.build(), config).run(&trace);
                let hashed = Simulator::new(kind.build(), config).run_hashed(&trace);
                assert_eq!(dense, hashed, "{kind:?} diverged at capacity {capacity}");
            }
        }
    }

    /// The sweep engine (which replays the shared dense view) produces
    /// exactly the report a hashed cell-by-cell run would.
    #[test]
    fn sweep_grid_matches_hashed_cells() {
        use webcache_sim::CacheSizeSweep;
        let trace: Trace = (0..2_500u64)
            .map(|i| {
                Request::new(
                    Timestamp::from_millis(i),
                    DocId::new(sparse_id(i * i % 211)),
                    DocumentType::ALL[(i % 5) as usize],
                    ByteSize::new(i % 9_000 + 1),
                )
            })
            .collect();
        let capacities = vec![ByteSize::new(20_000), ByteSize::new(250_000)];
        let report = CacheSizeSweep::new(PolicyKind::ALL.to_vec(), capacities.clone())
            .run_with_threads(&DenseTrace::build(&trace), 4);
        assert_eq!(
            report.points().len(),
            PolicyKind::ALL.len() * capacities.len()
        );
        for point in report.points() {
            let config = SimulationConfig::new(point.capacity);
            let hashed = Simulator::from_spec(point.policy, config).run_hashed(&trace);
            assert_eq!(
                point.report, hashed,
                "sweep cell ({:?}, {}) diverged from the hashed replay",
                point.policy, point.capacity
            );
            // And the indexed lookup finds exactly this point.
            let found = report
                .get(point.policy, point.capacity)
                .expect("index lookup");
            assert_eq!(found.report, point.report);
        }
    }
}

mod observer_props {
    use proptest::prelude::*;
    use webcache_core::PolicyKind;
    use webcache_sim::{NoopObserver, SimulationConfig, Simulator, WindowSpec, WindowedMetrics};
    use webcache_trace::{ByteSize, DocId, DocumentType, Request, Timestamp, Trace};

    fn arb_trace() -> impl Strategy<Value = Trace> {
        prop::collection::vec((0u64..40, 0u8..5, 1u64..100_000), 1..300).prop_map(|reqs| {
            reqs.into_iter()
                .enumerate()
                .map(|(i, (doc, ty, size))| {
                    Request::new(
                        Timestamp::from_millis(i as u64),
                        DocId::new(doc),
                        DocumentType::ALL[ty as usize],
                        ByteSize::new(size),
                    )
                })
                .collect()
        })
    }

    fn arb_window() -> impl Strategy<Value = WindowSpec> {
        prop_oneof![
            (1u64..80).prop_map(WindowSpec::Requests),
            (1u64..500_000).prop_map(|b| WindowSpec::Bytes(ByteSize::new(b))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Attaching an observer must not change the simulation: the
        /// no-op run and the windowed run produce identical reports, and
        /// the window series sums back exactly to the aggregate per-type
        /// counters.
        #[test]
        fn windowed_observer_is_invisible_and_sums_back(
            trace in arb_trace(),
            kind in prop::sample::select(PolicyKind::ALL.to_vec()),
            capacity in 1_000u64..200_000,
            warmup in 0.0f64..0.5,
            window in arb_window(),
        ) {
            let config = SimulationConfig::builder()
                .capacity(ByteSize::new(capacity))
                .warmup_fraction(warmup)
                .build();
            let unobserved = Simulator::new(kind.build(), config)
                .run_observed(&trace, &mut NoopObserver);
            let mut metrics = WindowedMetrics::new(window);
            let observed = Simulator::new(kind.build(), config)
                .run_observed(&trace, &mut metrics);
            prop_assert_eq!(&unobserved, &observed);

            // The windows partition the measured region and sum back.
            prop_assert_eq!(&metrics.aggregate_by_type(), observed.by_type());
            prop_assert_eq!(metrics.aggregate(), observed.overall());
            let warmup_end = trace.warmup_boundary(warmup) as u64;
            if observed.overall().requests > 0 {
                prop_assert_eq!(metrics.windows()[0].start_index, warmup_end);
                prop_assert_eq!(
                    metrics.windows().last().unwrap().end_index,
                    trace.len() as u64
                );
                for pair in metrics.windows().windows(2) {
                    prop_assert_eq!(pair[0].end_index, pair[1].start_index);
                    prop_assert!(pair[0].overall().requests > 0);
                }
            } else {
                prop_assert!(metrics.windows().is_empty());
            }
        }

        /// The dense and hashed replays feed the observer identically:
        /// windowed series collected on either path are equal.
        #[test]
        fn windowed_series_agree_across_replay_paths(
            trace in arb_trace(),
            kind in prop::sample::select(PolicyKind::ALL.to_vec()),
            capacity in 1_000u64..200_000,
            window in arb_window(),
        ) {
            let config = SimulationConfig::builder()
                .capacity(ByteSize::new(capacity))
                .build();
            let mut dense = WindowedMetrics::new(window);
            Simulator::new(kind.build(), config).run_observed(&trace, &mut dense);
            let mut hashed = WindowedMetrics::new(window);
            Simulator::new(kind.build(), config).run_hashed_observed(&trace, &mut hashed);
            prop_assert_eq!(dense.windows(), hashed.windows());
            prop_assert_eq!(dense.warmup_churn(), hashed.warmup_churn());
        }

        /// Eviction accounting balances: everything inserted either
        /// stays resident or was evicted, so the bytes evicted over the
        /// whole run can never exceed the bytes offered to the cache.
        #[test]
        fn eviction_churn_is_bounded_by_traffic(
            trace in arb_trace(),
            kind in prop::sample::select(PolicyKind::ALL.to_vec()),
            capacity in 1_000u64..50_000,
        ) {
            let config = SimulationConfig::builder()
                .capacity(ByteSize::new(capacity))
                .warmup_fraction(0.0)
                .build();
            let mut metrics = WindowedMetrics::per_requests(25);
            Simulator::new(kind.build(), config).run_observed(&trace, &mut metrics);
            let churn = metrics.total_churn();
            let total = metrics.aggregate();
            prop_assert!(churn.bytes_evicted <= total.bytes_requested);
            prop_assert!(churn.evictions <= total.requests);
            prop_assert_eq!(churn.admission_rejects, 0, "default admits everything");
        }
    }
}

mod hierarchy_props {
    use proptest::prelude::*;
    use webcache_core::PolicyKind;
    use webcache_sim::{simulate_hierarchy, HierarchyConfig};
    use webcache_trace::{ByteSize, DenseTrace, DocumentType};

    fn trace_of(reqs: &[(u64, u32)]) -> DenseTrace {
        DenseTrace::from_requests(
            reqs.iter()
                .map(|&(doc, size)| (doc, u64::from(size) + 1, DocumentType::Html)),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Hierarchy accounting is conservative: parent requests equal
        /// leaf misses, and combined rates stay within [0, 1].
        #[test]
        fn hierarchy_accounting(
            reqs in prop::collection::vec((0u64..30, 0u32..10_000), 1..300),
            leaves in 1usize..5,
            leaf_cap in 1_000u64..100_000,
            parent_cap in 1_000u64..1_000_000,
        ) {
            let config = HierarchyConfig::new(
                leaves,
                ByteSize::new(leaf_cap),
                ByteSize::new(parent_cap),
            )
            .with_leaf_policy(PolicyKind::Lru)
            .with_parent_policy(PolicyKind::LfuDa)
            .with_warmup_fraction(0.0);
            let r = simulate_hierarchy(&trace_of(&reqs), config);
            prop_assert_eq!(r.leaf.requests, reqs.len() as u64);
            prop_assert_eq!(r.parent.requests, r.leaf.requests - r.leaf.hits);
            prop_assert!(r.parent.hits <= r.parent.requests);
            let chr = r.combined_hit_rate();
            prop_assert!((0.0..=1.0).contains(&chr));
            let cbhr = r.combined_byte_hit_rate();
            prop_assert!((0.0..=1.0).contains(&cbhr));
            // Combined rate is at least the leaf rate.
            prop_assert!(chr >= r.leaf.hit_rate() - 1e-12);
        }

        /// With one leaf, a hierarchy's combined hit count is at least a
        /// single cache's of the same leaf size (the parent only adds).
        #[test]
        fn parent_never_hurts(
            reqs in prop::collection::vec((0u64..20, 0u32..5_000), 1..200),
            cap in 1_000u64..50_000,
        ) {
            use webcache_sim::{SimulationConfig, Simulator};
            let trace = trace_of(&reqs);
            let hierarchy = simulate_hierarchy(
                &trace,
                HierarchyConfig::new(1, ByteSize::new(cap), ByteSize::new(cap * 4))
                    .with_leaf_policy(PolicyKind::Lru)
                    .with_parent_policy(PolicyKind::Lru)
                    .with_warmup_fraction(0.0),
            );
            let single = Simulator::new(
                PolicyKind::Lru.build(),
                SimulationConfig::builder()
                    .capacity(ByteSize::new(cap))
                    .warmup_fraction(0.0)
                    .build(),
            )
            .run_dense(&trace);
            let combined_hits = hierarchy.leaf.hits + hierarchy.parent.hits;
            prop_assert!(combined_hits >= single.overall().hits);
        }
    }
}

mod oracle_props {
    use proptest::prelude::*;
    use webcache_core::PolicyKind;
    use webcache_sim::{clairvoyant_overall, SimulationConfig, Simulator};
    use webcache_trace::{ByteSize, DenseTrace, DocId, DocumentType, Request, Timestamp, Trace};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// With uniform sizes the clairvoyant policy is Belady's MIN:
        /// no online policy may beat it, at any capacity.
        #[test]
        fn oracle_dominates_online_policies(
            docs in prop::collection::vec(0u64..30, 1..300),
            blocks in 1u64..24,
            kind in prop::sample::select(PolicyKind::ALL.to_vec()),
        ) {
            let size = 100u64;
            let trace: Trace = docs
                .iter()
                .enumerate()
                .map(|(i, &d)| Request::new(
                    Timestamp::from_millis(i as u64),
                    DocId::new(d),
                    DocumentType::Html,
                    ByteSize::new(size),
                ))
                .collect();
            let config = SimulationConfig::builder()
                .capacity(ByteSize::new(blocks * size))
                .warmup_fraction(0.0)
                .build();
            let dense = DenseTrace::build(&trace);
            let oracle = clairvoyant_overall(&dense, &config);
            let online = Simulator::new(kind.build(), config).run_dense(&dense).overall();
            prop_assert!(
                oracle.hits >= online.hits,
                "{kind} beat MIN: {} vs {}", online.hits, oracle.hits
            );
            prop_assert_eq!(oracle.requests, online.requests);
        }
    }
}
