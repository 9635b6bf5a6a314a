//! Cross-crate pipeline tests: the full journeys a downstream user takes
//! through the workspace, exercised end-to-end through the facade crate.

use webcache::core::policy::{BetaMode, GdStar};
use webcache::prelude::*;
use webcache::sim::{simulate_hierarchy, HierarchyConfig, LatencyModel};
use webcache::stats::StackDistances;
use webcache::trace::transform;
use webcache::trace::{format, format_bin, preprocess::preprocess, squid};
use webcache::workload::blend;

fn small_trace() -> Trace {
    WorkloadProfile::dfn().scaled(1.0 / 1024.0).build_trace(77)
}

/// generate → serialize (text and binary) → parse → identical trace →
/// identical characterization.
#[test]
fn serialization_pipeline_preserves_everything() {
    let trace = small_trace();

    let text = format::to_string(&trace);
    let from_text = format::from_str(&text).unwrap();
    assert_eq!(trace, from_text);

    let bytes = format_bin::to_bytes(&trace);
    let from_bin = format_bin::from_bytes(&bytes).unwrap();
    assert_eq!(trace, from_bin);

    let a = TraceCharacterization::measure(&DenseTrace::build(&trace));
    let b = TraceCharacterization::measure(&DenseTrace::build(&from_bin));
    assert_eq!(a, b);
}

/// Squid log text → parse → preprocess → simulate, all through public
/// API, with deterministic results.
#[test]
fn squid_pipeline_end_to_end() {
    // Fabricate a log whose cacheable remainder is known exactly.
    let mut lines = Vec::new();
    for i in 0..50 {
        lines.push(format!(
            "{}.000 5 client TCP_MISS/200 {} GET http://e.de/doc{}.html - DIRECT/- text/html",
            100 + i,
            1000 + (i % 5) * 100,
            i % 10,
        ));
        if i % 7 == 0 {
            lines.push(format!(
                "{}.500 5 client TCP_MISS/404 10 GET http://e.de/missing - DIRECT/- -",
                100 + i
            ));
        }
    }
    let entries = squid::parse_log(&lines.join("\n")).unwrap();
    let (trace, stats) = preprocess(&entries);
    assert_eq!(stats.output, 50);
    assert_eq!(stats.dropped_status, 8);
    assert_eq!(trace.distinct_documents(), 10);

    let report = Simulator::new(
        PolicyKind::Lru.build(),
        SimulationConfig::builder()
            .capacity(ByteSize::from_kib(64))
            .warmup_fraction(0.0)
            .build(),
    )
    .run(&trace);
    // 10 docs fit comfortably: everything but size-change misses hits.
    let overall = report.overall();
    assert_eq!(overall.requests, 50);
    assert!(overall.hits >= 30, "hits = {}", overall.hits);
}

/// Transform utilities compose with characterization and simulation.
#[test]
fn transforms_compose_with_analysis() {
    let trace = small_trace();
    let html = transform::filter_by_type(&trace, DocumentType::Html);
    assert!(!html.is_empty());
    let ch = TraceCharacterization::measure(&DenseTrace::build(&html));
    assert!((ch.breakdown[DocumentType::Html].total_requests - 1.0).abs() < 1e-9);

    let parts = transform::split_by_type(&trace);
    let total: usize = DocumentType::ALL.iter().map(|&ty| parts[ty].len()).sum();
    assert_eq!(total, trace.len());

    let front = transform::head(&trace, trace.len() / 2);
    let report = Simulator::new(
        PolicyKind::LfuDa.build(),
        SimulationConfig::new(trace.overall_size().scale(0.1)),
    )
    .run(&front);
    assert_eq!(
        report.overall().requests as usize,
        front.len() - front.len() / 10
    );
}

/// Stack-distance prediction agrees with actually simulating LRU on a
/// uniform-size rendering of the stream.
#[test]
fn stack_distance_predicts_uniform_lru() {
    let trace = small_trace();
    // Re-render with uniform 1 kB sizes so capacity maps to doc count.
    let uniform: Trace = trace
        .iter()
        .map(|r| Request::new(r.timestamp, r.doc, r.doc_type, ByteSize::from_kib(1)))
        .collect();
    let stack = StackDistances::measure(&DenseTrace::build(&uniform), None);
    for capacity_docs in [50usize, 500, 5_000] {
        let predicted = stack.lru_hit_rate(capacity_docs);
        let report = Simulator::new(
            PolicyKind::Lru.build(),
            SimulationConfig::builder()
                .capacity(ByteSize::from_kib(capacity_docs as u64))
                .warmup_fraction(0.0)
                .build(),
        )
        .run(&uniform);
        let simulated = report.overall().hit_rate();
        assert!(
            (predicted - simulated).abs() < 1e-9,
            "capacity {capacity_docs}: predicted {predicted}, simulated {simulated}"
        );
    }
}

/// The hierarchy, latency model and profile blending compose.
#[test]
fn extensions_compose() {
    let mid = blend(&WorkloadProfile::dfn(), &WorkloadProfile::rtp(), 0.5).scaled(1.0 / 1024.0);
    let trace = mid.build_trace(5);

    let hierarchy = simulate_hierarchy(
        &DenseTrace::build(&trace),
        HierarchyConfig::new(
            2,
            trace.overall_size().scale(0.02),
            trace.overall_size().scale(0.10),
        ),
    );
    assert!(hierarchy.combined_hit_rate() > 0.0);
    assert!(hierarchy.combined_hit_rate() <= 1.0);

    let single = Simulator::new(
        PolicyKind::GdStar(CostModel::Constant).build(),
        SimulationConfig::new(trace.overall_size().scale(0.02)),
    )
    .run(&trace);
    let latency = LatencyModel::campus_2001().estimate(&single);
    assert!(latency.savings() > 0.0);
    assert!(latency.speedup() > 1.0);
}

/// GD* fixed-β=1 equals GDSF through the full simulator, not just at the
/// policy level.
#[test]
fn gdsf_equals_gdstar_beta_one_end_to_end() {
    let trace = small_trace();
    let capacity = trace.overall_size().scale(0.05);
    let gdstar = Simulator::new(
        Box::new(GdStar::new(CostModel::Packet, BetaMode::Fixed(1.0))),
        SimulationConfig::new(capacity),
    )
    .run(&trace);
    let gdsf = Simulator::new(
        PolicyKind::Gdsf(CostModel::Packet).build(),
        SimulationConfig::new(capacity),
    )
    .run(&trace);
    assert_eq!(gdstar.overall().hits, gdsf.overall().hits);
    assert_eq!(gdstar.overall().bytes_hit, gdsf.overall().bytes_hit);
}

/// Determinism across the whole stack: same seeds, same results,
/// including the parallel sweep.
#[test]
fn full_stack_determinism() {
    let run = || {
        let trace = WorkloadProfile::rtp().scaled(1.0 / 1024.0).build_trace(3);
        let capacities = vec![
            trace.overall_size().scale(0.02),
            trace.overall_size().scale(0.10),
        ];
        CacheSizeSweep::new(PolicyKind::PAPER_PACKET.to_vec(), capacities)
            .run(&DenseTrace::build(&trace))
    };
    assert_eq!(run(), run());
}
