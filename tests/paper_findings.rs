//! End-to-end assertions of the paper's qualitative findings on the
//! synthetic DFN/RTP workloads — the reproduction oracle, kept at a
//! small scale so `cargo test` stays fast. The full-resolution runs live
//! in the bench harness (`cargo run -p webcache-bench --bin repro`).

use webcache::prelude::*;
use webcache::sim::SweepReport;

const SCALE: f64 = 1.0 / 256.0;
const SEED: u64 = 20020623;

fn dfn() -> Trace {
    WorkloadProfile::dfn().scaled(SCALE).build_trace(SEED)
}

fn sweep(trace: &Trace, policies: Vec<PolicyKind>) -> SweepReport {
    // A small-but-interesting subset of the paper's cache sizes.
    let overall = trace.overall_size();
    let capacities = vec![
        overall.scale(0.01),
        overall.scale(0.05),
        overall.scale(0.20),
    ];
    CacheSizeSweep::new(policies, capacities).run(&DenseTrace::build(trace))
}

fn hr(sweep: &SweepReport, policy: PolicyKind, ty: Option<DocumentType>, idx: usize) -> f64 {
    sweep.hit_rate_series(policy, ty)[idx].1
}

fn bhr(sweep: &SweepReport, policy: PolicyKind, ty: Option<DocumentType>, idx: usize) -> f64 {
    sweep.byte_hit_rate_series(policy, ty)[idx].1
}

const GDS1: PolicyKind = PolicyKind::Gds(CostModel::Constant);
const GDSTAR1: PolicyKind = PolicyKind::GdStar(CostModel::Constant);
const GDSP: PolicyKind = PolicyKind::Gds(CostModel::Packet);
const GDSTARP: PolicyKind = PolicyKind::GdStar(CostModel::Packet);

/// Figure 2: under constant cost, the size-aware schemes clearly beat the
/// recency/frequency schemes on image and HTML hit rate.
#[test]
fn constant_cost_size_aware_schemes_win_image_and_html_hit_rate() {
    let trace = dfn();
    let s = sweep(&trace, PolicyKind::PAPER_CONSTANT.to_vec());
    for idx in [0usize, 1] {
        for ty in [DocumentType::Image, DocumentType::Html] {
            let gd = hr(&s, GDSTAR1, Some(ty), idx);
            let gds = hr(&s, GDS1, Some(ty), idx);
            let lru = hr(&s, PolicyKind::Lru, Some(ty), idx);
            let lfuda = hr(&s, PolicyKind::LfuDa, Some(ty), idx);
            assert!(
                gd > lru && gd > lfuda && gds > lru && gds > lfuda,
                "{ty} @ size {idx}: GD*(1)={gd:.3} GDS(1)={gds:.3} LRU={lru:.3} LFU-DA={lfuda:.3}"
            );
        }
    }
}

/// Figure 2: frequency information helps — LFU-DA beats LRU and GD*(1)
/// at least matches GDS(1) on image hit rate.
#[test]
fn constant_cost_frequency_beats_recency_for_images() {
    let trace = dfn();
    let s = sweep(&trace, PolicyKind::PAPER_CONSTANT.to_vec());
    for idx in [0usize, 1] {
        let ty = Some(DocumentType::Image);
        assert!(
            hr(&s, PolicyKind::LfuDa, ty, idx) > hr(&s, PolicyKind::Lru, ty, idx),
            "LFU-DA must beat LRU on image HR at size {idx}"
        );
        assert!(
            hr(&s, GDSTAR1, ty, idx) > 0.98 * hr(&s, GDS1, ty, idx),
            "GD*(1) must at least match GDS(1) on image HR at size {idx}"
        );
    }
}

/// Figure 2: for multi-media documents the picture inverts — LRU achieves
/// the best hit rates and GD*(1) performs worst of the four.
#[test]
fn constant_cost_lru_wins_multimedia() {
    let trace = dfn();
    let s = sweep(&trace, PolicyKind::PAPER_CONSTANT.to_vec());
    let ty = Some(DocumentType::MultiMedia);
    // Compare at the smaller cache sizes where eviction pressure exists.
    let lru: f64 = hr(&s, PolicyKind::Lru, ty, 0) + hr(&s, PolicyKind::Lru, ty, 1);
    let gdstar: f64 = hr(&s, GDSTAR1, ty, 0) + hr(&s, GDSTAR1, ty, 1);
    let gds: f64 = hr(&s, GDS1, ty, 0) + hr(&s, GDS1, ty, 1);
    assert!(
        lru > gdstar,
        "LRU multimedia HR {lru:.3} must beat GD*(1) {gdstar:.3}"
    );
    assert!(
        lru > gds,
        "LRU multimedia HR {lru:.3} must beat GDS(1) {gds:.3}"
    );

    // And the byte-hit-rate gap is even larger (the paper's explanation
    // for GDS(1)/GD*(1)'s poor overall byte hit rate).
    let lru_b: f64 = bhr(&s, PolicyKind::Lru, ty, 0) + bhr(&s, PolicyKind::Lru, ty, 1);
    let gdstar_b: f64 = bhr(&s, GDSTAR1, ty, 0) + bhr(&s, GDSTAR1, ty, 1);
    assert!(
        lru_b > gdstar_b,
        "LRU multimedia BHR {lru_b:.3} must beat GD*(1) {gdstar_b:.3}"
    );
}

/// Figure 2: application documents show only a small advantage for the
/// size-aware schemes — GD*(1) ahead of LRU, but by far less than for
/// images.
#[test]
fn constant_cost_application_advantage_is_small() {
    let trace = dfn();
    let s = sweep(&trace, PolicyKind::PAPER_CONSTANT.to_vec());
    let idx = 1;
    let gd_app = hr(&s, GDSTAR1, Some(DocumentType::Application), idx);
    let lru_app = hr(&s, PolicyKind::Lru, Some(DocumentType::Application), idx);
    assert!(
        gd_app > lru_app,
        "GD*(1) application HR {gd_app:.3} must edge out LRU {lru_app:.3}"
    );
    let app_gap = gd_app - lru_app;
    let img_gap = hr(&s, GDSTAR1, Some(DocumentType::Image), idx)
        - hr(&s, PolicyKind::Lru, Some(DocumentType::Image), idx);
    assert!(
        img_gap > 2.0 * app_gap,
        "image advantage ({img_gap:.3}) must dwarf application advantage ({app_gap:.3})"
    );
}

/// Figure 3: under packet cost GD*(P) wins the overall hit rate at small
/// cache sizes, and does not discriminate large documents the way the
/// constant-cost variant does.
#[test]
fn packet_cost_gdstar_wins_overall_and_keeps_multimedia() {
    let trace = dfn();
    let s = sweep(&trace, PolicyKind::PAPER_PACKET.to_vec());
    for idx in [0usize, 1] {
        let gd = hr(&s, GDSTARP, None, idx);
        for other in [PolicyKind::Lru, PolicyKind::LfuDa, GDSP] {
            assert!(
                gd >= hr(&s, other, None, idx) * 0.999,
                "GD*(P) overall HR {gd:.3} must top {other} at size {idx}"
            );
        }
    }
    // GD*(P) multimedia HR must be far closer to LRU's than GD*(1)'s is.
    let s1 = sweep(&trace, vec![PolicyKind::Lru, GDSTAR1, GDSTARP]);
    let ty = Some(DocumentType::MultiMedia);
    let lru = hr(&s1, PolicyKind::Lru, ty, 0) + hr(&s1, PolicyKind::Lru, ty, 1);
    let gd1 = hr(&s1, GDSTAR1, ty, 0) + hr(&s1, GDSTAR1, ty, 1);
    let gdp = hr(&s1, GDSTARP, ty, 0) + hr(&s1, GDSTARP, ty, 1);
    assert!(
        (lru - gdp) < (lru - gd1),
        "packet cost must shrink the multimedia gap: LRU {lru:.3}, GD*(P) {gdp:.3}, GD*(1) {gd1:.3}"
    );
}

/// Hit rates grow with cache size for every scheme (the log-like growth
/// the paper cites), and all rates are valid fractions.
#[test]
fn hit_rates_grow_with_cache_size_and_stay_valid() {
    let trace = dfn();
    let s = sweep(&trace, PolicyKind::PAPER_CONSTANT.to_vec());
    for policy in s.policies() {
        let series = s.hit_rate_series(policy, None);
        for w in series.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 0.02,
                "{policy}: hit rate must not collapse with more capacity: {series:?}"
            );
        }
        for &(_, v) in &series {
            assert!((0.0..=1.0).contains(&v));
        }
    }
}

/// Section 4.4: on the RTP workload the overall ordering matches DFN
/// (GD*(1) still best overall HR under constant cost), but its margin
/// over GDS(1) shrinks or vanishes.
#[test]
fn rtp_shrinks_gdstar_advantage() {
    let dfn_trace = dfn();
    let rtp_trace = WorkloadProfile::rtp().scaled(SCALE).build_trace(SEED);
    let s_dfn = sweep(&dfn_trace, vec![PolicyKind::Lru, GDS1, GDSTAR1]);
    let s_rtp = sweep(&rtp_trace, vec![PolicyKind::Lru, GDS1, GDSTAR1]);
    let idx = 1;
    // Same headline ordering on both workloads: GD*(1) beats LRU.
    for (name, s) in [("DFN", &s_dfn), ("RTP", &s_rtp)] {
        assert!(
            hr(s, GDSTAR1, None, idx) > hr(s, PolicyKind::Lru, None, idx),
            "{name}: GD*(1) must beat LRU overall"
        );
    }
    // ...but the GD*-vs-GDS margin on image HR shrinks on RTP.
    let margin_dfn = hr(&s_dfn, GDSTAR1, Some(DocumentType::Image), idx)
        - hr(&s_dfn, GDS1, Some(DocumentType::Image), idx);
    let margin_rtp = hr(&s_rtp, GDSTAR1, Some(DocumentType::Image), idx)
        - hr(&s_rtp, GDS1, Some(DocumentType::Image), idx);
    assert!(
        margin_rtp < margin_dfn + 0.005,
        "RTP image-HR margin {margin_rtp:.4} must not exceed DFN margin {margin_dfn:.4}"
    );
}

/// Figure 1: GD*(P) keeps the per-type document mix of the cache close
/// to the request mix, and gives large document types a real byte share;
/// GD*(1) starves them.
#[test]
fn gdstar_packet_adapts_cache_composition() {
    use webcache::core::policy::{BetaMode, GdStar};

    let trace = dfn();
    let capacity = trace.overall_size().scale(0.03);
    let run = |cost: CostModel| {
        Simulator::new(
            Box::new(GdStar::new(cost, BetaMode::default())),
            SimulationConfig::builder()
                .capacity(capacity)
                .occupancy_samples(20)
                .build(),
        )
        .run(&trace)
    };
    let constant = run(CostModel::Constant);
    let packet = run(CostModel::Packet);

    // Document mix tracks request mix for both (documents are dominated
    // by small types either way)...
    let image_req_share = trace.requests_by_type()[DocumentType::Image] as f64 / trace.len() as f64;
    for report in [&constant, &packet] {
        let mean = report.occupancy.mean_document_fraction(DocumentType::Image);
        assert!(
            (mean - image_req_share).abs() < 0.10,
            "{}: image doc fraction {mean:.3} vs request share {image_req_share:.3}",
            report.policy
        );
    }
    // ...but only the packet variant grants multi media + application a
    // substantial byte share.
    let big_types_bytes = |r: &SimulationReport| {
        r.occupancy.mean_byte_fraction(DocumentType::MultiMedia)
            + r.occupancy.mean_byte_fraction(DocumentType::Application)
    };
    assert!(
        big_types_bytes(&packet) > 1.5 * big_types_bytes(&constant),
        "GD*(P) byte share {:.3} vs GD*(1) {:.3}",
        big_types_bytes(&packet),
        big_types_bytes(&constant)
    );
}
