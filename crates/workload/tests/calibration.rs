//! End-to-end calibration tests: the `webcache-stats` estimators must
//! recover the workload parameters that `webcache-workload` was asked to
//! generate — the loop that justifies substituting synthetic traces for
//! the unavailable DFN/RTP originals.

use webcache_stats::{correlation, popularity, TraceCharacterization};
use webcache_trace::{DenseTrace, DocumentType};
use webcache_workload::{SizeModel, TypeProfile, WorkloadProfile};

/// A workload small enough for CI but big enough for stable estimates.
fn test_profile() -> WorkloadProfile {
    WorkloadProfile::dfn().scaled(1.0 / 64.0)
}

#[test]
fn per_type_mix_matches_profile() {
    let p = test_profile();
    let trace = DenseTrace::build(&p.build_trace(11));
    let ch = TraceCharacterization::measure(&trace);
    let total_reqs = p.total_requests() as f64;
    let total_docs = p.total_documents() as f64;
    for (ty, tp) in p.types.iter() {
        let b = &ch.breakdown[ty];
        let want_reqs = tp.requests as f64 / total_reqs;
        let want_docs = tp.distinct_documents as f64 / total_docs;
        assert!(
            (b.total_requests - want_reqs).abs() < 1e-9,
            "{ty}: request share {} vs profile {want_reqs}",
            b.total_requests
        );
        assert!(
            (b.distinct_documents - want_docs).abs() < 1e-9,
            "{ty}: distinct share {} vs profile {want_docs}",
            b.distinct_documents
        );
    }
}

#[test]
fn size_statistics_match_size_models() {
    let p = test_profile();
    let trace = DenseTrace::build(&p.build_trace(12));
    let ch = TraceCharacterization::measure(&trace);
    for ty in [
        DocumentType::Image,
        DocumentType::Html,
        DocumentType::Application,
    ] {
        let SizeModel { mean, median, .. } = p.types[ty].size_model;
        let got = &ch.statistics[ty].document_size;
        // Application sizes are extremely heavy-tailed (mean/median ≈ 12):
        // the sample mean of a few thousand documents is noisy and the
        // max-size clamp truncates ~8% of the mass, so allow a wider band.
        let mean_tolerance = if ty == DocumentType::Application {
            0.35
        } else {
            0.15
        };
        assert!(
            (got.mean / mean - 1.0).abs() < mean_tolerance,
            "{ty}: doc-size mean {} vs target {mean}",
            got.mean
        );
        assert!(
            (got.median / median - 1.0).abs() < 0.15,
            "{ty}: doc-size median {} vs target {median}",
            got.median
        );
    }
}

#[test]
fn multimedia_and_application_dominate_bytes() {
    // The paper: MM + application are ~5% of documents/requests but > 40%
    // of trace size and requested bytes.
    let trace = DenseTrace::build(&test_profile().build_trace(13));
    let ch = TraceCharacterization::measure(&trace);
    let mm = &ch.breakdown[DocumentType::MultiMedia];
    let app = &ch.breakdown[DocumentType::Application];
    let req_share = mm.total_requests + app.total_requests;
    let byte_share = mm.requested_bytes + app.requested_bytes;
    assert!(req_share < 0.08, "request share = {req_share}");
    assert!(byte_share > 0.40, "byte share = {byte_share}");
}

#[test]
fn alpha_estimates_follow_profile_ordering() {
    let p = test_profile();
    let trace = DenseTrace::build(&p.build_trace(14));
    let a_img = popularity::alpha(&trace, Some(DocumentType::Image)).unwrap();
    let a_html = popularity::alpha(&trace, Some(DocumentType::Html)).unwrap();
    let a_app = popularity::alpha(&trace, Some(DocumentType::Application)).unwrap();
    // Absolute recovery within a loose band...
    assert!(
        (a_img - p.types[DocumentType::Image].alpha).abs() < 0.35,
        "image alpha = {a_img}"
    );
    // ...and the qualitative ordering of Table 4 (images steepest).
    assert!(
        a_img > a_app,
        "alpha: images {a_img} vs application {a_app}"
    );
    assert!(
        a_img > a_html * 0.9,
        "alpha: images {a_img} vs html {a_html}"
    );
}

#[test]
fn beta_estimates_follow_profile_ordering() {
    // A dedicated profile with requests-per-document high enough for rich
    // gap statistics in both types under comparison.
    let mut p = WorkloadProfile::empty("beta-check");
    p.types[DocumentType::Image] = TypeProfile {
        distinct_documents: 4_000,
        requests: 30_000,
        alpha: 0.8,
        beta: 0.55,
        size_model: SizeModel::log_normal(4_608.0, 2_048.0, 30, 2 << 20),
        modification_rate: 0.0,
        interrupt_rate: 0.0,
        size_popularity_correlation: 0.0,
    };
    p.types[DocumentType::MultiMedia] = TypeProfile {
        distinct_documents: 4_000,
        requests: 30_000,
        alpha: 0.8,
        beta: 1.5,
        size_model: SizeModel::log_normal(946_176.0, 307_200.0, 1 << 10, 100 << 20),
        modification_rate: 0.0,
        interrupt_rate: 0.0,
        size_popularity_correlation: 0.0,
    };
    let trace = DenseTrace::build(&p.build_trace(15));
    let b_img = correlation::beta(&trace, Some(DocumentType::Image)).unwrap();
    let b_mm = correlation::beta(&trace, Some(DocumentType::MultiMedia)).unwrap();
    assert!(
        b_mm > b_img + 0.3,
        "beta ordering: multimedia {b_mm} vs image {b_img}"
    );
    assert!((b_img - 0.55).abs() < 0.4, "image beta = {b_img}");
    assert!((b_mm - 1.5).abs() < 0.5, "multimedia beta = {b_mm}");
}

#[test]
fn rtp_workload_is_flatter_and_more_correlated_than_dfn() {
    let dfn = DenseTrace::build(&WorkloadProfile::dfn().scaled(1.0 / 64.0).build_trace(16));
    let rtp = DenseTrace::build(&WorkloadProfile::rtp().scaled(1.0 / 64.0).build_trace(16));
    let a_dfn = popularity::alpha(&dfn, Some(DocumentType::Image)).unwrap();
    let a_rtp = popularity::alpha(&rtp, Some(DocumentType::Image)).unwrap();
    assert!(
        a_rtp < a_dfn + 0.05,
        "RTP image alpha {a_rtp} must not exceed DFN {a_dfn}"
    );
    let ch_rtp = TraceCharacterization::measure(&rtp);
    let ch_dfn = TraceCharacterization::measure(&dfn);
    assert!(
        ch_rtp.breakdown[DocumentType::Html].total_requests
            > 1.5 * ch_dfn.breakdown[DocumentType::Html].total_requests,
        "RTP must carry a much larger HTML request share"
    );
}
