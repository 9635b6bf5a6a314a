//! One function per reproduced table/figure.
//!
//! Each function returns the rendered plain-text artifact; the repro
//! binary prints it and EXPERIMENTS.md archives it. See DESIGN.md § 4 for
//! the experiment index.

use webcache_core::policy::{BetaMode, GdStar};
use webcache_core::{CostModel, PolicyKind};
use webcache_sim::experiment::PAPER_SIZE_FRACTIONS;
use webcache_sim::report::figure;
use webcache_sim::{
    CacheSizeSweep, ModificationRule, SimulationConfig, SimulationReport, Simulator,
};
use webcache_stats::{Table, TraceCharacterization};
use webcache_trace::{ByteSize, DenseTrace, DocumentType, Trace};

use crate::{dfn_trace, rtp_trace};

/// One experiment: trace scale and seed in, the rendered artifact out.
pub type Experiment = fn(f64, u64) -> String;

/// Every experiment by its `repro` name, in the order `repro all` runs
/// them.
pub const ALL: [(&str, Experiment); 16] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("figure1", figure1),
    ("figure2", figure2),
    ("figure3", figure3),
    ("rtp", rtp_summary),
    ("ablation-beta", ablation_beta),
    ("ablation-modification", ablation_modification),
    ("ablation-admission", ablation_admission),
    ("future", future_workload),
    ("loglike", loglike_growth),
    ("per-type-beta", per_type_beta),
    ("oracle", oracle_efficiency),
];

fn characterize(trace: &Trace) -> TraceCharacterization {
    TraceCharacterization::measure(&DenseTrace::build(trace))
}

/// Table 1: properties of the DFN and RTP traces.
pub fn table1(scale: f64, seed: u64) -> String {
    let dfn = characterize(&dfn_trace(scale, seed));
    let rtp = characterize(&rtp_trace(scale, seed));
    let mut t = Table::new(vec!["Property".into(), "DFN".into(), "RTP".into()]).with_title(
        format!("Table 1. Properties of DFN and RTP trace (scale {scale:.5})"),
    );
    type Row = (&'static str, Box<dyn Fn(&TraceCharacterization) -> String>);
    let rows: [Row; 4] = [
        (
            "Distinct Documents",
            Box::new(|c: &TraceCharacterization| c.properties.distinct_documents.to_string()),
        ),
        (
            "Overall Size (GB)",
            Box::new(|c| format!("{:.3}", c.properties.overall_size.as_gib())),
        ),
        (
            "Total Requests",
            Box::new(|c| c.properties.total_requests.to_string()),
        ),
        (
            "Requested Data (GB)",
            Box::new(|c| format!("{:.3}", c.properties.requested_bytes.as_gib())),
        ),
    ];
    for (label, get) in rows {
        t.push_row(vec![label.to_owned(), get(&dfn), get(&rtp)]);
    }
    t.render()
}

/// Table 2: DFN workload characteristics broken down into document types.
pub fn table2(scale: f64, seed: u64) -> String {
    characterize(&dfn_trace(scale, seed))
        .breakdown_table("Table 2. DFN Trace")
        .render()
}

/// Table 3: RTP workload characteristics broken down into document types.
pub fn table3(scale: f64, seed: u64) -> String {
    characterize(&rtp_trace(scale, seed))
        .breakdown_table("Table 3. RTP Trace")
        .render()
}

/// Table 4: DFN per-type size statistics and temporal locality.
pub fn table4(scale: f64, seed: u64) -> String {
    characterize(&dfn_trace(scale, seed))
        .statistics_table("Table 4. DFN Trace")
        .render()
}

/// Table 5: RTP per-type size statistics and temporal locality.
pub fn table5(scale: f64, seed: u64) -> String {
    characterize(&rtp_trace(scale, seed))
        .statistics_table("Table 5. RTP Trace")
        .render()
}

/// The cache size of the Figure 1 experiment: 1 GB at full scale.
fn figure1_capacity(scale: f64) -> ByteSize {
    ByteSize::new((ByteSize::from_gib(1).as_f64() * scale).round().max(1024.0) as u64)
}

/// Runs one GD\* variant for Figure 1 and returns its report.
fn figure1_run(trace: &Trace, cost: CostModel, capacity: ByteSize) -> SimulationReport {
    let config = SimulationConfig::builder()
        .capacity(capacity)
        .occupancy_samples(50)
        .build();
    Simulator::new(Box::new(GdStar::new(cost, BetaMode::default())), config).run(trace)
}

/// Figure 1: adaptability of GD\* — occupancy of the web cache by the
/// different document types, GD\*(1) vs GD\*(P) on the DFN trace.
pub fn figure1(scale: f64, seed: u64) -> String {
    let trace = dfn_trace(scale, seed);
    let capacity = figure1_capacity(scale);
    let requested = trace.requested_bytes_by_type();
    let total_bytes = trace.requested_bytes().as_f64();
    let requests = trace.requests_by_type();
    let total_reqs = trace.len() as f64;

    let mut out = format!(
        "Figure 1. Occupation of web cache by the different document types\n\
         (DFN trace, cache size {capacity}, GD* adaptive beta)\n\n"
    );
    for cost in [CostModel::Constant, CostModel::Packet] {
        let report = figure1_run(&trace, cost, capacity);
        let mut t = Table::new(vec![
            "Type".into(),
            "req share %".into(),
            "byte share %".into(),
            "mean cached docs %".into(),
            "mean cached bytes %".into(),
            "byte-frac spread".into(),
        ])
        .with_title(format!("GD*({})", cost.tag()));
        for ty in DocumentType::ALL {
            t.push_row(vec![
                ty.label().to_owned(),
                format!("{:.2}", requests[ty] as f64 / total_reqs * 100.0),
                format!("{:.2}", requested[ty].as_f64() / total_bytes * 100.0),
                format!("{:.2}", report.occupancy.mean_document_fraction(ty) * 100.0),
                format!("{:.2}", report.occupancy.mean_byte_fraction(ty) * 100.0),
                format!("{:.3}", report.occupancy.byte_fraction_spread(ty)),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Runs the Figure 2/3 sweep grid for the given policies.
fn sweep(trace: &DenseTrace, policies: Vec<PolicyKind>) -> webcache_sim::SweepReport {
    let overall = trace.overall_size();
    let capacities = PAPER_SIZE_FRACTIONS.map(|f| overall.fraction(f)).to_vec();
    CacheSizeSweep::new(policies, capacities).run(trace)
}

/// Figure 2: DFN trace, constant cost model — hit rate and byte hit rate
/// per document type for LRU, LFU-DA, GDS(1), GD\*(1).
pub fn figure2(scale: f64, seed: u64) -> String {
    let trace = DenseTrace::build(&dfn_trace(scale, seed));
    let report = sweep(&trace, PolicyKind::PAPER_CONSTANT.to_vec());
    figure(
        &report,
        "Figure 2. DFN trace: breakdown of hit rates under constant cost model",
    )
}

/// Figure 3: DFN trace, packet cost model — hit rate and byte hit rate
/// per document type for LRU, LFU-DA, GDS(P), GD\*(P).
pub fn figure3(scale: f64, seed: u64) -> String {
    let trace = DenseTrace::build(&dfn_trace(scale, seed));
    let report = sweep(&trace, PolicyKind::PAPER_PACKET.to_vec());
    figure(
        &report,
        "Figure 3. DFN trace: breakdown of hit rates under packet cost model",
    )
}

/// Section 4.4: the RTP results under both cost models (the paper
/// summarizes these textually; we print the full panels).
pub fn rtp_summary(scale: f64, seed: u64) -> String {
    let trace = DenseTrace::build(&rtp_trace(scale, seed));
    let constant = sweep(&trace, PolicyKind::PAPER_CONSTANT.to_vec());
    let packet = sweep(&trace, PolicyKind::PAPER_PACKET.to_vec());
    let mut out = figure(&constant, "Section 4.4 (RTP trace): constant cost model");
    out.push_str(&figure(
        &packet,
        "Section 4.4 (RTP trace): packet cost model",
    ));
    out
}

/// Ablation A1: GD\* with fixed β values vs the online-adaptive
/// estimator, DFN trace, constant cost.
pub fn ablation_beta(scale: f64, seed: u64) -> String {
    let trace = dfn_trace(scale, seed);
    let capacity = ByteSize::new((trace.overall_size().as_f64() * 0.05).round() as u64);
    let config = SimulationConfig::builder().capacity(capacity).build();
    let mut t = Table::new(vec![
        "beta mode".into(),
        "hit rate".into(),
        "byte hit rate".into(),
        "image HR".into(),
        "multimedia BHR".into(),
    ])
    .with_title(format!(
        "Ablation A1. GD*(1) beta sensitivity (DFN, cache {capacity})"
    ));
    let mut run = |label: String, mode: BetaMode| {
        let report =
            Simulator::new(Box::new(GdStar::new(CostModel::Constant, mode)), config).run(&trace);
        let overall = report.overall();
        t.push_row(vec![
            label,
            format!("{:.4}", overall.hit_rate()),
            format!("{:.4}", overall.byte_hit_rate()),
            format!("{:.4}", report.by_type()[DocumentType::Image].hit_rate()),
            format!(
                "{:.4}",
                report.by_type()[DocumentType::MultiMedia].byte_hit_rate()
            ),
        ]);
    };
    for beta in [0.25, 0.5, 1.0, 2.0, 4.0] {
        run(format!("fixed {beta}"), BetaMode::Fixed(beta));
    }
    run("adaptive".to_owned(), BetaMode::default());
    t.render()
}

/// Ablation A2: the paper's 5%-delta modification rule vs the
/// any-size-change rule of Jin & Bestavros [7, 8].
pub fn ablation_modification(scale: f64, seed: u64) -> String {
    let trace = dfn_trace(scale, seed);
    let capacity = ByteSize::new((trace.overall_size().as_f64() * 0.05).round() as u64);
    let mut t = Table::new(vec![
        "rule".into(),
        "policy".into(),
        "hit rate".into(),
        "byte hit rate".into(),
        "modification misses".into(),
        "multimedia BHR".into(),
    ])
    .with_title(format!(
        "Ablation A2. Modification-detection rule (DFN, cache {capacity})"
    ));
    for rule in [ModificationRule::SizeDelta, ModificationRule::AnyChange] {
        for kind in [PolicyKind::Lru, PolicyKind::GdStar(CostModel::Constant)] {
            let config = SimulationConfig::builder()
                .capacity(capacity)
                .modification_rule(rule)
                .build();
            let report = Simulator::new(kind.build(), config).run(&trace);
            let overall = report.overall();
            t.push_row(vec![
                format!("{rule:?}"),
                kind.label(),
                format!("{:.4}", overall.hit_rate()),
                format!("{:.4}", overall.byte_hit_rate()),
                overall.modification_misses.to_string(),
                format!(
                    "{:.4}",
                    report.by_type()[DocumentType::MultiMedia].byte_hit_rate()
                ),
            ]);
        }
    }
    t.render()
}

/// Ablation A3: admission control in front of LRU — the size-threshold
/// (LRU-THOLD) and second-hit filters of the proxy literature, compared
/// against plain LRU and GD\*(1) on the DFN workload.
pub fn ablation_admission(scale: f64, seed: u64) -> String {
    use webcache_core::{AdmissionSpec, PolicySpec};

    let trace = dfn_trace(scale, seed);
    let capacity = ByteSize::new((trace.overall_size().as_f64() * 0.05).round() as u64);
    let mut t = Table::new(vec![
        "configuration".into(),
        "hit rate".into(),
        "byte hit rate".into(),
        "image HR".into(),
        "multimedia BHR".into(),
    ])
    .with_title(format!(
        "Ablation A3. Admission control (DFN, cache {capacity})"
    ));
    let mut run = |label: &str, kind: PolicyKind, admission: AdmissionSpec| {
        let spec = PolicySpec::new(admission, kind);
        let report = Simulator::from_spec(spec, SimulationConfig::new(capacity)).run(&trace);
        let overall = report.overall();
        t.push_row(vec![
            label.to_owned(),
            format!("{:.4}", overall.hit_rate()),
            format!("{:.4}", overall.byte_hit_rate()),
            format!("{:.4}", report.by_type()[DocumentType::Image].hit_rate()),
            format!(
                "{:.4}",
                report.by_type()[DocumentType::MultiMedia].byte_hit_rate()
            ),
        ]);
    };
    run("LRU", PolicyKind::Lru, AdmissionSpec::All);
    run(
        "LRU + THOLD 64KiB",
        PolicyKind::Lru,
        AdmissionSpec::MaxSize(ByteSize::from_kib(64)),
    );
    run(
        "LRU + second-hit",
        PolicyKind::Lru,
        AdmissionSpec::SecondHit(1 << 16),
    );
    run(
        "GD*(1)",
        PolicyKind::GdStar(CostModel::Constant),
        AdmissionSpec::All,
    );
    t.render()
}

/// Extension E1: the paper's future-workload conjecture. Walks the DFN
/// mix towards the rich-media future profile and tracks how each
/// scheme's overall hit rate and multi-media byte hit rate respond.
pub fn future_workload(scale: f64, seed: u64) -> String {
    use webcache_workload::{blend, WorkloadProfile};

    let dfn = WorkloadProfile::dfn();
    let future = WorkloadProfile::future();
    let mut t_table = Table::new(vec![
        "mm+app req share".into(),
        "LRU HR".into(),
        "GD*(1) HR".into(),
        "GD*(P) HR".into(),
        "LRU BHR".into(),
        "GD*(1) BHR".into(),
        "GD*(P) BHR".into(),
    ])
    .with_title(
        "Extension E1. Policy performance as the workload shifts towards \
         multi media / application (DFN -> FUTURE)",
    );
    for step in 0..=4 {
        let t = step as f64 / 4.0;
        let profile = blend(&dfn, &future, t).scaled(scale);
        let trace = profile.build_trace(seed);
        let capacity = ByteSize::new((trace.overall_size().as_f64() * 0.05).round() as u64);
        let mm_app_share = {
            let reqs = trace.requests_by_type();
            (reqs[DocumentType::MultiMedia] + reqs[DocumentType::Application]) as f64
                / trace.len() as f64
        };
        let mut row = vec![format!("{:.3}", mm_app_share)];
        let mut rates = Vec::new();
        for kind in [
            PolicyKind::Lru,
            PolicyKind::GdStar(CostModel::Constant),
            PolicyKind::GdStar(CostModel::Packet),
        ] {
            let report = Simulator::new(
                kind.build(),
                SimulationConfig::builder().capacity(capacity).build(),
            )
            .run(&trace);
            rates.push((
                report.overall().hit_rate(),
                report.overall().byte_hit_rate(),
            ));
        }
        for &(hr, _) in &rates {
            row.push(format!("{hr:.4}"));
        }
        for &(_, bhr) in &rates {
            row.push(format!("{bhr:.4}"));
        }
        t_table.push_row(row);
    }
    t_table.render()
}

/// Extension E2: the log-like growth law. Breslau et al. (the paper's
/// reference \[3\]) showed hit rate and byte hit rate grow roughly
/// logarithmically in cache size; this experiment fits `HR = a·ln C + b`
/// over the Figure 2 sweep and reports the per-policy goodness of fit.
pub fn loglike_growth(scale: f64, seed: u64) -> String {
    use webcache_stats::regression::fit_line;

    let trace = DenseTrace::build(&dfn_trace(scale, seed));
    let report = sweep(&trace, PolicyKind::PAPER_CONSTANT.to_vec());
    let mut t = Table::new(vec![
        "policy".into(),
        "HR slope /ln(C)".into(),
        "HR R^2".into(),
        "BHR slope /ln(C)".into(),
        "BHR R^2".into(),
    ])
    .with_title(
        "Extension E2. Log-like growth of hit rates in cache size          (fit over the Figure 2 sweep, excluding the saturated largest size)",
    );
    for policy in report.policies() {
        let fit_of = |series: Vec<(ByteSize, f64)>| {
            let pts: Vec<(f64, f64)> = series
                .iter()
                .take(series.len().saturating_sub(1))
                .map(|&(c, v)| (c.as_f64().ln(), v))
                .collect();
            fit_line(&pts)
        };
        let hr = fit_of(report.hit_rate_series(policy, None));
        let bhr = fit_of(report.byte_hit_rate_series(policy, None));
        let fmt = |f: Option<webcache_stats::LineFit>, slope: bool| match f {
            Some(f) => format!("{:.4}", if slope { f.slope } else { f.r_squared }),
            None => "-".into(),
        };
        t.push_row(vec![
            policy.label(),
            fmt(hr, true),
            fmt(hr, false),
            fmt(bhr, true),
            fmt(bhr, false),
        ]);
    }
    t.render()
}

/// Extension E3: per-type β for GD\*. Section 4.4 attributes GD\*'s RTP
/// losses to per-type β values that diverge from the image-dominated
/// global estimate; this experiment runs GD\* with one online β per
/// document type and compares against the paper's single-β variant on
/// both workloads.
pub fn per_type_beta(scale: f64, seed: u64) -> String {
    let mut t = Table::new(vec![
        "trace / cost".into(),
        "GD* HR".into(),
        "GD*/type HR".into(),
        "GD* BHR".into(),
        "GD*/type BHR".into(),
        "GD* mm BHR".into(),
        "GD*/type mm BHR".into(),
    ])
    .with_title("Extension E3. GD* with per-type online beta vs the single global beta");
    for (name, trace) in [
        ("DFN", dfn_trace(scale, seed)),
        ("RTP", rtp_trace(scale, seed)),
    ] {
        let capacity = ByteSize::new((trace.overall_size().as_f64() * 0.05).round() as u64);
        for cost in [CostModel::Constant, CostModel::Packet] {
            let run = |policy: GdStar| {
                Simulator::new(
                    Box::new(policy),
                    SimulationConfig::builder().capacity(capacity).build(),
                )
                .run(&trace)
            };
            let global = run(GdStar::new(cost, BetaMode::default()));
            let typed = run(GdStar::with_per_type_beta(cost));
            t.push_row(vec![
                format!("{name} / GD*({})", cost.tag()),
                format!("{:.4}", global.overall().hit_rate()),
                format!("{:.4}", typed.overall().hit_rate()),
                format!("{:.4}", global.overall().byte_hit_rate()),
                format!("{:.4}", typed.overall().byte_hit_rate()),
                format!(
                    "{:.4}",
                    global.by_type()[DocumentType::MultiMedia].byte_hit_rate()
                ),
                format!(
                    "{:.4}",
                    typed.by_type()[DocumentType::MultiMedia].byte_hit_rate()
                ),
            ]);
        }
    }
    t.render()
}

/// Extension E4: clairvoyant efficiency. How close does each online
/// scheme come to the Belady-style offline upper bound, per cost model
/// and cache size? "87 % of clairvoyant" contextualizes every absolute
/// hit rate in the study.
pub fn oracle_efficiency(scale: f64, seed: u64) -> String {
    use webcache_sim::clairvoyant_overall;

    let trace = DenseTrace::build(&dfn_trace(scale, seed));
    let overall = trace.overall_size();
    let mut t = Table::new(vec![
        "cache size".into(),
        "clairvoyant HR".into(),
        "LRU".into(),
        "LFU-DA".into(),
        "GDS(1)".into(),
        "GD*(1)".into(),
    ])
    .with_title(
        "Extension E4. Fraction of the clairvoyant (Belady-style) hit rate          achieved by each online scheme (DFN)",
    );
    for frac in [0.01, 0.05, 0.20] {
        let capacity = ByteSize::new((overall.as_f64() * frac).round() as u64);
        let config = SimulationConfig::builder().capacity(capacity).build();
        let oracle = clairvoyant_overall(&trace, &config).hit_rate();
        let mut row = vec![
            format!("{capacity} ({:.0}%)", frac * 100.0),
            format!("{oracle:.4}"),
        ];
        for kind in PolicyKind::PAPER_CONSTANT {
            let hr = Simulator::new(kind.build(), config)
                .run_dense(&trace)
                .overall()
                .hit_rate();
            row.push(format!("{:.1}%", hr / oracle * 100.0));
        }
        t.push_row(row);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: f64 = 1.0 / 1024.0;

    #[test]
    fn tables_render() {
        for text in [
            table1(S, 1),
            table2(S, 1),
            table3(S, 1),
            table4(S, 1),
            table5(S, 1),
        ] {
            assert!(text.lines().count() >= 6, "{text}");
        }
    }

    #[test]
    fn figure1_reports_both_cost_models() {
        let text = figure1(S, 1);
        assert!(text.contains("GD*(1)"));
        assert!(text.contains("GD*(P)"));
    }

    #[test]
    fn ablations_render() {
        assert!(ablation_beta(S, 1).contains("adaptive"));
        assert!(ablation_modification(S, 1).contains("AnyChange"));
    }
}
