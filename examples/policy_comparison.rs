//! Policy comparison: run the paper's four schemes (plus the classic
//! baselines FIFO, LFU and SIZE) across a range of cache sizes and print
//! the hit-rate panels of Figure 2 in tabular form.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example policy_comparison
//! ```

use webcache::prelude::*;
use webcache::sim::experiment::PAPER_SIZE_FRACTIONS;
use webcache::sim::report::{figure_panel, Metric};

fn main() {
    let trace = DenseTrace::build(&WorkloadProfile::dfn().scaled(1.0 / 512.0).build_trace(7));

    // The paper's schemes under constant cost, plus three baselines from
    // the comparative literature.
    let mut policies = PolicyKind::PAPER_CONSTANT.to_vec();
    policies.extend([PolicyKind::Fifo, PolicyKind::Lfu, PolicyKind::SizeBased]);

    let capacities = PAPER_SIZE_FRACTIONS
        .map(|f| trace.overall_size().fraction(f))
        .to_vec();
    let sweep = CacheSizeSweep::new(policies, capacities).run(&trace);

    println!("{}", figure_panel(&sweep, Metric::HitRate, None));
    println!("{}", figure_panel(&sweep, Metric::ByteHitRate, None));
    for ty in [DocumentType::Image, DocumentType::MultiMedia] {
        println!("{}", figure_panel(&sweep, Metric::HitRate, Some(ty)));
    }

    // The headline of the study, computed live:
    let small = sweep.capacities()[1];
    let gdstar = sweep
        .get(PolicyKind::GdStar(CostModel::Constant), small)
        .expect("grid cell exists");
    let lru = sweep.get(PolicyKind::Lru, small).expect("grid cell exists");
    println!(
        "At {small}: GD*(1) image hit rate {:.3} vs LRU {:.3} — frequency+size \
         awareness wins small documents;",
        gdstar.report.by_type()[DocumentType::Image].hit_rate(),
        lru.report.by_type()[DocumentType::Image].hit_rate(),
    );
    println!(
        "but multi-media byte hit rate: GD*(1) {:.3} vs LRU {:.3} — size-aware \
         schemes sacrifice large documents.",
        gdstar.report.by_type()[DocumentType::MultiMedia].byte_hit_rate(),
        lru.report.by_type()[DocumentType::MultiMedia].byte_hit_rate(),
    );
}
