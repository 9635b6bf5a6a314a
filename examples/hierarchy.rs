//! Two-level proxy hierarchy: hit-rate-oriented institutional leaves in
//! front of a byte-hit-rate-oriented backbone parent — the deployment
//! setting that motivates the paper's two cost models.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example hierarchy
//! ```

use webcache::prelude::*;
use webcache::sim::{simulate_hierarchy, HierarchyConfig};

fn main() {
    let trace = DenseTrace::build(&WorkloadProfile::dfn().scaled(1.0 / 512.0).build_trace(9));
    let leaf_capacity = trace.overall_size().scale(0.01);
    let parent_capacity = trace.overall_size().scale(0.08);

    println!(
        "workload: {} requests; leaves at {leaf_capacity} each, parent at {parent_capacity}\n",
        trace.len()
    );

    // Compare leaf/parent policy pairings.
    let pairings = [
        (PolicyKind::Lru, PolicyKind::Lru),
        (PolicyKind::GdStar(CostModel::Constant), PolicyKind::Lru),
        (
            PolicyKind::GdStar(CostModel::Constant),
            PolicyKind::GdStar(CostModel::Packet),
        ),
        (
            PolicyKind::Gds(CostModel::Constant),
            PolicyKind::Gds(CostModel::Packet),
        ),
    ];
    println!(
        "{:28} {:>9} {:>11} {:>13} {:>15}",
        "leaf / parent", "leaf HR", "parent HR", "combined HR", "combined BHR"
    );
    for (leaf, parent) in pairings {
        let config = HierarchyConfig::new(4, leaf_capacity, parent_capacity)
            .with_leaf_policy(leaf)
            .with_parent_policy(parent);
        let report = simulate_hierarchy(&trace, config);
        println!(
            "{:28} {:>9.3} {:>11.3} {:>13.3} {:>15.3}",
            format!("{} / {}", leaf.label(), parent.label()),
            report.leaf.hit_rate(),
            report.parent.hit_rate(),
            report.combined_hit_rate(),
            report.combined_byte_hit_rate(),
        );
    }

    // How much does the shared parent help over isolated leaves?
    let isolated = simulate_hierarchy(
        &trace,
        HierarchyConfig::new(4, leaf_capacity, ByteSize::new(1)),
    );
    let shared = simulate_hierarchy(
        &trace,
        HierarchyConfig::new(4, leaf_capacity, parent_capacity),
    );
    println!(
        "\nparent contribution: combined hit rate {:.3} (shared parent) vs {:.3} (no parent)",
        shared.combined_hit_rate(),
        isolated.combined_hit_rate(),
    );
}
