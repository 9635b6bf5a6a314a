//! Adaptability of GreedyDual\* (the Figure 1 experiment): track how
//! GD\*(1) and GD\*(P) divide the cache between document types over time,
//! and how the online β estimator behaves.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example adaptive_gdstar
//! ```

use webcache::core::policy::{BetaMode, GdStar};
use webcache::prelude::*;
use webcache::sim::report::occupancy_csv;

fn main() {
    let trace = WorkloadProfile::dfn().scaled(1.0 / 512.0).build_trace(3);
    let capacity = trace.overall_size().scale(0.03);
    let requests_by_type = trace.requests_by_type();
    let total = trace.len() as f64;

    for cost in [CostModel::Constant, CostModel::Packet] {
        let policy = GdStar::new(
            cost,
            BetaMode::Adaptive {
                initial: 1.0,
                refresh_interval: 2_000,
            },
        );
        let config = SimulationConfig::builder()
            .capacity(capacity)
            .occupancy_samples(20)
            .build();
        let report = Simulator::new(Box::new(policy), config).run(&trace);

        println!("=== {} (cache {capacity}) ===", report.policy);
        println!(
            "overall: hit rate {:.3}, byte hit rate {:.3}",
            report.overall().hit_rate(),
            report.overall().byte_hit_rate(),
        );
        for ty in DocumentType::MAIN {
            println!(
                "{:12} request share {:5.2}%  mean cached docs {:5.2}%  \
                 mean cached bytes {:5.2}%  steady-state spread {:.3}",
                ty.label(),
                requests_by_type[ty] as f64 / total * 100.0,
                report.occupancy.mean_document_fraction(ty) * 100.0,
                report.occupancy.mean_byte_fraction(ty) * 100.0,
                report.occupancy.byte_fraction_spread(ty),
            );
        }
        println!();
    }

    // The raw Figure 1 series as CSV, ready for plotting.
    let report = Simulator::new(
        Box::new(GdStar::new(CostModel::Packet, BetaMode::default())),
        SimulationConfig::builder()
            .capacity(capacity)
            .occupancy_samples(10)
            .build(),
    )
    .run(&trace);
    println!("GD*(P) occupancy series (CSV):");
    print!("{}", occupancy_csv(&report.occupancy));
}
