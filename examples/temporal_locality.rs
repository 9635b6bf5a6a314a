//! Temporal locality under the microscope: popularity concentration,
//! one-timers, stack distances and per-type α/β — the Section 2
//! machinery of the paper applied to a synthetic DFN workload.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example temporal_locality
//! ```

use webcache::prelude::*;
use webcache::stats::concentration::Concentration;
use webcache::stats::{correlation, popularity, StackDistances};

fn main() {
    let trace = DenseTrace::build(&WorkloadProfile::dfn().scaled(1.0 / 256.0).build_trace(33));
    println!(
        "workload: {} requests, {} distinct documents\n",
        trace.len(),
        trace.distinct_documents()
    );

    // Popularity concentration (Arlitt & Williamson style).
    let conc = Concentration::measure(&trace, None);
    println!("popularity concentration:");
    for frac in [0.01, 0.05, 0.10, 0.25] {
        println!(
            "  top {:>4.0}% of documents receive {:>5.1}% of requests",
            frac * 100.0,
            conc.request_share_of_top(frac) * 100.0
        );
    }
    println!(
        "  one-timers: {:.1}% of documents, hit-rate ceiling {:.3}\n",
        conc.one_timer_share() * 100.0,
        conc.hit_rate_ceiling()
    );

    // Stack distances: the capacity-independent view of LRU.
    let stack = StackDistances::measure(&trace, None);
    println!("LRU stack-distance analysis:");
    println!(
        "  cold references: {} ({:.1}%)",
        stack.cold_references(),
        stack.cold_references() as f64 / stack.total() as f64 * 100.0
    );
    for capacity in [100usize, 1_000, 10_000, 100_000] {
        println!(
            "  predicted LRU hit rate @ {capacity:>6} docs: {:.3}",
            stack.lru_hit_rate(capacity)
        );
    }
    println!();

    // Per-type locality parameters (the Table 4 columns).
    println!("per-type locality (alpha = popularity skew, beta = temporal correlation):");
    for ty in DocumentType::MAIN {
        let alpha = popularity::alpha(&trace, Some(ty));
        let beta = correlation::beta(&trace, Some(ty));
        println!(
            "  {:12} alpha {:>5}  beta {:>5}",
            ty.label(),
            alpha
                .map(|a| format!("{a:.2}"))
                .unwrap_or_else(|| "-".into()),
            beta.map(|b| format!("{b:.2}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
}
