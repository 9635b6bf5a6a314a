//! Workload characterization: generate the DFN-like and RTP-like
//! workloads and print the Section 2 tables of the paper (properties,
//! per-type breakdown, size statistics, α and β).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example workload_characterization
//! ```

use webcache::prelude::*;

fn main() {
    for profile in [WorkloadProfile::dfn(), WorkloadProfile::rtp()] {
        let name = profile.name.clone();
        let trace = DenseTrace::build(&profile.scaled(1.0 / 256.0).build_trace(1));
        let ch = TraceCharacterization::measure(&trace);
        println!("{}", ch.properties_table(&name));
        println!("{}", ch.breakdown_table(&name));
        println!("{}", ch.statistics_table(&name));
        println!();
    }
}
