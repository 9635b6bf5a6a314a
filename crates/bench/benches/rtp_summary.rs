//! Bench: regenerate the Section 4.4 results (RTP trace, both cost
//! models).

use criterion::{criterion_group, criterion_main, Criterion};
use webcache_bench::{experiments, rtp_trace};
use webcache_core::PolicyKind;
use webcache_trace::DenseTrace;

fn bench(c: &mut Criterion) {
    let scale = 1.0 / 256.0;
    let trace = DenseTrace::build(&rtp_trace(scale, 1));
    let mut g = c.benchmark_group("rtp_summary");
    g.sample_size(10);
    g.bench_function("constant_cost_sweep", |b| {
        b.iter(|| experiments::sweep(&trace, PolicyKind::PAPER_CONSTANT.to_vec()))
    });
    g.bench_function("packet_cost_sweep", |b| {
        b.iter(|| experiments::sweep(&trace, PolicyKind::PAPER_PACKET.to_vec()))
    });
    g.finish();
    println!("{}", experiments::rtp_summary(scale, 1));
}

criterion_group!(benches, bench);
criterion_main!(benches);
