//! Bench: extension E2 — the Breslau et al. log-like growth law of hit
//! rates in cache size, fitted over the Figure 2 sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use webcache_bench::{dfn_trace, experiments};
use webcache_core::PolicyKind;
use webcache_trace::DenseTrace;

fn bench(c: &mut Criterion) {
    let scale = 1.0 / 256.0;
    let trace = DenseTrace::build(&dfn_trace(scale, 1));
    let mut g = c.benchmark_group("loglike_growth");
    g.sample_size(10);
    g.bench_function("sweep_and_fit", |b| {
        b.iter(|| experiments::sweep(&trace, PolicyKind::PAPER_CONSTANT.to_vec()))
    });
    g.finish();
    println!("{}", experiments::loglike_growth(scale, 1));
}

criterion_group!(benches, bench);
criterion_main!(benches);
