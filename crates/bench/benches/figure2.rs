//! Bench: regenerate Figure 2 (DFN trace, constant cost model — per-type
//! hit rate and byte hit rate for LRU, LFU-DA, GDS(1), GD\*(1)).

use criterion::{criterion_group, criterion_main, Criterion};
use webcache_bench::{dfn_trace, experiments};
use webcache_core::PolicyKind;
use webcache_trace::DenseTrace;

fn bench(c: &mut Criterion) {
    let scale = 1.0 / 256.0;
    let trace = DenseTrace::build(&dfn_trace(scale, 1));
    let mut g = c.benchmark_group("figure2");
    g.sample_size(10);
    g.bench_function("constant_cost_sweep", |b| {
        b.iter(|| experiments::sweep(&trace, PolicyKind::PAPER_CONSTANT.to_vec()))
    });
    g.finish();
    println!("{}", experiments::figure2(scale, 1));
}

criterion_group!(benches, bench);
criterion_main!(benches);
