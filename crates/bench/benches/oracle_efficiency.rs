//! Bench: extension E4 — clairvoyant (Belady-style) upper bound and the
//! fraction of it each online scheme achieves.

use criterion::{criterion_group, criterion_main, Criterion};
use webcache_bench::{dfn_trace, experiments};
use webcache_sim::{clairvoyant_overall, SimulationConfig};
use webcache_trace::{ByteSize, DenseTrace};

fn bench(c: &mut Criterion) {
    let scale = 1.0 / 256.0;
    let trace = DenseTrace::build(&dfn_trace(scale, 1));
    let capacity = ByteSize::new((trace.overall_size().as_f64() * 0.05) as u64);
    let mut g = c.benchmark_group("oracle_efficiency");
    g.sample_size(10);
    g.bench_function("clairvoyant", |b| {
        b.iter(|| {
            clairvoyant_overall(
                &trace,
                &SimulationConfig::builder().capacity(capacity).build(),
            )
        })
    });
    g.finish();
    println!("{}", experiments::oracle_efficiency(scale, 1));
}

criterion_group!(benches, bench);
criterion_main!(benches);
