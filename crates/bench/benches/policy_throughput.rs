//! Bench: simulator throughput per replacement policy (requests per
//! second of simulated trace), hashed vs dense replay, plus raw
//! priority-queue operations.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use webcache_bench::dfn_trace;
use webcache_core::pqueue::IndexedHeap;
use webcache_core::PolicyKind;
use webcache_sim::{SimulationConfig, Simulator};
use webcache_trace::{ByteSize, DenseTrace};

fn policies(c: &mut Criterion) {
    let trace = dfn_trace(1.0 / 256.0, 1);
    let dense = DenseTrace::build(&trace);
    let capacity = ByteSize::new((trace.overall_size().as_f64() * 0.05) as u64);
    let mut g = c.benchmark_group("policy_throughput");
    g.sample_size(10);
    g.throughput(Throughput::Elements(trace.len() as u64));
    for kind in PolicyKind::ALL {
        g.bench_function(format!("dense/{}", kind.label()), |b| {
            b.iter(|| {
                Simulator::new(
                    kind.build(),
                    SimulationConfig::builder().capacity(capacity).build(),
                )
                .run_dense(&dense)
            })
        });
        g.bench_function(format!("hashed/{}", kind.label()), |b| {
            b.iter(|| {
                Simulator::new(
                    kind.build(),
                    SimulationConfig::builder().capacity(capacity).build(),
                )
                .run_hashed(&trace)
            })
        });
    }
    g.finish();
}

fn pqueue(c: &mut Criterion) {
    let mut g = c.benchmark_group("indexed_heap");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("insert_update_pop_10k", |b| {
        b.iter(|| {
            let mut h: IndexedHeap<u64, (u64, u64)> = IndexedHeap::new();
            h.reserve(10_000);
            for i in 0..10_000u64 {
                h.insert(i, ((i * 2_654_435_761) % 65_536, i));
            }
            for i in 0..10_000u64 {
                h.update(i, ((i * 40_503) % 65_536, i));
            }
            while h.pop_min().is_some() {}
            h
        })
    });
    g.finish();
}

criterion_group!(benches, policies, pqueue);
criterion_main!(benches);
