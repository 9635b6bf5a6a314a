//! Bench: ablation A3 — admission control (size threshold, second-hit
//! filter) in front of LRU.

use criterion::{criterion_group, criterion_main, Criterion};
use webcache_bench::{dfn_trace, experiments};
use webcache_core::{AdmissionSpec, PolicyKind, PolicySpec};
use webcache_sim::{SimulationConfig, Simulator};
use webcache_trace::ByteSize;

fn bench(c: &mut Criterion) {
    let scale = 1.0 / 256.0;
    let trace = dfn_trace(scale, 1);
    let capacity = ByteSize::new((trace.overall_size().as_f64() * 0.05) as u64);
    let mut g = c.benchmark_group("ablation_admission");
    g.sample_size(10);
    for (name, admission) in [
        ("all", AdmissionSpec::All),
        ("thold_64k", AdmissionSpec::MaxSize(ByteSize::from_kib(64))),
        ("second_hit", AdmissionSpec::SecondHit(1 << 16)),
    ] {
        let spec = PolicySpec::new(admission, PolicyKind::Lru);
        g.bench_function(name, |b| {
            b.iter(|| Simulator::from_spec(spec, SimulationConfig::new(capacity)).run(&trace))
        });
    }
    g.finish();
    println!("{}", experiments::ablation_admission(scale, 1));
}

criterion_group!(benches, bench);
criterion_main!(benches);
