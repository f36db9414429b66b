//! Criterion bench behind table T4: engine ablations (structural
//! hashing, structural merging, sweeping) on an adder pair.

use bench::experiments::{check, Ablation};
use bench::workloads;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_t4(c: &mut Criterion) {
    let pair = workloads::adder_scaling_pairs(&[16]).remove(0);
    let mut group = c.benchmark_group("t4");
    group.sample_size(10);
    for config in Ablation::all() {
        group.bench_function(format!("add-16/{}", config.label()), |b| {
            b.iter(|| {
                let outcome = check(config.options(), &pair.a, &pair.b);
                assert!(outcome.is_equivalent());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_t4);
criterion_main!(benches);
