//! Homomorphism search cost vs target size: map a k-atom chain query
//! into chases of growing depth, with a fresh finder (so a plan compile)
//! per search.

use cqchase_core::chase::{Chase, ChaseBudget, ChaseMode};
use cqchase_core::ChaseHomFinder;
use cqchase_workload::chain_query;
use cqchase_workload::families::successor_cycle;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_hom(c: &mut Criterion) {
    let program = successor_cycle();
    let q = program.query("Q").unwrap();
    let mut group = c.benchmark_group("hom_into_chase");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for depth in [8u32, 32, 128] {
        let mut ch = Chase::new(q, &program.deps, &program.catalog, ChaseMode::Required);
        ch.expand_to_level(depth, ChaseBudget::default());
        for k in [2usize, 4] {
            let qp = chain_query("Qp", &program.catalog, "R", k).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("chain{k}"), depth),
                &depth,
                |b, _| {
                    b.iter(|| {
                        let h = ChaseHomFinder::new(&qp).find(ch.state(), u32::MAX);
                        assert!(h.is_some());
                        std::hint::black_box(h.map(|h| h.max_level))
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_hom);
criterion_main!(benches);
