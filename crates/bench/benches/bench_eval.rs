//! Query evaluation over finite instances: chain joins over random
//! binary relations of growing size. Each sample builds the
//! [`DbIndex`] and then evaluates.

use cqchase_ir::Catalog;
use cqchase_storage::{evaluate, DbIndex};
use cqchase_workload::{chain_query, DatabaseGen};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_eval(c: &mut Criterion) {
    let mut catalog = Catalog::new();
    catalog.declare("R", ["a", "b"]).unwrap();
    let mut group = c.benchmark_group("evaluate_chain");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for tuples in [50usize, 200] {
        let db = DatabaseGen {
            seed: 42,
            tuples_per_relation: tuples,
            domain: (tuples / 4).max(2) as i64,
        }
        .generate(&catalog);
        for k in [2usize, 3] {
            let q = chain_query("Q", &catalog, "R", k).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("chain{k}"), tuples),
                &tuples,
                |b, _| {
                    b.iter(|| std::hint::black_box(evaluate(&q, &DbIndex::build(&db)).len()));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_eval);
criterion_main!(benches);
