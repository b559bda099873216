//! Instance repair cost: the data chase on random instances under
//! foreign-key dependencies.

use cqchase_core::{chase_instance, INSTANCE_CHASE_BUDGET};
use cqchase_ir::parse_program;
use cqchase_workload::DatabaseGen;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_datachase(c: &mut Criterion) {
    let p = parse_program(
        "relation FACT(f, d1, d2).
         relation DIM1(k1, v1).
         relation DIM2(k2, v2).
         fd DIM1: k1 -> v1. fd DIM2: k2 -> v2.
         ind FACT[2] <= DIM1[1]. ind FACT[3] <= DIM2[1].",
    )
    .unwrap();
    let mut group = c.benchmark_group("data_chase_repair");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for tuples in [20usize, 100] {
        let db = DatabaseGen {
            seed: 7,
            tuples_per_relation: tuples,
            domain: (tuples as i64) * 2,
        }
        .generate(&p.catalog);
        group.bench_with_input(BenchmarkId::from_parameter(tuples), &tuples, |b, _| {
            b.iter(|| {
                let out = chase_instance(&db, &p.deps, INSTANCE_CHASE_BUDGET);
                std::hint::black_box(matches!(out, cqchase_core::DataChaseOutcome::Satisfied(_)))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_datachase);
criterion_main!(benches);
