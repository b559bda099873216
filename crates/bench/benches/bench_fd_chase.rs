//! FD-chase cost: queries with n atoms sharing a key, which the FD rule
//! merges pairwise (the classical chase workload of [1,2,11]).

use cqchase_core::chase::{Chase, ChaseBudget, ChaseMode, ChaseStatus};
use cqchase_ir::{parse_program, QueryBuilder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_fd_chase(c: &mut Criterion) {
    let p = parse_program("relation R(a, b). fd R: a -> b.").unwrap();
    let mut group = c.benchmark_group("fd_chase_merge");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    for n in [4usize, 16, 64] {
        // Q(x) :- R(x, y0), R(x, y1), …: all atoms merge into one.
        let mut b = QueryBuilder::new("Q", &p.catalog).head_vars(["x"]);
        for i in 0..n {
            b = b.atom("R", ["x".to_string(), format!("y{i}")]).unwrap();
        }
        let q = b.build().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| {
                let mut ch = Chase::new(&q, &p.deps, &p.catalog, ChaseMode::Required);
                let status = ch.run_to_completion(ChaseBudget::default());
                assert_eq!(status, ChaseStatus::Complete);
                assert_eq!(ch.state().num_alive(), 1);
                std::hint::black_box(ch.fd_steps())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fd_chase);
criterion_main!(benches);
