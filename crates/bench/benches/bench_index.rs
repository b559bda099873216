//! Naive vs indexed join core, on the workloads that matter most:
//! homomorphism search into deep `successor_cycle` chases (the
//! containment engine's inner loop) and `Q(B)` evaluation over random
//! instances — chains (cost-based ordering), wide stars and snowflakes
//! (the Yannakakis acyclic fast path's home turf).
//!
//! Hom search is measured through one warm [`ChaseHomFinder`] on the
//! live chase — compile once, probe many — because that is the
//! production path: the containment engine probes its chase the same
//! way, so a per-probe recompile would charge the indexed side a cost it
//! never pays in production. The naive side scans a [`naive::Rows`]
//! snapshot of the same chase, built outside the timed loop.
//!
//! Evaluation is measured from a [`Database`]: each indexed sample
//! builds the [`DbIndex`] and then evaluates, and each naive sample
//! scans the database.
//!
//! Besides the criterion groups, the run records a JSON baseline at
//! `crates/bench/baselines/bench_index.json` (naive/indexed medians and
//! speedups per configuration) so future PRs can compare against this
//! one's numbers.

use std::time::{Duration, Instant};

use cqchase_core::chase::{Chase, ChaseBudget, ChaseMode};
use cqchase_core::hom::naive;
use cqchase_core::ChaseHomFinder;
use cqchase_storage::eval;
use cqchase_storage::{Database, DbIndex};
use cqchase_workload::families::successor_cycle;
use cqchase_workload::{chain_query, cycle_query, snowflake_query, star_query, DatabaseGen};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use serde_json::{json, Map, Value};

fn chase_target(depth: u32) -> Chase {
    let program = successor_cycle();
    let q = program.query("Q").unwrap();
    let mut ch = Chase::new(q, &program.deps, &program.catalog, ChaseMode::Required);
    ch.expand_to_level(depth, ChaseBudget::default());
    ch
}

fn eval_db(tuples: usize) -> Database {
    let program = successor_cycle();
    DatabaseGen {
        seed: 7,
        tuples_per_relation: tuples,
        domain: (tuples as i64 / 2).max(4),
    }
    .generate(&program.catalog)
}

fn bench_hom_naive_vs_indexed(c: &mut Criterion) {
    let program = successor_cycle();
    let mut group = c.benchmark_group("index_hom");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    for depth in [64u32, 256, 1024] {
        let ch = chase_target(depth);
        let rows = naive::Rows::from_state(ch.state(), u32::MAX);
        // Positive case: the chain maps along the chase path.
        let chain = chain_query("Qp", &program.catalog, "R", 3).unwrap();
        // Negative case: no cycle embeds into a path — the search must
        // certify exhaustion, the containment engine's dominant cost.
        let cycle = cycle_query("Qc", &program.catalog, "R", 3).unwrap();
        let mut chain_finder = ChaseHomFinder::new(&chain);
        group.bench_with_input(BenchmarkId::new("indexed_chain", depth), &depth, |b, _| {
            b.iter(|| {
                let h = chain_finder.find(ch.state(), u32::MAX);
                assert!(h.is_some());
                std::hint::black_box(h.map(|h| h.max_level))
            });
        });
        group.bench_with_input(BenchmarkId::new("naive_chain", depth), &depth, |b, _| {
            b.iter(|| {
                let h = naive::find_hom(&chain, &rows);
                assert!(h.is_some());
                std::hint::black_box(h.map(|h| h.max_level))
            });
        });
        let mut cycle_finder = ChaseHomFinder::new(&cycle);
        group.bench_with_input(BenchmarkId::new("indexed_cycle", depth), &depth, |b, _| {
            b.iter(|| std::hint::black_box(cycle_finder.find(ch.state(), u32::MAX).is_some()));
        });
        group.bench_with_input(BenchmarkId::new("naive_cycle", depth), &depth, |b, _| {
            b.iter(|| std::hint::black_box(naive::find_hom(&cycle, &rows).is_some()));
        });
    }
    group.finish();
}

fn bench_eval_naive_vs_indexed(c: &mut Criterion) {
    let program = successor_cycle();
    let mut group = c.benchmark_group("index_eval");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    for tuples in [100usize, 1000] {
        let db = eval_db(tuples);
        let q = program.query("Chain3").unwrap();
        group.bench_with_input(BenchmarkId::new("indexed", tuples), &tuples, |b, _| {
            b.iter(|| std::hint::black_box(eval::evaluate(q, &DbIndex::build(&db)).len()));
        });
        group.bench_with_input(BenchmarkId::new("naive", tuples), &tuples, |b, _| {
            b.iter(|| std::hint::black_box(eval::naive::evaluate(q, &db).len()));
        });
    }
    // The acyclic fast path's home turf: wide stars and snowflakes,
    // where full enumeration is product-sized but the distinct head
    // image is tiny. Naive cost explodes with the instance, so these
    // run on the 100-tuple instance.
    let db = eval_db(100);
    let star = star_query("Star8", &program.catalog, "R", 8).unwrap();
    let snow = snowflake_query("Snow4x2", &program.catalog, "R", 4, 2).unwrap();
    for (name, q) in [("star8", &star), ("snowflake4x2", &snow)] {
        group.bench_with_input(BenchmarkId::new("indexed", name), &name, |b, _| {
            b.iter(|| std::hint::black_box(eval::evaluate(q, &DbIndex::build(&db)).len()));
        });
        group.bench_with_input(BenchmarkId::new("naive", name), &name, |b, _| {
            b.iter(|| std::hint::black_box(eval::naive::evaluate(q, &db).len()));
        });
    }
    group.finish();
}

/// Times `f` over `iters` runs and returns the per-run median.
fn median_time(iters: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Records the committed JSON baseline (independent of the criterion
/// groups so the numbers are self-contained and cheap to regenerate).
fn record_baseline(_c: &mut Criterion) {
    let program = successor_cycle();
    let mut entries = Vec::new();
    let mut largest_speedup = 0.0f64;
    for depth in [64u32, 256, 1024] {
        let ch = chase_target(depth);
        let rows = naive::Rows::from_state(ch.state(), u32::MAX);
        for (name, k, expect) in [
            ("hom_chain3_into_chase", 3usize, true),
            ("hom_cycle3_into_chase", 0, false),
        ] {
            let q = if expect {
                chain_query("Qp", &program.catalog, "R", k).unwrap()
            } else {
                cycle_query("Qc", &program.catalog, "R", 3).unwrap()
            };
            let naive_t = median_time(9, || {
                assert_eq!(naive::find_hom(&q, &rows).is_some(), expect);
            });
            let mut finder = ChaseHomFinder::new(&q);
            let indexed_t = median_time(9, || {
                assert_eq!(finder.find(ch.state(), u32::MAX).is_some(), expect);
            });
            let speedup = naive_t.as_secs_f64() / indexed_t.as_secs_f64().max(1e-12);
            if depth == 1024 && !expect {
                largest_speedup = speedup;
            }
            let mut e = Map::new();
            e.insert("bench".into(), Value::from(name));
            e.insert("depth".into(), Value::from(depth));
            e.insert("naive_ns".into(), Value::from(naive_t.as_nanos() as u64));
            e.insert(
                "indexed_ns".into(),
                Value::from(indexed_t.as_nanos() as u64),
            );
            e.insert(
                "speedup".into(),
                Value::from((speedup * 100.0).round() / 100.0),
            );
            entries.push(Value::Object(e));
        }
    }
    for tuples in [100usize, 1000] {
        let db = eval_db(tuples);
        let q = program.query("Chain3").unwrap();
        let naive_t = median_time(9, || {
            std::hint::black_box(eval::naive::evaluate(q, &db).len());
        });
        let indexed_t = median_time(9, || {
            std::hint::black_box(eval::evaluate(q, &DbIndex::build(&db)).len());
        });
        let speedup = naive_t.as_secs_f64() / indexed_t.as_secs_f64().max(1e-12);
        let mut e = Map::new();
        e.insert("bench".into(), Value::from("eval_chain3"));
        e.insert("tuples".into(), Value::from(tuples));
        e.insert("naive_ns".into(), Value::from(naive_t.as_nanos() as u64));
        e.insert(
            "indexed_ns".into(),
            Value::from(indexed_t.as_nanos() as u64),
        );
        e.insert(
            "speedup".into(),
            Value::from((speedup * 100.0).round() / 100.0),
        );
        entries.push(Value::Object(e));
    }
    // Acyclic fast-path families (100-tuple instance: naive cost on
    // these shapes is product-sized and explodes with the instance).
    let db = eval_db(100);
    let star = star_query("Star8", &program.catalog, "R", 8).unwrap();
    let snow = snowflake_query("Snow4x2", &program.catalog, "R", 4, 2).unwrap();
    for (name, q) in [("eval_star8", &star), ("eval_snowflake4x2", &snow)] {
        let naive_t = median_time(9, || {
            std::hint::black_box(eval::naive::evaluate(q, &db).len());
        });
        let indexed_t = median_time(9, || {
            std::hint::black_box(eval::evaluate(q, &DbIndex::build(&db)).len());
        });
        let speedup = naive_t.as_secs_f64() / indexed_t.as_secs_f64().max(1e-12);
        let mut e = Map::new();
        e.insert("bench".into(), Value::from(name));
        e.insert("tuples".into(), Value::from(100usize));
        e.insert("naive_ns".into(), Value::from(naive_t.as_nanos() as u64));
        e.insert(
            "indexed_ns".into(),
            Value::from(indexed_t.as_nanos() as u64),
        );
        e.insert(
            "speedup".into(),
            Value::from((speedup * 100.0).round() / 100.0),
        );
        entries.push(Value::Object(e));
    }

    let doc = json!({
        "workload": "successor_cycle (largest family: chase depth 1024)",
        "largest_family_speedup": (largest_speedup * 100.0).round() / 100.0,
        "entries": Value::Array(entries),
    });
    println!("\nindexed vs naive on the largest workload family: {largest_speedup:.1}x");
    assert!(
        largest_speedup >= 5.0,
        "indexed hom search must be >= 5x the naive reference on the largest family, got {largest_speedup:.1}x"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/bench_index.json");
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap())
        .expect("write bench_index baseline");
    println!("baseline written to {path}");
}

criterion_group!(
    benches,
    bench_hom_naive_vs_indexed,
    bench_eval_naive_vs_indexed,
    record_baseline
);
criterion_main!(benches);
