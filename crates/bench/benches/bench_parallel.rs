//! Batch throughput: single-thread vs multi-thread execution of the
//! batch containment and batch evaluation engines.
//!
//! Besides the criterion groups, the run records a JSON baseline at
//! `crates/bench/baselines/bench_parallel.json` (items/sec per thread
//! count, speedups, and the machine's core count) that the bench gate
//! (`bench_gate --check-baseline`) compares future runs against.
//!
//! Thread scaling is only observable when the machine exposes hardware
//! parallelism: on a single-core container the 4-thread run measures the
//! executor's overhead (expect ~1.0x), and the baseline records
//! `cores` so readers (and the gate) can interpret the numbers.

use std::time::Duration;

use cqchase_bench::util::time_median;
use cqchase_core::{check_batch as check_batch_seq, ContainmentOptions, ContainmentPair};
use cqchase_par::{check_batch, default_threads, evaluate_batch, BatchOptions};
use cqchase_storage::{evaluate, DbIndex};
use cqchase_workload::{chain_eval_batch, successor_containment_batch, DatabaseGen};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use serde_json::{json, Map, Value};

const POOL: usize = 12;
const PAIRS: usize = 384;
const EVAL_QUERIES: usize = 48;
const EVAL_TUPLES: usize = 800;

fn containment_workload() -> (
    cqchase_ir::Program,
    Vec<cqchase_ir::ConjunctiveQuery>,
    Vec<ContainmentPair>,
) {
    let batch = successor_containment_batch(5, POOL, PAIRS);
    let pairs = batch
        .pairs
        .iter()
        .map(|&(q, q_prime)| ContainmentPair { q, q_prime })
        .collect();
    (batch.program, batch.queries, pairs)
}

fn eval_workload() -> (Vec<cqchase_ir::ConjunctiveQuery>, cqchase_storage::Database) {
    let batch = successor_containment_batch(5, 1, 0);
    let qs = chain_eval_batch(&batch.program, EVAL_QUERIES);
    let db = DatabaseGen {
        seed: 9,
        tuples_per_relation: EVAL_TUPLES,
        domain: (EVAL_TUPLES as i64 / 2).max(4),
    }
    .generate(&batch.program.catalog);
    (qs, db)
}

fn bench_batch_containment(c: &mut Criterion) {
    let (program, queries, pairs) = containment_workload();
    let opts = ContainmentOptions::default();
    let mut group = c.benchmark_group("parallel_containment");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("check_batch", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let r = check_batch(
                        &queries,
                        &pairs,
                        &program.deps,
                        &program.catalog,
                        &opts,
                        BatchOptions::with_threads(t),
                    );
                    assert_eq!(r.len(), pairs.len());
                    std::hint::black_box(r.iter().filter(|a| a.as_ref().unwrap().contained).count())
                });
            },
        );
    }
    group.finish();
}

fn bench_batch_eval(c: &mut Criterion) {
    let (qs, db) = eval_workload();
    let mut group = c.benchmark_group("parallel_eval");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(800));
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("evaluate_batch", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let idx = DbIndex::build(&db);
                    let r = evaluate_batch(&qs, &idx, BatchOptions::with_threads(t));
                    std::hint::black_box(r.iter().map(Vec::len).sum::<usize>())
                });
            },
        );
    }
    group.finish();
}

/// Records the committed JSON baseline: batch throughput at 1 and 4
/// threads for both engines, with sanity checks that the parallel
/// results equal the sequential ones on this very workload.
fn record_baseline(_c: &mut Criterion) {
    let cores = default_threads();
    let (program, queries, pairs) = containment_workload();
    let opts = ContainmentOptions::default();
    let (qs, db) = eval_workload();

    let seq_answers = check_batch_seq(&queries, &pairs, &program.deps, &program.catalog, &opts);
    let idx = DbIndex::build(&db);
    let seq_evals: Vec<_> = qs.iter().map(|q| evaluate(q, &idx)).collect();

    let mut entries = Vec::new();
    let mut speedups = Map::new();
    for (bench, items) in [("batch_containment", pairs.len()), ("batch_eval", qs.len())] {
        let mut single_ns = 0u64;
        for threads in [1usize, 4] {
            let batch_opts = BatchOptions::with_threads(threads);
            // Correctness checks once, outside the timed region (serial
            // comparisons inside it would deflate the measured ratio).
            if bench == "batch_containment" {
                let r = check_batch(
                    &queries,
                    &pairs,
                    &program.deps,
                    &program.catalog,
                    &opts,
                    batch_opts,
                );
                assert_eq!(r.len(), seq_answers.len());
                for (a, b) in r.iter().zip(seq_answers.iter()) {
                    assert_eq!(a.as_ref().unwrap().contained, b.as_ref().unwrap().contained);
                }
            } else {
                assert_eq!(evaluate_batch(&qs, &idx, batch_opts), seq_evals);
            }
            let t = if bench == "batch_containment" {
                time_median(7, || {
                    let r = check_batch(
                        &queries,
                        &pairs,
                        &program.deps,
                        &program.catalog,
                        &opts,
                        batch_opts,
                    );
                    std::hint::black_box(r.len());
                })
            } else {
                time_median(7, || {
                    let idx = DbIndex::build(&db);
                    std::hint::black_box(evaluate_batch(&qs, &idx, batch_opts).len());
                })
            };
            let ns = t.as_nanos() as u64;
            if threads == 1 {
                single_ns = ns;
            }
            let mut e = Map::new();
            e.insert("bench".into(), Value::from(bench));
            e.insert("threads".into(), Value::from(threads));
            e.insert("items".into(), Value::from(items));
            e.insert("total_ns".into(), Value::from(ns));
            e.insert(
                "items_per_sec".into(),
                Value::from((items as f64 / t.as_secs_f64()).round()),
            );
            if threads > 1 {
                let speedup = single_ns as f64 / ns.max(1) as f64;
                e.insert(
                    "speedup_vs_1t".into(),
                    Value::from((speedup * 100.0).round() / 100.0),
                );
                speedups.insert(
                    format!("{bench}_speedup_4t"),
                    Value::from((speedup * 100.0).round() / 100.0),
                );
            }
            entries.push(Value::Object(e));
        }
    }

    let doc = json!({
        "workload": format!(
            "successor_cycle batch: {PAIRS} containment pairs over a {POOL}-query pool; \
             {EVAL_QUERIES} evaluations over {EVAL_TUPLES} tuples"
        ),
        "cores": cores,
        "containment_speedup_4t": speedups.get("batch_containment_speedup_4t").cloned().unwrap_or(Value::Null),
        "eval_speedup_4t": speedups.get("batch_eval_speedup_4t").cloned().unwrap_or(Value::Null),
        "entries": Value::Array(entries),
    });
    let containment_speedup = doc["containment_speedup_4t"].as_f64().unwrap_or(0.0);
    println!("\ncores: {cores}; batch containment 4-thread speedup: {containment_speedup:.2}x");
    if cores >= 4 {
        assert!(
            containment_speedup >= 2.0,
            "4 threads on {cores} cores must give >= 2x batch-containment throughput, got {containment_speedup:.2}x"
        );
    } else {
        println!(
            "(machine exposes {cores} core(s): thread scaling is not observable here; \
             recording measured numbers as-is)"
        );
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/bench_parallel.json");
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap())
        .expect("write bench_parallel baseline");
    println!("baseline written to {path}");
}

criterion_group!(
    benches,
    bench_batch_containment,
    bench_batch_eval,
    record_baseline
);
criterion_main!(benches);
