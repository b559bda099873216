//! **E14 — batch throughput & thread scaling**: the parallel workload
//! driver. Runs a mixed containment batch (chains / cycles / stars over
//! the cyclic-IND successor schema) and an evaluation batch through the
//! `cqchase-par` executor at 1, 2, and 4 threads (or `{1, N}` under
//! `--threads N`), reporting items/sec and speedup over single-thread.
//!
//! This is not a paper artifact — it drives the ROADMAP's serving
//! scenario (millions of checks) and documents how throughput scales
//! with cores on the current machine. On a single-core container the
//! speedup column measures executor overhead (~1.0x).

use cqchase_core::chase::ChaseBudget;
use cqchase_core::{ContainmentOptions, ContainmentPair};
use cqchase_par::{check_batch, default_threads, evaluate_batch, BatchOptions};
use cqchase_storage::DbIndex;
use cqchase_workload::{chain_eval_batch, successor_containment_batch, DatabaseGen};
use serde_json::{json, Map, Value};

use super::ExperimentOutput;
use crate::table::Table;
use crate::util::time_median_us;

const PAIRS: usize = 256;
const POOL: usize = 12;
const EVAL_QUERIES: usize = 32;
const EVAL_TUPLES: usize = 600;

/// Runs E14 with the given chase budget (CLI-settable via
/// `--max-steps` / `--max-conjuncts`) and thread sweep (`--threads N`
/// replaces the default `{1, 2, 4}` with `{1, N}`).
pub fn run(budget: ChaseBudget, threads: Option<usize>) -> ExperimentOutput {
    let cores = default_threads();
    let thread_counts: Vec<usize> = match threads {
        Some(n) if n <= 1 => vec![1],
        Some(n) => vec![1, n],
        None => vec![1, 2, 4],
    };
    let batch = successor_containment_batch(7, POOL, PAIRS);
    let pairs: Vec<ContainmentPair> = batch
        .pairs
        .iter()
        .map(|&(q, q_prime)| ContainmentPair { q, q_prime })
        .collect();
    let opts = ContainmentOptions {
        budget,
        ..Default::default()
    };
    let qs = chain_eval_batch(&batch.program, EVAL_QUERIES);
    let db = DatabaseGen {
        seed: 21,
        tuples_per_relation: EVAL_TUPLES,
        domain: (EVAL_TUPLES as i64 / 2).max(4),
    }
    .generate(&batch.program.catalog);

    let mut table = Table::new(&[
        "workload",
        "threads",
        "items",
        "median µs",
        "items/s",
        "vs 1t",
    ]);
    let mut rows = Vec::new();
    for (name, items) in [("containment", pairs.len()), ("evaluation", qs.len())] {
        let mut single_us = 0.0f64;
        for &threads in &thread_counts {
            let bopts = BatchOptions::with_threads(threads);
            let us = if name == "containment" {
                time_median_us(5, || {
                    let r = check_batch(
                        &batch.queries,
                        &pairs,
                        &batch.program.deps,
                        &batch.program.catalog,
                        &opts,
                        bopts,
                    );
                    assert_eq!(r.len(), pairs.len());
                })
            } else {
                time_median_us(5, || {
                    let idx = DbIndex::build(&db);
                    std::hint::black_box(evaluate_batch(&qs, &idx, bopts).len());
                })
            };
            if threads == 1 {
                single_us = us;
            }
            let per_sec = items as f64 / (us * 1e-6);
            let speedup = single_us / us.max(1e-9);
            table.rowd(&[
                name.to_string(),
                threads.to_string(),
                items.to_string(),
                format!("{us:.0}"),
                format!("{per_sec:.0}"),
                format!("{speedup:.2}x"),
            ]);
            let mut row = Map::new();
            row.insert("workload".into(), Value::from(name));
            row.insert("threads".into(), Value::from(threads));
            row.insert("median_us".into(), Value::from((us * 10.0).round() / 10.0));
            row.insert("items_per_sec".into(), Value::from(per_sec.round()));
            row.insert(
                "speedup_vs_1t".into(),
                Value::from((speedup * 100.0).round() / 100.0),
            );
            rows.push(Value::Object(row));
        }
    }
    println!("{}", table.render());
    println!("(machine exposes {cores} core(s))");

    ExperimentOutput {
        id: "e14",
        title: "batch throughput & thread scaling (parallel workload driver)",
        json: json!({
            "cores": cores,
            "pairs": PAIRS,
            "eval_queries": EVAL_QUERIES,
            "rows": Value::Array(rows),
        }),
    }
}
