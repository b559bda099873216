//! Parallel batch evaluation `Q(B)`.
//!
//! One [`DbIndex`] is shared read-only across the worker threads; each
//! worker carries its own plan cache and join scratch, so the steady
//! state takes no locks and performs no allocation beyond result tuples.

use cqchase_index::{JoinScratch, PlanCache};
use cqchase_ir::ConjunctiveQuery;
use cqchase_storage::{evaluate_plan, DbIndex, Tuple};

use crate::pool::{map_with, BatchOptions};

/// Evaluates a batch of queries over one index across worker threads.
/// Results are in query order and equal to
/// `qs.map(|q| cqchase_storage::evaluate(q, idx))` for every thread
/// count; one thread is the sequential engine, which shares one plan
/// cache across the whole batch so repeated queries skip compilation.
pub fn evaluate_batch(
    qs: &[ConjunctiveQuery],
    idx: &DbIndex,
    batch: BatchOptions,
) -> Vec<Vec<Tuple>> {
    map_with(
        qs.len(),
        batch,
        || (PlanCache::new(), JoinScratch::new()),
        |(cache, scratch), i| {
            let q = &qs[i];
            evaluate_plan(q, idx, cache.get_or_compile(q, idx).0, scratch)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::parse_program;
    use cqchase_storage::{eval::naive, Database};

    #[test]
    fn agrees_with_naive_across_thread_counts() {
        let p = parse_program(
            "relation R(a, b). relation S(b, c).
             Q1(x, z) :- R(x, y), S(y, z).
             Q2(x) :- R(x, x).
             Q3(x) :- R(x, y), S(y, 3).
             Q4() :- R(x, y), R(y, x).",
        )
        .unwrap();
        let mut db = Database::new(&p.catalog);
        for (a, b) in [(1i64, 2), (2, 1), (2, 3), (3, 3), (5, 6)] {
            db.insert_named("R", [a, b]).unwrap();
        }
        for (a, b) in [(2i64, 3), (3, 3), (6, 1)] {
            db.insert_named("S", [a, b]).unwrap();
        }
        let want: Vec<_> = p.queries.iter().map(|q| naive::evaluate(q, &db)).collect();
        let idx = DbIndex::build(&db);
        for threads in [1usize, 2, 4] {
            let got = evaluate_batch(&p.queries, &idx, BatchOptions::with_threads(threads));
            assert_eq!(got, want, "{threads} threads");
        }
    }
}
