//! Parallel batch evaluation `Q(B)`.
//!
//! One [`DbIndex`] is built (or borrowed) per batch and shared read-only
//! across the worker threads; each worker carries its own plan cache and
//! join scratch, so the steady state takes no locks and performs no
//! allocation beyond result tuples.

use cqchase_index::{JoinScratch, PlanCache};
use cqchase_ir::ConjunctiveQuery;
use cqchase_storage::{evaluate_indexed_with, Database, DbIndex, Tuple};

use crate::pool::{map_with, BatchOptions};

/// Evaluates a batch of queries over one instance across worker
/// threads. Results are in query order and identical to
/// [`cqchase_storage::evaluate_batch`] (which is the 1-thread case).
pub fn evaluate_batch(
    qs: &[ConjunctiveQuery],
    db: &Database,
    batch: BatchOptions,
) -> Vec<Vec<Tuple>> {
    evaluate_batch_indexed(qs, &DbIndex::build(db), batch)
}

/// [`evaluate_batch`] against a prebuilt (shared, read-only) index.
pub fn evaluate_batch_indexed(
    qs: &[ConjunctiveQuery],
    idx: &DbIndex,
    batch: BatchOptions,
) -> Vec<Vec<Tuple>> {
    map_with(
        qs.len(),
        batch,
        || (PlanCache::new(), JoinScratch::new()),
        |(cache, scratch), i| evaluate_indexed_with(&qs[i], idx, cache, scratch),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::parse_program;

    #[test]
    fn agrees_with_sequential_across_thread_counts() {
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
        let seq = cqchase_storage::evaluate_batch(&p.queries, &db);
        for threads in [1usize, 2, 4] {
            let par = evaluate_batch(&p.queries, &db, BatchOptions::with_threads(threads));
            assert_eq!(par, seq, "{threads} threads");
        }
    }
}
