//! Differential property tests for incremental index maintenance: any
//! interleaving of inserts, deletes, and evaluations over a live
//! [`DbIndex`] must be indistinguishable from rebuilding the index from
//! scratch at every observation point.
//!
//! The domain is deliberately tiny (0..4) so scripts constantly delete
//! tuples that are absent, reinsert tuples identical to previously
//! deleted ones (the dedup/tombstone interaction), and delete tuples
//! twice — the edge cases a posting-list/tombstone bug would corrupt.

use cqchase_ir::builder::TermSpec;
use cqchase_ir::{Catalog, ConjunctiveQuery, QueryBuilder};
use cqchase_storage::eval::naive;
use cqchase_storage::{evaluate, Database, DbIndex, Value};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("R", ["a", "b"]).unwrap();
    c.declare("S", ["x", "y"]).unwrap();
    c
}

/// One scripted operation over the live database.
#[derive(Debug, Clone)]
enum DeltaOp {
    /// Insert (relation choice, a, b) — may be a duplicate no-op.
    Insert(bool, i64, i64),
    /// Delete (relation choice, a, b) — may be an absent no-op.
    Delete(bool, i64, i64),
    /// Evaluate the query at this index in the pool and compare.
    Eval(usize),
}

fn ops() -> impl Strategy<Value = Vec<DeltaOp>> {
    // (kind, rel-choice, a, b): kind 0–2 insert, 3–5 delete (equal
    // weight keeps churn high), 6 eval (b picks the query).
    let op = (0u8..7, any::<bool>(), 0i64..4, 0i64..4).prop_map(|(kind, r, a, b)| match kind {
        0..=2 => DeltaOp::Insert(r, a, b),
        3..=5 => DeltaOp::Delete(r, a, b),
        _ => DeltaOp::Eval(b as usize),
    });
    proptest::collection::vec(op, 1..40)
}

/// A pool of four fixed query shapes exercising joins, self-joins,
/// constants, and cross-relation joins.
fn query_pool(cat: &Catalog) -> Vec<ConjunctiveQuery> {
    let q1 = QueryBuilder::new("Q1", cat)
        .head_vars(["v0"])
        .atom("R", ["v0", "v1"])
        .unwrap()
        .build()
        .unwrap();
    let q2 = QueryBuilder::new("Q2", cat)
        .head_vars(["v0"])
        .atom("R", ["v0", "v0"])
        .unwrap()
        .build()
        .unwrap();
    let q3 = QueryBuilder::new("Q3", cat)
        .head_vars(["v0"])
        .atom("R", ["v0", "v1"])
        .unwrap()
        .atom("S", ["v1", "v2"])
        .unwrap()
        .build()
        .unwrap();
    let q4 = QueryBuilder::new("Q4", cat)
        .head_vars(["v0"])
        .atom("S", [TermSpec::Var("v0".into()), TermSpec::from(2i64)])
        .unwrap()
        .build()
        .unwrap();
    vec![q1, q2, q3, q4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Replay a random delta script, keeping one index incrementally in
    /// sync; at every eval point the incremental index must answer
    /// bit-identically to a from-scratch rebuild AND to the naive
    /// scan evaluator over the same database.
    #[test]
    fn incremental_index_equals_rebuild(script in ops()) {
        let cat = catalog();
        let queries = query_pool(&cat);
        let r = cat.resolve("R").unwrap();
        let s = cat.resolve("S").unwrap();
        let mut db = Database::new(&cat);
        let mut idx = DbIndex::build(&db);
        for (step, op) in script.iter().enumerate() {
            match op {
                DeltaOp::Insert(use_s, a, b) => {
                    let rel = if *use_s { s } else { r };
                    let t = vec![Value::int(*a), Value::int(*b)];
                    if db.insert(rel, t.clone()).unwrap() {
                        idx.note_insert(rel, &t);
                    }
                }
                DeltaOp::Delete(use_s, a, b) => {
                    let rel = if *use_s { s } else { r };
                    let t = vec![Value::int(*a), Value::int(*b)];
                    let in_db = db.remove(rel, &t).unwrap();
                    let in_idx = idx.note_remove(rel, &t);
                    prop_assert_eq!(in_db, in_idx, "step {}: membership disagreement", step);
                }
                DeltaOp::Eval(qi) => {
                    let q = &queries[*qi];
                    let live = evaluate(q, &idx);
                    let rebuilt = evaluate(q, &DbIndex::build(&db));
                    prop_assert_eq!(&live, &rebuilt, "step {}: live vs rebuild, {}", step, &q.name);
                    prop_assert_eq!(&live, &naive::evaluate(q, &db), "step {}: vs naive", step);
                }
            }
            // Structural invariants hold at every step, not just evals.
            prop_assert_eq!(
                idx.num_rows(r) + idx.num_rows(s),
                db.total_tuples(),
                "step {}: live counts drifted", step
            );
        }
        // Final state: full agreement on every query in the pool.
        for q in &queries {
            prop_assert_eq!(evaluate(q, &idx), naive::evaluate(q, &db), "{}", &q.name);
        }
    }

    /// The planner's per-column statistics (live-row counts and
    /// distinct-value counts) maintained incrementally through an
    /// arbitrary insert/delete script — including the adaptive
    /// compactions the deletes trigger — equal the statistics of an
    /// index rebuilt from scratch, after every single operation.
    #[test]
    fn incremental_stats_equal_rebuild(script in ops()) {
        let cat = catalog();
        let r = cat.resolve("R").unwrap();
        let s = cat.resolve("S").unwrap();
        let mut db = Database::new(&cat);
        let mut idx = DbIndex::build(&db);
        for (step, op) in script.iter().enumerate() {
            match op {
                DeltaOp::Insert(use_s, a, b) => {
                    let rel = if *use_s { s } else { r };
                    let t = vec![Value::int(*a), Value::int(*b)];
                    if db.insert(rel, t.clone()).unwrap() {
                        idx.note_insert(rel, &t);
                    }
                }
                DeltaOp::Delete(use_s, a, b) => {
                    let rel = if *use_s { s } else { r };
                    let t = vec![Value::int(*a), Value::int(*b)];
                    if db.remove(rel, &t).unwrap() {
                        idx.note_remove(rel, &t);
                    }
                }
                DeltaOp::Eval(_) => {}
            }
            let rebuilt = DbIndex::build(&db);
            for rel in [r, s] {
                prop_assert_eq!(
                    idx.num_rows(rel),
                    rebuilt.num_rows(rel),
                    "step {}: live-row count drifted for {:?}", step, rel
                );
                for col in 0..2 {
                    prop_assert_eq!(
                        idx.distinct_count(rel, col),
                        rebuilt.distinct_count(rel, col),
                        "step {}: distinct count drifted for {:?} col {}", step, rel, col
                    );
                }
            }
        }
    }

    /// Delete-then-reinsert of the *same* tuple (any number of times,
    /// interleaved with probes) keeps dedup, postings, and liveness
    /// coherent — the tombstone interaction called out in the issue.
    #[test]
    fn delete_reinsert_cycles_stay_coherent(
        cycles in proptest::collection::vec((0i64..3, 0i64..3, any::<bool>()), 1..24),
    ) {
        let cat = catalog();
        let r = cat.resolve("R").unwrap();
        let queries = query_pool(&cat);
        let mut db = Database::new(&cat);
        let mut idx = DbIndex::build(&db);
        for (a, b, reinsert) in cycles {
            let t = vec![Value::int(a), Value::int(b)];
            if db.insert(r, t.clone()).unwrap() {
                idx.note_insert(r, &t);
            }
            prop_assert!(db.remove(r, &t).unwrap());
            prop_assert!(idx.note_remove(r, &t));
            if reinsert {
                prop_assert!(db.insert(r, t.clone()).unwrap());
                idx.note_insert(r, &t);
            }
            let rebuilt = DbIndex::build(&db);
            prop_assert_eq!(idx.num_rows(r), rebuilt.num_rows(r));
            for q in &queries {
                prop_assert_eq!(
                    evaluate(q, &idx),
                    evaluate(q, &rebuilt),
                    "{}", &q.name
                );
            }
        }
    }
}
