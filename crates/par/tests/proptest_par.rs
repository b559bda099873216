//! Differential property tests for the parallel batch engines: for
//! every thread count (1, 2, and N > cores), `check_batch` must agree
//! *exactly* with the sequential engine and `evaluate_batch` with
//! per-query evaluation on random workloads — same decisions, same
//! witnesses, same answer sets, same errors, in the same order.

use cqchase_core::{
    check_batch as check_batch_seq, ContainmentAnswer, ContainmentEngineError, ContainmentOptions,
    ContainmentPair,
};
use cqchase_ir::builder::TermSpec;
use cqchase_ir::{Catalog, ConjunctiveQuery, DependencySet, Fd, Ind, QueryBuilder};
use cqchase_par::{check_batch, evaluate_batch, BatchOptions};
use cqchase_storage::eval::naive;
use cqchase_storage::{evaluate, Database, DbIndex, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const THREAD_COUNTS: [usize; 3] = [1, 2, 5];

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("R", ["a", "b"]).unwrap();
    c.declare("S", ["x", "y"]).unwrap();
    c
}

/// Random small queries over R/S: 1–4 atoms, variables v0..v3, v0 the
/// head, occasional constants (the same shape `proptest_hom.rs` uses).
fn small_query() -> impl Strategy<Value = ConjunctiveQuery> {
    let atom = (any::<bool>(), 0usize..4, 0usize..4, 0usize..6);
    proptest::collection::vec(atom, 1..4).prop_map(|atoms| {
        let cat = catalog();
        let mut b = QueryBuilder::new("Q", &cat).head_vars(["v0"]);
        for (i, (use_s, x, y, c)) in atoms.iter().enumerate() {
            let rel = if *use_s { "S" } else { "R" };
            let x = if i == 0 { 0 } else { *x };
            b = if *c < 2 {
                b.atom(
                    rel,
                    [TermSpec::Var(format!("v{x}")), TermSpec::from(*c as i64)],
                )
                .unwrap()
            } else {
                b.atom(rel, [format!("v{x}"), format!("v{y}")]).unwrap()
            };
        }
        b.build().unwrap()
    })
}

/// Small dependency sets mixing FDs and (possibly cyclic) INDs —
/// exercising both the chase-sharing classes (one dependency kind) and
/// the fresh-chase-per-pair Mixed class.
fn sigmas() -> impl Strategy<Value = DependencySet> {
    proptest::collection::vec((0usize..5, any::<bool>()), 0..3).prop_map(|picks| {
        let cat = catalog();
        let r = cat.resolve("R").unwrap();
        let s = cat.resolve("S").unwrap();
        let mut out = DependencySet::new();
        for (k, flip) in picks {
            match k {
                0 => out.push(Fd::new(r, vec![0], 1)),
                1 => out.push(Fd::new(s, vec![0], 1)),
                2 => out.push(Ind::new(r, vec![usize::from(flip)], s, vec![0])),
                3 => out.push(Ind::new(s, vec![1], r, vec![usize::from(flip)])),
                _ => out.push(Ind::new(r, vec![1], r, vec![0])),
            }
        }
        out
    })
}

/// Random instances over the two binary relations, domain 0..4.
fn instances() -> impl Strategy<Value = Database> {
    (
        proptest::collection::vec((0i64..4, 0i64..4), 0..8),
        proptest::collection::vec((0i64..4, 0i64..4), 0..8),
    )
        .prop_map(|(rs, ss)| {
            let c = catalog();
            let mut db = Database::new(&c);
            for (a, b) in rs {
                db.insert_named("R", [a, b]).unwrap();
            }
            for (a, b) in ss {
                db.insert_named("S", [a, b]).unwrap();
            }
            db
        })
}

/// Every decision field of two containment outcomes must coincide. The
/// chase-size diagnostics (`levels_explored`, `chase_conjuncts`,
/// `chase_steps`) are execution artifacts of chase sharing and are
/// compared by the sequential batch engine's own tests, not here.
fn assert_same_outcome(
    a: &Result<ContainmentAnswer, ContainmentEngineError>,
    b: &Result<ContainmentAnswer, ContainmentEngineError>,
    ctx: &str,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            prop_assert_eq!(x.contained, y.contained, "contained: {}", ctx);
            prop_assert_eq!(x.exact, y.exact, "exact: {}", ctx);
            prop_assert_eq!(x.empty_chase, y.empty_chase, "empty_chase: {}", ctx);
            prop_assert_eq!(x.bound, y.bound, "bound: {}", ctx);
            prop_assert_eq!(&x.class, &y.class, "class: {}", ctx);
            prop_assert_eq!(&x.witness, &y.witness, "witness: {}", ctx);
        }
        (Err(x), Err(y)) => prop_assert_eq!(x, y, "errors: {}", ctx),
        _ => prop_assert!(false, "Ok/Err disagreement: {}", ctx),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `check_batch` under 1, 2, and N threads ≡ the sequential engine.
    #[test]
    fn parallel_containment_agrees(
        qs in proptest::collection::vec(small_query(), 2..5),
        sigma in sigmas(),
    ) {
        let cat = catalog();
        let opts = ContainmentOptions::default();
        let mut pairs = Vec::new();
        for q in 0..qs.len() {
            for q_prime in 0..qs.len() {
                pairs.push(ContainmentPair { q, q_prime });
            }
        }
        let seq = check_batch_seq(&qs, &pairs, &sigma, &cat, &opts);
        for threads in THREAD_COUNTS {
            let par = check_batch(
                &qs, &pairs, &sigma, &cat, &opts,
                BatchOptions::with_threads(threads),
            );
            prop_assert_eq!(par.len(), seq.len());
            for (i, (a, b)) in par.iter().zip(seq.iter()).enumerate() {
                assert_same_outcome(a, b, &format!("pair {i}, {threads} threads"))?;
            }
        }
    }

    /// `evaluate_batch` under 1, 2, and N threads ≡ the naive scan
    /// reference per query, element for element.
    #[test]
    fn parallel_eval_agrees(
        qs in proptest::collection::vec(small_query(), 1..8),
        db in instances(),
    ) {
        let seq: Vec<_> = qs.iter().map(|q| naive::evaluate(q, &db)).collect();
        let idx = DbIndex::build(&db);
        for threads in THREAD_COUNTS {
            let par = evaluate_batch(&qs, &idx, BatchOptions::with_threads(threads));
            prop_assert_eq!(&par, &seq, "{} threads", threads);
        }
    }

    /// A **mutated** shared index (inserts + deletes + tombstones +
    /// guaranteed compactions + capacity shrinking applied
    /// incrementally) evaluates across worker threads bit-identically
    /// to a from-scratch index on the same final facts — the
    /// live-session update path runs exactly this shape: mutate under
    /// a write lock, then fan out reads.
    #[test]
    fn parallel_eval_agrees_on_mutated_index(
        qs in proptest::collection::vec(small_query(), 1..6),
        db in instances(),
        preamble_keep in 0i64..8,
        deltas in proptest::collection::vec(
            (any::<bool>(), any::<bool>(), 0i64..4, 0i64..4), 1..24),
    ) {
        let cat = catalog();
        let r = cat.resolve("R").unwrap();
        let s = cat.resolve("S").unwrap();
        let mut db = db;
        let mut idx = DbIndex::build(&db);
        // Preamble: bulk-insert a disjoint key range, then delete all
        // but `preamble_keep` of it — the tombstone count crosses the
        // adaptive compaction threshold deterministically, so every
        // case exercises renumbering (and shrinking) before the random
        // deltas land on the renumbered rows.
        for i in 0..96i64 {
            let t = vec![Value::int(100 + i), Value::int(100 + i)];
            if db.insert(r, t.clone()).unwrap() {
                idx.note_insert(r, &t);
            }
        }
        for i in preamble_keep..96i64 {
            let t = vec![Value::int(100 + i), Value::int(100 + i)];
            if db.remove(r, &t).unwrap() {
                prop_assert!(idx.note_remove(r, &t));
            }
        }
        prop_assert!(idx.compactions() > 0, "preamble must force a compaction");
        for (is_delete, use_s, a, b) in deltas {
            let rel = if use_s { s } else { r };
            let t = vec![Value::int(a), Value::int(b)];
            if is_delete {
                if db.remove(rel, &t).unwrap() {
                    prop_assert!(idx.note_remove(rel, &t));
                }
            } else if db.insert(rel, t.clone()).unwrap() {
                idx.note_insert(rel, &t);
            }
        }
        let fresh = DbIndex::build(&db);
        let seq: Vec<_> = qs.iter().map(|q| evaluate(q, &fresh)).collect();
        for threads in THREAD_COUNTS {
            let par = evaluate_batch(&qs, &idx, BatchOptions::with_threads(threads));
            prop_assert_eq!(&par, &seq, "{} threads over the mutated index", threads);
        }
    }
}
