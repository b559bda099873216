//! Differential property tests: the indexed join engine and the
//! retained naive scan-based evaluator must return identical `Q(B)`
//! result sets (not just cardinalities) on random queries and instances.

use cqchase_index::{compile, join_unbound_distinct, join_with, CompiledQuery, JoinScratch, Sym};
use cqchase_ir::builder::TermSpec;
use cqchase_ir::{Catalog, ConjunctiveQuery, QueryBuilder};
use cqchase_storage::eval::naive;
use cqchase_storage::{evaluate, Database, DbIndex};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("R", ["a", "b"]).unwrap();
    c.declare("S", ["x", "y"]).unwrap();
    c
}

/// Random instances over two binary relations, domain 0..4.
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

/// Skewed instances: one relation (R or S) holds 0–3 rows, the other up
/// to 64 over the wider domain 0..8, so an acyclic plan rooted at the
/// small relation derives the large one's candidates by key probes.
fn skewed_instances() -> impl Strategy<Value = Database> {
    (
        any::<bool>(),
        proptest::collection::vec((0i64..8, 0i64..8), 0..4),
        proptest::collection::vec((0i64..8, 0i64..8), 0..64),
    )
        .prop_map(|(r_small, small, large)| {
            let c = catalog();
            let mut db = Database::new(&c);
            let (small_rel, large_rel) = if r_small { ("R", "S") } else { ("S", "R") };
            for (a, b) in small {
                db.insert_named(small_rel, [a, b]).unwrap();
            }
            for (a, b) in large {
                db.insert_named(large_rel, [a, b]).unwrap();
            }
            db
        })
}

/// Random queries: 1–4 atoms over R/S, variables v0..v3, occasional
/// constants in the second position. The head is `v0`, or empty (a
/// Boolean query) in about one case in four, so the acyclic distinct
/// path's all-semijoin case runs too.
fn queries() -> impl Strategy<Value = ConjunctiveQuery> {
    let atom = (any::<bool>(), 0usize..4, 0usize..4, 0usize..8);
    (proptest::collection::vec(atom, 1..4), 0u8..4).prop_map(|(atoms, head)| {
        let cat = catalog();
        let head: &[&str] = if head == 0 { &[] } else { &["v0"] };
        let mut b = QueryBuilder::new("Q", &cat).head_vars(head.iter().copied());
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

/// Every full-enumeration solution (complete variable assignment) the
/// engine emits, sorted. Tuples are deduplicated per relation, so a
/// full binding determines the witness rows — the bindings alone are a
/// faithful multiset fingerprint of the enumeration.
fn all_solutions(idx: &DbIndex, cq: &CompiledQuery) -> Vec<Vec<Option<Sym>>> {
    let mut out = Vec::new();
    join_with(
        idx,
        cq,
        &vec![None; cq.num_vars],
        &mut JoinScratch::new(),
        |bind, _| {
            out.push(bind.to_vec());
            false
        },
    );
    out.sort();
    out
}

fn head_image(cq: &CompiledQuery, solutions: &[Vec<Option<Sym>>]) -> BTreeSet<Vec<Option<Sym>>> {
    solutions
        .iter()
        .map(|bind| cq.head_vars.iter().map(|&v| bind[v as usize]).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The full answer sets agree, element for element (for a Boolean
    /// query, `{()}` or empty).
    #[test]
    fn evaluate_agrees(q in queries(), db in instances()) {
        prop_assert_eq!(evaluate(&q, &DbIndex::build(&db)), naive::evaluate(&q, &db));
    }

    /// The acyclic fast path (when the planner takes it) enumerates
    /// exactly the same solution multiset as pure backtracking: strip
    /// the Yannakakis plan off a clone of the compiled query so the
    /// engine is forced down the backtracking search, and compare
    /// solution-for-solution.
    #[test]
    fn acyclic_agrees_with_forced_backtracking(q in queries(), db in instances()) {
        let idx = DbIndex::build(&db);
        let Some(cq) = compile(&q, &idx) else { return Ok(()); };
        let mut forced = cq.clone();
        forced.acyclic = None;
        prop_assert_eq!(all_solutions(&idx, &cq), all_solutions(&idx, &forced));
    }

    /// Distinct-witness mode may skip solutions that differ only outside
    /// the head, but its head-variable image must equal full
    /// enumeration's, and every emission must be a genuine solution.
    #[test]
    fn distinct_mode_preserves_head_image(q in queries(), db in instances()) {
        let idx = DbIndex::build(&db);
        let Some(cq) = compile(&q, &idx) else { return Ok(()); };
        let full = all_solutions(&idx, &cq);
        let full_set: BTreeSet<_> = full.iter().cloned().collect();
        let mut dist = Vec::new();
        join_unbound_distinct(&idx, &cq, &mut JoinScratch::new(), |bind, _| {
            dist.push(bind.to_vec());
            false
        });
        for bind in &dist {
            prop_assert!(full_set.contains(bind), "distinct emitted a non-solution");
        }
        prop_assert_eq!(head_image(&cq, &dist), head_image(&cq, &full));
    }

    /// On skewed instances, where children of the small relation are
    /// probed rather than scanned, the answers still equal the naive
    /// evaluator's and the solutions equal forced backtracking's.
    #[test]
    fn skewed_probes_agree(q in queries(), db in skewed_instances()) {
        let idx = DbIndex::build(&db);
        prop_assert_eq!(evaluate(&q, &idx), naive::evaluate(&q, &db));
        let Some(cq) = compile(&q, &idx) else { return Ok(()); };
        let mut forced = cq.clone();
        forced.acyclic = None;
        prop_assert_eq!(all_solutions(&idx, &cq), all_solutions(&idx, &forced));
    }
}
