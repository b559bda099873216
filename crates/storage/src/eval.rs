//! Conjunctive-query evaluation over finite instances.
//!
//! The paper defines `Q(B)` via homomorphisms: a tuple `ā` is in `Q(B)`
//! iff some function from the symbols of `Q` to the values of `B` fixes
//! constants, maps every conjunct onto a tuple of the corresponding
//! relation, and sends the summary row to `ā`. We implement exactly that
//! with the shared backtracking-join engine of [`cqchase_index`],
//! running over a [`DbIndex`] — the same ordering and pruning as the
//! homomorphism searches in `cqchase-core`, with per-atom candidates
//! produced by posting-list intersection instead of relation scans.
//!
//! Evaluation reads a [`DbIndex`], never a
//! [`Database`](crate::Database): a caller that holds a database builds
//! the index once with [`DbIndex::build`] and evaluates every query
//! against it. There are two doors: [`evaluate`] compiles and runs one
//! query, and [`evaluate_plan`] runs a plan the caller looked up in its
//! own [`PlanCache`](cqchase_index::PlanCache) (the service's sessions
//! and `cqchase-par`'s batch engine).
//!
//! The seed's scan-based evaluator is retained in [`naive`] as the
//! differential-testing and benchmarking reference; it is the one
//! evaluator that reads a database.

use std::collections::BTreeSet;

use cqchase_index::{compile, join_unbound_distinct, CompiledQuery, JoinScratch, Sym};
use cqchase_ir::{ConjunctiveQuery, Term};

use crate::database::Tuple;
use crate::indexed::DbIndex;
use crate::value::Value;

fn summary_image(q: &ConjunctiveQuery, idx: &DbIndex, bind: &[Option<Sym>]) -> Tuple {
    q.head
        .iter()
        .map(|t| match t {
            Term::Const(c) => Value::Const(c.clone()),
            Term::Var(v) => idx
                .value_of(bind[v.index()].expect("head variables are body-safe, hence bound"))
                .clone(),
        })
        .collect()
}

/// Evaluates `Q(B)` over the index of `B`: the set of distinct
/// summary-row images, sorted for deterministic output.
pub fn evaluate(q: &ConjunctiveQuery, idx: &DbIndex) -> Vec<Tuple> {
    // One-shot path: compile directly — a throwaway plan cache would
    // only add key hashing and structure clones.
    evaluate_plan(q, idx, compile(q, idx).as_ref(), &mut JoinScratch::new())
}

/// Runs an already looked-up plan for `q` over `idx`, for callers that
/// keep a plan cache and a join scratch across queries. The plan must
/// have been compiled over `idx` (plans embed its interned symbols).
/// `None` is the unsatisfiable plan (some body constant is absent from
/// `idx`) and yields no rows.
pub fn evaluate_plan(
    q: &ConjunctiveQuery,
    idx: &DbIndex,
    plan: Option<&CompiledQuery>,
    scratch: &mut JoinScratch,
) -> Vec<Tuple> {
    let Some(cq) = plan else {
        return Vec::new();
    };
    let mut out: BTreeSet<Tuple> = BTreeSet::new();
    // Distinct-witness mode: only the head image matters here, so
    // acyclic plans may collapse head-irrelevant subtrees instead of
    // enumerating their cross product.
    join_unbound_distinct(idx, cq, scratch, |bind, _| {
        out.insert(summary_image(q, idx, bind));
        false
    });
    out.into_iter().collect()
}

/// The seed's scan-based evaluator, retained verbatim as the reference
/// implementation the indexed engine is differential-tested and
/// benchmarked against. Per atom it loops over **all** tuples of the
/// atom's relation.
pub mod naive {
    use std::collections::BTreeSet;

    use cqchase_ir::{ConjunctiveQuery, Term, VarId};

    use crate::database::{Database, Tuple};
    use crate::value::Value;

    /// Partial assignment from query variables to database values.
    struct Bindings {
        slots: Vec<Option<Value>>,
    }

    impl Bindings {
        fn new(n: usize) -> Self {
            Bindings {
                slots: vec![None; n],
            }
        }

        fn get(&self, v: VarId) -> Option<&Value> {
            self.slots[v.index()].as_ref()
        }

        fn set(&mut self, v: VarId, val: Value) {
            self.slots[v.index()] = Some(val);
        }

        fn clear(&mut self, v: VarId) {
            self.slots[v.index()] = None;
        }
    }

    /// Attempts to extend the bindings so that `atom` maps onto `tuple`.
    /// Returns the variables newly bound (for backtracking), or `None`
    /// if the tuple is incompatible.
    fn try_match(atom_terms: &[Term], tuple: &Tuple, b: &mut Bindings) -> Option<Vec<VarId>> {
        let mut newly = Vec::new();
        for (t, v) in atom_terms.iter().zip(tuple.iter()) {
            let ok = match t {
                Term::Const(c) => matches!(v, Value::Const(vc) if vc == c),
                Term::Var(var) => match b.get(*var) {
                    Some(bound) => bound == v,
                    None => {
                        b.set(*var, v.clone());
                        newly.push(*var);
                        true
                    }
                },
            };
            if !ok {
                for &u in &newly {
                    b.clear(u);
                }
                return None;
            }
        }
        Some(newly)
    }

    /// Greedy atom ordering: repeatedly pick the atom with the most
    /// already-bound symbols (constants count), breaking ties by fewer
    /// candidate tuples.
    fn atom_order(q: &ConjunctiveQuery, db: &Database) -> Vec<usize> {
        let n = q.atoms.len();
        let mut order = Vec::with_capacity(n);
        let mut used = vec![false; n];
        let mut bound: BTreeSet<VarId> = BTreeSet::new();
        for _ in 0..n {
            let mut best: Option<(usize, usize, usize)> = None;
            for (i, atom) in q.atoms.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let score = atom
                    .terms
                    .iter()
                    .filter(|t| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => bound.contains(v),
                    })
                    .count();
                let size = db.relation(atom.relation).len();
                let better = match best {
                    None => true,
                    Some((_, s, sz)) => score > s || (score == s && size < sz),
                };
                if better {
                    best = Some((i, score, size));
                }
            }
            let (i, _, _) = best.expect("an unused atom exists");
            used[i] = true;
            bound.extend(q.atoms[i].vars());
            order.push(i);
        }
        order
    }

    fn search(
        q: &ConjunctiveQuery,
        db: &Database,
        order: &[usize],
        depth: usize,
        b: &mut Bindings,
        emit: &mut dyn FnMut(&Bindings) -> bool,
    ) -> bool {
        if depth == order.len() {
            return emit(b);
        }
        let atom = &q.atoms[order[depth]];
        for tuple in db.relation(atom.relation).tuples() {
            if let Some(newly) = try_match(&atom.terms, tuple, b) {
                let stop = search(q, db, order, depth + 1, b, emit);
                for v in newly {
                    b.clear(v);
                }
                if stop {
                    return true;
                }
            }
        }
        false
    }

    fn summary_image(q: &ConjunctiveQuery, b: &Bindings) -> Tuple {
        q.head
            .iter()
            .map(|t| match t {
                Term::Const(c) => Value::Const(c.clone()),
                Term::Var(v) => b
                    .get(*v)
                    .expect("head variables are body-safe, hence bound")
                    .clone(),
            })
            .collect()
    }

    /// The scan-based equivalent of [`super::evaluate`].
    pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Vec<Tuple> {
        let order = atom_order(q, db);
        let mut b = Bindings::new(q.vars.len());
        let mut out: BTreeSet<Tuple> = BTreeSet::new();
        search(q, db, &order, 0, &mut b, &mut |b| {
            out.insert(summary_image(q, b));
            false
        });
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use cqchase_ir::{parse_program, Catalog};

    fn eval(q: &ConjunctiveQuery, db: &Database) -> Vec<Tuple> {
        evaluate(q, &DbIndex::build(db))
    }

    fn setup() -> (Catalog, Vec<ConjunctiveQuery>, Database) {
        let p = parse_program(
            r#"
            relation EMP(eno, sal, dept).
            relation DEP(dno, loc).
            Q1(e) :- EMP(e, s, d), DEP(d, l).
            Q2(e) :- EMP(e, s, d).
            "#,
        )
        .unwrap();
        let mut db = Database::new(&p.catalog);
        db.insert_named("EMP", [1i64, 100, 10]).unwrap();
        db.insert_named("EMP", [2i64, 120, 20]).unwrap();
        db.insert_named("DEP", [10i64, 7]).unwrap();
        (p.catalog, p.queries, db)
    }

    #[test]
    fn intro_queries_differ_without_ind() {
        let (_, qs, db) = setup();
        // Employee 2's department 20 has no DEP row, so Q1 misses it.
        assert_eq!(eval(&qs[0], &db), vec![vec![Value::int(1)]]);
        assert_eq!(
            eval(&qs[1], &db),
            vec![vec![Value::int(1)], vec![Value::int(2)]]
        );
    }

    #[test]
    fn repeated_variable_forces_equality() {
        let p = parse_program("relation R(a, b). Q(x) :- R(x, x).").unwrap();
        let mut db = Database::new(&p.catalog);
        db.insert_named("R", [1i64, 1]).unwrap();
        db.insert_named("R", [1i64, 2]).unwrap();
        assert_eq!(eval(&p.queries[0], &db), vec![vec![Value::int(1)]]);
    }

    #[test]
    fn constants_in_body() {
        let p = parse_program("relation R(a, b). Q(x) :- R(x, 7).").unwrap();
        let mut db = Database::new(&p.catalog);
        db.insert_named("R", [1i64, 7]).unwrap();
        db.insert_named("R", [2i64, 8]).unwrap();
        assert_eq!(eval(&p.queries[0], &db), vec![vec![Value::int(1)]]);
    }

    #[test]
    fn boolean_query_eval() {
        let p = parse_program("relation R(a, b). Q() :- R(x, x).").unwrap();
        let mut db = Database::new(&p.catalog);
        db.insert_named("R", [1i64, 2]).unwrap();
        assert!(eval(&p.queries[0], &db).is_empty());
        db.insert_named("R", [3i64, 3]).unwrap();
        // A Boolean query's answer set is {()} when satisfied.
        assert_eq!(eval(&p.queries[0], &db), vec![Vec::<Value>::new()]);
    }

    #[test]
    fn join_across_relations() {
        let p = parse_program("relation R(a, b). relation S(b, c). Q(x, z) :- R(x, y), S(y, z).")
            .unwrap();
        let mut db = Database::new(&p.catalog);
        db.insert_named("R", [1i64, 2]).unwrap();
        db.insert_named("S", [2i64, 3]).unwrap();
        db.insert_named("S", [2i64, 4]).unwrap();
        db.insert_named("R", [5i64, 6]).unwrap();
        let ans = eval(&p.queries[0], &db);
        assert_eq!(
            ans,
            vec![
                vec![Value::int(1), Value::int(3)],
                vec![Value::int(1), Value::int(4)],
            ]
        );
    }

    #[test]
    fn nulls_join_like_values() {
        // Labelled nulls participate in joins as ordinary (distinct)
        // values — needed when evaluating over chased instances.
        let p = parse_program("relation R(a, b). Q(x) :- R(x, y), R(y, x).").unwrap();
        let mut db = Database::new(&p.catalog);
        let n = db.fresh_null();
        let r = p.catalog.resolve("R").unwrap();
        db.insert(r, vec![Value::int(1), n.clone()]).unwrap();
        db.insert(r, vec![n, Value::int(1)]).unwrap();
        let ans = eval(&p.queries[0], &db);
        assert_eq!(ans.len(), 2); // x = 1 and x = ⊥0 both work
    }

    #[test]
    fn empty_relation_gives_empty_answer() {
        let p = parse_program("relation R(a). Q(x) :- R(x).").unwrap();
        let db = Database::new(&p.catalog);
        assert!(eval(&p.queries[0], &db).is_empty());
    }

    #[test]
    fn indexed_agrees_with_naive() {
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
        for q in &p.queries {
            assert_eq!(eval(q, &db), naive::evaluate(q, &db), "{}", q.name);
        }
    }
}
