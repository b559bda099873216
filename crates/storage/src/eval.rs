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
//! The seed's scan-based evaluator is retained in [`naive`] as the
//! differential-testing and benchmarking reference.

use std::collections::BTreeSet;

use cqchase_index::{
    compile, compile_probe, join_unbound_distinct, join_with, CompiledQuery, JoinScratch,
    PlanCache, Sym,
};
use cqchase_ir::{ConjunctiveQuery, Term};

use crate::database::{Database, Tuple};
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

/// Evaluates `Q(B)` against a prebuilt index: the set of distinct
/// summary-row images, sorted for deterministic output. Use this entry
/// point when evaluating several queries over one instance.
pub fn evaluate_indexed(q: &ConjunctiveQuery, idx: &DbIndex) -> Vec<Tuple> {
    // One-shot path: compile directly — a throwaway plan cache would
    // only add key hashing and structure clones.
    evaluate_plan(q, idx, compile(q, idx).as_ref(), &mut JoinScratch::new())
}

/// Evaluates `Q(B)`: the set of distinct summary-row images, sorted for
/// deterministic output.
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Vec<Tuple> {
    evaluate_indexed(q, &DbIndex::build(db))
}

/// Evaluates a batch of queries over one instance: the index is built
/// once and one plan cache plus one join scratch are shared across the
/// whole batch, so repeated queries skip compilation and the steady
/// state allocates only result tuples. Answers are exactly
/// `qs.map(|q| evaluate(q, db))` — the differential property tests hold
/// the batch path to that.
///
/// This is the sequential reference engine; `cqchase-par` runs the same
/// computation across worker threads.
pub fn evaluate_batch(qs: &[ConjunctiveQuery], db: &Database) -> Vec<Vec<Tuple>> {
    let idx = DbIndex::build(db);
    let mut cache = PlanCache::new();
    let mut scratch = JoinScratch::new();
    qs.iter()
        .map(|q| evaluate_indexed_with(q, &idx, &mut cache, &mut scratch))
        .collect()
}

/// [`evaluate_indexed`] with a caller-owned plan cache and join scratch —
/// the per-item primitive the batch engines (sequential above, parallel
/// in `cqchase-par`) are built from. The cache must be dedicated to
/// `idx` (plans embed index-resolved symbols).
pub fn evaluate_indexed_with(
    q: &ConjunctiveQuery,
    idx: &DbIndex,
    cache: &mut PlanCache,
    scratch: &mut JoinScratch,
) -> Vec<Tuple> {
    evaluate_plan(q, idx, cache.get_or_compile(q, idx).0, scratch)
}

/// Runs an already looked-up plan for `q` over `idx`: the join half of
/// [`evaluate_indexed_with`], for callers that look plans up themselves
/// and want to see what the lookup did. `None` is the unsatisfiable
/// plan (some body constant is absent from `idx`) and yields no rows.
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

/// Evaluates a Boolean query (or any query) for mere satisfiability of
/// the body — `true` iff `Q(B)` is nonempty.
pub fn evaluate_boolean(q: &ConjunctiveQuery, db: &Database) -> bool {
    let idx = DbIndex::build(db);
    let Some(cq) = compile(q, &idx) else {
        return false;
    };
    // Distinct mode turns an acyclic existence check into pure semijoin
    // reduction: with no head variables, every subtree collapses.
    join_unbound_distinct(&idx, &cq, &mut JoinScratch::new(), |_, _| true)
        == cqchase_index::JoinOutcome::Stopped
}

/// Whether `t ∈ Q(B)` — decided by pre-binding the head and searching,
/// which avoids enumerating the whole answer.
pub fn contains_tuple(q: &ConjunctiveQuery, db: &Database, t: &Tuple) -> bool {
    if t.len() != q.output_arity() {
        return false;
    }
    let idx = DbIndex::build(db);
    let Some(cq) = compile_probe(q, &idx) else {
        return false;
    };
    let mut pre: Vec<Option<Sym>> = vec![None; cq.num_vars];
    for (ht, v) in q.head.iter().zip(t.iter()) {
        match ht {
            Term::Const(c) => {
                if !matches!(v, Value::Const(vc) if vc == c) {
                    return false;
                }
            }
            Term::Var(var) => {
                // A head variable is body-safe: binding it to a value
                // absent from the instance can never satisfy the body.
                let Some(sym) = idx.sym_of_value(v) else {
                    return false;
                };
                match pre[var.index()] {
                    Some(b) if b != sym => return false,
                    _ => pre[var.index()] = Some(sym),
                }
            }
        }
    }
    join_with(&idx, &cq, &pre, &mut JoinScratch::new(), |_, _| true)
        == cqchase_index::JoinOutcome::Stopped
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

    /// The scan-based equivalent of [`super::evaluate_boolean`].
    pub fn evaluate_boolean(q: &ConjunctiveQuery, db: &Database) -> bool {
        let order = atom_order(q, db);
        let mut b = Bindings::new(q.vars.len());
        search(q, db, &order, 0, &mut b, &mut |_| true)
    }

    /// The scan-based equivalent of [`super::contains_tuple`].
    pub fn contains_tuple(q: &ConjunctiveQuery, db: &Database, t: &Tuple) -> bool {
        if t.len() != q.output_arity() {
            return false;
        }
        let mut b = Bindings::new(q.vars.len());
        for (ht, v) in q.head.iter().zip(t.iter()) {
            match ht {
                Term::Const(c) => {
                    if !matches!(v, Value::Const(vc) if vc == c) {
                        return false;
                    }
                }
                Term::Var(var) => match b.get(*var) {
                    Some(bound) => {
                        if bound != v {
                            return false;
                        }
                    }
                    None => b.set(*var, v.clone()),
                },
            }
        }
        let order = atom_order(q, db);
        search(q, db, &order, 0, &mut b, &mut |_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::{parse_program, Catalog};

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
        assert_eq!(evaluate(&qs[0], &db), vec![vec![Value::int(1)]]);
        assert_eq!(
            evaluate(&qs[1], &db),
            vec![vec![Value::int(1)], vec![Value::int(2)]]
        );
    }

    #[test]
    fn contains_tuple_matches_evaluate() {
        let (_, qs, db) = setup();
        assert!(contains_tuple(&qs[0], &db, &vec![Value::int(1)]));
        assert!(!contains_tuple(&qs[0], &db, &vec![Value::int(2)]));
        assert!(contains_tuple(&qs[1], &db, &vec![Value::int(2)]));
        assert!(!contains_tuple(&qs[1], &db, &vec![Value::int(9)]));
        // Wrong arity.
        assert!(!contains_tuple(
            &qs[1],
            &db,
            &vec![Value::int(1), Value::int(1)]
        ));
    }

    #[test]
    fn repeated_variable_forces_equality() {
        let p = parse_program("relation R(a, b). Q(x) :- R(x, x).").unwrap();
        let mut db = Database::new(&p.catalog);
        db.insert_named("R", [1i64, 1]).unwrap();
        db.insert_named("R", [1i64, 2]).unwrap();
        assert_eq!(evaluate(&p.queries[0], &db), vec![vec![Value::int(1)]]);
    }

    #[test]
    fn constants_in_body() {
        let p = parse_program("relation R(a, b). Q(x) :- R(x, 7).").unwrap();
        let mut db = Database::new(&p.catalog);
        db.insert_named("R", [1i64, 7]).unwrap();
        db.insert_named("R", [2i64, 8]).unwrap();
        assert_eq!(evaluate(&p.queries[0], &db), vec![vec![Value::int(1)]]);
    }

    #[test]
    fn boolean_query_eval() {
        let p = parse_program("relation R(a, b). Q() :- R(x, x).").unwrap();
        let mut db = Database::new(&p.catalog);
        db.insert_named("R", [1i64, 2]).unwrap();
        assert!(!evaluate_boolean(&p.queries[0], &db));
        db.insert_named("R", [3i64, 3]).unwrap();
        assert!(evaluate_boolean(&p.queries[0], &db));
        // A Boolean query's answer set is {()} when satisfied.
        assert_eq!(evaluate(&p.queries[0], &db), vec![Vec::<Value>::new()]);
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
        let ans = evaluate(&p.queries[0], &db);
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
        let ans = evaluate(&p.queries[0], &db);
        assert_eq!(ans.len(), 2); // x = 1 and x = ⊥0 both work
    }

    #[test]
    fn empty_relation_gives_empty_answer() {
        let p = parse_program("relation R(a). Q(x) :- R(x).").unwrap();
        let db = Database::new(&p.catalog);
        assert!(evaluate(&p.queries[0], &db).is_empty());
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
            assert_eq!(evaluate(q, &db), naive::evaluate(q, &db), "{}", q.name);
            assert_eq!(
                evaluate_boolean(q, &db),
                naive::evaluate_boolean(q, &db),
                "{}",
                q.name
            );
        }
        let probe = vec![Value::int(2), Value::int(3)];
        assert_eq!(
            contains_tuple(&p.queries[0], &db, &probe),
            naive::contains_tuple(&p.queries[0], &db, &probe)
        );
    }
}
