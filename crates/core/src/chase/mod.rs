//! The chase of a conjunctive query with respect to a set of FDs and
//! INDs (paper, Section 3).
//!
//! The FD rule merges symbols; the IND rule adds conjuncts (possibly
//! forever). Two disciplines are provided, selected by [`ChaseMode`]:
//! the **O-chase** (oblivious: apply every IND once to every applicable
//! conjunct) and the **R-chase** (required: apply only when no witness
//! exists, recording cross arcs otherwise).
//!
//! The driver is *incremental*: [`Chase::expand_to_level`] builds the
//! chase breadth-first by level, so potentially infinite chases can be
//! explored up to the Theorem 2 bound ([`theorem2_bound`]) — which is
//! exactly what the containment engine does.

pub mod bound;
mod driver;
mod fd;
pub mod graph;
mod ind;
mod state;

pub use bound::{theorem2_bound, theorem2_bound_raw};
pub use driver::{
    Chase, ChaseBudget, ChaseMode, ChaseStatus, DEFAULT_MAX_CONJUNCTS, DEFAULT_MAX_STEPS,
};
pub use state::{ArcKind, CTerm, CVar, CVarOrigin, ChaseArc, ChaseState, ConjId, Conjunct};

use cqchase_ir::{Catalog, ConjunctiveQuery, DependencySet};

/// Convenience: runs the chase of `q` w.r.t. `deps` to completion under
/// `budget`. Returns the chase and its final status — remember that IND
/// chases may be infinite, in which case the status is
/// [`ChaseStatus::BudgetExhausted`] and the state holds a partial chase.
pub fn chase_query(
    q: &ConjunctiveQuery,
    deps: &DependencySet,
    catalog: &Catalog,
    mode: ChaseMode,
    budget: ChaseBudget,
) -> (Chase, ChaseStatus) {
    let mut ch = Chase::new(q, deps, catalog, mode);
    let status = ch.run_to_completion(budget);
    (ch, status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::parse_program;

    #[test]
    fn chase_query_convenience() {
        let p = parse_program(
            "relation R(a). relation S(a).
             ind R[1] <= S[1].
             Q(x) :- R(x).",
        )
        .unwrap();
        let (ch, status) = chase_query(
            &p.queries[0],
            &p.deps,
            &p.catalog,
            ChaseMode::Required,
            ChaseBudget::default(),
        );
        assert_eq!(status, ChaseStatus::Complete);
        assert_eq!(ch.state().num_alive(), 2);
    }

    /// Maier–Mendelzon–Sagiv determinism: chasing twice yields the same
    /// state (our construction is canonical, so even names agree).
    #[test]
    fn chase_is_deterministic() {
        let src = "relation R(a, b). relation S(a, b).
             fd R: a -> b. ind R[2] <= S[1]. ind S[1] <= R[1].
             Q(x) :- R(x, y), R(x, z), S(y, w).";
        let p = parse_program(src).unwrap();
        let render = |_: u32| {
            let mut ch = Chase::new(&p.queries[0], &p.deps, &p.catalog, ChaseMode::Required);
            ch.expand_to_level(4, ChaseBudget::default());
            let st = ch.state();
            st.alive_conjuncts()
                .map(|(id, _)| st.render_conjunct(id))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(0), render(1));
    }

    /// The finished chase, viewed as a database, obeys Σ (the paper's
    /// stability observation) — verified via the storage layer.
    #[test]
    fn complete_chase_obeys_sigma() {
        use cqchase_ir::Constant;
        use cqchase_storage::{satisfies, Database, Value};

        let p = parse_program(
            "relation R(a, b). relation S(a, b). relation T(a).
             fd R: a -> b.
             ind R[2] <= S[1]. ind S[2] <= T[1].
             Q(x) :- R(x, y), R(x, z), S(y, q).",
        )
        .unwrap();
        let (ch, status) = chase_query(
            &p.queries[0],
            &p.deps,
            &p.catalog,
            ChaseMode::Required,
            ChaseBudget::default(),
        );
        assert_eq!(status, ChaseStatus::Complete);
        // Interpret each chase symbol as a distinct constant.
        let mut db = Database::new(&p.catalog);
        for (_, c) in ch.state().alive_conjuncts() {
            let tuple: Vec<Value> = c
                .terms
                .iter()
                .map(|t| match t {
                    CTerm::Const(k) => Value::Const(k.clone()),
                    CTerm::Var(v) => Value::Const(Constant::str(ch.state().var_name(*v))),
                })
                .collect();
            db.insert(c.rel, tuple).unwrap();
        }
        assert!(satisfies(&db, &p.deps));
    }
}
