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
//!
//! The same driver repairs database instances: [`chase_instance`] reads
//! a database as a Boolean query whose NDVs are its labelled nulls and
//! runs the R-chase to completion.

pub mod bound;
mod driver;
mod fd;
pub mod graph;
mod ind;
mod instance;
mod state;

pub use bound::{theorem2_bound, theorem2_bound_raw};
pub use driver::{
    Chase, ChaseBudget, ChaseMode, ChaseStatus, DEFAULT_MAX_CONJUNCTS, DEFAULT_MAX_STEPS,
};
pub use instance::{chase_instance, DataChaseOutcome, INSTANCE_CHASE_BUDGET};
pub use state::{ArcKind, CTerm, CVar, CVarOrigin, ChaseArc, ChaseState, ConjId, Conjunct};

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::parse_program;

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
        use cqchase_storage::{satisfies, Database};

        let p = parse_program(
            "relation R(a, b). relation S(a, b). relation T(a).
             fd R: a -> b.
             ind R[2] <= S[1]. ind S[2] <= T[1].
             Q(x) :- R(x, y), R(x, z), S(y, q).",
        )
        .unwrap();
        let mut ch = Chase::new(&p.queries[0], &p.deps, &p.catalog, ChaseMode::Required);
        let status = ch.run_to_completion(ChaseBudget::default());
        assert_eq!(status, ChaseStatus::Complete);
        // Interpret each chase symbol as a distinct labelled null.
        let db = instance::thaw(ch.state(), Database::new(&p.catalog), &[]);
        assert_eq!(db.total_tuples(), ch.state().num_alive());
        assert!(satisfies(&db, &p.deps));
    }
}
