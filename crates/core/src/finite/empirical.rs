//! Empirical finite-containment checking by exhaustive enumeration.
//!
//! `Σ ⊨ Q ⊆f Q′` quantifies over every finite Σ-satisfying database. For
//! tiny domains we can simply enumerate them all, evaluate both queries,
//! and compare — which is how the experiments *demonstrate* (not prove)
//! the Section 4 claims: the counterexample's finite containment holds on
//! every instance up to the enumeration limit, while the chase refutes
//! unrestricted containment.

use cqchase_ir::{Catalog, ConjunctiveQuery, DependencySet};
use cqchase_storage::{enumerate, evaluate, satisfies, Database, DbIndex};

/// Outcome of an exhaustive finite-containment sweep.
#[derive(Debug, Clone)]
pub struct FiniteCheckReport {
    /// The domain size `{0, …, domain-1}` enumerated over.
    pub domain: i64,
    /// Number of instances enumerated (2^cells).
    pub instances_total: u64,
    /// How many satisfied Σ (only those count).
    pub instances_satisfying: u64,
    /// A Σ-satisfying instance with `Q(B) ⊄ Q′(B)`, if one exists: a
    /// *witness against* finite containment.
    pub counterexample: Option<Database>,
}

impl FiniteCheckReport {
    /// Whether `Q(B) ⊆ Q′(B)` held on every enumerated Σ-instance.
    pub fn holds(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// Checks `Q(B) ⊆ Q′(B)` on **every** database over `{0, …, domain-1}`
/// that satisfies Σ. Returns `None` when the instance space is too large
/// to enumerate (see [`enumerate::MAX_CELLS`]).
pub fn finite_contained_exhaustive(
    q: &ConjunctiveQuery,
    q_prime: &ConjunctiveQuery,
    sigma: &DependencySet,
    catalog: &Catalog,
    domain: i64,
) -> Option<FiniteCheckReport> {
    let instances = enumerate::all_instances(catalog, domain)?;
    let instances_total = instances.count_total();
    let mut instances_satisfying = 0u64;
    let mut counterexample = None;
    for db in instances {
        if !satisfies(&db, sigma) {
            continue;
        }
        instances_satisfying += 1;
        if counterexample.is_none() {
            let idx = DbIndex::build(&db);
            let a = evaluate(q, &idx);
            let b = evaluate(q_prime, &idx);
            let b_set: cqchase_index::FxHashSet<_> = b.into_iter().collect();
            if !a.iter().all(|t| b_set.contains(t)) {
                counterexample = Some(db);
            }
        }
    }
    Some(FiniteCheckReport {
        domain,
        instances_total,
        instances_satisfying,
        counterexample,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::parse_program;

    #[test]
    fn trivial_containment_holds_finitely() {
        let p = parse_program(
            "relation R(a, b).
             Q(x) :- R(x, y), R(y, z).
             Qp(x) :- R(x, w).",
        )
        .unwrap();
        let rep = finite_contained_exhaustive(
            p.query("Q").unwrap(),
            p.query("Qp").unwrap(),
            &p.deps,
            &p.catalog,
            2,
        )
        .unwrap();
        assert!(rep.holds());
        assert_eq!(rep.instances_total, 16);
        assert_eq!(rep.instances_satisfying, 16); // Σ empty
    }

    #[test]
    fn non_containment_finds_witness() {
        let p = parse_program(
            "relation R(a, b).
             Q(x) :- R(x, y).
             Qp(x) :- R(y, x).",
        )
        .unwrap();
        let rep = finite_contained_exhaustive(
            p.query("Q").unwrap(),
            p.query("Qp").unwrap(),
            &p.deps,
            &p.catalog,
            2,
        )
        .unwrap();
        assert!(!rep.holds());
        let w = rep.counterexample.unwrap();
        assert!(w.total_tuples() >= 1);
    }

    #[test]
    fn sigma_filters_instances() {
        let p = parse_program(
            "relation R(a, b).
             fd R: a -> b.
             Q(x) :- R(x, y).
             Qp(x) :- R(x, z).",
        )
        .unwrap();
        let rep = finite_contained_exhaustive(
            p.query("Q").unwrap(),
            p.query("Qp").unwrap(),
            &p.deps,
            &p.catalog,
            2,
        )
        .unwrap();
        assert!(rep.holds());
        // FD a→b over 2×2: instances where no key repeats. 16 total; the
        // violating ones pair (0,0)&(0,1) or (1,0)&(1,1): count = 16 − 7 = 9.
        assert_eq!(rep.instances_total, 16);
        assert_eq!(rep.instances_satisfying, 9);
    }

    #[test]
    fn oversized_domain_refused() {
        let p = parse_program(
            "relation R(a, b, c).
             Q(x) :- R(x, y, z).
             Qp(x) :- R(x, y2, z2).",
        )
        .unwrap();
        assert!(finite_contained_exhaustive(
            p.query("Q").unwrap(),
            p.query("Qp").unwrap(),
            &p.deps,
            &p.catalog,
            4, // 4^3 = 64 cells > MAX_CELLS
        )
        .is_none());
    }
}
