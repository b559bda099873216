//! Corollary 2.3: IND inference as a special case of query containment.
//!
//! Given a goal IND `R[X] ⊆ S[Y]` of width `k`, build
//!
//! ```text
//! Q (x₁…x_k) :- R(…)                   // x_i at the X positions
//! Q′(x₁…x_k) :- R(…), S(…)             // x_i at the Y positions of S
//! ```
//!
//! Then `R[X] ⊆ S[Y]` can be inferred from Σ iff `Σ ⊨ Q ⊆∞ Q′`. The
//! paper states the construction for `X`/`Y` being leading columns; we
//! implement the general positional version (the generalization is the
//! obvious renaming).

use cqchase_ir::{Catalog, ConjunctiveQuery, DependencySet, Ind, QueryBuilder};

use crate::containment::{
    contained, ContainmentAnswer, ContainmentEngineError, ContainmentOptions,
};

/// Builds the pair `(Q, Q′)` of Corollary 2.3 for `goal`.
pub fn ind_inference_queries(
    goal: &Ind,
    catalog: &Catalog,
) -> (ConjunctiveQuery, ConjunctiveQuery) {
    let r_name = catalog.name(goal.lhs_rel).to_owned();
    let s_name = catalog.name(goal.rhs_rel).to_owned();
    let r_arity = catalog.arity(goal.lhs_rel);
    let s_arity = catalog.arity(goal.rhs_rel);

    // Head variable for the i-th X column (shared between Q and Q′).
    let head_vars: Vec<String> = (0..goal.width()).map(|i| format!("x{i}")).collect();

    // The R atom: head var at X positions, fresh `y` elsewhere.
    let r_terms: Vec<String> = (0..r_arity)
        .map(|col| match goal.lhs_cols.iter().position(|&c| c == col) {
            Some(k) => head_vars[k].clone(),
            None => format!("y{col}"),
        })
        .collect();
    // The S atom of Q′: head var at Y positions, fresh `z` elsewhere.
    let s_terms: Vec<String> = (0..s_arity)
        .map(|col| match goal.rhs_cols.iter().position(|&c| c == col) {
            Some(k) => head_vars[k].clone(),
            None => format!("z{col}"),
        })
        .collect();

    let q = QueryBuilder::new("Q_ind", catalog)
        .head_vars(head_vars.clone())
        .atom(&r_name, r_terms.clone())
        .expect("goal relations exist in the catalog")
        .build()
        .expect("construction is well-formed");
    let q_prime = QueryBuilder::new("Qp_ind", catalog)
        .head_vars(head_vars)
        .atom(&r_name, r_terms)
        .expect("goal relations exist in the catalog")
        .atom(&s_name, s_terms)
        .expect("goal relations exist in the catalog")
        .build()
        .expect("construction is well-formed");
    (q, q_prime)
}

/// Decides `Σ ⊨ R: Z → A` by chasing the classical *two-row tableau*:
/// a Boolean query with two `R` conjuncts sharing variables exactly on
/// `Z`. The FD is implied iff the chase identifies the two `A`-entries.
///
/// For Σ containing only FDs this is the textbook (exact, polynomial)
/// test and agrees with [`attribute_closure`]-based
/// [`implies_fd`](crate::inference::fd_closure::implies_fd); with INDs
/// present it is a chase-limited semi-decision (`None` = inconclusive
/// within budget — FD+IND implication is undecidable in general,
/// Mitchell 1983).
///
/// [`attribute_closure`]: crate::inference::fd_closure::attribute_closure
pub fn implies_fd_via_chase(
    sigma: &DependencySet,
    goal: &cqchase_ir::Fd,
    catalog: &Catalog,
    budget: crate::chase::ChaseBudget,
) -> Option<bool> {
    use crate::chase::{Chase, ChaseMode, ChaseStatus, ConjId};
    let arity = catalog.arity(goal.relation);
    let rel_name = catalog.name(goal.relation).to_owned();
    let row = |tag: &str| -> Vec<String> {
        (0..arity)
            .map(|col| {
                if goal.lhs.contains(&col) {
                    format!("z{col}") // shared on Z
                } else {
                    format!("{tag}{col}")
                }
            })
            .collect()
    };
    let q = cqchase_ir::QueryBuilder::new("fd_tableau", catalog)
        .head_vars(Vec::<String>::new())
        .atom(&rel_name, row("u"))
        .expect("relation exists")
        .atom(&rel_name, row("v"))
        .expect("relation exists")
        .build()
        .expect("tableau is well-formed");
    let mut chase = Chase::new(&q, sigma, catalog, ChaseMode::Required);
    let status = chase.run_to_completion(budget);
    let identified = || {
        let c0 = chase.state().resolve_conjunct(ConjId(0));
        let c1 = chase.state().resolve_conjunct(ConjId(1));
        chase.state().term(c0, goal.rhs) == chase.state().term(c1, goal.rhs)
    };
    match status {
        ChaseStatus::Failed => Some(true), // tableau inconsistent ⇒ vacuous
        ChaseStatus::Complete => Some(identified()),
        // Identification is monotone: once equal, forever equal — so a
        // positive early answer is sound even on a truncated chase.
        _ if identified() => Some(true),
        _ => None,
    }
}

/// Decides `Σ ⊨ R[X] ⊆ S[Y]` through the containment engine.
///
/// Exact for Σ consisting of INDs only or key-based (Theorem 2 classes);
/// see [`ContainmentAnswer::exact`] otherwise.
pub fn implies_ind_via_chase(
    sigma: &DependencySet,
    goal: &Ind,
    catalog: &Catalog,
    opts: &ContainmentOptions,
) -> Result<ContainmentAnswer, ContainmentEngineError> {
    let (q, q_prime) = ind_inference_queries(goal, catalog);
    contained(&q, &q_prime, sigma, catalog, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::ind_axioms::implies_ind_axiomatic;
    use cqchase_ir::parse_program;

    fn goal(p: &cqchase_ir::Program, l: &str, lc: Vec<usize>, r: &str, rc: Vec<usize>) -> Ind {
        Ind::new(
            p.catalog.resolve(l).unwrap(),
            lc,
            p.catalog.resolve(r).unwrap(),
            rc,
        )
    }

    #[test]
    fn construction_shape() {
        let p = parse_program("relation R(a, b, c). relation S(x, y).").unwrap();
        let g = goal(&p, "R", vec![2, 0], "S", vec![0, 1]);
        let (q, qp) = ind_inference_queries(&g, &p.catalog);
        assert_eq!(q.num_atoms(), 1);
        assert_eq!(qp.num_atoms(), 2);
        assert_eq!(q.output_arity(), 2);
        assert_eq!(qp.output_arity(), 2);
        // Q's R atom has x0 at column 2 and x1 at column 0.
        let x0 = q.vars.resolve("x0").unwrap();
        let x1 = q.vars.resolve("x1").unwrap();
        assert_eq!(q.atoms[0].terms[2], cqchase_ir::Term::Var(x0));
        assert_eq!(q.atoms[0].terms[0], cqchase_ir::Term::Var(x1));
    }

    #[test]
    fn chase_agrees_with_axioms_transitive() {
        let p = parse_program(
            "relation R(a). relation S(a). relation T(a).
             ind R[1] <= S[1]. ind S[1] <= T[1].",
        )
        .unwrap();
        let opts = ContainmentOptions::default();
        let yes = goal(&p, "R", vec![0], "T", vec![0]);
        let no = goal(&p, "T", vec![0], "R", vec![0]);
        assert!(
            implies_ind_via_chase(&p.deps, &yes, &p.catalog, &opts)
                .unwrap()
                .contained
        );
        assert!(
            !implies_ind_via_chase(&p.deps, &no, &p.catalog, &opts)
                .unwrap()
                .contained
        );
        assert_eq!(implies_ind_axiomatic(&p.deps, &yes, 100_000), Some(true));
        assert_eq!(implies_ind_axiomatic(&p.deps, &no, 100_000), Some(false));
    }

    #[test]
    fn chase_agrees_with_axioms_projection() {
        let p = parse_program(
            "relation R(a, b). relation S(x, y).
             ind R[1, 2] <= S[1, 2].",
        )
        .unwrap();
        let opts = ContainmentOptions::default();
        let cases = [
            (goal(&p, "R", vec![0], "S", vec![0]), true),
            (goal(&p, "R", vec![1], "S", vec![1]), true),
            (goal(&p, "R", vec![1, 0], "S", vec![1, 0]), true),
            (goal(&p, "R", vec![0], "S", vec![1]), false),
            (goal(&p, "S", vec![0], "R", vec![0]), false),
        ];
        for (g, expect) in cases {
            let chase = implies_ind_via_chase(&p.deps, &g, &p.catalog, &opts)
                .unwrap()
                .contained;
            let ax = implies_ind_axiomatic(&p.deps, &g, 1_000_000).unwrap();
            assert_eq!(chase, expect, "chase on {g:?}");
            assert_eq!(ax, expect, "axioms on {g:?}");
        }
    }

    #[test]
    fn fd_tableau_agrees_with_closure() {
        use crate::chase::ChaseBudget;
        use crate::inference::fd_closure::implies_fd;
        use cqchase_ir::Fd;
        let p = parse_program(
            "relation R(a, b, c).
             fd R: a -> b. fd R: b -> c.",
        )
        .unwrap();
        let r = p.catalog.resolve("R").unwrap();
        let cases = [
            (Fd::new(r, vec![0], 2), true),  // transitive
            (Fd::new(r, vec![1], 2), true),  // direct
            (Fd::new(r, vec![2], 0), false), // reversed
            (Fd::new(r, vec![1], 0), false),
        ];
        for (fd, expect) in cases {
            let closure = implies_fd(&p.deps, &fd);
            let chase = implies_fd_via_chase(&p.deps, &fd, &p.catalog, ChaseBudget::default());
            assert_eq!(closure, expect, "{fd:?}");
            assert_eq!(chase, Some(expect), "{fd:?}");
        }
    }

    #[test]
    fn fd_tableau_with_composite_lhs() {
        use crate::chase::ChaseBudget;
        use cqchase_ir::Fd;
        let p = parse_program(
            "relation R(a, b, c, d).
             fd R: a, b -> c.",
        )
        .unwrap();
        let r = p.catalog.resolve("R").unwrap();
        assert_eq!(
            implies_fd_via_chase(
                &p.deps,
                &Fd::new(r, vec![0, 1], 2),
                &p.catalog,
                ChaseBudget::default()
            ),
            Some(true)
        );
        assert_eq!(
            implies_fd_via_chase(
                &p.deps,
                &Fd::new(r, vec![0], 2),
                &p.catalog,
                ChaseBudget::default()
            ),
            Some(false)
        );
        assert_eq!(
            implies_fd_via_chase(
                &p.deps,
                &Fd::new(r, vec![0, 1], 3),
                &p.catalog,
                ChaseBudget::default()
            ),
            Some(false)
        );
    }

    #[test]
    fn fd_tableau_with_inds_positive() {
        use crate::chase::ChaseBudget;
        use cqchase_ir::Fd;
        // INDs that do not interact: the FD still decides.
        let p = parse_program(
            "relation R(a, b). relation S(x).
             fd R: a -> b.
             ind R[1] <= S[1].",
        )
        .unwrap();
        let r = p.catalog.resolve("R").unwrap();
        assert_eq!(
            implies_fd_via_chase(
                &p.deps,
                &Fd::new(r, vec![0], 1),
                &p.catalog,
                ChaseBudget::default()
            ),
            Some(true)
        );
    }

    #[test]
    fn trivial_goal_holds() {
        let p = parse_program("relation R(a, b).").unwrap();
        let g = goal(&p, "R", vec![0], "R", vec![0]);
        let opts = ContainmentOptions::default();
        assert!(
            implies_ind_via_chase(&p.deps, &g, &p.catalog, &opts)
                .unwrap()
                .contained
        );
    }

    #[test]
    fn same_relation_cycle() {
        let p = parse_program(
            "relation R(a, b).
             ind R[2] <= R[1].",
        )
        .unwrap();
        let opts = ContainmentOptions::default();
        // R[2] ⊆ R[1] holds (it is in Σ); R[1] ⊆ R[2] does not.
        assert!(
            implies_ind_via_chase(
                &p.deps,
                &goal(&p, "R", vec![1], "R", vec![0]),
                &p.catalog,
                &opts
            )
            .unwrap()
            .contained
        );
        assert!(
            !implies_ind_via_chase(
                &p.deps,
                &goal(&p, "R", vec![0], "R", vec![1]),
                &p.catalog,
                &opts
            )
            .unwrap()
            .contained
        );
    }
}
