//! Property tests on the chase and containment engines: the paper's
//! structural lemmas checked on randomized inputs.

use cqchase_core::chase::{CTerm, Chase, ChaseBudget, ChaseMode, ChaseStatus};
use cqchase_core::classify::{classify, SigmaClass};
use cqchase_core::contained;
use cqchase_core::containment::{ChaseBudgetOpt, ContainmentOptions};
use cqchase_core::inference::{implies_fd, implies_fd_via_chase};
use cqchase_ir::{parse_program, Catalog, ConjunctiveQuery, DependencySet, Fd, Ind, QueryBuilder};
use cqchase_storage::{satisfies, Database, Value};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("R", ["a", "b"]).unwrap();
    c.declare("S", ["x", "y"]).unwrap();
    c
}

fn small_query() -> impl Strategy<Value = ConjunctiveQuery> {
    let atom = (any::<bool>(), 0usize..3, 0usize..3);
    proptest::collection::vec(atom, 1..4).prop_map(|atoms| {
        let cat = catalog();
        let mut b = QueryBuilder::new("Q", &cat).head_vars(["v0"]);
        for (i, (use_s, x, y)) in atoms.iter().enumerate() {
            let rel = if *use_s { "S" } else { "R" };
            let (x, y) = if i == 0 { (0, *y) } else { (*x, *y) };
            b = b.atom(rel, [format!("v{x}"), format!("v{y}")]).unwrap();
        }
        b.build().unwrap()
    })
}

/// Acyclic-or-single-cycle IND sets plus optional FDs over R/S.
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

/// Interprets a (partial) chase as a database over string symbols.
fn chase_as_database(ch: &Chase, cat: &Catalog) -> Database {
    let mut db = Database::new(cat);
    for (id, c) in ch.state().alive_conjuncts() {
        let t: Vec<Value> = ch
            .state()
            .terms(id)
            .map(|t| match t {
                CTerm::Const(k) => Value::Const(k),
                CTerm::Var(v) => Value::str(ch.state().var_name(v)),
            })
            .collect();
        db.insert(c.rel, t).unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A chase that terminates satisfies Σ when viewed as a database —
    /// the paper's "the resulting query will, when viewed as a database,
    /// obey all the dependencies in Σ".
    #[test]
    fn complete_chase_obeys_sigma(q in small_query(), sigma in sigmas()) {
        let cat = catalog();
        for mode in [ChaseMode::Required, ChaseMode::Oblivious] {
            let mut ch = Chase::new(&q, &sigma, &cat, mode);
            let status = ch.run_to_completion(ChaseBudget {
                max_steps: 2_000,
                max_conjuncts: 5_000,
            });
            if status == ChaseStatus::Complete {
                let db = chase_as_database(&ch, &cat);
                prop_assert!(satisfies(&db, &sigma), "{mode:?} chase must obey Σ");
            }
        }
    }

    /// The R-chase never exceeds the O-chase in live conjuncts at equal
    /// levels (required applications are a subset of oblivious ones).
    #[test]
    fn r_chase_no_larger_than_o_chase(q in small_query(), sigma in sigmas()) {
        let cat = catalog();
        let levels = 3;
        let budget = ChaseBudget { max_steps: 2_000, max_conjuncts: 5_000 };
        let mut r = Chase::new(&q, &sigma, &cat, ChaseMode::Required);
        let rs = r.expand_to_level(levels, budget);
        let mut o = Chase::new(&q, &sigma, &cat, ChaseMode::Oblivious);
        let os = o.expand_to_level(levels, budget);
        // Only comparable when both fully built the requested levels.
        if rs != ChaseStatus::BudgetExhausted && os != ChaseStatus::BudgetExhausted {
            let rh = r.state().level_histogram();
            let oh = o.state().level_histogram();
            for (lvl, rn) in rh.iter().enumerate() {
                let on = oh.get(lvl).copied().unwrap_or(0);
                prop_assert!(on >= *rn, "level {lvl}: O {on} < R {rn}");
            }
        }
    }

    /// Witness levels respect the Theorem 2 bound on certified classes.
    #[test]
    fn witness_respects_bound(q in small_query(), qp in small_query(), sigma in sigmas()) {
        let cat = catalog();
        if classify(&sigma, &cat) == SigmaClass::Mixed {
            return Ok(());
        }
        let opts = ContainmentOptions {
            budget: ChaseBudgetOpt(ChaseBudget { max_steps: 1_000, max_conjuncts: 4_000 }),
            ..Default::default()
        };
        if let Ok(ans) = contained(&q, &qp, &sigma, &cat, &opts) {
            if let Some(w) = ans.witness {
                prop_assert!(w.max_level <= ans.bound,
                    "witness level {} above bound {}", w.max_level, ans.bound);
            }
        }
    }

    /// FD implication: attribute closure agrees with the two-row tableau
    /// chase on FD-only Σ.
    #[test]
    fn fd_closure_agrees_with_tableau(
        fds in proptest::collection::vec((0usize..2, 0usize..2), 0..3),
        goal in (0usize..2, 0usize..2),
    ) {
        let p = parse_program("relation T(p, q).").unwrap();
        let t = p.catalog.resolve("T").unwrap();
        let mut sigma = DependencySet::new();
        for (l, r) in fds {
            if l != r {
                sigma.push(Fd::new(t, vec![l], r));
            }
        }
        let (gl, gr) = goal;
        if gl == gr {
            return Ok(());
        }
        let fd = Fd::new(t, vec![gl], gr);
        let via_closure = implies_fd(&sigma, &fd);
        let via_chase = implies_fd_via_chase(&sigma, &fd, &p.catalog, ChaseBudget::default());
        prop_assert_eq!(via_chase, Some(via_closure));
    }

    /// Failed chases are empty and contained in everything.
    #[test]
    fn failed_chase_is_vacuous(qp in small_query()) {
        let p = parse_program(
            "relation R(a, b). relation S(x, y).
             fd R: a -> b.
             Bot(x) :- R(x, 1), R(x, 2), S(x, x).",
        )
        .unwrap();
        let ans = contained(
            p.query("Bot").unwrap(),
            &qp,
            &p.deps,
            &p.catalog,
            &ContainmentOptions::default(),
        );
        // Output arities match (both 1), so the call succeeds and is
        // vacuously positive.
        let ans = ans.unwrap();
        prop_assert!(ans.contained && ans.empty_chase);
    }
}
