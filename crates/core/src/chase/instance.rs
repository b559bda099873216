//! The instance-level chase: repair a finite database so it satisfies a
//! set of FDs and INDs.
//!
//! A database with labelled nulls is a Boolean query whose
//! nondistinguished variables are its nulls, so the classical instance
//! repair is the R-chase of that query, run by the same [`Chase`] that
//! decides containment:
//!
//! * **Freeze.** Each labelled null becomes an NDV, in ascending
//!   [`NullId`] order, and each tuple a conjunct.
//! * **Chase.** The FD rule unifies right-hand values: a constant wins,
//!   of two symbols the lexicographically first (so the lower null)
//!   wins, and two distinct constants fail the chase. The IND rule
//!   inserts a witness only when none exists (the *required* discipline;
//!   instances never need the oblivious one).
//! * **Thaw.** Surviving input nulls keep their ids; every symbol the
//!   chase created becomes a fresh null minted past the input's counter.
//!
//! IND chases need not terminate (e.g. `R[2] ⊆ R[1]` over a tuple with
//! distinct values), so every run carries a [`ChaseBudget`]; its
//! `max_conjuncts` caps the tuples ever created, the input's included.

use cqchase_ir::{Atom, ConjunctiveQuery, DependencySet, Term, VarId, VarKind, VarTable};
use cqchase_storage::{satisfies, Database, NullId, Value};

use super::driver::{Chase, ChaseBudget, ChaseMode, ChaseStatus};
use super::state::{CTerm, ChaseState};

/// The budget that generated and test instances are repaired under:
/// 100,000 R-chase steps and 100,000 tuples, below the containment
/// limits of [`ChaseBudget::default`].
pub const INSTANCE_CHASE_BUDGET: ChaseBudget = ChaseBudget {
    max_steps: 100_000,
    max_conjuncts: 100_000,
};

/// The result of chasing an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataChaseOutcome {
    /// The chase terminated; the database now satisfies Σ.
    Satisfied(Database),
    /// An FD forced two distinct constants to be equal — no repair exists
    /// that only unifies nulls and adds tuples.
    Inconsistent,
    /// The budget ran out first (the chase may be genuinely infinite).
    BudgetExhausted(Database),
}

impl DataChaseOutcome {
    /// The repaired database, if the chase succeeded.
    pub fn into_satisfied(self) -> Option<Database> {
        match self {
            DataChaseOutcome::Satisfied(db) => Some(db),
            _ => None,
        }
    }
}

/// Chases `db` with respect to `deps` under `budget`: `max_steps` caps
/// the R-chase scheduling steps (FD unifications are free) and
/// `max_conjuncts` the tuples ever created, the input's included, so a
/// repair never grows past it.
///
/// An instance that already satisfies Σ comes back as itself, whatever
/// its size; otherwise the result (when `Satisfied`) obeys every
/// dependency.
pub fn chase_instance(
    db: &Database,
    deps: &DependencySet,
    budget: ChaseBudget,
) -> DataChaseOutcome {
    if satisfies(db, deps) {
        return DataChaseOutcome::Satisfied(db.clone());
    }
    let (q, nulls) = freeze(db);
    let mut chase = Chase::new(&q, deps, db.catalog(), ChaseMode::Required);
    let status = chase.run_to_completion(budget);
    match status {
        ChaseStatus::Failed => DataChaseOutcome::Inconsistent,
        ChaseStatus::Complete => {
            DataChaseOutcome::Satisfied(thaw(chase.state(), db.cleared(), &nulls))
        }
        // With no level target and no cancel token, only the budget is
        // left to stop the run.
        _ => DataChaseOutcome::BudgetExhausted(thaw(chase.state(), db.cleared(), &nulls)),
    }
}

/// `db` as a Boolean query: one conjunct per tuple, one NDV per distinct
/// null. Returns the query and its nulls ascending, so NDV `i` (and chase
/// symbol `i`) stands for `nulls[i]`.
fn freeze(db: &Database) -> (ConjunctiveQuery, Vec<NullId>) {
    let tuples = || {
        db.iter()
            .flat_map(|(rel, r)| r.tuples().map(move |t| (rel, t)))
    };
    let mut nulls: Vec<NullId> = tuples()
        .flat_map(|(_, t)| t)
        .filter_map(|v| match v {
            Value::Null(n) => Some(*n),
            Value::Const(_) => None,
        })
        .collect();
    nulls.sort_unstable();
    nulls.dedup();
    let mut vars = VarTable::new();
    for n in &nulls {
        vars.push(Value::Null(*n).to_string(), VarKind::Existential);
    }
    let term = |v: &Value| match v {
        Value::Const(c) => Term::Const(c.clone()),
        Value::Null(n) => Term::Var(VarId(
            nulls.binary_search(n).expect("every null was collected") as u32,
        )),
    };
    let atoms = tuples()
        .map(|(rel, t)| Atom::new(rel, t.iter().map(term).collect()))
        .collect();
    let q = ConjunctiveQuery {
        name: "instance".to_owned(),
        head: Vec::new(),
        atoms,
        vars,
    };
    (q, nulls)
}

/// The live conjuncts of `state` as tuples of `out`, in creation order.
/// Chase symbol `i` becomes `frozen[i]`; every later symbol, dead or
/// alive, mints one fresh null of `out`, in creation order, so the
/// nulls are numbered as if each IND step had minted its own.
pub(super) fn thaw(state: &ChaseState, mut out: Database, frozen: &[NullId]) -> Database {
    let created: Vec<Value> = (frozen.len()..state.num_vars())
        .map(|_| out.fresh_null())
        .collect();
    let value = |t: CTerm| match t {
        CTerm::Const(c) => Value::Const(c),
        CTerm::Var(v) => match frozen.get(v.index()) {
            Some(&n) => Value::Null(n),
            None => created[v.index() - frozen.len()].clone(),
        },
    };
    for (id, c) in state.alive_conjuncts() {
        out.insert(c.rel, state.terms(id).map(value).collect())
            .expect("chase conjuncts have their relation's arity");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::{Catalog, DependencySetBuilder};

    fn emp_dep() -> (Catalog, DependencySet) {
        let mut c = Catalog::new();
        c.declare("EMP", ["eno", "sal", "dept"]).unwrap();
        c.declare("DEP", ["dno", "loc"]).unwrap();
        let deps = DependencySetBuilder::new(&c)
            .fd("EMP", ["eno"], "sal")
            .unwrap()
            .ind("EMP", ["dept"], "DEP", ["dno"])
            .unwrap()
            .build();
        (c, deps)
    }

    #[test]
    fn repairs_missing_ind_witness() {
        let (c, deps) = emp_dep();
        let mut db = Database::new(&c);
        db.insert_named("EMP", [1i64, 100, 10]).unwrap();
        let out = chase_instance(&db, &deps, INSTANCE_CHASE_BUDGET);
        let repaired = out.into_satisfied().expect("chase terminates");
        assert!(satisfies(&repaired, &deps));
        let dep = c.resolve("DEP").unwrap();
        assert_eq!(repaired.relation(dep).len(), 1);
        // The new DEP tuple carries the department key and a null location.
        let t = repaired.relation(dep).tuples().next().unwrap();
        assert_eq!(t[0], Value::int(10));
        assert!(t[1].is_null());
    }

    #[test]
    fn fd_unifies_nulls() {
        let (c, deps) = emp_dep();
        let mut db = Database::new(&c);
        let n1 = db.fresh_null();
        let n2 = db.fresh_null();
        let emp = c.resolve("EMP").unwrap();
        db.insert(emp, vec![Value::int(1), n1, Value::int(10)])
            .unwrap();
        db.insert(emp, vec![Value::int(1), n2, Value::int(10)])
            .unwrap();
        db.insert_named("DEP", [10i64, 0]).unwrap();
        let repaired = chase_instance(&db, &deps, INSTANCE_CHASE_BUDGET)
            .into_satisfied()
            .unwrap();
        assert!(satisfies(&repaired, &deps));
        // The two EMP tuples collapsed into one.
        assert_eq!(repaired.relation(emp).len(), 1);
    }

    #[test]
    fn fd_constant_clash_is_inconsistent() {
        let (c, deps) = emp_dep();
        let mut db = Database::new(&c);
        db.insert_named("EMP", [1i64, 100, 10]).unwrap();
        db.insert_named("EMP", [1i64, 200, 10]).unwrap();
        db.insert_named("DEP", [10i64, 0]).unwrap();
        assert_eq!(
            chase_instance(&db, &deps, INSTANCE_CHASE_BUDGET),
            DataChaseOutcome::Inconsistent
        );
    }

    #[test]
    fn nonterminating_chase_hits_budget() {
        // R[2] ⊆ R[1] with an FD is the paper's Section 4 Σ; without the
        // FD the pure IND chase on R(0, 1) runs forever adding R(1, ⊥),
        // R(⊥, ⊥'), ...
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let deps = DependencySetBuilder::new(&c)
            .ind("R", ["b"], "R", ["a"])
            .unwrap()
            .build();
        let mut db = Database::new(&c);
        db.insert_named("R", [0i64, 1]).unwrap();
        let out = chase_instance(
            &db,
            &deps,
            ChaseBudget {
                max_steps: 50,
                max_conjuncts: 50,
            },
        );
        assert!(matches!(out, DataChaseOutcome::BudgetExhausted(_)));
    }

    #[test]
    fn tuple_budget_never_overshoots() {
        // Pure IND cycle: the chase on R(0, 1) is infinite. Whatever
        // budget we set, the returned database must respect it exactly —
        // the regression was a final IND step landing past `max_conjuncts`.
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let deps = DependencySetBuilder::new(&c)
            .ind("R", ["b"], "R", ["a"])
            .unwrap()
            .build();
        let mut db = Database::new(&c);
        db.insert_named("R", [0i64, 1]).unwrap();
        for max_conjuncts in 1..6usize {
            let out = chase_instance(
                &db,
                &deps,
                ChaseBudget {
                    max_steps: 1000,
                    max_conjuncts,
                },
            );
            let DataChaseOutcome::BudgetExhausted(result) = out else {
                panic!("infinite chase must exhaust the budget");
            };
            assert!(
                result.total_tuples() <= max_conjuncts,
                "budget {max_conjuncts} overshot: {} tuples",
                result.total_tuples()
            );
        }
    }

    #[test]
    fn over_budget_input_is_not_grown() {
        // An input already past the tuple budget gains no tuples at all
        // (previously one more IND step ran before the check).
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let deps = DependencySetBuilder::new(&c)
            .ind("R", ["b"], "R", ["a"])
            .unwrap()
            .build();
        let mut db = Database::new(&c);
        for i in 0..4i64 {
            db.insert_named("R", [10 * i, 10 * i + 1]).unwrap();
        }
        let out = chase_instance(
            &db,
            &deps,
            ChaseBudget {
                max_steps: 1000,
                max_conjuncts: 2,
            },
        );
        let DataChaseOutcome::BudgetExhausted(result) = out else {
            panic!("violating over-budget input must report exhaustion");
        };
        assert_eq!(result.total_tuples(), db.total_tuples());
    }

    #[test]
    fn satisfied_over_budget_input_is_satisfied() {
        // Budget pressure must not misreport an instance that needs no
        // repair: satisfaction wins over size.
        let (c, deps) = emp_dep();
        let mut db = Database::new(&c);
        db.insert_named("EMP", [1i64, 100, 10]).unwrap();
        db.insert_named("DEP", [10i64, 0]).unwrap();
        let out = chase_instance(
            &db,
            &deps,
            ChaseBudget {
                max_steps: 1000,
                max_conjuncts: 1,
            },
        );
        assert_eq!(out, DataChaseOutcome::Satisfied(db));
    }

    #[test]
    fn section4_sigma_terminates_on_instances() {
        // With the FD R:{2}→1 *and* the IND R[2]⊆R[1], chasing the single
        // tuple R(0, 1): IND adds R(1, ⊥0); IND on ⊥0 adds R(⊥0, ⊥1); ...
        // but the FD forces agreement when second columns coincide. On
        // this seed the chase is still infinite in general — check that a
        // *closed* instance passes untouched instead.
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let deps = DependencySetBuilder::new(&c)
            .fd("R", ["b"], "a")
            .unwrap()
            .ind("R", ["b"], "R", ["a"])
            .unwrap()
            .build();
        let mut db = Database::new(&c);
        // A 2-cycle: R(0,1), R(1,0) — satisfies both dependencies.
        db.insert_named("R", [0i64, 1]).unwrap();
        db.insert_named("R", [1i64, 0]).unwrap();
        let out = chase_instance(&db, &deps, INSTANCE_CHASE_BUDGET);
        let repaired = out.into_satisfied().unwrap();
        assert_eq!(repaired.total_tuples(), 2);
    }

    #[test]
    fn already_satisfied_is_identity() {
        let (c, deps) = emp_dep();
        let mut db = Database::new(&c);
        db.insert_named("EMP", [1i64, 100, 10]).unwrap();
        db.insert_named("DEP", [10i64, 0]).unwrap();
        let repaired = chase_instance(&db, &deps, INSTANCE_CHASE_BUDGET)
            .into_satisfied()
            .unwrap();
        assert_eq!(repaired.total_tuples(), db.total_tuples());
    }
}
