//! Dependency satisfaction checking over finite instances.

use std::collections::HashMap;
use std::fmt;

use cqchase_ir::{Dependency, DependencySet, Fd, Ind};

use crate::database::{Database, Tuple};
use crate::value::Value;

/// A concrete witness that an instance violates a dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two tuples of `fd.relation` agree on `fd.lhs` but differ on
    /// `fd.rhs`.
    Fd {
        /// The violated dependency.
        fd: Fd,
        /// Index (into the relation's tuple list) of the first tuple.
        first: usize,
        /// Index of the second tuple.
        second: usize,
    },
    /// A tuple of `ind.lhs_rel` whose `X`-projection has no witness in
    /// `ind.rhs_rel`.
    Ind {
        /// The violated dependency.
        ind: Ind,
        /// Index of the unwitnessed tuple.
        tuple: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Fd { fd, first, second } => write!(
                f,
                "FD violation on relation #{}: tuples {first} and {second} agree on {:?} but differ on column {}",
                fd.relation.0, fd.lhs, fd.rhs
            ),
            Violation::Ind { ind, tuple } => write!(
                f,
                "IND violation: tuple {tuple} of relation #{} has no witness in relation #{}",
                ind.lhs_rel.0, ind.rhs_rel.0
            ),
        }
    }
}

fn project(t: &Tuple, cols: &[usize]) -> Vec<Value> {
    cols.iter().map(|&c| t[c].clone()).collect()
}

/// All violations of `fd` in `db`: one per tuple whose right-hand value
/// differs from that of the first tuple (in insertion order) with the
/// same left-hand-side value, reported as the pair (first, that tuple).
/// So `R(1, a), R(1, b), R(1, c)` under `R: 1 → 2` gives two violations,
/// `(0, 1)` and `(0, 2)`; a tuple that agrees with the first one is not
/// reported, even when it disagrees with another.
pub fn fd_violations(db: &Database, fd: &Fd) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut seen: HashMap<Vec<Value>, (usize, &Value)> = HashMap::new();
    for (i, t) in db.relation(fd.relation).tuples().enumerate() {
        let key = project(t, &fd.lhs);
        let rhs = &t[fd.rhs];
        match seen.get(&key) {
            None => {
                seen.insert(key, (i, rhs));
            }
            Some(&(j, prev)) => {
                if prev != rhs {
                    out.push(Violation::Fd {
                        fd: fd.clone(),
                        first: j,
                        second: i,
                    });
                }
            }
        }
    }
    out
}

/// All violations of `ind` in `db` (one per unwitnessed tuple).
pub fn ind_violations(db: &Database, ind: &Ind) -> Vec<Violation> {
    let mut out = Vec::new();
    // Index the right-hand side's Y-projections once.
    let rhs: std::collections::HashSet<Vec<Value>> = db
        .relation(ind.rhs_rel)
        .tuples()
        .map(|t| project(t, &ind.rhs_cols))
        .collect();
    for (i, t) in db.relation(ind.lhs_rel).tuples().enumerate() {
        if !rhs.contains(&project(t, &ind.lhs_cols)) {
            out.push(Violation::Ind {
                ind: ind.clone(),
                tuple: i,
            });
        }
    }
    out
}

/// Every violation of every dependency of Σ in `db`.
pub fn violations(db: &Database, deps: &DependencySet) -> Vec<Violation> {
    let mut out = Vec::new();
    for d in deps.iter() {
        match d {
            Dependency::Fd(fd) => out.extend(fd_violations(db, fd)),
            Dependency::Ind(ind) => out.extend(ind_violations(db, ind)),
        }
    }
    out
}

/// Whether `db` obeys every dependency of Σ (short-circuits).
pub fn satisfies(db: &Database, deps: &DependencySet) -> bool {
    deps.iter().all(|d| match d {
        Dependency::Fd(fd) => fd_violations(db, fd).is_empty(),
        Dependency::Ind(ind) => ind_violations(db, ind).is_empty(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqchase_ir::{Catalog, DependencySetBuilder};

    fn setup() -> (Catalog, DependencySet) {
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
    fn satisfied_instance() {
        let (c, deps) = setup();
        let mut db = Database::new(&c);
        db.insert_named("EMP", [1i64, 100, 10]).unwrap();
        db.insert_named("DEP", [10i64, 7]).unwrap();
        assert!(satisfies(&db, &deps));
        assert!(violations(&db, &deps).is_empty());
    }

    #[test]
    fn fd_violation_detected() {
        let (c, deps) = setup();
        let mut db = Database::new(&c);
        db.insert_named("EMP", [1i64, 100, 10]).unwrap();
        db.insert_named("EMP", [1i64, 200, 10]).unwrap();
        db.insert_named("DEP", [10i64, 7]).unwrap();
        let v = violations(&db, &deps);
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            Violation::Fd {
                first: 0,
                second: 1,
                ..
            }
        ));
        assert!(!satisfies(&db, &deps));
    }

    #[test]
    fn fd_violations_pair_each_disagreeing_tuple_with_the_first() {
        let mut c = Catalog::new();
        c.declare("R", ["k", "v"]).unwrap();
        let r = c.resolve("R").unwrap();
        let fd = Fd::new(r, vec![0], 1);
        let mut db = Database::new(&c);
        db.insert_named("R", [Value::int(1), Value::str("a")])
            .unwrap();
        db.insert_named("R", [Value::int(1), Value::str("b")])
            .unwrap();
        db.insert_named("R", [Value::int(1), Value::str("c")])
            .unwrap();
        let pairs: Vec<(usize, usize)> = fd_violations(&db, &fd)
            .into_iter()
            .map(|v| match v {
                Violation::Fd { first, second, .. } => (first, second),
                Violation::Ind { .. } => unreachable!("an FD check reports FD violations"),
            })
            .collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2)]);
    }

    #[test]
    fn ind_violation_detected() {
        let (c, deps) = setup();
        let mut db = Database::new(&c);
        db.insert_named("EMP", [1i64, 100, 10]).unwrap();
        let v = violations(&db, &deps);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::Ind { tuple: 0, .. }));
    }

    #[test]
    fn nulls_are_values_for_checking() {
        // Two distinct nulls in the FD's rhs column *are* a violation:
        // labelled nulls are distinct values until unified.
        let (c, deps) = setup();
        let mut db = Database::new(&c);
        let n1 = db.fresh_null();
        let n2 = db.fresh_null();
        let emp = c.resolve("EMP").unwrap();
        db.insert(emp, vec![Value::int(1), n1, Value::int(10)])
            .unwrap();
        db.insert(emp, vec![Value::int(1), n2, Value::int(10)])
            .unwrap();
        db.insert_named("DEP", [10i64, 7]).unwrap();
        assert!(!satisfies(&db, &deps));
    }

    #[test]
    fn empty_database_satisfies_everything() {
        let (c, deps) = setup();
        let db = Database::new(&c);
        assert!(satisfies(&db, &deps));
    }

    #[test]
    fn wide_ind() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b", "c"]).unwrap();
        c.declare("S", ["x", "y"]).unwrap();
        let deps = DependencySetBuilder::new(&c)
            .ind("R", ["a", "c"], "S", ["y", "x"])
            .unwrap()
            .build();
        let mut db = Database::new(&c);
        db.insert_named("R", [1i64, 99, 2]).unwrap();
        db.insert_named("S", [2i64, 1]).unwrap(); // S(y=1 at col x? S(x=2,y=1): Y=[y,x] -> (1,2)? no
                                                  // R[a,c] = (1,2) must appear in S[y,x]; S(2,1) has (y,x) = (1,2). OK.
        assert!(satisfies(&db, &deps));
        let mut db2 = Database::new(&c);
        db2.insert_named("R", [1i64, 99, 2]).unwrap();
        db2.insert_named("S", [1i64, 2]).unwrap(); // (y,x) = (2,1) ≠ (1,2)
        assert!(!satisfies(&db2, &deps));
    }
}
