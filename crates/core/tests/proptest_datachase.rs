//! Property tests on the instance chase: it repairs into Σ-satisfying
//! instances and leaves satisfying ones untouched.

use cqchase_core::{chase_instance, DataChaseOutcome, INSTANCE_CHASE_BUDGET};
use cqchase_ir::{Catalog, DependencySet, Fd, Ind};
use cqchase_storage::{satisfies, Database};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("R", ["a", "b"]).unwrap();
    c.declare("S", ["x"]).unwrap();
    c
}

/// A random instance over R (binary) and S (unary) with domain 0..4.
fn instances() -> impl Strategy<Value = Database> {
    (
        proptest::collection::vec((0i64..4, 0i64..4), 0..6),
        proptest::collection::vec(0i64..4, 0..4),
    )
        .prop_map(|(rs, ss)| {
            let c = catalog();
            let mut db = Database::new(&c);
            for (a, b) in rs {
                db.insert_named("R", [a, b]).unwrap();
            }
            for s in ss {
                db.insert_named("S", [s]).unwrap();
            }
            db
        })
}

/// Random Σ: possibly an FD on R, possibly the acyclic IND R[b] ⊆ S[x].
fn sigmas() -> impl Strategy<Value = DependencySet> {
    (any::<bool>(), any::<bool>()).prop_map(|(fd, ind)| {
        let c = catalog();
        let r = c.resolve("R").unwrap();
        let s = c.resolve("S").unwrap();
        let mut out = DependencySet::new();
        if fd {
            out.push(Fd::new(r, vec![0], 1));
        }
        if ind {
            out.push(Ind::new(r, vec![1], s, vec![0]));
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A successful data chase yields an instance satisfying Σ, and never
    /// loses the answer tuples of queries over the *original* data
    /// (homomorphic repairs only merge and add).
    #[test]
    fn data_chase_repairs(db in instances(), sigma in sigmas()) {
        match chase_instance(&db, &sigma, INSTANCE_CHASE_BUDGET) {
            DataChaseOutcome::Satisfied(repaired) => {
                prop_assert!(satisfies(&repaired, &sigma));
            }
            DataChaseOutcome::Inconsistent => {
                // Only FDs over constants can be inconsistent.
                prop_assert!(sigma.num_fds() > 0);
            }
            DataChaseOutcome::BudgetExhausted(_) => {
                // The acyclic Σ here always terminates.
                prop_assert!(false, "acyclic data chase must terminate");
            }
        }
    }

    /// Already-satisfying instances pass through the chase unchanged.
    #[test]
    fn chase_is_identity_on_satisfying(db in instances(), sigma in sigmas()) {
        if satisfies(&db, &sigma) {
            let out = chase_instance(&db, &sigma, INSTANCE_CHASE_BUDGET);
            match out {
                DataChaseOutcome::Satisfied(repaired) => {
                    prop_assert_eq!(repaired, db);
                }
                _ => prop_assert!(false, "satisfying instance must stay satisfied"),
            }
        }
    }
}
