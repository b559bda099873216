//! Property tests on the storage substrate: evaluation is monotone, and
//! instance enumeration yields what it counts.

use cqchase_ir::{parse_program, Catalog, RelId};
use cqchase_storage::{evaluate, Database, DbIndex};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// CQ answers are monotone under tuple insertion.
    #[test]
    fn evaluation_monotone(db in instances(), extra in (0i64..4, 0i64..4)) {
        let p = parse_program(
            "relation R(a, b). relation S(x).
             Q(u) :- R(u, v), S(v).",
        )
        .unwrap();
        let q = p.query("Q").unwrap();
        let before = evaluate(q, &DbIndex::build(&db));
        let mut bigger = db.clone();
        bigger.insert_named("R", [extra.0, extra.1]).unwrap();
        let after = evaluate(q, &DbIndex::build(&bigger));
        for t in &before {
            prop_assert!(after.contains(t), "answers must be monotone");
        }
    }

    /// Enumeration covers exactly the advertised count and every yielded
    /// instance is well-formed.
    #[test]
    fn enumeration_counts(domain in 1i64..=2) {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let it = cqchase_storage::enumerate::all_instances(&c, domain).unwrap();
        let expect = it.count_total();
        let r = RelId(0);
        let mut n = 0u64;
        for db in it {
            n += 1;
            for t in db.relation(r).tuples() {
                prop_assert_eq!(t.len(), 2);
            }
        }
        prop_assert_eq!(n, expect);
    }
}
