//! The live-mutation correctness contract, as a property test: after
//! **any** interleaving of updates, evaluations, and containment checks
//! against one resident session — semantic cache enabled, requests
//! routed through the admission queue exactly like server traffic —
//! every answer is bit-identical to what a session registered *from
//! scratch* on the current facts would return.
//!
//! This is the strongest statement the service can make about
//! mutability: updates are invisible except through the facts they
//! change. Containment answers (facts-independent) must survive
//! updates unchanged; evaluation answers must track the facts exactly,
//! through tombstones, reinserts, compactions, and epoch bumps.

use std::sync::Arc;

use cqchase_core::{contained, ContainmentOptions};
use cqchase_ir::Constant;
use cqchase_service::{BarrierMode, Batcher, Metrics, Outcome, Session, Work};
use cqchase_storage::{evaluate, Database};
use proptest::prelude::*;

/// The session's fixed schema, Σ, and query pool. Q0 ⊆ Q1 under the
/// cyclic IND; Q2/Q3 exercise joins and reversed roles.
const BASE: &str = "relation R(a, b).
    ind R[2] <= R[1].
    Q0(x) :- R(x, y).
    Q1(x) :- R(x, y), R(y, z).
    Q2(x) :- R(y, x).
    Q3(x, z) :- R(x, y), R(y, z).";

const NUM_QUERIES: usize = 4;

/// One scripted step against the live session.
#[derive(Debug, Clone)]
enum Step {
    /// Apply a delta: tuples to insert and delete (possibly no-ops).
    Update(Vec<(i64, i64)>, Vec<(i64, i64)>),
    /// Evaluate query `q` and compare to a from-scratch session.
    Eval(usize),
    /// Check `q ⊆ q_prime` and compare to the direct library call.
    Check(usize, usize),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let tuples = || proptest::collection::vec((0i64..5, 0i64..5), 0..4);
    let step = (
        0u8..6,
        tuples(),
        tuples(),
        0usize..NUM_QUERIES,
        0usize..NUM_QUERIES,
    )
        .prop_map(|(kind, ins, del, q, qp)| match kind {
            0 | 1 => Step::Update(ins, del),
            2 | 3 => Step::Eval(q),
            _ => Step::Check(q, qp),
        });
    proptest::collection::vec(step, 1..20)
}

fn fact(a: i64, b: i64) -> (String, Vec<Constant>) {
    ("R".into(), vec![Constant::Int(a), Constant::Int(b)])
}

/// Renders the base program plus explicit facts — the from-scratch
/// registration text for the current mirror state.
fn program_with_facts(facts: &std::collections::BTreeSet<(i64, i64)>) -> String {
    let mut src = BASE.to_string();
    for (a, b) in facts {
        src.push_str(&format!("\nR({a}, {b})."));
    }
    src
}

/// The session's facts rebuilt as a [`Database`], so the oracle
/// evaluates them through an index built from scratch.
fn facts_db(s: &Session) -> Database {
    let facts = s.facts.read().unwrap();
    let catalog = &s.program().catalog;
    let mut db = Database::new(catalog);
    for rel in catalog.rel_ids() {
        for t in facts.index().tuples(rel) {
            db.insert(rel, t).unwrap();
        }
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn updated_session_is_indistinguishable_from_fresh(script in steps()) {
        let opts = ContainmentOptions::default();
        // Semantic cache ON (capacity 64) — the point of the property.
        let live = Arc::new(Session::new("live", BASE, 64, 64).unwrap());
        let batcher = Batcher::new(1, Arc::new(Metrics::new()));
        let mut mirror: std::collections::BTreeSet<(i64, i64)> =
            std::collections::BTreeSet::new();
        for (i, step) in script.iter().enumerate() {
            match step {
                Step::Update(ins, del) => {
                    let inserts: Vec<_> = ins.iter().map(|&(a, b)| fact(a, b)).collect();
                    let deletes: Vec<_> = del.iter().map(|&(a, b)| fact(a, b)).collect();
                    let out = batcher
                        .submit(Work::Update {
                            session: Arc::clone(&live),
                            insert: inserts,
                            delete: deletes,
                        })
                        .unwrap();
                    let Outcome::Update(Ok(sum)) = out else {
                        panic!("step {i}: update failed: {out:?}");
                    };
                    // Deletes before inserts, mirrored.
                    let mut deleted = 0;
                    for t in del {
                        if mirror.remove(t) {
                            deleted += 1;
                        }
                    }
                    let mut inserted = 0;
                    for t in ins {
                        if mirror.insert(*t) {
                            inserted += 1;
                        }
                    }
                    prop_assert_eq!(sum.inserted, inserted, "step {}: inserted", i);
                    prop_assert_eq!(sum.deleted, deleted, "step {}: deleted", i);
                    prop_assert_eq!(sum.facts, mirror.len(), "step {}: facts", i);
                }
                Step::Eval(q) => {
                    let out = batcher
                        .submit(Work::Eval {
                            session: Arc::clone(&live),
                            q: *q,
                        })
                        .unwrap();
                    let Outcome::Eval { rows, .. } = out else {
                        panic!("step {i}: expected eval outcome");
                    };
                    // From-scratch reference: a brand-new session parsed
                    // from the rendered program on the mirror facts.
                    let fresh =
                        Session::new("fresh", &program_with_facts(&mirror), 64, 64).unwrap();
                    let fresh_rows = evaluate(fresh.query(*q), &facts_db(&fresh));
                    prop_assert_eq!(&rows, &fresh_rows, "step {}: eval Q{}", i, q);
                }
                Step::Check(q, qp) => {
                    let out = batcher
                        .submit(Work::Check {
                            session: Arc::clone(&live),
                            q: *q,
                            q_prime: *qp,
                        })
                        .unwrap();
                    let Outcome::Check { summary, .. } = out else {
                        panic!("step {i}: expected check outcome");
                    };
                    let direct = contained(
                        live.query(*q),
                        live.query(*qp),
                        &live.program().deps,
                        &live.program().catalog,
                        &opts,
                    );
                    match (summary, direct) {
                        (Ok(sum), Ok(direct)) => {
                            prop_assert_eq!(
                                sum.contained, direct.contained,
                                "step {}: contained", i
                            );
                            prop_assert_eq!(sum.exact, direct.exact, "step {}: exact", i);
                            prop_assert_eq!(sum.bound, direct.bound, "step {}: bound", i);
                        }
                        // Pairs the engine rejects (e.g. output-arity
                        // mismatch Q3 vs the unary pool) must be
                        // rejected by both sides alike.
                        (Err(_), Err(_)) => {}
                        (live_r, direct_r) => prop_assert!(
                            false,
                            "step {}: Ok/Err disagreement: live {:?} vs direct {:?}",
                            i, live_r, direct_r
                        ),
                    }
                }
            }
        }
        // Final sweep: every query's rows match a fresh session's.
        let fresh = Session::new("fresh", &program_with_facts(&mirror), 64, 64).unwrap();
        for q in 0..NUM_QUERIES {
            let fresh_rows = evaluate(fresh.query(q), &facts_db(&fresh));
            prop_assert_eq!(live.eval(q), fresh_rows, "final eval Q{}", q);
        }
    }
}

/// One scripted step against a **pair** of sessions (the barrier-
/// relaxation property): `which` selects session A or B.
#[derive(Debug, Clone)]
enum TwoSessionStep {
    Update(bool, Vec<(i64, i64)>, Vec<(i64, i64)>),
    Eval(bool, usize),
    Check(bool, usize, usize),
}

fn two_session_steps() -> impl Strategy<Value = Vec<TwoSessionStep>> {
    let tuples = || proptest::collection::vec((0i64..5, 0i64..5), 0..4);
    let step = (
        0u8..6,
        any::<bool>(),
        tuples(),
        tuples(),
        0usize..NUM_QUERIES,
        0usize..NUM_QUERIES,
    )
        .prop_map(|(kind, which, ins, del, q, qp)| match kind {
            // Updates weighted up: adjacent same-session runs are the
            // coalescing path under test.
            0..=2 => TwoSessionStep::Update(which, ins, del),
            3 | 4 => TwoSessionStep::Eval(which, q),
            _ => TwoSessionStep::Check(which, q, qp),
        });
    proptest::collection::vec(step, 1..24)
}

/// Renders a two-session script as `Work` against the given pair.
fn script_to_work(script: &[TwoSessionStep], a: &Arc<Session>, b: &Arc<Session>) -> Vec<Work> {
    script
        .iter()
        .map(|step| {
            let pick = |which: bool| Arc::clone(if which { b } else { a });
            match step {
                TwoSessionStep::Update(w, ins, del) => Work::Update {
                    session: pick(*w),
                    insert: ins.iter().map(|&(x, y)| fact(x, y)).collect(),
                    delete: del.iter().map(|&(x, y)| fact(x, y)).collect(),
                },
                TwoSessionStep::Eval(w, q) => Work::Eval {
                    session: pick(*w),
                    q: *q,
                },
                TwoSessionStep::Check(w, q, qp) => Work::Check {
                    session: pick(*w),
                    q: *q,
                    q_prime: *qp,
                },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The barrier-relaxation contract: ANY interleaving of session-A
    /// updates with session-B (and A) checks/evals, drained as one
    /// batch through the per-session-barrier `Batcher`, is observably
    /// identical to the same script under the pre-relaxation **global**
    /// barriers, and both match sessions registered from scratch on the
    /// final facts. "Observably" means every per-step answer — update
    /// summaries' `inserted`/`deleted`/`facts`, eval rows, check
    /// decision fields — bit for bit; only raw epoch counters may
    /// differ (coalesced update runs share one bump).
    #[test]
    fn per_session_barriers_indistinguishable_from_global(script in two_session_steps()) {
        // Two independent session pairs, one per barrier mode. B gets a
        // different fact seed than A so cross-session mixups would show.
        let b_base = format!("{BASE}\nR(0, 1).");
        let a1 = Arc::new(Session::new("a", BASE, 64, 64).unwrap());
        let b1 = Arc::new(Session::new("b", &b_base, 64, 64).unwrap());
        let a2 = Arc::new(Session::new("a", BASE, 64, 64).unwrap());
        let b2 = Arc::new(Session::new("b", &b_base, 64, 64).unwrap());
        let relaxed = Batcher::new(1, Arc::new(Metrics::new()));
        let global = Batcher::with_barrier_mode(
            1,
            Arc::new(Metrics::new()),
            BarrierMode::Global,
        );
        let relaxed_outs = relaxed.submit_many(script_to_work(&script, &a1, &b1));
        let global_outs = global.submit_many(script_to_work(&script, &a2, &b2));
        prop_assert_eq!(relaxed_outs.len(), global_outs.len());
        for (i, (r, g)) in relaxed_outs.iter().zip(global_outs.iter()).enumerate() {
            match (r, g) {
                (Ok(Outcome::Update(r)), Ok(Outcome::Update(g))) => match (r, g) {
                    (Ok(r), Ok(g)) => {
                        prop_assert_eq!(r.inserted, g.inserted, "step {}: inserted", i);
                        prop_assert_eq!(r.deleted, g.deleted, "step {}: deleted", i);
                        prop_assert_eq!(r.facts, g.facts, "step {}: facts", i);
                    }
                    (Err(_), Err(_)) => {}
                    other => prop_assert!(false, "step {}: update Ok/Err: {:?}", i, other),
                },
                (Ok(Outcome::Eval { rows: r, .. }), Ok(Outcome::Eval { rows: g, .. })) => {
                    prop_assert_eq!(r, g, "step {}: eval rows", i);
                }
                (
                    Ok(Outcome::Check { summary: r, .. }),
                    Ok(Outcome::Check { summary: g, .. }),
                ) => match (r, g) {
                    (Ok(r), Ok(g)) => prop_assert_eq!(r, g, "step {}: check summary", i),
                    (Err(_), Err(_)) => {}
                    other => prop_assert!(false, "step {}: check Ok/Err: {:?}", i, other),
                },
                other => prop_assert!(false, "step {}: outcome kinds diverged: {:?}", i, other),
            }
        }
        // Both modes' final states match from-scratch sessions on the
        // mirror facts, for every query of both sessions.
        let mut mirror_a: std::collections::BTreeSet<(i64, i64)> =
            std::collections::BTreeSet::new();
        let mut mirror_b: std::collections::BTreeSet<(i64, i64)> =
            [(0, 1)].into_iter().collect();
        for step in &script {
            if let TwoSessionStep::Update(which, ins, del) = step {
                let m = if *which { &mut mirror_b } else { &mut mirror_a };
                for t in del {
                    m.remove(t);
                }
                for t in ins {
                    m.insert(*t);
                }
            }
        }
        for (live_pair, mirror, name) in [
            ((&a1, &a2), &mirror_a, "A"),
            ((&b1, &b2), &mirror_b, "B"),
        ] {
            let fresh = Session::new("fresh", &program_with_facts(mirror), 64, 64).unwrap();
            for q in 0..NUM_QUERIES {
                let fresh_rows = evaluate(fresh.query(q), &facts_db(&fresh));
                prop_assert_eq!(
                    live_pair.0.eval(q), fresh_rows.clone(),
                    "final relaxed {} Q{}", name, q
                );
                prop_assert_eq!(
                    live_pair.1.eval(q), fresh_rows,
                    "final global {} Q{}", name, q
                );
            }
        }
    }
}
