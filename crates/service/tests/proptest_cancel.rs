//! The cancellation-isolation contract, as a property test: a script
//! with injected cancellations (pre-expired deadlines and client
//! disconnects) leaves the session's observable state **identical** to
//! the same script with the cancelled requests removed.
//!
//! This is the strongest statement the lifecycle layer can make:
//! cancellation is invisible except through the structured refusal the
//! cancelled request itself receives. A cancelled update is
//! all-or-nothing (refused before its commit point, no epoch bump, no
//! WAL record); a cancelled check must not seed the semantic cache; a
//! cancelled eval must not seed the result cache. Every *surviving*
//! request answers bit-identically in both runs, and the final session
//! state matches a from-scratch registration on the surviving updates'
//! facts.

use std::sync::Arc;

use cqchase_index::CancelToken;
use cqchase_ir::Constant;
use cqchase_service::{Batcher, Metrics, Outcome, Session, Work};
use cqchase_storage::{evaluate, Database, DbIndex};
use proptest::prelude::*;

/// Fixed schema, Σ, and query pool (Q0 ⊆ Q1 under the cyclic IND).
const BASE: &str = "relation R(a, b).
    ind R[2] <= R[1].
    Q0(x) :- R(x, y).
    Q1(x) :- R(x, y), R(y, z).
    Q2(x) :- R(y, x).
    Q3(x, z) :- R(x, y), R(y, z).";

const NUM_QUERIES: usize = 4;

/// How a scripted request is cancelled (or not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cancel {
    /// Lives to completion.
    No,
    /// Carries a deadline that is already expired at submission.
    Deadline,
    /// Its client disconnected before the work ran.
    Disconnect,
}

#[derive(Debug, Clone)]
enum Step {
    Update(Cancel, Vec<(i64, i64)>, Vec<(i64, i64)>),
    Eval(Cancel, usize),
    Check(Cancel, usize, usize),
}

impl Step {
    fn cancel(&self) -> Cancel {
        match self {
            Step::Update(c, ..) | Step::Eval(c, ..) | Step::Check(c, ..) => *c,
        }
    }
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let tuples = || proptest::collection::vec((0i64..5, 0i64..5), 0..4);
    let cancel = (0u8..4).prop_map(|k| match k {
        // Half the steps survive; the rest split between the two
        // cancellation causes.
        0 | 1 => Cancel::No,
        2 => Cancel::Deadline,
        _ => Cancel::Disconnect,
    });
    let step = (
        0u8..6,
        cancel,
        tuples(),
        tuples(),
        0usize..NUM_QUERIES,
        0usize..NUM_QUERIES,
    )
        .prop_map(|(kind, c, ins, del, q, qp)| match kind {
            0 | 1 => Step::Update(c, ins, del),
            2 | 3 => Step::Eval(c, q),
            _ => Step::Check(c, q, qp),
        });
    proptest::collection::vec(step, 1..24)
}

fn fact(a: i64, b: i64) -> (String, Vec<Constant>) {
    ("R".into(), vec![Constant::Int(a), Constant::Int(b)])
}

fn to_work(step: &Step, session: &Arc<Session>) -> Work {
    match step {
        Step::Update(_, ins, del) => Work::Update {
            session: Arc::clone(session),
            insert: ins.iter().map(|&(a, b)| fact(a, b)).collect(),
            delete: del.iter().map(|&(a, b)| fact(a, b)).collect(),
        },
        Step::Eval(_, q) => Work::Eval {
            session: Arc::clone(session),
            q: *q,
        },
        Step::Check(_, q, qp) => Work::Check {
            session: Arc::clone(session),
            q: *q,
            q_prime: *qp,
        },
    }
}

fn token_for(c: Cancel) -> CancelToken {
    match c {
        Cancel::No => CancelToken::unlimited(),
        Cancel::Deadline => CancelToken::with_deadline_ms(0),
        Cancel::Disconnect => {
            let t = CancelToken::unlimited();
            t.cancel();
            t
        }
    }
}

fn program_with_facts(facts: &std::collections::BTreeSet<(i64, i64)>) -> String {
    let mut src = BASE.to_string();
    for (a, b) in facts {
        src.push_str(&format!("\nR({a}, {b})."));
    }
    src
}

/// The session's facts rebuilt as a [`Database`] and indexed from
/// scratch, so the oracle shares no index state with the session.
fn fresh_index(s: &Session) -> DbIndex {
    let facts = s.facts.read().unwrap();
    let catalog = &s.program().catalog;
    let mut db = Database::new(catalog);
    for rel in catalog.rel_ids() {
        for t in facts.index().tuples(rel) {
            db.insert(rel, t).unwrap();
        }
    }
    DbIndex::build(&db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cancelled_requests_leave_no_observable_trace(script in steps()) {
        // Both sessions start from the same seed fact and carry live
        // semantic caches — a cancelled check leaking into the cache
        // would surface as a divergence on a later identical check.
        let seeded = format!("{BASE}\nR(0, 1).");
        let live = Arc::new(Session::new("live", &seeded, 64, 64).unwrap());
        let reference = Arc::new(Session::new("ref", &seeded, 64, 64).unwrap());
        let chaotic = Batcher::new(1, Arc::new(Metrics::new()));
        let calm = Batcher::new(1, Arc::new(Metrics::new()));

        // The chaotic run: the full script, cancellations included.
        let works: Vec<(Work, CancelToken)> = script
            .iter()
            .map(|s| (to_work(s, &live), token_for(s.cancel())))
            .collect();
        let chaotic_outs = chaotic.submit_many(works);

        // The reference run: the same script minus cancelled requests.
        let survivors: Vec<&Step> =
            script.iter().filter(|s| s.cancel() == Cancel::No).collect();
        let calm_outs =
            calm.submit_many(survivors.iter().map(|s| to_work(s, &reference)).collect());

        // Per-step: cancelled requests answer the structured refusal
        // with the right attribution; survivors answer bit-identically
        // to their counterpart in the cancellation-free run.
        let mut calm_iter = calm_outs.iter();
        for (i, (step, out)) in script.iter().zip(chaotic_outs.iter()).enumerate() {
            match step.cancel() {
                Cancel::Deadline => {
                    let Ok(Outcome::Cancelled { disconnect, .. }) = out else {
                        panic!("step {i}: expired deadline must cancel, got {out:?}");
                    };
                    prop_assert!(!disconnect, "step {}: deadline attribution", i);
                }
                Cancel::Disconnect => {
                    let Ok(Outcome::Cancelled { disconnect, .. }) = out else {
                        panic!("step {i}: disconnect must cancel, got {out:?}");
                    };
                    prop_assert!(*disconnect, "step {}: disconnect attribution", i);
                }
                Cancel::No => {
                    let counterpart = calm_iter.next().expect("survivor counts match");
                    match (out, counterpart) {
                        (Ok(Outcome::Update(a)), Ok(Outcome::Update(b))) => match (a, b) {
                            (Ok(a), Ok(b)) => {
                                prop_assert_eq!(a.inserted, b.inserted, "step {}", i);
                                prop_assert_eq!(a.deleted, b.deleted, "step {}", i);
                                prop_assert_eq!(a.facts, b.facts, "step {}", i);
                            }
                            (Err(_), Err(_)) => {}
                            other => prop_assert!(false, "step {}: {:?}", i, other),
                        },
                        (
                            Ok(Outcome::Eval { rows: a, .. }),
                            Ok(Outcome::Eval { rows: b, .. }),
                        ) => {
                            prop_assert_eq!(a, b, "step {}: eval rows", i);
                        }
                        (
                            Ok(Outcome::Check { summary: a, .. }),
                            Ok(Outcome::Check { summary: b, .. }),
                        ) => match (a, b) {
                            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "step {}", i),
                            (Err(_), Err(_)) => {}
                            other => prop_assert!(false, "step {}: {:?}", i, other),
                        },
                        other => prop_assert!(
                            false,
                            "step {}: outcome kinds diverged: {:?}",
                            i,
                            other
                        ),
                    }
                }
            }
        }
        prop_assert!(calm_iter.next().is_none(), "survivor counts match");

        // Final state: both sessions agree with each other and with a
        // from-scratch session on the surviving updates' facts — the
        // cancelled requests are bit-invisible.
        let mut mirror: std::collections::BTreeSet<(i64, i64)> =
            [(0, 1)].into_iter().collect();
        for step in &script {
            if let Step::Update(Cancel::No, ins, del) = step {
                for t in del {
                    mirror.remove(t);
                }
                for t in ins {
                    mirror.insert(*t);
                }
            }
        }
        let (live_facts, live_epoch) = live.facts_snapshot();
        let (ref_facts, ref_epoch) = reference.facts_snapshot();
        prop_assert_eq!(live_facts, mirror.len(), "live facts");
        prop_assert_eq!(ref_facts, mirror.len(), "reference facts");
        // Cancelled updates never bump the epoch: with identical
        // surviving updates, both sessions land on the same count.
        prop_assert_eq!(live_epoch, ref_epoch, "epochs agree");
        let fresh = Session::new("fresh", &program_with_facts(&mirror), 64, 64).unwrap();
        for q in 0..NUM_QUERIES {
            let fresh_rows = evaluate(fresh.query(q), &fresh_index(&fresh));
            prop_assert_eq!(live.eval(q), fresh_rows.clone(), "live Q{}", q);
            prop_assert_eq!(reference.eval(q), fresh_rows, "reference Q{}", q);
        }
    }
}
