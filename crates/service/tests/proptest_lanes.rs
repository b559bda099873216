//! The lane-sharding correctness contract, as a property test: ANY
//! multi-session script of updates, evaluations, and containment
//! checks, routed through `lanes ∈ {1, 2, 4}` sharded admission
//! queues, answers bit-identically — step by step — to the single
//! queue, and every final state matches a session registered from
//! scratch on the accumulated facts.
//!
//! The sessions deliberately share catalogs: three of the four
//! register the *same* program source (one `FrozenCatalog`, three
//! attachments, shared base facts and plan cache) so the script also
//! drives copy-on-write promotion — the first effective update on a
//! shared session must split it off invisibly, while its catalog
//! siblings keep reading the untouched base.

use std::sync::Arc;

use cqchase_ir::Constant;
use cqchase_service::{
    lane_of, Batcher, CatalogRegistry, LaneSet, Metrics, Outcome, Session, Work,
};
use cqchase_storage::{evaluate, Database};
use proptest::prelude::*;

const BASE: &str = "relation R(a, b).
    ind R[2] <= R[1].
    Q0(x) :- R(x, y).
    Q1(x) :- R(x, y), R(y, z).
    Q2(x) :- R(y, x).
    Q3(x, z) :- R(x, y), R(y, z).";

const NUM_QUERIES: usize = 4;
const NUM_SESSIONS: usize = 4;

/// Session names fixed so lane placement is reproducible; t0–t2 share
/// one catalog, t3 gets its own (different seed facts).
const NAMES: [&str; NUM_SESSIONS] = ["t0", "t1", "t2", "t3"];

#[derive(Debug, Clone)]
enum Step {
    Update(usize, Vec<(i64, i64)>, Vec<(i64, i64)>),
    Eval(usize, usize),
    Check(usize, usize, usize),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let tuples = || proptest::collection::vec((0i64..5, 0i64..5), 0..4);
    let step = (
        0u8..6,
        0usize..NUM_SESSIONS,
        tuples(),
        tuples(),
        0usize..NUM_QUERIES,
        0usize..NUM_QUERIES,
    )
        .prop_map(|(kind, s, ins, del, q, qp)| match kind {
            0 | 1 => Step::Update(s, ins, del),
            2 | 3 => Step::Eval(s, q),
            _ => Step::Check(s, q, qp),
        });
    proptest::collection::vec(step, 1..24)
}

fn fact(a: i64, b: i64) -> (String, Vec<Constant>) {
    ("R".into(), vec![Constant::Int(a), Constant::Int(b)])
}

fn program_with_facts(facts: &std::collections::BTreeSet<(i64, i64)>) -> String {
    let mut src = BASE.to_string();
    for (a, b) in facts {
        src.push_str(&format!("\nR({a}, {b})."));
    }
    src
}

/// Builds the four sessions through one shared-catalog registry and a
/// `count`-lane set, then drives the script through it sequentially,
/// returning each step's observable answer.
struct LaneRun {
    sessions: Vec<Arc<Session>>,
    outcomes: Vec<Outcome>,
    catalogs: Arc<CatalogRegistry>,
}

fn run_script(script: &[Step], count: usize) -> LaneRun {
    let catalogs = Arc::new(CatalogRegistry::new(64));
    let t3_base = format!("{BASE}\nR(0, 1).");
    let sessions: Vec<Arc<Session>> = NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let src = if i == 3 { t3_base.as_str() } else { BASE };
            Arc::new(catalogs.session_from_source(name, src, 64, 64).unwrap())
        })
        .collect();
    let metrics = Arc::new(Metrics::with_lanes(count));
    let lanes = LaneSet::new(count, |i| {
        Batcher::new(1, Arc::clone(&metrics)).with_lane(i)
    });
    let outcomes = script
        .iter()
        .map(|step| {
            let (s, work) = match step {
                Step::Update(s, ins, del) => (
                    *s,
                    Work::Update {
                        session: Arc::clone(&sessions[*s]),
                        insert: ins.iter().map(|&(a, b)| fact(a, b)).collect(),
                        delete: del.iter().map(|&(a, b)| fact(a, b)).collect(),
                    },
                ),
                Step::Eval(s, q) => (
                    *s,
                    Work::Eval {
                        session: Arc::clone(&sessions[*s]),
                        q: *q,
                    },
                ),
                Step::Check(s, q, qp) => (
                    *s,
                    Work::Check {
                        session: Arc::clone(&sessions[*s]),
                        q: *q,
                        q_prime: *qp,
                    },
                ),
            };
            lanes.for_session(NAMES[s]).submit(work).unwrap()
        })
        .collect();
    LaneRun {
        sessions,
        outcomes,
        catalogs,
    }
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
    fn lane_counts_are_observably_identical(script in steps()) {
        let runs: Vec<LaneRun> = [1usize, 2, 4]
            .iter()
            .map(|&n| run_script(&script, n))
            .collect();
        // t0–t2 attached to one frozen catalog, t3 to another.
        for run in &runs {
            prop_assert_eq!(run.catalogs.len(), 2, "distinct catalogs");
        }
        // Step-by-step: every lane count answers exactly what the
        // single queue answers.
        let single = &runs[0];
        for run in &runs[1..] {
            prop_assert_eq!(run.outcomes.len(), single.outcomes.len());
            for (i, (r, g)) in run.outcomes.iter().zip(single.outcomes.iter()).enumerate() {
                match (r, g) {
                    (Outcome::Update(r), Outcome::Update(g)) => match (r, g) {
                        (Ok(r), Ok(g)) => prop_assert_eq!(r, g, "step {}: update summary", i),
                        (Err(_), Err(_)) => {}
                        other => prop_assert!(false, "step {}: update Ok/Err: {:?}", i, other),
                    },
                    (Outcome::Eval { rows: r, .. }, Outcome::Eval { rows: g, .. }) => {
                        prop_assert_eq!(r, g, "step {}: eval rows", i);
                    }
                    (Outcome::Check { summary: r, .. }, Outcome::Check { summary: g, .. }) => {
                        match (r, g) {
                            (Ok(r), Ok(g)) => prop_assert_eq!(r, g, "step {}: check summary", i),
                            (Err(_), Err(_)) => {}
                            other => prop_assert!(false, "step {}: check Ok/Err: {:?}", i, other),
                        }
                    }
                    other => prop_assert!(false, "step {}: outcome kinds diverged: {:?}", i, other),
                }
            }
        }
        // Every run's final state matches from-scratch sessions on the
        // mirror facts — sharing and promotion are invisible.
        let mut mirrors: Vec<std::collections::BTreeSet<(i64, i64)>> =
            vec![std::collections::BTreeSet::new(); NUM_SESSIONS];
        mirrors[3].insert((0, 1));
        // `promoted` replays the engine's copy-on-write probe: an
        // update promotes iff, against the facts *before* it, some
        // delete is present or some insert is absent. The final mirror
        // alone can't tell (an insert+delete round trip promotes yet
        // lands back on the base facts).
        let mut promoted = [false; NUM_SESSIONS];
        for step in &script {
            if let Step::Update(s, ins, del) = step {
                promoted[*s] |= del.iter().any(|t| mirrors[*s].contains(t))
                    || ins.iter().any(|t| !mirrors[*s].contains(t));
                for t in del {
                    mirrors[*s].remove(t);
                }
                for t in ins {
                    mirrors[*s].insert(*t);
                }
            }
        }
        for run in &runs {
            for (s, mirror) in mirrors.iter().enumerate() {
                let fresh = Session::new("fresh", &program_with_facts(mirror), 64, 64).unwrap();
                for q in 0..NUM_QUERIES {
                    let fresh_rows = evaluate(fresh.query(q), &facts_db(&fresh));
                    prop_assert_eq!(
                        run.sessions[s].eval(q), fresh_rows,
                        "final {} Q{}", NAMES[s], q
                    );
                }
            }
        }
        // An effective update on a shared session must have promoted it
        // (and only it) off the shared base.
        for run in &runs {
            for (s, session) in run.sessions.iter().enumerate() {
                prop_assert_eq!(
                    !session.facts_shared(),
                    promoted[s],
                    "{} shared/promoted state", NAMES[s]
                );
            }
        }
        // Sanity: the routing function the lanes used is total and
        // stable for these names.
        for name in NAMES {
            prop_assert!(lane_of(name, 4) < 4);
        }
    }
}
