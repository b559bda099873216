//! The deterministic two-session churn workload, shared by the
//! `bench_churn` baseline recorder and the `bench_gate` re-measurer so
//! both sides of a gate comparison replay identical traffic.
//!
//! Two questions, two measurements:
//!
//! * **Barrier scope** — session A takes a stream of sliding-window
//!   fact updates (the natural long-running use of a containment/
//!   evaluation service: a recent-facts window over a 100k-tuple
//!   relation) while session B serves steady check traffic from
//!   several clients. Under the pre-relaxation **global** barriers
//!   every A-update splits the segment around in-flight B-checks,
//!   costing B its in-batch coalescing and chase sharing; under
//!   **per-session** barriers B's batches run unsplit and adjacent
//!   A-updates merge into one write-lock acquisition. The gated metric
//!   is the wall-clock ratio `global / per_session` on the identical
//!   script (dimensionless — it survives moving between machines).
//!
//! * **Delete scaling** — the O(1) tuple-deletion path: per-tuple
//!   delete cost (database remove + incremental index maintenance,
//!   adaptive compaction included) measured at 10k and at 100k tuples.
//!   With the tuple→position map the ratio is ~1 (flat); the old
//!   O(n) position scan would show ~10x. Gated as
//!   `cost(10k) / cost(100k)` so higher-is-better like every other
//!   gate ratio.

use std::sync::Arc;

use cqchase_ir::{parse_program, Constant, Program, RelId};
use cqchase_service::{BarrierMode, Batcher, Metrics, Outcome, Session, Work};
use cqchase_storage::{Database, DbIndex, Tuple, Value};
use cqchase_workload::{chain_query, cycle_query, star_query, SlidingWindow};

/// Session A's live window (the "100k-tuple scale" of the ROADMAP item).
pub const CHURN_WINDOW: usize = 100_000;
/// Tuples inserted + deleted per update step.
pub const CHURN_CHUNK: usize = 64;
/// Interleaved rounds in the script (each: checks, then one update).
pub const CHURN_ROUNDS: usize = 64;
/// Session-B checks per round (arriving between two session-A updates).
pub const CHECKS_PER_ROUND: usize = 6;
/// Length of B's shared left-side chain query.
pub const B_LEFT_CHAIN: usize = 10;
/// Right-side queries in B's pool (chains, cycles, stars).
pub const B_RIGHTS: usize = 12;

/// The two-session churn script, fixed up front so every measurement
/// (and both barrier modes) replays byte-identical work.
pub struct ChurnWorkload {
    /// Session A's program (schema + queries; facts filled in).
    pub a_program: Program,
    /// Session B's program (schema + Σ + pool; a few facts).
    pub b_program: Program,
    /// B's `(q, q_prime)` pair rotation.
    pub b_pairs: Vec<(usize, usize)>,
    /// The window generator (updater `t` slides stripe `t`).
    pub window: SlidingWindow,
}

/// Builds the canonical workload. Session A holds [`CHURN_WINDOW`]
/// successor tuples and two queries (a self-join probe whose answer
/// stays empty — evaluation cost without 100k-row materialization —
/// and a scan); session B is the successor-cycle containment pool.
pub fn churn_workload() -> ChurnWorkload {
    let mut a_program = parse_program(
        "relation R(a, b).
         Selfloop(x) :- R(x, x).
         Hop(x) :- R(x, y).",
    )
    .expect("static program parses");
    let r = a_program.catalog.resolve("R").unwrap();
    let window = SlidingWindow {
        window: CHURN_WINDOW,
        chunk: CHURN_CHUNK,
    };
    a_program.facts = window
        .initial(r)
        .into_iter()
        .map(|(rel, t)| (rel, tuple_consts(&t)))
        .collect();

    // B: the successor-cycle schema with ONE shared left chain and a
    // pool of right sides. Same-left pairs share a chase within one
    // batch-engine call, so splitting a batch into segments (what
    // global barriers do) pays the chase again per segment — exactly
    // the cost this workload quantifies. Cycles never map into the
    // chain's chase (exhaustive negatives), chains map at assorted
    // witness levels (positives): both cost regimes are present.
    let mut b_program = parse_program(
        "relation R(a, b).
         ind R[2] <= R[1].
         Q(x) :- R(x, y).",
    )
    .expect("the successor schema is well-formed");
    let catalog = b_program.catalog.clone();
    let mut queries =
        vec![chain_query("Left", &catalog, "R", B_LEFT_CHAIN).expect("chain renders")];
    for i in 0..B_RIGHTS {
        let size = i % 8 + 3;
        let q = match i % 3 {
            0 => chain_query(&format!("RChain{i}"), &catalog, "R", size),
            1 => cycle_query(&format!("RCycle{i}"), &catalog, "R", size + 1),
            _ => star_query(&format!("RStar{i}"), &catalog, "R", size),
        }
        .expect("generated queries are well-formed");
        queries.push(q);
    }
    b_program.queries = queries;
    let b_cat_r = b_program.catalog.resolve("R").unwrap();
    b_program.facts = (0..32i64)
        .map(|i| (b_cat_r, vec![Constant::Int(i), Constant::Int((i + 1) % 32)]))
        .collect();
    let b_pairs = (1..=B_RIGHTS).map(|j| (0, j)).collect();
    ChurnWorkload {
        a_program,
        b_program,
        b_pairs,
        window,
    }
}

fn tuple_consts(t: &Tuple) -> Vec<Constant> {
    t.iter()
        .map(|v| v.as_const().expect("window tuples are constants").clone())
        .collect()
}

fn fact_specs(program: &Program, facts: Vec<(RelId, Tuple)>) -> Vec<(String, Vec<Constant>)> {
    facts
        .into_iter()
        .map(|(rel, t)| (program.catalog.name(rel).to_owned(), tuple_consts(&t)))
        .collect()
}

/// What one mode's run answered (compared across modes for identity).
#[derive(Debug, PartialEq, Eq)]
pub struct ChurnAnswers {
    /// `contained` decisions, in script order.
    pub checks: Vec<bool>,
    /// `(inserted, deleted, facts)` per update, in script order.
    pub updates: Vec<(usize, usize, usize)>,
}

/// Renders the interleaved two-session script: each of
/// [`CHURN_ROUNDS`] rounds queues [`CHECKS_PER_ROUND`] session-B
/// checks (rotating through the pair pool) and then one session-A
/// sliding-window update; every 16th round an A-eval (the empty
/// self-loop probe — full-scan cost without 100k-row materialization)
/// rides along. This is the admission pattern a drained batch sees
/// under concurrent clients, rendered deterministically.
pub fn churn_script(w: &ChurnWorkload, a: &Arc<Session>, b: &Arc<Session>) -> Vec<Work> {
    let r = w.a_program.catalog.resolve("R").unwrap();
    let mut script = Vec::new();
    for round in 0..CHURN_ROUNDS {
        for c in 0..CHECKS_PER_ROUND {
            let (q, q_prime) = w.b_pairs[(round * CHECKS_PER_ROUND + c) % w.b_pairs.len()];
            script.push(Work::Check {
                session: Arc::clone(b),
                q,
                q_prime,
            });
        }
        let (ins, del) = w.window.step(r, round);
        script.push(Work::Update {
            session: Arc::clone(a),
            insert: fact_specs(&w.a_program, ins),
            delete: fact_specs(&w.a_program, del),
        });
        if round % 16 == 7 {
            script.push(Work::Eval {
                session: Arc::clone(a),
                q: 0,
            });
        }
    }
    script
}

/// One measured run: builds fresh sessions (outside the timed region),
/// drains the canonical script as batches under `mode`, and returns
/// (wall seconds, answers). Deterministic — no submitter threads, no
/// scheduling noise: the cost difference between modes is exactly the
/// barrier scope (segment splitting, lost in-batch coalescing and
/// chase sharing, per-update lock acquisitions and epoch bumps).
pub fn measure_churn(w: &ChurnWorkload, mode: BarrierMode) -> (f64, ChurnAnswers) {
    // Semantic cache OFF for B (capacity 0): the measurement targets
    // batching/coalescing/chase-sharing, which a warm cache would hide.
    let a = Arc::new(Session::from_program("a", w.a_program.clone(), 0, 64).expect("A registers"));
    let b = Arc::new(Session::from_program("b", w.b_program.clone(), 0, 64).expect("B registers"));
    let batcher = Batcher::with_barrier_mode(1, Arc::new(Metrics::new()), mode);
    let script = churn_script(w, &a, &b);

    let start = std::time::Instant::now();
    let outs = batcher.submit_many(script);
    let elapsed = start.elapsed().as_secs_f64();

    let mut answers = ChurnAnswers {
        checks: Vec::new(),
        updates: Vec::new(),
    };
    for out in outs {
        match out.expect("churn work submits") {
            Outcome::Check {
                summary: Ok(sum), ..
            } => answers.checks.push(sum.contained),
            Outcome::Eval { rows, .. } => {
                assert!(rows.is_empty(), "successor windows have no self-loops")
            }
            Outcome::Update(Ok(sum)) => {
                answers.updates.push((sum.inserted, sum.deleted, sum.facts))
            }
            other => panic!("churn work failed: {other:?}"),
        }
    }
    (elapsed, answers)
}

/// Measures both barrier modes on the identical script, asserts the
/// answers are identical, and returns the speedup
/// `global_time / per_session_time`.
pub fn measure_barrier_speedup(w: &ChurnWorkload) -> f64 {
    let (relaxed_s, relaxed_a) = measure_churn(w, BarrierMode::PerSession);
    let (global_s, global_a) = measure_churn(w, BarrierMode::Global);
    assert_eq!(relaxed_a, global_a, "barrier modes must answer identically");
    global_s / relaxed_s.max(1e-12)
}

/// Per-tuple delete cost (seconds) on an `n`-tuple successor relation:
/// deletes the front half one tuple at a time through
/// `Database::remove` and `DbIndex::note_remove`. A live session pays
/// only the `DbIndex` half (tombstones, posting-list removal, adaptive
/// compaction); the `Database` half is the library store's own delete.
pub fn delete_cost_per_tuple(n: usize) -> f64 {
    let mut program = parse_program("relation R(a, b).").expect("schema parses");
    let rel = program.catalog.resolve("R").unwrap();
    program.facts.clear();
    let mut db = Database::new(&program.catalog);
    for i in 0..n as i64 {
        db.insert(rel, vec![Value::int(i), Value::int(i + 1)])
            .unwrap();
    }
    let mut idx = DbIndex::build(&db);
    let half = n / 2;
    let start = std::time::Instant::now();
    for i in 0..half as i64 {
        let t = vec![Value::int(i), Value::int(i + 1)];
        assert!(db.remove(rel, &t).unwrap());
        assert!(idx.note_remove(rel, &t));
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(db.total_tuples(), n - half);
    elapsed / half as f64
}

/// The delete-scaling measurement: per-tuple cost at 10k and 100k
/// tuples, plus the flatness ratio `cost(10k) / cost(100k)` (≈1 when
/// deletion is O(1); well under 1/2 would mean super-linear scaling).
pub fn measure_delete_flatness() -> (f64, f64, f64) {
    // Median of repeated runs: single timings of sub-10ms loops on a
    // shared machine are noisy, the ratio of medians is not.
    let median = |n: usize| -> f64 {
        let mut runs: Vec<f64> = (0..5).map(|_| delete_cost_per_tuple(n)).collect();
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    };
    let small = median(10_000);
    let large = median(100_000);
    (small, large, small / large.max(1e-15))
}
