//! Answer checking, outside every timed region.
//!
//! * `check` answers are compared with `cqchase_core::contained` run
//!   in-process on the same pair;
//! * `eval` rows are compared with a replica `Session` at the same
//!   facts epoch. For `update_eval` the replica is advanced through the
//!   same window steps, in request order; it holds the watch relation
//!   and the window tuples `Sel` can reach (a watched key and its
//!   successor), which is every tuple either query can match — no window
//!   tuple is a self-loop;
//! * `update` summaries must report pure churn (`CHUNK` inserted,
//!   `CHUNK` deleted, constant fact count) at strictly rising epochs.

use std::collections::{HashMap, HashSet};

use cqchase_core::{contained, ContainmentAnswer, ContainmentOptions};
use cqchase_ir::Constant;
use cqchase_service::batch::rows_to_value;
use cqchase_service::session::class_name;
use cqchase_service::{CheckSummary, FactSpec, Session};
use serde_json::Value;

use crate::gen::{Plan, Req, Workload, CHUNK};
use crate::wire::Round;

/// `cqchase_core::contained` on pair `(q, qp)` of `plan`'s queries,
/// with the decision fields a `check` response carries.
pub fn oracle(
    plan: &Plan,
    q: usize,
    qp: usize,
) -> Result<(CheckSummary, ContainmentAnswer), String> {
    let p = &plan.program;
    let ans = contained(
        &p.queries[q],
        &p.queries[qp],
        &p.deps,
        &p.catalog,
        &ContainmentOptions::default(),
    )
    .map_err(|e| {
        format!(
            "contained({}, {}): {e}",
            plan.query_name(q),
            plan.query_name(qp)
        )
    })?;
    let summary = CheckSummary {
        contained: ans.contained,
        exact: ans.exact,
        empty_chase: ans.empty_chase,
        class: class_name(&ans.class),
        bound: ans.bound,
    };
    Ok((summary, ans))
}

/// Expected answers for `pairs`, computed on two threads.
pub fn expected_checks(
    plan: &Plan,
    pairs: &[usize],
) -> HashMap<usize, Result<CheckSummary, String>> {
    let halves: Vec<&[usize]> = pairs.chunks(pairs.len().div_ceil(2).max(1)).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = halves
            .into_iter()
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&i| {
                            let (q, qp) = plan.pairs[i];
                            (i, oracle(plan, q, qp).map(|(summary, _)| summary))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread"))
            .collect()
    })
}

/// The eval replica: the registered program as set-up leaves it, or for
/// `update_eval` its reachable slice, plus that slice's filter.
struct Replica {
    session: Session,
    reach: Option<HashSet<i64>>,
}

impl Replica {
    fn new(plan: &Plan) -> Replica {
        let mut program = plan.replica_program();
        let reach = (plan.workload == Workload::UpdateEval).then(|| {
            let reach: HashSet<i64> = plan.watch.iter().flat_map(|&k| [k, k + 1]).collect();
            let r = plan.r();
            program.facts.retain(|(rel, t)| {
                *rel != r || matches!(t[0], Constant::Int(k) if reach.contains(&k))
            });
            reach
        });
        let session = Session::from_program("replica", program, 0, 16).expect("replica builds");
        Replica { session, reach }
    }

    /// Applies window step `step`, restricted to the reachable slice.
    fn step(&self, plan: &Plan, step: usize) {
        let reach = self.reach.as_ref().expect("only update_eval takes steps");
        let near = |f: &FactSpec| matches!(f.1[0], Constant::Int(k) if reach.contains(&k));
        let (ins, del) = plan.step_facts(step);
        let ins: Vec<_> = ins.into_iter().filter(near).collect();
        let del: Vec<_> = del.into_iter().filter(near).collect();
        if !ins.is_empty() || !del.is_empty() {
            self.session
                .apply_update(&ins, &del)
                .expect("replica step applies");
        }
    }
}

/// The outcome of checking one run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests checked (warm-up and timed).
    pub attempted: u64,
    /// Requests refused, failed in transport, or answered wrongly.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
    /// Timed `check`s answered from the semantic cache.
    pub checks_cached: u64,
    /// Timed `check`s.
    pub checks: u64,
    /// Timed `eval`s answered from the row cache.
    pub evals_cached: u64,
    /// Timed `eval`s.
    pub evals: u64,
}

impl Verdict {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(why);
        }
    }
}

fn check_matches(v: &Value, want: &CheckSummary) -> bool {
    v["contained"] == want.contained
        && v["exact"] == want.exact
        && v["empty_chase"] == want.empty_chase
        && v["class"] == want.class.as_str()
        && v["bound"].as_u64() == Some(u64::from(want.bound))
}

/// Checks every warm-up and timed answer of a run's rounds, each in
/// request order.
pub fn verify(plan: &Plan, rounds: &[Round]) -> Verdict {
    let mut pairs: Vec<usize> = rounds
        .iter()
        .flat_map(|r| {
            r.warm
                .iter()
                .map(|(q, _)| *q)
                .chain(r.log.exchanges(plan).map(|(q, _)| q))
        })
        .filter_map(|r| match r {
            Req::Check { pair, .. } => Some(pair),
            _ => None,
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let checks = expected_checks(plan, &pairs);
    let mut verdict = Verdict::default();
    for round in rounds {
        verify_round(plan, &checks, round, &mut verdict);
    }
    verdict
}

/// One round against a fresh replica (each round ran on a fresh server).
fn verify_round(
    plan: &Plan,
    checks: &HashMap<usize, Result<CheckSummary, String>>,
    round: &Round,
    verdict: &mut Verdict,
) {
    let replica = Replica::new(plan);
    let facts = (plan.window.window + plan.watch.len()) as u64;
    let mut last_epoch = 0u64;
    // One response judged against its request: `Ok(cached)` when it is
    // right, `Err(why)` when it is refused or wrong.
    let mut judge = |req: &Req, line: &str| -> Result<bool, String> {
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("{req:?}: unparsable response {e}"))?;
        if v["ok"] != true {
            return Err(format!("{req:?}: refused: {line}"));
        }
        match *req {
            Req::Check { pair, .. } => match checks.get(&pair) {
                Some(Ok(want)) if check_matches(&v, want) => {}
                Some(Ok(want)) => return Err(format!("{req:?}: got {line}, want {want:?}")),
                Some(Err(e)) => return Err(format!("{req:?}: oracle failed: {e}")),
                None => return Err(format!("{req:?}: no oracle answer")),
            },
            Req::Eval { query, .. } => {
                if v["rows"] != rows_to_value(&replica.session.eval(query)) {
                    return Err(format!("{req:?}: rows differ from the replica"));
                }
            }
            Req::Update { step } => {
                replica.step(plan, step);
                let epoch = v["epoch"].as_u64().unwrap_or(0);
                let churn = v["inserted"].as_u64() == Some(CHUNK as u64)
                    && v["deleted"].as_u64() == Some(CHUNK as u64)
                    && v["facts"].as_u64() == Some(facts);
                let rising = epoch > last_epoch;
                last_epoch = epoch;
                if !churn || !rising {
                    return Err(format!("{req:?}: unexpected summary {line}"));
                }
            }
        }
        Ok(v["cached"] == true)
    };

    for (req, line) in &round.warm {
        verdict.attempted += 1;
        if let Err(why) = judge(req, line) {
            verdict.fail(why);
        }
    }
    // Identical cache hits share one interned response: on the
    // workloads without updates, judge each (request, response) once.
    let memo = plan.workload != Workload::UpdateEval;
    let mut judged: HashMap<(Req, u32), Result<bool, String>> = HashMap::new();
    for (req, s) in round.log.exchanges(plan) {
        verdict.attempted += 1;
        let Some(line) = round.log.response(s) else {
            verdict.fail(format!("{req:?}: transport failure"));
            continue;
        };
        let outcome = if memo {
            judged
                .entry((req, s.resp))
                .or_insert_with(|| judge(&req, line))
                .clone()
        } else {
            judge(&req, line)
        };
        let cached = match outcome {
            Ok(cached) => cached,
            Err(why) => {
                verdict.fail(why);
                continue;
            }
        };
        match req {
            Req::Check { .. } => {
                verdict.checks += 1;
                verdict.checks_cached += u64::from(cached);
            }
            Req::Eval { .. } => {
                verdict.evals += 1;
                verdict.evals_cached += u64::from(cached);
            }
            Req::Update { .. } => {}
        }
    }
}
