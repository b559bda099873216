//! The request-lifecycle resilience workloads: what cooperative
//! cancellation costs when it never fires, and how promptly it fires
//! when it does.
//!
//! **Cancellation-check overhead** replays the canonical `bench_service`
//! containment batch (same seed, same pool, same pairs) through the
//! core batch engine twice: once token-free (`cancels: None` — the
//! engines take the exact pre-lifecycle path) and once with a live
//! deadline-armed token per pair (far-future deadline, so every
//! coalesced check pays the full price: one atomic load *and* one clock
//! read). The throughput ratio `tokened/tokenfree` is the dimensionless
//! overhead of threading cancellation through the join loops; the
//! lifecycle budget caps it at 10% (efficiency ≥ 0.90). Answers are
//! asserted identical between the two runs.
//!
//! **Deadline promptness** runs a deliberately expensive evaluation
//! (3-hop chain over a complete digraph, projected onto both endpoints
//! — Θ(n⁴) emissions of uniform cost) under short deadlines and measures how far past each
//! deadline the engine runs before unwinding (`CancelToken::overrun_us`
//! at return). The reference scale is the *check interval measured in
//! time*: the same join is run with an unlimited token that is fired
//! externally mid-join, and the worst observed fire-to-return lag is,
//! by construction, about one full inter-check gap (the engine was at
//! worst [`CANCEL_CHECK_INTERVAL`] candidates away from noticing) plus
//! the unwind. The gated ratio `2·interval / p99 overrun` must stay
//! ≥ 1.0 — a deadline may overrun by at most twice the coalesced check
//! interval, so a lost check in some join loop (overruns of many
//! intervals) craters it immediately.
//!
//! [`CANCEL_CHECK_INTERVAL`]: cqchase_index::CANCEL_CHECK_INTERVAL

use std::time::Instant;

use cqchase_core::{check_batch, BatchPair, ContainmentOptions, ContainmentPair};
use cqchase_index::{CancelToken, JoinScratch, PlanCache};
use cqchase_ir::QueryBuilder;
use cqchase_storage::{evaluate_indexed_with, Database, DbIndex};
use cqchase_workload::families::successor_cycle;

use crate::service_workload::ServiceWorkload;

/// Side of the complete digraph behind the deadline workload: the 3-hop
/// chain enumerates ~`n⁴` solutions, far more work than any deadline we
/// arm, so the join never completes on its own.
pub const DENSE_N: i64 = 48;

/// Deadline armed per overrun sample, in milliseconds: long enough that
/// the join is deep in its steady state when it fires, short enough
/// that a sample costs single-digit milliseconds.
pub const DEADLINE_MS: u64 = 2;

/// Overrun samples per measurement: enough that the p99 index sits
/// below the maximum, so a single scheduler hiccup cannot masquerade as
/// a promptness regression.
pub const OVERRUN_SAMPLES: usize = 100;

/// Externally-fired samples per measurement. The reference side uses
/// the *same* sample count and the same p99 estimator as the overrun
/// side: the two lags are identically distributed (time to the next
/// coalesced check plus the unwind), so matching estimators keep the
/// ratio centered instead of comparing a deep quantile against a
/// shallow one.
pub const REACTION_SAMPLES: usize = 100;

/// One measured pair of batch-check throughputs.
#[derive(Debug, Clone, Copy)]
pub struct OverheadMeasurement {
    /// Checks/sec with no tokens threaded (plain pairs).
    pub tokenfree_cps: f64,
    /// Checks/sec with a deadline-armed (never-firing) token per pair.
    pub tokened_cps: f64,
}

impl OverheadMeasurement {
    /// `tokened/tokenfree`: the fraction of token-free throughput kept
    /// with live cancellation checks (1.0 = free; the lifecycle budget
    /// floors this at 0.90).
    pub fn efficiency(&self) -> f64 {
        self.tokened_cps / self.tokenfree_cps.max(1e-9)
    }
}

/// One measured deadline-promptness pair, both sides in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineMeasurement {
    /// p99 fire-to-return lag with an externally fired token: the
    /// check interval expressed in wall time on this machine (the fire
    /// lands uniformly inside an inter-check gap, so the deep quantile
    /// is about one full gap), plus one unwind.
    pub interval_us: f64,
    /// p99 of `overrun_us` across the deadline-armed samples.
    pub overrun_p99_us: f64,
}

impl DeadlineMeasurement {
    /// `2·interval / p99 overrun`: ≥ 1.0 means every observed overrun
    /// fits inside two coalesced check intervals — the "deadline
    /// honored" gate.
    pub fn headroom(&self) -> f64 {
        2.0 * self.interval_us / self.overrun_p99_us.max(1.0)
    }
}

/// Batch executions inside one timed region: a single pass is
/// single-digit milliseconds, too short to time reliably on a busy
/// machine, so each side is timed over this many consecutive passes.
const CHECK_PASSES: usize = 3;

fn run_checks<P: BatchPair>(w: &ServiceWorkload, pairs: &[P]) -> (f64, Vec<(bool, bool)>) {
    let opts = ContainmentOptions::default();
    let mut shape: Vec<(bool, bool)> = Vec::new();
    let t0 = Instant::now();
    for pass in 0..CHECK_PASSES {
        let answers = check_batch(
            &w.batch.queries,
            pairs,
            &w.batch.program.deps,
            &w.batch.program.catalog,
            &opts,
        );
        if pass == 0 {
            shape = answers
                .iter()
                .map(|r| match r {
                    Ok(a) => (a.contained, a.exact),
                    Err(_) => panic!("the canonical batch never errors"),
                })
                .collect();
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    (
        (pairs.len() * CHECK_PASSES) as f64 / elapsed.max(1e-9),
        shape,
    )
}

/// Measures both configurations on one workload build, asserting the
/// answers are bit-identical (a token that never fires must be
/// invisible). The two sides are interleaved and each keeps its best of
/// three passes: the batch is short (single-digit milliseconds), so
/// best-of strips scheduler noise and leaves the intrinsic per-check
/// cost the ratio is meant to expose.
pub fn measure_cancel_overhead(w: &ServiceWorkload) -> OverheadMeasurement {
    let pairs: Vec<ContainmentPair> = w
        .batch
        .pairs
        .iter()
        .map(|&(q, q_prime)| ContainmentPair { q, q_prime })
        .collect();
    // Deadline-armed so every coalesced check reads the clock — the
    // most expensive steady state a served request can be in.
    let tokened: Vec<(ContainmentPair, CancelToken)> = pairs
        .iter()
        .map(|&p| (p, CancelToken::with_deadline_ms(3_600_000)))
        .collect();
    let mut tokenfree_cps = 0f64;
    let mut tokened_cps = 0f64;
    for _ in 0..3 {
        let (free_cps, free_shape) = run_checks(w, &pairs);
        let (tok_cps, tokened_shape) = run_checks(w, &tokened);
        assert_eq!(free_shape, tokened_shape, "unfired tokens changed answers");
        tokenfree_cps = tokenfree_cps.max(free_cps);
        tokened_cps = tokened_cps.max(tok_cps);
    }
    OverheadMeasurement {
        tokenfree_cps,
        tokened_cps,
    }
}

/// Median-of-`runs` overhead measurement, keyed by efficiency (the
/// ratio is medianed, not the sides, so one noisy run cannot split a
/// pair).
pub fn measure_cancel_overhead_median(w: &ServiceWorkload, runs: usize) -> OverheadMeasurement {
    let mut all: Vec<OverheadMeasurement> = (0..runs.max(1))
        .map(|_| measure_cancel_overhead(w))
        .collect();
    all.sort_by(|a, b| a.efficiency().total_cmp(&b.efficiency()));
    all[all.len() / 2]
}

/// The deadline workload: a 3-hop chain query over the complete digraph
/// on [`DENSE_N`] vertices, prebuilt index included. The head holds both
/// endpoints, so no subtree of the join tree is free of unbound head
/// variables and distinct-mode evaluation cannot collapse any of it:
/// every one of the `n⁴` solutions is enumerated.
pub struct DeadlineWorkload {
    query: cqchase_ir::ConjunctiveQuery,
    idx: DbIndex,
}

/// Builds the dense evaluation instance once (the index is shared,
/// read-only, across all samples).
pub fn deadline_workload() -> DeadlineWorkload {
    let program = successor_cycle();
    let query = QueryBuilder::new("QDense3", &program.catalog)
        .head_vars(["x0", "x3"])
        .atom("R", ["x0", "x1"])
        .and_then(|b| b.atom("R", ["x1", "x2"]))
        .and_then(|b| b.atom("R", ["x2", "x3"]))
        .and_then(|b| b.build())
        .expect("chain query");
    let mut db = Database::new(&program.catalog);
    for i in 0..DENSE_N {
        for j in 0..DENSE_N {
            db.insert_named("R", [i, j]).expect("insert");
        }
    }
    DeadlineWorkload {
        query,
        idx: DbIndex::build(&db),
    }
}

/// Runs the dense join under `token` until it fires; panics if the join
/// completes first (the instance is sized so it cannot).
fn run_until_cancelled(w: &DeadlineWorkload, token: &CancelToken) {
    let mut cache = PlanCache::new();
    let mut scratch = JoinScratch::new();
    scratch.set_cancel(token.clone());
    let rows = evaluate_indexed_with(&w.query, &w.idx, &mut cache, &mut scratch);
    assert!(
        scratch.cancelled(),
        "the dense join must never outrun its token ({} rows)",
        rows.len()
    );
    scratch.clear_cancel();
}

/// The p99 of a sample set (nearest-rank, so one outlier in a hundred
/// samples is tolerated rather than defining the estimate).
fn p99(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() as f64 * 0.99).ceil() as usize)
        .saturating_sub(1)
        .min(samples.len() - 1);
    samples[idx]
}

/// Measures deadline promptness: p99 overrun under armed deadlines
/// against the externally-fired check-interval reference.
///
/// The two sample kinds are **interleaved** (one reference lag, one
/// overrun, repeat) rather than collected in separate phases: a burst
/// of background load lasting a fraction of the measurement then
/// inflates both sides of the ratio together instead of landing
/// entirely on one side and cratering (or flattering) the headroom.
pub fn measure_deadline(w: &DeadlineWorkload) -> DeadlineMeasurement {
    let mut lags: Vec<f64> = Vec::with_capacity(REACTION_SAMPLES);
    let mut overruns: Vec<f64> = Vec::with_capacity(OVERRUN_SAMPLES);
    for _ in 0..REACTION_SAMPLES.max(OVERRUN_SAMPLES) {
        // Reference side: fire the token by hand mid-join and time
        // how long the engine takes to notice and unwind — the check
        // interval expressed in wall time (a deep-quantile lag is one
        // full inter-check gap: the fire landed right after a check).
        if lags.len() < REACTION_SAMPLES {
            let token = CancelToken::unlimited();
            let lag = std::thread::scope(|s| {
                let worker = {
                    let token = token.clone();
                    s.spawn(move || {
                        run_until_cancelled(w, &token);
                        Instant::now()
                    })
                };
                std::thread::sleep(std::time::Duration::from_millis(DEADLINE_MS));
                let fired_at = Instant::now();
                token.cancel();
                let done_at = worker.join().expect("worker");
                done_at.duration_since(fired_at).as_secs_f64() * 1e6
            });
            lags.push(lag);
        }

        // Measured side: an armed deadline, overrun read the moment
        // the engine returns.
        if overruns.len() < OVERRUN_SAMPLES {
            let token = CancelToken::with_deadline_ms(DEADLINE_MS);
            run_until_cancelled(w, &token);
            overruns.push(token.overrun_us() as f64);
        }
    }
    DeadlineMeasurement {
        interval_us: p99(lags),
        overrun_p99_us: p99(overruns),
    }
}

/// Median-of-`runs` deadline measurement, keyed by headroom.
pub fn measure_deadline_median(w: &DeadlineWorkload, runs: usize) -> DeadlineMeasurement {
    let mut all: Vec<DeadlineMeasurement> = (0..runs.max(1)).map(|_| measure_deadline(w)).collect();
    all.sort_by(|a, b| a.headroom().total_cmp(&b.headroom()));
    all[all.len() / 2]
}
