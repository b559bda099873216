//! Bench regression gate.
//!
//! ```text
//! bench_gate --check-baseline    # re-measure, compare, exit 1 on regression
//! bench_gate --list              # re-measure and print, but never fail
//! ```
//!
//! The gate re-measures the workspace's *dimensionless* performance
//! metrics — speedup ratios, which survive moving between machines —
//! and compares them against the committed baselines under
//! `crates/bench/baselines/*.json`. A metric regresses when the current
//! value is more than 1.5x worse than the committed one
//! (`current < baseline / 1.5` for higher-is-better ratios); any
//! regression makes the process exit nonzero, which is what CI's smoke
//! job keys off.
//!
//! Absolute nanosecond entries in the baselines are documentation, not
//! gates: they describe the recording machine. Thread-scaling metrics
//! are informational (with a note) unless both the recording machine
//! and the current one expose >= 4 cores: a single-core "speedup" is
//! executor overhead, not scaling, and hard-gating a never-measured
//! target would make CI nondeterministic on shared runners.
//!
//! Every metric declares whether values below 1.0 are expected via its
//! `min_floor`. For a naive-vs-indexed speedup, sub-1.0 means the
//! indexed engine *lost* to the reference — a qualitative failure that
//! a purely relative tolerance would wave through whenever the
//! committed baseline was itself a loss (a 0.85x baseline yields a 0.57x
//! floor). Such metrics carry `min_floor: 1.0` (or higher for
//! headline wins), so regressing from a win back to a loss fails CI no
//! matter what the baseline says. Metrics where sub-1.0 is legitimate
//! (hit rates, flatness ratios near 1.0) declare `min_floor: 0.0`.

use cqchase_bench::churn_workload::{
    churn_workload, measure_barrier_speedup, measure_delete_flatness,
};
use cqchase_bench::many_workload::{many_workload, measure_lane_throughput, measure_memory_dedup};
use cqchase_bench::obs_workload::measure_obs_median;
use cqchase_bench::recovery_workload::{measure_restore, measure_wal_overhead, recovery_workload};
use cqchase_bench::resilience_workload::{
    deadline_workload, measure_cancel_overhead_median, measure_deadline_median,
};
use cqchase_bench::service_workload::service_workload;
use cqchase_bench::update_workload::{measure_update, update_workload, ROUNDS};
use cqchase_bench::util::time_median;
use cqchase_core::chase::{Chase, ChaseBudget, ChaseMode};
use cqchase_core::hom::naive;
use cqchase_core::{ChaseHomFinder, ContainmentOptions, ContainmentPair};
use cqchase_par::{check_batch, default_threads, evaluate_batch, BatchOptions};
use cqchase_service::{Client, ServeOptions, Server};
use cqchase_storage::{eval, Database, DbIndex};
use cqchase_workload::families::successor_cycle;
use cqchase_workload::{
    chain_eval_batch, chain_query, cycle_query, star_query, successor_containment_batch,
    DatabaseGen,
};
use serde_json::Value;

/// Tolerated slowdown factor before the gate fails.
const TOLERANCE: f64 = 1.5;

struct Metric {
    name: &'static str,
    baseline: f64,
    current: f64,
    /// `false`: informational only (e.g. scaling on a small machine).
    gated: bool,
    /// Absolute floor the current value must also clear, independent of
    /// the relative tolerance. `1.0` (or higher) declares "sub-1.0 is a
    /// loss, never expected"; `0.0` declares sub-1.0 values legitimate.
    min_floor: f64,
}

fn baseline_path(file: &str) -> String {
    format!("{}/baselines/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn load_baseline(file: &str) -> Option<Value> {
    let text = std::fs::read_to_string(baseline_path(file)).ok()?;
    serde_json::from_str(&text).ok()
}

/// `bench_index.json` entry lookup: the recorded speedup for `bench` at
/// the given sweep key/value (`depth` or `tuples`).
fn index_speedup(doc: &Value, bench: &str, key: &str, val: u64) -> Option<f64> {
    doc["entries"].as_array()?.iter().find_map(|e| {
        (e["bench"] == bench && e[key].as_u64() == Some(val)).then(|| e["speedup"].as_f64())?
    })
}

/// Re-measures the `bench_index` ratios (naive vs indexed) on a reduced
/// iteration count: hom search into a depth-1024 chase — the chain
/// (positive) and cycle (negative, headline) probes, each through one
/// warm `ChaseHomFinder` on the live chase, the production path, against
/// the naive scan of a row snapshot — plus 1000-tuple chain evaluation
/// and the 100-tuple star family (the acyclic fast path).
fn measure_index_metrics(doc: &Value, out: &mut Vec<Metric>) {
    let program = successor_cycle();
    let q = program.query("Q").unwrap();
    let mut ch = Chase::new(q, &program.deps, &program.catalog, ChaseMode::Required);
    ch.expand_to_level(1024, ChaseBudget::default());
    let rows = naive::Rows::from_state(ch.state(), u32::MAX);

    let chain3 = chain_query("Qp", &program.catalog, "R", 3).unwrap();
    let naive_t = time_median(5, || {
        assert!(naive::find_hom(&chain3, &rows).is_some());
    });
    let mut finder = ChaseHomFinder::new(&chain3);
    let indexed_t = time_median(5, || {
        assert!(finder.find(ch.state(), u32::MAX).is_some());
    });
    if let Some(b) = index_speedup(doc, "hom_chain3_into_chase", "depth", 1024) {
        out.push(Metric {
            name: "index.hom_chain3_depth1024_speedup",
            baseline: b,
            current: naive_t.as_secs_f64() / indexed_t.as_secs_f64().max(1e-12),
            gated: true,
            // The headline planner win: this probe was a sub-1.0 *loss*
            // before cost-based planning; it must never fall back below
            // a decisive win.
            min_floor: 1.3,
        });
    }

    let cycle = cycle_query("Qc", &program.catalog, "R", 3).unwrap();
    let naive_t = time_median(5, || {
        assert!(naive::find_hom(&cycle, &rows).is_none());
    });
    let mut finder = ChaseHomFinder::new(&cycle);
    let indexed_t = time_median(5, || {
        assert!(finder.find(ch.state(), u32::MAX).is_none());
    });
    if let Some(b) = index_speedup(doc, "hom_cycle3_into_chase", "depth", 1024) {
        out.push(Metric {
            name: "index.hom_cycle3_depth1024_speedup",
            baseline: b,
            current: naive_t.as_secs_f64() / indexed_t.as_secs_f64().max(1e-12),
            gated: true,
            min_floor: 1.0,
        });
    }

    let db: Database = DatabaseGen {
        seed: 7,
        tuples_per_relation: 1000,
        domain: 500,
    }
    .generate(&program.catalog);
    let chain = chain_query("Chain3g", &program.catalog, "R", 3).unwrap();
    let naive_t = time_median(5, || {
        std::hint::black_box(eval::naive::evaluate(&chain, &db).len());
    });
    let indexed_t = time_median(5, || {
        std::hint::black_box(eval::evaluate(&chain, &DbIndex::build(&db)).len());
    });
    if let Some(b) = index_speedup(doc, "eval_chain3", "tuples", 1000) {
        out.push(Metric {
            name: "index.eval_chain3_1000t_speedup",
            baseline: b,
            current: naive_t.as_secs_f64() / indexed_t.as_secs_f64().max(1e-12),
            gated: true,
            min_floor: 1.0,
        });
    }

    // Star evaluation: the Yannakakis acyclic fast path must keep
    // winning by orders of magnitude (naive is product-sized here, so
    // the small instance suffices and the 1.5x tolerance is generous).
    let db: Database = DatabaseGen {
        seed: 7,
        tuples_per_relation: 100,
        domain: 50,
    }
    .generate(&program.catalog);
    let star = star_query("Star8g", &program.catalog, "R", 8).unwrap();
    let naive_t = time_median(3, || {
        std::hint::black_box(eval::naive::evaluate(&star, &db).len());
    });
    let indexed_t = time_median(5, || {
        std::hint::black_box(eval::evaluate(&star, &DbIndex::build(&db)).len());
    });
    if let Some(b) = index_speedup(doc, "eval_star8", "tuples", 100) {
        out.push(Metric {
            name: "index.eval_star8_100t_speedup",
            baseline: b,
            current: naive_t.as_secs_f64() / indexed_t.as_secs_f64().max(1e-12),
            gated: true,
            min_floor: 1.0,
        });
    }
}

/// Re-measures the `bench_parallel` thread-scaling ratios (the same
/// workload the baseline recorded, reduced iteration count).
fn measure_parallel_metrics(doc: &Value, out: &mut Vec<Metric>) {
    let cores_now = default_threads();
    let cores_then = doc["cores"].as_u64().unwrap_or(0) as usize;
    // Scaling is comparable only when both sides measured real hardware
    // parallelism: this machine needs >= 4 cores to reproduce the
    // number, and a baseline recorded on a small machine (speedup
    // ≈ 1.0 is executor overhead, not scaling) is not a scaling
    // reference at all. Anything else stays informational — a hard
    // floor against a never-measured target would make CI
    // nondeterministic on shared runners. Re-record the baseline on a
    // >= 4-core machine to arm these gates.
    let scaling_meaningful = cores_now >= 4 && cores_then >= 4;

    let batch = successor_containment_batch(5, 12, 384);
    let pairs: Vec<ContainmentPair> = batch
        .pairs
        .iter()
        .map(|&(q, q_prime)| ContainmentPair { q, q_prime })
        .collect();
    let opts = ContainmentOptions::default();
    let mut times = [0f64; 2];
    for (slot, threads) in [1usize, 4].into_iter().enumerate() {
        let bopts = BatchOptions::with_threads(threads);
        times[slot] = time_median(5, || {
            let r = check_batch(
                &batch.queries,
                &pairs,
                &batch.program.deps,
                &batch.program.catalog,
                &opts,
                bopts,
            );
            std::hint::black_box(r.len());
        })
        .as_secs_f64();
    }
    if let Some(b) = doc["containment_speedup_4t"].as_f64() {
        out.push(Metric {
            name: "parallel.containment_speedup_4t",
            baseline: b,
            current: times[0] / times[1].max(1e-12),
            gated: scaling_meaningful,
            // When armed (both machines >= 4 cores), sub-1.0 scaling
            // means threads made it slower — never expected.
            min_floor: 1.0,
        });
    }

    let qs = chain_eval_batch(&batch.program, 48);
    let db = DatabaseGen {
        seed: 9,
        tuples_per_relation: 800,
        domain: 400,
    }
    .generate(&batch.program.catalog);
    let idx = DbIndex::build(&db);
    let seq: Vec<_> = qs.iter().map(|q| eval::evaluate(q, &idx)).collect();
    for (slot, threads) in [1usize, 4].into_iter().enumerate() {
        let bopts = BatchOptions::with_threads(threads);
        // Correctness check once, outside the timed region (a serial
        // comparison inside it would deflate the measured ratio).
        assert_eq!(evaluate_batch(&qs, &idx, bopts), seq);
        // The index is built inside the timed closure: the recorded
        // baseline times index build plus evaluation.
        times[slot] = time_median(5, || {
            std::hint::black_box(evaluate_batch(&qs, &DbIndex::build(&db), bopts).len());
        })
        .as_secs_f64();
    }
    if let Some(b) = doc["eval_speedup_4t"].as_f64() {
        out.push(Metric {
            name: "parallel.eval_speedup_4t",
            baseline: b,
            current: times[0] / times[1].max(1e-12),
            gated: scaling_meaningful,
            min_floor: 1.0,
        });
    }
    if !scaling_meaningful {
        println!(
            "note: thread-scaling metrics are informational only (this machine \
             exposes {cores_now} core(s); baseline recorded on {cores_then}). \
             Re-record bench_parallel on a >= 4-core machine to arm these gates."
        );
    }
}

/// Re-measures the `bench_service` metrics by replaying the canonical
/// deterministic workload (same seed, same request sequence as the
/// baseline recorder) against a fresh in-process server.
///
/// The **cache hit rate** is the gated metric: it is a property of the
/// workload and the semantic cache's keying, not of the machine, so it
/// reproduces exactly anywhere. Requests/sec is absolute and stays
/// informational (it documents the recording machine).
fn measure_service_metrics(doc: &Value, out: &mut Vec<Metric>) {
    let w = service_workload();
    let (addr, handle) = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".into(),
        sem_cache_capacity: 4096,
        ..Default::default()
    })
    .expect("spawn service");
    let mut client = Client::connect(addr).expect("connect");
    client.register("bench", &w.program_src).expect("register");
    let t0 = std::time::Instant::now();
    let mut sent = 0usize;
    for _pass in 0..2 {
        for &(q, qp) in &w.batch.pairs {
            client
                .check("bench", &w.names[q], &w.names[qp])
                .expect("check");
            sent += 1;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = client.stats().expect("stats");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");

    let hits = stats["semantic_cache"]["hits"].as_u64().unwrap_or(0);
    let misses = stats["semantic_cache"]["misses"].as_u64().unwrap_or(0);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    if let Some(b) = doc["cache_hit_rate"].as_f64() {
        out.push(Metric {
            name: "service.cache_hit_rate",
            baseline: b,
            current: hit_rate,
            gated: true,
            // A hit rate is a fraction — sub-1.0 is its normal range.
            min_floor: 0.0,
        });
    }
    if let Some(b) = doc["requests_per_sec_1c"].as_f64() {
        out.push(Metric {
            name: "service.requests_per_sec_1c",
            baseline: b,
            current: sent as f64 / elapsed.max(1e-9),
            // Absolute throughput describes the recording machine.
            gated: false,
            min_floor: 0.0,
        });
    }
}

/// Re-measures the `bench_service_many` metrics by replaying the
/// canonical many-tenant script (1000 sessions on one shared catalog,
/// zipf eval traffic) through 1-lane and 4-lane queue sets.
///
/// The **memory dedup factor** is the gated metric: a same-process
/// dimensionless ratio of resident fact bytes (rebuild-per-tenant over
/// shared-catalog), machine-independent, with a hard 2x floor — the
/// shared path must keep each tenant at most half the duplicate cost.
/// The lane speedup follows the thread-scaling convention from
/// `bench_parallel`: informational unless both the recording and the
/// current machine expose >= 4 cores, and armed it carries the
/// headline 1.3x floor.
fn measure_service_many_metrics(doc: &Value, out: &mut Vec<Metric>) {
    let cores_now = default_threads();
    let cores_then = doc["cores"].as_u64().unwrap_or(0) as usize;
    let scaling_meaningful = cores_now >= 4 && cores_then >= 4;

    let w = many_workload();
    let mut rates = [0f64; 2];
    let mut checksum = 0u64;
    for (slot, lanes) in [1usize, 4].into_iter().enumerate() {
        let mut runs: Vec<f64> = (0..3)
            .map(|_| {
                let r = measure_lane_throughput(&w, lanes);
                if checksum == 0 {
                    checksum = r.checksum;
                }
                // Lane counts must be answer-invariant before their
                // throughput ratio means anything.
                assert_eq!(r.checksum, checksum, "lanes={lanes} answer checksum");
                r.ops_per_sec
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        rates[slot] = runs[1];
    }
    if let Some(b) = doc["lanes_speedup_4v1"].as_f64() {
        out.push(Metric {
            name: "service_many.lanes_speedup_4v1",
            baseline: b,
            current: rates[1] / rates[0].max(1e-12),
            gated: scaling_meaningful,
            // Armed, sharding must pay for itself decisively: the
            // headline many-tenant scaling claim.
            min_floor: 1.3,
        });
    }
    if let Some(b) = doc["memory_dedup_factor"].as_f64() {
        out.push(Metric {
            name: "service_many.memory_dedup_factor",
            baseline: b,
            current: measure_memory_dedup(&w).factor(),
            gated: true,
            // The shared-catalog promise: per-tenant residency at most
            // half the rebuild-per-tenant path, no matter the machine.
            min_floor: 2.0,
        });
    }
    if !scaling_meaningful {
        println!(
            "note: lane-scaling metric is informational only (this machine \
             exposes {cores_now} core(s); baseline recorded on {cores_then}). \
             Re-record bench_service_many on a >= 4-core machine to arm it."
        );
    }
}

/// Re-measures the `bench_obs` tracing-cost ratio by replaying the
/// canonical service sequence against a tracing-off and a tracing-on
/// server (see `obs_workload`).
///
/// The **efficiency** (on/off throughput) is the gated metric: a
/// same-process dimensionless ratio. Its floor is just under the
/// recorder's strict 1/1.25 budget — the recorder (median of 3)
/// enforces the budget where the baseline is minted, the gate's single
/// re-measurement keeps a little jitter headroom. The off-side
/// throughput relative to the committed `bench_service` number is
/// absolute (describes the recording machine) and stays informational.
fn measure_obs_metrics(doc: &Value, out: &mut Vec<Metric>) {
    let m = measure_obs_median(1);
    if let Some(b) = doc["tracing_on_efficiency"].as_f64() {
        out.push(Metric {
            name: "obs.tracing_on_efficiency",
            baseline: b,
            current: m.efficiency(),
            gated: true,
            // 0.75 ≈ the 1/1.25 tracing budget with ~6% jitter headroom
            // for a single CI measurement.
            min_floor: 0.75,
        });
    }
    if let Some(pr7) =
        load_baseline("bench_service.json").and_then(|s| s["requests_per_sec_1c"].as_f64())
    {
        if let Some(b) = doc["tracing_off_vs_service"].as_f64() {
            out.push(Metric {
                name: "obs.tracing_off_vs_service",
                baseline: b,
                current: m.off_rps / pr7.max(1e-9),
                // Absolute throughput ratio against the recording
                // machine's service baseline: informational.
                gated: false,
                min_floor: 0.0,
            });
        }
    }
}

/// Re-measures the `bench_update` ratio by replaying the canonical
/// delta script (same seed, same rounds as the baseline recorder)
/// through both the incremental and the teardown/re-register path.
///
/// The **speedup ratio** is the gated metric: both paths run on the
/// same machine in the same process, so the ratio survives moving
/// between machines the way the index/parallel ratios do. Each
/// `measure_update` call internally asserts both paths' evaluation
/// rows are bit-identical.
fn measure_update_metrics(doc: &Value, out: &mut Vec<Metric>) {
    let w = update_workload(ROUNDS);
    let mut runs: Vec<f64> = (0..3).map(|_| measure_update(&w).speedup()).collect();
    runs.sort_by(f64::total_cmp);
    if let Some(b) = doc["incremental_vs_teardown_speedup"].as_f64() {
        out.push(Metric {
            name: "update.incremental_vs_teardown_speedup",
            baseline: b,
            current: runs[runs.len() / 2],
            gated: true,
            // Incremental must beat teardown/re-register outright.
            min_floor: 1.0,
        });
    }
}

/// Re-measures the `bench_churn` ratios by replaying the canonical
/// two-session script under both barrier modes (answers asserted
/// identical inside `measure_barrier_speedup`) and re-timing the
/// delete-scaling sweep.
///
/// Both are dimensionless same-process ratios, so they survive moving
/// between machines and are gated: the barrier speedup is the
/// multi-session win of per-session barriers, the delete flatness is
/// the O(1)-deletion guarantee (per-tuple cost at 10k vs 100k tuples —
/// a reintroduced O(n) scan would crater it to ~0.1).
fn measure_churn_metrics(doc: &Value, out: &mut Vec<Metric>) {
    let w = churn_workload();
    let mut runs: Vec<f64> = (0..3).map(|_| measure_barrier_speedup(&w)).collect();
    runs.sort_by(f64::total_cmp);
    if let Some(b) = doc["two_session_barrier_speedup"].as_f64() {
        out.push(Metric {
            name: "churn.two_session_barrier_speedup",
            baseline: b,
            current: runs[runs.len() / 2],
            gated: true,
            // Per-session barriers must beat the global-barrier mode.
            min_floor: 1.0,
        });
    }
    let (_, _, flatness) = measure_delete_flatness();
    if let Some(b) = doc["delete_flatness_10k_to_100k"].as_f64() {
        out.push(Metric {
            name: "churn.delete_flatness_10k_to_100k",
            baseline: b,
            current: flatness,
            gated: true,
            // Flatness hovers around 1.0 by construction; slightly
            // sub-1.0 is measurement jitter, not a loss.
            min_floor: 0.0,
        });
    }
}

/// Re-measures the `bench_recovery` ratios by replaying the canonical
/// script (same seed, same batches as the baseline recorder) through
/// the durable and the plain path over in-memory storage.
///
/// Both are dimensionless same-process ratios and gated: snapshot
/// restore must beat re-register+re-apply from the raw script by the
/// headline 1.5x no matter what the baseline says, and the durable
/// update path must stay within 1.3x of the no-durability one
/// (efficiency floor 0.77). Answers are asserted identical inside the
/// measurement functions.
fn measure_recovery_metrics(doc: &Value, out: &mut Vec<Metric>) {
    let w = recovery_workload();
    let mut runs: Vec<f64> = (0..3).map(|_| measure_restore(&w).speedup()).collect();
    runs.sort_by(f64::total_cmp);
    if let Some(b) = doc["restore_vs_replay_speedup"].as_f64() {
        out.push(Metric {
            name: "recovery.restore_vs_replay_speedup",
            baseline: b,
            current: runs[runs.len() / 2],
            gated: true,
            // The headline durability win: restore must stay decisively
            // cheaper than rebuilding from the raw script.
            min_floor: 1.5,
        });
    }
    let mut runs: Vec<f64> = (0..3)
        .map(|_| measure_wal_overhead(&w).efficiency())
        .collect();
    runs.sort_by(f64::total_cmp);
    if let Some(b) = doc["wal_append_efficiency"].as_f64() {
        out.push(Metric {
            name: "recovery.wal_append_efficiency",
            baseline: b,
            current: runs[runs.len() / 2],
            gated: true,
            // 0.77 ≈ 1/1.3: durability may cost at most 1.3x the plain
            // incremental path.
            min_floor: 0.77,
        });
    }
}

/// Re-measures the `bench_resilience` ratios: cancellation-check
/// overhead on the canonical service containment batch (token-free vs
/// deadline-armed tokens, answers asserted identical inside the
/// measurement) and deadline promptness on the dense chain-3 eval.
///
/// Both are dimensionless same-process ratios and gated: threading
/// cancellation through the join loops may cost at most 10% (the
/// lifecycle budget, floor 0.90 no matter the baseline), and the p99
/// overrun past a deadline must fit inside two coalesced check
/// intervals (headroom floor 1.0) — a join loop that lost its token
/// check overruns by many intervals and craters the headroom.
fn measure_resilience_metrics(doc: &Value, out: &mut Vec<Metric>) {
    let w = service_workload();
    let m = measure_cancel_overhead_median(&w, 3);
    if let Some(b) = doc["cancel_check_efficiency"].as_f64() {
        out.push(Metric {
            name: "resilience.cancel_check_efficiency",
            baseline: b,
            current: m.efficiency(),
            gated: true,
            // The lifecycle budget: live tokens may never cost more
            // than 10% of token-free throughput.
            min_floor: 0.90,
        });
    }
    let dw = deadline_workload();
    let d = measure_deadline_median(&dw, 3);
    if let Some(b) = doc["deadline_overrun_headroom"].as_f64() {
        out.push(Metric {
            name: "resilience.deadline_overrun_headroom",
            baseline: b,
            current: d.headroom(),
            gated: true,
            // p99 overrun must fit in two check intervals outright.
            min_floor: 1.0,
        });
    }
}

fn run(check: bool) -> i32 {
    let mut metrics = Vec::new();
    match load_baseline("bench_index.json") {
        Some(doc) => measure_index_metrics(&doc, &mut metrics),
        None => println!("warning: baselines/bench_index.json missing or unparsable"),
    }
    match load_baseline("bench_update.json") {
        Some(doc) => measure_update_metrics(&doc, &mut metrics),
        None => println!("warning: baselines/bench_update.json missing or unparsable"),
    }
    match load_baseline("bench_churn.json") {
        Some(doc) => measure_churn_metrics(&doc, &mut metrics),
        None => println!("warning: baselines/bench_churn.json missing or unparsable"),
    }
    match load_baseline("bench_parallel.json") {
        Some(doc) => measure_parallel_metrics(&doc, &mut metrics),
        None => println!("warning: baselines/bench_parallel.json missing or unparsable"),
    }
    match load_baseline("bench_service.json") {
        Some(doc) => measure_service_metrics(&doc, &mut metrics),
        None => println!("warning: baselines/bench_service.json missing or unparsable"),
    }
    match load_baseline("bench_service_many.json") {
        Some(doc) => measure_service_many_metrics(&doc, &mut metrics),
        None => println!("warning: baselines/bench_service_many.json missing or unparsable"),
    }
    match load_baseline("bench_recovery.json") {
        Some(doc) => measure_recovery_metrics(&doc, &mut metrics),
        None => println!("warning: baselines/bench_recovery.json missing or unparsable"),
    }
    match load_baseline("bench_obs.json") {
        Some(doc) => measure_obs_metrics(&doc, &mut metrics),
        None => println!("warning: baselines/bench_obs.json missing or unparsable"),
    }
    match load_baseline("bench_resilience.json") {
        Some(doc) => measure_resilience_metrics(&doc, &mut metrics),
        None => println!("warning: baselines/bench_resilience.json missing or unparsable"),
    }

    let mut failures = 0;
    println!(
        "\n{:<42} {:>10} {:>10} {:>8}  verdict",
        "metric", "baseline", "current", "floor"
    );
    for m in &metrics {
        let floor = (m.baseline / TOLERANCE).max(m.min_floor);
        let ok = !m.gated || m.current >= floor;
        if !ok {
            failures += 1;
        }
        println!(
            "{:<42} {:>9.2}x {:>9.2}x {:>7.2}x  {}",
            m.name,
            m.baseline,
            m.current,
            floor,
            if !m.gated {
                "info-only"
            } else if ok {
                "ok"
            } else {
                "REGRESSED"
            }
        );
    }
    if metrics.is_empty() {
        println!("no baselines found — nothing to gate");
        return if check { 2 } else { 0 };
    }
    if failures > 0 {
        println!("\n{failures} metric(s) regressed by more than {TOLERANCE}x");
        return 1;
    }
    println!("\nall gated metrics within {TOLERANCE}x of baseline");
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check-baseline") => std::process::exit(run(true)),
        Some("--list") | None => {
            // Same measurement run as --check-baseline (it re-times the
            // gated workloads, a few seconds in release), but the exit
            // code never fails — useful locally.
            run(false);
        }
        Some(other) => {
            eprintln!("usage: bench_gate [--check-baseline | --list]  (got `{other}`)");
            std::process::exit(2);
        }
    }
}
