//! # perfbench — the cqchase service benchmark
//!
//! One command measures the service the way a client sees it: an
//! in-process `Server` on loopback, driven by one closed-loop `Client`
//! connection for a fixed time split over several fresh servers, every
//! answer checked afterwards. The
//! end-to-end metrics depend only on the wire protocol. A traced run
//! (`--trace 1`) then replays the same seed's requests in-process and
//! times each layer's public entry points from here, giving a layer
//! table whose shares later performance changes can be compared by.
//!
//! Workloads (see `workloads.json` for the recorded configuration):
//! `check_hot` (all cache hits across 64 tenants of one catalog),
//! `check_deep` (every check a cache miss on 12–28-atom queries), and
//! `update_eval` (durable sliding-window updates, each followed by two
//! uncached evals over a 100k-tuple window).

pub mod gen;
pub mod layers;
pub mod report;
pub mod verify;
pub mod wire;

use serde_json::Value;

use gen::{Plan, Scale, Workload};
use report::{median, metric, quantile, Metric};

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Generation seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Run the traced replay and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// What one invocation measured.
#[derive(Debug)]
pub struct RunResult {
    /// Every answer matched its oracle.
    pub correct: bool,
    /// Requests checked.
    pub attempted: u64,
    /// Requests refused or answered wrongly.
    pub failed: u64,
    /// The reported metrics (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub log: Vec<String>,
    /// Timed `check`s answered from the semantic cache, and all timed
    /// `check`s.
    pub checks_cached: (u64, u64),
}

fn counter(v: &Value, path: &[&str]) -> f64 {
    path.iter().fold(v, |v, k| &v[*k]).as_f64().unwrap_or(0.0)
}

/// Runs one benchmark invocation. Progress goes to stderr.
pub fn run(cfg: Config) -> Result<RunResult, String> {
    let wall = std::time::Instant::now();
    let phase = |what: &str| eprintln!("[{:8.3} s] {what}", wall.elapsed().as_secs_f64());
    let plan: Plan = gen::plan(cfg.workload, cfg.seed, cfg.scale);
    let mut log_lines = vec![format!(
        "workload {} seed {} scale {:?}: {} sessions, {} queries, {} pairs, program {} bytes",
        cfg.workload.name(),
        cfg.seed,
        cfg.scale,
        plan.sessions.len(),
        plan.program.queries.len(),
        plan.pairs.len(),
        plan.program_src.len()
    )];

    // The run is `reps` rounds, each a set-up and a timed phase on a
    // fresh server; the metrics are medians over the rounds. How fast a
    // server instance runs varies from instance to instance on this kind
    // of host (heap layout, neighbours), and the median of several
    // instances is far steadier than one long phase on one instance.
    let reps = cfg.scale.sizes().setup_reps;
    let per_round = cfg.seconds / reps as f64;
    let primary = cfg.workload.primary_op();
    let (mut setup_s, mut rounds) = (Vec::new(), Vec::new());
    let (mut throughput, mut p50, mut p75) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut misses, mut compactions) = (0.0, 0.0, 0.0);
    let (mut peak_rss_mb, mut ping_rtt_us) = (0.0, 0.0);
    for rep in 0..reps {
        let t = std::time::Instant::now();
        let (mut live, warm) = wire::setup(&plan, rep)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let before = live.stats()?;
        let first = plan.round_start(rep, reps);
        let (log, elapsed) = wire::drive(&plan, live.addr, per_round, first)?;
        let after = live.stats()?;
        if cfg.trace && rep + 1 == reps {
            ping_rtt_us = wire::ping_rtt_us(live.addr, 2000)?;
        }
        live.shutdown()?;
        if rep == 0 {
            // One server instance's high-water mark, before further
            // set-ups churn the allocator.
            peak_rss_mb = report::peak_rss_mb();
        }
        phase(&format!("round {} of {reps} done", rep + 1));
        let delta = |path: &[&str]| counter(&after, path) - counter(&before, path);
        hits += delta(&["semantic_cache", "hits"]);
        misses += delta(&["semantic_cache", "misses"]);
        compactions += counter(&after, &["mutation", "compactions"]);
        let lat_us: Vec<f64> = log
            .exchanges(&plan)
            .filter(|(req, _)| req.op() == primary)
            .map(|(_, s)| s.lat_us())
            .collect();
        throughput.push(log.samples.len() as f64 / elapsed);
        p50.push(median(&lat_us));
        p75.push(quantile(&lat_us, 0.75));
        log_lines.push(format!(
            "round {}: set-up {:.3} s; {} requests in {elapsed:.2} s; {primary} p50 {:.1} us \
                 p75 {:.1} us p90 {:.1} us p99 {:.1} us",
            rep + 1,
            setup_s[rep],
            log.samples.len(),
            median(&lat_us),
            quantile(&lat_us, 0.75),
            quantile(&lat_us, 0.9),
            quantile(&lat_us, 0.99)
        ));
        rounds.push(wire::Round { warm, log });
    }

    phase("checking answers");
    let verdict = verify::verify(&plan, &rounds);
    if let Some(e) = &verdict.first_error {
        log_lines.push(format!("first failure: {e}"));
    }
    log_lines.push(format!(
        "{} checks ({} cached), {} evals ({} cached); failed_frac {:.6}",
        verdict.checks,
        verdict.checks_cached,
        verdict.evals,
        verdict.evals_cached,
        verdict.failed as f64 / verdict.attempted.max(1) as f64
    ));

    let mut metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("throughput_ops", median(&throughput), "1/s"),
        metric("p50_us", median(&p50), "us"),
        // The bounded tail is p75. On a shared two-core host the p99
        // swung by more than any bound worth enforcing, and about one
        // `update_eval` update in ten takes a slow path, which left its
        // p90 jumping between the two modes from run to run.
        metric("p75_us", median(&p75), "us"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    if cfg.trace {
        let e2e = layers::E2e {
            rounds: &rounds,
            ping_rtt_us,
            cache_hit_rate: hits / (hits + misses).max(1.0),
            compactions,
        };
        phase("traced replay");
        let traced = layers::measure(&plan, &e2e, wall.elapsed().as_secs_f64())?;
        log_lines.push(traced.table);
        metrics = traced.metrics;
    }
    // Every data directory is gone by now; drop their parent unless
    // another run in this process still uses it.
    let _ = std::fs::remove_dir(wire::TMP_DIR);
    Ok(RunResult {
        correct: verdict.failed == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        log: log_lines,
        checks_cached: (verdict.checks_cached, verdict.checks),
    })
}
