//! The traced run: replays the seed's requests in-process and times the
//! calls into each layer's public functions, from outside the program.
//!
//! Nothing here reaches inside the server. Each layer is timed where the
//! benchmark can call it: `Request::from_line` and `serde_json` for the
//! protocol, `LaneSet::for_session(..).submit` on replica sessions for
//! the batch layer, `SemanticCache::lookup`, `cqchase_core::contained`,
//! `cqchase_par::check_batch`, `Session::eval_cached` /
//! `Session::apply_updates`, `Database`/`DbIndex` deltas,
//! `Durability::apply_updates` / `persist` over `StdIo`, and the
//! register path (`parse_program`, `CatalogRegistry::session_from_source`).
//! Every metric is measured on every workload, on that workload's own
//! program and data; the layer table attributes only the layers on each
//! operation's path.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cqchase_core::{ContainmentOptions, ContainmentPair};
use cqchase_ir::parse_program;
use cqchase_par::BatchOptions;
use cqchase_service::durable::StdIo;
use cqchase_service::{
    Batcher, CatalogRegistry, Durability, LaneSet, Metrics, Outcome, Request, SemanticCache,
    Session, SessionRegistry, Work,
};
use cqchase_storage::{Database, DbIndex, Tuple};
use cqchase_workload::SlidingWindow;
use serde_json::Value;

use crate::gen::{window_step, Plan, Req, Workload, FACTS};
use crate::report::{mean, median, metric, quantile, render_layer_table, LayerRow, Metric};
use crate::verify::oracle;
use crate::wire::{serve_options, Round, TMP_DIR, WAL_ROTATE_BYTES};

/// What the untraced run measured that the layer table needs.
pub struct E2e<'a> {
    /// The run's rounds (set-up warm-up and timed log each).
    pub rounds: &'a [Round],
    /// Median `ping` round trip on the live server, µs.
    pub ping_rtt_us: f64,
    /// Semantic-cache hit rate over the timed phase (server stats).
    pub cache_hit_rate: f64,
    /// Index compactions the servers reported at the end of their rounds.
    pub compactions: f64,
}

const OPS: [&str; 3] = ["check", "eval", "update"];

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Median of `reps` timings of `f`, in µs.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            us(t)
        })
        .collect();
    median(&v)
}

/// Per-op sample vectors.
#[derive(Default)]
struct PerOp {
    v: [Vec<f64>; 3],
}

impl PerOp {
    fn push(&mut self, op: &str, x: f64) {
        let i = OPS.iter().position(|o| *o == op).expect("known op");
        self.v[i].push(x);
    }
    fn get(&self, op: &str) -> &[f64] {
        &self.v[OPS.iter().position(|o| *o == op).expect("known op")]
    }
    fn all(&self) -> Vec<f64> {
        self.v.iter().flatten().copied().collect()
    }
}

/// A durable replica of the workload's session (registered and loaded
/// the way the server's set-up does it) in a fresh directory.
fn durable_replica(plan: &Plan, dir: &Path) -> Result<(Arc<Durability>, Arc<Session>), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (d, _) = Durability::open(
        Arc::new(StdIo),
        dir,
        Some(WAL_ROTATE_BYTES),
        Arc::new(SessionRegistry::new()),
        1024,
        256,
    )
    .map_err(|e| e.to_string())?;
    let s = d.register(&plan.sessions[0], &plan.program_src)?;
    for line in plan.bulk_lines() {
        let Ok(Request::Update { insert, delete, .. }) = Request::from_line(&line) else {
            return Err("bulk line does not decode as an update".into());
        };
        for r in d.apply_updates(&s, &[(insert, delete)]) {
            r?;
        }
    }
    Ok((Arc::new(d), s))
}

/// The window steps the update probes apply: `update_eval`'s own
/// window, or an 8-tuple slide over the 64-fact successor cycle the
/// check programs hold (pure churn there too).
fn probe_window(plan: &Plan) -> SlidingWindow {
    if plan.workload == Workload::UpdateEval {
        plan.window
    } else {
        SlidingWindow {
            window: FACTS - 1,
            chunk: 8,
        }
    }
}

/// The result of the traced run.
pub struct Traced {
    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The human-readable layer tables, one per operation.
    pub table: String,
}

/// Runs the traced replay for `plan`. `untraced_wall_s` is the wall
/// time of the untraced run that preceded it.
pub fn measure(plan: &Plan, e2e: &E2e<'_>, untraced_wall_s: f64) -> Result<Traced, String> {
    let wall = Instant::now();
    let sizes = plan.scale.sizes();
    let replay: Vec<Req> = plan.stream().take(sizes.replay).collect();
    let tmp = Path::new(TMP_DIR).join(format!(
        "trace-{}-{}",
        plan.workload.name(),
        std::process::id()
    ));

    // Register path: parse, catalog build, catalog attach, and the
    // register line's decode.
    let parse_ms = time_median(3, || {
        parse_program(&plan.program_src).expect("program parses");
    }) / 1e3;
    let (mut reg_us, mut attach_us) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let registry = CatalogRegistry::new(256);
        let t = Instant::now();
        registry
            .session_from_source("first", &plan.program_src, 1024, 256)
            .map_err(|e| e.to_string())?;
        reg_us.push(us(t));
        let t = Instant::now();
        registry
            .session_from_source("second", &plan.program_src, 1024, 256)
            .map_err(|e| e.to_string())?;
        attach_us.push(us(t));
    }
    let register_line = plan.register_line(0);
    let decode_register_ms = time_median(3, || {
        Request::from_line(&register_line).expect("register line decodes");
    }) / 1e3;

    // Protocol: decode the replayed lines, encode the responses the
    // server actually sent.
    let mut decode = PerOp::default();
    for req in &replay {
        let line = plan.line(req);
        let t = Instant::now();
        let decoded = Request::from_line(&line);
        decode.push(req.op(), us(t));
        decoded.map_err(|e| format!("replayed line does not decode: {e}"))?;
    }
    let mut encode = PerOp::default();
    let first = &e2e.rounds[0].log;
    for (req, s) in first.exchanges(plan).take(sizes.replay) {
        let Some(line) = first.response(s) else {
            continue;
        };
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let text = serde_json::to_string(&v).map_err(|e| e.to_string())?;
        encode.push(req.op(), us(t));
        std::hint::black_box(text);
    }

    // Batch layer: the replayed requests through a lane set shaped like
    // the server's, on replica sessions.
    let opts = serve_options(plan.workload, None);
    let metrics = Arc::new(Metrics::with_lanes(opts.lanes));
    let mut durable = None;
    let sessions: Vec<Arc<Session>> = if plan.workload == Workload::UpdateEval {
        let (d, s) = durable_replica(plan, &tmp)?;
        durable = Some(d);
        vec![s]
    } else {
        let registry = CatalogRegistry::new(opts.plan_cache_capacity);
        plan.sessions
            .iter()
            .map(|n| {
                registry
                    .session_from_program(
                        n,
                        plan.program.clone(),
                        opts.sem_cache_capacity,
                        opts.plan_cache_capacity,
                    )
                    .map(Arc::new)
            })
            .collect::<Result<_, _>>()?
    };
    let lanes = LaneSet::new(opts.lanes, |i| {
        let b = Batcher::new(
            (opts.batch_threads / opts.lanes).max(1),
            Arc::clone(&metrics),
        )
        .with_lane(i);
        match &durable {
            Some(d) => b.with_durability(Arc::clone(d)),
            None => b,
        }
    });
    let work = |req: &Req| -> Work {
        match *req {
            Req::Check { tenant, pair } => Work::Check {
                session: Arc::clone(&sessions[tenant]),
                q: plan.pairs[pair].0,
                q_prime: plan.pairs[pair].1,
            },
            Req::Eval { tenant, query } => Work::Eval {
                session: Arc::clone(&sessions[tenant]),
                q: query,
            },
            Req::Update { step } => {
                let (insert, delete) = plan.step_facts(step);
                Work::Update {
                    session: Arc::clone(&sessions[0]),
                    insert,
                    delete,
                }
            }
        }
    };
    let submit_one = |req: &Req| -> Result<f64, String> {
        let name = &plan.sessions[match *req {
            Req::Check { tenant, .. } | Req::Eval { tenant, .. } => tenant,
            Req::Update { .. } => 0,
        }];
        let w = work(req);
        let t = Instant::now();
        let out = lanes.for_session(name).submit(w)?;
        let took = us(t);
        match out {
            Outcome::Check {
                summary: Err(e), ..
            }
            | Outcome::Update(Err(e)) => Err(e),
            Outcome::Cancelled { detail, .. } => Err(detail),
            _ => Ok(took),
        }
    };
    for req in plan.warmup() {
        submit_one(&req)?;
    }
    let mut submit = PerOp::default();
    for req in &replay {
        submit.push(req.op(), submit_one(req)?);
    }
    drop(lanes);

    // Cache and core: the replayed check pairs (for `update_eval`, which
    // sends no checks, every pair of its own queries).
    let mut pairs: Vec<(usize, usize)> = replay
        .iter()
        .filter_map(|r| match r {
            Req::Check { pair, .. } => Some(plan.pairs[*pair]),
            _ => None,
        })
        .collect();
    if pairs.is_empty() {
        let qs = &plan.program.queries;
        let same_arity: Vec<(usize, usize)> = (0..qs.len())
            .flat_map(|q| (0..qs.len()).map(move |qp| (q, qp)))
            .filter(|&(q, qp)| qs[q].head.len() == qs[qp].head.len())
            .collect();
        pairs = (0..sizes.replay)
            .map(|i| same_arity[i % same_arity.len()])
            .collect();
    }
    let sigma_fp = sessions[0].sigma_fp();
    let queries = &plan.program.queries;
    let mut cache = SemanticCache::new(opts.sem_cache_capacity);
    for req in plan.warmup() {
        if let Req::Check { pair, .. } = req {
            let (q, qp) = plan.pairs[pair];
            cache.insert(sigma_fp, &queries[q], &queries[qp], oracle(plan, q, qp)?.0);
        }
    }
    let (mut lookup, mut core_us, mut levels, mut conjuncts) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &(q, qp) in &pairs {
        let t = Instant::now();
        let hit = cache.lookup(sigma_fp, &queries[q], &queries[qp]);
        lookup.push(us(t));
        let t = Instant::now();
        let (answer, full) = oracle(plan, q, qp)?;
        core_us.push(us(t));
        levels.push(f64::from(full.levels_explored));
        conjuncts.push(full.chase_conjuncts as f64);
        if hit.is_none() {
            cache.insert(sigma_fp, &queries[q], &queries[qp], answer);
        }
    }
    let batch_pairs: Vec<ContainmentPair> = pairs
        .iter()
        .map(|&(q, q_prime)| ContainmentPair { q, q_prime })
        .collect();
    let t = Instant::now();
    let answers = cqchase_par::check_batch(
        queries,
        &batch_pairs,
        &plan.program.deps,
        &plan.program.catalog,
        &ContainmentOptions::default(),
        BatchOptions {
            threads: opts.batch_threads,
            chunk: None,
        },
    );
    let par_us_per_pair = us(t) / batch_pairs.len() as f64;
    if let Some(Err(e)) = answers.iter().find(|a| a.is_err()) {
        return Err(format!("check_batch: {e}"));
    }

    // Session and storage: an in-memory replica taking window steps,
    // with an uncached and a cached eval after every fourth step.
    let window = probe_window(plan);
    let r = plan.r();
    let private = Session::from_program("probe", plan.replica_program(), 1024, 256)?;
    let eval_queries: Vec<usize> = replay
        .iter()
        .filter_map(|r| match r {
            Req::Eval { query, .. } => Some(*query),
            Req::Check { pair, .. } => Some(plan.pairs[*pair].0),
            Req::Update { .. } => None,
        })
        .collect();
    let (mut apply_us, mut eval_us, mut hit_us) = (Vec::new(), Vec::new(), Vec::new());
    for step in 0..sizes.replay {
        let (ins, del) = window_step(&window, r, step);
        let t = Instant::now();
        let out = private.apply_updates(&[(ins, del)]);
        apply_us.push(us(t));
        out.into_iter().next().expect("one summary")?;
        if step % 4 == 0 {
            let q = eval_queries[(step / 4) % eval_queries.len()];
            let t = Instant::now();
            let (rows, cached) = private.eval_cached(q);
            eval_us.push(us(t));
            let t = Instant::now();
            let (again, cached_again) = private.eval_cached(q);
            hit_us.push(us(t));
            if cached || !cached_again || rows != again {
                return Err("eval cache did not follow the epoch".into());
            }
        }
    }
    drop(private);

    let mut db = Database::new(&plan.program.catalog);
    for (rel, cs) in plan.replica_program().facts {
        let t: Tuple = cs.into_iter().map(cqchase_storage::Value::Const).collect();
        db.insert(rel, t).map_err(|e| e.to_string())?;
    }
    let mut index = DbIndex::build(&db);
    let (mut delta_ns, mut tuples) = (0.0, 0usize);
    for step in 0..sizes.replay {
        let (ins, del) = window.step(r, step);
        let t = Instant::now();
        for (rel, tup) in &del {
            if db.remove(*rel, tup).map_err(|e| e.to_string())? {
                index.note_remove(*rel, tup);
            }
        }
        for (rel, tup) in &ins {
            if db.insert(*rel, tup.clone()).map_err(|e| e.to_string())? {
                index.note_insert(*rel, tup);
            }
        }
        delta_ns += us(t) * 1e3;
        tuples += 2 * window.chunk;
    }
    drop((db, index));

    // Durability: the WAL append + fsync per step, the WAL bytes each
    // step writes, and a snapshot rotation of the whole session.
    let (d, s) = match durable {
        Some(d) => (d, Arc::clone(&sessions[0])),
        None => {
            let (d, s) = durable_replica(plan, &tmp)?;
            (d, s)
        }
    };
    let wal = |d: &Durability| -> (f64, f64) {
        let b = d.stats_block();
        (
            b["wal_bytes"].as_f64().unwrap_or(0.0),
            b["wal_records"].as_f64().unwrap_or(0.0),
        )
    };
    let (bytes0, records0) = wal(&d);
    let mut durable_us = Vec::new();
    let first = if plan.workload == Workload::UpdateEval {
        sizes.replay
    } else {
        0
    };
    for step in first..first + sizes.replay / 2 {
        let (ins, del) = window_step(&window, r, step);
        let t = Instant::now();
        let out = d.apply_updates(&s, &[(ins, del)]);
        durable_us.push(us(t));
        out.into_iter().next().expect("one summary")?;
    }
    let (bytes1, records1) = wal(&d);
    let rotation_ms = time_median(3, || {
        d.persist().expect("snapshot persists");
    }) / 1e3;
    drop((d, s, sessions));
    let _ = std::fs::remove_dir_all(&tmp);

    let apply_p50 = median(&apply_us);
    let log_fsync_us = median(&durable_us) - apply_p50;
    let layer = |name: &str| -> f64 {
        match name {
            "cache.lookup" => median(&lookup),
            "core.contained" => median(&core_us),
            "session.eval" => median(&eval_us),
            "session.eval_hit" => median(&hit_us),
            "session.apply_updates" => apply_p50,
            "durable.log_fsync" => log_fsync_us,
            _ => unreachable!("unknown layer {name}"),
        }
    };

    // Layer tables and coverage, per op the workload issues.
    let mut table = String::new();
    let mut coverage = f64::INFINITY;
    let mut residual = 0.0;
    for op in OPS {
        let lat: Vec<f64> = e2e
            .rounds
            .iter()
            .flat_map(|r| r.log.exchanges(plan))
            .filter(|(req, _)| req.op() == op)
            .map(|(_, s)| s.lat_us())
            .collect();
        if lat.is_empty() {
            continue;
        }
        let children: &[&str] = match (plan.workload, op) {
            (Workload::CheckHot, "check") => &["cache.lookup"],
            (Workload::CheckDeep, "check") => &["cache.lookup", "core.contained"],
            (Workload::CheckHot, "eval") => &["session.eval_hit"],
            (_, "eval") => &["session.eval"],
            (_, "update") => &["session.apply_updates", "durable.log_fsync"],
            _ => &[],
        };
        let e2e_p50 = median(&lat);
        let submit_p50 = median(submit.get(op));
        let child_sum: f64 = children.iter().map(|c| layer(c)).sum();
        let attributed =
            e2e.ping_rtt_us + median(decode.get(op)) + median(encode.get(op)) + submit_p50;
        let mut rows = vec![
            LayerRow {
                layer: "server.ping_rtt".into(),
                us: e2e.ping_rtt_us,
            },
            LayerRow {
                layer: "proto.decode".into(),
                us: median(decode.get(op)),
            },
            LayerRow {
                layer: "proto.encode".into(),
                us: median(encode.get(op)),
            },
            LayerRow {
                layer: "batch.submit (self)".into(),
                us: (submit_p50 - child_sum).max(0.0),
            },
        ];
        rows.extend(children.iter().map(|c| LayerRow {
            layer: (*c).into(),
            us: layer(c),
        }));
        rows.push(LayerRow {
            layer: "server.residual".into(),
            us: e2e_p50 - attributed,
        });
        table.push_str(&render_layer_table(
            &format!(
                "{} {op} (n={}, e2e p99 {:.1} us)",
                plan.workload.name(),
                lat.len(),
                quantile(&lat, 0.99)
            ),
            e2e_p50,
            &rows,
        ));
        let largest = rows[..rows.len() - 1]
            .iter()
            .max_by(|a, b| a.us.total_cmp(&b.us))
            .expect("rows are nonempty");
        table.push_str(&format!(
            "  coverage {:.3}; largest attributed layer {}\n",
            attributed / e2e_p50,
            largest.layer
        ));
        coverage = coverage.min(attributed / e2e_p50);
        if op == plan.workload.primary_op() {
            residual = e2e_p50 - attributed;
        }
    }

    let submit_all = submit.all();
    let metrics = vec![
        metric("run.untraced_wall_s", untraced_wall_s, "s"),
        metric("run.traced_wall_s", wall.elapsed().as_secs_f64(), "s"),
        metric("server.ping_rtt_us", e2e.ping_rtt_us, "us"),
        metric("server.residual_us", residual, "us"),
        metric("proto.decode_us", median(&decode.all()), "us"),
        metric("proto.encode_us", median(&encode.all()), "us"),
        metric("proto.decode_register_ms", decode_register_ms, "ms"),
        metric("cache.lookup_us", median(&lookup), "us"),
        metric("cache.hit_rate", e2e.cache_hit_rate, "ratio"),
        metric("batch.submit_p50_us", median(&submit_all), "us"),
        metric("batch.submit_p99_us", quantile(&submit_all, 0.99), "us"),
        metric("core.contained_p50_us", median(&core_us), "us"),
        metric("core.contained_p99_us", quantile(&core_us, 0.99), "us"),
        metric("core.chase_levels", mean(&levels), "count"),
        metric("core.chase_conjuncts", mean(&conjuncts), "count"),
        metric("par.check_batch_us_per_pair", par_us_per_pair, "us"),
        metric("session.eval_p50_us", median(&eval_us), "us"),
        metric("session.eval_p99_us", quantile(&eval_us, 0.99), "us"),
        metric("session.eval_hit_us", median(&hit_us), "us"),
        metric("session.apply_updates_us", apply_p50, "us"),
        metric("storage.delta_ns_per_tuple", delta_ns / tuples as f64, "ns"),
        metric("storage.compactions", e2e.compactions, "count"),
        metric("durable.log_fsync_us", log_fsync_us, "us"),
        metric("durable.rotation_ms", rotation_ms, "ms"),
        metric(
            "durable.wal_bytes_per_update",
            (bytes1 - bytes0) / (records1 - records0).max(1.0),
            "bytes",
        ),
        metric("ir.parse_ms", parse_ms, "ms"),
        metric("catalog.register_ms", median(&reg_us) / 1e3, "ms"),
        metric("catalog.attach_us", median(&attach_us), "us"),
        metric("layers.coverage", coverage, "ratio"),
    ];
    Ok(Traced { metrics, table })
}
