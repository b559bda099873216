//! Observability acceptance tests over a real loopback TCP server:
//! the `metrics` Prometheus exposition agrees with the `stats` JSON,
//! endpoint counters stay internally consistent under concurrent
//! clients, and a zero-threshold slow-query log captures the full span
//! vocabulary (admission wait, plan compile / cache hit, join
//! execution, WAL fsync) plus per-atom estimated-vs-actual cardinality.

use std::path::PathBuf;

use cqchase_obs::prom::{flatten_numeric, parse_prometheus, session_gauges};
use cqchase_service::{Client, FactSpec, ServeOptions, Server};
use serde_json::Value;

fn fact(a: i64, b: i64) -> FactSpec {
    (
        "R".into(),
        vec![cqchase_ir::Constant::Int(a), cqchase_ir::Constant::Int(b)],
    )
}

const PROGRAM: &str = "relation R(a, b).
    ind R[2] <= R[1].
    A(x) :- R(x, y).
    B(x) :- R(x, y), R(y, z).
    C(x, z) :- R(x, y), R(y, z).
    R(0, 1). R(1, 2). R(2, 3).";

fn temp_data_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cqchase-obs-{tag}-{}", std::process::id()))
}

#[test]
fn metrics_text_matches_stats_json() {
    let (addr, handle) = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".into(),
        batch_threads: 2,
        conn_workers: 4,
        ..Default::default()
    })
    .unwrap();
    let mut c = Client::connect(addr).unwrap();
    c.register("obs", PROGRAM).unwrap();
    c.update("obs", &[fact(3, 4)], &[]).unwrap();
    c.check("obs", "A", "B").unwrap();
    c.eval("obs", "B").unwrap();
    c.eval("obs", "B").unwrap(); // warm repeat: result-cache hit

    let stats = c.stats().unwrap();
    let text = c.metrics_text().unwrap();
    let parsed = parse_prometheus(&text);

    // The exposition is the flattening of the stats payload. Between
    // the two requests only the stats/metrics endpoints' own counters
    // and the uptime gauge move, so everything else must be equal.
    let mut payload = serde_json::Map::new();
    for (k, v) in stats.as_object().unwrap().iter() {
        if k != "ok" && k != "op" {
            payload.insert(k.clone(), v.clone());
        }
    }
    let flat = flatten_numeric(&Value::Object(payload));
    assert!(!flat.is_empty());
    for (key, value) in &flat {
        if key.starts_with("cqchase_endpoints_stats")
            || key.starts_with("cqchase_endpoints_metrics")
            || key.contains("uptime")
        {
            continue;
        }
        assert_eq!(
            parsed.get(key),
            Some(value),
            "metrics text disagrees with stats JSON on {key}"
        );
    }

    // The families the README documents must actually be present.
    for family in [
        "cqchase_endpoints_eval_count",
        "cqchase_endpoints_check_count",
        "cqchase_queue_wait_count",
        "cqchase_semantic_cache_hits",
        "cqchase_planner_compiled",
        "cqchase_server_wal_rotate_bytes",
        "cqchase_server_batch_threads",
        "cqchase_eval_row_hits",
    ] {
        assert!(
            parsed.contains_key(family),
            "missing metric family {family}"
        );
    }
    assert!(
        text.contains("_histogram_us_pow2_bucket{le=\"+Inf\"}"),
        "latency histograms must render cumulatively"
    );
    // Per-session gauges carry the session label.
    let gauges = session_gauges(&parsed);
    let facts = gauges
        .iter()
        .find(|(s, m, _)| s == "obs" && m == "facts")
        .expect("per-session facts gauge");
    assert_eq!(facts.2, 4.0);
    assert!(gauges.iter().any(|(s, m, _)| s == "obs" && m == "epoch"));
    assert!(gauges
        .iter()
        .any(|(s, m, v)| s == "obs" && m == "eval_result_hits" && *v >= 1.0));

    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn endpoint_counters_consistent_under_concurrent_clients() {
    let (addr, handle) = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".into(),
        batch_threads: 2,
        conn_workers: 6,
        ..Default::default()
    })
    .unwrap();
    let mut admin = Client::connect(addr).unwrap();
    admin.register("c", PROGRAM).unwrap();

    let mut handles = Vec::new();
    for t in 0..4i64 {
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for i in 0..25i64 {
                match i % 3 {
                    0 => {
                        c.eval("c", "A").unwrap();
                    }
                    1 => {
                        c.check("c", "A", "B").unwrap();
                    }
                    _ => {
                        let f = fact(100 + t * 1000 + i, 200 + t * 1000 + i);
                        c.update("c", std::slice::from_ref(&f), &[]).unwrap();
                        c.update("c", &[], &[f]).unwrap();
                    }
                }
                // Sprinkle in errors: unknown session, every few rounds.
                if i % 7 == 0 {
                    let _ = c.eval("ghost", "A");
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let stats = admin.stats().unwrap();
    let endpoints = stats["endpoints"].as_object().unwrap();
    for (name, ep) in endpoints.iter() {
        let count = ep["count"].as_u64().unwrap();
        let errors = ep["errors"].as_u64().unwrap();
        let hist_sum: u64 = ep["histogram_us_pow2"]
            .as_array()
            .unwrap()
            .iter()
            .map(|b| b.as_u64().unwrap())
            .sum();
        assert_eq!(
            count, hist_sum,
            "endpoint {name}: every recorded request lands in exactly one bucket"
        );
        assert!(errors <= count, "endpoint {name}: errors ≤ count");
    }
    assert!(stats["endpoints"]["eval"]["count"].as_u64().unwrap() >= 50);
    assert!(stats["endpoints"]["eval"]["errors"].as_u64().unwrap() >= 4);
    // Queue-wait is recorded once per batched item.
    let qw = stats["queue_wait"]["count"].as_u64().unwrap();
    let batched = stats["batching"]["batched_items"].as_u64().unwrap();
    assert_eq!(qw, batched, "one queue-wait sample per batched item");

    admin.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn zero_threshold_slow_query_log_captures_span_vocabulary() {
    let dir = temp_data_dir("slowlog");
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".into(),
        batch_threads: 2,
        conn_workers: 4,
        data_dir: Some(dir.clone()),
        slow_query_us: Some(0),
        ..Default::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    let mut c = Client::connect(addr).unwrap();
    c.register("slow", PROGRAM).unwrap();
    c.update("slow", &[fact(3, 4)], &[]).unwrap();
    c.check("slow", "A", "B").unwrap();
    c.eval("slow", "B").unwrap(); // compile + execute
    c.eval("slow", "C").unwrap(); // second plan through the warm cache path
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    let log = std::fs::read_to_string(dir.join("slowlog")).expect("slowlog file exists");
    let lines: Vec<Value> = log
        .lines()
        .map(|l| serde_json::from_str(l).expect("every slowlog line is one JSON object"))
        .collect();
    assert!(!lines.is_empty());
    for line in &lines {
        assert_eq!(line["event"], "slow_query");
        assert_eq!(line["threshold_us"], 0u64);
        assert!(line["trace_id"].as_u64().unwrap() > 0);
        assert!(line["latency_us"].as_u64().is_some());
    }
    let spans_of = |line: &Value| -> Vec<String> {
        line["spans"]
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s["kind"].as_str().unwrap().to_string())
            .collect()
    };
    let find = |op: &str| -> &Value {
        lines
            .iter()
            .find(|l| l["op"] == op)
            .unwrap_or_else(|| panic!("no slow-query line for op {op}"))
    };

    // Register: the WAL fsync before acknowledgement is a span.
    let reg = spans_of(find("register"));
    assert!(reg.contains(&"request".into()), "{reg:?}");
    assert!(reg.contains(&"fsync".into()), "{reg:?}");

    // Update: queued, drained, fsync'd.
    let upd = spans_of(find("update"));
    for kind in ["request", "admission_wait", "batch_drain", "fsync"] {
        assert!(upd.contains(&kind.into()), "update spans: {upd:?}");
    }

    // Check: the pre-queue semantic-cache probe is timed.
    let chk = spans_of(find("check"));
    for kind in [
        "request",
        "sem_cache_lookup",
        "admission_wait",
        "batch_drain",
    ] {
        assert!(chk.contains(&kind.into()), "check spans: {chk:?}");
    }

    // Eval: result-cache probe, a plan compile (cold) and the join, with
    // the per-atom est-vs-actual annotation.
    let eval_lines: Vec<&Value> = lines.iter().filter(|l| l["op"] == "eval").collect();
    assert_eq!(eval_lines.len(), 2);
    let cold = eval_lines[0];
    let spans = spans_of(cold);
    for kind in [
        "request",
        "admission_wait",
        "eval_cache_lookup",
        "plan_compile",
        "join_exec",
        "batch_drain",
    ] {
        assert!(spans.contains(&kind.into()), "cold eval spans: {spans:?}");
    }
    let join = &cold["join"];
    assert_eq!(join["result_cache_hit"], false);
    assert_eq!(join["plan"], "compiled");
    assert_eq!(join["acyclic"], true);
    let atoms = join["atoms"].as_array().unwrap();
    assert_eq!(atoms.len(), 2, "B has two atoms");
    for atom in atoms {
        assert!(atom["est"].as_f64().unwrap() > 0.0);
        assert!(atom["actual"].as_u64().is_some());
    }
    assert!(join["join_order"].as_array().unwrap().len() == 2);
    assert!(join["candidates_scanned"].as_u64().unwrap() > 0);
    assert!(join["rows_emitted"].as_u64().unwrap() > 0);

    // Every span nests inside the request span's window.
    let req = cold["spans"]
        .as_array()
        .unwrap()
        .iter()
        .find(|s| s["kind"] == "request")
        .unwrap()
        .clone();
    let req_start = req["start_us"].as_u64().unwrap();
    let req_end = req_start + req["dur_us"].as_u64().unwrap();
    for s in cold["spans"].as_array().unwrap() {
        let start = s["start_us"].as_u64().unwrap();
        assert!(
            start >= req_start && start <= req_end,
            "span outside request: {s}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_refusals_are_counted_once_globally() {
    use std::io::{BufRead, BufReader, Write};
    // One handler worker → the admission bound is 2 live connections;
    // the third gets one `ok:false` overload line, a closed stream, and
    // exactly one tick of the single process-wide refusal counter
    // (shared by every lane — refusal happens at accept, before lane
    // routing).
    let (addr, handle) = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".into(),
        batch_threads: 1,
        lanes: 2,
        conn_workers: 1,
        ..Default::default()
    })
    .unwrap();
    // Occupy the worker with a served connection…
    let mut held = Client::connect(addr).unwrap();
    held.register("obs", PROGRAM).unwrap();
    // …and the admission slack with an idle accepted-but-queued one.
    let parked = std::net::TcpStream::connect(addr).unwrap();
    // Give the accept loop a beat to count the parked connection.
    std::thread::sleep(std::time::Duration::from_millis(100));
    // The third connection is refused with a readable error line.
    let extra = std::net::TcpStream::connect(addr).unwrap();
    extra
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    {
        let mut w = extra.try_clone().unwrap();
        let _ = w.write_all(b"{\"op\":\"stats\"}\n");
    }
    let mut line = String::new();
    BufReader::new(&extra).read_line(&mut line).unwrap();
    assert!(
        line.contains("\"ok\":false") && line.contains("overloaded"),
        "expected the overload refusal, got {line:?}"
    );
    drop(extra);
    drop(parked);
    // The held (still-served) connection reads the counter back: the
    // refusal was recorded exactly where the stats and Prometheus
    // expositions surface it.
    let stats = held.stats().unwrap();
    assert_eq!(
        stats["overload_refusals"].as_u64().unwrap(),
        1,
        "one refusal counted: {:?}",
        stats["overload_refusals"]
    );
    let text = held.metrics_text().unwrap();
    assert!(
        text.contains("cqchase_overload_refusals 1"),
        "refusal counter missing from the exposition"
    );
    // Per-lane shard families are in the exposition too (the smoke
    // test greps the same names over the CLI).
    assert!(text.contains("cqchase_lanes_count 2"));
    assert!(text.contains("cqchase_lanes_detail_0_batched_items"));
    assert!(text.contains("cqchase_lanes_detail_1_batched_items"));
    held.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// Replays one register → eval → update → eval script and returns the
/// `plan_cache` and `planner` stats blocks plus the per-session plan
/// counters.
fn planner_counters_after_script(opts: ServeOptions) -> Vec<Value> {
    let (addr, handle) = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".into(),
        batch_threads: 2,
        conn_workers: 4,
        // Smaller than the three queries, so lookups also evict.
        plan_cache_capacity: 2,
        ..opts
    })
    .unwrap();
    let mut c = Client::connect(addr).unwrap();
    // Two tenants on one catalog: evals first run against the shared
    // facts' plan cache, then (after t1's update promotes it) against
    // a private copy.
    c.register("t1", PROGRAM).unwrap();
    c.register("t2", PROGRAM).unwrap();
    for q in ["A", "B", "C", "B"] {
        c.eval("t1", q).unwrap();
        c.eval("t2", q).unwrap();
    }
    c.update("t1", &[fact(3, 4), fact(9, 9)], &[fact(0, 1)])
        .unwrap();
    for q in ["A", "B", "C"] {
        c.eval("t1", q).unwrap();
    }
    let stats = c.stats().unwrap();
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let detail = &stats["sessions_detail"];
    vec![
        stats["plan_cache"].clone(),
        stats["planner"].clone(),
        detail["t1"]["plan_cache_hits"].clone(),
        detail["t1"]["plan_cache_misses"].clone(),
        detail["t2"]["plan_cache_hits"].clone(),
        detail["t2"]["plan_cache_misses"].clone(),
    ]
}

#[test]
fn tracing_does_not_change_planner_counters() {
    let untraced = planner_counters_after_script(ServeOptions::default());
    let traced = planner_counters_after_script(ServeOptions {
        trace: true,
        ..Default::default()
    });
    assert_eq!(untraced, traced, "tracing must observe, not count");
    // One plan lookup per result-cache miss: 6 before the update (the
    // repeated B is a row-cache hit), 3 after it cleared t1's rows.
    // Before the update t2 hits what t1 compiled, and C evicts A from
    // the shared two-plan cache; t1's promoted copy holds {B, C}, so
    // A, B, C each miss and evict the least recently used plan.
    let plan_cache = &untraced[0];
    let counts = ["hits", "misses", "evictions"].map(|k| plan_cache[k].as_u64().unwrap());
    assert_eq!(counts, [3, 6, 4], "{untraced:?}");
}
