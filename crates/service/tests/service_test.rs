//! End-to-end tests over a real loopback TCP server.
//!
//! The acceptance contract: a multi-client concurrent workload through
//! the server returns **bit-identical** answers to sequential
//! in-process `containment::contained` / `eval::evaluate` calls on the
//! same inputs.

use std::sync::Arc;

use cqchase_core::{contained, ContainmentOptions};
use cqchase_ir::display;
use cqchase_service::{Client, ClientError, ServeOptions, Server, MAX_QUERY_ATOMS};
use cqchase_storage::{evaluate, Database, DbIndex};
use cqchase_workload::successor_containment_batch;
use serde_json::Value;

/// Renders a full program (schema + Σ + queries + facts) as surface
/// text the `register` endpoint accepts.
fn render_program(
    p: &cqchase_ir::Program,
    queries: &[cqchase_ir::ConjunctiveQuery],
    facts: &[(i64, i64)],
) -> String {
    let mut src = String::new();
    src.push_str(&display::catalog(&p.catalog).to_string());
    src.push('\n');
    src.push_str(&display::deps(&p.deps, &p.catalog).to_string());
    src.push('\n');
    for q in queries {
        src.push_str(&display::query(q, &p.catalog).to_string());
        src.push('\n');
    }
    for (a, b) in facts {
        src.push_str(&format!("R({a}, {b}).\n"));
    }
    src
}

fn test_facts() -> Vec<(i64, i64)> {
    let mut f: Vec<(i64, i64)> = (0..40).map(|i| (i, (i + 1) % 40)).collect();
    f.extend((0..10).map(|i| (i, i)));
    f
}

fn spawn_server(
    sem_cache_capacity: usize,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".into(),
        batch_threads: 2,
        conn_workers: 6,
        sem_cache_capacity,
        ..Default::default()
    })
    .unwrap()
}

#[test]
fn concurrent_clients_bit_identical_to_library() {
    let batch = successor_containment_batch(5, 10, 80);
    let facts = test_facts();
    let program_src = render_program(&batch.program, &batch.queries, &facts);

    // Ground truth: the sequential in-process engines on the same inputs.
    let opts = ContainmentOptions::default();
    let direct: Vec<_> = batch
        .pairs
        .iter()
        .map(|&(q, qp)| {
            contained(
                &batch.queries[q],
                &batch.queries[qp],
                &batch.program.deps,
                &batch.program.catalog,
                &opts,
            )
            .expect("workload pairs decide under default options")
        })
        .collect();
    let reparsed = cqchase_ir::parse_program(&program_src).expect("rendered program parses");
    let db = Database::from_facts(&reparsed.catalog, &reparsed.facts).unwrap();
    let idx = DbIndex::build(&db);
    let direct_rows: Vec<Vec<Vec<String>>> = batch
        .queries
        .iter()
        .map(|q| {
            evaluate(q, &idx)
                .iter()
                .map(|row| row.iter().map(|v| v.to_string()).collect())
                .collect()
        })
        .collect();

    let (addr, handle) = spawn_server(1024);
    let mut admin = Client::connect(addr).unwrap();
    let reg = admin.register("w", &program_src).unwrap();
    assert_eq!(reg["class"], "IndsOnly(width=1)");

    // 4 concurrent clients, each firing a strided slice of the pairs
    // plus every tenth evaluation.
    let pairs = Arc::new(batch.pairs.clone());
    let names: Arc<Vec<String>> = Arc::new(batch.queries.iter().map(|q| q.name.clone()).collect());
    let mut handles = Vec::new();
    for t in 0..4usize {
        let pairs = Arc::clone(&pairs);
        let names = Arc::clone(&names);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut check_replies = Vec::new();
            let mut eval_replies = Vec::new();
            for (i, &(q, qp)) in pairs.iter().enumerate() {
                if i % 4 != t {
                    continue;
                }
                let v = client.check("w", &names[q], &names[qp]).unwrap();
                check_replies.push((i, v));
                if i % 10 == t {
                    let e = client.eval("w", &names[q]).unwrap();
                    eval_replies.push((q, e));
                }
            }
            (check_replies, eval_replies)
        }));
    }

    let mut answered = 0usize;
    for h in handles {
        let (checks, evals) = h.join().unwrap();
        for (i, v) in checks {
            let d = &direct[i];
            assert_eq!(v["contained"], d.contained, "pair {i}: contained");
            assert_eq!(v["exact"], d.exact, "pair {i}: exact");
            assert_eq!(v["empty_chase"], d.empty_chase, "pair {i}: empty_chase");
            assert_eq!(v["bound"], d.bound, "pair {i}: bound");
            assert_eq!(v["class"], "IndsOnly(width=1)", "pair {i}: class");
            answered += 1;
        }
        for (q, e) in evals {
            let rows = e["rows"].as_array().unwrap();
            assert_eq!(rows.len(), direct_rows[q].len(), "query {q}: row count");
            for (ri, row) in rows.iter().enumerate() {
                let got: Vec<&str> = row
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|c| c.as_str().unwrap())
                    .collect();
                let want: Vec<&str> = direct_rows[q][ri].iter().map(String::as_str).collect();
                assert_eq!(got, want, "query {q} row {ri}");
            }
        }
    }
    assert_eq!(answered, 80);

    // A second, sequential pass over every pair: answers must not
    // change now that the semantic cache is warm, and repeats of an
    // isomorphism class must be served from it.
    for (i, &(q, qp)) in batch.pairs.iter().enumerate() {
        let v = admin.check("w", &names[q], &names[qp]).unwrap();
        let d = &direct[i];
        assert_eq!(v["contained"], d.contained, "warm pair {i}");
        assert_eq!(v["exact"], d.exact, "warm pair {i}");
        assert_eq!(v["bound"], d.bound, "warm pair {i}");
        assert_eq!(v["cached"], true, "warm pair {i} must hit the cache");
    }

    let stats = admin.stats().unwrap();
    assert_eq!(stats["sessions"][0], "w");
    assert!(stats["endpoints"]["check"]["count"].as_u64().unwrap() >= 160);
    let hits = stats["semantic_cache"]["hits"].as_u64().unwrap();
    assert!(
        hits >= 80,
        "second pass must be all cache hits (got {hits})"
    );
    assert!(stats["batching"]["batches"].as_u64().unwrap() >= 1);
    // The planner block: eval queries were compiled (plan-cache misses),
    // and the chain/star shapes in the pool are acyclic, so the fast
    // path must have served at least once. Nothing mutated, so no
    // drift-triggered replans.
    let planner = &stats["planner"];
    assert!(planner["compiled"].as_u64().unwrap() >= 1, "plans compiled");
    assert!(
        planner["acyclic_hits"].as_u64().unwrap() >= 1,
        "acyclic fast path served"
    );
    assert_eq!(planner["replans"], 0, "no stat drift without mutation");

    admin.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn protocol_errors_leave_connection_usable() {
    let (addr, handle) = spawn_server(64);
    let mut c = Client::connect(addr).unwrap();

    // Garbage line.
    let v: Value = serde_json::from_str(&c.request_line("this is not json").unwrap()).unwrap();
    assert_eq!(v["ok"], false);
    // Unknown op.
    let v: Value = serde_json::from_str(&c.request_line(r#"{"op":"nope"}"#).unwrap()).unwrap();
    assert_eq!(v["ok"], false);
    // Unknown session.
    assert!(matches!(
        c.check("ghost", "A", "B"),
        Err(cqchase_service::ClientError::Server(_))
    ));
    // Bad program.
    assert!(c.register("s", "relation R(a). Q(x) :- S(x).").is_err());
    // The connection still works for a valid exchange.
    c.register("s", "relation R(a, b). Q(x) :- R(x, y). R(1, 2).")
        .unwrap();
    // Unknown query inside a valid session.
    assert!(c.check("s", "Q", "Nope").is_err());
    let e = c.eval("s", "Q").unwrap();
    assert_eq!(e["count"], 1);
    assert_eq!(e["rows"][0][0], "1");
    // Arity-mismatched pair is a per-request error, not a dead server.
    c.register(
        "s2",
        "relation R(a, b). Q(x) :- R(x, y). P(x, y) :- R(x, y).",
    )
    .unwrap();
    assert!(c.check("s2", "Q", "P").is_err());
    assert_eq!(c.classify("s2").unwrap()["class"], "Empty");

    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn overloaded_server_refuses_politely() {
    use std::io::Read;
    // 1 handler worker → at most 2 live connections admitted.
    let (addr, handle) = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".into(),
        conn_workers: 1,
        ..Default::default()
    })
    .unwrap();
    let mut c1 = Client::connect(addr).unwrap();
    c1.register("s", "relation R(a). Q(x) :- R(x).").unwrap();
    let _c2 = std::net::TcpStream::connect(addr).unwrap(); // queued
                                                           // Give the acceptor time to admit c2 before probing the limit.
    std::thread::sleep(std::time::Duration::from_millis(100));
    // The third connection must get an overload error line, not hang.
    let mut c3 = std::net::TcpStream::connect(addr).unwrap();
    c3.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut line = String::new();
    c3.read_to_string(&mut line).unwrap();
    assert!(
        line.contains("\"ok\":false") && line.contains("overloaded"),
        "expected overload refusal, got {line:?}"
    );
    // The admitted connection still works.
    assert_eq!(c1.eval("s", "Q").unwrap()["count"], 0);
    c1.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn duplicate_register_is_rejected_and_update_mutates() {
    let (addr, handle) = spawn_server(64);
    let mut c = Client::connect(addr).unwrap();
    c.register("s", "relation R(a, b). Q(x) :- R(x, y). R(1, 2).")
        .unwrap();
    assert_eq!(c.eval("s", "Q").unwrap()["count"], 1);
    // Names are unique: a second register of `s` is an explicit error
    // (the live session is untouched), not a silent replace.
    match c.register("s", "relation R(a, b). Q(x) :- R(x, y). R(9, 9).") {
        Err(cqchase_service::ClientError::Server(msg)) => {
            assert!(msg.contains("already registered"), "{msg}")
        }
        other => panic!("duplicate register must fail, got {other:?}"),
    }
    // Growing the session goes through `update` instead.
    let fact = |a: i64, b: i64| -> cqchase_service::FactSpec {
        (
            "R".into(),
            vec![cqchase_ir::Constant::Int(a), cqchase_ir::Constant::Int(b)],
        )
    };
    let u = c.update("s", &[fact(3, 4)], &[]).unwrap();
    assert_eq!(u["inserted"], 1);
    assert_eq!(u["facts"], 2);
    assert_eq!(u["epoch"], 1u64);
    assert_eq!(c.eval("s", "Q").unwrap()["count"], 2);
    // Delete + reinsert of an identical tuple in one request: present.
    let u = c.update("s", &[fact(1, 2)], &[fact(1, 2)]).unwrap();
    assert_eq!(u["deleted"], 1);
    assert_eq!(u["inserted"], 1);
    assert_eq!(c.eval("s", "Q").unwrap()["count"], 2);
    // Deleting the original registered fact shrinks the answer.
    let u = c.update("s", &[], &[fact(1, 2)]).unwrap();
    assert_eq!(u["facts"], 1);
    let e = c.eval("s", "Q").unwrap();
    assert_eq!(e["count"], 1);
    assert_eq!(e["rows"][0][0], "3");
    // Unknown relation / wrong arity are per-request errors.
    assert!(c.update("s", &[("NOPE".into(), vec![])], &[]).is_err());
    assert!(c
        .update(
            "s",
            &[("R".into(), vec![cqchase_ir::Constant::Int(1)])],
            &[]
        )
        .is_err());
    // Updating an unregistered session errors politely.
    assert!(c.update("ghost", &[fact(1, 2)], &[]).is_err());
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn updated_session_answers_match_fresh_registration() {
    // The differential contract over TCP: after a mutation script, an
    // updated session answers every eval bit-identically to a session
    // registered from scratch on the mutated facts.
    let (addr, handle) = spawn_server(256);
    let mut c = Client::connect(addr).unwrap();
    let queries = "A(x) :- R(x, y). B(x) :- R(x, y), R(y, z). C(x, z) :- R(x, y), R(y, z).";
    let src = format!(
        "relation R(a, b). ind R[2] <= R[1]. {queries} {}",
        (0..20)
            .map(|i| format!("R({i}, {}).", (i + 1) % 20))
            .collect::<Vec<_>>()
            .join(" ")
    );
    c.register("live", &src).unwrap();
    let fact = |a: i64, b: i64| -> cqchase_service::FactSpec {
        (
            "R".into(),
            vec![cqchase_ir::Constant::Int(a), cqchase_ir::Constant::Int(b)],
        )
    };
    // Mutate: break the cycle in two places, add a chord and a loop.
    c.update(
        "live",
        &[fact(3, 17), fact(8, 8)],
        &[fact(5, 6), fact(12, 13)],
    )
    .unwrap();
    c.update("live", &[fact(5, 6)], &[fact(8, 8)]).unwrap();
    // Fresh session on the same final facts.
    let mut final_facts: Vec<(i64, i64)> = (0..20)
        .map(|i| (i, (i + 1) % 20))
        .filter(|&(a, b)| (a, b) != (12, 13))
        .collect();
    final_facts.push((3, 17));
    let fresh_src = format!(
        "relation R(a, b). ind R[2] <= R[1]. {queries} {}",
        final_facts
            .iter()
            .map(|(a, b)| format!("R({a}, {b})."))
            .collect::<Vec<_>>()
            .join(" ")
    );
    c.register("fresh", &fresh_src).unwrap();
    for q in ["A", "B", "C"] {
        let live = c.eval("live", q).unwrap();
        let fresh = c.eval("fresh", q).unwrap();
        assert_eq!(live["rows"], fresh["rows"], "query {q}");
        assert_eq!(live["count"], fresh["count"], "query {q}");
    }
    // Containment answers survive updates (they are facts-independent)
    // and still match a fresh session's.
    let live_ab = c.check("live", "A", "B").unwrap();
    let fresh_ab = c.check("fresh", "A", "B").unwrap();
    assert_eq!(live_ab["contained"], fresh_ab["contained"]);
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn stats_exposes_mutation_counters() {
    // The mutation fast path's observability: churn a session hard
    // enough to trigger index compaction, and check that `stats`
    // reports compaction work and the barrier/coalescing counters.
    let (addr, handle) = spawn_server(64);
    let mut c = Client::connect(addr).unwrap();
    let src = format!(
        "relation R(a, b). Q(x) :- R(x, y). {}",
        (0..64)
            .map(|i| format!("R({i}, {}).", i + 1))
            .collect::<Vec<_>>()
            .join(" ")
    );
    c.register("churn", &src).unwrap();
    let fact = |a: i64, b: i64| -> cqchase_service::FactSpec {
        (
            "R".into(),
            vec![cqchase_ir::Constant::Int(a), cqchase_ir::Constant::Int(b)],
        )
    };
    // Slide a window over the relation: hundreds of effective deletes
    // against a small live set crosses the compaction trigger.
    for round in 0..8i64 {
        let deletes: Vec<_> = (0..64)
            .map(|i| fact(round * 64 + i, round * 64 + i + 1))
            .collect();
        let inserts: Vec<_> = (0..64)
            .map(|i| fact((round + 1) * 64 + i, (round + 1) * 64 + i + 1))
            .collect();
        let u = c.update("churn", &inserts, &deletes).unwrap();
        assert_eq!(u["deleted"], 64);
        assert_eq!(u["inserted"], 64);
    }
    assert_eq!(c.eval("churn", "Q").unwrap()["count"], 64);
    let stats = c.stats().unwrap();
    let mutation = &stats["mutation"];
    assert!(
        mutation["compactions"].as_u64().unwrap() > 0,
        "window churn must compact: {mutation:?}"
    );
    assert!(mutation["slots_reclaimed"].as_u64().unwrap() >= 64);
    assert!(mutation["bytes_reclaimed"].as_u64().unwrap() > 0);
    // Counters exist (zero is fine for a sequential client — coalescing
    // needs concurrent traffic) and mirror the batching section.
    assert!(mutation["updates_coalesced"].as_u64().is_some());
    assert!(mutation["barrier_flushes"].as_u64().is_some());
    assert_eq!(
        stats["batching"]["updates_coalesced"],
        mutation["updates_coalesced"]
    );
    assert_eq!(
        stats["batching"]["barrier_flushes"],
        mutation["barrier_flushes"]
    );
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn stats_exposes_planner_counters() {
    // The cost-based planner's observability: compile a plan over a
    // tiny instance, grow the relation far past the 2x drift threshold,
    // re-evaluate, and check that `stats` reports the compile, the
    // acyclic fast-path serves, and the drift-triggered replan.
    let (addr, handle) = spawn_server(64);
    let mut c = Client::connect(addr).unwrap();
    c.register(
        "grow",
        "relation R(a, b). Q(x) :- R(x, y), R(y, z). R(0, 1). R(1, 2).",
    )
    .unwrap();
    assert_eq!(c.eval("grow", "Q").unwrap()["count"], 1);
    let fact = |a: i64, b: i64| -> cqchase_service::FactSpec {
        (
            "R".into(),
            vec![cqchase_ir::Constant::Int(a), cqchase_ir::Constant::Int(b)],
        )
    };
    let inserts: Vec<_> = (2..64).map(|i| fact(i, i + 1)).collect();
    c.update("grow", &inserts, &[]).unwrap();
    assert_eq!(c.eval("grow", "Q").unwrap()["count"], 63);
    let stats = c.stats().unwrap();
    let planner = &stats["planner"];
    assert!(
        planner["compiled"].as_u64().unwrap() >= 1,
        "eval must compile a plan: {planner:?}"
    );
    assert!(
        planner["acyclic_hits"].as_u64().unwrap() >= 2,
        "the chain query is acyclic, both evals take the fast path: {planner:?}"
    );
    assert!(
        planner["replans"].as_u64().unwrap() >= 1,
        "32x growth must trigger a drift replan: {planner:?}"
    );
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn oversized_request_line_is_refused_and_closed() {
    use std::io::{Read, Write};
    let (addr, handle) = spawn_server(64);
    let mut c = Client::connect(addr).unwrap();
    c.register("s", "relation R(a). Q(x) :- R(x). R(1).")
        .unwrap();
    // Stream > 8 MiB without a newline: the server must answer one
    // refusal line and close — never hang, never reuse the stream.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let chunk = vec![b'x'; 64 << 10];
    // 8 MiB + 128 KiB, no newline anywhere.
    for _ in 0..130 {
        if raw.write_all(&chunk).is_err() {
            break; // server closed early — the refusal is already queued
        }
    }
    let mut refused = String::new();
    Read::read_to_string(&mut raw, &mut refused).unwrap();
    assert!(
        refused.contains("\"ok\":false") && refused.contains("maximum length"),
        "expected an oversized-line refusal, got {refused:?}"
    );
    assert!(
        !refused.trim_end().contains('\n'),
        "exactly one refusal line, got {refused:?}"
    );
    // The server survives and serves other connections.
    assert_eq!(c.eval("s", "Q").unwrap()["count"], 1);
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn invalid_utf8_line_is_rejected_explicitly() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle) = spawn_server(64);
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    // 0xFF is never valid UTF-8.
    raw.write_all(b"{\"op\":\"stats\xff\"}\n").unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"ok\":false") && line.contains("bad utf-8"),
        "expected an explicit bad-utf-8 error, got {line:?}"
    );
    // The frame boundary was preserved: the connection still serves.
    raw.write_all(b"{\"op\":\"stats\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "got {line:?}");
    let mut c = Client::connect(addr).unwrap();
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn semantic_cache_serves_isomorphic_clients() {
    let (addr, handle) = spawn_server(64);
    let mut c = Client::connect(addr).unwrap();
    c.register(
        "iso",
        "relation R(a, b).
         ind R[2] <= R[1].
         A(x) :- R(x, y).
         B(x) :- R(x, y), R(y, z).
         Bren(u) :- R(u, w), R(w, v).",
    )
    .unwrap();
    let first = c.check("iso", "A", "B").unwrap();
    assert_eq!(first["cached"], false);
    // A syntactically different but isomorphic Q′ from another client.
    let mut c2 = Client::connect(addr).unwrap();
    let second = c2.check("iso", "A", "Bren").unwrap();
    assert_eq!(second["cached"], true, "isomorphic repeat must hit");
    assert_eq!(second["contained"], first["contained"]);
    assert_eq!(second["exact"], first["exact"]);
    assert_eq!(second["bound"], first["bound"]);
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// A `R(a, b)` program with the chain query `Q(x0) :- R(x0, x1), …` of
/// `n` atoms.
fn chain_program(n: usize) -> String {
    let atoms: Vec<String> = (0..n).map(|i| format!("R(x{i}, x{})", i + 1)).collect();
    format!("relation R(a, b). Q(x0) :- {}.", atoms.join(", "))
}

#[test]
fn over_cap_query_is_refused_and_the_server_survives() {
    let (addr, handle) = spawn_server(64);
    let mut c = Client::connect(addr).unwrap();
    // 20,000 atoms used to overflow a handler's stack on `check`,
    // aborting the process; registration now refuses it.
    match c.register("big", &chain_program(20_000)) {
        Err(ClientError::Server(msg)) => assert!(
            msg.contains("20000 atoms") && msg.contains(&format!("cap is {MAX_QUERY_ATOMS}")),
            "{msg}"
        ),
        other => panic!("expected a refusal naming the cap, got {other:?}"),
    }
    assert_eq!(c.ping().unwrap()["ok"], true);
    assert!(c.check("big", "Q", "Q").is_err(), "nothing was registered");
    // A query at the cap registers and checks.
    c.register("cap", &chain_program(MAX_QUERY_ATOMS)).unwrap();
    assert_eq!(c.check("cap", "Q", "Q").unwrap()["contained"], true);
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn query_at_the_cap_fits_a_default_thread_stack() {
    let p = cqchase_ir::parse_program(&chain_program(MAX_QUERY_ATOMS)).unwrap();
    let answers = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let q = &p.queries[0];
            let contained = contained(q, q, &p.deps, &p.catalog, &ContainmentOptions::default())
                .unwrap()
                .contained;
            (contained, cqchase_core::is_isomorphic(q, q))
        })
        .unwrap()
        .join()
        .expect("no stack overflow at the cap");
    assert_eq!(answers, (true, true));
}
