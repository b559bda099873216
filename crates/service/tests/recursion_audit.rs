//! Recursion audit for the service at the registration cap: a
//! `MAX_QUERY_ATOMS`-atom chain and a renamed copy go through every
//! request path over TCP — register (parse, validate, WAL), check both
//! ways (chase, chase homomorphism search, and on the second check the
//! semantic cache's isomorphism verify), eval (plan compile and the
//! acyclic join) and ping — on the server's own handler and worker
//! threads. A zero slow-query threshold makes every request render its
//! slowlog line, the eval's per-atom join annotation included. A walk
//! that recurses once per atom would overflow a handler stack and take
//! the process down.

use std::path::PathBuf;

use cqchase_service::{Client, ServeOptions, Server, MAX_QUERY_ATOMS};
use serde_json::Value;

/// `Q(x0) :- R(x0, x1), …` with `MAX_QUERY_ATOMS` atoms, the same chain
/// over `y`s as `P`, a successor IND, and a self-loop fact so the chain
/// has one answer.
fn program() -> String {
    let chain = |v: &str| {
        (0..MAX_QUERY_ATOMS)
            .map(|i| format!("R({v}{i}, {v}{})", i + 1))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "relation R(a, b). ind R[2] <= R[1].\nQ(x0) :- {}.\nP(y0) :- {}.\nR(0, 0).\n",
        chain("x"),
        chain("y")
    )
}

fn temp_data_dir() -> PathBuf {
    std::env::temp_dir().join(format!("cqchase-recursion-audit-{}", std::process::id()))
}

#[test]
fn cap_sized_queries_answer_every_request() {
    let dir = temp_data_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".into(),
        batch_threads: 2,
        conn_workers: 2,
        data_dir: Some(dir.clone()),
        slow_query_us: Some(0),
        ..Default::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    let mut c = Client::connect(addr).unwrap();
    c.register("big", &program()).unwrap();
    // P is isomorphic to Q, so both checks fall in one class pair: the
    // second resolves P to Q's class through `is_isomorphic` and hits.
    for (q, q_prime, cached) in [("Q", "P", false), ("P", "Q", true)] {
        let v = c.check("big", q, q_prime).unwrap();
        assert_eq!(v["contained"], true, "{q} ⊆ {q_prime}: {v}");
        assert_eq!(v["cached"], cached, "{q} ⊆ {q_prime}: {v}");
    }
    let v = c.eval("big", "Q").unwrap();
    assert_eq!(v["rows"].to_string(), r#"[["0"]]"#, "{v}");
    c.ping().unwrap();
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    let log = std::fs::read_to_string(dir.join("slowlog")).expect("slowlog file exists");
    let lines: Vec<Value> = log
        .lines()
        .map(|l| serde_json::from_str(l).expect("every slowlog line is one JSON object"))
        .collect();
    let ops: Vec<&str> = lines.iter().filter_map(|l| l["op"].as_str()).collect();
    for op in ["register", "check", "eval", "ping"] {
        assert!(ops.contains(&op), "no slowlog line for {op}: {ops:?}");
    }
    let eval = lines.iter().find(|l| l["op"] == "eval").unwrap();
    assert_eq!(
        eval["join"]["atoms"].as_array().map(Vec::len),
        Some(MAX_QUERY_ATOMS),
        "one join annotation per atom"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
