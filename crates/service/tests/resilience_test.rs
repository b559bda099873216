//! End-to-end request-lifecycle resilience over a real loopback server:
//! deadlines produce structured errors in bounded time, expired work is
//! refused without running, client disconnects cancel in-flight work,
//! load shedding refuses with a retry hint, and `ping` stays answerable
//! throughout.

use std::time::{Duration, Instant};

use cqchase_service::{Client, ClientError, Request, RetryPolicy, ServeOptions, Server};

/// A program whose 3-hop chain query over a dense graph is expensive
/// enough (Θ(n⁴) result enumeration) that a tens-of-milliseconds
/// deadline always fires mid-join in a debug build.
fn dense_program(n: i64) -> String {
    let mut src = String::from(
        "relation R(a, b).
         Q(w, z) :- R(w, x), R(x, y), R(y, z).
         Small(x) :- R(x, x).\n",
    );
    for i in 0..n {
        for j in 0..n {
            src.push_str(&format!("R({i}, {j}).\n"));
        }
    }
    src
}

fn spawn(
    opts: ServeOptions,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".into(),
        batch_threads: 2,
        conn_workers: 6,
        ..opts
    })
    .unwrap()
}

#[test]
fn deadline_returns_structured_error_in_bounded_time() {
    let (addr, handle) = spawn(ServeOptions::default());
    let mut c = Client::connect(addr).unwrap();
    c.register("big", &dense_program(30)).unwrap();
    c.register("tiny", "relation S(a). P(x) :- S(x). S(1).")
        .unwrap();

    // A concurrent session keeps completing while the deadline-bound
    // eval burns its budget.
    let other = std::thread::spawn(move || {
        let mut c2 = Client::connect(addr).unwrap();
        for _ in 0..20 {
            let v = c2.eval("tiny", "P").unwrap();
            assert_eq!(v["count"], 1);
        }
    });

    let started = Instant::now();
    let err = c.eval_deadline("big", "Q", Some(50));
    let elapsed = started.elapsed();
    // Bounded: deadline plus queue wait plus the coalesced check
    // interval's reaction lag, with a generous debug-build margin —
    // nowhere near the seconds the full Θ(n⁴) join would take.
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline must bound the request, took {elapsed:?}"
    );
    match err {
        Err(ClientError::Server(msg)) => assert_eq!(msg, "deadline exceeded"),
        other => panic!("expected a deadline refusal, got {other:?}"),
    }
    // The structured shape: headline + detail + the deadline echoed.
    let raw = c
        .request(&Request::Eval {
            session: "big".into(),
            query: "Q".into(),
            deadline_ms: Some(50),
        })
        .unwrap();
    assert_eq!(raw["ok"], false);
    assert_eq!(raw["error"], "deadline exceeded");
    assert_eq!(raw["cancelled"], true);
    assert_eq!(raw["deadline_ms"], 50u64);
    assert!(raw["detail"].as_str().is_some_and(|d| !d.is_empty()));

    other.join().unwrap();

    // A deadline the work fits in still succeeds.
    let v = c.eval_deadline("big", "Small", Some(60_000)).unwrap();
    assert_eq!(v["count"], 30);

    let stats = c.stats().unwrap();
    let res = &stats["resilience"];
    assert!(
        res["deadline_exceeded"].as_u64().unwrap() >= 2,
        "both refusals counted: {res:?}"
    );
    assert!(
        res["deadline_overrun"]["count"].as_u64().unwrap() >= 3,
        "every deadline-carrying request records its overrun: {res:?}"
    );
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn expired_deadline_refuses_updates_all_or_nothing() {
    let (addr, handle) = spawn(ServeOptions::default());
    let mut c = Client::connect(addr).unwrap();
    c.register("s", "relation R(a, b). Q(x) :- R(x, y). R(1, 2).")
        .unwrap();
    let fact = |a: i64, b: i64| -> cqchase_service::FactSpec {
        (
            "R".into(),
            vec![cqchase_ir::Constant::Int(a), cqchase_ir::Constant::Int(b)],
        )
    };
    // deadline_ms:0 is expired on arrival: the update must be refused
    // before its commit point — never half-applied, never logged.
    match c.update_deadline("s", &[fact(3, 4)], &[fact(1, 2)], Some(0)) {
        Err(ClientError::Server(msg)) => assert_eq!(msg, "deadline exceeded"),
        other => panic!("expired update must be refused, got {other:?}"),
    }
    // Observable state is identical to never having submitted it.
    let v = c.eval("s", "Q").unwrap();
    assert_eq!(v["count"], 1);
    assert_eq!(v["rows"][0][0], "1");
    let cls = c.classify("s").unwrap();
    assert_eq!(cls["facts"], 1);
    assert_eq!(cls["facts_epoch"], 0u64);
    // The same update without the dead deadline applies normally.
    let u = c.update("s", &[fact(3, 4)], &[fact(1, 2)]).unwrap();
    assert_eq!(u["epoch"], 1u64);
    assert_eq!(c.eval("s", "Q").unwrap()["rows"][0][0], "3");
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn server_default_deadline_applies_to_hintless_requests() {
    let (addr, handle) = spawn(ServeOptions {
        default_deadline_ms: Some(40),
        ..Default::default()
    });
    let mut c = Client::connect(addr).unwrap();
    c.register("big", &dense_program(30)).unwrap();
    let raw = c
        .request(&Request::Eval {
            session: "big".into(),
            query: "Q".into(),
            deadline_ms: None,
        })
        .unwrap();
    assert_eq!(raw["ok"], false, "the server default must bound it");
    assert_eq!(raw["error"], "deadline exceeded");
    assert_eq!(raw["deadline_ms"], 40u64);
    // An explicit generous deadline overrides the default.
    let v = c.eval_deadline("big", "Small", Some(120_000)).unwrap();
    assert_eq!(v["count"], 30);
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn disconnect_mid_eval_cancels_the_work() {
    use std::io::Write;
    let (addr, handle) = spawn(ServeOptions::default());
    let mut admin = Client::connect(addr).unwrap();
    // Dense enough that the uncancelled join would run for many
    // seconds in a debug build — completion before the watcher's
    // ~20 ms poll is impossible.
    admin.register("big", &dense_program(40)).unwrap();

    let mut doomed = std::net::TcpStream::connect(addr).unwrap();
    doomed
        .write_all(b"{\"op\":\"eval\",\"session\":\"big\",\"query\":\"Q\"}\n")
        .unwrap();
    doomed.flush().unwrap();
    // Give the handler time to pick the line up and enter the engine,
    // then vanish without reading the reply.
    std::thread::sleep(Duration::from_millis(100));
    drop(doomed);

    // The watcher must fire the token and the engine must unwind; the
    // abandoned work's cancellation shows up in the counters.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = admin.stats().unwrap();
        if stats["resilience"]["cancelled_disconnect"]
            .as_u64()
            .unwrap()
            >= 1
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect was never detected: {:?}",
            stats["resilience"]
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    // The server is healthy and the session still answers.
    assert_eq!(admin.eval("big", "Small").unwrap()["count"], 40);
    admin.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn shedding_refuses_with_retry_hint_and_ping_stays_inline() {
    // Watermark 0: the queued verbs shed deterministically — admission
    // depth 0 is already "at" the watermark.
    let (addr, handle) = spawn(ServeOptions {
        shed_queue_depth: Some(0),
        ..Default::default()
    });
    let mut c = Client::connect(addr).unwrap();
    // Register is a handler-thread verb: never shed.
    c.register("s", "relation R(a). Q(x) :- R(x). R(1).")
        .unwrap();
    let raw = c
        .request(&Request::Eval {
            session: "s".into(),
            query: "Q".into(),
            deadline_ms: None,
        })
        .unwrap();
    assert_eq!(raw["ok"], false);
    assert_eq!(raw["shed"], true);
    assert!(raw["retry_after_ms"].as_u64().unwrap() > 0);
    assert!(raw["error"].as_str().unwrap().contains("server overloaded"));

    // The bounded retry helper backs off, honors the hint, and still
    // surfaces the refusal once retries are exhausted.
    let mut policy = RetryPolicy::new(2, 1, 20, 7);
    let started = Instant::now();
    match c.request_with_retry(
        &Request::Eval {
            session: "s".into(),
            query: "Q".into(),
            deadline_ms: None,
        },
        &mut policy,
    ) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("overloaded"), "{msg}"),
        other => panic!("persistent shedding must surface, got {other:?}"),
    }
    assert!(
        started.elapsed() >= Duration::from_millis(2),
        "retries must actually back off"
    );

    // Ping is answered inline — never queued, never shed — and reports
    // the shedding state.
    let p = c.ping().unwrap();
    assert_eq!(p["shedding"], true);
    assert!(p["shed_total"].as_u64().unwrap() >= 4, "{p:?}");
    assert_eq!(p["lanes"], cqchase_service::default_lanes());
    assert_eq!(p["sessions"], 1);
    assert_eq!(p["durability"], false);
    assert_eq!(p["recovery"], serde_json::Value::Null);
    assert!(p["uptime_s"].as_f64().unwrap() >= 0.0);

    let stats = c.stats().unwrap();
    assert!(stats["resilience"]["shed"].as_u64().unwrap() >= 4);
    assert_eq!(stats["server"]["shedding"], true);
    assert_eq!(stats["server"]["shed_queue_depth"], 0u64);
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn nesting_bomb_line_is_refused_and_the_server_survives() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle) = spawn(ServeOptions::default());
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    let mut replies = BufReader::new(conn.try_clone().unwrap());
    let mut read_reply = || {
        let mut line = String::new();
        replies.read_line(&mut line).unwrap();
        serde_json::from_str(&line).unwrap_or_else(|e| panic!("{e}: {line}"))
    };
    // 100k `[` bytes: far under the line cap, deep enough to overflow
    // a handler thread's stack if the JSON parser recursed unbounded.
    let mut bomb = "[".repeat(100_000);
    bomb.push('\n');
    conn.write_all(bomb.as_bytes()).unwrap();
    let v: serde_json::Value = read_reply();
    assert_eq!(v["ok"], false, "{v:?}");
    // The same connection, and the server, keep answering.
    conn.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let p: serde_json::Value = read_reply();
    assert_eq!(p["ok"], true, "{p:?}");
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.ping().unwrap()["ok"], true);
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn ping_works_on_an_unloaded_server() {
    let (addr, handle) = spawn(ServeOptions::default());
    let mut c = Client::connect(addr).unwrap();
    let p = c.ping().unwrap();
    assert_eq!(p["ok"], true);
    assert_eq!(p["op"], "ping");
    assert_eq!(p["shedding"], false);
    assert_eq!(p["shed_total"], 0u64);
    assert_eq!(p["sessions"], 0);
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}
