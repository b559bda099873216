//! Lane-sharding acceptance tests over a real loopback TCP server:
//! churn in one lane stays out of another lane's queue (the isolation
//! contract sharding exists for), duplicate registrations racing onto
//! the same lane resolve to exactly one winner, and catalog sharing is
//! visible end to end through `stats`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use cqchase_service::{lane_of, Client, FactSpec, ServeOptions, Server};

const PROGRAM: &str = "relation R(a, b).
    ind R[2] <= R[1].
    A(x) :- R(x, y).
    B(x) :- R(x, y), R(y, z).
    R(0, 1). R(1, 2). R(2, 3).";

fn fact(a: i64, b: i64) -> FactSpec {
    (
        "R".into(),
        vec![cqchase_ir::Constant::Int(a), cqchase_ir::Constant::Int(b)],
    )
}

/// Finds a session name hashing to `lane` out of `lanes`.
fn name_in_lane(lane: usize, lanes: usize) -> String {
    (0..)
        .map(|i| format!("tenant-{i}"))
        .find(|n| lane_of(n, lanes) == lane)
        .expect("some name hashes to every lane")
}

#[test]
fn churn_in_one_lane_stays_out_of_the_other() {
    let (addr, handle) = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".into(),
        batch_threads: 2,
        lanes: 2,
        conn_workers: 4,
        ..Default::default()
    })
    .unwrap();
    let churn_name = name_in_lane(0, 2);
    let quiet_name = name_in_lane(1, 2);

    let mut c = Client::connect(addr).unwrap();
    c.register(&churn_name, PROGRAM).unwrap();
    c.register(&quiet_name, PROGRAM).unwrap();

    // Lane 0: a churn client hammering updates. Lane 1: a quiet client
    // running evals concurrently. If routing leaked, lane 1's shard
    // would show the updates' barrier traffic.
    const CHURN_UPDATES: usize = 60;
    const QUIET_EVALS: usize = 40;
    let churn = {
        let churn_name = churn_name.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for i in 0..CHURN_UPDATES {
                let t = 100 + i as i64;
                c.update(&churn_name, &[fact(t, t + 1)], &[fact(t - 1, t)])
                    .unwrap();
            }
        })
    };
    let mut quiet = Client::connect(addr).unwrap();
    for _ in 0..QUIET_EVALS {
        quiet.eval(&quiet_name, "B").unwrap();
    }
    churn.join().unwrap();

    let stats = c.stats().unwrap();
    assert_eq!(stats["lanes"]["count"], 2, "two lane shards exposed");
    let lane0 = &stats["lanes"]["detail"]["0"];
    let lane1 = &stats["lanes"]["detail"]["1"];
    // Lane 0 carried all the update churn…
    assert!(
        lane0["batched_items"].as_u64().unwrap() >= CHURN_UPDATES as u64,
        "churn lane batched its updates: {lane0:?}"
    );
    // …and none of it crossed into lane 1: no update ever entered the
    // quiet lane's queue, so its update-coalescing and barrier counters
    // never move.
    assert_eq!(
        lane1["updates_coalesced"], 0,
        "no update coalescing in the quiet lane: {lane1:?}"
    );
    assert_eq!(
        lane1["barrier_flushes"], 0,
        "no update barriers in the quiet lane: {lane1:?}"
    );
    // The quiet lane saw exactly its own evals.
    assert_eq!(
        lane1["batched_items"].as_u64().unwrap(),
        QUIET_EVALS as u64,
        "quiet lane batched exactly its evals: {lane1:?}"
    );
    assert_eq!(
        lane1["queue_wait"]["count"].as_u64().unwrap(),
        QUIET_EVALS as u64,
        "every quiet item's admission wait was recorded: {lane1:?}"
    );
    // Generous wall-clock sanity (structural assertions above are the
    // real isolation check — this only catches a quiet lane that was
    // actually stuck behind the churn's barriers): the quiet lane's
    // median admission wait stays far under the seconds a serialized
    // 60-update churn run would impose.
    let p50 = lane1["queue_wait"]["p50_us"].as_u64().unwrap();
    assert!(
        p50 < 1_000_000,
        "quiet lane p50 admission wait {p50}µs suggests cross-lane stalls"
    );
    // Queues drained: both gauges are back to zero.
    assert_eq!(lane0["queue_depth"], 0);
    assert_eq!(lane1["queue_depth"], 0);
    // The global aggregate is the sum of the shards.
    let total = stats["batching"]["batched_items"].as_u64().unwrap();
    assert_eq!(
        total,
        lane0["batched_items"].as_u64().unwrap() + lane1["batched_items"].as_u64().unwrap(),
        "lane shards sum to the global batched_items"
    );

    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn duplicate_registers_race_to_one_winner_in_one_lane() {
    let (addr, handle) = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".into(),
        batch_threads: 2,
        lanes: 4,
        conn_workers: 4,
        ..Default::default()
    })
    .unwrap();
    // Both racers target the same name — same lane by construction —
    // so the loser must get the explicit duplicate error, never a
    // silent replacement or a second session.
    let name = "raced";
    let wins = Arc::new(AtomicUsize::new(0));
    let losses = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(2));
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let (wins, losses, barrier) =
                (Arc::clone(&wins), Arc::clone(&losses), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                barrier.wait();
                match c.register(name, PROGRAM) {
                    Ok(v) => {
                        assert_eq!(
                            v["lane"].as_u64().unwrap() as usize,
                            lane_of(name, 4),
                            "winner reports its deterministic lane"
                        );
                        wins.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => {
                        assert!(
                            e.to_string().contains("already"),
                            "loser gets the duplicate-name error, got: {e}"
                        );
                        losses.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
        })
        .collect();
    for r in racers {
        r.join().unwrap();
    }
    assert_eq!(wins.load(Ordering::SeqCst), 1, "exactly one winner");
    assert_eq!(losses.load(Ordering::SeqCst), 1, "exactly one loser");
    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    let sessions: Vec<&str> = stats["sessions"]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap())
        .collect();
    assert_eq!(sessions, vec![name], "one session resident");
    // The survivor still serves.
    assert_eq!(c.eval(name, "A").unwrap()["ok"], true);
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn catalog_sharing_is_visible_in_stats() {
    let (addr, handle) = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".into(),
        batch_threads: 1,
        lanes: 2,
        ..Default::default()
    })
    .unwrap();
    let mut c = Client::connect(addr).unwrap();
    // Three tenants on one program text (one build, two attaches), a
    // fourth on different facts (its own catalog).
    let r1 = c.register("share-a", PROGRAM).unwrap();
    assert_eq!(r1["shared"], true, "attached to the registry catalog");
    c.register("share-b", PROGRAM).unwrap();
    c.register("share-c", PROGRAM).unwrap();
    c.register("loner", &format!("{PROGRAM} R(7, 7).")).unwrap();

    let stats = c.stats().unwrap();
    let cat = &stats["catalogs"];
    assert_eq!(cat["distinct"], 2, "two frozen catalogs: {cat:?}");
    assert_eq!(cat["builds"], 2, "each text built once: {cat:?}");
    assert_eq!(cat["attaches"], 2, "two registrations deduped: {cat:?}");
    assert_eq!(cat["promotions"], 0, "no update yet: {cat:?}");
    assert!(
        cat["shared_resident_bytes"].as_u64().unwrap() > 0,
        "the shared bases are accounted: {cat:?}"
    );

    // One tenant updates: it promotes off the base, siblings unmoved.
    c.update("share-b", &[fact(9, 9)], &[]).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats["catalogs"]["promotions"], 1);
    let detail = &stats["sessions_detail"];
    assert_eq!(detail["share-a"]["shared_catalog"], true);
    assert_eq!(detail["share-b"]["shared_catalog"], false);
    assert_eq!(detail["share-c"]["shared_catalog"], true);
    // Sibling answers diverge exactly by the update.
    assert_eq!(c.eval("share-b", "A").unwrap()["count"], 4);
    assert_eq!(c.eval("share-a", "A").unwrap()["count"], 3);
    // Per-entry lane labels match the routing function.
    for name in ["share-a", "share-b", "share-c", "loner"] {
        assert_eq!(
            detail[name]["lane"].as_u64().unwrap() as usize,
            lane_of(name, 2),
            "stats lane label for {name}"
        );
    }
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}
