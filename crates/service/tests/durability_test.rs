//! Integration tests for the durability layer: restore fidelity over
//! fault-injected in-memory storage, the fsync-before-acknowledge
//! contract, corrupt-snapshot boot failures, and a full TCP
//! stop-the-process-and-restart round trip on real files.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cqchase_ir::Constant;
use cqchase_service::durable::{MemIo, StorageIo};
use cqchase_service::{
    Batcher, Client, ClientError, Durability, FactSpec, Metrics, Outcome, RecoveryReport,
    ServeOptions, Server, SessionRegistry, Work,
};

const BASE: &str = "relation R(a, b).
    ind R[2] <= R[1].
    Q0(x) :- R(x, y).
    Q1(x) :- R(x, y), R(y, z).
    Q2(x) :- R(y, x).
    Q3(x, z) :- R(x, y), R(y, z).";

const NUM_QUERIES: usize = 4;

fn fact(a: i64, b: i64) -> FactSpec {
    ("R".into(), vec![Constant::Int(a), Constant::Int(b)])
}

/// Opens a durability layer over the shared in-memory filesystem with a
/// fresh registry, panicking on any store error.
fn open(io: &Arc<MemIo>, dir: &Path) -> (Arc<Durability>, RecoveryReport, Arc<SessionRegistry>) {
    let registry = Arc::new(SessionRegistry::new());
    let (d, report) = Durability::open(
        Arc::clone(io) as Arc<dyn StorageIo>,
        dir,
        None,
        Arc::clone(&registry),
        64,
        64,
    )
    .expect("open durability");
    (Arc::new(d), report, registry)
}

/// Every query's rows plus the facts snapshot — the full observable
/// state of a session.
fn observe(session: &cqchase_service::Session) -> (Vec<Vec<cqchase_storage::Tuple>>, usize, u64) {
    let rows: Vec<_> = (0..NUM_QUERIES).map(|q| session.eval(q)).collect();
    let (facts, epoch) = session.facts_snapshot();
    (rows, facts, epoch)
}

#[test]
fn restored_registry_is_bit_identical() {
    let io = Arc::new(MemIo::new());
    let dir = Path::new("/data");

    // Boot 1: fresh directory, register, mutate.
    let (d1, report, registry1) = open(&io, dir);
    assert!(report.fresh);
    assert_eq!(report.snapshot_sessions, 0);
    let live = d1.register("live", BASE).expect("register");
    let results = d1.apply_updates(
        &live,
        &[
            (vec![fact(0, 1), fact(1, 2)], vec![]),
            (vec![fact(2, 0)], vec![fact(0, 1)]),
        ],
    );
    for r in &results {
        r.as_ref().expect("update applies");
    }
    let before = observe(&live);
    drop((d1, registry1));

    // Boot 2: nothing was snapshotted — everything comes from WAL
    // replay (one Register record, one Update record).
    let (d2, report, registry2) = open(&io, dir);
    assert!(!report.fresh);
    assert_eq!(report.snapshot_sessions, 0);
    assert_eq!(report.wal_records_replayed, 2);
    assert_eq!(report.torn_tail, None);
    let restored = registry2.get("live").expect("session restored");
    assert_eq!(
        observe(&restored),
        before,
        "WAL replay must be bit-identical"
    );

    // Force a snapshot, then boot 3 restores from it with an empty WAL.
    let (seq, sessions) = d2.persist().expect("persist");
    assert_eq!((seq, sessions), (1, 1));
    drop((d2, registry2));
    let (_d3, report, registry3) = open(&io, dir);
    assert_eq!(report.snapshot_sessions, 1);
    assert_eq!(report.wal_records_replayed, 0);
    let restored = registry3.get("live").expect("session restored");
    assert_eq!(
        observe(&restored),
        before,
        "snapshot restore must be bit-identical"
    );
}

#[test]
fn fsync_failure_refuses_the_mutation_and_applies_nothing() {
    let io = Arc::new(MemIo::new());
    let dir = Path::new("/data");
    let (d, _, registry) = open(&io, dir);
    let live = d.register("live", BASE).expect("register");
    let batcher = Batcher::new(1, Arc::new(Metrics::new())).with_durability(Arc::clone(&d));

    let submit = |insert: Vec<FactSpec>| {
        batcher
            .submit(Work::Update {
                session: Arc::clone(&live),
                insert,
                delete: vec![],
            })
            .expect("submit")
    };
    let Outcome::Update(Ok(_)) = submit(vec![fact(0, 1)]) else {
        panic!("baseline update should succeed");
    };
    let acknowledged = observe(&live);

    // With fsync broken, the update must come back as an error through
    // the admission queue — and the session must be untouched: a client
    // never hears `ok:true` for a change a restart would forget.
    io.set_fail_fsync(true);
    let out = submit(vec![fact(1, 2)]);
    let Outcome::Update(Err(msg)) = out else {
        panic!("update with failed fsync must error, got {out:?}");
    };
    assert!(
        msg.contains("update not persisted"),
        "error names the durability failure: {msg}"
    );
    assert_eq!(
        observe(&live),
        acknowledged,
        "failed update applied nothing"
    );

    // Registration under a failed fsync rolls back: no session remains.
    let err = d.register("other", BASE).expect_err("register must fail");
    assert!(
        err.contains("registration not persisted"),
        "error names the durability failure: {err}"
    );
    assert!(
        registry.get("other").is_err(),
        "rolled-back session is gone"
    );

    // Recovery sees exactly the acknowledged state, nothing more.
    io.set_fail_fsync(false);
    let (_, report, registry2) = open(&io, dir);
    assert_eq!(
        report.wal_records_replayed, 2,
        "register + one durable update"
    );
    let restored = registry2.get("live").expect("session restored");
    assert_eq!(observe(&restored), acknowledged);
    assert!(registry2.get("other").is_err());
}

#[test]
fn corrupt_snapshot_fails_boot_naming_file_and_offset() {
    let io = Arc::new(MemIo::new());
    let dir = Path::new("/data");
    let (d, _, _) = open(&io, dir);
    let live = d.register("live", BASE).expect("register");
    d.apply_updates(&live, &[(vec![fact(0, 1)], vec![])]);
    d.persist().expect("persist");
    drop(d);
    let snap = dir.join("snap-1");
    let good = io.dump(&snap).expect("snapshot exists");

    let open_err = |io: &Arc<MemIo>| {
        let registry = Arc::new(SessionRegistry::new());
        Durability::open(
            Arc::clone(io) as Arc<dyn StorageIo>,
            dir,
            None,
            registry,
            64,
            64,
        )
        .expect_err("corrupt snapshot must fail the boot")
        .to_string()
    };

    // A flipped payload byte: CRC mismatch at that record's offset.
    let mut bytes = good.clone();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    io.set_file(&snap, bytes);
    let msg = open_err(&io);
    assert!(msg.contains("snap-1"), "names the file: {msg}");
    assert!(msg.contains("corrupt at byte"), "names the offset: {msg}");
    assert!(msg.contains("crc mismatch"), "names the cause: {msg}");

    // A truncated snapshot (not a WAL — snapshots are atomic, so a
    // short one is damage, not a torn tail).
    io.set_file(&snap, good[..good.len() / 2].to_vec());
    let msg = open_err(&io);
    assert!(msg.contains("snap-1"), "names the file: {msg}");
    assert!(msg.contains("corrupt at byte"), "names the offset: {msg}");

    // A clobbered magic number.
    let mut bytes = good.clone();
    bytes[0] = b'X';
    io.set_file(&snap, bytes);
    let msg = open_err(&io);
    assert!(msg.contains("bad magic"), "names the cause: {msg}");

    // Intact bytes boot fine again.
    io.set_file(&snap, good);
    let registry = Arc::new(SessionRegistry::new());
    Durability::open(
        Arc::clone(&io) as Arc<dyn StorageIo>,
        dir,
        None,
        registry,
        64,
        64,
    )
    .expect("intact snapshot boots");
}

fn temp_data_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cqchase-service-{tag}-{}", std::process::id()))
}

fn spawn_with_dir(
    dir: &Path,
) -> (
    std::net::SocketAddr,
    Option<RecoveryReport>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".into(),
        data_dir: Some(dir.to_path_buf()),
        ..Default::default()
    })
    .expect("bind with data dir");
    let report = server.recovery_report().cloned();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, report, handle)
}

#[test]
fn server_restart_restores_sessions_over_tcp() {
    let dir = temp_data_dir("restart");
    let _ = std::fs::remove_dir_all(&dir);

    // Server 1: register, mutate, observe, shut down cleanly.
    let (addr, report, handle) = spawn_with_dir(&dir);
    assert_eq!(report.map(|r| r.fresh), Some(true));
    let mut c = Client::connect(addr).unwrap();
    c.register("live", BASE).unwrap();
    let up = c.update("live", &[fact(0, 1), fact(1, 2)], &[]).unwrap();
    assert_eq!(up["inserted"], 2);
    let epoch = up["epoch"].clone();
    let rows = c.eval("live", "Q1").unwrap()["rows"].clone();
    let stats = c.stats().unwrap();
    assert_eq!(stats["durability"]["enabled"], true);
    assert!(stats["durability"]["fsyncs"].as_u64().unwrap_or(0) > 0);
    let persisted = c.persist().unwrap();
    assert_eq!(persisted["sessions"], 1);
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    // Server 2 on the same directory: the session is back, answers and
    // epoch included, and stays fully usable.
    let (addr, report, handle) = spawn_with_dir(&dir);
    let report = report.expect("durability enabled");
    assert!(!report.fresh);
    assert_eq!(report.snapshot_sessions, 1);
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.eval("live", "Q1").unwrap()["rows"], rows);
    assert_eq!(c.classify("live").unwrap()["facts_epoch"], epoch);
    let up = c.update("live", &[fact(2, 0)], &[]).unwrap();
    assert_eq!(up["inserted"], 1);
    assert!(c
        .register("live", BASE)
        .expect_err("name survives restart")
        .to_string()
        .contains("already registered"));
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persist_without_data_dir_is_an_error_and_stats_say_disabled() {
    let (addr, handle) = Server::spawn(ServeOptions {
        addr: "127.0.0.1:0".into(),
        ..Default::default()
    })
    .unwrap();
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.stats().unwrap()["durability"]["enabled"], false);
    match c.persist() {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("data directory"), "{msg}");
        }
        other => panic!("persist without a data dir must fail, got {other:?}"),
    }
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn restart_with_lanes_restores_lane_placement_and_reattaches_catalogs() {
    use cqchase_service::lane_of;
    let dir = temp_data_dir("lanes-restart");
    let _ = std::fs::remove_dir_all(&dir);
    let spawn4 = |dir: &Path| {
        let server = Server::bind(ServeOptions {
            addr: "127.0.0.1:0".into(),
            lanes: 4,
            batch_threads: 4,
            data_dir: Some(dir.to_path_buf()),
            ..Default::default()
        })
        .expect("bind with data dir");
        let report = server.recovery_report().cloned();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        (addr, report, handle)
    };

    // Server 1: three tenants share the BASE catalog, one diverges by
    // updating (copy-on-write), one has its own facts. Snapshot, then
    // keep going so the WAL tail has a register and an update to
    // replay on top of the snapshot.
    let (addr, _, handle) = spawn4(&dir);
    let mut c = Client::connect(addr).unwrap();
    let solo_base = format!("{BASE}\nR(5, 5).");
    for name in ["shr-a", "shr-b", "shr-c", "mut"] {
        c.register(name, BASE).unwrap();
    }
    c.register("solo", &solo_base).unwrap();
    c.update("mut", &[fact(0, 1), fact(1, 2)], &[]).unwrap();
    c.persist().unwrap();
    c.register("late", BASE).unwrap();
    c.update("mut", &[fact(2, 0)], &[]).unwrap();
    let names = ["shr-a", "shr-b", "shr-c", "mut", "solo", "late"];
    let before: Vec<_> = names
        .iter()
        .map(|n| {
            (
                c.eval(n, "Q1").unwrap()["rows"].clone(),
                c.classify(n).unwrap()["facts_epoch"].clone(),
            )
        })
        .collect();
    assert_eq!(c.stats().unwrap()["catalogs"]["distinct"], 2);
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    // Server 2, same --lanes 4: every session hashes back into its
    // lane (routing is a pure function of the name), the three
    // undiverged BASE tenants plus the late register re-attach to ONE
    // rebuilt catalog, and the diverged/singleton sessions come back
    // private — same answers, same epochs, no shared-base copies
    // pinned for sessions that no longer match it.
    let (addr, report, handle) = spawn4(&dir);
    let report = report.expect("durability enabled");
    assert!(!report.fresh);
    assert_eq!(report.snapshot_sessions, 5);
    assert_eq!(report.wal_records_replayed, 2);
    let mut c = Client::connect(addr).unwrap();
    for (n, (rows, epoch)) in names.iter().zip(&before) {
        assert_eq!(&c.eval(n, "Q1").unwrap()["rows"], rows, "{n} rows");
        assert_eq!(&c.classify(n).unwrap()["facts_epoch"], epoch, "{n} epoch");
    }
    let stats = c.stats().unwrap();
    let cat = &stats["catalogs"];
    assert_eq!(
        cat["distinct"], 1,
        "only the shared group re-registers: {cat:?}"
    );
    assert_eq!(cat["builds"], 1, "one rebuild serves the group: {cat:?}");
    assert_eq!(
        cat["attaches"], 3,
        "two snapshot siblings + the late register attach: {cat:?}"
    );
    let detail = &stats["sessions_detail"];
    for n in names {
        assert_eq!(
            detail[n]["lane"].as_u64().unwrap() as usize,
            lane_of(n, 4),
            "{n} restored into its deterministic lane"
        );
    }
    for n in ["shr-a", "shr-b", "shr-c", "late"] {
        assert_eq!(detail[n]["shared_catalog"], true, "{n} re-attached");
    }
    for n in ["mut", "solo"] {
        assert_eq!(detail[n]["shared_catalog"], false, "{n} restored private");
    }
    // The restored registry still serves updates in every lane.
    for n in names {
        assert_eq!(c.update(n, &[fact(8, 9)], &[]).unwrap()["inserted"], 1);
    }
    c.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `R(a, b)` program with the chain query `Q(x0) :- R(x0, x1), …` of
/// `n` atoms.
fn chain_program(n: usize) -> String {
    let atoms: Vec<String> = (0..n).map(|i| format!("R(x{i}, x{})", i + 1)).collect();
    format!("relation R(a, b). Q(x0) :- {}.", atoms.join(", "))
}

#[test]
fn recovery_refuses_an_over_cap_session_logged_before_the_cap() {
    use cqchase_durability::{Store, WalRecord, DEFAULT_ROTATE_BYTES};
    use cqchase_service::MAX_QUERY_ATOMS;

    let io = Arc::new(MemIo::new());
    let dir = Path::new("/data");
    // A WAL as a server without the cap would have written it: an
    // over-cap registration and an update to it, between the records of
    // an ordinary session.
    {
        let (store, _) = Store::open(
            Arc::clone(&io) as Arc<dyn StorageIo>,
            dir,
            DEFAULT_ROTATE_BYTES,
        )
        .unwrap();
        let register = |name: &str, program: String| WalRecord::Register {
            name: name.into(),
            program,
        };
        let update = |session: &str| WalRecord::Update {
            session: session.into(),
            deltas: vec![(
                vec![("R".into(), vec![Constant::Int(1), Constant::Int(2)])],
                vec![],
            )],
        };
        store.log(&register("small", BASE.into())).unwrap();
        store
            .log(&register("big", chain_program(MAX_QUERY_ATOMS + 1)))
            .unwrap();
        store.log(&update("big")).unwrap();
        store.log(&update("small")).unwrap();
    }

    // Boot does not abort: the big session is refused and reported,
    // its update skipped, and the small one fully replayed.
    let (d, report, registry) = open(&io, dir);
    assert_eq!(report.refused_sessions.len(), 1, "{report:?}");
    let reason = &report.refused_sessions[0];
    assert!(
        reason.contains("`big`") && reason.contains(&format!("cap is {MAX_QUERY_ATOMS}")),
        "{reason}"
    );
    assert!(registry.get("big").is_err());
    assert_eq!(registry.get("small").unwrap().facts_snapshot().0, 1);

    // The name is free again, and a new registration of it replays
    // with its later updates after the refused incarnation.
    let big = d.register("big", BASE).expect("register under the cap");
    d.apply_updates(&big, &[(vec![fact(5, 6)], vec![])])[0]
        .as_ref()
        .expect("update applies");
    drop((d, registry));
    let (_, report, registry) = open(&io, dir);
    assert_eq!(report.refused_sessions.len(), 1, "{report:?}");
    assert_eq!(registry.get("big").unwrap().facts_snapshot().0, 1);
}
