//! The service-side durability layer: converts live [`Session`]s to and
//! from the plain records of `cqchase-durability`, and owns the
//! acknowledgement protocol — **nothing is reported done until its WAL
//! record is fsync'd**.
//!
//! Ordering guarantees, all enforced under one `gate` RwLock:
//!
//! * *register-before-update*: a session's `Register` record is durable
//!   before any of its `Update` records can be logged, so replay never
//!   meets an update for an unknown session;
//! * *register acknowledgement*: a registration whose record cannot be
//!   made durable is rolled back out of the registry and reported as an
//!   error — the client must not believe in a session a restart forgets;
//! * *update acknowledgement*: an update batch's valid deltas are
//!   logged (and fsync'd) first, then applied; a log failure reports
//!   every valid delta as an error and applies nothing;
//! * *snapshot consistency*: a snapshot is rendered and installed with
//!   no log/apply in flight, so rotation can delete the old WAL without
//!   losing an acknowledged update that missed the snapshot.
//!
//! Registrations and updates hold the gate **shared** — independent
//! sessions' mutations overlap (their WAL appends still serialize on
//! the store's internal lock, but validation and the in-memory apply
//! run concurrently); only snapshot rotation takes it exclusively, as
//! the one operation that must see no log/apply in flight. Correctness
//! of shared-mode updates rests on a caller contract: updates to the
//! *same* session must be submitted serially, so WAL order and apply
//! order agree per session — records of different sessions commute on
//! replay. The admission queue guarantees this even with N sharded
//! lanes: a session's name hashes it onto exactly one lane
//! ([`crate::lanes::lane_of`]), so all its updates flow through that
//! lane's single batch leader; the N leaders only ever interleave
//! *different* sessions' records.
//!
//! Sessions rebuilt here attach to shared catalogs: WAL `Register`
//! replay goes through the [`CatalogRegistry`], and snapshot restore
//! groups records by catalog identity so sessions that snapshotted
//! identical programs re-share one base after recovery exactly as they
//! did before the crash (a session whose facts had diverged gets a
//! private build — sharing a base no other tenant wants would just
//! double its memory).
//!
//! The gate serializes mutation *durability*, not reads: `check`/`eval`
//! traffic never touches it, and the per-session coalescing of the
//! admission queue still batches adjacent updates into one WAL record.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

use cqchase_durability::{
    Recovered, SessionRecord, Store, StoreError, UpdateDelta, WalRecord, DEFAULT_ROTATE_BYTES,
};
use cqchase_ir::{parse_program, Program};
use cqchase_obs::{SpanKind, Tracer};
use serde_json::{Map, Value};

use crate::catalog::{catalog_key, program_schema_text, CatalogRegistry};
use crate::proto::FactSpec;
use crate::session::{Session, SessionRegistry, UpdateSummary};

pub use cqchase_durability::{MemIo, StdIo, StorageIo};

/// What recovery found and rebuilt, reported once at boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sessions restored from the snapshot.
    pub snapshot_sessions: usize,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: usize,
    /// Description of a torn WAL tail that was truncated away, if any.
    pub torn_tail: Option<String>,
    /// True when the data directory held no prior state.
    pub fresh: bool,
}

impl RecoveryReport {
    /// The report as one structured JSON object — logged as a single
    /// line at boot so recovery outcomes are machine-grepable.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("event".into(), Value::from("recovery"));
        m.insert(
            "snapshot_sessions".into(),
            Value::from(self.snapshot_sessions),
        );
        m.insert(
            "wal_records_replayed".into(),
            Value::from(self.wal_records_replayed),
        );
        m.insert("fresh".into(), Value::from(self.fresh));
        m.insert(
            "torn_tail".into(),
            match &self.torn_tail {
                Some(t) => Value::from(t.as_str()),
                None => Value::Null,
            },
        );
        Value::Object(m)
    }
}

/// Durable session persistence wired over a [`SessionRegistry`].
#[derive(Debug)]
pub struct Durability {
    store: Store,
    registry: Arc<SessionRegistry>,
    sem_cache_capacity: usize,
    plan_cache_capacity: usize,
    /// The catalog table sessions attach to — both live registrations
    /// and recovery replays route through it, so sessions over the same
    /// program share one frozen catalog across restarts too.
    catalogs: Arc<CatalogRegistry>,
    /// Names whose registration is durable (in the snapshot or a logged
    /// `Register` record). `log_update` refuses anything else, which is
    /// what makes replay order register-before-update airtight.
    logged: Mutex<HashSet<String>>,
    /// Excludes snapshotting (exclusive) from in-flight registrations
    /// and durable updates (shared) — see the module docs for the
    /// ordering story and the per-session serialization contract.
    gate: RwLock<()>,
}

/// Freezes a live session into a snapshot record. The facts lock is
/// held shared for the whole render, so the facts and their epoch are
/// one consistent cut. The schema text comes from the same canonical
/// renderer catalog identity uses ([`program_schema_text`]), so a
/// restored session re-keys onto the catalog it shared before.
fn render_session(session: &Session) -> SessionRecord {
    let cat = &session.program().catalog;
    let facts = session.facts.read().expect("facts lock");
    let mut relations = Vec::new();
    for rel in cat.rel_ids() {
        let rows: Vec<Vec<cqchase_ir::Constant>> = facts
            .index()
            .tuples(rel)
            .map(|t| {
                t.into_iter()
                    .map(|v| match v {
                        cqchase_storage::Value::Const(c) => c,
                        cqchase_storage::Value::Null(_) => {
                            unreachable!("session facts are ground")
                        }
                    })
                    .collect()
            })
            .collect();
        if !rows.is_empty() {
            relations.push((cat.name(rel).to_owned(), rows));
        }
    }
    SessionRecord {
        name: session.name.clone(),
        schema: program_schema_text(session.program()),
        epoch: facts.epoch,
        relations,
    }
}

/// Re-parses a snapshot record into a program: schema text through the
/// parser, binary facts attached.
fn restore_program(rec: &SessionRecord) -> Result<Program, String> {
    let mut program = parse_program(&rec.schema).map_err(|e| e.to_string())?;
    let mut facts = Vec::new();
    for (rel, rows) in &rec.relations {
        let id = program
            .catalog
            .resolve(rel)
            .ok_or_else(|| format!("snapshot facts name unknown relation `{rel}`"))?;
        for row in rows {
            facts.push((id, row.clone()));
        }
    }
    program.facts = facts;
    Ok(program)
}

impl Durability {
    /// Opens a data directory, replays its state into `registry`, and
    /// returns the durability layer plus a boot report. Corruption
    /// anywhere but a torn WAL tail fails the boot.
    pub fn open(
        io: Arc<dyn StorageIo>,
        dir: &Path,
        wal_rotate_bytes: Option<u64>,
        registry: Arc<SessionRegistry>,
        sem_cache_capacity: usize,
        plan_cache_capacity: usize,
    ) -> Result<(Durability, RecoveryReport), StoreError> {
        let rotate = wal_rotate_bytes.unwrap_or(DEFAULT_ROTATE_BYTES);
        let (store, recovered) = Store::open(io, dir, rotate)?;
        let corrupt = |file: &str, reason: String| StoreError::Corrupt {
            file: dir.join(file),
            offset: 0,
            reason,
        };
        let Recovered {
            sessions,
            wal,
            seq,
            torn_tail,
        } = recovered;
        let fresh = sessions.is_empty() && wal.is_empty() && seq == 0;

        let catalogs = Arc::new(CatalogRegistry::new(plan_cache_capacity));
        let snapshot_sessions = sessions.len();
        let mut logged = HashSet::new();
        // Restore in two passes: parse every record, group by catalog
        // identity, then share one frozen catalog among the groups of
        // two or more. A session whose facts diverged from everyone
        // else's gets a plain private build — parking its base in the
        // registry would hold a second copy resident after its next
        // update promotes it.
        let mut programs = Vec::with_capacity(sessions.len());
        let mut key_counts: HashMap<String, usize> = HashMap::new();
        for rec in &sessions {
            let program = restore_program(rec).map_err(|e| {
                corrupt(
                    &format!("snap-{seq}"),
                    format!("session `{}`: {e}", rec.name),
                )
            })?;
            *key_counts.entry(catalog_key(&program)).or_insert(0) += 1;
            programs.push(program);
        }
        for (rec, program) in sessions.iter().zip(programs) {
            let shared = key_counts[&catalog_key(&program)] > 1;
            let session = if shared {
                catalogs.session_from_program(
                    &rec.name,
                    program,
                    sem_cache_capacity,
                    plan_cache_capacity,
                )
            } else {
                Session::from_program(&rec.name, program, sem_cache_capacity, plan_cache_capacity)
            }
            .map_err(|e| {
                corrupt(
                    &format!("snap-{seq}"),
                    format!("session `{}`: {e}", rec.name),
                )
            })?;
            // Answers must be bit-identical to the pre-crash session,
            // and the epoch is part of observable state (update
            // summaries, stats).
            session.facts.write().expect("facts lock").epoch = rec.epoch;
            registry
                .insert_new(session)
                .map_err(|e| corrupt(&format!("snap-{seq}"), e))?;
            logged.insert(rec.name.clone());
        }

        let wal_file = format!("wal-{seq}");
        let wal_records_replayed = wal.len();
        for rec in wal {
            match rec {
                WalRecord::Register { name, program } => {
                    // A duplicate Register (snapshot already has the
                    // session) is the benign race of a registration
                    // logged just after a snapshot rendered it.
                    if registry.check_free(&name).is_ok() {
                        let session = catalogs
                            .session_from_source(
                                &name,
                                &program,
                                sem_cache_capacity,
                                plan_cache_capacity,
                            )
                            .map_err(|e| {
                                corrupt(&wal_file, format!("replaying register `{name}`: {e}"))
                            })?;
                        registry
                            .insert_new(session)
                            .map_err(|e| corrupt(&wal_file, e))?;
                    }
                    logged.insert(name);
                }
                WalRecord::Update { session, deltas } => {
                    let s = registry.get(&session).map_err(|e| {
                        corrupt(
                            &wal_file,
                            format!("replaying update: {e} (wal out of order)"),
                        )
                    })?;
                    for result in s.apply_updates(&deltas) {
                        result.map_err(|e| {
                            corrupt(&wal_file, format!("replaying update for `{session}`: {e}"))
                        })?;
                    }
                }
            }
        }

        let durability = Durability {
            store,
            registry,
            sem_cache_capacity,
            plan_cache_capacity,
            catalogs,
            logged: Mutex::new(logged),
            gate: RwLock::new(()),
        };
        let report = RecoveryReport {
            snapshot_sessions,
            wal_records_replayed,
            torn_tail,
            fresh,
        };
        Ok((durability, report))
    }

    /// Records the WAL append + fsync of `record` as a [`SpanKind::Fsync`]
    /// span on every trace id, when tracing is active.
    fn log_spanned(
        &self,
        record: &WalRecord,
        trace: Option<(&Tracer, &[u64])>,
    ) -> Result<(), StoreError> {
        let start = trace.map(|(t, _)| t.now_us());
        let result = self.store.log(record);
        if let (Some((tracer, ids)), Some(start)) = (trace, start) {
            let end = tracer.now_us();
            for &id in ids {
                tracer.record(id, SpanKind::Fsync, start, end);
            }
        }
        result
    }

    /// Registers a session durably: builds it, inserts it, and logs the
    /// `Register` record — rolling the insertion back if the record
    /// cannot be fsync'd, so a successful reply survives a restart and
    /// a failed one leaves no session behind.
    pub fn register(&self, name: &str, program: &str) -> Result<Arc<Session>, String> {
        self.register_traced(name, program, None)
    }

    /// [`Durability::register`] with the WAL fsync recorded as a span on
    /// the request's trace id when tracing is active.
    pub(crate) fn register_traced(
        &self,
        name: &str,
        program: &str,
        trace: Option<(&Tracer, u64)>,
    ) -> Result<Arc<Session>, String> {
        // Fail fast and build outside the gate: parsing and index
        // construction are the expensive part (or an instant catalog
        // attach), and `insert_new` stays the atomic arbiter for name
        // races.
        self.registry.check_free(name)?;
        let session = self.catalogs.session_from_source(
            name,
            program,
            self.sem_cache_capacity,
            self.plan_cache_capacity,
        )?;
        let _gate = self.gate.read().expect("durability gate");
        let arc = self.registry.insert_new(session)?;
        let record = WalRecord::Register {
            name: name.to_owned(),
            program: program.to_owned(),
        };
        let ids = trace.map(|(_, id)| [id]);
        let span = match (&trace, &ids) {
            (Some((t, _)), Some(ids)) => Some((*t, &ids[..])),
            _ => None,
        };
        if let Err(e) = self.log_spanned(&record, span) {
            self.registry.remove(name);
            return Err(format!("registration not persisted: {e}"));
        }
        self.logged
            .lock()
            .expect("durability logged set")
            .insert(name.to_owned());
        drop(_gate);
        self.maybe_rotate();
        Ok(arc)
    }

    /// Applies an update batch durably: validates each delta as
    /// [`Session::apply_updates`] will, logs the valid subset as one
    /// WAL record, fsyncs, and only then applies — so every summary
    /// handed back describes a change a restart will reproduce. When
    /// the record cannot be made durable, every valid delta reports the
    /// log error and **nothing** is applied.
    ///
    /// Callers must not invoke this concurrently for the **same**
    /// session (the admission queue's single batch leader guarantees
    /// this): concurrent same-session batches could log in one order
    /// and apply in another, making replay diverge from the live
    /// session. Different sessions may update concurrently.
    pub fn apply_updates(
        &self,
        session: &Session,
        deltas: &[(Vec<FactSpec>, Vec<FactSpec>)],
    ) -> Vec<Result<UpdateSummary, String>> {
        self.apply_updates_traced(session, deltas, None)
    }

    /// [`Durability::apply_updates`] with the WAL fsync recorded as a
    /// [`SpanKind::Fsync`] span on every waiter's trace id (a coalesced
    /// update run logs once; every rider shares the wait).
    pub(crate) fn apply_updates_traced(
        &self,
        session: &Session,
        deltas: &[(Vec<FactSpec>, Vec<FactSpec>)],
        trace: Option<(&Tracer, &[u64])>,
    ) -> Vec<Result<UpdateSummary, String>> {
        let gate = self.gate.read().expect("durability gate");
        if !self
            .logged
            .lock()
            .expect("durability logged set")
            .contains(&session.name)
        {
            // Unreachable through the server (every registered session
            // was logged), but the invariant is what keeps the WAL
            // replayable — refuse rather than corrupt.
            let err = format!("session `{}` is not durably registered", session.name);
            return deltas.iter().map(|_| Err(err.clone())).collect();
        }
        let valid: Vec<bool> = deltas
            .iter()
            .map(|(insert, delete)| session.validate_update(insert, delete).is_ok())
            .collect();
        let durable_deltas: Vec<UpdateDelta> = deltas
            .iter()
            .zip(&valid)
            .filter(|(_, ok)| **ok)
            .map(|((insert, delete), _)| (insert.clone(), delete.clone()))
            .collect();
        if !durable_deltas.is_empty() {
            let record = WalRecord::Update {
                session: session.name.clone(),
                deltas: durable_deltas,
            };
            if let Err(e) = self.log_spanned(&record, trace) {
                // Nothing applies: report the log failure on every
                // delta that would have applied, and plain validation
                // errors on the rest.
                let log_err = format!("update not persisted: {e}");
                return deltas
                    .iter()
                    .zip(&valid)
                    .map(|((insert, delete), ok)| {
                        if *ok {
                            Err(log_err.clone())
                        } else {
                            Err(session
                                .validate_update(insert, delete)
                                .expect_err("delta failed validation above"))
                        }
                    })
                    .collect();
            }
        }
        let out = session.apply_updates(deltas);
        drop(gate);
        self.maybe_rotate();
        out
    }

    /// The catalog table this durability layer attaches sessions to —
    /// the server shares it so the durable and non-durable register
    /// paths agree on catalog identity.
    pub fn catalogs(&self) -> &Arc<CatalogRegistry> {
        &self.catalogs
    }

    /// Forces a snapshot of every registered session, rotating the WAL.
    /// Returns `(sequence number, sessions snapshotted)`.
    pub fn persist(&self) -> Result<(u64, usize), String> {
        let _gate = self.gate.write().expect("durability gate");
        self.persist_locked()
    }

    fn persist_locked(&self) -> Result<(u64, usize), String> {
        let sessions = self.registry.snapshot();
        let records: Vec<SessionRecord> = sessions.iter().map(|s| render_session(s)).collect();
        self.store
            .install_snapshot(&records)
            .map_err(|e| format!("snapshot not persisted: {e}"))?;
        // Post-rotation, the snapshot itself is every session's
        // durable registration.
        *self.logged.lock().expect("durability logged set") =
            records.iter().map(|r| r.name.clone()).collect();
        Ok((self.store.seq(), records.len()))
    }

    /// Rotates the WAL into a fresh snapshot once it outgrows the
    /// threshold (or was poisoned by a failed rollback). Best-effort:
    /// the next mutation retries on failure.
    fn maybe_rotate(&self) {
        if self.store.should_rotate() {
            let _gate = self.gate.write().expect("durability gate");
            if self.store.should_rotate() {
                let _ = self.persist_locked();
            }
        }
    }

    /// The `durability` block of the `stats` response.
    pub fn stats_block(&self) -> Value {
        let stats = self.store.stats();
        let mut m = Map::new();
        m.insert("enabled".into(), Value::from(true));
        m.insert("seq".into(), Value::from(self.store.seq()));
        m.insert(
            "snapshots_written".into(),
            Value::from(stats.snapshots_written()),
        );
        m.insert("wal_records".into(), Value::from(stats.wal_records()));
        m.insert("wal_bytes".into(), Value::from(stats.wal_bytes()));
        m.insert("wal_len".into(), Value::from(self.store.wal_len()));
        m.insert("fsyncs".into(), Value::from(stats.fsyncs()));
        m.insert("fsync_total_us".into(), Value::from(stats.fsync_total_us()));
        m.insert(
            "fsync_histogram_us_pow2".into(),
            Value::Array(
                stats
                    .fsync_histogram()
                    .iter()
                    .map(|&c| Value::from(c))
                    .collect(),
            ),
        );
        m.insert("recoveries".into(), Value::from(stats.recoveries()));
        m.insert(
            "torn_tails_discarded".into(),
            Value::from(stats.torn_tails_discarded()),
        );
        Value::Object(m)
    }

    /// The stats placeholder when the server runs without a data dir.
    pub fn disabled_stats_block() -> Value {
        let mut m = Map::new();
        m.insert("enabled".into(), Value::from(false));
        Value::Object(m)
    }
}
