//! A session: the warm, resident state one `register` request builds
//! and many `update`/`check`/`eval` requests reuse.
//!
//! This is the whole point of running a server instead of linking the
//! library: the catalog, Σ, its classification and fingerprint, the
//! ground facts' [`DbIndex`] (interned symbols + column posting lists),
//! a bounded [`PlanCache`](cqchase_index::PlanCache) of compiled
//! evaluation plans, and the semantic containment cache are all built
//! once at registration and then served hot. The facts-independent part — program, Σ,
//! classification, fingerprint — lives in a refcounted
//! [`FrozenCatalog`]. The facts-dependent part — the index holding the
//! facts and the plan cache compiled against it — is one [`Facts`]
//! value behind an `Arc`. Sessions registering the same program
//! **attach** to one catalog and one base `Facts` instead of
//! rebuilding; a library/test session builds both for itself.
//!
//! The facts are live: [`Session::apply_update`] applies insert/delete
//! deltas through the incremental index maintenance of [`DbIndex`]
//! under a facts [`RwLock`], bumping a *facts epoch* that invalidates
//! exactly the eval-dependent state:
//!
//! * cached eval rows (epoch-tagged) are dropped;
//! * cached "unsatisfiable" plans are dropped when an insert interns a
//!   brand-new constant (satisfiable plans embed stable symbols and
//!   survive — the pool is append-only, even across compaction);
//! * containment answers (the semantic cache) and compiled plans are
//!   facts-independent and survive untouched.
//!
//! A session's facts are **shared** exactly while its `Arc<Facts>` is
//! not unique. The first *effective* update promotes copy-on-write
//! through `Arc::make_mut`: the index and warm plans are cloned into a
//! private value and mutated there, invisibly to the other holders. No-op updates (deltas the shared facts already
//! satisfy) report zero-effect summaries without promoting.
//!
//! Any number of connection threads share a session (`Arc<Session>`);
//! readers take the facts lock shared, updates take it exclusively —
//! and a run of adjacent updates drained from the admission queue
//! applies through one [`Session::apply_updates`] call: one write-lock
//! acquisition, one epoch bump, per-delta summaries. Lock order is
//! `facts` before `eval_state` before the facts' plan cache, everywhere.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use cqchase_core::{ContainmentOptions, SigmaClass};
use cqchase_index::{CancelToken, CompiledQuery, ExecStats, FxHashMap, JoinScratch, PlanLookup};
use cqchase_ir::{parse_program, ConjunctiveQuery, Program, RelId};
use cqchase_obs::{SpanKind, Tracer};
use cqchase_storage::{evaluate_plan, DbIndex, Tuple, Value};
use serde_json::{Map as JsonMap, Value as Json};

use crate::cache::SemanticCache;
use crate::catalog::{Facts, FrozenCatalog};
use crate::proto::FactSpec;

/// One session's plan-cache activity, counted from what each lookup
/// reported — the only home of these counters. Summed across sessions
/// they are the server's `plan_cache` and `planner` stats, whichever
/// (shared or private) cache served each lookup.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannerCounters {
    /// Lookups served from the cache (drift replans included).
    pub hits: u64,
    /// Plans compiled on a cache miss.
    pub misses: u64,
    /// Cached plans recompiled because their cardinalities drifted.
    pub replans: u64,
    /// Plans the capacity bound evicted to make room.
    pub evictions: u64,
    /// Lookups that returned a plan with the acyclic fast path.
    pub acyclic_served: u64,
}

impl PlannerCounters {
    fn count(&mut self, lookup: PlanLookup, plan: Option<&CompiledQuery>) {
        match lookup {
            PlanLookup::Hit => self.hits += 1,
            PlanLookup::Replanned => {
                self.hits += 1;
                self.replans += 1;
            }
            PlanLookup::Compiled { evicted } => {
                self.misses += 1;
                self.evictions += u64::from(evicted);
            }
        }
        if plan.is_some_and(|p| p.acyclic.is_some()) {
            self.acyclic_served += 1;
        }
    }
}

impl std::ops::AddAssign for PlannerCounters {
    fn add_assign(&mut self, other: PlannerCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.replans += other.replans;
        self.evictions += other.evictions;
        self.acyclic_served += other.acyclic_served;
    }
}

/// Warm per-session evaluation state: join scratch, epoch-tagged result
/// rows, and the session's counters.
#[derive(Debug)]
pub struct EvalState {
    /// Reusable join working memory.
    pub scratch: JoinScratch,
    /// Cached result rows per query index, tagged with the facts epoch
    /// they were computed at. Stale entries are never served (epoch
    /// mismatch) and are freed wholesale on every effective update, so
    /// residency is bounded by the registered query pool's
    /// current-epoch answers.
    results: FxHashMap<usize, (u64, Vec<Tuple>)>,
    /// Eval answers served from `results` (observability).
    pub result_hits: u64,
    /// This session's plan-cache lookups.
    pub planner: PlannerCounters,
}

/// The session's live facts and the epoch counter that brands
/// eval-dependent caches.
#[derive(Debug)]
pub struct FactsState {
    live: Arc<Facts>,
    /// Bumped by every effective update; epoch-tagged caches compare
    /// against it before serving.
    pub epoch: u64,
}

impl FactsState {
    /// The warm index holding the facts.
    pub fn index(&self) -> &DbIndex {
        &self.live.index
    }

    /// Whether another holder (an attached session or the catalog
    /// registry) shares these facts, so an update must copy them first.
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.live) > 1
    }
}

/// What one [`Session::apply_update`] did, as reported on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateSummary {
    /// Tuples actually inserted (present ones are counted no-ops).
    pub inserted: usize,
    /// Tuples actually deleted (absent ones are counted no-ops).
    pub deleted: usize,
    /// Live fact count after the update.
    pub facts: usize,
    /// The facts epoch after the update.
    pub epoch: u64,
}

/// One registered session. See the module docs.
#[derive(Debug)]
pub struct Session {
    /// The session name (registry key).
    pub name: String,
    /// The immutable catalog this session runs over — possibly shared
    /// with other sessions registered from the same program.
    pub catalog: Arc<FrozenCatalog>,
    /// The live facts (database + index + plans, and the epoch).
    pub facts: RwLock<FactsState>,
    /// Containment options every check in this session runs under
    /// (fixed at registration, so cached answers are deterministic).
    pub opts: ContainmentOptions,
    /// Warm evaluation state (scratch + result rows + counters).
    pub eval_state: Mutex<EvalState>,
    /// The semantic containment cache.
    pub sem_cache: Mutex<SemanticCache>,
    /// Requests routed to this session (any op), for the stats view's
    /// top-K selection of `sessions_detail`.
    pub traffic: AtomicU64,
}

/// Stable one-line rendering of a Σ class (the `Debug` form of
/// `KeyBased` includes a hash map, whose iteration order must not leak
/// onto the wire).
pub fn class_name(class: &SigmaClass) -> String {
    match class {
        SigmaClass::Empty => "Empty".into(),
        SigmaClass::FdsOnly => "FdsOnly".into(),
        SigmaClass::IndsOnly { width } => format!("IndsOnly(width={width})"),
        SigmaClass::KeyBased { width, .. } => format!("KeyBased(width={width})"),
        SigmaClass::Mixed => "Mixed".into(),
    }
}

/// Records `[start, now]` as a `kind` span on every waiting request's
/// trace id, when traced.
fn record_span(obs: Option<(&Tracer, &[u64])>, kind: SpanKind, start: u64) {
    if let Some((tracer, ids)) = obs {
        let end = tracer.now_us();
        for &id in ids {
            tracer.record(id, kind, start, end);
        }
    }
}

impl Session {
    /// Builds a session from program text (the standalone path: its
    /// own catalog and facts).
    pub fn new(
        name: &str,
        program_src: &str,
        sem_cache_capacity: usize,
        plan_cache_capacity: usize,
    ) -> Result<Session, String> {
        let program = parse_program(program_src).map_err(|e| e.to_string())?;
        Session::from_program(name, program, sem_cache_capacity, plan_cache_capacity)
    }

    /// Builds a session from an already-parsed program (tests and
    /// benchmarks assemble programs programmatically).
    pub fn from_program(
        name: &str,
        program: Program,
        sem_cache_capacity: usize,
        plan_cache_capacity: usize,
    ) -> Result<Session, String> {
        let facts = Facts::build(&program, plan_cache_capacity)?;
        Ok(Session::attach(
            name,
            Arc::new(FrozenCatalog::new(program)),
            Arc::new(facts),
            sem_cache_capacity,
        ))
    }

    /// Builds a session over `catalog` reading `facts`. Facts shared
    /// with another holder stay shared (zero marginal bytes) until the
    /// session's first effective update promotes them copy-on-write.
    pub fn attach(
        name: &str,
        catalog: Arc<FrozenCatalog>,
        facts: Arc<Facts>,
        sem_cache_capacity: usize,
    ) -> Session {
        catalog.attached.fetch_add(1, Ordering::Relaxed);
        Session {
            name: name.to_owned(),
            catalog,
            facts: RwLock::new(FactsState {
                live: facts,
                epoch: 0,
            }),
            opts: ContainmentOptions::default(),
            eval_state: Mutex::new(EvalState {
                scratch: JoinScratch::new(),
                results: FxHashMap::default(),
                result_hits: 0,
                planner: PlannerCounters::default(),
            }),
            sem_cache: Mutex::new(SemanticCache::new(sem_cache_capacity)),
            traffic: AtomicU64::new(0),
        }
    }

    /// The parsed program (catalog, Σ, queries, registered facts).
    pub fn program(&self) -> &Program {
        &self.catalog.program
    }

    /// Σ's classification.
    pub fn class(&self) -> &SigmaClass {
        &self.catalog.class
    }

    /// Stable rendering of the Σ class for the wire.
    pub fn class_name(&self) -> &str {
        &self.catalog.class_name
    }

    /// Fingerprint of Σ for semantic-cache keys.
    pub fn sigma_fp(&self) -> u64 {
        self.catalog.sigma_fp
    }

    /// Whether the facts are still shared (no effective update yet).
    pub fn facts_shared(&self) -> bool {
        self.facts.read().expect("facts lock").is_shared()
    }

    /// Approximate resident bytes of this session's **private** facts:
    /// zero while shared, database + index bytes once promoted. Shared
    /// bases are reported once per catalog by
    /// [`CatalogRegistry::shared_resident_bytes`](crate::CatalogRegistry::shared_resident_bytes).
    pub fn resident_bytes(&self) -> usize {
        let facts = self.facts.read().expect("facts lock");
        if facts.is_shared() {
            0
        } else {
            facts.live.resident_bytes()
        }
    }

    /// Index of a query by name, for the batch engines.
    pub fn query_index(&self, name: &str) -> Result<usize, String> {
        let queries = &self.catalog.program.queries;
        queries.iter().position(|q| q.name == name).ok_or_else(|| {
            format!(
                "no query named `{name}` in session `{}` (declared: {})",
                self.name,
                queries
                    .iter()
                    .map(|q| q.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
    }

    /// The query at `idx`.
    pub fn query(&self, idx: usize) -> &ConjunctiveQuery {
        &self.catalog.program.queries[idx]
    }

    /// The current facts epoch (0 until the first effective update).
    pub fn facts_epoch(&self) -> u64 {
        self.facts.read().expect("facts lock").epoch
    }

    /// Total live facts.
    pub fn facts_len(&self) -> usize {
        self.facts
            .read()
            .expect("facts lock")
            .index()
            .total_tuples()
    }

    /// `(live facts, facts epoch)` read under one lock acquisition —
    /// use this when reporting the pair (separate reads can be torn by
    /// a concurrent update, pairing a count with the wrong epoch).
    pub fn facts_snapshot(&self) -> (usize, u64) {
        let facts = self.facts.read().expect("facts lock");
        (facts.index().total_tuples(), facts.epoch)
    }

    /// Evaluates the query at `idx` over the session's live facts with
    /// the warm plan cache and scratch. Result rows are sorted (the
    /// evaluator's deterministic order).
    pub fn eval(&self, idx: usize) -> Vec<Tuple> {
        self.eval_cached(idx).0
    }

    /// [`Session::eval`], also reporting whether the rows were served
    /// from the epoch-tagged result cache without recomputation.
    pub fn eval_cached(&self, idx: usize) -> (Vec<Tuple>, bool) {
        let (rows, cached, _) = self
            .eval_request(idx, &CancelToken::default(), None)
            .expect("an unlimited token never fires");
        (rows, cached)
    }

    /// [`Session::eval_cached`] in a request's context: under the
    /// request's `cancel` token and, when `obs` carries the tracer and
    /// the waiting requests' trace ids, traced.
    ///
    /// Returns `None` when the token fires — before the run (the work
    /// is refused outright) or mid-join (the partial rows are
    /// discarded, **not** inserted into the result cache, so session
    /// state is indistinguishable from the eval never having run).
    ///
    /// One plan lookup per uncached eval, in the facts' plan cache
    /// (shared with every session reading the same facts), counted in
    /// this session's [`PlannerCounters`]. When traced, the result-cache
    /// probe, the plan lookup (compile or cache hit), and the join are
    /// recorded as timed spans, and a join annotation — plan
    /// provenance, join order, per-atom estimated vs actual candidate
    /// rows, engine counters — is returned for the slow-query log.
    pub fn eval_request(
        &self,
        idx: usize,
        cancel: &CancelToken,
        obs: Option<(&Tracer, &[u64])>,
    ) -> Option<(Vec<Tuple>, bool, Option<Json>)> {
        if cancel.should_stop() {
            return None;
        }
        let q = &self.catalog.program.queries[idx];
        let now = || obs.map_or(0, |(t, _)| t.now_us());
        // Lock order: facts, eval_state, plans. Holding the facts lock
        // shared for the whole call pins the epoch the rows belong to.
        let facts = self.facts.read().expect("facts lock");
        let mut state = self.eval_state.lock().expect("eval state lock");
        let probe_start = now();
        let cache_hit =
            matches!(state.results.get(&idx), Some((epoch, _)) if *epoch == facts.epoch);
        record_span(obs, SpanKind::EvalCacheLookup, probe_start);
        if cache_hit {
            let rows = state.results[&idx].1.clone();
            state.result_hits += 1;
            let annotation = obs.map(|_| {
                let mut m = JsonMap::new();
                m.insert("query".into(), Json::from(q.name.as_str()));
                m.insert("result_cache_hit".into(), Json::from(true));
                Json::Object(m)
            });
            return Some((rows, true, annotation));
        }
        let EvalState {
            scratch,
            results,
            planner,
            ..
        } = &mut *state;
        scratch.set_cancel(cancel.clone());
        let mut plans = facts.live.plans.lock().expect("plan cache lock");
        let lookup_start = now();
        let (plan, lookup) = plans.get_or_compile(q, facts.index());
        let kind = if lookup == PlanLookup::Hit {
            SpanKind::PlanCacheHit
        } else {
            SpanKind::PlanCompile
        };
        record_span(obs, kind, lookup_start);
        planner.count(lookup, plan);
        let exec_before = obs.map(|_| scratch.exec().clone());
        let join_start = now();
        let rows = evaluate_plan(q, facts.index(), plan, scratch);
        record_span(obs, SpanKind::JoinExec, join_start);
        let annotation = exec_before
            .map(|before| Session::join_annotation(&q.name, lookup, plan, &before, scratch.exec()));
        drop(plans);
        let cancelled = scratch.cancelled();
        scratch.clear_cancel();
        if cancelled {
            // Partial rows never reach the result cache: the session
            // looks exactly as if this eval was never submitted.
            return None;
        }
        results.insert(idx, (facts.epoch, rows.clone()));
        Some((rows, false, annotation))
    }

    /// Builds the slow-query log's join annotation. The engine counters
    /// are monotone across a scratch's lifetime, so this reports the
    /// `after − before` delta — exactly what this execution did.
    fn join_annotation(
        query: &str,
        lookup: PlanLookup,
        plan: Option<&CompiledQuery>,
        before: &ExecStats,
        after: &ExecStats,
    ) -> Json {
        let mut m = JsonMap::new();
        m.insert("query".into(), Json::from(query));
        m.insert("result_cache_hit".into(), Json::from(false));
        match plan {
            None => {
                m.insert("plan".into(), Json::from("unsatisfiable"));
            }
            Some(p) => {
                let provenance = match lookup {
                    PlanLookup::Hit => "cache_hit",
                    PlanLookup::Replanned => "replan",
                    PlanLookup::Compiled { .. } => "compiled",
                };
                m.insert("plan".into(), Json::from(provenance));
                m.insert("acyclic".into(), Json::from(p.acyclic.is_some()));
                m.insert(
                    "join_order".into(),
                    Json::Array(p.order.iter().map(|&a| Json::from(a as u64)).collect()),
                );
                let atoms: Vec<Json> = p
                    .atom_est
                    .iter()
                    .enumerate()
                    .map(|(i, &e)| {
                        let mut a = JsonMap::new();
                        a.insert("atom".into(), Json::from(i));
                        a.insert("est".into(), Json::from(e));
                        a.insert(
                            "actual".into(),
                            Json::from(after.atom_actual.get(i).copied().unwrap_or(0)),
                        );
                        Json::Object(a)
                    })
                    .collect();
                m.insert("atoms".into(), Json::Array(atoms));
            }
        }
        m.insert(
            "candidates_scanned".into(),
            Json::from(after.candidates_scanned - before.candidates_scanned),
        );
        m.insert(
            "backtracks".into(),
            Json::from(after.backtracks - before.backtracks),
        );
        m.insert(
            "semijoin_retain_passes".into(),
            Json::from(after.semijoin_retain_passes - before.semijoin_retain_passes),
        );
        m.insert(
            "rows_emitted".into(),
            Json::from(after.rows_emitted - before.rows_emitted),
        );
        Json::Object(m)
    }

    /// Drops the session's rebuildable caches under memory pressure:
    /// semantic containment answers, epoch-tagged eval rows, and the
    /// plans cached for its facts (shared facts share that cache, so
    /// its other readers recompile too). Correctness state — facts,
    /// index, epoch — is untouched; everything dropped is recomputed on
    /// demand. Returns the number of cache entries dropped.
    pub fn shed_caches(&self) -> usize {
        let rebuildable = {
            let facts = self.facts.read().expect("facts lock");
            let mut state = self.eval_state.lock().expect("eval state lock");
            let mut plans = facts.live.plans.lock().expect("plan cache lock");
            let n = state.results.len() + plans.len();
            state.results.clear();
            plans.clear();
            n
        };
        rebuildable + self.sem_cache.lock().expect("semantic cache lock").clear()
    }

    /// Resolves one fact's relation and checks its arity: the one
    /// validation rule every update path applies.
    fn resolve_fact(&self, (rel, tuple): &FactSpec) -> Result<RelId, String> {
        let catalog = &self.catalog.program.catalog;
        let id = catalog
            .resolve(rel)
            .ok_or_else(|| format!("unknown relation `{rel}` in session `{}`", self.name))?;
        let arity = catalog.arity(id);
        if tuple.len() != arity {
            return Err(format!(
                "relation `{rel}` has arity {arity}, fact carries {} values",
                tuple.len()
            ));
        }
        Ok(id)
    }

    /// Checks one delta exactly as [`Session::apply_updates`] will —
    /// every fact must name a known relation with the right arity,
    /// deletes checked before inserts — without touching the facts.
    ///
    /// The durability layer uses this to decide, *before* logging,
    /// which deltas of a batch will apply: the WAL records only the
    /// valid subset, so replay never re-litigates validation and the
    /// log stays in deterministic agreement with the in-memory state.
    pub fn validate_update(&self, insert: &[FactSpec], delete: &[FactSpec]) -> Result<(), String> {
        delete
            .iter()
            .chain(insert)
            .try_for_each(|f| self.resolve_fact(f).map(drop))
    }

    /// Applies fact deltas to the live facts: deletes first, then
    /// inserts (so a delete+insert of the same tuple leaves it present).
    /// Absent deletes and present inserts are counted no-ops. On any
    /// effective change the facts epoch is bumped, cached eval rows are
    /// invalidated wholesale (epoch tags), and cached unsatisfiable
    /// plans are dropped when a brand-new constant was interned.
    ///
    /// Rejects (without applying anything) when any fact names an
    /// unknown relation or has the wrong arity — deltas are validated
    /// up front, so an update is all-or-nothing.
    pub fn apply_update(
        &self,
        insert: &[FactSpec],
        delete: &[FactSpec],
    ) -> Result<UpdateSummary, String> {
        let delta = (insert.to_vec(), delete.to_vec());
        self.apply_updates(std::slice::from_ref(&delta))
            .pop()
            .expect("one delta in, one summary out")
    }

    /// Applies a **run of updates** under a single facts write-lock
    /// acquisition with one epoch bump and one cache invalidation —
    /// the admission queue's coalescing path for adjacent same-session
    /// updates in a drained batch.
    ///
    /// Each `(insert, delete)` delta keeps its individual semantics:
    /// validated independently (an invalid delta yields its own `Err`
    /// and applies nothing, while the rest of the run still applies),
    /// applied in run order with deletes before inserts, and summarized
    /// per delta — `inserted`/`deleted`/`facts` are exactly what a
    /// one-at-a-time application would report. Only the `epoch` field
    /// shows the merge: every effective delta of the run lands in the
    /// same (single) new epoch instead of minting one each.
    ///
    /// On a session whose facts are shared, the run first probes
    /// whether any delta is effective (a present delete or an absent
    /// insert). All no-ops: zero-effect summaries, no promotion, the
    /// shared facts are untouched. Otherwise the session promotes
    /// copy-on-write (`Arc::make_mut`, counted on the catalog when it
    /// actually copies) and the run applies to the private copy.
    pub fn apply_updates(
        &self,
        deltas: &[(Vec<FactSpec>, Vec<FactSpec>)],
    ) -> Vec<Result<UpdateSummary, String>> {
        let resolve = |facts: &[FactSpec]| -> Result<Vec<(RelId, Tuple)>, String> {
            facts
                .iter()
                .map(|f| {
                    Ok((
                        self.resolve_fact(f)?,
                        f.1.iter().cloned().map(Value::Const).collect(),
                    ))
                })
                .collect()
        };
        // Validate every delta before taking the write lock; each delta
        // is all-or-nothing on its own, independent of its neighbors.
        type Resolved = (Vec<(RelId, Tuple)>, Vec<(RelId, Tuple)>);
        let resolved: Vec<Result<Resolved, String>> = deltas
            .iter()
            .map(|(insert, delete)| {
                let deletes = resolve(delete)?;
                let inserts = resolve(insert)?;
                Ok((inserts, deletes))
            })
            .collect();
        if resolved.iter().all(Result::is_err) {
            // Nothing will apply: report the validation errors without
            // taking the exclusive facts lock — malformed requests must
            // not serialize concurrent readers.
            return resolved
                .into_iter()
                .map(|r| r.map(|_| unreachable!("all deltas are errors")))
                .collect();
        }

        let mut guard = self.facts.write().expect("facts lock");
        if guard.is_shared() {
            let index = guard.index();
            let would_change =
                resolved
                    .iter()
                    .filter_map(|r| r.as_ref().ok())
                    .any(|(inserts, deletes)| {
                        deletes.iter().any(|(rel, t)| index.contains(*rel, t))
                            || inserts.iter().any(|(rel, t)| !index.contains(*rel, t))
                    });
            if !would_change {
                // Every valid delta is a no-op against the shared facts:
                // report zero-effect summaries without copying them.
                let total = index.total_tuples();
                let epoch = guard.epoch;
                return resolved
                    .into_iter()
                    .map(|r| {
                        r.map(|_| UpdateSummary {
                            inserted: 0,
                            deleted: 0,
                            facts: total,
                            epoch,
                        })
                    })
                    .collect();
            }
        }
        let FactsState { live, epoch } = &mut *guard;
        let shared_base = Arc::as_ptr(live);
        let facts = Arc::make_mut(live);
        if !std::ptr::eq(shared_base, &*facts) {
            self.catalog.promotions.fetch_add(1, Ordering::Relaxed);
        }
        let Facts { index, plans } = facts;
        let syms_before = index.num_syms();
        let mut effective = 0usize;
        let mut out = Vec::with_capacity(deltas.len());
        let mut summaries: Vec<usize> = Vec::new();
        for r in resolved {
            match r {
                Err(e) => out.push(Err(e)),
                Ok((inserts, deletes)) => {
                    let (mut deleted, mut inserted) = (0usize, 0usize);
                    for (rel, tuple) in &deletes {
                        deleted += usize::from(index.note_remove(*rel, tuple));
                    }
                    for (rel, tuple) in &inserts {
                        inserted += usize::from(index.insert(*rel, tuple));
                    }
                    effective += deleted + inserted;
                    summaries.push(out.len());
                    out.push(Ok(UpdateSummary {
                        inserted,
                        deleted,
                        facts: index.total_tuples(),
                        epoch: 0, // patched below, once the run's epoch is known
                    }));
                }
            }
        }
        if effective > 0 {
            *epoch += 1;
            if index.num_syms() > syms_before {
                // A brand-new constant falsifies cached `None` plans.
                plans
                    .get_mut()
                    .expect("plan cache lock")
                    .drop_unsatisfiable();
            }
            // Lock order facts → eval_state, same as eval. The epoch
            // tags already make stale rows unservable; free them
            // eagerly too — a resident session must not pin dead
            // result sets until their query happens to be re-asked.
            self.eval_state
                .lock()
                .expect("eval state lock")
                .results
                .clear();
        }
        let epoch = *epoch;
        for i in summaries {
            if let Ok(sum) = &mut out[i] {
                sum.epoch = epoch;
            }
        }
        out
    }
}

/// The server's named-session table. Registration is **first wins**:
/// inserting an existing name fails, atomically, so two clients racing
/// to register one name get exactly one success — the loser is told to
/// pick another name or mutate the existing session with `update`.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    sessions: RwLock<HashMap<String, Arc<Session>>>,
}

fn duplicate_name_error(name: &str) -> String {
    format!(
        "session `{name}` already registered (names are unique; use op `update` to \
         mutate its facts, or register under a new name)"
    )
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> SessionRegistry {
        SessionRegistry::default()
    }

    /// Fails with the duplicate-name error when `name` is taken. A
    /// cheap pre-check for the register path, so a retried `register`
    /// is refused before the expensive session build — `insert_new`
    /// remains the atomic arbiter for races.
    pub fn check_free(&self, name: &str) -> Result<(), String> {
        if self
            .sessions
            .read()
            .expect("session registry lock")
            .contains_key(name)
        {
            Err(duplicate_name_error(name))
        } else {
            Ok(())
        }
    }

    /// Registers `session` under its name; fails (leaving the existing
    /// session untouched) when the name is taken.
    pub fn insert_new(&self, session: Session) -> Result<Arc<Session>, String> {
        use std::collections::hash_map::Entry;
        let mut map = self.sessions.write().expect("session registry lock");
        match map.entry(session.name.clone()) {
            Entry::Occupied(_) => Err(duplicate_name_error(&session.name)),
            Entry::Vacant(e) => {
                let arc = Arc::new(session);
                e.insert(Arc::clone(&arc));
                Ok(arc)
            }
        }
    }

    /// The session registered under `name`.
    pub fn get(&self, name: &str) -> Result<Arc<Session>, String> {
        self.sessions
            .read()
            .expect("session registry lock")
            .get(name)
            .cloned()
            .ok_or_else(|| format!("no session named `{name}` (register it first)"))
    }

    /// Unregisters `name`, returning whether it was present. Used only
    /// to roll back a registration whose durability record could not be
    /// made durable — there is no client-facing unregister op.
    pub fn remove(&self, name: &str) -> bool {
        self.sessions
            .write()
            .expect("session registry lock")
            .remove(name)
            .is_some()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .sessions
            .read()
            .expect("session registry lock")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        self.sessions.read().expect("session registry lock").len()
    }

    /// Whether no session is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every registered session.
    pub fn snapshot(&self) -> Vec<Arc<Session>> {
        self.sessions
            .read()
            .expect("session registry lock")
            .values()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cqchase_ir::Constant;
    use cqchase_storage::Database;

    /// The session's facts rebuilt as a [`Database`], so the oracle
    /// evaluates them through an index built from scratch.
    pub(crate) fn facts_db(s: &Session) -> Database {
        let facts = s.facts.read().unwrap();
        let catalog = &s.program().catalog;
        let mut db = Database::new(catalog);
        for rel in catalog.rel_ids() {
            for t in facts.index().tuples(rel) {
                db.insert(rel, t).unwrap();
            }
        }
        db
    }

    #[test]
    fn register_builds_warm_state() {
        let s = Session::new(
            "s1",
            "relation R(a, b).
             ind R[2] <= R[1].
             Q(x) :- R(x, y).
             Q2(x) :- R(x, y), R(y, z).
             R(1, 2). R(2, 3).",
            64,
            64,
        )
        .unwrap();
        assert_eq!(s.class_name(), "IndsOnly(width=1)");
        assert_eq!(s.query_index("Q2").unwrap(), 1);
        assert!(s.query_index("Nope").is_err());
        // Evaluation answers match the one-shot evaluator and both the
        // plan cache and the result cache warm across calls.
        let direct = cqchase_storage::evaluate(s.query(1), &facts_db(&s));
        assert_eq!(s.eval_cached(1), (direct.clone(), false));
        assert_eq!(s.eval_cached(1), (direct, true));
        let st = s.eval_state.lock().unwrap();
        assert_eq!(st.planner.misses, 1, "one compile, then the row cache");
        assert_eq!(st.result_hits, 1);
    }

    #[test]
    fn bad_programs_are_rejected() {
        assert!(Session::new("s", "relation R(a). Q(x) :- S(x).", 8, 8).is_err());
        assert!(Session::new("s", "not a program", 8, 8).is_err());
    }

    #[test]
    fn class_names_are_stable() {
        let cases = [
            ("relation R(a, b).", "Empty"),
            ("relation R(a, b). fd R: a -> b.", "FdsOnly"),
            ("relation R(a, b). ind R[2] <= R[1].", "IndsOnly(width=1)"),
            (
                "relation R(a, b). fd R: a -> b. ind R[2] <= R[1].",
                "KeyBased(width=1)",
            ),
            (
                // Section 4's Σ: the IND's right side is not the key.
                "relation R(a, b). fd R: b -> a. ind R[2] <= R[1].",
                "Mixed",
            ),
        ];
        for (src, want) in cases {
            let s = Session::new("s", src, 8, 8).unwrap();
            assert_eq!(s.class_name(), want, "{src}");
        }
    }

    fn fact(rel: &str, vals: &[i64]) -> FactSpec {
        (rel.into(), vals.iter().map(|&i| Constant::Int(i)).collect())
    }

    #[test]
    fn apply_update_mutates_and_invalidates_eval_rows() {
        let s = Session::new(
            "mut",
            "relation R(a, b). Q(x) :- R(x, y). R(1, 2). R(2, 3).",
            8,
            8,
        )
        .unwrap();
        assert_eq!(s.eval(0).len(), 2);
        let sum = s
            .apply_update(&[fact("R", &[5, 6])], &[fact("R", &[1, 2])])
            .unwrap();
        assert_eq!(
            sum,
            UpdateSummary {
                inserted: 1,
                deleted: 1,
                facts: 2,
                epoch: 1
            }
        );
        assert_eq!(
            s.catalog.promotions.load(Ordering::Relaxed),
            0,
            "unshared facts update in place"
        );
        // The eval-row cache was epoch-invalidated: fresh rows.
        let (rows, cached) = s.eval_cached(0);
        assert!(!cached);
        let got: Vec<String> = rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(got, ["2", "5"]);
        // Idempotence: replaying the same deltas changes nothing.
        let sum = s
            .apply_update(&[fact("R", &[5, 6])], &[fact("R", &[1, 2])])
            .unwrap();
        assert_eq!((sum.inserted, sum.deleted, sum.epoch), (0, 0, 1));
        assert!(s.eval_cached(0).1, "no-op update keeps the cache");
    }

    #[test]
    fn apply_update_is_all_or_nothing_on_bad_facts() {
        let s = Session::new("v", "relation R(a, b). Q(x) :- R(x, y). R(1, 2).", 8, 8).unwrap();
        // Unknown relation: nothing applied.
        assert!(s
            .apply_update(&[fact("R", &[9, 9]), fact("NOPE", &[1])], &[])
            .is_err());
        // Wrong arity: nothing applied.
        assert!(s.apply_update(&[fact("R", &[9])], &[]).is_err());
        assert_eq!(s.facts_epoch(), 0);
        assert_eq!(s.facts_len(), 1);
    }

    #[test]
    fn insert_of_new_constant_revives_unsatisfiable_plan() {
        let s = Session::new("c", "relation R(a, b). Qc(x) :- R(x, 99). R(1, 2).", 8, 8).unwrap();
        assert!(s.eval(0).is_empty(), "99 not present: unsatisfiable");
        // Interning 99 must drop the cached `None` plan.
        s.apply_update(&[fact("R", &[7, 99])], &[]).unwrap();
        let rows = s.eval(0);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].to_string(), "7");
        // And deleting it again empties the answer (plan stays valid).
        s.apply_update(&[], &[fact("R", &[7, 99])]).unwrap();
        assert!(s.eval(0).is_empty());
    }

    #[test]
    fn zero_plan_cache_session_survives_new_constant_update() {
        // Regression: with `--plan-cache-capacity 0`, an update that
        // interns a brand-new constant used to underflow the plan
        // cache's length while holding both session locks, bricking
        // the session.
        let s = Session::new("z", "relation R(a, b). Qc(x) :- R(x, 99). R(1, 2).", 8, 0).unwrap();
        assert!(s.eval(0).is_empty());
        s.apply_update(&[fact("R", &[7, 99])], &[]).unwrap();
        assert_eq!(s.eval(0).len(), 1);
    }

    #[test]
    fn cancelled_eval_leaves_no_trace() {
        let s = Session::new(
            "c",
            "relation R(a, b). Q(x) :- R(x, y). R(1, 2). R(2, 3).",
            8,
            8,
        )
        .unwrap();
        let fired = CancelToken::unlimited();
        fired.cancel();
        assert!(
            s.eval_request(0, &fired, None).is_none(),
            "pre-fired token refuses the eval"
        );
        {
            let state = s.eval_state.lock().unwrap();
            assert!(state.results.is_empty(), "no partial rows cached");
            assert_eq!(state.result_hits, 0);
        }
        // A live token runs to completion and caches normally.
        let live = CancelToken::unlimited();
        let (rows, cached, _) = s.eval_request(0, &live, None).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(!cached);
        assert!(s.eval_cached(0).1, "completed eval warmed the cache");
    }

    #[test]
    fn shed_caches_drops_only_rebuildable_state() {
        let s = Session::new(
            "shed",
            "relation R(a, b). Q(x) :- R(x, y). R(1, 2). R(2, 3).",
            8,
            8,
        )
        .unwrap();
        s.eval(0);
        assert!(s.shed_caches() > 0, "warm rows and plans were dropped");
        let (facts, epoch) = s.facts_snapshot();
        assert_eq!((facts, epoch), (2, 0), "facts and epoch untouched");
        let (rows, cached) = s.eval_cached(0);
        assert_eq!(rows.len(), 2);
        assert!(!cached, "the shed cache recomputes, correctly");
    }

    #[test]
    fn registry_rejects_duplicates_atomically() {
        let reg = Arc::new(SessionRegistry::new());
        let src = "relation R(a). Q(x) :- R(x).";
        // Concurrent double-register of one name: exactly one winner,
        // every loser gets the explicit duplicate error.
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                reg.insert_new(Session::new("dup", src, 8, 8).unwrap())
            }));
        }
        let results: Vec<Result<Arc<Session>, String>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let wins = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(wins, 1, "exactly one register wins the race");
        for r in &results {
            if let Err(msg) = r {
                assert!(msg.contains("already registered"), "{msg}");
            }
        }
        // The winner's session is the one served.
        assert!(reg.get("dup").is_ok());
        assert_eq!(reg.names(), ["dup"]);
        // The cheap pre-check agrees with the atomic insert.
        assert!(reg.check_free("dup").is_err());
        assert!(reg.check_free("other").is_ok());
        // A different name still registers.
        assert!(reg
            .insert_new(Session::new("other", src, 8, 8).unwrap())
            .is_ok());
        assert_eq!(reg.names(), ["dup", "other"]);
        assert!(reg.get("missing").is_err());
    }
}
