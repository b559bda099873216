//! The admission/batching queue: concurrent requests coalesce into
//! batches that run through `cqchase-par`'s batch engines.
//!
//! Connection threads do not run containment or evaluation themselves.
//! They [`submit`](Batcher::submit) a [`Job`] — the [`Work`] plus its
//! trace id and [`CancelToken`] — and block on a result channel; a
//! submitter that finds no batch in flight becomes the **leader**,
//! drains everything queued, runs it as one batch, and answers every
//! waiter (admission windows form naturally under load: requests
//! arriving while a batch runs ride the next one). Leadership is
//! bounded — after `MAX_LEADER_ROUNDS` rounds the leader hands back,
//! and any still-unanswered waiter promotes itself within one poll
//! tick, so no single client is starved and a crashed leader cannot
//! wedge the queue. This shape gives three things a thread-per-request
//! design cannot:
//!
//! * **chase sharing** — checks with the same left query in one batch
//!   reuse one chase (the batch engines' contract);
//! * **coalescing** — identical in-flight requests (same session, same
//!   query indices) run once and fan the answer out;
//! * **bounded compute concurrency** — one batch runs at a time, on
//!   [`check_batch`](cqchase_par::check_batch)'s worker threads, no
//!   matter how many connections are open.
//!
//! The semantic cache is consulted *before* enqueueing (a hit never
//! touches the queue) and filled by the leader after computing, so
//! every isomorphism class is computed at most once per cache
//! residency.
//!
//! Updates are **per-session barriers** ([`BarrierMode::PerSession`]):
//! a drained batch is partitioned into per-session lanes, an update
//! only fences work on its own session, and adjacent same-session
//! updates coalesce into one write-lock acquisition — see
//! [`Work::Update`].

use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cqchase_core::{ContainmentEngineError, ContainmentPair};
use cqchase_index::{CancelToken, FxHashMap};
use cqchase_obs::{SpanKind, Tracer};
use cqchase_par::BatchOptions;
use cqchase_storage::Tuple;
use serde_json::Value;

use crate::durable::Durability;
use crate::metrics::Metrics;
use crate::proto::CheckSummary;
use crate::session::Session;

/// Per-request join annotations parked by the batch layer for the
/// slow-query logger, keyed by trace id. The connection handler removes
/// its request's entry after every traced request (slow or not), so
/// residency is bounded by in-flight traced requests.
pub type TraceAnnotations = Mutex<FxHashMap<u64, Value>>;

/// One unit of submitted work.
#[derive(Debug, Clone)]
pub enum Work {
    /// `Σ ⊨ queries[q] ⊆∞ queries[q_prime]` in `session`.
    Check {
        /// The session the queries are registered in.
        session: Arc<Session>,
        /// Contained-side query index.
        q: usize,
        /// Containing-side query index.
        q_prime: usize,
    },
    /// Evaluate `queries[q]` over `session`'s facts.
    Eval {
        /// The session the query is registered in.
        session: Arc<Session>,
        /// Query index.
        q: usize,
    },
    /// Apply fact deltas to `session`'s live facts.
    ///
    /// Updates are **per-session epoch barriers** in the queue: within
    /// one drained batch, same-session work submitted before the update
    /// runs (and answers) against the old facts, then the update
    /// applies under the facts write lock, then the same-session
    /// remainder runs against the new facts. Work on *other* sessions
    /// (distinct `Arc<Session>` identities) is unaffected — cross-
    /// session ordering is unobservable, so an update to session A
    /// never splits session B's segment. Adjacent same-session updates
    /// in one drained batch **coalesce** into a single write-lock
    /// acquisition and one epoch bump
    /// ([`Session::apply_updates`]), each waiter still receiving its
    /// own per-delta summary. An update never executes concurrently
    /// with batch compute.
    Update {
        /// The session whose facts change.
        session: Arc<Session>,
        /// Facts to insert.
        insert: Vec<crate::proto::FactSpec>,
        /// Facts to delete (applied before the inserts).
        delete: Vec<crate::proto::FactSpec>,
    },
}

/// The answer to one unit of work.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A containment answer (or a per-pair engine error).
    Check {
        /// The decision fields, or the engine error message.
        summary: Result<CheckSummary, String>,
        /// Answered from the semantic cache without computing.
        cached: bool,
        /// Answered by riding an identical in-flight request.
        coalesced: bool,
    },
    /// Evaluation rows (sorted, deterministic).
    Eval {
        /// The result tuples.
        rows: Vec<Tuple>,
        /// Served from the session's epoch-tagged result cache.
        cached: bool,
        /// Answered by riding an identical in-flight request.
        coalesced: bool,
    },
    /// What an update did (or the validation error message).
    Update(Result<crate::session::UpdateSummary, String>),
    /// The work was cancelled instead of answered: refused already
    /// expired at leader pickup, cancelled mid-run by deadline expiry,
    /// or abandoned because its client disconnected. Updates are only
    /// ever cancelled *before* their commit point (validation +
    /// WAL fsync), so a cancelled update left the session bit-identical
    /// to never having submitted it.
    Cancelled {
        /// `true` when the client disconnected; `false` for deadline
        /// expiry.
        disconnect: bool,
        /// Human-readable partial-progress detail (e.g. the chase level
        /// a cancelled check had explored).
        detail: String,
    },
}

impl Work {
    fn session(&self) -> &Arc<Session> {
        match self {
            Work::Check { session, .. }
            | Work::Eval { session, .. }
            | Work::Update { session, .. } => session,
        }
    }
}

/// One unit of work with its request context — what
/// [`Batcher::submit`] takes. A bare [`Work`] converts to an untraced,
/// never-cancelled job, a `(Work, CancelToken)` pair to an untraced one
/// under that token.
#[derive(Debug, Clone)]
pub struct Job {
    /// What to run.
    pub work: Work,
    /// The submitting request's trace id (0 = untraced). When tracing
    /// is on, the semantic-cache probe, admission wait, batch drain,
    /// and downstream eval/fsync sections are recorded as spans on it.
    pub trace_id: u64,
    /// The request's cancellation token, armed *before* admission so
    /// queue wait counts against the deadline. It is consulted at
    /// admission (a fired token is refused before the cache probe or
    /// the queue), at leader pickup (expired work is never executed),
    /// before an update's commit point, and — for checks and evals — at
    /// coalesced intervals inside the engines.
    pub cancel: CancelToken,
}

impl From<Work> for Job {
    fn from(work: Work) -> Job {
        Job {
            work,
            trace_id: 0,
            cancel: CancelToken::default(),
        }
    }
}

impl From<(Work, CancelToken)> for Job {
    fn from((work, cancel): (Work, CancelToken)) -> Job {
        Job {
            work,
            trace_id: 0,
            cancel,
        }
    }
}

/// A queued job: the job, its reply channel, and its enqueue stamps.
struct Pending {
    job: Job,
    tx: Sender<Outcome>,
    /// Enqueue instant, for the always-on queue-wait metric.
    enqueued: Instant,
    /// Enqueue time on the tracer's clock (0 when untraced).
    enqueued_us: u64,
}

/// What admission made of one job.
enum Admitted {
    /// Answered without queueing: refused, or a semantic-cache hit.
    Ready(Outcome),
    /// Bound for the queue, with the channel its outcome arrives on.
    Queued(Pending, Receiver<Outcome>),
}

#[derive(Default)]
struct QueueState {
    pending: Vec<Pending>,
    leader_running: bool,
}

/// How long a waiter sleeps before re-checking whether it should
/// promote itself to leader (the normal wake-up is its result arriving,
/// which is immediate).
const LEADER_POLL: std::time::Duration = std::time::Duration::from_millis(50);

/// Drain rounds one leader runs before handing leadership back, so a
/// leader's own client is not starved by other clients refilling the
/// queue indefinitely.
const MAX_LEADER_ROUNDS: usize = 8;

/// Unwinding safety for the leader: if `run_batch` panics (an engine
/// invariant violated), the armed guard releases leadership and drops
/// every still-queued sender, so waiters observe a disconnect and fail
/// their one request instead of hanging forever — the queue stays
/// usable for every subsequent request.
struct LeaderGuard<'a> {
    state: &'a Mutex<QueueState>,
    metrics: &'a Metrics,
    lane: usize,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Never panic in a Drop that can run during unwinding: recover
        // the state even from a poisoned lock.
        let orphans = {
            let mut state = self
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.leader_running = false;
            std::mem::take(&mut state.pending)
        };
        // The orphans leave the queue without a leader pickup: keep the
        // lane's depth gauge honest before dropping their senders
        // (which disconnects the waiters' channels).
        self.metrics
            .lane(self.lane)
            .queue_depth
            .fetch_sub(orphans.len() as u64, std::sync::atomic::Ordering::Relaxed);
        drop(orphans);
    }
}

/// How update barriers scope within one drained batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierMode {
    /// Updates are barriers only for work on the **same session**
    /// (`Arc::ptr_eq` identity); other sessions' work batches through
    /// unsplit, and adjacent same-session updates coalesce into one
    /// write-lock acquisition and one epoch bump. The production mode.
    #[default]
    PerSession,
    /// Updates are barriers for **everything** in flight, applied one
    /// at a time (the pre-relaxation semantics). Kept as the reference
    /// side of the differential proptests and the churn benchmark —
    /// observably equivalent to [`BarrierMode::PerSession`] except for
    /// raw epoch counters, just slower.
    Global,
}

/// The admission queue. One per lane (a single-lane server has exactly
/// one); see the module docs and [`crate::lanes`].
pub struct Batcher {
    state: Mutex<QueueState>,
    threads: usize,
    metrics: Arc<Metrics>,
    /// Which metrics lane shard this queue's batching counters feed (0
    /// for a standalone queue).
    lane: usize,
    barrier_mode: BarrierMode,
    /// When set, update batches route through the durability layer —
    /// logged and fsync'd before applying, so no summary is reported
    /// for a change a restart would forget.
    durability: Option<Arc<Durability>>,
    /// The span recorder; disabled by default (a private one-slot
    /// tracer), replaced by the server's via [`Batcher::with_tracing`].
    tracer: Arc<Tracer>,
    /// Join annotations parked for the slow-query logger.
    annotations: Arc<TraceAnnotations>,
}

impl std::fmt::Debug for Batcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batcher")
            .field("threads", &self.threads)
            .field("lane", &self.lane)
            .field("barrier_mode", &self.barrier_mode)
            .field("durable", &self.durability.is_some())
            .finish()
    }
}

impl Batcher {
    /// A queue whose batches run on `threads` worker threads, with
    /// per-session update barriers.
    pub fn new(threads: usize, metrics: Arc<Metrics>) -> Batcher {
        Batcher::with_barrier_mode(threads, metrics, BarrierMode::PerSession)
    }

    /// A queue with an explicit [`BarrierMode`] (differential tests and
    /// the churn benchmark compare the two modes).
    pub fn with_barrier_mode(
        threads: usize,
        metrics: Arc<Metrics>,
        barrier_mode: BarrierMode,
    ) -> Batcher {
        Batcher {
            state: Mutex::new(QueueState::default()),
            threads: threads.max(1),
            metrics,
            lane: 0,
            barrier_mode,
            durability: None,
            tracer: Arc::new(Tracer::new(1)),
            annotations: Arc::new(Mutex::new(FxHashMap::default())),
        }
    }

    /// Assigns this queue to metrics lane shard `lane` (lane-sharded
    /// servers build one `Batcher` per lane). Builder-style.
    pub fn with_lane(mut self, lane: usize) -> Batcher {
        self.lane = lane;
        self
    }

    /// Routes update batches through `durability` (write-ahead logged
    /// and fsync'd before applying). Builder-style, used at server boot.
    pub fn with_durability(mut self, durability: Arc<Durability>) -> Batcher {
        self.durability = Some(durability);
        self
    }

    /// Shares the server's tracer and annotation map with the queue, so
    /// traced requests get admission-wait / batch-drain / cache / join /
    /// fsync spans and join annotations. Builder-style, used at boot.
    pub fn with_tracing(
        mut self,
        tracer: Arc<Tracer>,
        annotations: Arc<TraceAnnotations>,
    ) -> Batcher {
        self.tracer = tracer;
        self.annotations = annotations;
        self
    }

    /// `Some((tracer, ids))` when tracing is on and at least one id in
    /// `ids` is a real trace — the shape the observed downstream calls
    /// take.
    fn trace_ctx<'a>(&'a self, ids: &'a [u64]) -> Option<(&'a Tracer, &'a [u64])> {
        if self.tracer.is_enabled() && ids.iter().any(|&id| id != 0) {
            Some((&self.tracer, ids))
        } else {
            None
        }
    }

    /// Submits one job — a bare [`Work`], a `(Work, CancelToken)` pair,
    /// or a full [`Job`] — and blocks until its outcome is ready.
    ///
    /// A job whose token already fired is refused at admission, and a
    /// check whose isomorphism class is in the session's semantic cache
    /// returns immediately. Otherwise the job is enqueued and the
    /// calling thread alternates between waiting for a leader to answer
    /// it and — whenever no leader is running — taking leadership
    /// itself. Leadership is bounded to `MAX_LEADER_ROUNDS` drain
    /// rounds, then handed back (a waiter promotes itself within one
    /// poll tick), so one leader's client is never starved by a
    /// sustained stream of other clients' requests. Returns `Err` only
    /// if a leader panicked while holding this item (the engine's
    /// invariants were violated); the queue itself recovers.
    pub fn submit(&self, job: impl Into<Job>) -> Result<Outcome, String> {
        let (pending, rx) = match self.admit(job.into()) {
            Admitted::Ready(outcome) => return Ok(outcome),
            Admitted::Queued(pending, rx) => (pending, rx),
        };
        self.state.lock().expect("queue lock").pending.push(pending);
        self.metrics
            .lane(self.lane)
            .queue_depth
            .fetch_add(1, Ordering::Relaxed);
        self.await_outcome(&rx)
    }

    /// Submits a whole script of jobs as **one enqueued batch** and
    /// blocks until every outcome is ready, returned in submission
    /// order.
    ///
    /// All queued items land under a single lock acquisition, so a
    /// quiescent queue drains them as one batch — the deterministic
    /// way to exercise segment splitting, update-run coalescing, and
    /// in-batch coalescing that concurrent `submit` calls only produce
    /// probabilistically. Admission is exactly as in
    /// [`Batcher::submit`]. Used by the differential proptests and the
    /// churn benchmark; servers use `submit`.
    pub fn submit_many(&self, jobs: Vec<impl Into<Job>>) -> Vec<Result<Outcome, String>> {
        // Admission runs BEFORE the queue lock (cache probes take
        // per-session mutexes and do isomorphism lookups — too slow for
        // the queue's critical section, which must stay at plain Vec
        // pushes).
        let admitted: Vec<Admitted> = jobs.into_iter().map(|j| self.admit(j.into())).collect();
        let mut enqueued = 0u64;
        let slots: Vec<Result<Outcome, Receiver<Outcome>>> = {
            let mut state = self.state.lock().expect("queue lock");
            admitted
                .into_iter()
                .map(|a| match a {
                    Admitted::Ready(outcome) => Ok(outcome),
                    Admitted::Queued(pending, rx) => {
                        state.pending.push(pending);
                        enqueued += 1;
                        Err(rx)
                    }
                })
                .collect()
        };
        self.metrics
            .lane(self.lane)
            .queue_depth
            .fetch_add(enqueued, Ordering::Relaxed);
        slots
            .into_iter()
            .map(|slot| slot.or_else(|rx| self.await_outcome(&rx)))
            .collect()
    }

    /// Admission, shared by [`Batcher::submit`] and
    /// [`Batcher::submit_many`]: a fired token is refused, and a check
    /// whose isomorphism class is cached is answered without ever
    /// touching the queue (the probe is a span when traced). Anything
    /// else becomes a queue item.
    fn admit(&self, job: Job) -> Admitted {
        if job.cancel.should_stop() {
            return Admitted::Ready(self.cancelled_outcome(&job.cancel, "refused at admission"));
        }
        let tracing = job.trace_id != 0 && self.tracer.is_enabled();
        if let Work::Check {
            session,
            q,
            q_prime,
        } = &job.work
        {
            let start = tracing.then(|| self.tracer.now_us());
            let hit = session
                .sem_cache
                .lock()
                .expect("semantic cache lock")
                .lookup(
                    session.sigma_fp(),
                    session.query(*q),
                    session.query(*q_prime),
                );
            if let Some(start) = start {
                self.tracer.record(
                    job.trace_id,
                    SpanKind::SemCacheLookup,
                    start,
                    self.tracer.now_us(),
                );
            }
            if let Some(summary) = hit {
                return Admitted::Ready(Outcome::Check {
                    summary: Ok(summary),
                    cached: true,
                    coalesced: false,
                });
            }
        }
        let (tx, rx) = channel();
        let enqueued_us = if tracing { self.tracer.now_us() } else { 0 };
        let pending = Pending {
            job,
            tx,
            enqueued: Instant::now(),
            enqueued_us,
        };
        Admitted::Queued(pending, rx)
    }

    /// Turns a fired token into the [`Outcome::Cancelled`] it is
    /// answered with, counting it on the resilience metrics (disconnect
    /// vs deadline attribution comes from the token itself).
    fn cancelled_outcome(&self, cancel: &CancelToken, detail: &str) -> Outcome {
        let disconnect = cancel.is_cancelled();
        if disconnect {
            self.metrics
                .cancelled_disconnect
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
        }
        Outcome::Cancelled {
            disconnect,
            detail: detail.into(),
        }
    }

    /// Answers `p` with [`Outcome::Cancelled`] when its token has
    /// fired; `true` means the item was refused and must not run.
    fn refuse_if_stopped(&self, p: &Pending, detail: &str) -> bool {
        let stop = p.job.cancel.should_stop();
        if stop {
            let _ = p.tx.send(self.cancelled_outcome(&p.job.cancel, detail));
        }
        stop
    }

    /// Blocks until `rx` delivers, alternating with leadership: whenever
    /// no leader is running and work is pending, the caller takes
    /// leadership and drains. The wait half of `submit`/`submit_many`.
    fn await_outcome(&self, rx: &Receiver<Outcome>) -> Result<Outcome, String> {
        loop {
            let lead = {
                let mut state = self.state.lock().expect("queue lock");
                if !state.leader_running && !state.pending.is_empty() {
                    state.leader_running = true;
                    true
                } else {
                    false
                }
            };
            if lead {
                self.drain();
            }
            match rx.recv_timeout(LEADER_POLL) {
                Ok(outcome) => return Ok(outcome),
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => continue,
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(
                        "internal error: the batch leader failed while holding this \
                         request; please retry"
                            .into(),
                    )
                }
            }
        }
    }

    /// Leads for up to `MAX_LEADER_ROUNDS` drain rounds, then releases
    /// leadership (leftover work is picked up by a waiting submitter's
    /// next poll tick or the next fresh submit).
    fn drain(&self) {
        let mut guard = LeaderGuard {
            state: &self.state,
            metrics: &self.metrics,
            lane: self.lane,
            armed: true,
        };
        let shard = self.metrics.lane(self.lane);
        for _ in 0..MAX_LEADER_ROUNDS {
            let mut batch = {
                let mut state = self.state.lock().expect("queue lock");
                if state.pending.is_empty() {
                    break;
                }
                std::mem::take(&mut state.pending)
            };
            // Queue-wait accounting happens at leader pickup: the
            // always-on metric uses the wall clock carried by each item;
            // traced items additionally get an admission-wait span and,
            // after the batch runs, a batch-drain span.
            let pickup_us = if self.tracer.is_enabled() {
                self.tracer.now_us()
            } else {
                0
            };
            shard
                .queue_depth
                .fetch_sub(batch.len() as u64, Ordering::Relaxed);
            let mut traced: Vec<u64> = Vec::new();
            for p in &batch {
                shard.queue_wait.record(p.enqueued.elapsed(), true);
                if p.job.trace_id != 0 && p.enqueued_us != 0 {
                    self.tracer.record(
                        p.job.trace_id,
                        SpanKind::AdmissionWait,
                        p.enqueued_us,
                        pickup_us,
                    );
                    traced.push(p.job.trace_id);
                }
            }
            // Work whose token fired while it queued (deadline expired,
            // or its client disconnected) is refused here — never
            // executed. Queue wait counts against the deadline by
            // construction: the token was armed before admission.
            batch.retain(|p| !self.refuse_if_stopped(p, "expired in the admission queue"));
            self.run_batch(batch);
            if !traced.is_empty() {
                let end_us = self.tracer.now_us();
                for id in traced {
                    self.tracer
                        .record(id, SpanKind::BatchDrain, pickup_us, end_us);
                }
            }
        }
        let mut state = self.state.lock().expect("queue lock");
        state.leader_running = false;
        guard.armed = false;
    }

    /// Runs one drained batch, honoring update barriers at the scope
    /// the [`BarrierMode`] sets.
    ///
    /// **Per-session** (default): the batch is partitioned into
    /// per-session lanes (`Arc::ptr_eq` identity, arrival order
    /// preserved within each lane); inside a lane, updates are barriers
    /// — same-session work before the update answers against the old
    /// facts — and *adjacent* updates coalesce into one
    /// [`Session::apply_updates`] call (one write-lock acquisition, one
    /// epoch bump, per-delta summaries). Lanes never split each other.
    ///
    /// **Global**: the pre-relaxation semantics — items run in arrival
    /// order as maximal update-free segments; every update flushes the
    /// whole segment before it and applies alone.
    fn run_batch(&self, batch: Vec<Pending>) {
        let shard = self.metrics.lane(self.lane);
        shard.batches.fetch_add(1, Ordering::Relaxed);
        shard
            .batched_items
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        match self.barrier_mode {
            BarrierMode::Global => self.run_lane(batch, false),
            BarrierMode::PerSession => {
                let mut lanes: Vec<Vec<Pending>> = Vec::new();
                for p in batch {
                    let session = p.job.work.session();
                    match lanes
                        .iter_mut()
                        .find(|lane| Arc::ptr_eq(lane[0].job.work.session(), session))
                    {
                        Some(lane) => lane.push(p),
                        None => lanes.push(vec![p]),
                    }
                }
                for lane in lanes {
                    self.run_lane(lane, true);
                }
            }
        }
    }

    /// Runs a lane in arrival order: maximal update-free segments
    /// alternate with **runs of adjacent updates**, each run applied by
    /// one [`Batcher::flush_updates`]. With `coalesce` off (global
    /// barriers) every update is a run of its own.
    fn run_lane(&self, lane: Vec<Pending>, coalesce: bool) {
        let shard = self.metrics.lane(self.lane);
        let mut segment: Vec<Pending> = Vec::new();
        let mut updates: Vec<Pending> = Vec::new();
        for p in lane {
            if matches!(p.job.work, Work::Update { .. }) {
                if !segment.is_empty() {
                    shard.barrier_flushes.fetch_add(1, Ordering::Relaxed);
                    self.run_segment(std::mem::take(&mut segment));
                }
                if !coalesce {
                    self.flush_updates(&mut updates);
                }
                updates.push(p);
            } else {
                self.flush_updates(&mut updates);
                segment.push(p);
            }
        }
        self.flush_updates(&mut updates);
        self.run_segment(segment);
    }

    /// Applies a run of same-session updates as one write-lock
    /// acquisition and one epoch bump, answering each waiter with its
    /// own summary. This is the single mutation choke point: with a
    /// durability layer configured the run is logged and fsync'd
    /// *before* it applies (the fsync recorded as a span on each
    /// waiter's trace id).
    fn flush_updates(&self, run: &mut Vec<Pending>) {
        // Last pre-commit token check: an update whose token fired
        // between pickup and here is excluded before anything is
        // WAL-logged or applied, so a cancelled update is
        // indistinguishable from one never submitted. Past this point
        // the run is committed — cancellation never bisects an update.
        run.retain(|p| !self.refuse_if_stopped(p, "update refused before its commit point"));
        let Some(first) = run.first() else {
            return;
        };
        let session = Arc::clone(first.job.work.session());
        if run.len() > 1 {
            self.metrics
                .lane(self.lane)
                .updates_coalesced
                .fetch_add(run.len() as u64 - 1, Ordering::Relaxed);
        }
        let mut deltas = Vec::with_capacity(run.len());
        let mut trace_ids = Vec::with_capacity(run.len());
        for p in run.iter_mut() {
            let Work::Update { insert, delete, .. } = &mut p.job.work else {
                unreachable!("only updates are buffered into a run");
            };
            deltas.push((std::mem::take(insert), std::mem::take(delete)));
            trace_ids.push(p.job.trace_id);
        }
        let results = match &self.durability {
            Some(d) => d.apply_updates_traced(&session, &deltas, self.trace_ctx(&trace_ids)),
            None => session.apply_updates(&deltas),
        };
        for (result, p) in results.into_iter().zip(run.drain(..)) {
            let _ = p.tx.send(Outcome::Update(result));
        }
    }

    /// Runs one update-free segment: group per session, coalesce
    /// identical items, run the batch engines, fan answers out.
    fn run_segment(&self, batch: Vec<Pending>) {
        if batch.is_empty() {
            return;
        }
        // Group by session identity, preserving arrival order.
        struct Group {
            session: Arc<Session>,
            checks: Vec<(usize, usize, Sender<Outcome>, CancelToken)>,
            evals: Vec<(usize, u64, Sender<Outcome>, CancelToken)>,
        }
        let mut groups: Vec<Group> = Vec::new();
        for p in batch {
            let session = p.job.work.session();
            let i = match groups.iter().position(|g| Arc::ptr_eq(&g.session, session)) {
                Some(i) => i,
                None => {
                    groups.push(Group {
                        session: Arc::clone(session),
                        checks: Vec::new(),
                        evals: Vec::new(),
                    });
                    groups.len() - 1
                }
            };
            let Pending { job, tx, .. } = p;
            match job.work {
                Work::Check { q, q_prime, .. } => {
                    groups[i].checks.push((q, q_prime, tx, job.cancel))
                }
                Work::Eval { q, .. } => groups[i].evals.push((q, job.trace_id, tx, job.cancel)),
                Work::Update { .. } => unreachable!("updates are barriers, not segment items"),
            }
        }

        for group in groups {
            self.run_checks(&group.session, group.checks);
            self.run_evals(&group.session, group.evals);
        }
    }

    fn run_checks(
        &self,
        session: &Session,
        checks: Vec<(usize, usize, Sender<Outcome>, CancelToken)>,
    ) {
        if checks.is_empty() {
            return;
        }
        // Coalesce identical pairs: one computation, many answers. The
        // computation runs under the FIRST waiter's token; coalesced
        // riders share its fate (documented trade — a rider with a
        // longer deadline may see the representative's cancellation,
        // but the shared chase stays live for every other pair).
        let mut unique: Vec<(ContainmentPair, CancelToken)> = Vec::new();
        let mut waiters: FxHashMap<(usize, usize), Vec<Sender<Outcome>>> = FxHashMap::default();
        for (q, q_prime, tx, cancel) in checks {
            let entry = waiters.entry((q, q_prime)).or_default();
            if entry.is_empty() {
                unique.push((ContainmentPair { q, q_prime }, cancel));
            } else {
                self.metrics
                    .lane(self.lane)
                    .coalesced_items
                    .fetch_add(1, Ordering::Relaxed);
            }
            entry.push(tx);
        }

        let program = session.program();
        let answers = cqchase_par::check_batch(
            &program.queries,
            &unique,
            &program.deps,
            &program.catalog,
            &session.opts,
            BatchOptions::with_threads(self.threads),
        );

        for ((pair, cancel), answer) in unique.iter().zip(answers) {
            let txs = waiters
                .remove(&(pair.q, pair.q_prime))
                .expect("every unique pair has waiters");
            if let Err(e @ ContainmentEngineError::Cancelled { .. }) = &answer {
                // A cancelled check never certifies anything and never
                // enters the semantic cache; every waiter of the pair
                // is told, with the partial-progress detail.
                let detail = e.to_string();
                for tx in txs {
                    let _ = tx.send(self.cancelled_outcome(cancel, &detail));
                }
                continue;
            }
            let summary = match answer {
                Ok(a) => {
                    let s = CheckSummary {
                        contained: a.contained,
                        exact: a.exact,
                        empty_chase: a.empty_chase,
                        class: session.class_name().to_owned(),
                        bound: a.bound,
                    };
                    let mut cache = session.sem_cache.lock().expect("semantic cache lock");
                    cache.insert(
                        session.sigma_fp(),
                        session.query(pair.q),
                        session.query(pair.q_prime),
                        s.clone(),
                    );
                    Ok(s)
                }
                Err(e) => Err(e.to_string()),
            };
            for (i, tx) in txs.into_iter().enumerate() {
                // A waiter that hung up (connection died) is not an
                // error worth surfacing.
                let _ = tx.send(Outcome::Check {
                    summary: summary.clone(),
                    cached: false,
                    coalesced: i > 0,
                });
            }
        }
    }

    fn run_evals(&self, session: &Session, evals: Vec<(usize, u64, Sender<Outcome>, CancelToken)>) {
        if evals.is_empty() {
            return;
        }
        // As in `run_checks`: the computation runs under the first
        // waiter's token, coalesced riders share its fate.
        let mut waiters: FxHashMap<usize, Vec<(u64, Sender<Outcome>)>> = FxHashMap::default();
        let mut unique: Vec<(usize, CancelToken)> = Vec::new();
        for (q, trace_id, tx, cancel) in evals {
            let entry = waiters.entry(q).or_default();
            if entry.is_empty() {
                unique.push((q, cancel));
            } else {
                self.metrics
                    .lane(self.lane)
                    .coalesced_items
                    .fetch_add(1, Ordering::Relaxed);
            }
            entry.push((trace_id, tx));
        }
        for (q, cancel) in unique {
            let ids: Vec<u64> = waiters
                .get(&q)
                .expect("every unique query has waiters")
                .iter()
                .map(|(id, _)| *id)
                .collect();
            let answer = session.eval_request(q, &cancel, self.trace_ctx(&ids));
            let txs = waiters.remove(&q).expect("every unique query has waiters");
            let Some((rows, cached, annotation)) = answer else {
                // Cancelled mid-join: the partial rows were discarded
                // inside the session, nothing was cached.
                for (_, tx) in txs {
                    let _ = tx.send(self.cancelled_outcome(&cancel, "eval cancelled mid-join"));
                }
                continue;
            };
            if let Some(ann) = annotation {
                let mut map = self.annotations.lock().expect("annotations lock");
                for &id in ids.iter().filter(|id| **id != 0) {
                    map.insert(id, ann.clone());
                }
            }
            for (i, (_, tx)) in txs.into_iter().enumerate() {
                let _ = tx.send(Outcome::Eval {
                    rows: rows.clone(),
                    cached,
                    coalesced: i > 0,
                });
            }
        }
    }
}

/// Renders evaluation rows for the wire: each row an array of rendered
/// values (constants print as themselves, labelled nulls as `⊥n`).
pub fn rows_to_value(rows: &[Tuple]) -> Value {
    Value::Array(
        rows.iter()
            .map(|row| Value::Array(row.iter().map(|v| Value::from(v.to_string())).collect()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::facts_db;

    fn test_session() -> Arc<Session> {
        Arc::new(
            Session::new(
                "t",
                "relation R(a, b).
                 ind R[2] <= R[1].
                 A(x) :- R(x, y).
                 B(x) :- R(x, y), R(y, z).
                 Biso(u) :- R(u, w), R(w, v).
                 C(x) :- R(y, x).
                 R(1, 2). R(2, 3).",
                64,
                64,
            )
            .unwrap(),
        )
    }

    #[test]
    fn single_submit_matches_direct_engine() {
        let s = test_session();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(1, Arc::clone(&metrics));
        let out = batcher
            .submit(Work::Check {
                session: Arc::clone(&s),
                q: 0,
                q_prime: 1,
            })
            .unwrap();
        let direct = cqchase_core::contained(
            s.query(0),
            s.query(1),
            &s.program().deps,
            &s.program().catalog,
            &s.opts,
        )
        .unwrap();
        match out {
            Outcome::Check {
                summary: Ok(sum),
                cached,
                coalesced,
            } => {
                assert_eq!(sum.contained, direct.contained);
                assert_eq!(sum.exact, direct.exact);
                assert_eq!(sum.bound, direct.bound);
                assert!(!cached && !coalesced);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn semantic_cache_answers_isomorphic_repeat() {
        let s = test_session();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(1, Arc::clone(&metrics));
        let first = batcher
            .submit(Work::Check {
                session: Arc::clone(&s),
                q: 0,
                q_prime: 1, // A ⊆ B
            })
            .unwrap();
        // Biso (index 2) is isomorphic to B: must be a cache hit.
        let second = batcher
            .submit(Work::Check {
                session: Arc::clone(&s),
                q: 0,
                q_prime: 2,
            })
            .unwrap();
        let (
            Outcome::Check {
                summary: Ok(a),
                cached: c1,
                ..
            },
            Outcome::Check {
                summary: Ok(b),
                cached: c2,
                ..
            },
        ) = (first, second)
        else {
            panic!("expected check outcomes");
        };
        assert!(!c1);
        assert!(c2, "isomorphic repeat must hit the semantic cache");
        assert_eq!(a, b);
        assert_eq!(s.sem_cache.lock().unwrap().stats().hits, 1);
    }

    #[test]
    fn eval_and_rendering() {
        let s = test_session();
        let batcher = Batcher::new(1, Arc::new(Metrics::new()));
        let out = batcher
            .submit(Work::Eval {
                session: Arc::clone(&s),
                q: 0,
            })
            .unwrap();
        let Outcome::Eval {
            rows, coalesced, ..
        } = out
        else {
            panic!("expected eval outcome");
        };
        assert!(!coalesced);
        let direct = cqchase_storage::evaluate(s.query(0), &facts_db(&s));
        assert_eq!(rows, direct);
        let rendered = rows_to_value(&rows);
        assert_eq!(rendered[0][0], "1");
    }

    #[test]
    fn update_is_an_epoch_barrier_and_invalidates_eval_rows() {
        use cqchase_ir::Constant;
        let s = test_session();
        let batcher = Batcher::new(1, Arc::new(Metrics::new()));
        let eval = |batcher: &Batcher| match batcher
            .submit(Work::Eval {
                session: Arc::clone(&s),
                q: 0,
            })
            .unwrap()
        {
            Outcome::Eval { rows, cached, .. } => (rows.len(), cached),
            other => panic!("unexpected outcome {other:?}"),
        };
        assert_eq!(eval(&batcher), (2, false));
        assert_eq!(eval(&batcher), (2, true), "second eval rides the row cache");
        let out = batcher
            .submit(Work::Update {
                session: Arc::clone(&s),
                insert: vec![("R".into(), vec![Constant::Int(8), Constant::Int(9)])],
                delete: vec![("R".into(), vec![Constant::Int(1), Constant::Int(2)])],
            })
            .unwrap();
        let Outcome::Update(Ok(sum)) = out else {
            panic!("expected update outcome, got {out:?}");
        };
        assert_eq!((sum.inserted, sum.deleted, sum.epoch), (1, 1, 1));
        // Post-barrier eval sees the new facts, uncached.
        assert_eq!(eval(&batcher), (2, false));
        let rows = match batcher
            .submit(Work::Eval {
                session: Arc::clone(&s),
                q: 0,
            })
            .unwrap()
        {
            Outcome::Eval { rows, .. } => rows,
            other => panic!("unexpected outcome {other:?}"),
        };
        let direct = cqchase_storage::evaluate(s.query(0), &facts_db(&s));
        assert_eq!(rows, direct);
        // A bad update reports its error without wedging the queue.
        let out = batcher
            .submit(Work::Update {
                session: Arc::clone(&s),
                insert: vec![("NOPE".into(), vec![Constant::Int(1)])],
                delete: vec![],
            })
            .unwrap();
        assert!(matches!(out, Outcome::Update(Err(_))));
        assert_eq!(eval(&batcher), (2, true));
    }

    #[test]
    fn per_session_barrier_never_splits_other_sessions() {
        use cqchase_ir::Constant;
        use std::sync::atomic::Ordering;
        let a = test_session();
        let b = test_session();
        let upd = |s: &Arc<Session>, k: i64| Work::Update {
            session: Arc::clone(s),
            insert: vec![("R".into(), vec![Constant::Int(100 + k), Constant::Int(k)])],
            delete: vec![],
        };
        let eval_b = || Work::Eval {
            session: Arc::clone(&b),
            q: 0,
        };
        // One batch interleaving B-evals with two adjacent A-updates.
        let script = |s: &Arc<Session>| vec![eval_b(), upd(s, 1), upd(s, 2), eval_b(), eval_b()];

        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(1, Arc::clone(&metrics));
        let outs: Vec<Outcome> = batcher
            .submit_many(script(&a))
            .into_iter()
            .map(Result::unwrap)
            .collect();
        // All three B evals ran in ONE segment: the identical repeats
        // coalesced instead of being split apart by A's barrier.
        let coalesced: Vec<bool> = outs
            .iter()
            .filter_map(|o| match o {
                Outcome::Eval { coalesced, .. } => Some(*coalesced),
                _ => None,
            })
            .collect();
        assert_eq!(coalesced, [false, true, true]);
        // A's barrier flushed no B segment (B work all ran together),
        // and the adjacent A updates merged: one run of 2 counts 1.
        assert_eq!(metrics.lane(0).barrier_flushes.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.lane(0).updates_coalesced.load(Ordering::Relaxed), 1);
        // Merged updates: per-delta summaries, one shared epoch bump.
        let sums: Vec<_> = outs
            .iter()
            .filter_map(|o| match o {
                Outcome::Update(Ok(s)) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!((sums[0].inserted, sums[1].inserted), (1, 1));
        assert_eq!((sums[0].epoch, sums[1].epoch), (1, 1));
        assert_eq!(a.facts_epoch(), 1, "two merged updates, one epoch");

        // The same script under global barriers: B's repeats land in
        // separate segments (no coalescing across the A barrier) and
        // each A update mints its own epoch.
        let a2 = test_session();
        let b2 = test_session();
        let metrics2 = Arc::new(Metrics::new());
        let global = Batcher::with_barrier_mode(1, Arc::clone(&metrics2), BarrierMode::Global);
        let script2 = vec![
            Work::Eval {
                session: Arc::clone(&b2),
                q: 0,
            },
            upd(&a2, 1),
            upd(&a2, 2),
            Work::Eval {
                session: Arc::clone(&b2),
                q: 0,
            },
            Work::Eval {
                session: Arc::clone(&b2),
                q: 0,
            },
        ];
        let outs2: Vec<Outcome> = global
            .submit_many(script2)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(metrics2.lane(0).barrier_flushes.load(Ordering::Relaxed), 1);
        assert_eq!(
            metrics2.lane(0).updates_coalesced.load(Ordering::Relaxed),
            0
        );
        assert_eq!(a2.facts_epoch(), 2, "global barriers bump per update");
        // The observable answers agree between the modes.
        for (x, y) in outs.iter().zip(outs2.iter()) {
            match (x, y) {
                (Outcome::Eval { rows: r1, .. }, Outcome::Eval { rows: r2, .. }) => {
                    assert_eq!(r1, r2)
                }
                (Outcome::Update(Ok(s1)), Outcome::Update(Ok(s2))) => {
                    assert_eq!(
                        (s1.inserted, s1.deleted, s1.facts),
                        (s2.inserted, s2.deleted, s2.facts)
                    )
                }
                other => panic!("outcome kinds diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn submit_many_drains_one_batch_in_order() {
        use std::sync::atomic::Ordering;
        let s = test_session();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(1, Arc::clone(&metrics));
        let outs = batcher.submit_many(vec![
            Work::Eval {
                session: Arc::clone(&s),
                q: 0,
            },
            Work::Check {
                session: Arc::clone(&s),
                q: 0,
                q_prime: 1,
            },
        ]);
        assert_eq!(outs.len(), 2);
        assert!(matches!(outs[0], Ok(Outcome::Eval { .. })));
        assert!(matches!(outs[1], Ok(Outcome::Check { .. })));
        assert_eq!(metrics.lane(0).batches.load(Ordering::Relaxed), 1);
        // A semantic-cache hit short-circuits without enqueueing.
        let outs = batcher.submit_many(vec![Work::Check {
            session: Arc::clone(&s),
            q: 0,
            q_prime: 1,
        }]);
        assert!(
            matches!(&outs[0], Ok(Outcome::Check { cached: true, .. })),
            "{outs:?}"
        );
        assert_eq!(metrics.lane(0).batches.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn concurrent_submits_coalesce_and_agree() {
        let s = test_session();
        let metrics = Arc::new(Metrics::new());
        let batcher = Arc::new(Batcher::new(2, Arc::clone(&metrics)));
        let mut handles = Vec::new();
        for i in 0..8usize {
            let batcher = Arc::clone(&batcher);
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                // Everyone asks (A ⊆ B) or (B ⊆ A) — at most 2 unique
                // computations regardless of thread count.
                let (q, qp) = if i % 2 == 0 { (0, 1) } else { (1, 0) };
                batcher
                    .submit(Work::Check {
                        session: s,
                        q,
                        q_prime: qp,
                    })
                    .unwrap()
            }));
        }
        let outcomes: Vec<Outcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (i, o) in outcomes.iter().enumerate() {
            let Outcome::Check {
                summary: Ok(sum), ..
            } = o
            else {
                panic!("outcome {i} errored: {o:?}");
            };
            // A ⊆ B and B ⊆ A both hold under the cyclic IND.
            assert!(sum.contained, "outcome {i}");
        }
        use std::sync::atomic::Ordering;
        let computed = 8
            - metrics.lane(0).coalesced_items.load(Ordering::Relaxed)
            - s.sem_cache.lock().unwrap().stats().hits;
        assert!(
            computed >= 2,
            "both distinct questions must actually compute"
        );
    }

    #[test]
    fn fired_tokens_refuse_work_without_running_it() {
        use cqchase_ir::Constant;
        use std::sync::atomic::Ordering;
        let s = test_session();
        let metrics = Arc::new(Metrics::new());
        let batcher = Batcher::new(1, Arc::clone(&metrics));
        let fired = CancelToken::unlimited();
        fired.cancel();
        let expired = CancelToken::with_deadline_ms(0);
        // A disconnected check, an expired eval, an expired update, and
        // a live eval, submitted as one batch.
        let outs: Vec<Outcome> = batcher
            .submit_many(vec![
                (
                    Work::Check {
                        session: Arc::clone(&s),
                        q: 0,
                        q_prime: 1,
                    },
                    fired,
                ),
                (
                    Work::Eval {
                        session: Arc::clone(&s),
                        q: 0,
                    },
                    expired.clone(),
                ),
                (
                    Work::Update {
                        session: Arc::clone(&s),
                        insert: vec![("R".into(), vec![Constant::Int(7), Constant::Int(8)])],
                        delete: vec![],
                    },
                    expired,
                ),
                (
                    Work::Eval {
                        session: Arc::clone(&s),
                        q: 0,
                    },
                    CancelToken::unlimited(),
                ),
            ])
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert!(
            matches!(
                &outs[0],
                Outcome::Cancelled {
                    disconnect: true,
                    ..
                }
            ),
            "{outs:?}"
        );
        assert!(
            matches!(
                &outs[1],
                Outcome::Cancelled {
                    disconnect: false,
                    ..
                }
            ),
            "{outs:?}"
        );
        assert!(
            matches!(
                &outs[2],
                Outcome::Cancelled {
                    disconnect: false,
                    ..
                }
            ),
            "{outs:?}"
        );
        assert!(matches!(&outs[3], Outcome::Eval { .. }), "{outs:?}");
        // The refused update applied nothing: epoch and facts untouched.
        assert_eq!(s.facts_epoch(), 0);
        assert_eq!(s.facts_len(), 2);
        assert_eq!(metrics.cancelled_disconnect.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.deadline_exceeded.load(Ordering::Relaxed), 2);
        // The session still answers normally afterwards.
        let out = batcher
            .submit(Work::Check {
                session: Arc::clone(&s),
                q: 0,
                q_prime: 1,
            })
            .unwrap();
        assert!(matches!(out, Outcome::Check { summary: Ok(_), .. }));
    }

    #[test]
    fn queue_recovers_after_leader_panic() {
        let s = test_session();
        let batcher = Arc::new(Batcher::new(1, Arc::new(Metrics::new())));
        let (b2, s2) = (Arc::clone(&batcher), Arc::clone(&s));
        let poisoned = std::thread::spawn(move || {
            // Out-of-range query index: the leader panics inside
            // run_batch while holding leadership.
            let _ = b2.submit(Work::Eval {
                session: s2,
                q: 999,
            });
        });
        assert!(
            poisoned.join().is_err(),
            "the poison submitter's own thread panics"
        );
        // The LeaderGuard must have released leadership: fresh work is
        // served normally instead of hanging forever.
        let out = batcher
            .submit(Work::Check {
                session: Arc::clone(&s),
                q: 0,
                q_prime: 1,
            })
            .unwrap();
        assert!(matches!(out, Outcome::Check { summary: Ok(_), .. }));
    }
}
