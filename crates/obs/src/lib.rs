//! Request tracing and unified metrics exposition.
//!
//! Three independent pieces live here, all dependency-free on the rest
//! of the workspace so every layer (service, durability, benches) can
//! use them without cycles:
//!
//! * **[`Tracer`]** — a lock-free span recorder. Producers on the
//!   request hot path write timed spans (admission-queue wait, batch
//!   drain, plan compile vs cache hit, join execution, cache lookups,
//!   durability fsync) into a pre-allocated ring of atomic slots; the
//!   slow-query logger reads a request's spans back out by trace id.
//!   When tracing is **off**, every producer call is a single relaxed
//!   atomic load and an early return — no allocation, no time reads,
//!   no stores.
//! * **[`prom`]** — rendering of the service's JSON `stats` snapshot
//!   into Prometheus-style exposition text, plus the inverse parser and
//!   the canonical numeric flattening both sides are defined against
//!   (so "text output parses back to the snapshot" is a testable
//!   pure-function property).
//! * **[`hist`]** — the lock-free power-of-two µs latency histogram
//!   behind every `histogram_us_pow2` array in that snapshot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod prom;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The span vocabulary: every timed section a traced request can pass
/// through, end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// The whole request, accept-to-reply (the root span).
    Request = 0,
    /// Time spent queued in the admission queue before a batch leader
    /// picked the item up.
    AdmissionWait = 1,
    /// The batch-leader drain that executed the item (shared by every
    /// item in the batch).
    BatchDrain = 2,
    /// Semantic (isomorphism-class) result-cache probe.
    SemCacheLookup = 3,
    /// Epoch-tagged eval result-cache probe.
    EvalCacheLookup = 4,
    /// Query plan compilation (a plan-cache miss or drift replan).
    PlanCompile = 5,
    /// Query plan served from the plan cache without compiling.
    PlanCacheHit = 6,
    /// Join execution (the engine actually scanning candidates).
    JoinExec = 7,
    /// Durability WAL append + fsync before acknowledgement.
    Fsync = 8,
    /// The interval between a request's cancellation firing (deadline
    /// expiry or client disconnect) and its structured error being
    /// written — how long the cooperative unwind actually took.
    Cancelled = 9,
}

/// Every [`SpanKind`], in wire order (for exposition and docs).
pub const ALL_SPAN_KINDS: [SpanKind; 10] = [
    SpanKind::Request,
    SpanKind::AdmissionWait,
    SpanKind::BatchDrain,
    SpanKind::SemCacheLookup,
    SpanKind::EvalCacheLookup,
    SpanKind::PlanCompile,
    SpanKind::PlanCacheHit,
    SpanKind::JoinExec,
    SpanKind::Fsync,
    SpanKind::Cancelled,
];

impl SpanKind {
    /// Stable lower-snake name (the slow-query log's `kind` field).
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::AdmissionWait => "admission_wait",
            SpanKind::BatchDrain => "batch_drain",
            SpanKind::SemCacheLookup => "sem_cache_lookup",
            SpanKind::EvalCacheLookup => "eval_cache_lookup",
            SpanKind::PlanCompile => "plan_compile",
            SpanKind::PlanCacheHit => "plan_cache_hit",
            SpanKind::JoinExec => "join_exec",
            SpanKind::Fsync => "fsync",
            SpanKind::Cancelled => "cancelled",
        }
    }

    fn from_u64(v: u64) -> Option<SpanKind> {
        ALL_SPAN_KINDS.into_iter().find(|k| *k as u64 == v)
    }
}

/// One recorded span, decoded out of the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The request this span belongs to.
    pub trace_id: u64,
    /// Which timed section it measures.
    pub kind: SpanKind,
    /// Start, in microseconds of the tracer's clock ([`Tracer::now_us`]).
    pub start_us: u64,
    /// End, same clock.
    pub end_us: u64,
}

impl Span {
    /// The span's duration in microseconds (saturating).
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// One ring slot: a seqlock sequence word plus the span fields. Writers
/// bump `seq` to odd, store the fields, bump back to even; readers
/// retry/skip on an odd or changed sequence, so a torn concurrent
/// overwrite is *skipped*, never misread.
#[derive(Debug, Default)]
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    kind: AtomicU64,
    start_us: AtomicU64,
    end_us: AtomicU64,
}

/// A lock-free, fixed-capacity span recorder.
///
/// All storage is pre-allocated at construction. Recording a span is
/// wait-free: one `fetch_add` to claim a slot and a handful of atomic
/// stores. The ring overwrites oldest-first, so it holds the most
/// recent `capacity` spans — sized so that any single request's spans
/// comfortably fit (a request records well under 16 spans; the default
/// service capacity is 4096).
///
/// Trace ids are non-zero; `0` is the sentinel for "untraced" and is
/// never returned by [`Tracer::next_trace_id`] while enabled, so
/// producers can thread a plain `u64` through queues without an
/// `Option`.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    next_id: AtomicU64,
    cursor: AtomicU64,
    slots: Box<[Slot]>,
    epoch: Instant,
}

impl Tracer {
    /// A tracer with room for `capacity` spans (at least 1), initially
    /// disabled.
    pub fn new(capacity: usize) -> Tracer {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, Slot::default);
        Tracer {
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
            epoch: Instant::now(),
        }
    }

    /// Turns recording on or off. Off is the zero-cost state: every
    /// producer entry point early-returns on one relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Microseconds since this tracer was created — the clock every
    /// span's `start_us`/`end_us` is expressed in.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// A fresh non-zero trace id, or `0` ("untraced") while disabled.
    pub fn next_trace_id(&self) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records one timed span. A no-op while disabled or for the
    /// untraced id `0`.
    pub fn record(&self, trace_id: u64, kind: SpanKind, start_us: u64, end_us: u64) {
        if trace_id == 0 || !self.is_enabled() {
            return;
        }
        let at = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        let slot = &self.slots[at];
        slot.seq.fetch_add(1, Ordering::Acquire);
        slot.trace_id.store(trace_id, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.start_us.store(start_us, Ordering::Relaxed);
        slot.end_us.store(end_us, Ordering::Relaxed);
        slot.seq.fetch_add(1, Ordering::Release);
    }

    /// All spans currently in the ring for `trace_id`, sorted by start
    /// time (ties broken by kind). Spans being overwritten concurrently
    /// are skipped, never misread. O(capacity) — called only off the
    /// hot path (slow-query logging, tests).
    pub fn spans_for(&self, trace_id: u64) -> Vec<Span> {
        let mut out = Vec::new();
        if trace_id == 0 {
            return out;
        }
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before % 2 != 0 {
                continue;
            }
            let tid = slot.trace_id.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let start_us = slot.start_us.load(Ordering::Relaxed);
            let end_us = slot.end_us.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != before {
                continue;
            }
            if tid != trace_id {
                continue;
            }
            let Some(kind) = SpanKind::from_u64(kind) else {
                continue;
            };
            out.push(Span {
                trace_id: tid,
                kind,
                start_us,
                end_us,
            });
        }
        out.sort_by_key(|s| (s.start_us, s.kind));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(16);
        assert!(!t.is_enabled());
        assert_eq!(t.next_trace_id(), 0);
        t.record(7, SpanKind::JoinExec, 1, 2);
        assert!(t.spans_for(7).is_empty());
    }

    #[test]
    fn spans_round_trip_by_trace_id() {
        let t = Tracer::new(16);
        t.set_enabled(true);
        let a = t.next_trace_id();
        let b = t.next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        t.record(a, SpanKind::Request, 0, 100);
        t.record(b, SpanKind::Request, 5, 50);
        t.record(a, SpanKind::JoinExec, 10, 40);
        let spans = t.spans_for(a);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::Request);
        assert_eq!(spans[1].kind, SpanKind::JoinExec);
        assert_eq!(spans[1].dur_us(), 30);
        assert_eq!(t.spans_for(b).len(), 1);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let t = Tracer::new(4);
        t.set_enabled(true);
        let id = t.next_trace_id();
        for i in 0..8u64 {
            t.record(id, SpanKind::Fsync, i, i + 1);
        }
        let spans = t.spans_for(id);
        assert_eq!(spans.len(), 4);
        // Only the most recent four survive.
        assert_eq!(spans[0].start_us, 4);
        assert_eq!(spans[3].start_us, 7);
    }

    #[test]
    fn concurrent_writers_never_corrupt_reads() {
        let t = Arc::new(Tracer::new(64));
        t.set_enabled(true);
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let id = w * 10_000 + i + 1;
                    t.record(id, SpanKind::BatchDrain, i, i + w);
                }
            }));
        }
        for i in 0..200 {
            // Reads interleaved with the writers must only ever see
            // well-formed spans.
            for s in t.spans_for(10_000 + i + 1) {
                assert_eq!(s.kind, SpanKind::BatchDrain);
                assert!(s.end_us >= s.start_us);
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        let id = 1u64; // writer 0, i = 0
        for s in t.spans_for(id) {
            assert_eq!(s.start_us, 0);
        }
    }

    #[test]
    fn span_kind_names_are_stable() {
        for k in ALL_SPAN_KINDS {
            assert_eq!(SpanKind::from_u64(k as u64), Some(k));
            assert!(!k.as_str().is_empty());
        }
        assert_eq!(SpanKind::AdmissionWait.as_str(), "admission_wait");
        assert_eq!(SpanKind::from_u64(255), None);
    }
}
