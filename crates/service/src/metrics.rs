//! Server metrics: per-endpoint request counters and latency
//! histograms, plus batching counters — everything the `stats`
//! endpoint reports.
//!
//! All counters are atomics, so the request hot path takes no lock to
//! record a sample. Latencies land in a [`Pow2Histogram`], whose
//! buckets give the snapshot's approximate p50/p99.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cqchase_obs::hist::{quantile_us, Pow2Histogram, BUCKETS};
use serde_json::{json, Map, Value};

use crate::proto::{Op, ALL_OPS};

/// Lock-free counters for one endpoint.
#[derive(Debug, Default)]
pub struct EndpointStats {
    count: AtomicU64,
    errors: AtomicU64,
    total_us: AtomicU64,
    hist: Pow2Histogram,
}

impl EndpointStats {
    /// Records one sample (latency + outcome).
    pub fn record(&self, latency: Duration, ok: bool) {
        let us = latency.as_micros() as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.hist.record_us(us);
    }

    /// Snapshot of the sum of `stats` (one endpoint, or one histogram
    /// sharded over lanes): count, errors, total, mean, p50/p99, and the
    /// raw buckets.
    fn snapshot_sum<'a>(stats: impl IntoIterator<Item = &'a EndpointStats>) -> Value {
        let (mut count, mut errors, mut total_us, mut hist) = (0, 0, 0, [0u64; BUCKETS]);
        for s in stats {
            count += s.count.load(Ordering::Relaxed);
            errors += s.errors.load(Ordering::Relaxed);
            total_us += s.total_us.load(Ordering::Relaxed);
            for (sum, c) in hist.iter_mut().zip(s.hist.counts()) {
                *sum += c;
            }
        }
        let mut m = Map::new();
        m.insert("count".into(), Value::from(count));
        m.insert("errors".into(), Value::from(errors));
        m.insert("total_us".into(), Value::from(total_us));
        if let Some(mean) = total_us.checked_div(count) {
            m.insert("mean_us".into(), Value::from(mean));
            m.insert("p50_us".into(), Value::from(quantile_us(&hist, 0.50)));
            m.insert("p99_us".into(), Value::from(quantile_us(&hist, 0.99)));
        }
        let hist: Vec<Value> = hist.iter().map(|&c| Value::from(c)).collect();
        m.insert("histogram_us_pow2".into(), Value::Array(hist));
        Value::Object(m)
    }

    fn snapshot(&self) -> Value {
        EndpointStats::snapshot_sum([self])
    }
}

/// One lane's slice of the batching metrics, plus a live queue-depth
/// gauge. The shards are the only home of these counters: the global
/// `batching` block and `queue_wait` histogram are their sums, taken at
/// read time, so a hot tenant's lane is distinguishable from its
/// neighbors and the totals cannot drift from the lanes.
#[derive(Debug, Default)]
pub struct LaneShard {
    /// Batches executed by this lane's leader.
    pub batches: AtomicU64,
    /// Work items that went through this lane's batches.
    pub batched_items: AtomicU64,
    /// Items answered by riding an identical in-flight item.
    pub coalesced_items: AtomicU64,
    /// Updates merged into a preceding same-session update's
    /// write-lock acquisition (a run of *n* counts *n − 1*).
    pub updates_coalesced: AtomicU64,
    /// Update-free segments flushed early ahead of an update barrier
    /// (the cost per-session barriers avoid paying for *other*
    /// sessions' work).
    pub barrier_flushes: AtomicU64,
    /// Work items currently enqueued in this lane (gauge: incremented
    /// at admission, decremented at leader pickup).
    pub queue_depth: AtomicU64,
    /// Admission wait per batched work item in this lane (enqueue →
    /// leader pickup); the `errors` column is unused.
    pub queue_wait: EndpointStats,
}

type Counter = fn(&LaneShard) -> &AtomicU64;

/// The per-lane batching counters that also appear summed under
/// `stats.batching`, with their stats keys.
const BATCHING_COUNTERS: [(&str, Counter); 5] = [
    ("batches", |s| &s.batches),
    ("batched_items", |s| &s.batched_items),
    ("coalesced_items", |s| &s.coalesced_items),
    ("updates_coalesced", |s| &s.updates_coalesced),
    ("barrier_flushes", |s| &s.barrier_flushes),
];

impl LaneShard {
    fn snapshot(&self) -> Value {
        let mut m = Map::new();
        for (key, counter) in BATCHING_COUNTERS {
            m.insert(
                key.into(),
                Value::from(counter(self).load(Ordering::Relaxed)),
            );
        }
        m.insert(
            "queue_depth".into(),
            Value::from(self.queue_depth.load(Ordering::Relaxed)),
        );
        m.insert("queue_wait".into(), self.queue_wait.snapshot());
        Value::Object(m)
    }
}

/// All server metrics. One instance lives in the server's shared state.
#[derive(Debug)]
pub struct Metrics {
    start: Instant,
    endpoints: [EndpointStats; ALL_OPS.len()],
    /// Per-lane batching counters and queue-wait histograms (summed at
    /// read time for the global view).
    lanes: Vec<LaneShard>,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Connections refused at the accept loop because the server was
    /// at its connection cap. One counter shared by every lane —
    /// refusal happens before lane routing.
    pub overload_refusals: AtomicU64,
    /// Requests that missed their deadline (refused at leader pickup
    /// already expired, or cancelled mid-run by deadline expiry).
    pub deadline_exceeded: AtomicU64,
    /// Requests cancelled because their client disconnected mid-flight.
    pub cancelled_disconnect: AtomicU64,
    /// Requests refused at dispatch by the pressure watermarks (lane
    /// queue depth or resident bytes), answered with `retry_after_ms`.
    pub shed: AtomicU64,
    /// Cache entries (result rows, plans, semantic-cache answers)
    /// dropped by eviction passes the resident-bytes watermark
    /// triggered.
    pub pressure_evictions: AtomicU64,
    /// Connections dropped because a response write timed out.
    pub write_timeouts: AtomicU64,
    /// How far past its deadline a deadline-carrying request was
    /// answered (µs; 0 for requests answered in time). Bounds the
    /// cancellation check's reaction lag.
    pub deadline_overrun: EndpointStats,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::with_lanes(1)
    }
}

impl Metrics {
    /// Fresh single-lane metrics with the uptime clock starting now.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Fresh metrics sharded over `lanes` admission lanes (at least 1).
    pub fn with_lanes(lanes: usize) -> Metrics {
        Metrics {
            start: Instant::now(),
            endpoints: Default::default(),
            lanes: (0..lanes.max(1)).map(|_| LaneShard::default()).collect(),
            connections: AtomicU64::new(0),
            overload_refusals: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            cancelled_disconnect: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            pressure_evictions: AtomicU64::new(0),
            write_timeouts: AtomicU64::new(0),
            deadline_overrun: EndpointStats::default(),
        }
    }

    /// The shard for lane `i`. Out-of-range lanes (a standalone
    /// `Batcher` built against single-lane metrics) fold onto lane 0
    /// rather than panic.
    pub fn lane(&self, i: usize) -> &LaneShard {
        self.lanes.get(i).unwrap_or(&self.lanes[0])
    }

    /// Number of lane shards.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Records one request's latency and outcome.
    pub fn record(&self, op: Op, latency: Duration, ok: bool) {
        self.endpoints[op.index()].record(latency, ok);
    }

    /// Total requests recorded for `op`.
    pub fn count(&self, op: Op) -> u64 {
        self.endpoints[op.index()].count.load(Ordering::Relaxed)
    }

    /// One batching counter summed over every lane.
    pub fn lane_total(&self, counter: fn(&LaneShard) -> &AtomicU64) -> u64 {
        self.lanes
            .iter()
            .map(|s| counter(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Time since the metrics (and server) started.
    pub fn uptime(&self) -> Duration {
        self.start.elapsed()
    }

    /// The `stats` response body (endpoint table + batching counters +
    /// uptime). Cache counters are appended by the server, which owns
    /// the sessions.
    pub fn snapshot(&self) -> Map<String, Value> {
        let mut endpoints = Map::new();
        for op in ALL_OPS {
            endpoints.insert(op.as_str().into(), self.endpoints[op.index()].snapshot());
        }
        let mut batching = Map::new();
        for (key, counter) in BATCHING_COUNTERS {
            batching.insert(key.into(), Value::from(self.lane_total(counter)));
        }
        let mut lane_detail = Map::new();
        for (i, shard) in self.lanes.iter().enumerate() {
            lane_detail.insert(i.to_string(), shard.snapshot());
        }
        let mut m = Map::new();
        m.insert(
            "uptime_us".into(),
            Value::from(self.start.elapsed().as_micros() as u64),
        );
        m.insert(
            "connections".into(),
            Value::from(self.connections.load(Ordering::Relaxed)),
        );
        m.insert(
            "overload_refusals".into(),
            Value::from(self.overload_refusals.load(Ordering::Relaxed)),
        );
        m.insert("endpoints".into(), Value::Object(endpoints));
        m.insert("batching".into(), Value::Object(batching));
        m.insert(
            "queue_wait".into(),
            EndpointStats::snapshot_sum(self.lanes.iter().map(|s| &s.queue_wait)),
        );
        m.insert(
            "lanes".into(),
            json!({ "count": self.lanes.len(), "detail": lane_detail }),
        );
        let resilience = json!({
            "deadline_exceeded": self.deadline_exceeded.load(Ordering::Relaxed),
            "cancelled_disconnect": self.cancelled_disconnect.load(Ordering::Relaxed),
            "shed": self.shed.load(Ordering::Relaxed),
            "pressure_evictions": self.pressure_evictions.load(Ordering::Relaxed),
            "write_timeouts": self.write_timeouts.load(Ordering::Relaxed),
            "deadline_overrun": self.deadline_overrun.snapshot(),
        });
        m.insert("resilience".into(), resilience);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reports_counts_and_percentiles() {
        let m = Metrics::new();
        for us in [1u64, 2, 4, 100, 10_000] {
            m.record(Op::Check, Duration::from_micros(us), true);
        }
        m.record(Op::Check, Duration::from_micros(50), false);
        m.record(Op::Eval, Duration::from_micros(3), true);
        assert_eq!(m.count(Op::Check), 6);
        let snap = Value::Object(m.snapshot());
        assert_eq!(snap["endpoints"]["check"]["count"], 6u64);
        assert_eq!(snap["endpoints"]["check"]["errors"], 1u64);
        assert_eq!(snap["endpoints"]["eval"]["count"], 1u64);
        assert!(snap["endpoints"]["check"]["p50_us"].as_u64().unwrap() >= 4);
        assert!(snap["endpoints"]["check"]["p99_us"].as_u64().unwrap() >= 8192);
        assert_eq!(snap["endpoints"]["stats"]["count"], 0u64);
    }

    #[test]
    fn lane_shards_appear_in_snapshot() {
        let m = Metrics::with_lanes(2);
        m.lane(1).batches.fetch_add(3, Ordering::Relaxed);
        m.lane(1).queue_wait.record(Duration::from_micros(5), true);
        m.lane(0).barrier_flushes.fetch_add(2, Ordering::Relaxed);
        m.overload_refusals.fetch_add(1, Ordering::Relaxed);
        let snap = Value::Object(m.snapshot());
        assert_eq!(snap["lanes"]["count"], 2u64);
        assert_eq!(snap["lanes"]["detail"]["1"]["batches"], 3u64);
        assert_eq!(snap["lanes"]["detail"]["1"]["queue_wait"]["count"], 1u64);
        assert_eq!(snap["lanes"]["detail"]["0"]["batches"], 0u64);
        assert_eq!(snap["batching"]["batches"], 3u64, "lanes sum to the total");
        assert_eq!(snap["batching"]["barrier_flushes"], 2u64);
        assert_eq!(snap["overload_refusals"], 1u64);
        assert_eq!(
            snap["queue_wait"]["count"], 1u64,
            "lane waits feed the global histogram too"
        );
        // Out-of-range lane indexes fold onto lane 0 instead of panicking.
        assert_eq!(Metrics::new().lane(7).batches.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn resilience_counters_appear_in_snapshot() {
        let m = Metrics::new();
        m.deadline_exceeded.fetch_add(2, Ordering::Relaxed);
        m.cancelled_disconnect.fetch_add(1, Ordering::Relaxed);
        m.shed.fetch_add(3, Ordering::Relaxed);
        m.write_timeouts.fetch_add(1, Ordering::Relaxed);
        m.deadline_overrun.record(Duration::from_micros(40), true);
        let snap = Value::Object(m.snapshot());
        assert_eq!(snap["resilience"]["deadline_exceeded"], 2u64);
        assert_eq!(snap["resilience"]["cancelled_disconnect"], 1u64);
        assert_eq!(snap["resilience"]["shed"], 3u64);
        assert_eq!(snap["resilience"]["pressure_evictions"], 0u64);
        assert_eq!(snap["resilience"]["write_timeouts"], 1u64);
        assert_eq!(snap["resilience"]["deadline_overrun"]["count"], 1u64);
    }

    #[test]
    fn quantiles_of_empty_endpoint_are_absent() {
        let m = Metrics::new();
        let snap = Value::Object(m.snapshot());
        assert!(matches!(
            snap["endpoints"]["register"]["p50_us"],
            Value::Null
        ));
    }
}
