//! # cqchase-service — the resident containment/evaluation server
//!
//! Every consumer of the library pays index/plan build cost per
//! process. The ROADMAP's serving scenario wants the opposite shape —
//! the exemplar scheduler/kg-service repos all converge on it — a
//! long-running process owning warm state behind a small request
//! protocol. Johnson & Klug's reduction makes the residency unusually
//! profitable here: every operation (containment, evaluation,
//! classification) is a hom-search against state the server keeps hot.
//!
//! * [`proto`] — the wire protocol: one JSON object per line
//!   (`register`, `update`, `check`, `eval`, `classify`, `stats`,
//!   `shutdown`), on the offline `serde_json` shim;
//! * [`session`] — named sessions: catalog + Σ + queries registered
//!   once and served over warm `DbIndex` / bounded `PlanCache` state;
//!   the **facts are live** — `update` deltas flow through incremental
//!   index maintenance under a facts epoch that invalidates exactly the
//!   eval-dependent caches (containment answers and satisfiable plans
//!   survive);
//! * [`catalog`] — the shared immutable catalog layer: sessions
//!   registering the same program attach to one refcounted
//!   `FrozenCatalog` (parsed program, Σ class) and one `Arc<Facts>`
//!   (database, index, and the plan cache compiled against it), and
//!   promote to private facts copy-on-write (`Arc::make_mut`) at their
//!   first effective update;
//! * [`batch`] — the admission/batching queue: concurrent requests
//!   coalesce into `cqchase-par` batch runs (chase sharing, identical
//!   in-flight requests answered once); updates are epoch barriers that
//!   serialize against in-flight batch compute;
//! * [`lanes`] — sharded session lanes: session names hash onto N
//!   independent admission queues, each with its own batch leader,
//!   thread-pool slice, and metrics shard, so many-tenant traffic stops
//!   contending on one queue mutex;
//! * [`cache`] — the semantic cache: containment answers keyed by the
//!   *isomorphism class* of `(Q, Q′, Σ)` via [`cqchase_core::iso_key`],
//!   verified by [`cqchase_core::is_isomorphic`], bounded LRU;
//! * [`durable`] — crash-safe persistence over `cqchase-durability`:
//!   with a data directory configured, registrations and update batches
//!   are write-ahead logged (fsync **before** acknowledgement), the
//!   registry snapshots/restores across restarts, and a torn WAL tail
//!   from a crash mid-append is recovered cleanly;
//! * [`metrics`] — lock-free per-endpoint counters and latency
//!   histograms behind the `stats` endpoint, with a Prometheus-style
//!   text exposition of the same payload behind `metrics`
//!   (`cqchase-obs`), per-request span tracing, and a slow-query log
//!   (`--slow-query-us`);
//! * [`server`] — the `std::net` TCP server (bounded handler pool,
//!   graceful shutdown);
//! * [`client`] — the blocking client library the CLI (`cqchase serve`
//!   / `cqchase request`) and load generator are built on.
//!
//! Correctness contract: the server returns exactly what the in-process
//! engines return — a multi-client concurrent workload is
//! differential-tested bit-identical to sequential
//! `containment::check` / `eval::evaluate` calls, and the semantic
//! cache never changes an answer (cache-on vs cache-off property
//! tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod catalog;
pub mod client;
pub mod durable;
pub mod lanes;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod session;

pub use batch::{BarrierMode, Batcher, Job, Outcome, Work};
pub use cache::{CacheStats, SemanticCache};
pub use catalog::{CatalogRegistry, Facts, FrozenCatalog, MAX_QUERY_ATOMS};
pub use client::{Client, ClientError, RetryPolicy};
pub use durable::{Durability, RecoveryReport};
pub use lanes::{lane_of, LaneSet};
pub use metrics::Metrics;
pub use proto::{CheckSummary, FactSpec, Op, Request};
pub use server::{default_lanes, ServeOptions, Server};
pub use session::{PlannerCounters, Session, SessionRegistry, UpdateSummary};
