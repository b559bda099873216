//! # cqchase-par — the parallel batch execution layer
//!
//! The decision procedures in `cqchase-core` and the evaluator in
//! `cqchase-storage` answer one question at a time. A serving system
//! answers millions: batches of containment checks over a schema's
//! dependency set, batches of query evaluations over one instance. This
//! crate turns the sequential batch engines into parallel ones without
//! changing a single answer:
//!
//! * [`pool`] — the hand-rolled executor: scoped `std::thread` workers
//!   that self-schedule chunks off a shared atomic injector (the
//!   work-stealing discipline collapsed to its single-producer core),
//!   results reassembled in order over an `mpsc` channel, plus a
//!   persistent [`ThreadPool`] for `'static` jobs (resident servers —
//!   `cqchase-service` — own their workers for the process lifetime).
//!   No external crates — the build container is offline;
//! * [`containment::check_batch`] — parallel
//!   [`cqchase_core::check_batch`], parallelized over chase groups so
//!   the sequential engine's chase sharing is preserved;
//! * [`eval::evaluate_batch`] — [`cqchase_storage::evaluate_plan`] over
//!   one shared read-only [`DbIndex`](cqchase_storage::DbIndex), one
//!   plan cache and join scratch per worker. At one thread it is the
//!   sequential batch engine.
//!
//! Determinism is the contract: for every thread count, both batch entry
//! points return exactly what their sequential counterparts return —
//! [`cqchase_core::check_batch`] and per-query
//! [`cqchase_storage::evaluate`] (differential property tests in
//! `tests/proptest_par.rs` enforce it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod containment;
pub mod eval;
pub mod pool;

pub use containment::check_batch;
pub use eval::evaluate_batch;
pub use pool::{default_threads, map_with, BatchOptions, ThreadPool};
