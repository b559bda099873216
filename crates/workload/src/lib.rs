//! # cqchase-workload — deterministic workload generators
//!
//! Every experiment in the paper-reproduction harness sweeps over
//! families of queries, dependency sets and database instances. This
//! crate generates them *deterministically* (seeded `StdRng` everywhere)
//! so experiment tables are reproducible run to run:
//!
//! * [`queries`] — chain / star / cycle / random-shape conjunctive
//!   queries;
//! * [`dependencies`] — random IND sets (acyclic or cyclic, width-
//!   controlled), random FD sets, and random **key-based** schemas
//!   (FDs + INDs satisfying the paper's conditions (a) and (b));
//! * [`databases`] — random instances, optionally repaired into
//!   Σ-satisfying ones through `cqchase_core::chase_instance`;
//! * [`families`] — the named workloads the experiments reference
//!   (the Figure 1 Σ, the Section 4 Σ, the intro's EMP/DEP schema);
//! * [`batches`] — batch workloads (query pools + containment pairs)
//!   for the batch/parallel engines and their benchmarks;
//! * [`deltas`] — seeded fact-delta scripts (insert/delete/reinsert
//!   interleavings) for the live-mutation subsystem's benchmarks and
//!   differential tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batches;
pub mod databases;
pub mod deltas;
pub mod dependencies;
pub mod families;
pub mod queries;

pub use batches::{chain_eval_batch, successor_containment_batch, ContainmentBatch};
pub use databases::DatabaseGen;
pub use deltas::{split_deltas, Delta, DeltaScriptGen, SlidingWindow};
pub use dependencies::{FdSetGen, IndSetGen, KeyBasedGen};
pub use queries::{chain_query, cycle_query, snowflake_query, star_query, QueryGen};
