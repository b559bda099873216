//! # cqchase-index — indexed fact stores and the shared join core
//!
//! Every decision procedure in this workspace bottoms out in the same
//! operation: find an assignment of query variables to the symbols of
//! some finite fact store such that every atom maps onto a stored row.
//! The paper uses it three ways — the Chandra–Merlin homomorphism test,
//! the chase's "is this dependency application required?" checks, and
//! finite evaluation `Q(B)` — and the seed implemented it three times
//! with per-atom linear scans.
//!
//! This crate is the shared substrate:
//!
//! * [`Sym`] / [`SymPool`] — interned `u32` symbols, so the hot paths
//!   compare and hash machine words instead of cloning [`Constant`]s;
//! * [`ColumnIndex`] — per-relation, per-column posting lists
//!   `(rel, col, sym) → sorted row ids`, maintained incrementally under
//!   insertion, deletion, and symbol substitution;
//! * [`DedupIndex`] — hash-based duplicate detection of whole rows (the
//!   chase's "sets of conjuncts don't duplicate" rule as an O(1) lookup);
//! * [`FactSource`] + the join engine: compile-time cost-based atom
//!   ordering (selectivities from live-row and per-column distinct
//!   counts), a Yannakakis semijoin fast path for α-acyclic bodies
//!   ([`acyclic`]), backtracking with index-intersection candidate
//!   generation for cyclic ones. It has two doors: [`join_with`] runs
//!   any pre-binding and enumerates every solution (outside tests, only
//!   `cqchase-core`'s homomorphism probes call it), and
//!   [`join_unbound_distinct`] is the evaluator's all-unbound,
//!   distinct-head-witness mode. Both take a caller-owned
//!   [`JoinScratch`], so steady-state batch search allocates nothing per
//!   join.
//!
//! Consumers implement [`FactSource`] over their own storage and share
//! one search: `cqchase-core`'s `ChaseHomSource` (a level-truncated view
//! of a chase state, which also serves query targets as level-0 chases)
//! and `cqchase-storage`'s `DbIndex`.
//!
//! The batch/parallel layer builds on two further pieces:
//!
//! * [`fx`] — a hand-rolled FxHash-style hasher ([`FxHashMap`] /
//!   [`FxHashSet`]) for every hot map; keys are interned symbols we
//!   produce ourselves, so SipHash's DoS resistance is pure overhead;
//! * [`PlanCache`] — memoized [`CompiledQuery`] plans keyed by query
//!   identity, so repeated checks of one query skip `compile`.
//!
//! [`Constant`]: cqchase_ir::Constant

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acyclic;
pub mod cancel;
pub mod engine;
pub mod fx;
pub mod plan;
pub mod store;
pub mod sym;

pub use acyclic::AcyclicPlan;
pub use cancel::{CancelToken, CANCEL_CHECK_INTERVAL};
pub use engine::{
    compile, compile_probe, join_unbound_distinct, join_with, CompiledAtom, CompiledQuery,
    ExecStats, FactSource, JoinOutcome, JoinScratch, Slot,
};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use plan::{query_key, PlanCache, PlanLookup, QueryKey};
pub use store::{ColumnIndex, DedupIndex};
pub use sym::{Sym, SymPool};
