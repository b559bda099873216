//! # cqchase-core — chase engines and containment testing
//!
//! The primary contribution of Johnson & Klug (PODS 1982): testing
//! containment of conjunctive queries under functional and inclusion
//! dependencies via (potentially infinite) chases, made effective by the
//! Theorem 2 level bound.
//!
//! * [`chase`] — the O-chase and R-chase drivers, chase graph, bound,
//!   and [`chase_instance`], the classical repair of a database with
//!   labelled nulls run as the R-chase of that database read as a query;
//! * [`hom`] — homomorphism search (queries → queries/chases), the
//!   Chandra–Merlin primitive;
//! * [`classify`](mod@classify) — Σ classification (empty / FDs-only / INDs-only /
//!   key-based / mixed), which selects the decision procedure;
//! * [`containment`] — the Theorem 1/Theorem 2 decision procedures for
//!   `Σ ⊨ Q ⊆∞ Q′`, plus equivalence;
//! * [`minimize`](mod@minimize) — conjunct-minimization under dependencies;
//! * [`inference`] — FD closure, the Casanova–Fagin–Papadimitriou IND
//!   axioms, and the Corollary 2.3 reduction of IND inference to
//!   containment;
//! * [`finite`] — Section 4: finite controllability, the `k_Σ` constant,
//!   the finite counterexample, the `Q*` closing-off construction, and
//!   empirical finite-containment checking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chase;
pub mod classify;
pub mod containment;
pub mod finite;
pub mod hom;
pub mod inference;
pub mod isomorphism;
pub mod minimize;

pub use chase::{
    chase_instance, chase_query, theorem2_bound, Chase, ChaseBudget, ChaseMode, ChaseStatus,
    DataChaseOutcome, INSTANCE_CHASE_BUDGET,
};
pub use classify::{classify, SigmaClass};
pub use containment::{
    check_batch, contained, equivalent, BatchPair, ContainmentAnswer, ContainmentEngineError,
    ContainmentOptions, ContainmentPair,
};
pub use hom::{find_query_hom, render_chase_witness, ChaseHomFinder, Homomorphism};
pub use isomorphism::{cm_core, is_isomorphic, iso_key};
pub use minimize::{is_minimal, minimize};
