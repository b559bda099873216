//! # cqchase-storage — in-memory relational database substrate
//!
//! The paper quantifies containment over *databases* (finite or infinite).
//! This crate supplies the finite side of that story:
//!
//! * [`Database`] — a set of named relation instances over a
//!   [`Catalog`](cqchase_ir::Catalog), with values that are constants or
//!   **labelled nulls** (needed by the instance-level chase);
//! * [`check`] — deciding whether an instance *obeys* a set of FDs and
//!   INDs, reporting concrete violations;
//! * [`datachase`] — the classical instance-level chase: repairs an
//!   arbitrary instance into one satisfying Σ (or reports inconsistency /
//!   budget exhaustion — IND chases may not terminate);
//! * [`eval`] — conjunctive-query evaluation `Q(B)` by homomorphism
//!   enumeration, exactly the paper's Section 2 semantics;
//! * [`enumerate`] — exhaustive enumeration of small instances, used to
//!   verify finite-containment claims empirically (Section 4 experiments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod database;
pub mod datachase;
pub mod enumerate;
pub mod eval;
pub mod indexed;
pub mod value;

pub use check::{satisfies, violations, Violation};
pub use database::{Database, RelationInstance, Tuple};
pub use datachase::{chase_instance, DataChaseBudget, DataChaseOutcome};
pub use eval::{
    contains_tuple, contains_tuple_indexed, evaluate, evaluate_batch, evaluate_batch_indexed,
    evaluate_boolean, evaluate_boolean_indexed, evaluate_indexed, evaluate_indexed_with,
    evaluate_plan,
};
pub use indexed::DbIndex;
pub use value::{NullId, Value};
