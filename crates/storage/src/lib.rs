//! # cqchase-storage — in-memory relational database substrate
//!
//! The paper quantifies containment over *databases* (finite or infinite).
//! This crate supplies the finite side of that story:
//!
//! * [`Database`] — a set of named relation instances over a
//!   [`Catalog`](cqchase_ir::Catalog), with values that are constants or
//!   **labelled nulls** (needed by the instance-level chase, which lives
//!   in `cqchase-core` as the R-chase of the instance viewed as a query);
//! * [`check`] — deciding whether an instance *obeys* a set of FDs and
//!   INDs, reporting concrete violations;
//! * [`indexed`] — [`DbIndex`], the interned, indexed fact store that
//!   query evaluation and the service's sessions run on;
//! * [`eval`] — conjunctive-query evaluation `Q(B)` by homomorphism
//!   enumeration, exactly the paper's Section 2 semantics. It reads a
//!   [`DbIndex`], never a [`Database`]: [`evaluate`] compiles and runs
//!   one query, [`evaluate_plan`] runs a cached plan, and
//!   [`eval::naive`] is the scan-based reference over a [`Database`];
//! * [`enumerate`] — exhaustive enumeration of small instances, used to
//!   verify finite-containment claims empirically (Section 4 experiments).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod database;
pub mod enumerate;
pub mod eval;
pub mod indexed;
pub mod value;

pub use check::{satisfies, violations, Violation};
pub use database::{Database, RelationInstance, Tuple};
pub use eval::{evaluate, evaluate_plan};
pub use indexed::DbIndex;
pub use value::{NullId, Value};
