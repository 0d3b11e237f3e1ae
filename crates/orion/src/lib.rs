//! # axiombase-orion — the Orion baseline
//!
//! The comparison system of the paper's §4: the Orion class model with its
//! ordered superclass lists, name/domain-based conflict resolution, the
//! classical invariants, and the eight fundamental schema-change operations
//! OP1–OP8 — plus the reduction of all of it to the axiomatic model, made
//! executable.
//!
//! ```
//! use axiombase_orion::{OrionSchema, OrionProp, OrionPropKind, reduction};
//!
//! let mut orion = OrionSchema::new();
//! let person = orion.op6_add_class("Person", None).unwrap();
//! orion.op1_add_property(person, OrionProp {
//!     name: "name".into(), domain: "OBJECT".into(), kind: OrionPropKind::Attribute,
//! }).unwrap();
//! let red = reduction::reduce(&orion);
//! assert!(red.schema.verify().is_empty()); // the image satisfies the axioms
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod invariants;
pub mod model;
mod ops;
pub mod reduction;
pub mod rules;

pub use invariants::{Invariant, InvariantViolation};
pub use model::{ClassId, OrionError, OrionProp, OrionPropKind, OrionSchema, ResolvedProp};
pub use reduction::{reduce, OrionOp, ReducedOrion, Reduction};
pub use rules::Rule;
