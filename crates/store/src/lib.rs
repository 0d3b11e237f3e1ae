//! # axiombase-store — objectbase instance substrate
//!
//! The instance level beneath the axiomatic schema model: object identities,
//! encapsulated state, per-type extents, and the change-propagation policies
//! (screening / conversion / filtering) that the paper names in §1 but
//! defers. `axiombase-tigukat` composes this store with the axiomatic
//! [`axiombase_core::Schema`] to form a full objectbase.
//!
//! A migration reaches the store one of two ways. Per change, the schema
//! operations report the types whose interface may have moved and
//! [`ObjectStore::on_schema_change`] coerces or marks their instances by
//! the store's [`Policy`]. Per trace, [`ObjectStore::apply_plan`] executes
//! the certified [`PropagationPlan`](axiombase_core::analysis::PropagationPlan)
//! that `analysis::impact` derives for it: one pass over the named
//! extents that re-keys the values the plan carries, deletes or ports a
//! dropped type's instances ([`OrphanAction`]), and reconciles every other
//! record with its type's interface.
//!
//! ```
//! use axiombase_core::{Schema, LatticeConfig};
//! use axiombase_store::{ObjectStore, Policy, Value};
//!
//! let mut schema = Schema::new(LatticeConfig::default());
//! let root = schema.add_root_type("T_object").unwrap();
//! let person = schema.add_type("T_person", [root], []).unwrap();
//! let name = schema.define_property_on(person, "name").unwrap();
//!
//! let mut store = ObjectStore::new(Policy::Lazy);
//! let ada = store.create(&schema, person).unwrap();
//! store.set(&schema, ada, name, "Ada".into()).unwrap();
//!
//! // Evolve the schema while instances exist:
//! let age = schema.define_property_on(person, "age").unwrap();
//! store.on_schema_change(&schema, &[person]);
//! assert_eq!(store.get(&schema, ada, age).unwrap(), Value::Null); // lazily converted
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod object;
pub mod persist;
pub mod propagation;
pub mod query;
pub mod store;
pub mod value;

pub use object::{Conformance, ObjectRecord, Oid, Slots};
pub use persist::StoreSnapshotError;
pub use propagation::{Policy, PropagationStats};
pub use query::{Predicate, Select};
pub use store::{ObjectStore, OrphanAction, PlanStats, Result, StoreError};
pub use value::Value;
