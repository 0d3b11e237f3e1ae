//! Explicit migration planning between schema versions.
//!
//! The propagation policies of [`crate::propagation`] coerce instances
//! *implicitly*, per access or per change. Production evolutions usually
//! want the opposite: an **inspectable plan** — which types are affected,
//! which slots appear/disappear, what happens to instances of dropped types
//! — reviewed before anything is touched. [`plan`] computes that from two
//! schema versions (typically a [`SharedSchema`](axiombase_core::SharedSchema)
//! snapshot pair, or a [`History`](axiombase_core::History) version pair —
//! both schemas must share an identity arena, i.e. one must have evolved
//! from the other), and [`ObjectStore::apply_plan`] executes it in one pass.

use std::collections::BTreeSet;

use axiombase_core::{PropId, Schema, TypeId};

use crate::object::Oid;
use crate::store::{ObjectStore, Result, StoreError};
use crate::value::Value;

/// Interface delta for one surviving type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeMigration {
    /// The type whose interface moved.
    pub ty: TypeId,
    /// Properties new in the interface (slots to initialise to `Null`).
    pub added: BTreeSet<PropId>,
    /// Properties gone from the interface (slots to drop).
    pub dropped: BTreeSet<PropId>,
}

/// What to do with instances whose type no longer exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrphanAction {
    /// Delete them ("the extent managed by a dropped class is also
    /// dropped", §3.3).
    Delete,
    /// Migrate them to another (live) type, preserving shared slots
    /// ("instances can be ported to some other type prior to being
    /// dropped", §3.3).
    MigrateTo(TypeId),
}

/// A reviewed-before-applied migration plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MigrationPlan {
    /// Surviving types whose interfaces changed.
    pub migrations: Vec<TypeMigration>,
    /// Types live in the old schema but gone in the new one.
    pub dropped_types: Vec<TypeId>,
}

impl MigrationPlan {
    /// Nothing to do?
    pub fn is_empty(&self) -> bool {
        self.migrations.is_empty() && self.dropped_types.is_empty()
    }

    /// Human-readable rendering for review.
    pub fn describe(&self, old: &Schema, new: &Schema) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("no instance-level work required\n");
            return out;
        }
        for m in &self.migrations {
            let name = new.type_name(m.ty).unwrap_or("?");
            let _ = writeln!(
                out,
                "convert instances of {name}: +{} slot(s), -{} slot(s)",
                m.added.len(),
                m.dropped.len()
            );
        }
        for &t in &self.dropped_types {
            let name = old.type_name(t).unwrap_or("?");
            let _ = writeln!(out, "type {name} dropped: instances orphaned");
        }
        out
    }
}

/// Outcome counters from applying a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Instances converted in place.
    pub converted: usize,
    /// Slots initialised to `Null`.
    pub slots_added: usize,
    /// Slots removed.
    pub slots_dropped: usize,
    /// Orphaned instances deleted.
    pub orphans_deleted: usize,
    /// Orphaned instances migrated.
    pub orphans_migrated: usize,
}

/// Compute the migration plan between two schema versions sharing an
/// identity arena (`new` evolved from `old`).
pub fn plan(old: &Schema, new: &Schema) -> MigrationPlan {
    let mut migrations = Vec::new();
    let mut dropped_types = Vec::new();
    for t in old.iter_types() {
        if !new.is_live(t) {
            dropped_types.push(t);
            continue;
        }
        let before = old.interface(t).expect("live in old");
        let after = new.interface(t).expect("live in new");
        if before != after {
            migrations.push(TypeMigration {
                ty: t,
                added: after.difference(&before).copied().collect(),
                dropped: before.difference(&after).copied().collect(),
            });
        }
    }
    MigrationPlan {
        migrations,
        dropped_types,
    }
}

impl ObjectStore {
    /// Execute a migration plan against the new schema in one pass:
    /// convert every instance of each planned type, and apply the orphan
    /// action to instances of dropped types. Instances of unaffected types
    /// are untouched (and never marked stale).
    pub fn apply_plan(
        &mut self,
        new_schema: &Schema,
        plan: &MigrationPlan,
        orphans: OrphanAction,
    ) -> Result<PlanStats> {
        if let OrphanAction::MigrateTo(target) = orphans {
            if !new_schema.is_live(target) {
                return Err(StoreError::Schema(
                    axiombase_core::SchemaError::UnknownType(target),
                ));
            }
        }
        let mut stats = PlanStats::default();

        for m in &plan.migrations {
            let oids: Vec<Oid> = self.extent(m.ty).into_iter().collect();
            for oid in oids {
                // Targeted conversion: cheaper and more precise than a full
                // interface reconciliation — the plan already knows the
                // delta.
                let rec = self.record_mut_for_plan(oid)?;
                let was_stale = rec.conformance == crate::object::Conformance::Stale;
                for &p in &m.dropped {
                    if rec.slots.remove(&p).is_some() {
                        stats.slots_dropped += 1;
                    }
                }
                for &p in &m.added {
                    rec.slots.entry(p).or_insert(Value::Null);
                    stats.slots_added += 1;
                }
                rec.conformance = crate::object::Conformance::Conforming;
                rec.conforms_to_version = new_schema.version();
                if was_stale {
                    self.note_conforming(m.ty, oid);
                }
                stats.converted += 1;
            }
        }

        for &t in &plan.dropped_types {
            let oids: Vec<Oid> = self.extent(t).into_iter().collect();
            for oid in oids {
                match orphans {
                    OrphanAction::Delete => {
                        self.delete(oid)?;
                        stats.orphans_deleted += 1;
                    }
                    OrphanAction::MigrateTo(target) => {
                        self.migrate(new_schema, oid, target)?;
                        stats.orphans_migrated += 1;
                    }
                }
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::Policy;
    use axiombase_core::LatticeConfig;

    fn base() -> (Schema, ObjectStore, TypeId, TypeId, PropId) {
        let mut schema = Schema::new(LatticeConfig::default());
        let root = schema.add_root_type("T_object").unwrap();
        let a = schema.add_type("A", [root], []).unwrap();
        let p = schema.define_property_on(a, "x").unwrap();
        let b = schema.add_type("B", [a], []).unwrap();
        let mut store = ObjectStore::new(Policy::Lazy);
        for _ in 0..3 {
            store.create(&schema, a).unwrap();
            store.create(&schema, b).unwrap();
        }
        (schema, store, a, b, p)
    }

    #[test]
    fn empty_plan_for_identical_versions() {
        let (schema, ..) = base();
        let p = plan(&schema, &schema.clone());
        assert!(p.is_empty());
        assert!(p.describe(&schema, &schema).contains("no instance-level"));
    }

    #[test]
    fn plan_captures_interface_deltas_and_drops() {
        let (old, _, a, b, x) = base();
        let mut new = old.clone();
        let y = new.define_property_on(a, "y").unwrap();
        new.drop_essential_property(a, x).unwrap();
        new.drop_type(b).unwrap();
        let p = plan(&old, &new);
        assert_eq!(p.dropped_types, vec![b]);
        // A's interface changed, and B is gone (not listed as a migration).
        assert_eq!(p.migrations.len(), 1);
        assert_eq!(p.migrations[0].ty, a);
        assert_eq!(p.migrations[0].added, BTreeSet::from([y]));
        assert_eq!(p.migrations[0].dropped, BTreeSet::from([x]));
        let text = p.describe(&old, &new);
        assert!(text.contains("convert instances of A"));
        assert!(text.contains("type B dropped"));
    }

    #[test]
    fn apply_plan_converts_and_deletes_orphans() {
        let (old, mut store, a, b, x) = base();
        let mut new = old.clone();
        let y = new.define_property_on(a, "y").unwrap();
        new.drop_type(b).unwrap();
        let p = plan(&old, &new);
        let stats = store.apply_plan(&new, &p, OrphanAction::Delete).unwrap();
        assert_eq!(stats.converted, 3); // the A instances
        assert_eq!(stats.orphans_deleted, 3); // the B instances
        assert_eq!(store.object_count(), 3);
        for oid in store.iter_oids().collect::<Vec<_>>() {
            let rec = store.record(oid).unwrap();
            assert!(rec.slots.contains_key(&y));
            assert!(rec.slots.contains_key(&x)); // x still in interface of A
        }
    }

    #[test]
    fn apply_plan_migrates_orphans() {
        let (old, mut store, a, b, _x) = base();
        let mut new = old.clone();
        new.drop_type(b).unwrap();
        let p = plan(&old, &new);
        let stats = store
            .apply_plan(&new, &p, OrphanAction::MigrateTo(a))
            .unwrap();
        assert_eq!(stats.orphans_migrated, 3);
        assert_eq!(store.object_count(), 6);
        assert_eq!(store.extent(a).len(), 6);
        // Migrating to a dead target is rejected.
        let err = store
            .apply_plan(&new, &p, OrphanAction::MigrateTo(b))
            .unwrap_err();
        assert!(matches!(err, StoreError::Schema(_)));
    }

    #[test]
    fn plan_agrees_with_eager_propagation() {
        // Applying a plan must leave instances exactly as eager conversion
        // would.
        let (old, _, a, b, x) = base();
        let mut new = old.clone();
        new.define_property_on(a, "y").unwrap();
        new.drop_essential_property(a, x).unwrap();

        // Route 1: plan.
        let mut s1 = ObjectStore::new(Policy::Eager);
        let o1 = s1.create(&old, a).unwrap();
        let p = plan(&old, &new);
        s1.apply_plan(&new, &p, OrphanAction::Delete).unwrap();

        // Route 2: eager on_schema_change.
        let mut s2 = ObjectStore::new(Policy::Eager);
        let o2 = s2.create(&old, a).unwrap();
        let mut affected: Vec<TypeId> = new.all_subtypes(a).unwrap().into_iter().collect();
        affected.push(a);
        s2.on_schema_change(&new, &affected);

        assert_eq!(
            s1.record(o1).unwrap().slots.keys().collect::<Vec<_>>(),
            s2.record(o2).unwrap().slots.keys().collect::<Vec<_>>()
        );
        let _ = b;
    }
}
