//! Instance selection over deep extents.
//!
//! Classes are "homogeneous up to inclusion polymorphism" (§3.1), so the
//! natural query scope is the deep extent: instances of a type and all its
//! subtypes. [`Select`] filters that scope with slot predicates, reading
//! through the propagation policy (so a lazy store converts exactly the
//! instances the query touches — queries are accesses like any other).

use axiombase_core::{PropId, Schema, TypeId};

use crate::object::Oid;
use crate::store::{ObjectStore, Result, StoreError};
use crate::value::Value;

/// A predicate over one slot.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Slot equals the value exactly.
    Eq(PropId, Value),
    /// Slot differs from the value (missing/masked slots count as `Null`).
    Ne(PropId, Value),
    /// Slot is the undefined object.
    IsNull(PropId),
    /// Slot is defined (not `Null`).
    IsSet(PropId),
    /// Numeric comparison: slot > value (Int/Real mixtures compare as f64;
    /// non-numeric slots never match).
    Gt(PropId, f64),
    /// Numeric comparison: slot < value.
    Lt(PropId, f64),
}

impl Predicate {
    fn matches(&self, v: &Value) -> bool {
        fn as_f64(v: &Value) -> Option<f64> {
            match v {
                Value::Int(i) => Some(*i as f64),
                Value::Real(r) => Some(*r),
                _ => None,
            }
        }
        match self {
            Predicate::Eq(_, want) => v == want,
            Predicate::Ne(_, want) => v != want,
            Predicate::IsNull(_) => v.is_null(),
            Predicate::IsSet(_) => !v.is_null(),
            Predicate::Gt(_, bound) => as_f64(v).is_some_and(|x| x > *bound),
            Predicate::Lt(_, bound) => as_f64(v).is_some_and(|x| x < *bound),
        }
    }

    fn prop(&self) -> PropId {
        match self {
            Predicate::Eq(p, _)
            | Predicate::Ne(p, _)
            | Predicate::IsNull(p)
            | Predicate::IsSet(p)
            | Predicate::Gt(p, _)
            | Predicate::Lt(p, _) => *p,
        }
    }
}

/// A conjunctive query over the deep extent of a type.
#[derive(Debug, Clone, Default)]
pub struct Select {
    predicates: Vec<Predicate>,
}

impl Select {
    /// An unfiltered selection (the whole deep extent).
    pub fn all() -> Self {
        Select::default()
    }

    /// Add a conjunct.
    pub fn and(mut self, p: Predicate) -> Self {
        self.predicates.push(p);
        self
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// No conjuncts?
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }
}

impl ObjectStore {
    /// Run a selection over the deep extent of `ty`. Instances whose type's
    /// interface lacks a predicate's property never match (the predicate is
    /// about a behavior the object does not understand). Reads go through
    /// the propagation policy; under filtering, stale instances surface as
    /// errors, like any other access.
    pub fn select(&mut self, schema: &Schema, ty: TypeId, query: &Select) -> Result<Vec<Oid>> {
        let scope = self.deep_extent(schema, ty)?;
        let mut out = Vec::new();
        'obj: for oid in scope {
            let obj_ty = self.type_of(oid)?;
            let iface = &schema.derived(obj_ty)?.iface;
            for pred in &query.predicates {
                if !iface.contains(pred.prop()) {
                    continue 'obj;
                }
                let v = match self.get(schema, oid, pred.prop()) {
                    Ok(v) => v,
                    Err(e @ StoreError::FilteredOut(_)) => return Err(e),
                    Err(e) => return Err(e),
                };
                if !pred.matches(&v) {
                    continue 'obj;
                }
            }
            out.push(oid);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagation::Policy;
    use axiombase_core::LatticeConfig;

    fn fixture() -> (Schema, ObjectStore, TypeId, TypeId, PropId, PropId) {
        let mut schema = Schema::new(LatticeConfig::default());
        let root = schema.add_root_type("T_object").unwrap();
        let part = schema.add_type("Part", [root], []).unwrap();
        let mass = schema.define_property_on(part, "mass").unwrap();
        let heavy = schema.add_type("HeavyPart", [part], []).unwrap();
        let grade = schema.define_property_on(heavy, "grade").unwrap();
        let mut store = ObjectStore::new(Policy::Lazy);
        for i in 0..4 {
            let o = store.create(&schema, part).unwrap();
            store.set(&schema, o, mass, Value::Real(i as f64)).unwrap();
        }
        for i in 0..2 {
            let o = store.create(&schema, heavy).unwrap();
            store
                .set(&schema, o, mass, Value::Real(10.0 + i as f64))
                .unwrap();
            store
                .set(&schema, o, grade, Value::Str("A".into()))
                .unwrap();
        }
        (schema, store, part, heavy, mass, grade)
    }

    #[test]
    fn unfiltered_select_is_the_deep_extent() {
        let (schema, mut store, part, heavy, ..) = fixture();
        assert_eq!(
            store.select(&schema, part, &Select::all()).unwrap().len(),
            6
        );
        assert_eq!(
            store.select(&schema, heavy, &Select::all()).unwrap().len(),
            2
        );
    }

    #[test]
    fn numeric_and_equality_predicates() {
        let (schema, mut store, part, _, mass, grade) = fixture();
        let q = Select::all().and(Predicate::Gt(mass, 2.5));
        let hits = store.select(&schema, part, &q).unwrap();
        assert_eq!(hits.len(), 3); // mass 3.0, 10.0, 11.0
        let q = Select::all()
            .and(Predicate::Gt(mass, 2.5))
            .and(Predicate::Eq(grade, Value::Str("A".into())));
        let hits = store.select(&schema, part, &q).unwrap();
        assert_eq!(hits.len(), 2, "grade only exists on HeavyPart");
        let q = Select::all().and(Predicate::Lt(mass, 1.5));
        assert_eq!(store.select(&schema, part, &q).unwrap().len(), 2);
    }

    #[test]
    fn null_predicates_see_propagated_slots() {
        let (mut schema, mut store, part, _, mass, _) = fixture();
        // Evolve: a new property appears; under lazy conversion the query
        // itself triggers the conversions and the slot reads as Null.
        let lot = schema.define_property_on(part, "lot").unwrap();
        let mut affected: Vec<TypeId> = schema.all_subtypes(part).unwrap().into_iter().collect();
        affected.push(part);
        store.on_schema_change(&schema, &affected);
        let q = Select::all().and(Predicate::IsNull(lot));
        assert_eq!(store.select(&schema, part, &q).unwrap().len(), 6);
        let q = Select::all().and(Predicate::IsSet(mass));
        assert_eq!(store.select(&schema, part, &q).unwrap().len(), 6);
        let q = Select::all().and(Predicate::Ne(mass, Value::Real(0.0)));
        assert_eq!(store.select(&schema, part, &q).unwrap().len(), 5);
    }

    #[test]
    fn filtering_policy_surfaces_stale_instances() {
        let (mut schema, _, part, ..) = fixture();
        let mut store = ObjectStore::new(Policy::Filtering);
        let o = store.create(&schema, part).unwrap();
        schema.define_property_on(part, "extra").unwrap();
        store.on_schema_change(&schema, &[part]);
        let q = Select::all().and(Predicate::IsSet(
            schema
                .interface(part)
                .unwrap()
                .iter()
                .next()
                .copied()
                .unwrap(),
        ));
        let err = store.select(&schema, part, &q).unwrap_err();
        assert_eq!(err, StoreError::FilteredOut(o));
    }
}
