//! Property tests for the instance store: whatever interleaving of schema
//! changes and accesses occurs, each propagation policy maintains its
//! contract, and the store agrees step for step with a reference model
//! that finds the objects a schema change affects by filtering every
//! stored object.

use std::collections::{BTreeMap, BTreeSet};

use axiombase_core::{LatticeConfig, PropId, Schema, TypeId};
use axiombase_store::{
    Conformance, ObjectRecord, ObjectStore, Oid, Policy, PropagationStats, StoreError, Value,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Step {
    AddProp(u8),
    DropProp(u8, u8),
    Create(u8),
    Delete(u8),
    Read(u8, u8),
    Write(u8, u8),
    Convert(u8),
    Migrate(u8, u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => any::<u8>().prop_map(Step::AddProp),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::DropProp(a, b)),
        3 => any::<u8>().prop_map(Step::Create),
        1 => any::<u8>().prop_map(Step::Delete),
        4 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Read(a, b)),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Write(a, b)),
        1 => any::<u8>().prop_map(Step::Convert),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Step::Migrate(a, b)),
    ]
}

fn pick<T: Copy>(items: &[T], ix: u8) -> Option<T> {
    if items.is_empty() {
        None
    } else {
        Some(items[ix as usize % items.len()])
    }
}

struct Fixture {
    schema: Schema,
    store: ObjectStore,
    types: Vec<TypeId>,
    counter: u64,
}

impl Fixture {
    fn new(policy: Policy) -> Self {
        let mut schema = Schema::new(LatticeConfig::default());
        let root = schema.add_root_type("T_object").unwrap();
        let a = schema.add_type("A", [root], []).unwrap();
        let b = schema.add_type("B", [a], []).unwrap();
        schema.define_property_on(a, "base").unwrap();
        Fixture {
            schema,
            store: ObjectStore::new(policy),
            types: vec![a, b],
            counter: 0,
        }
    }

    fn oids(&self) -> Vec<Oid> {
        self.store.iter_oids().collect()
    }

    fn apply(&mut self, step: &Step) {
        match step {
            Step::AddProp(a) => {
                let t = pick(&self.types, *a).unwrap();
                self.counter += 1;
                self.schema
                    .define_property_on(t, format!("p{}", self.counter))
                    .unwrap();
                let mut affected: Vec<TypeId> =
                    self.schema.all_subtypes(t).unwrap().into_iter().collect();
                affected.push(t);
                self.store.on_schema_change(&self.schema, &affected);
            }
            Step::DropProp(a, b) => {
                let t = pick(&self.types, *a).unwrap();
                let ne: Vec<PropId> = self
                    .schema
                    .essential_properties(t)
                    .unwrap()
                    .iter()
                    .copied()
                    .collect();
                if let Some(p) = pick(&ne, *b) {
                    self.schema.drop_essential_property(t, p).unwrap();
                    let mut affected: Vec<TypeId> =
                        self.schema.all_subtypes(t).unwrap().into_iter().collect();
                    affected.push(t);
                    self.store.on_schema_change(&self.schema, &affected);
                }
            }
            Step::Create(a) => {
                let t = pick(&self.types, *a).unwrap();
                self.store.create(&self.schema, t).unwrap();
            }
            Step::Delete(a) => {
                if let Some(o) = pick(&self.oids(), *a) {
                    self.store.delete(o).unwrap();
                }
            }
            Step::Read(a, b) => {
                if let Some(o) = pick(&self.oids(), *a) {
                    let ty = self.store.type_of(o).unwrap();
                    let iface: Vec<PropId> =
                        self.schema.interface(ty).unwrap().iter().copied().collect();
                    if let Some(p) = pick(&iface, *b) {
                        match self.store.get(&self.schema, o, p) {
                            Ok(_) => {}
                            Err(StoreError::FilteredOut(_)) => {
                                assert_eq!(self.store.policy(), Policy::Filtering);
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
            }
            Step::Write(a, b) => {
                if let Some(o) = pick(&self.oids(), *a) {
                    let ty = self.store.type_of(o).unwrap();
                    let iface: Vec<PropId> =
                        self.schema.interface(ty).unwrap().iter().copied().collect();
                    if let Some(p) = pick(&iface, *b) {
                        match self.store.set(&self.schema, o, p, Value::Int(1)) {
                            Ok(()) => {}
                            Err(StoreError::FilteredOut(_)) => {
                                assert_eq!(self.store.policy(), Policy::Filtering);
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                }
            }
            Step::Convert(a) => {
                if let Some(o) = pick(&self.oids(), *a) {
                    self.store.convert(&self.schema, o).unwrap();
                }
            }
            Step::Migrate(a, b) => {
                if let (Some(o), Some(t)) = (pick(&self.oids(), *a), pick(&self.types, *b)) {
                    self.store.migrate(&self.schema, o, t).unwrap();
                }
            }
        }
    }

    fn check(&self) {
        for o in self.oids() {
            let rec = self.store.record(o).unwrap();
            let iface = self.schema.interface(rec.ty).unwrap();
            match rec.conformance {
                Conformance::Conforming => {
                    // Conforming ⇒ slots are exactly the interface.
                    let keys: BTreeSet<PropId> = rec.slots.keys().copied().collect();
                    assert_eq!(keys, iface, "conforming object {o} has drifted slots");
                }
                Conformance::Stale => {
                    // Stale objects only exist under deferring policies.
                    assert_ne!(self.store.policy(), Policy::Eager);
                }
            }
            // Extent membership matches the record's type.
            assert!(self.store.extent(rec.ty).contains(&o));
        }
        // Extents contain only live objects of the right type.
        for &t in &self.types {
            for o in self.store.extent(t) {
                assert_eq!(self.store.type_of(o).unwrap(), t);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn store_contract_holds_under_random_interleavings(
        steps in proptest::collection::vec(step_strategy(), 0..120),
        policy_ix in 0usize..4,
    ) {
        let mut fx = Fixture::new(Policy::ALL[policy_ix]);
        for step in &steps {
            fx.apply(step);
        }
        fx.check();
    }

    /// Eager and lazy policies are observationally equivalent through the
    /// propagation-aware accessors: after any interleaving, reading every
    /// interface slot of every object yields the same values.
    #[test]
    fn eager_and_lazy_observationally_equivalent(
        steps in proptest::collection::vec(step_strategy(), 0..80),
    ) {
        let run = |policy: Policy| {
            let mut fx = Fixture::new(policy);
            for step in &steps {
                fx.apply(step);
            }
            // Observe: every (object, interface prop) pair.
            let mut obs: Vec<(Oid, PropId, Value)> = Vec::new();
            for o in fx.oids() {
                let ty = fx.store.type_of(o).unwrap();
                let iface: Vec<PropId> =
                    fx.schema.interface(ty).unwrap().iter().copied().collect();
                for p in iface {
                    obs.push((o, p, fx.store.get(&fx.schema, o, p).unwrap()));
                }
            }
            obs
        };
        prop_assert_eq!(run(Policy::Eager), run(Policy::Lazy));
    }
}

/// The reference model's record: the store's [`ObjectRecord`] with its
/// slots in a `BTreeMap`, independent of the store's own layout.
#[derive(Debug, Clone, PartialEq)]
struct RefRecord {
    ty: TypeId,
    slots: BTreeMap<PropId, Value>,
    conformance: Conformance,
    conforms_to_version: u64,
}

impl RefRecord {
    fn new(ty: TypeId, slots: BTreeMap<PropId, Value>, version: u64) -> Self {
        RefRecord {
            ty,
            slots,
            conformance: Conformance::Conforming,
            conforms_to_version: version,
        }
    }

    /// A store record, read into the model's form.
    fn of(rec: &ObjectRecord) -> Self {
        RefRecord {
            ty: rec.ty,
            slots: rec.slots.iter().map(|(p, v)| (*p, v.clone())).collect(),
            conformance: rec.conformance,
            conforms_to_version: rec.conforms_to_version,
        }
    }
}

/// The reference model: the store's contract written the plain way. A
/// schema change filters every stored object for the affected types, and
/// every access re-reads the type's interface as a `BTreeSet`.
struct Reference {
    objects: BTreeMap<Oid, RefRecord>,
    extents: BTreeMap<TypeId, BTreeSet<Oid>>,
    next: u64,
    policy: Policy,
    stats: PropagationStats,
}

impl Reference {
    fn new(policy: Policy) -> Self {
        Reference {
            objects: BTreeMap::new(),
            extents: BTreeMap::new(),
            next: 0,
            policy,
            stats: PropagationStats::default(),
        }
    }

    fn create(&mut self, schema: &Schema, ty: TypeId) -> Result<Oid, StoreError> {
        let iface = schema.interface(ty)?;
        let slots = iface.iter().map(|&p| (p, Value::Null)).collect();
        let oid = Oid::from_raw(self.next);
        self.next += 1;
        self.objects
            .insert(oid, RefRecord::new(ty, slots, schema.version()));
        self.extents.entry(ty).or_default().insert(oid);
        Ok(oid)
    }

    fn delete(&mut self, oid: Oid) -> Result<(), StoreError> {
        let rec = self
            .objects
            .remove(&oid)
            .ok_or(StoreError::UnknownObject(oid))?;
        if let Some(ext) = self.extents.get_mut(&rec.ty) {
            ext.remove(&oid);
        }
        Ok(())
    }

    fn touch(&mut self, schema: &Schema, oid: Oid) -> Result<(), StoreError> {
        let rec = self
            .objects
            .get(&oid)
            .ok_or(StoreError::UnknownObject(oid))?;
        if rec.conformance == Conformance::Conforming {
            return Ok(());
        }
        match self.policy {
            Policy::Eager | Policy::Lazy => {
                self.convert(schema, oid)?;
                self.stats.lazy_conversions += 1;
            }
            Policy::Screening => {}
            Policy::Filtering => {
                self.stats.filtered_rejections += 1;
                return Err(StoreError::FilteredOut(oid));
            }
        }
        Ok(())
    }

    fn get(&mut self, schema: &Schema, oid: Oid, prop: PropId) -> Result<Value, StoreError> {
        self.touch(schema, oid)?;
        let rec = &self.objects[&oid];
        if !schema.interface(rec.ty)?.contains(&prop) {
            return Err(StoreError::NotInInterface { oid, prop });
        }
        match rec.slots.get(&prop) {
            Some(v) => Ok(v.clone()),
            None => {
                self.stats.screened_reads += 1;
                Ok(Value::Null)
            }
        }
    }

    fn set(&mut self, schema: &Schema, oid: Oid, prop: PropId, v: Value) -> Result<(), StoreError> {
        self.touch(schema, oid)?;
        let rec = self.objects.get_mut(&oid).expect("touched");
        if !schema.interface(rec.ty)?.contains(&prop) {
            return Err(StoreError::NotInInterface { oid, prop });
        }
        rec.slots.insert(prop, v);
        Ok(())
    }

    fn convert(&mut self, schema: &Schema, oid: Oid) -> Result<(), StoreError> {
        let rec = self
            .objects
            .get_mut(&oid)
            .ok_or(StoreError::UnknownObject(oid))?;
        let iface = schema.interface(rec.ty)?;
        let before = rec.slots.len();
        rec.slots.retain(|p, _| iface.contains(p));
        self.stats.slots_dropped += (before - rec.slots.len()) as u64;
        for p in iface {
            if let std::collections::btree_map::Entry::Vacant(e) = rec.slots.entry(p) {
                e.insert(Value::Null);
                self.stats.slots_added += 1;
            }
        }
        rec.conformance = Conformance::Conforming;
        rec.conforms_to_version = schema.version();
        Ok(())
    }

    /// An explicit `convert`: converting a stale record counts as a lazy
    /// conversion.
    fn convert_on_request(&mut self, schema: &Schema, oid: Oid) -> Result<(), StoreError> {
        let stale = self
            .objects
            .get(&oid)
            .is_some_and(|r| r.conformance == Conformance::Stale);
        self.convert(schema, oid)?;
        if stale {
            self.stats.lazy_conversions += 1;
        }
        Ok(())
    }

    fn on_schema_change(&mut self, schema: &Schema, affected_types: &[TypeId]) {
        let affected: BTreeSet<TypeId> = affected_types.iter().copied().collect();
        let oids: Vec<Oid> = self
            .objects
            .iter()
            .filter(|(_, r)| affected.contains(&r.ty))
            .map(|(&o, _)| o)
            .collect();
        for oid in oids {
            if self.policy == Policy::Eager {
                self.convert(schema, oid).expect("object exists");
                self.stats.eager_conversions += 1;
            } else {
                let rec = self.objects.get_mut(&oid).expect("object exists");
                if rec.conformance == Conformance::Conforming {
                    rec.conformance = Conformance::Stale;
                    self.stats.marked_stale += 1;
                }
            }
        }
    }

    fn drop_extent(&mut self, ty: TypeId) -> Vec<Oid> {
        let oids: Vec<Oid> = self
            .extents
            .remove(&ty)
            .unwrap_or_default()
            .into_iter()
            .collect();
        for oid in &oids {
            self.objects.remove(oid);
        }
        oids
    }

    fn migrate(&mut self, schema: &Schema, oid: Oid, new_ty: TypeId) -> Result<(), StoreError> {
        let iface = schema.interface(new_ty)?;
        let rec = self
            .objects
            .get_mut(&oid)
            .ok_or(StoreError::UnknownObject(oid))?;
        let old_ty = rec.ty;
        let slots = iface
            .into_iter()
            .map(|p| (p, rec.slots.remove(&p).unwrap_or(Value::Null)))
            .collect();
        rec.ty = new_ty;
        rec.slots = slots;
        rec.conformance = Conformance::Conforming;
        rec.conforms_to_version = schema.version();
        if let Some(ext) = self.extents.get_mut(&old_ty) {
            ext.remove(&oid);
        }
        self.extents.entry(new_ty).or_default().insert(oid);
        Ok(())
    }
}

/// One step of the differential run. Bytes pick operands modulo the
/// current candidates, so every generated step applies to any state.
#[derive(Debug, Clone)]
enum Diff {
    Create(u8),
    Delete(u8),
    Migrate(u8, u8),
    Convert(u8),
    Get(u8, u8),
    Set(u8, u8),
    DropExtent(u8),
    /// A schema change (kind, operands), then `on_schema_change` over the
    /// types whose interface moved plus one more live type, listed twice.
    Change(u8, u8, u8, u8),
}

fn diff_strategy() -> impl Strategy<Value = Diff> {
    prop_oneof![
        4 => any::<u8>().prop_map(Diff::Create),
        1 => any::<u8>().prop_map(Diff::Delete),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Diff::Migrate(a, b)),
        1 => any::<u8>().prop_map(Diff::Convert),
        4 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Diff::Get(a, b)),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Diff::Set(a, b)),
        1 => any::<u8>().prop_map(Diff::DropExtent),
        3 => (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(k, a, b, c)| Diff::Change(k, a, b, c)),
    ]
}

/// The store and the reference model side by side over one schema.
struct Differential {
    schema: Schema,
    store: ObjectStore,
    model: Reference,
    /// Every type ever live, dead ones included.
    types: BTreeSet<TypeId>,
    counter: u64,
}

impl Differential {
    fn new(policy: Policy) -> Self {
        let mut schema = Schema::new(LatticeConfig::default());
        let root = schema.add_root_type("T_object").unwrap();
        let a = schema.add_type("A", [root], []).unwrap();
        let b = schema.add_type("B", [a], []).unwrap();
        let c = schema.add_type("C", [root], []).unwrap();
        schema.add_type("D", [b, c], []).unwrap();
        schema.define_property_on(a, "base").unwrap();
        schema.define_property_on(c, "side").unwrap();
        Differential {
            types: schema.iter_types().collect(),
            schema,
            store: ObjectStore::new(policy),
            model: Reference::new(policy),
            counter: 0,
        }
    }

    fn live_types(&self) -> Vec<TypeId> {
        self.schema.iter_types().collect()
    }

    fn all_types(&self) -> Vec<TypeId> {
        self.types.iter().copied().collect()
    }

    fn oids(&self) -> Vec<Oid> {
        let mut oids: Vec<Oid> = self.model.objects.keys().copied().collect();
        // One identity that never existed, to exercise the error paths.
        oids.push(Oid::from_raw(self.model.next + 7));
        oids
    }

    fn props(&self) -> Vec<PropId> {
        self.schema.iter_props().collect()
    }

    fn step(&mut self, step: &Diff) {
        let schema = &self.schema;
        match *step {
            Diff::Create(a) => {
                let t = pick(&self.live_types(), a).unwrap();
                assert_eq!(self.store.create(schema, t), self.model.create(schema, t));
            }
            Diff::Delete(a) => {
                let o = pick(&self.oids(), a).unwrap();
                assert_eq!(self.store.delete(o), self.model.delete(o));
            }
            Diff::Migrate(a, b) => {
                let o = pick(&self.oids(), a).unwrap();
                let t = pick(&self.live_types(), b).unwrap();
                assert_eq!(
                    self.store.migrate(schema, o, t),
                    self.model.migrate(schema, o, t)
                );
            }
            Diff::Convert(a) => {
                let o = pick(&self.oids(), a).unwrap();
                assert_eq!(
                    self.store.convert(schema, o),
                    self.model.convert_on_request(schema, o)
                );
            }
            Diff::Get(a, b) => {
                let o = pick(&self.oids(), a).unwrap();
                if let Some(p) = pick(&self.props(), b) {
                    assert_eq!(self.store.get(schema, o, p), self.model.get(schema, o, p));
                }
            }
            Diff::Set(a, b) => {
                let o = pick(&self.oids(), a).unwrap();
                if let Some(p) = pick(&self.props(), b) {
                    let v = Value::Int(i64::from(a));
                    assert_eq!(
                        self.store.set(schema, o, p, v.clone()),
                        self.model.set(schema, o, p, v)
                    );
                }
            }
            Diff::DropExtent(a) => {
                let t = pick(&self.all_types(), a).unwrap();
                assert_eq!(self.store.drop_extent(t), self.model.drop_extent(t));
            }
            Diff::Change(kind, a, b, c) => self.change(kind, a, b, c),
        }
        self.agree();
    }

    /// Apply one schema change; if it applies, propagate it to both sides.
    fn change(&mut self, kind: u8, a: u8, b: u8, c: u8) {
        let live = self.live_types();
        let before: BTreeMap<TypeId, BTreeSet<PropId>> = live
            .iter()
            .map(|&t| (t, self.schema.interface(t).unwrap()))
            .collect();
        let t = pick(&live, a).unwrap();
        let s = pick(&live, b).unwrap();
        self.counter += 1;
        let applied = match kind % 6 {
            0 => self
                .schema
                .define_property_on(t, format!("p{}", self.counter))
                .is_ok(),
            1 => {
                let ne: Vec<PropId> = self
                    .schema
                    .essential_properties(t)
                    .unwrap()
                    .into_iter()
                    .collect();
                pick(&ne, b).is_some_and(|p| self.schema.drop_essential_property(t, p).is_ok())
            }
            2 => {
                let props = self.props();
                let ps: Vec<PropId> = pick(&props, c).into_iter().collect();
                self.schema
                    .add_type(format!("T{}", self.counter), [t], ps)
                    .is_ok()
            }
            3 => match self.schema.drop_type(t) {
                // Objects of a dropped type leave with its extent, or stay
                // behind (every access then reports the dead type).
                Ok(_) => {
                    if c.is_multiple_of(2) {
                        assert_eq!(self.store.drop_extent(t), self.model.drop_extent(t));
                    }
                    true
                }
                Err(_) => false,
            },
            4 => self.schema.add_essential_supertype(t, s).is_ok(),
            _ => self.schema.drop_essential_supertype(t, s).is_ok(),
        };
        if !applied {
            return;
        }
        self.types.extend(self.schema.iter_types());
        let mut affected: Vec<TypeId> = self
            .schema
            .iter_types()
            .filter(|t| {
                before
                    .get(t)
                    .is_some_and(|b| *b != self.schema.interface(*t).unwrap())
            })
            .collect();
        // One more live type and a duplicate: the affected list may be
        // a superset and may repeat.
        affected.extend(pick(&self.live_types(), c));
        affected.extend(affected.first().copied());
        self.store.on_schema_change(&self.schema, &affected);
        self.model.on_schema_change(&self.schema, &affected);
    }

    /// Every record, extent and statistic agrees.
    fn agree(&self) {
        assert_eq!(self.store.object_count(), self.model.objects.len());
        for (oid, rec) in &self.model.objects {
            assert_eq!(
                self.store.record(*oid).map(RefRecord::of).as_ref(),
                Ok(rec),
                "record {oid}"
            );
        }
        for t in self.all_types() {
            let want: Vec<Oid> = self
                .model
                .extents
                .get(&t)
                .into_iter()
                .flatten()
                .copied()
                .collect();
            assert_eq!(self.store.extent(t), want, "extent of {t:?}");
        }
        assert_eq!(*self.store.stats(), self.model.stats);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under every policy, the store that visits only the objects it marks
    /// agrees after each step with the reference that filters every object.
    #[test]
    fn propagation_matches_the_filter_every_object_reference(
        steps in proptest::collection::vec(diff_strategy(), 0..150),
        policy_ix in 0usize..4,
    ) {
        let mut run = Differential::new(Policy::ALL[policy_ix]);
        for step in &steps {
            run.step(step);
        }
    }
}
