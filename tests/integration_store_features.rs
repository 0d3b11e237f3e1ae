//! Cross-crate integration of the "production" features: recorded history,
//! version diffs, certified propagation plans, and instance selection — the
//! workflow a DBA would actually run an evolution with.

use axiombase_core::analysis::impact;
use axiombase_core::{diff, History, LatticeConfig, PropId, RecordedOp, TypeId};
use axiombase_store::{ObjectStore, OrphanAction, Policy, Predicate, Select, Value};

/// End-to-end evolution workflow:
/// 1. build schema v0 with instances,
/// 2. evolve through a recorded history,
/// 3. diff the versions and analyse the recorded ops into a propagation
///    plan,
/// 4. apply the plan, 5. query the result.
#[test]
fn dba_workflow_history_plan_select() {
    // 1. Schema v0 + instances.
    let mut h = History::new(LatticeConfig::default());
    let root = h.add_root_type("T_object").unwrap();
    let part = h.add_type("Part", [root], []).unwrap();
    let mass = h.define_property_on(part, "mass").unwrap();
    let legacy = h.add_type("LegacyPart", [part], []).unwrap();

    let mut store = ObjectStore::new(Policy::Lazy);
    let old_schema = h.schema().clone();
    let mut parts = Vec::new();
    for i in 0..5 {
        let o = store.create(&old_schema, part).unwrap();
        store
            .set(&old_schema, o, mass, Value::Real(i as f64))
            .unwrap();
        parts.push(o);
    }
    let l1 = store.create(&old_schema, legacy).unwrap();

    // 2. Recorded evolution: new property, legacy type retired.
    let v0 = h.len();
    let lot = h.define_property_on(part, "lot").unwrap();
    h.drop_type(legacy).unwrap();

    // 3. Diff explains the change; the impact plan operationalises it.
    let d = diff(&h.as_of(v0).unwrap(), h.schema());
    assert!(!d.is_empty());
    assert!(d.to_string().contains("LegacyPart"));
    let ops = &h.ops()[v0..];
    let ia = impact::analyze(&old_schema, ops);
    impact::check(&old_schema, ops, &ia.certificate).unwrap();
    assert_eq!(dropped_extents(&ia.plan), vec![legacy.index()]);
    assert_eq!(ia.plan.steps.len(), 2);
    let text = ia.to_text();
    assert!(text.contains("  Part: screening — add {lot}"), "{text}");
    assert!(
        text.contains("  LegacyPart: eager, guarded — extent lost"),
        "{text}"
    );

    // 4. Apply: legacy instances migrate to Part rather than dying.
    let stats = store
        .apply_plan(h.schema(), &ia.plan, OrphanAction::MigrateTo(part))
        .unwrap();
    assert_eq!(stats.converted, 5);
    assert_eq!(stats.orphans_migrated, 1);
    assert_eq!(store.extent(part).len(), 6);
    assert!(store.record(l1).is_ok());

    // 5. Query the new world: every instance answers the new property.
    let q = Select::all().and(Predicate::IsNull(lot));
    let hits = store.select(h.schema(), part, &q).unwrap();
    assert_eq!(hits.len(), 6);
    let q = Select::all().and(Predicate::Gt(mass, 2.5));
    assert_eq!(store.select(h.schema(), part, &q).unwrap().len(), 2);

    // The whole history remains replayable and axiom-clean.
    for v in 0..=h.len() {
        assert!(h.as_of(v).unwrap().verify().is_empty());
    }
}

/// The plan path and the implicit eager-propagation path converge on the
/// same instance state even through a multi-step evolution.
#[test]
fn plan_and_eager_propagation_converge() {
    let build = || {
        let mut h = History::new(LatticeConfig::default());
        let root = h.add_root_type("T_object").unwrap();
        let a = h.add_type("A", [root], []).unwrap();
        h.define_property_on(a, "x").unwrap();
        let b = h.add_type("B", [a], []).unwrap();
        (h, a, b)
    };

    // Path 1: plan-based.
    let (mut h1, a1, b1) = build();
    let mut s1 = ObjectStore::new(Policy::Lazy);
    let (old1, v0) = (h1.schema().clone(), h1.len());
    let oa1 = s1.create(&old1, a1).unwrap();
    let ob1 = s1.create(&old1, b1).unwrap();
    h1.define_property_on(a1, "y").unwrap();
    h1.define_property_on(b1, "z").unwrap();
    let p = impact::analyze(&old1, &h1.ops()[v0..]).plan;
    s1.apply_plan(h1.schema(), &p, OrphanAction::Delete)
        .unwrap();

    // Path 2: eager propagation per step.
    let (mut h2, a2, b2) = build();
    let mut s2 = ObjectStore::new(Policy::Eager);
    let old2 = h2.schema().clone();
    let oa2 = s2.create(&old2, a2).unwrap();
    let ob2 = s2.create(&old2, b2).unwrap();
    for _ in 0..1 {
        h2.define_property_on(a2, "y").unwrap();
        let affected: Vec<TypeId> = vec![a2, b2];
        s2.on_schema_change(h2.schema(), &affected);
        h2.define_property_on(b2, "z").unwrap();
        s2.on_schema_change(h2.schema(), &[b2]);
    }

    // Identical slot keys everywhere (ids are deterministic across builds).
    for (x1, x2) in [(oa1, oa2), (ob1, ob2)] {
        let k1: Vec<_> = s1.record(x1).unwrap().slots.keys().copied().collect();
        let k2: Vec<_> = s2.record(x2).unwrap().slots.keys().copied().collect();
        assert_eq!(k1, k2);
    }
}

/// A batched evolution publishes exactly one snapshot pair, and the
/// propagation plan of its trace, analysed against the pre-batch snapshot,
/// carries the instance store across the whole batch in one pass — the
/// store-propagation hook for a batched `apply_trace`.
#[test]
fn batched_evolution_yields_one_migration_plan() {
    use axiombase_core::SharedSchema;

    let mut s = axiombase_core::Schema::new(LatticeConfig::default());
    let root = s.add_root_type("T_object").unwrap();
    let part = s.add_type("Part", [root], []).unwrap();
    let mass = s.define_property_on(part, "mass").unwrap();
    let legacy = s.add_type("LegacyPart", [part], []).unwrap();
    let shared = SharedSchema::new(s);

    let mut store = ObjectStore::new(Policy::Lazy);
    let old = shared.snapshot();
    let o1 = store.create(&old, part).unwrap();
    store.set(&old, o1, mass, Value::Real(1.0)).unwrap();
    let orphan = store.create(&old, legacy).unwrap();

    // One batch: new property, dropped type, new subtype — many edits, one
    // shared recomputation, one atomically published version.
    let lot = PropId::from_index(old.prop_count());
    let ops = [
        RecordedOp::AddProperty { name: "lot".into() },
        RecordedOp::AddEssentialProperty { t: part, p: lot },
        RecordedOp::DropType { t: legacy },
        RecordedOp::AddType {
            name: "Subassembly".into(),
            supers: vec![part],
            props: vec![],
        },
    ];
    assert_eq!(shared.apply_trace(&ops).unwrap(), ops.len());
    let new = shared.snapshot();

    // The pre-batch snapshot and the batch's trace are the entire
    // migration story.
    let p = impact::analyze(&old, &ops).plan;
    assert_eq!(dropped_extents(&p), vec![legacy.index()]);
    let stats = store
        .apply_plan(&new, &p, OrphanAction::MigrateTo(part))
        .unwrap();
    assert_eq!(stats.orphans_migrated, 1);
    assert!(store.record(orphan).is_ok());

    // Every surviving Part instance answers the batch-added property.
    let q = Select::all().and(Predicate::IsNull(lot));
    assert_eq!(store.select(&new, part, &q).unwrap().len(), 2);
    // And the old snapshot is untouched: it still knows nothing of `lot`.
    assert!(old.type_by_name("Subassembly").is_none());
    assert!(new.verify().is_empty());
}

/// The types whose extents a propagation plan drops.
fn dropped_extents(plan: &impact::PropagationPlan) -> Vec<usize> {
    plan.steps
        .iter()
        .filter(|s| s.drop_extent)
        .map(|s| s.type_index)
        .collect()
}

/// Selection interacts correctly with schema projection: a query against a
/// projected fragment sees exactly the instances whose types survive.
#[test]
fn select_over_projected_fragment() {
    let mut h = History::new(LatticeConfig::default());
    let root = h.add_root_type("T_object").unwrap();
    let vehicle = h.add_type("Vehicle", [root], []).unwrap();
    let wheels = h.define_property_on(vehicle, "wheels").unwrap();
    let car = h.add_type("Car", [vehicle], []).unwrap();
    let boat = h.add_type("Boat", [root], []).unwrap();

    let mut store = ObjectStore::new(Policy::Eager);
    let schema = h.schema().clone();
    store.create(&schema, car).unwrap();
    store.create(&schema, vehicle).unwrap();
    store.create(&schema, boat).unwrap();

    let fragment = schema.project([car]).unwrap();
    // The fragment retains Vehicle and Car; Boat is outside it.
    assert!(fragment.type_by_name("Boat").is_none());
    let q = Select::all().and(Predicate::IsNull(wheels));
    let hits = store.select(&fragment, vehicle, &q).unwrap();
    assert_eq!(hits.len(), 2, "car + vehicle instances, not the boat");
}
