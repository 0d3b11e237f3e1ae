//! Differential soundness sweep for the static instance-impact analyzer:
//! the verdicts `analysis::impact` derives *without* executing anything
//! are checked against reality by executing every trace against a seeded
//! object store.
//!
//! Three trace families × two engines × 250 seeds = 1500 traces. Per
//! trace:
//!
//! 1. **Certificate soundness** — the certificate `impact::analyze`
//!    emits must be re-verified by the independent checker
//!    `impact::check` (which re-derives every verdict from the raw trace
//!    and trusts nothing the analyzer claimed).
//! 2. **Differential execution** — one instance of every live type is
//!    materialized (every slot filled with a distinct integer), the
//!    trace runs for real against the schema and an eager-policy store,
//!    and after every op each object's *readable representation* (its
//!    current interface read through the propagation policy) is compared
//!    against the op's claimed per-type delta:
//!    - a **preserving** claim (type absent from the op's affected set)
//!      must leave the readable representation byte-identical — a false
//!      preservation claim on either engine fails the sweep;
//!    - an **extending** delta must add exactly the claimed `Null` slots
//!      and keep every old value intact;
//!    - a **destructive** delta must be witnessed by an actually lost
//!      slot value or, for a dropped type, a non-empty dropped extent.
//! 3. **Completeness** — any object whose readable representation
//!    changed must belong to a type in that op's affected set.
//! 4. **Plan execution** — a second store, populated at the base exactly
//!    like the first, runs the whole trace's propagation plan in one
//!    `ObjectStore::apply_plan`. A dead type's objects must be gone under
//!    a `drop_extent` step; every other object of a planned type must
//!    conform, with exactly its final interface as slots, kept slots
//!    holding their birth values, re-key targets holding the departed
//!    slot's birth value and every other slot `Null`; an object of a type
//!    with no step must be unchanged; and every object's slot keys must
//!    equal those the op-by-op eager store reached. A value that differs
//!    between the two stores must be a re-key target or a slot that left
//!    and came back.
//! 5. **Tamper rejection** — certificates with edited levels, deltas,
//!    obligations, or fingerprints are refused by the checker.
//!
//! Vacuousness guards assert the sweep really exercised extending and
//! destructive verdicts, really dropped extents, and really re-keyed
//! slots of stored objects (the "rekey" family's traffic).

use std::collections::{BTreeMap, BTreeSet};

use axiombase_core::analysis::impact::{self, ImpactLevel, PropagationPlan, TypeImpact};
use axiombase_core::{EngineKind, History, LatticeConfig, PropId, RecordedOp, Schema, TypeId};
use axiombase_store::{Conformance, ObjectStore, Oid, OrphanAction, Policy, Slots, Value};
use axiombase_workload::{generate_trace, LatticeGen, OpMix};

/// Seeds per engine; 250 × 2 engines × 3 families = 1500 traces.
const SEEDS: u64 = 250;

/// Family "random": a recorded mix against a small random lattice.
fn random_family(engine: EngineKind, seed: u64) -> (Schema, Vec<RecordedOp>) {
    let gen = LatticeGen {
        types: 8,
        max_parents: 3,
        props_per_type: 1.0,
        redeclare_prob: 0.2,
        seed,
    };
    let base = gen.generate(LatticeConfig::default(), engine).schema;
    let mix = match seed % 3 {
        0 => OpMix::BALANCED,
        1 => OpMix::PROPERTY_CHURN,
        _ => OpMix::LATTICE_CHURN,
    };
    let (ops, _) = generate_trace(&base, 20, mix, seed ^ 0x91a7);
    (base, ops)
}

/// Family "churn": denser properties, heavier drop pressure.
fn churn_family(engine: EngineKind, seed: u64) -> (Schema, Vec<RecordedOp>) {
    let gen = LatticeGen {
        types: 10,
        max_parents: 4,
        props_per_type: 2.0,
        redeclare_prob: 0.0,
        seed: seed ^ 0xd809,
    };
    let base = gen.generate(LatticeConfig::default(), engine).schema;
    let (ops, _) = generate_trace(&base, 16, OpMix::PROPERTY_CHURN, seed ^ 0x55aa);
    (base, ops)
}

/// Family "rekey": a random prefix, then a held property dropped and a
/// new property with the same name attached to a former holder or one of
/// its supertypes, then a random suffix. Impact matches the two by name,
/// so the holders' stored values must be re-keyed, not lost.
fn rekey_family(engine: EngineKind, seed: u64) -> (Schema, Vec<RecordedOp>) {
    let gen = LatticeGen {
        types: 8,
        max_parents: 3,
        props_per_type: 1.5,
        redeclare_prob: 0.1,
        seed: seed ^ 0x4e4b,
    };
    let base = gen.generate(LatticeConfig::default(), engine).schema;
    let mut h = History::from_schema(base.clone());
    let (prefix, _) = generate_trace(&base, 6, OpMix::BALANCED, seed ^ 0x2c1d);
    h.apply_trace(&prefix).expect("a generated trace replays");
    let held: Vec<(TypeId, PropId)> = h
        .schema()
        .iter_types()
        .flat_map(|t| {
            let props = h.schema().essential_properties(t).expect("live");
            props.into_iter().map(move |p| (t, p))
        })
        .collect();
    if !held.is_empty() {
        let (holder, p) = held[(seed as usize).wrapping_mul(7) % held.len()];
        let lattice: Vec<TypeId> = h
            .schema()
            .super_lattice(holder)
            .expect("live")
            .into_iter()
            .collect();
        let target = lattice[(seed as usize / 2) % lattice.len()];
        let name = h.schema().prop_name(p).expect("live").to_owned();
        h.drop_property(p).expect("a held property drops");
        h.define_property_on(target, name)
            .expect("a live type takes a property");
    }
    let (suffix, _) = generate_trace(h.schema(), 6, OpMix::PROPERTY_CHURN, seed ^ 0x9e37);
    h.apply_trace(&suffix).expect("a generated trace replays");
    (base, h.ops().to_vec())
}

/// The readable representation of one object: its type's *current*
/// interface read through screening semantics (missing slot → `Null`).
/// This is exactly what `ObjectStore::get` exposes, for every policy once
/// conversion has run, and it is policy-independent to compute.
fn readable(store: &ObjectStore, schema: &Schema, oid: Oid) -> BTreeMap<PropId, Value> {
    let rec = store.record(oid).expect("live object");
    schema
        .interface(rec.ty)
        .expect("live type")
        .into_iter()
        .map(|p| (p, rec.slots.get(&p).cloned().unwrap_or(Value::Null)))
        .collect()
}

/// Create one instance for every live type that has none yet (the base
/// type ⊥ excluded: it has no storable extent), and fill every `Null`
/// slot everywhere with a fresh distinct integer so any later loss is
/// visible as a lost *value*, not just a lost key.
fn populate(
    store: &mut ObjectStore,
    schema: &Schema,
    by_type: &mut BTreeMap<TypeId, Oid>,
    next_val: &mut i64,
) {
    for ix in 0..schema.type_count() {
        let t = TypeId::from_index(ix);
        if schema.is_live(t) && Some(t) != schema.base() && !by_type.contains_key(&t) {
            let oid = store.create(schema, t).expect("create instance");
            by_type.insert(t, oid);
        }
    }
    let oids: Vec<Oid> = store.iter_oids().collect();
    for oid in oids {
        for (p, v) in readable(store, schema, oid) {
            if v.is_null() {
                store
                    .set(schema, oid, p, Value::Int(*next_val))
                    .expect("slot is in the current interface");
                *next_val += 1;
            }
        }
    }
}

/// Counters the vacuousness guards aggregate over the sweep.
#[derive(Default)]
struct Tally {
    extending: usize,
    destructive: usize,
    extents_dropped: usize,
    changed_objects: usize,
    /// Obligations with a re-key, of types that hold a stored object.
    rekeyed_obligations: usize,
    /// Slot values the plan store holds and the eager store does not.
    values_differ: usize,
}

/// Every object's type and slots, as stored.
fn records(store: &ObjectStore) -> BTreeMap<Oid, (TypeId, Slots)> {
    store
        .iter_oids()
        .map(|oid| {
            let rec = store.record(oid).expect("live object");
            (oid, (rec.ty, rec.slots.clone()))
        })
        .collect()
}

/// Run the whole trace's plan on `planned`, a store populated at the base
/// like the eager one, and hold every object against the plan, its birth
/// state and the eager store. `left` names, per object, the slots that
/// left its interface at some op of the eager run. Returns how many slot
/// values the two stores hold differently.
fn execute_plan(
    final_schema: &Schema,
    plan: &PropagationPlan,
    mut planned: ObjectStore,
    birth: &BTreeMap<Oid, (TypeId, Slots)>,
    eager: &ObjectStore,
    left: &BTreeMap<Oid, BTreeSet<PropId>>,
    at: &str,
) -> usize {
    let mut values_differ = 0;
    planned
        .apply_plan(final_schema, plan, OrphanAction::Delete)
        .unwrap_or_else(|e| panic!("{at}: the certified plan was refused: {e}"));
    let step_for = |t: TypeId| plan.steps.iter().find(|s| s.type_index == t.index());
    for (oid, (ty, born)) in birth {
        let step = step_for(*ty);
        if !final_schema.is_live(*ty) {
            assert!(
                step.is_some_and(|s| s.drop_extent),
                "{at}: dead type {ty:?} has no drop_extent step"
            );
            assert!(
                planned.record(*oid).is_err(),
                "{at}: {oid} outlived its type"
            );
            continue;
        }
        let rec = planned.record(*oid).expect("a live type's object survives");
        let iface = final_schema.interface(*ty).expect("live type");
        let keys: BTreeSet<PropId> = rec.slots.keys().copied().collect();
        assert_eq!(keys, iface, "{at}: {oid} slots are not its final interface");
        let eager_keys: BTreeSet<PropId> = eager
            .record(*oid)
            .expect("eager object")
            .slots
            .keys()
            .copied()
            .collect();
        assert_eq!(
            keys, eager_keys,
            "{at}: {oid} slots differ from eager propagation"
        );
        let Some(step) = step else {
            assert_eq!(&rec.slots, born, "{at}: {oid} of an unplanned type changed");
            continue;
        };
        assert_eq!(rec.conformance, Conformance::Conforming, "{at}: {oid}");
        for (p, v) in &rec.slots {
            let rekeyed_from = step
                .rekey_slots
                .iter()
                .find(|&&(_, q)| q == p.index())
                .map(|&(from, _)| PropId::from_index(from));
            let want = match (born.get(p), rekeyed_from) {
                (Some(kept), _) => kept.clone(),
                (None, Some(from)) => born[&from].clone(),
                (None, None) => Value::Null,
            };
            assert_eq!(v, &want, "{at}: {oid} slot {p:?} after the plan");
            if !v.is_null() && eager.record(*oid).expect("eager object").slots[p] != *v {
                assert!(
                    rekeyed_from.is_some() || left.get(oid).is_some_and(|l| l.contains(p)),
                    "{at}: {oid} slot {p:?} differs from eager propagation unexplained"
                );
                values_differ += 1;
            }
        }
    }
    values_differ
}

/// Execute one trace for real and hold every static claim against it.
fn one_trace(base: &Schema, ops: &[RecordedOp], seed: u64, tag: &str, tally: &mut Tally) {
    let ia = impact::analyze(base, ops);
    let verdict = impact::check(base, ops, &ia.certificate)
        .unwrap_or_else(|e| panic!("seed {seed} {tag}: built certificate refused: {e}"));
    assert_eq!(verdict.ops, ops.len(), "seed {seed} {tag}");

    let mut schema = base.clone();
    let mut store = ObjectStore::new(Policy::Eager);
    let mut by_type: BTreeMap<TypeId, Oid> = BTreeMap::new();
    let mut next_val = 1i64;
    populate(&mut store, &schema, &mut by_type, &mut next_val);
    // The plan store starts as the eager store's twin: same oids, same
    // values.
    let mut planned = ObjectStore::new(Policy::Lazy);
    populate(&mut planned, &schema, &mut BTreeMap::new(), &mut 1);
    let birth = records(&planned);
    assert_eq!(
        birth,
        records(&store),
        "seed {seed} {tag}: twin stores differ"
    );
    let mut left: BTreeMap<Oid, BTreeSet<PropId>> = BTreeMap::new();

    for (i, op) in ops.iter().enumerate() {
        let pre: BTreeMap<Oid, (TypeId, BTreeMap<PropId, Value>)> = store
            .iter_oids()
            .map(|oid| {
                let ty = store.record(oid).expect("live").ty;
                (oid, (ty, readable(&store, &schema, oid)))
            })
            .collect();

        op.apply(&mut schema)
            .unwrap_or_else(|e| panic!("seed {seed} {tag}: recorded trace must replay: {e}"));
        let opi = &ia.certificate.ops[i];
        let delta_for = |t: TypeId| -> Option<&TypeImpact> {
            opi.deltas.iter().find(|d| d.type_index == t.index())
        };

        // Dropped types first: the claimed extent loss must be witnessed
        // by a non-empty extent actually going away.
        let dead: Vec<TypeId> = pre
            .values()
            .map(|(ty, _)| *ty)
            .filter(|&ty| !schema.is_live(ty))
            .collect();
        for ty in dead {
            let d = delta_for(ty).unwrap_or_else(|| {
                panic!("seed {seed} {tag} op {i}: type {ty:?} died with no claimed delta")
            });
            assert!(
                d.extent_lost && d.level() == ImpactLevel::Destructive,
                "seed {seed} {tag} op {i}: dead type {ty:?} claimed {:?}",
                d.level()
            );
            let dropped = store.drop_extent(ty);
            assert!(
                !dropped.is_empty(),
                "seed {seed} {tag} op {i}: claimed extent loss with no extent"
            );
            by_type.remove(&ty);
            tally.extents_dropped += 1;
        }

        // Propagate to the survivors exactly as a deployment would: the
        // certificate's affected set is the notification list.
        let affected: Vec<TypeId> = opi.affected().map(TypeId::from_index).collect();
        store.on_schema_change(&schema, &affected);

        for (oid, (ty, old)) in &pre {
            if !schema.is_live(*ty) {
                continue; // dropped with its extent above
            }
            let new = readable(&store, &schema, *oid);
            let delta = delta_for(*ty);
            if new == *old {
                assert!(
                    delta.is_none(),
                    "seed {seed} {tag} op {i}: claimed {:?} for {ty:?} but the readable \
                     representation did not change",
                    delta.map(TypeImpact::level)
                );
                continue;
            }
            tally.changed_objects += 1;
            // Completeness: a changed object must have been declared.
            let d = delta.unwrap_or_else(|| {
                panic!(
                    "seed {seed} {tag} op {i}: readable representation of {ty:?} changed \
                     but the type is not in the affected set (false preservation claim)"
                )
            });
            assert!(
                opi.affected().any(|t| t == ty.index()),
                "seed {seed} {tag} op {i}"
            );

            // The claimed slot delta must match reality exactly.
            let departed: Vec<usize> = old
                .keys()
                .filter(|p| !new.contains_key(*p))
                .map(|p| p.index())
                .collect();
            let arrived: Vec<usize> = new
                .keys()
                .filter(|p| !old.contains_key(*p))
                .map(|p| p.index())
                .collect();
            let mut want_departed = d.lost.clone();
            want_departed.sort_unstable();
            let mut want_arrived = d.added.clone();
            want_arrived.sort_unstable();
            assert_eq!(
                departed, want_departed,
                "seed {seed} {tag} op {i}: {ty:?} lost different slots than claimed"
            );
            assert_eq!(
                arrived, want_arrived,
                "seed {seed} {tag} op {i}: {ty:?} gained different slots than claimed"
            );
            left.entry(*oid)
                .or_default()
                .extend(departed.iter().map(|&p| PropId::from_index(p)));

            // Kept slots keep their values; fresh slots are Null.
            for (p, v) in &new {
                match old.get(p) {
                    Some(before) => assert_eq!(
                        v, before,
                        "seed {seed} {tag} op {i}: kept slot changed value"
                    ),
                    None => assert!(v.is_null(), "seed {seed} {tag} op {i}: fresh slot not Null"),
                }
            }

            match d.level() {
                ImpactLevel::Extending => {
                    assert!(
                        departed.is_empty(),
                        "seed {seed} {tag} op {i}: extending claim lost a slot"
                    );
                    tally.extending += 1;
                }
                ImpactLevel::Destructive => {
                    // Witness: a claimed loss is a real value thrown away.
                    assert!(!d.lost.is_empty(), "seed {seed} {tag} op {i}");
                    for p in &d.lost {
                        let was = old.get(&PropId::from_index(*p)).unwrap_or_else(|| {
                            panic!("seed {seed} {tag} op {i}: claimed loss of an unreadable slot")
                        });
                        assert!(
                            !was.is_null(),
                            "seed {seed} {tag} op {i}: destructive verdict without a lost value"
                        );
                    }
                    tally.destructive += 1;
                }
                level => panic!("seed {seed} {tag} op {i}: {level:?} delta changed an object"),
            }
        }

        // Keep the store saturated: instantiate newly-minted types and
        // refill every fresh Null slot with a distinct value.
        populate(&mut store, &schema, &mut by_type, &mut next_val);
    }

    tally.rekeyed_obligations += ia
        .certificate
        .obligations
        .iter()
        .filter(|o| !o.rekeyed.is_empty())
        .filter(|o| birth.values().any(|(ty, _)| ty.index() == o.type_index))
        .count();
    let at = format!("seed {seed} {tag}");
    tally.values_differ += execute_plan(&schema, &ia.plan, planned, &birth, &store, &left, &at);
}

fn sweep(engine: EngineKind) {
    let mut tally = Tally::default();
    for seed in 0..SEEDS {
        for (tag, (base, ops)) in [
            ("random", random_family(engine, seed)),
            ("churn", churn_family(engine, seed)),
            ("rekey", rekey_family(engine, seed)),
        ] {
            one_trace(&base, &ops, seed, tag, &mut tally);
        }
    }
    // Vacuousness guards: the sweep must have exercised real extensions,
    // real destructions, and real extent drops — not just preserving
    // no-ops.
    assert!(
        tally.extending >= 200,
        "({engine:?}) only {} extending deltas witnessed — sweep too narrow",
        tally.extending
    );
    assert!(
        tally.destructive >= 200,
        "({engine:?}) only {} destructive deltas witnessed — sweep too narrow",
        tally.destructive
    );
    assert!(
        tally.extents_dropped >= 50,
        "({engine:?}) only {} extents dropped — sweep too narrow",
        tally.extents_dropped
    );
    assert!(tally.changed_objects >= 500, "({engine:?}) sweep too quiet");
    assert!(
        tally.rekeyed_obligations >= 100,
        "({engine:?}) only {} re-keyed obligations on stored types — sweep too narrow",
        tally.rekeyed_obligations
    );
    assert!(
        tally.values_differ >= 100,
        "({engine:?}) only {} values told the plan store from the eager store",
        tally.values_differ
    );
    eprintln!(
        "({engine:?}) {} re-keyed obligations on stored types; {} slot values differ \
         between the plan store and the eager store",
        tally.rekeyed_obligations, tally.values_differ
    );
}

#[test]
fn impact_verdicts_hold_under_execution_naive_engine() {
    sweep(EngineKind::Naive);
}

#[test]
fn impact_verdicts_hold_under_execution_incremental_engine() {
    sweep(EngineKind::Incremental);
}

#[test]
fn tampered_certificates_are_refused() {
    let (base, ops) = random_family(EngineKind::Incremental, 7);
    let ia = impact::analyze(&base, &ops);
    impact::check(&base, &ops, &ia.certificate).expect("honest certificate verifies");

    // Unbind the fingerprint.
    let mut bad = ia.certificate.clone();
    bad.initial_fingerprint ^= 1;
    assert!(impact::check(&base, &ops, &bad)
        .unwrap_err()
        .contains("fingerprint"));

    // Launder a non-preserving op as preserving.
    if let Some(ix) = ia
        .certificate
        .ops
        .iter()
        .position(|o| o.level() != ImpactLevel::Preserving)
    {
        let mut bad = ia.certificate.clone();
        bad.ops[ix].deltas[0].extent_lost ^= true;
        assert!(impact::check(&base, &ops, &bad).is_err());

        let mut bad = ia.certificate.clone();
        bad.ops[ix].deltas.clear();
        assert!(impact::check(&base, &ops, &bad).is_err());
    }

    // Drop an obligation outright.
    if !ia.certificate.obligations.is_empty() {
        let mut bad = ia.certificate.clone();
        bad.obligations.pop();
        assert!(impact::check(&base, &ops, &bad).is_err());
    }

    // Shorten the op list.
    let mut bad = ia.certificate.clone();
    bad.ops.pop();
    bad.op_count -= 1;
    bad.kinds.pop();
    assert!(impact::check(&base, &ops, &bad)
        .unwrap_err()
        .contains("op(s)"));
}
