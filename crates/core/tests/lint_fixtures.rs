//! One smelly fixture per lint rule L1–L6 and L10–L11, each asserting the *exact*
//! diagnostic: rule id, severity, anchor location, axiom/claim reference,
//! and fix-it presence. These are the regression contract for the lint
//! subsystem — if a rule's anchor or reference drifts, a fixture here
//! fails with the full diagnostic in the message.

use axiombase_core::{
    lint_history, lint_schema, Axiom, History, LatticeConfig, Location, Reference, RuleId, Schema,
    Severity,
};

fn rooted() -> (Schema, axiombase_core::TypeId) {
    let mut s = Schema::new(LatticeConfig::default());
    let root = s.add_root_type("T_object").unwrap();
    (s, root)
}

/// Extract the single diagnostic for `rule`, panicking with the full list
/// when the count is not exactly one.
fn the_one(diags: &[axiombase_core::Diagnostic], rule: RuleId) -> &axiombase_core::Diagnostic {
    let hits: Vec<_> = diags.iter().filter(|d| d.rule == rule).collect();
    assert_eq!(hits.len(), 1, "expected exactly one {rule:?}: {diags:?}");
    hits[0]
}

#[test]
fn l1_redundant_essential_supertype() {
    // root ← Vehicle ← Car, and Car *also* lists root in P_e: redundant,
    // since root is reachable through Vehicle.
    let (mut s, root) = rooted();
    let vehicle = s.add_type("Vehicle", [root], []).unwrap();
    s.define_property_on(vehicle, "wheels").unwrap();
    let car = s.add_type("Car", [vehicle, root], []).unwrap();
    s.define_property_on(car, "doors").unwrap();

    let diags = lint_schema(&s);
    let d = the_one(&diags, RuleId::RedundantEssentialSupertype);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.location, Location::Type(car));
    assert_eq!(d.types, vec![root]);
    assert!(
        matches!(d.reference, Reference::Claim(c) if c.contains("§5") && c.contains("minimality"))
    );
    assert!(d.fix.is_some(), "unfrozen type: fix must be offered");
}

#[test]
fn l2_shadowed_essential_property() {
    // `serial` is native to Device and *also* declared essential on its
    // subtype Sensor — Axiom 8 erases the re-declaration.
    let (mut s, root) = rooted();
    let device = s.add_type("Device", [root], []).unwrap();
    let serial = s.define_property_on(device, "serial").unwrap();
    let sensor = s.add_type("Sensor", [device], []).unwrap();
    s.add_essential_property(sensor, serial).unwrap();

    let diags = lint_schema(&s);
    let d = the_one(&diags, RuleId::ShadowedEssentialProperty);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.location, Location::Type(sensor));
    assert_eq!(d.props, vec![serial]);
    assert_eq!(d.reference, Reference::Axiom(Axiom::Nativeness));
    assert!(
        d.fix.is_some(),
        "dropping the shadowed entry is always safe"
    );
}

#[test]
fn l3_name_conflict_hazard() {
    // Two distinct `id` properties meet at Employee via the classic
    // diamond — Figure 1's homonym situation.
    let (mut s, root) = rooted();
    let person = s.add_type("Person", [root], []).unwrap();
    let p_id = s.define_property_on(person, "id").unwrap();
    let worker = s.add_type("Worker", [root], []).unwrap();
    let w_id = s.define_property_on(worker, "id").unwrap();
    let employee = s.add_type("Employee", [person, worker], []).unwrap();
    s.define_property_on(employee, "badge").unwrap();

    let diags = lint_schema(&s);
    let d = the_one(&diags, RuleId::NameConflictHazard);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.location, Location::Type(employee));
    let mut props = d.props.clone();
    props.sort();
    assert_eq!(props, vec![p_id, w_id]);
    assert!(
        matches!(d.reference, Reference::Claim(c) if c.contains("§5") && c.contains("minimal supertypes"))
    );
    assert!(d.fix.is_none(), "resolution strategy is a design decision");
}

#[test]
fn l4_dangling_property() {
    // `ghost` sits in the registry but no N_e ever references it.
    let (mut s, root) = rooted();
    let a = s.add_type("A", [root], []).unwrap();
    s.define_property_on(a, "x").unwrap();
    let ghost = s.add_property("ghost");

    let diags = lint_schema(&s);
    let d = the_one(&diags, RuleId::DisconnectedOrDangling);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.location, Location::Prop(ghost));
    assert_eq!(d.props, vec![ghost]);
    assert!(matches!(d.reference, Reference::Claim(c) if c.contains("§2")));
    assert!(d.fix.is_some(), "deleting an unreferenced property is safe");
}

#[test]
fn l5_order_dependence_hazard() {
    // root ← A ← B ← C, then drop (C,B) and (B,A): under Orion OP4 the
    // relink rule makes the two orders land on different schemas.
    let mut h = History::new(LatticeConfig::default());
    let root = h.add_root_type("T_object").unwrap();
    let a = h.add_type("A", [root], []).unwrap();
    h.define_property_on(a, "x").unwrap();
    let b = h.add_type("B", [a], []).unwrap();
    h.define_property_on(b, "y").unwrap();
    let c = h.add_type("C", [b], []).unwrap();
    h.define_property_on(c, "z").unwrap();
    h.drop_essential_supertype(c, b).unwrap();
    h.drop_essential_supertype(b, a).unwrap();

    let n = h.ops().len();
    let diags = lint_history(&h);
    let d = the_one(&diags, RuleId::OrderDependenceHazard);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.location, Location::OpRange(n - 2, n - 1));
    assert!(matches!(d.reference, Reference::Claim(c) if c.contains("order-independent")));
    assert!(d.fix.is_none(), "histories are append-only");
}

#[test]
fn l6_churn_no_op() {
    // `Scratch` is created and dropped with nothing in between.
    let mut h = History::new(LatticeConfig::default());
    let root = h.add_root_type("T_object").unwrap();
    let a = h.add_type("Keep", [root], []).unwrap();
    h.define_property_on(a, "x").unwrap();
    let scratch = h.add_type("Scratch", [root], []).unwrap();
    let added_at = h.ops().len() - 1;
    h.drop_type(scratch).unwrap();

    let diags = lint_history(&h);
    let d = the_one(&diags, RuleId::ChurnNoOp);
    assert_eq!(d.severity, Severity::Info);
    assert_eq!(d.location, Location::OpRange(added_at, added_at + 1));
    assert!(matches!(d.reference, Reference::Claim(c) if c.contains("§2")));
    assert!(d.fix.is_none());
}

#[test]
fn no_op_ops_are_reported_once() {
    // The script `type add A`, `type add B under A`, `type rename B B`,
    // `type freeze A`, `type freeze A` on a rooted schema: ops 4 and 6
    // change nothing. L7 reports each with the optimizer's proof that it
    // is removable; L6 does not report them again.
    let mut h = History::new(LatticeConfig::default());
    let root = h.add_root_type("T_object").unwrap();
    let a = h.add_type("A", [root], []).unwrap();
    let b = h.add_type("B", [a], []).unwrap();
    h.rename_type(b, "B").unwrap();
    h.freeze_type(a).unwrap();
    h.freeze_type(a).unwrap();

    let diags = lint_history(&h);
    for no_op in [3, 5] {
        let at: Vec<_> = diags
            .iter()
            .filter(|d| d.location == Location::Op(no_op))
            .collect();
        assert_eq!(at.len(), 1, "op {}: {diags:?}", no_op + 1);
        assert_eq!(at[0].rule, RuleId::DeadOp);
    }
    assert!(
        diags.iter().all(|d| d.rule != RuleId::ChurnNoOp),
        "{diags:?}"
    );
}

#[test]
fn l10_destructive_op_unguarded() {
    // Dropping `serial` destroys stored values on every holder — Device
    // and its subtype Sensor — with nothing guarding the instances.
    let mut h = History::new(LatticeConfig::default());
    let root = h.add_root_type("T_object").unwrap();
    let device = h.add_type("Device", [root], []).unwrap();
    let serial = h.define_property_on(device, "serial").unwrap();
    let sensor = h.add_type("Sensor", [device], []).unwrap();
    h.define_property_on(sensor, "range").unwrap();
    h.drop_property(serial).unwrap();
    let drop_at = h.ops().len() - 1;

    let diags = lint_history(&h);
    let d = the_one(&diags, RuleId::DestructiveOpUnguarded);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.location, Location::Op(drop_at));
    assert_eq!(d.types, vec![device, sensor]);
    assert!(matches!(d.reference, Reference::Claim(c) if c.contains("§3.3")));
    let fix = d
        .fix
        .as_ref()
        .expect("L10 offers the snapshot/branch guard");
    assert!(fix.title.contains("snapshot"), "{fix:?}");
    assert!(
        fix.edits.is_empty(),
        "the guard is operational, not a trace edit"
    );
}

#[test]
fn l11_convertible_as_extending() {
    // `balance` is dropped and a same-named replacement re-added: the
    // sequential verdict is destructive but the *net* schema change is a
    // re-key a conversion function can honour.
    let mut h = History::new(LatticeConfig::default());
    let root = h.add_root_type("T_object").unwrap();
    let bal = h.add_property("balance");
    // `balance` is a *birth* essential: instances of Account are born
    // with the slot, so the drop-then-readd nets out as a re-key.
    let acct = h.add_type("Account", [root], [bal]).unwrap();
    h.drop_property(bal).unwrap();
    let first = h.ops().len() - 1;
    let replacement = h.add_property("balance");
    h.add_essential_property(acct, replacement).unwrap();

    let diags = lint_history(&h);
    let d = the_one(&diags, RuleId::ConvertibleAsExtending);
    assert_eq!(d.severity, Severity::Info);
    assert_eq!(d.location, Location::Op(first));
    assert_eq!(d.props, vec![bal]);
    assert!(matches!(d.reference, Reference::Claim(c) if c.contains("§5")));
    let fix = d
        .fix
        .as_ref()
        .expect("L11 offers the reuse/convert rewrite");
    assert!(fix.title.contains("reuse the original property"), "{fix:?}");

    // The sequentially destructive drop still carries its own L10.
    let guard = the_one(&diags, RuleId::DestructiveOpUnguarded);
    assert_eq!(guard.location, Location::Op(first));
}
