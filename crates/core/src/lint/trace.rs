//! The replaying trace rules L5–L6.
//!
//! These rules analyse a replayable operation log ([`RecordedOp`]) rather
//! than a single schema state. Replay is deterministic (identities are
//! assigned in arena order), so the rules can reconstruct the exact schema
//! before and after every operation.

use std::collections::HashMap;

use super::rules::{pn, tn};
use super::{Diagnostic, Location, Reference, RuleId, Severity};
use crate::error::SchemaError;
use crate::history::RecordedOp;
use crate::ids::{PropId, TypeId};
use crate::model::Schema;

/// L5 — a drop-subtype sequence whose *Orion* semantics are
/// order-dependent.
///
/// Under the axioms, dropping essential supertypes commutes: each drop is an
/// independent edit of one `P_e`, and the derived state is a pure function
/// of the inputs (§5's order-independence claim). Orion's OP4 is different —
/// when the dropped edge is the *last* superclass, the subclass is relinked
/// to the superclasses of the dropped parent:
///
/// ```text
/// if P_e(C) = {S} then
///     if S = OBJECT then REJECT
///     else P_e(C) = P_e(S)
/// else remove S from P_e(C)
/// ```
///
/// which makes the outcome depend on which drop runs first. This rule finds
/// runs of consecutive `DropEssentialSupertype` operations and, for each
/// adjacent pair, simulates OP4 in both orders from the schema state just
/// before the pair; diverging fingerprints mean a migration script that is
/// correct under the axiomatic model but order-sensitive on an Orion-style
/// system. (The simulation mirrors `axiombase-orion`'s `reduced_op4` and is
/// cross-validated against it in that crate's tests.)
pub(super) fn order_dependence_hazard(
    initial: &Schema,
    ops: &[RecordedOp],
    out: &mut Vec<Diagnostic>,
) {
    let mut schema = initial.clone();
    for (i, op) in ops.iter().enumerate() {
        if let (
            RecordedOp::DropEssentialSupertype { t: t1, s: s1 },
            Some(RecordedOp::DropEssentialSupertype { t: t2, s: s2 }),
        ) = (op, ops.get(i + 1))
        {
            let ab = orion_sim(&schema, &[(*t1, *s1), (*t2, *s2)]);
            let ba = orion_sim(&schema, &[(*t2, *s2), (*t1, *s1)]);
            if let (Some(fa), Some(fb)) = (ab, ba) {
                if fa != fb {
                    let mut types = vec![*t1, *s1, *t2, *s2];
                    types.dedup();
                    out.push(Diagnostic {
                        rule: RuleId::OrderDependenceHazard,
                        severity: Severity::Warning,
                        location: Location::OpRange(i, i + 1),
                        types,
                        props: vec![],
                        reference: Reference::Claim(
                            "§5 (drop sequences are order-independent under the \
                             axioms but order-dependent under Orion's OP4 relink)",
                        ),
                        message: format!(
                            "ops {}-{} (drop {} from P_e({}); drop {} from P_e({})) \
                             give different schemas under Orion OP4 semantics \
                             depending on their order; the axiomatic result is \
                             order-independent",
                            i + 1,
                            i + 2,
                            tn(&schema, *s1),
                            tn(&schema, *t1),
                            tn(&schema, *s2),
                            tn(&schema, *t2),
                        ),
                        fix: None,
                    });
                }
            }
        }
        if op.apply(&mut schema).is_err() {
            return; // Not a valid evolution path; nothing more to say.
        }
    }
}

/// Apply one Orion OP4 drop to `schema`. Returns `false` (leaving the
/// schema in an unspecified but unused state) when the op is inapplicable —
/// edge absent, last edge to the root, frozen subtype.
fn orion_op4(schema: &mut Schema, t: TypeId, s: TypeId) -> bool {
    if !schema.is_live(t) || !schema.is_live(s) {
        return false;
    }
    let pe = schema.essential_supertypes(t).expect("live type").clone();
    if !pe.contains(&s) {
        return false;
    }
    if pe.len() == 1 {
        if Some(s) == schema.root() {
            return false; // OP4 REJECT: last edge to OBJECT.
        }
        let parents: Vec<TypeId> = schema
            .essential_supertypes(s)
            .expect("live type")
            .iter()
            .copied()
            .collect();
        for parent in parents {
            match schema.add_essential_supertype(t, parent) {
                Ok(()) | Err(SchemaError::DuplicateSupertype { .. }) => {}
                Err(_) => return false,
            }
        }
    }
    schema.drop_essential_supertype(t, s).is_ok()
}

/// Run a sequence of OP4 drops from `base`; `None` if any is inapplicable.
fn orion_sim(base: &Schema, drops: &[(TypeId, TypeId)]) -> Option<u64> {
    let mut schema = base.clone();
    for &(t, s) in drops {
        if !orion_op4(&mut schema, t, s) {
            return None;
        }
    }
    Some(schema.fingerprint())
}

/// L6 — churn: add-then-drop pairs with no intervening use, and drops of
/// properties no `N_e` references.
///
/// All evolution is an edit of `P_e`/`N_e` (§2). Creating a type or
/// property and dropping it again without any operation in between ever
/// using it is pure log noise; so is dropping a property no `N_e`
/// references, which leaves the inputs and every derived term of Table 1
/// unchanged. (`AddProperty` alone is *not* flagged: "behaviors don't
/// become part of the schema until after they are added as essential
/// behaviors of some type" — staging a property before wiring it up is
/// the intended §2 workflow.) Renames to the current name and freezes of
/// a frozen type are no-ops too, but L7 reports them, with the trace
/// optimizer's proof that removing them is safe, so L6 leaves them to it.
/// Informational severity: histories are append-only, so there is nothing
/// to fix in place, but generators and migration scripts that produce
/// churn are worth tightening.
pub(super) fn churn_no_op(initial: &Schema, ops: &[RecordedOp], out: &mut Vec<Diagnostic>) {
    let mut schema = initial.clone();
    // Where each in-trace type/property was created, for pair detection.
    let mut created_types: HashMap<TypeId, usize> = HashMap::new();
    let mut created_props: HashMap<PropId, usize> = HashMap::new();

    for (i, op) in ops.iter().enumerate() {
        match op {
            // Staging a property is the intended workflow — never churn
            // on its own. Capture the id for pair detection.
            RecordedOp::AddProperty { name } => {
                let p = schema.add_property(name.clone());
                created_props.insert(p, i);
                continue;
            }
            RecordedOp::AddType {
                name,
                supers,
                props,
            } => {
                match schema.add_type(name.clone(), supers.iter().copied(), props.iter().copied()) {
                    Ok(t) => {
                        created_types.insert(t, i);
                    }
                    Err(_) => return,
                }
                continue;
            }
            RecordedOp::DropType { t } => {
                if let Some(&j) = created_types.get(t) {
                    let uses = |o: &RecordedOp| {
                        !matches!(o, RecordedOp::DropType { .. }) && o.mentions_type(*t)
                    };
                    if !ops[j + 1..i].iter().any(uses) {
                        out.push(churn(
                            Location::OpRange(j, i),
                            format!(
                                "type {} is added at op {} and dropped at op {} \
                                 with no intervening use",
                                tn(&schema, *t),
                                j + 1,
                                i + 1
                            ),
                        ));
                    }
                }
            }
            RecordedOp::DropProperty { p } => {
                let name = pn(&schema, *p);
                if let Some(&j) = created_props.get(p) {
                    let uses = |o: &RecordedOp| {
                        !matches!(o, RecordedOp::DropProperty { .. }) && o.mentions_prop(*p)
                    };
                    if !ops[j + 1..i].iter().any(uses) {
                        out.push(churn(
                            Location::OpRange(j, i),
                            format!(
                                "property `{name}` is added at op {} and dropped \
                                 at op {} with no intervening use",
                                j + 1,
                                i + 1
                            ),
                        ));
                        if op.apply(&mut schema).is_err() {
                            return;
                        }
                        continue; // Don't double-report as a plain no-op.
                    }
                }
                let before = schema.fingerprint();
                if op.apply(&mut schema).is_err() {
                    return;
                }
                if schema.fingerprint() == before {
                    out.push(churn(
                        Location::Op(i),
                        format!(
                            "op {}: drops property `{name}`, which no N_e \
                             references — the schema is unchanged",
                            i + 1
                        ),
                    ));
                }
                continue;
            }
            _ => {}
        }
        if op.apply(&mut schema).is_err() {
            return;
        }
    }
}

/// One L6 finding.
fn churn(location: Location, message: String) -> Diagnostic {
    Diagnostic {
        rule: RuleId::ChurnNoOp,
        severity: Severity::Info,
        location,
        types: vec![],
        props: vec![],
        reference: Reference::Claim(
            "§2 (all evolution is edits of P_e/N_e; an operation changing \
             neither is churn)",
        ),
        message,
        fix: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;
    use crate::history::History;
    use crate::lint::lint_trace;

    fn chain() -> History {
        // root <- A <- B <- C, each with one property.
        let mut h = History::new(LatticeConfig::default());
        let root = h.add_root_type("T_object").unwrap();
        let a = h.add_type("A", [root], []).unwrap();
        h.define_property_on(a, "x").unwrap();
        let b = h.add_type("B", [a], []).unwrap();
        h.define_property_on(b, "y").unwrap();
        let c = h.add_type("C", [b], []).unwrap();
        h.define_property_on(c, "z").unwrap();
        h
    }

    #[test]
    fn l5_flags_diverging_drop_pair() {
        let mut h = chain();
        let a = h.schema().type_by_name("A").unwrap();
        let b = h.schema().type_by_name("B").unwrap();
        let c = h.schema().type_by_name("C").unwrap();
        // drop(C,B) then drop(B,A): Orion relinks C to {A} in one order and
        // to {root} in the other.
        h.drop_essential_supertype(c, b).unwrap();
        h.drop_essential_supertype(b, a).unwrap();
        let initial = h.as_of(0).unwrap();
        let diags = lint_trace(&initial, h.ops());
        let l5: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::OrderDependenceHazard)
            .collect();
        assert_eq!(l5.len(), 1, "{diags:?}");
        let n = h.ops().len();
        assert_eq!(l5[0].location, Location::OpRange(n - 2, n - 1));
    }

    #[test]
    fn l5_silent_on_commuting_drops() {
        let mut h = chain();
        let root = h.schema().root().unwrap();
        let a = h.schema().type_by_name("A").unwrap();
        let b = h.schema().type_by_name("B").unwrap();
        let c = h.schema().type_by_name("C").unwrap();
        // Give B and C an extra root edge so neither drop is a "last edge":
        // plain removals commute under OP4 too.
        h.add_essential_supertype(b, root).unwrap();
        h.add_essential_supertype(c, root).unwrap();
        h.drop_essential_supertype(c, b).unwrap();
        h.drop_essential_supertype(b, a).unwrap();
        let initial = h.as_of(0).unwrap();
        let diags = lint_trace(&initial, h.ops());
        assert!(
            diags
                .iter()
                .all(|d| d.rule != RuleId::OrderDependenceHazard),
            "{diags:?}"
        );
    }

    #[test]
    fn l6_flags_add_then_drop_type() {
        let mut h = chain();
        let root = h.schema().root().unwrap();
        let tmp = h.add_type("Tmp", [root], []).unwrap();
        let before = h.len() - 1;
        h.drop_type(tmp).unwrap();
        let initial = h.as_of(0).unwrap();
        let diags = lint_trace(&initial, h.ops());
        let l6: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::ChurnNoOp)
            .collect();
        assert_eq!(l6.len(), 1, "{diags:?}");
        assert_eq!(l6[0].location, Location::OpRange(before, before + 1));
    }

    #[test]
    fn l6_used_type_is_not_churn() {
        let mut h = chain();
        let root = h.schema().root().unwrap();
        let tmp = h.add_type("Tmp", [root], []).unwrap();
        h.rename_type(tmp, "Tmp2").unwrap(); // a use
        h.drop_type(tmp).unwrap();
        let initial = h.as_of(0).unwrap();
        let diags = lint_trace(&initial, h.ops());
        assert!(
            diags.iter().all(|d| d.rule != RuleId::ChurnNoOp),
            "{diags:?}"
        );
    }

    #[test]
    fn l6_flags_unreferenced_property_drop() {
        let mut h = chain();
        let p = h.add_property("staged");
        // Using it and then un-using it keeps the final drop fingerprint-
        // neutral but the pair *was* used, so only the no-op fires.
        let a = h.schema().type_by_name("A").unwrap();
        h.add_essential_property(a, p).unwrap();
        h.drop_essential_property(a, p).unwrap();
        h.drop_property(p).unwrap();
        let initial = h.as_of(0).unwrap();
        let diags = lint_trace(&initial, h.ops());
        let l6: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::ChurnNoOp)
            .collect();
        assert_eq!(l6.len(), 1, "{diags:?}");
        assert!(l6[0].message.contains("no N_e references"), "{:?}", l6[0]);
    }
}
