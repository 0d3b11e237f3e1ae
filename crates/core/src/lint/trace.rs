//! The trace rules L5–L6, read from the symbolic shadow.
//!
//! These rules analyse a recorded operation log ([`RecordedOp`]) rather
//! than a single schema state. By §2 every question they ask is one about
//! the designer inputs `P_e`/`N_e`, so they read each op's pre-state from
//! the one forward pass the analyzers share ([`TracePass`]): nothing is
//! executed, cloned or hashed.

use std::collections::HashMap;

use super::{Diagnostic, Location, Reference, RuleId, Severity};
use crate::analysis::contrast::op4_orders_diverge;
use crate::analysis::footprint::{SymbolicState, TracePass};
use crate::history::RecordedOp;
use crate::ids::{PropId, TypeId};
use crate::model::Schema;

/// Run L5 and L6 over `ops` from `initial` in one pass.
pub(super) fn trace_rules(initial: &Schema, ops: &[RecordedOp], out: &mut Vec<Diagnostic>) {
    let mut churn = Churn::default();
    TracePass::run(initial, ops, |i, op, pre| {
        order_dependence_hazard(ops, i, op, pre, out);
        churn.step(ops, i, op, pre, out);
    });
}

/// The name in type slot `t` of `state`, or the raw id.
fn tn(state: &SymbolicState, t: TypeId) -> String {
    state
        .type_name(t.index())
        .map_or_else(|| format!("{t}"), str::to_owned)
}

/// The name in property slot `p` of `state`, or the raw id.
fn pn(state: &SymbolicState, p: PropId) -> String {
    state
        .prop_name(p.index())
        .map_or_else(|| format!("{p}"), str::to_owned)
}

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
/// runs of consecutive `DropEssentialSupertype` operations and judges each
/// adjacent pair with the contrast's OP4 evaluator
/// ([`crate::analysis::contrast`]) on the `P_e` rows just before the pair:
/// when both orders apply and their rows differ, the migration script is
/// correct under the axiomatic model but order-sensitive on an Orion-style
/// system. (On a recorded trace this is exactly what running OP4 through
/// the engine's edge ops in both orders decides: the engine's relink adds
/// `P_e(s)` to `t` and then drops `s`, leaving `P_e(t) = P_e(s)`, and none
/// of its other guards can fire where both recorded drops applied.)
fn order_dependence_hazard(
    ops: &[RecordedOp],
    i: usize,
    op: &RecordedOp,
    pre: &SymbolicState,
    out: &mut Vec<Diagnostic>,
) {
    let (
        RecordedOp::DropEssentialSupertype { t: t1, s: s1 },
        Some(RecordedOp::DropEssentialSupertype { t: t2, s: s2 }),
    ) = (op, ops.get(i + 1))
    else {
        return;
    };
    if !op4_orders_diverge(pre, (*t1, *s1), (*t2, *s2)) {
        return;
    }
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
            tn(pre, *s1),
            tn(pre, *t1),
            tn(pre, *s2),
            tn(pre, *t2),
        ),
        fix: None,
    });
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
///
/// A created slot is the arena's next one in the op's pre-state, and a
/// property drop leaves the schema unchanged exactly when the property
/// has no live holder: it clears `p` from its holders' `N_e` and touches
/// nothing else a schema's types carry.
#[derive(Default)]
struct Churn {
    /// Where each in-trace type was created, for pair detection.
    created_types: HashMap<TypeId, usize>,
    /// Where each in-trace property was created.
    created_props: HashMap<PropId, usize>,
}

impl Churn {
    fn step(
        &mut self,
        ops: &[RecordedOp],
        i: usize,
        op: &RecordedOp,
        pre: &SymbolicState,
        out: &mut Vec<Diagnostic>,
    ) {
        match op {
            // Staging a property is the intended workflow — never churn
            // on its own. Note the id for pair detection.
            RecordedOp::AddProperty { .. } => {
                self.created_props
                    .insert(PropId::from_index(pre.prop_slots()), i);
            }
            RecordedOp::AddType { .. } => {
                self.created_types
                    .insert(TypeId::from_index(pre.type_slots()), i);
            }
            RecordedOp::DropType { t } => {
                if let Some(&j) = self.created_types.get(t) {
                    let uses = |o: &RecordedOp| {
                        !matches!(o, RecordedOp::DropType { .. }) && o.mentions_type(*t)
                    };
                    if !ops[j + 1..i].iter().any(uses) {
                        out.push(churn(
                            Location::OpRange(j, i),
                            format!(
                                "type {} is added at op {} and dropped at op {} \
                                 with no intervening use",
                                tn(pre, *t),
                                j + 1,
                                i + 1
                            ),
                        ));
                    }
                }
            }
            RecordedOp::DropProperty { p } => {
                let name = pn(pre, *p);
                if let Some(&j) = self.created_props.get(p) {
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
                        return; // Don't double-report as a plain no-op.
                    }
                }
                if pre.holders_of(p.index()).next().is_none() {
                    out.push(churn(
                        Location::Op(i),
                        format!(
                            "op {}: drops property `{name}`, which no N_e \
                             references — the schema is unchanged",
                            i + 1
                        ),
                    ));
                }
            }
            _ => {}
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
