//! The schema rules L1–L4.
//!
//! Each rule inspects the designer inputs (`P_e`/`N_e`) and the derived
//! state of Table 1 and reports smells that the axioms *tolerate* but §5
//! argues against: non-minimal inputs, masked inputs, visible homonyms, and
//! dead weight. Where an input edit provably preserves every derived term,
//! the diagnostic carries a machine-applicable fix.

use super::{Diagnostic, FixEdit, FixIt, Location, Reference, RuleId, Severity};
use crate::axioms::Axiom;
use crate::model::Schema;

pub(super) fn tn(schema: &Schema, t: crate::ids::TypeId) -> String {
    schema
        .type_name(t)
        .map_or_else(|_| format!("{t}"), str::to_owned)
}

pub(super) fn pn(schema: &Schema, p: crate::ids::PropId) -> String {
    schema
        .prop_name(p)
        .map_or_else(|_| format!("{p}"), str::to_owned)
}

/// L1 — `P_e(t)` is non-minimal.
///
/// By the Axiom of Supertypes, `P(t)` is exactly the essential supertypes
/// *not* reachable through another; any element of `P_e(t) − P(t)` is
/// therefore redundant. §5: minimality is what makes conflict resolution and
/// lattice display cheap — "it would only be necessary to iterate through
/// the minimal supertypes". The fix removes the redundant edge, which leaves
/// `P`, `PL`, `H`, and `I` untouched (the reachability that made it
/// redundant is still there).
///
/// The base type `⊥` is exempt: `P_e(⊥)` = all types is definitional
/// (§3.3), not a designer smell. Frozen types get the diagnostic without a
/// fix (structural drops are rejected on them).
pub(super) fn redundant_essential_supertype(schema: &Schema, out: &mut Vec<Diagnostic>) {
    for t in schema.iter_types() {
        if Some(t) == schema.base() {
            continue;
        }
        let pe = schema.essential_supertypes(t).expect("live type");
        let p = schema.immediate_supertypes(t).expect("live type");
        for &s in pe.difference(&p) {
            let fix = if schema.is_frozen(t) {
                None
            } else {
                Some(FixIt {
                    title: format!(
                        "remove redundant essential supertype {} from P_e({})",
                        tn(schema, s),
                        tn(schema, t)
                    ),
                    edits: vec![FixEdit::DropEssentialSupertype { t, s }],
                })
            };
            out.push(Diagnostic {
                rule: RuleId::RedundantEssentialSupertype,
                severity: Severity::Warning,
                location: Location::Type(t),
                types: vec![s],
                props: vec![],
                reference: Reference::Claim(
                    "§5 (minimality of P makes conflict resolution and display cheap)",
                ),
                message: format!(
                    "P_e({t_name}) is non-minimal: {s_name} is already reachable \
                     through another essential supertype, so the Axiom of Supertypes \
                     excludes it from P({t_name})",
                    t_name = tn(schema, t),
                    s_name = tn(schema, s),
                ),
                fix,
            });
        }
    }
}

/// L2 — a property is declared essential on `t` but also inherited there.
///
/// With `N_e(t) ∩ H(t) ≠ ∅`, the Axiom of Nativeness (`N = N_e − H`) erases
/// the declaration from `N(t)`: the input is dead weight that will silently
/// *resurrect* as native if the inheriting path is ever dropped (the §2
/// adoption semantics). The fix drops the shadowed entry from `N_e(t)`,
/// which leaves `N`, `I` — everything — unchanged.
pub(super) fn shadowed_essential_property(schema: &Schema, out: &mut Vec<Diagnostic>) {
    for t in schema.iter_types() {
        let ne = schema.essential_properties(t).expect("live type");
        let h = schema.inherited_properties(t).expect("live type");
        for &p in ne.intersection(&h) {
            out.push(Diagnostic {
                rule: RuleId::ShadowedEssentialProperty,
                severity: Severity::Warning,
                location: Location::Type(t),
                types: vec![],
                props: vec![p],
                reference: Reference::Axiom(Axiom::Nativeness),
                message: format!(
                    "`{p_name}` is declared essential on {t_name} but already \
                     inherited there; the Axiom of Nativeness erases it from \
                     N({t_name}), and it would resurrect as native if the \
                     inheriting path were dropped",
                    p_name = pn(schema, p),
                    t_name = tn(schema, t),
                ),
                fix: Some(FixIt {
                    title: format!(
                        "drop shadowed `{}` from N_e({})",
                        pn(schema, p),
                        tn(schema, t)
                    ),
                    edits: vec![FixEdit::DropEssentialProperty { t, p }],
                }),
            });
        }
    }
}

/// L3 — homonyms visible at a type.
///
/// The axiomatic model resolves nothing — properties are identified by
/// semantics, so `I(t)` unions them freely (§3.1) — but every *name view*
/// (users, Orion-style front ends) must disambiguate. Reuses the minimal
/// scan of [`Schema::name_conflicts`]: §5's claim is that conflicts are
/// detectable in the minimal supertypes alone. No machine fix: choosing a
/// resolution (qualify vs. precedence, cf. [`crate::conflicts::Resolution`])
/// is a design decision.
pub(super) fn name_conflict_hazard(schema: &Schema, out: &mut Vec<Diagnostic>) {
    for t in schema.iter_types() {
        for conflict in schema.name_conflicts(t).expect("live type") {
            let origins: Vec<String> = conflict
                .candidates
                .iter()
                .map(|&(_, d)| tn(schema, d))
                .collect();
            out.push(Diagnostic {
                rule: RuleId::NameConflictHazard,
                severity: Severity::Warning,
                location: Location::Type(t),
                types: conflict.candidates.iter().map(|&(_, d)| d).collect(),
                props: conflict.candidates.iter().map(|&(p, _)| p).collect(),
                reference: Reference::Claim(
                    "§5 (conflicts are detectable in the minimal supertypes alone)",
                ),
                message: format!(
                    "{} distinct properties named `{}` are visible at {} \
                     (defined on {}); every name view must disambiguate them",
                    conflict.candidates.len(),
                    conflict.name,
                    tn(schema, t),
                    origins.join(", "),
                ),
                fix: None,
            });
        }
    }
}

/// L4 — dead weight: disconnected types and dangling properties.
///
/// A *dangling property* is live in the registry but referenced by no
/// type's `N_e` — per §2 "behaviors don't become part of the schema until
/// after they are added as essential behaviors of some type", so no `I(t)`
/// can mention it and deleting it is trivially semantics-preserving.
///
/// A *disconnected type* hangs off the lattice only through `⊤`/`⊥` with no
/// essential properties and no subtypes of its own — it contributes nothing
/// to any interface. Reported as informational, with no fix: the type may
/// be a staging stub about to gain structure.
pub(super) fn disconnected_or_dangling(schema: &Schema, out: &mut Vec<Diagnostic>) {
    let support = super::essential_property_support(schema);
    for p in schema.iter_props() {
        if !support.contains(&p) {
            out.push(Diagnostic {
                rule: RuleId::DisconnectedOrDangling,
                severity: Severity::Warning,
                location: Location::Prop(p),
                types: vec![],
                props: vec![p],
                reference: Reference::Claim("§2 (properties join the schema only via some N_e)"),
                message: format!(
                    "property `{}` is referenced by no type's N_e — it appears \
                     in no interface and can be deleted",
                    pn(schema, p),
                ),
                fix: Some(FixIt {
                    title: format!("delete dangling property `{}`", pn(schema, p)),
                    edits: vec![FixEdit::DeleteProperty { p }],
                }),
            });
        }
    }
    for t in schema.iter_types() {
        if Some(t) == schema.root() || Some(t) == schema.base() {
            continue;
        }
        let pe = schema.essential_supertypes(t).expect("live type");
        let only_root_above = pe.iter().all(|&s| Some(s) == schema.root());
        let subs = schema.essential_subtypes(t).expect("live type");
        let only_base_below = subs.iter().all(|&c| Some(c) == schema.base());
        if only_root_above
            && only_base_below
            && schema
                .essential_properties(t)
                .expect("live type")
                .is_empty()
        {
            out.push(Diagnostic {
                rule: RuleId::DisconnectedOrDangling,
                severity: Severity::Info,
                location: Location::Type(t),
                types: vec![],
                props: vec![],
                reference: Reference::Claim(
                    "§2 (a type's contribution to the schema is its P_e/N_e)",
                ),
                message: format!(
                    "type {} is linked only through ⊤/⊥, declares no essential \
                     properties, and has no subtypes — it contributes nothing \
                     to any interface",
                    tn(schema, t),
                ),
                fix: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatticeConfig;
    use crate::lint::lint_schema;

    fn rooted() -> (Schema, crate::ids::TypeId) {
        let mut s = Schema::new(LatticeConfig::default());
        let root = s.add_root_type("T_object").unwrap();
        (s, root)
    }

    #[test]
    fn l1_skips_base_type() {
        let mut s = Schema::new(LatticeConfig::TIGUKAT);
        let root = s.add_root_type("T_object").unwrap();
        s.add_base_type("T_null").unwrap();
        let a = s.add_type("A", [root], []).unwrap();
        s.define_property_on(a, "x").unwrap();
        // P_e(⊥) = {root, a} with a ∈ PL reachable… definitional, not a smell.
        let diags = lint_schema(&s);
        assert!(
            diags
                .iter()
                .all(|d| d.rule != RuleId::RedundantEssentialSupertype),
            "{diags:?}"
        );
    }

    #[test]
    fn l1_frozen_type_gets_no_fix() {
        let (mut s, root) = rooted();
        let a = s.add_type("A", [root], []).unwrap();
        s.define_property_on(a, "x").unwrap();
        let b = s.add_type("B", [a, root], []).unwrap();
        s.define_property_on(b, "y").unwrap();
        s.freeze_type(b).unwrap();
        let diags = lint_schema(&s);
        let l1: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::RedundantEssentialSupertype)
            .collect();
        assert_eq!(l1.len(), 1);
        assert!(l1[0].fix.is_none(), "frozen type cannot be restructured");
    }

    #[test]
    fn l4_island_is_info_without_fix() {
        let (mut s, root) = rooted();
        let a = s.add_type("Island", [root], []).unwrap();
        let diags = lint_schema(&s);
        let l4: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == RuleId::DisconnectedOrDangling)
            .collect();
        assert_eq!(l4.len(), 1);
        assert_eq!(l4[0].severity, Severity::Info);
        assert_eq!(l4[0].location, Location::Type(a));
        assert!(l4[0].fix.is_none());
    }
}
